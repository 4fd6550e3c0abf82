//! Figure 6: worst-case additional refreshes and table size vs `k`.

use rh_analysis::export::Csv;
use rh_analysis::report::pct;
use rh_analysis::worstcase::figure6_sweep;
use rh_analysis::TablePrinter;

/// Prints the Figure 6 sweep (k = 1..10 at T_RH = 50K, 64K-row bank).
pub fn run(_fast: bool) {
    crate::banner("Figure 6 — additional refreshes and table entries vs k");
    let sweep = figure6_sweep(50_000, 10, 65_536);

    let mut table = TablePrinter::new(vec![
        "k",
        "N_entry",
        "table bits",
        "worst victim rows/tREFW",
        "relative refreshes",
        "energy overhead",
    ]);
    for p in &sweep {
        table.row(vec![
            p.k.to_string(),
            p.n_entry.to_string(),
            p.table_bits.to_string(),
            p.worst_case_victim_rows.to_string(),
            pct(p.relative_additional_refreshes),
            pct(p.energy_overhead),
        ]);
    }
    table.print();

    let csv: Csv = sweep
        .iter()
        .map(|p| {
            vec![
                ("k", p.k.to_string()),
                ("n_entry", p.n_entry.to_string()),
                ("table_bits", p.table_bits.to_string()),
                ("worst_victim_rows", p.worst_case_victim_rows.to_string()),
                ("energy_overhead", format!("{:.6}", p.energy_overhead)),
            ]
        })
        .collect();
    crate::write_output("fig6.csv", &csv.render());

    println!();
    println!(
        "Paper's checkpoints: table shrinks with diminishing returns while \
         worst-case refreshes keep growing; k = 2 (the evaluated point) gives \
         N_entry = {} and {} worst-case energy (paper: 81 entries, 0.34%).",
        sweep[1].n_entry,
        pct(sweep[1].energy_overhead)
    );
}
