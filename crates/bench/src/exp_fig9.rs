//! Figure 9: scalability across Row Hammer thresholds
//! (50K → 1.56K, the technology-scaling sweep).

use rh_analysis::export::Csv;
use rh_analysis::report::{pct, thousands};
use rh_analysis::{AreaComparison, TablePrinter};
use rh_sim::{run_matrix, DefenseSpec, SimConfig, WorkloadSpec};

/// Runs the Figure 9 sweep: (a) area, (b) energy on a normal mix,
/// (c) energy on the S3 attack, (d) performance on the attack.
pub fn run(fast: bool) {
    crate::banner("Figure 9(a) — table size per rank (16 banks) vs T_RH");
    let mut table = TablePrinter::new(vec![
        "T_RH",
        "CBT bits/rank",
        "TWiCe bits/rank",
        "Graphene bits/rank",
        "TWiCe/Graphene",
    ]);
    for c in AreaComparison::figure9_sweep() {
        table.row(vec![
            c.t_rh.to_string(),
            thousands(c.cbt.per_rank(16)),
            thousands(c.twice.per_rank(16)),
            thousands(c.graphene.per_rank(16)),
            format!("{:.1}x", c.twice_over_graphene()),
        ]);
    }
    table.print();
    let csv: Csv = AreaComparison::figure9_sweep()
        .iter()
        .map(|c| {
            vec![
                ("t_rh", c.t_rh.to_string()),
                ("cbt_bits_rank", c.cbt.per_rank(16).to_string()),
                ("twice_bits_rank", c.twice.per_rank(16).to_string()),
                ("graphene_bits_rank", c.graphene.per_rank(16).to_string()),
            ]
        })
        .collect();
    crate::write_output("fig9a.csv", &csv.render());
    println!("Paper: all scale ~linearly in 1/T_RH; TWiCe reaches ~1.19 MB/rank at 1.56K.");

    let thresholds: &[u64] =
        if fast { &[50_000, 12_500] } else { &[50_000, 25_000, 12_500, 6_250, 3_125, 1_560] };

    crate::banner("Figure 9(b,d) — energy and performance on a normal mix vs T_RH");
    let accesses: u64 = if fast { 150_000 } else { 1_000_000 };
    let mut table = TablePrinter::new(vec![
        "T_RH",
        "PARA energy",
        "CBT energy",
        "TWiCe energy",
        "Graphene energy",
        "PARA slowdown",
        "CBT slowdown",
    ]);
    for &t_rh in thresholds {
        let cfg = SimConfig::with_threshold(t_rh, accesses);
        let defenses = DefenseSpec::paper_lineup(t_rh);
        let reports = run_matrix(&cfg, &defenses, &[WorkloadSpec::MixHigh]).reports;
        table.row(vec![
            t_rh.to_string(),
            pct(reports[0].energy_overhead),
            pct(reports[1].energy_overhead),
            pct(reports[2].energy_overhead),
            pct(reports[3].energy_overhead),
            pct(reports[0].slowdown.max(0.0)),
            pct(reports[1].slowdown.max(0.0)),
        ]);
    }
    table.print();
    println!("Paper: PARA grows linearly; Graphene/TWiCe stay ~0 on normal workloads.");

    crate::banner("Figure 9(c) — energy on the adversarial S3 pattern vs T_RH");
    let attack_accesses: u64 = if fast { 200_000 } else { 1_500_000 };
    let mut table = TablePrinter::new(vec![
        "T_RH",
        "PARA energy",
        "CBT energy",
        "TWiCe energy",
        "Graphene energy",
        "Graphene slowdown",
        "flips(any)",
    ]);
    for &t_rh in thresholds {
        let cfg = SimConfig::with_threshold(t_rh, attack_accesses);
        let defenses = DefenseSpec::paper_lineup(t_rh);
        let reports = run_matrix(&cfg, &defenses, &[WorkloadSpec::S1 { n: 10 }]).reports;
        let flips: u64 = reports.iter().map(|r| r.stats.bit_flips).sum();
        table.row(vec![
            t_rh.to_string(),
            pct(reports[0].energy_overhead),
            pct(reports[1].energy_overhead),
            pct(reports[2].energy_overhead),
            pct(reports[3].energy_overhead),
            pct(reports[3].slowdown.max(0.0)),
            flips.to_string(),
        ]);
    }
    table.print();
    println!(
        "Paper: adversarial energy of Graphene/TWiCe scales ~linearly with 1/T_RH but \
         stays small; every counter-based scheme stays flip-free at every threshold."
    );
}
