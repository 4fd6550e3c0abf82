//! `tracker-arena`: the head-to-head tracker sweep.
//!
//! Runs Graphene, CoMeT, ABACuS, and BlockHammer across attack workloads
//! and the Figure 9 threshold ladder (extended to `T_RH = 1K`), every cell
//! fully audited, and enforces the arena's headline claims in-process:
//!
//! * **Graphene and ABACuS** reproduce the exact no-false-negative result:
//!   zero ground-truth bit flips, worst-case disturbance strictly below
//!   `T_RH`, certified inline by the shadow oracle of the audit layer.
//! * **CoMeT and BlockHammer** pass their bounded-FN certificates: the
//!   analytic per-window false-negative bound stays under
//!   [`FnCertificate::MAX_TOLERABLE_FN`](rh_analysis::FnCertificate::MAX_TOLERABLE_FN)
//!   and the observed disturbance stays inside the certificate's budget.
//! * **ABACuS on same-row-all-banks** shows the shared-table advantage:
//!   it certifies the pattern with a per-bank table share below Graphene's
//!   per-bank footprint.
//! * **BlockHammer** is the only scheme that throttles (every other row
//!   reports zero throttled ACTs), paying for its zero refresh traffic
//!   with attack-facing slowdown.
//!
//! Exports `experiment-data/arena/arena.csv`: one row per (threshold,
//! workload, defense) with security, certificate, slowdown, area, and
//! energy columns.

use rh_analysis::export::Csv;
use rh_analysis::TablePrinter;
use rh_sim::{run_arena, ArenaCell, MatrixAxes, WorkloadSpec};

/// Runs the arena sweep, asserts the arena claims, and writes the export.
///
/// # Panics
///
/// Panics if an arena claim fails: an exact scheme with flips or an
/// over-threshold victim, a probabilistic scheme outside its certificate,
/// a refresh-based tracker that throttled, or ABACuS losing its area edge.
pub fn run(fast: bool) {
    crate::banner("tracker-arena — Graphene vs CoMeT vs ABACuS vs BlockHammer");
    let axes = if fast { MatrixAxes::arena_smoke() } else { MatrixAxes::arena_full() };
    println!(
        "{} thresholds x {} workloads x 4 trackers, {} accesses per cell (audited)",
        axes.points.len(),
        axes.workloads.len(),
        axes.accesses
    );

    let cells = run_arena(&axes);
    print_cells(&cells);
    assert_arena_claims(&axes, &cells);

    let rerun = run_arena(&axes);
    assert_eq!(cells, rerun, "arena sweep must be bit-reproducible");
    println!("Reproducibility: arena re-run is bit-identical.");

    write_exports(&cells);
}

/// The in-process acceptance checks of the arena experiment.
fn assert_arena_claims(axes: &MatrixAxes, cells: &[ArenaCell]) {
    let mut throttlers = 0u64;
    for cell in cells {
        let id = format!("{}@{} on {}", cell.defense, cell.t_rh, cell.workload);
        match cell.cert_kind {
            "exact-no-fn" => {
                assert_eq!(cell.bit_flips, 0, "{id}: exact scheme leaked flips");
                assert!(
                    cell.max_disturbance < cell.t_rh,
                    "{id}: disturbance {} reached T_RH",
                    cell.max_disturbance
                );
            }
            "bounded-fn" => {
                assert!(
                    cell.analytic_fn_bound < rh_analysis::FnCertificate::MAX_TOLERABLE_FN,
                    "{id}: analytic FN bound {} over ceiling",
                    cell.analytic_fn_bound
                );
            }
            other => panic!("{id}: unknown certificate kind {other}"),
        }
        assert!(cell.cert_passes, "{id}: certificate failed ({cell:?})");
        if cell.defense == "BlockHammer" {
            throttlers += cell.throttled_acts;
        } else {
            assert_eq!(cell.throttled_acts, 0, "{id}: refresh-based trackers must never throttle");
        }
    }
    assert!(throttlers > 0, "BlockHammer never throttled across the whole arena");

    // The ABACuS claim needs the all-banks pattern in the matrix.
    let all_banks =
        axes.workloads.iter().any(|w| matches!(w, WorkloadSpec::SameRowAllBanks { .. }));
    assert!(all_banks, "arena must include the same-row-all-banks pattern");
    for cell in cells.iter().filter(|c| c.workload.starts_with("same-row")) {
        if cell.defense != "ABACuS" {
            continue;
        }
        let graphene = cells
            .iter()
            .find(|c| c.defense == "Graphene" && c.t_rh == cell.t_rh && c.workload == cell.workload)
            .expect("lineup always contains Graphene");
        assert!(
            cell.cam_bits + cell.sram_bits < graphene.cam_bits + graphene.sram_bits,
            "ABACuS@{}: shared-table share must undercut Graphene per bank",
            cell.t_rh
        );
    }
    println!(
        "Claims hold: exact schemes zero-FN, probabilistic schemes inside their certificates, \
         ABACuS area edge on all-banks, {throttlers} throttled ACT(s) (BlockHammer only)."
    );
}

fn print_cells(cells: &[ArenaCell]) {
    let mut table = TablePrinter::new(vec![
        "T_RH",
        "workload",
        "defense",
        "cert",
        "pass",
        "flips",
        "max_dist",
        "margin",
        "slowdown",
        "throttled",
        "kbits",
        "energy",
    ]);
    for cell in cells {
        table.row(vec![
            cell.t_rh.to_string(),
            cell.workload.clone(),
            cell.defense.clone(),
            cell.cert_kind.into(),
            if cell.cert_passes { "yes".into() } else { "NO".into() },
            cell.bit_flips.to_string(),
            cell.max_disturbance.to_string(),
            format!("{:.3}", cell.observed_margin),
            format!("{:.3}", cell.slowdown),
            cell.throttled_acts.to_string(),
            format!("{:.1}", (cell.cam_bits + cell.sram_bits) as f64 / 1024.0),
            format!("{:.5}", cell.energy_overhead),
        ]);
    }
    table.print();
}

fn write_exports(cells: &[ArenaCell]) {
    let csv: Csv = cells
        .iter()
        .map(|cell| {
            vec![
                ("t_rh", cell.t_rh.to_string()),
                ("workload", cell.workload.clone()),
                ("defense", cell.defense.clone()),
                ("spec", cell.spec.clone()),
                ("bit_flips", cell.bit_flips.to_string()),
                ("baseline_bit_flips", cell.baseline_bit_flips.to_string()),
                ("max_disturbance", cell.max_disturbance.to_string()),
                ("cert_kind", cell.cert_kind.into()),
                ("cert_passes", cell.cert_passes.to_string()),
                ("analytic_fn_bound", format!("{:e}", cell.analytic_fn_bound)),
                ("design_margin", format!("{:.4}", cell.design_margin)),
                ("observed_margin", format!("{:.4}", cell.observed_margin)),
                ("slowdown", format!("{:.4}", cell.slowdown)),
                ("throttled_acts", cell.throttled_acts.to_string()),
                ("cam_bits", cell.cam_bits.to_string()),
                ("sram_bits", cell.sram_bits.to_string()),
                ("energy_overhead", format!("{:.6}", cell.energy_overhead)),
            ]
        })
        .collect();
    crate::write_output("arena/arena.csv", &csv.render());
}
