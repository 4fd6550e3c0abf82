//! Figure 8: refresh-energy increase and performance loss at T_RH = 50K.
//!
//! (a) normal workloads — Graphene/TWiCe must produce *zero* victim
//! refreshes; PARA pays its constant probability; CBT's subtree splits and
//! bursts cost energy.
//! (b) adversarial patterns S1/S2/S3/S4 — Graphene's worst case stays below
//! the 0.34 % bound; PARA sits at its constant ~2.1 %; CBT bursts.
//! (c) performance loss from victim refreshes on the adversarial patterns.

use rh_analysis::export::Csv;
use rh_analysis::report::pct;
use rh_analysis::TablePrinter;
use rh_sim::{run_matrix, DefenseSpec, SimConfig, SimReport, WorkloadSpec};

/// Runs the Figure 8 matrix.
pub fn run(fast: bool) {
    crate::banner("Figure 8 — energy and performance overhead at T_RH = 50K");
    let t_rh = 50_000;
    let defenses = DefenseSpec::paper_lineup(t_rh);

    // (a) + (c): normal workloads on the full 64-bank system.
    let normal_accesses: u64 = if fast { 200_000 } else { 2_000_000 };
    let cfg = SimConfig { accesses: normal_accesses, ..SimConfig::micro2020(normal_accesses) };
    let normals: Vec<WorkloadSpec> = if fast {
        WorkloadSpec::normal_set().into_iter().take(3).collect()
    } else {
        WorkloadSpec::normal_set()
    };
    let reports = run_matrix(&cfg, &defenses, &normals).reports;

    println!("\n(a) refresh-energy increase, normal workloads:");
    let mut table =
        TablePrinter::new(vec!["workload", "PARA", "CBT", "TWiCe", "Graphene", "flips(any)"]);
    for chunk in reports.chunks(defenses.len()) {
        let flips: u64 = chunk.iter().map(|r| r.stats.bit_flips).sum();
        table.row(vec![
            chunk[0].workload.clone(),
            pct(chunk[0].energy_overhead),
            pct(chunk[1].energy_overhead),
            pct(chunk[2].energy_overhead),
            pct(chunk[3].energy_overhead),
            flips.to_string(),
        ]);
    }
    table.print();
    let graphene_refreshes: u64 = reports
        .iter()
        .filter(|r| r.defense == "Graphene")
        .map(|r| r.stats.defense_refresh_commands)
        .sum();
    let twice_refreshes: u64 = reports
        .iter()
        .filter(|r| r.defense == "TWiCe")
        .map(|r| r.stats.defense_refresh_commands)
        .sum();
    println!(
        "Graphene victim refreshes on ALL normal workloads: {graphene_refreshes} (paper: 0); \
         TWiCe: {twice_refreshes} (paper: 0)."
    );

    println!("\n(c) performance loss, normal workloads");
    println!("    (weighted-speedup loss | mean-latency increase):");
    let mut table = TablePrinter::new(vec!["workload", "PARA", "CBT", "TWiCe", "Graphene"]);
    let cell = |r: &rh_sim::SimReport| {
        format!("{} | {}", pct(r.weighted_speedup_loss.max(0.0)), pct(r.latency_increase.max(0.0)))
    };
    for chunk in reports.chunks(defenses.len()) {
        table.row(vec![
            chunk[0].workload.clone(),
            cell(&chunk[0]),
            cell(&chunk[1]),
            cell(&chunk[2]),
            cell(&chunk[3]),
        ]);
    }
    table.print();
    write_csv("fig8_normal.csv", &reports);

    // (b): adversarial patterns on a single saturated bank.
    let attack_accesses: u64 = if fast { 300_000 } else { 3_000_000 };
    let cfg = SimConfig { accesses: attack_accesses, ..SimConfig::micro2020(attack_accesses) };
    let attacks = WorkloadSpec::adversarial_set();
    let reports = run_matrix(&cfg, &defenses, &attacks).reports;

    println!("\n(b) refresh-energy increase, adversarial patterns (single bank):");
    let mut table = TablePrinter::new(vec![
        "pattern",
        "PARA",
        "CBT",
        "TWiCe",
        "Graphene",
        "Graphene slowdown",
        "flips(any)",
    ]);
    for chunk in reports.chunks(defenses.len()) {
        let flips: u64 = chunk.iter().map(|r| r.stats.bit_flips).sum();
        table.row(vec![
            chunk[0].workload.clone(),
            pct(chunk[0].energy_overhead),
            pct(chunk[1].energy_overhead),
            pct(chunk[2].energy_overhead),
            pct(chunk[3].energy_overhead),
            pct(chunk[3].slowdown.max(0.0)),
            flips.to_string(),
        ]);
    }
    table.print();
    println!(
        "Paper checkpoints: Graphene ≤ 0.34% on every pattern; PARA ≈ 2.1% constant; \
         CBT bursts dominate; no counter-based scheme flips a bit."
    );
    write_csv("fig8_adversarial.csv", &reports);
}

/// Dumps a report list as CSV into the experiment output directory.
fn write_csv(name: &str, reports: &[SimReport]) {
    let csv: Csv = reports
        .iter()
        .map(|r| {
            vec![
                ("workload", r.workload.clone()),
                ("defense", r.defense.clone()),
                ("victim_rows_refreshed", r.stats.victim_rows_refreshed.to_string()),
                ("defense_refresh_commands", r.stats.defense_refresh_commands.to_string()),
                ("energy_overhead", format!("{:.6}", r.energy_overhead)),
                ("slowdown", format!("{:.6}", r.slowdown)),
                ("latency_increase", format!("{:.6}", r.latency_increase)),
                ("bit_flips", r.stats.bit_flips.to_string()),
            ]
        })
        .collect();
    crate::write_output(name, &csv.render());
}
