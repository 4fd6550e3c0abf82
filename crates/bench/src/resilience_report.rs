//! `resilience-report`: the fault-injection resilience matrix.
//!
//! Crosses seeded fault plans (a single-bit tracker-corruption plan and a
//! full chaos plan: drops, defers, refresh postponement, duplicates, sink
//! outages, worker stalls) with defenses and workloads via
//! [`rh_sim::run_matrix_faulted`], prints the per-cell outcome table, and
//! enforces the headline resilience claims in-process:
//!
//! * **HardenedGraphene** completes every single-bit-plan cell with zero
//!   ground-truth false negatives — the parity + conservative-reset scheme
//!   preserves the paper's no-false-negative property under any single
//!   stored-bit fault;
//! * **plain Graphene** under the same plans fails *detectably*: every
//!   affected cell ends as an audit kill or with oracle-counted flips,
//!   never silently;
//! * the sweep itself survives its injected harness faults (sink outages
//!   ridden out by bounded retry, worker stalls cut short by the pool
//!   watchdog) and the cell payload is bit-reproducible from the seeds.
//!
//! Exports under `experiment-data/resilience/`:
//!
//! * `resilience.csv` — one row per cell (outcome, false negatives, fault
//!   and degradation counters, retry accounting);
//! * `snapshot.jsonl` — the merged telemetry snapshot, every completed
//!   cell's series prefixed `"{plan}/{workload}/{defense}/"`.

use faultsim::FaultSpec;
use rh_analysis::export::Csv;
use rh_analysis::TablePrinter;
use rh_sim::{
    run_matrix_faulted, CellOutcome, DefenseSpec, FaultedRun, ResilienceReport, SimConfig,
    WorkloadSpec,
};

/// Runs the resilience matrix, asserts the degradation guarantees, and
/// writes the exports.
///
/// # Panics
///
/// Panics if a resilience claim fails: a HardenedGraphene cell with false
/// negatives (or killed by the audit) under a single-bit plan, a plain
/// Graphene failure the harness did not detect, a sweep that lost telemetry
/// writes despite the retry budget, or a non-reproducible matrix.
pub fn run(fast: bool) {
    crate::banner("resilience-report — fault injection × graceful degradation");
    let accesses: u64 = if fast { 8_000 } else { 40_000 };
    let t_rh = 5_000;

    // Seed 9 is chosen so the plan materially bites at both scales: its
    // flip pattern suppresses plain Graphene's trigger on the hot row
    // (an audit-detected certificate kill), while HardenedGraphene rides
    // the same plan out with zero ground-truth false negatives.
    let single_bit =
        FaultSpec { accesses, ..FaultSpec::single_bit_flips(9, if fast { 16 } else { 32 }) };
    let chaos = FaultSpec { accesses, ..FaultSpec::chaos(77) };
    let plans = [single_bit, chaos];
    let defenses = [
        DefenseSpec::None,
        DefenseSpec::Graphene { t_rh, k: 2 },
        DefenseSpec::HardenedGraphene { t_rh, k: 2 },
    ];
    let workloads = [WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }];

    let cfg = SimConfig::attack_bank(t_rh, accesses);
    let report = run_matrix_faulted(&cfg, &plans, &defenses, &workloads);

    print_cells(&report);
    println!();
    println!(
        "Sweep: {} cells on the watched pool ({} watchdog trip(s) — wall-clock dependent).",
        report.pool.jobs_completed, report.pool.watchdog_trips
    );

    assert_resilience_claims(&report, &plans[0]);

    // Bit-reproducibility: the single-bit half of the matrix re-run from
    // the same seeds must produce identical cells (the pool report may
    // differ — it is wall-clock accounting).
    let rerun = run_matrix_faulted(&cfg, &plans[..1], &defenses, &workloads);
    let first_half = &report.cells[..rerun.cells.len()];
    assert_eq!(rerun.cells, first_half, "resilience matrix must be bit-reproducible from seeds");
    println!("Reproducibility: single-bit matrix re-run is bit-identical.");

    write_exports(&report);
}

/// The in-process acceptance checks of the resilience experiment.
fn assert_resilience_claims(report: &ResilienceReport, single_bit: &FaultSpec) {
    let single_bit_label = rh_sim::plan_label(single_bit);
    let mut plain_failures = 0u64;
    for cell in &report.cells {
        let under_single_bit = cell.plan == single_bit_label;
        match cell.defense.as_str() {
            "HardenedGraphene" if under_single_bit => {
                let run = cell.completed().unwrap_or_else(|| {
                    panic!(
                        "HardenedGraphene must survive single-bit faults on {}, got {:?}",
                        cell.workload, cell.outcome
                    )
                });
                assert_eq!(
                    run.false_negatives, 0,
                    "HardenedGraphene leaked {} false negative(s) on {} under {}",
                    run.false_negatives, cell.workload, cell.plan
                );
            }
            "Graphene" if under_single_bit => {
                // Either the corruption was harmless or it was *detected*
                // (audit kill or oracle flips) — a silent miss is the one
                // forbidden outcome, and `detected_failure` covers exactly
                // the non-harmless cases.
                if cell.detected_failure() {
                    plain_failures += 1;
                }
                if let Some(run) = cell.completed() {
                    assert!(
                        run.faults.tracker_faults_applied + run.faults.tracker_faults_vacuous > 0,
                        "single-bit plan never reached the tracker on {}",
                        cell.workload
                    );
                }
            }
            _ => {}
        }
        if let Some(run) = cell.completed() {
            assert_eq!(
                run.sink.dropped_writes, 0,
                "bounded sink outages must never lose telemetry writes ({}/{}/{})",
                cell.plan, cell.workload, cell.defense
            );
        }
    }
    assert!(
        plain_failures > 0,
        "the single-bit plan must materially break unhardened Graphene somewhere"
    );
    println!(
        "Claims hold: hardened zero-FN under single-bit faults; {plain_failures} plain-Graphene \
         failure(s), all detected; no telemetry writes lost."
    );
}

fn print_cells(report: &ResilienceReport) {
    let mut table = TablePrinter::new(vec![
        "plan", "workload", "defense", "outcome", "FN", "trk", "drop", "dup", "parity", "repairs",
        "retries",
    ]);
    for cell in &report.cells {
        let row = match &cell.outcome {
            CellOutcome::Completed(run) => vec![
                cell.plan.clone(),
                cell.workload.clone(),
                cell.defense.clone(),
                "completed".into(),
                run.false_negatives.to_string(),
                (run.faults.tracker_faults_applied + run.faults.tracker_faults_vacuous).to_string(),
                run.faults.nrrs_dropped.to_string(),
                run.faults.commands_duplicated.to_string(),
                run.parity_detections.to_string(),
                run.repair_nrrs.to_string(),
                run.sink.retries.to_string(),
            ],
            CellOutcome::AuditViolation { .. } => {
                let mut row = vec![
                    cell.plan.clone(),
                    cell.workload.clone(),
                    cell.defense.clone(),
                    "audit-kill".into(),
                ];
                row.extend(std::iter::repeat_n("-".to_string(), 7));
                row
            }
        };
        table.row(row);
    }
    table.print();
    for cell in &report.cells {
        if let CellOutcome::AuditViolation { message } = &cell.outcome {
            let first = message.lines().next().unwrap_or(message);
            println!("  detected [{}/{}/{}]: {first}", cell.plan, cell.workload, cell.defense);
        }
    }
}

/// Reads one counter column of a completed cell.
type Counter = fn(&FaultedRun) -> u64;

/// The counter columns of `resilience.csv`, each next to the field it
/// reads; an audit-killed cell writes `-` under every one.
const COUNTER_COLUMNS: [(&str, Counter); 12] = [
    ("false_negatives", |r| r.false_negatives),
    ("tracker_applied", |r| r.faults.tracker_faults_applied),
    ("tracker_vacuous", |r| r.faults.tracker_faults_vacuous),
    ("nrrs_dropped", |r| r.faults.nrrs_dropped),
    ("nrrs_deferred", |r| r.faults.nrrs_deferred),
    ("nrrs_released", |r| r.faults.nrrs_released),
    ("refreshes_postponed", |r| r.faults.refreshes_postponed),
    ("commands_duplicated", |r| r.faults.commands_duplicated),
    ("parity_detections", |r| r.parity_detections),
    ("repair_nrrs", |r| r.repair_nrrs),
    ("sink_retries", |r| r.sink.retries),
    ("sink_dropped_writes", |r| r.sink.dropped_writes),
];

fn write_exports(report: &ResilienceReport) {
    let csv: Csv = report
        .cells
        .iter()
        .map(|cell| {
            let outcome = match &cell.outcome {
                CellOutcome::Completed(_) => "completed".to_owned(),
                CellOutcome::AuditViolation { message } => {
                    format!("audit-kill: {}", message.lines().next().unwrap_or(message))
                }
            };
            let mut row = vec![
                ("plan", cell.plan.clone()),
                ("workload", cell.workload.clone()),
                ("defense", cell.defense.clone()),
                ("outcome", outcome),
            ];
            let run = cell.completed();
            row.extend(COUNTER_COLUMNS.iter().map(|&(name, counter)| {
                (name, run.map_or_else(|| "-".to_owned(), |run| counter(run).to_string()))
            }));
            row
        })
        .collect();
    crate::write_output("resilience/resilience.csv", &csv.render());
    let merged = report.merged_snapshot("resilience-report");
    crate::write_output("resilience/snapshot.jsonl", &merged.to_jsonl());
}
