//! Baseline-relative execution and parallel sweeps.
//!
//! One engine, the crate-private `sweep`, runs every baseline-relative
//! grid: groups of (controller config, workload, lineup), each with one
//! shared defense-free baseline run, every other lineup entry one job on
//! the work-stealing pool, and a scorer turning each finished cell into the
//! caller's record. [`run_matrix`]/[`try_run_matrix`] describe their grid
//! as defenses × workloads under a [`SimConfig`]; the tracker arena and the
//! generation matrix describe theirs as one [`MatrixAxes`] value.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use dram_model::fault::DisturbanceModel;
use dram_model::Generation;
use memctrl::{
    DefenseFactory, McBuilder, McConfig, MemoryController, RunStats, StatsAudit, TelemetryTap,
};
use rh_analysis::EnergyModel;
use telemetry::{Cadence, MetricsSink, NoopSink, Recorder, SharedSink, Snapshot};

use crate::pool;
use crate::scenarios::{DefenseSpec, GenSpec, WorkloadSpec};

/// Telemetry wiring for a campaign: how often instrumented defenses and the
/// controller tap sample, how much history each per-bank ring keeps, and
/// whether to use a recording sink at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Sample every this many ACTs (must be ≥ 1).
    pub every_acts: u64,
    /// Ring capacity per (metric, bank) series.
    pub ring_capacity: usize,
    /// Wire the instrumentation but with a [`NoopSink`]: nothing is
    /// recorded and the run must be bit-identical to an uninstrumented one
    /// (the `telemetry_matrix` tests pin this).
    pub noop: bool,
}

impl TelemetrySpec {
    /// Recording telemetry sampling every `every_acts` ACTs.
    pub fn every_acts(every_acts: u64) -> Self {
        assert!(every_acts > 0, "telemetry cadence of 0 never fires");
        TelemetrySpec { every_acts, ring_capacity: telemetry::DEFAULT_RING_CAPACITY, noop: false }
    }

    /// Instrumentation wired but discarding everything.
    pub fn noop() -> Self {
        TelemetrySpec { noop: true, ..TelemetrySpec::every_acts(1_000) }
    }
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec::every_acts(1_000)
    }
}

/// Configuration of one simulation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Memory-controller/system configuration used for *normal* workloads.
    pub system: McConfig,
    /// Memory-controller configuration used for *adversarial* workloads
    /// (single bank, as in §V-B's per-bank attack accounting).
    pub attack: McConfig,
    /// Accesses per run.
    pub accesses: u64,
    /// Workload seed (identical traces across defenses).
    pub seed: u64,
    /// Run the invariant audit: wrap every defense in
    /// [`mitigations::AuditedDefense`], check [`StatsAudit`] at run end,
    /// and cross-check the fault oracle's ground truth. On by default in
    /// the test configurations ([`SimConfig::attack_bank`]); the `RH_AUDIT`
    /// environment variable forces it on everywhere (the `--audit` flag of
    /// rh-bench sets it).
    pub audit: bool,
    /// Telemetry wiring; `None` runs completely uninstrumented (the
    /// historical behavior and the default everywhere).
    pub telemetry: Option<TelemetrySpec>,
}

impl SimConfig {
    /// The paper's system at `T_RH = 50K` with the fault oracle armed.
    pub fn micro2020(accesses: u64) -> Self {
        SimConfig {
            system: McConfig::micro2020(),
            attack: McConfig::single_bank(65_536, Some(DisturbanceModel::ddr4_50k())),
            accesses,
            seed: 42,
            audit: false,
            telemetry: None,
        }
    }

    /// Like [`SimConfig::micro2020`] with a custom Row Hammer threshold
    /// (Figure 9 scaling runs).
    pub fn with_threshold(t_rh: u64, accesses: u64) -> Self {
        let model = DisturbanceModel { t_rh, ..DisturbanceModel::ddr4_50k() };
        let mut cfg = Self::micro2020(accesses);
        cfg.system.fault_model = Some(model.clone());
        cfg.attack.fault_model = Some(model);
        cfg
    }

    /// A fast single-bank configuration for tests: threshold `t_rh`, fault
    /// oracle armed, `accesses` accesses, invariant audit on.
    pub fn attack_bank(t_rh: u64, accesses: u64) -> Self {
        let model = DisturbanceModel { t_rh, ..DisturbanceModel::ddr4_50k() };
        SimConfig {
            system: McConfig::single_bank(65_536, Some(model.clone())),
            attack: McConfig::single_bank(65_536, Some(model)),
            accesses,
            seed: 42,
            audit: true,
            telemetry: None,
        }
    }

    pub(crate) fn mc_config_for(&self, workload: &WorkloadSpec) -> &McConfig {
        if workload.is_adversarial() {
            &self.attack
        } else {
            &self.system
        }
    }

    /// Whether this campaign runs audited: the config flag, or the
    /// `RH_AUDIT` environment override.
    pub fn audit_enabled(&self) -> bool {
        self.audit || std::env::var_os("RH_AUDIT").is_some()
    }
}

/// The axes of an audited tracker sweep: the (generation, `T_RH`) points,
/// the workloads crossed with every point, and the length of each run. The
/// tracker arena ([`run_arena`](crate::run_arena)) and the generation
/// matrix ([`run_generation_matrix`](crate::run_generation_matrix)) are two
/// lineups scored over the same axes; their presets are
/// [`MatrixAxes::arena_full`], [`MatrixAxes::arena_smoke`],
/// [`MatrixAxes::generations_full`] and [`MatrixAxes::generations_smoke`].
/// Every run uses the workload seed [`MatrixAxes::SEED`] and
/// [`MatrixAxes::ROWS_PER_BANK`] rows per bank.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixAxes {
    /// (generation, Row Hammer threshold) points, in report order.
    pub points: Vec<(Generation, u64)>,
    /// Attack workloads crossed with every point; system-scale ones run on
    /// the multi-bank config.
    pub workloads: Vec<WorkloadSpec>,
    /// Accesses per run.
    pub accesses: u64,
    /// Banks in the multi-bank config used for system-scale workloads
    /// (single-controller, so ABACuS shares one table across all of them).
    pub system_banks: u8,
}

impl MatrixAxes {
    /// Workload seed of every run (identical traces across defenses and
    /// points).
    pub const SEED: u64 = 42;

    /// Rows per bank of every run.
    pub const ROWS_PER_BANK: u32 = 65_536;

    /// Sweeps `lineup(generation, t_rh)` over one group per (point,
    /// workload), every run audited, and returns the `score`d cells in
    /// point-major/workload/lineup order. Each group's controller is one
    /// bank of the point's generation with the fault oracle armed at its
    /// threshold, widened to `system_banks` banks for system-scale
    /// workloads.
    ///
    /// # Panics
    ///
    /// Panics with the [`MatrixError`] rendering when any run panics —
    /// every cell runs audited, so that includes a broken certificate.
    pub(crate) fn run<C>(
        &self,
        lineup: impl Fn(Generation, u64) -> Vec<GenSpec>,
        score: impl Fn(&Group<'_>, &GenSpec, RawCell) -> C,
    ) -> Vec<C> {
        let groups: Vec<Group<'_>> = self
            .points
            .iter()
            .flat_map(|&(generation, t_rh)| {
                let lineup = &lineup;
                self.workloads.iter().map(move |workload| {
                    let model = DisturbanceModel { t_rh, ..DisturbanceModel::ddr4_50k() };
                    let mut mc = McConfig::single_bank_for_generation(
                        generation,
                        Self::ROWS_PER_BANK,
                        Some(model),
                    );
                    if workload.is_system_scale() {
                        mc.geometry.banks_per_rank = self.system_banks;
                    }
                    Group { mc, workload, defenses: lineup(generation, t_rh) }
                })
            })
            .collect();
        sweep(&groups, self.accesses, Self::SEED, true, None, score)
            .unwrap_or_else(|e| panic!("{e}"))
            .0
    }
}

/// Result of one (defense, workload) pair, relative to the defense-free
/// baseline of the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Defense name.
    pub defense: String,
    /// Workload name.
    pub workload: String,
    /// Raw run counters.
    pub stats: RunStats,
    /// Refresh-energy increase versus auto-refresh over the run (fraction).
    pub energy_overhead: f64,
    /// Completion-time slowdown versus the defense-free baseline (fraction).
    pub slowdown: f64,
    /// Mean-access-latency increase versus the baseline (fraction). More
    /// sensitive than completion time on underloaded systems, where defense
    /// refreshes hide in idle gaps but still delay the requests they collide
    /// with.
    pub latency_increase: f64,
    /// The paper's metric: weighted-speedup loss versus the baseline,
    /// computed from per-stream (per-core) mean latencies (fraction; 0 = no
    /// degradation).
    pub weighted_speedup_loss: f64,
}

impl SimReport {
    /// Victim-refresh commands per million activations — the false-positive
    /// rate counter-based schemes are judged by on normal workloads.
    pub fn refreshes_per_macts(&self) -> f64 {
        if self.stats.activations == 0 {
            0.0
        } else {
            self.stats.defense_refresh_commands as f64 * 1e6 / self.stats.activations as f64
        }
    }
}

/// One finished run: its counters plus the hottest victim's ACT-equivalent
/// disturbance across banks, ceiled (0 when no fault oracle is armed).
#[derive(Clone)]
pub(crate) struct Run {
    pub(crate) stats: RunStats,
    pub(crate) max_disturbance: u64,
}

/// The recording sink for a telemetry wiring, or `None` when nothing is
/// recorded (no wiring, or a noop spec).
pub(crate) fn recording_sink(spec: Option<&TelemetrySpec>) -> Option<SharedSink> {
    spec.filter(|s| !s.noop)
        .map(|s| SharedSink::with_recorder(Recorder::with_ring_capacity(s.ring_capacity)))
}

/// A clone of the recording sink, or a [`NoopSink`] when nothing records.
pub(crate) fn sink_for(shared: &Option<SharedSink>) -> Box<dyn MetricsSink + Send> {
    match shared {
        Some(s) => Box::new(s.clone()),
        None => Box::new(NoopSink),
    }
}

/// The one place a sweep cell runs: builds the controller for `defense`,
/// runs `workload`, applies the end-of-run [`audit_run`] when `audit` is
/// on, and reads the oracles' worst disturbance before the controller
/// drops.
///
/// With a `telemetry` spec every defense goes through
/// [`mitigations::instrumented`] and the controller gets a
/// [`TelemetryTap`], all feeding one shared recorder; a recording spec also
/// yields the cell's snapshot. `None` skips the wiring entirely.
pub(crate) fn execute(
    cfg: &McConfig,
    defense: &GenSpec,
    workload: &WorkloadSpec,
    accesses: u64,
    seed: u64,
    audit: bool,
    telemetry: Option<&TelemetrySpec>,
) -> (Run, Option<Snapshot>) {
    let rows = cfg.geometry.rows_per_bank;
    let banks = cfg.geometry.total_banks();
    let shared = recording_sink(telemetry);
    let builder = McBuilder::new(cfg.clone());
    let mut mc = match telemetry {
        None => builder.defenses(defense).audit(audit).build(),
        Some(spec) => {
            let cadence = Cadence::EveryActs(spec.every_acts);
            // Honor the all-bank factory path under instrumentation too:
            // pre-build the shared pool (ABACuS) and drain it in bank order,
            // falling back to the per-bank factory for everything else. Each
            // facade still gets its own instrumentation wrapper, so per-bank
            // series stay per-bank.
            let mut all_bank_pool =
                defense.build_all_bank(0, banks, rows, audit).map(Vec::into_iter);
            builder
                .defenses_with(|bank| {
                    let inner = match all_bank_pool.as_mut() {
                        Some(pool) => pool.next().expect("all-bank defense pool exhausted"),
                        None => defense.build_defense(bank, rows, audit),
                    };
                    mitigations::instrumented(inner, sink_for(&shared), bank as u16, rows, cadence)
                })
                .telemetry(TelemetryTap::new(sink_for(&shared), cadence))
                .build()
        }
    };
    let mut w = workload.build(banks as u16, rows, seed);
    // invariant: the workload is built for the controller's own geometry.
    let stats = mc.try_run(w.as_mut(), accesses).expect("workload fits its own geometry");
    if audit {
        audit_run(&mc, &stats, &defense.defense, workload);
    }
    let max_disturbance = (0..banks as usize)
        .filter_map(|bank| mc.oracle(bank))
        .map(|oracle| oracle.max_disturbance())
        .fold(0.0_f64, f64::max)
        .ceil() as u64;
    let snapshot = shared.map(|s| {
        // One final scheme-state sample at completion time — the trajectory
        // would otherwise stop at the last cadence boundary.
        s.with(|rec| {
            for bank in 0..banks as usize {
                mc.defense(bank).emit_telemetry(bank as u16, stats.completion, rec);
            }
        });
        s.snapshot(&format!("{}/{}", workload.name(), defense.defense.name()))
    });
    (Run { stats, max_disturbance }, snapshot)
}

/// End-of-run invariant audit: the cross-counter checks of [`StatsAudit`]
/// plus, when the fault oracle is armed, the ground-truth cross-check —
/// the per-bank flip counts must sum to the reported total, and a
/// zero-flip verdict must be backed by every bank's worst disturbance
/// staying below `T_RH`.
pub(crate) fn audit_run(
    mc: &MemoryController,
    stats: &RunStats,
    defense: &DefenseSpec,
    workload: &WorkloadSpec,
) {
    if let Err(findings) = StatsAudit::check_at(stats, mc.clock()) {
        let list: Vec<String> = findings.iter().map(ToString::to_string).collect();
        panic!(
            "stats audit failed for {} on {}: {}",
            defense.name(),
            workload.name(),
            list.join("; ")
        );
    }
    if mc.config().fault_model.is_none() {
        return;
    }
    let banks = mc.config().geometry.total_banks() as usize;
    let mut oracle_flips = 0u64;
    for bank in 0..banks {
        let oracle = mc.oracle(bank).expect("fault model armed");
        oracle_flips += oracle.flip_count();
        if stats.bit_flips == 0 {
            let margin = oracle.max_disturbance();
            let t_rh = oracle.threshold_acts();
            assert!(
                margin < t_rh,
                "ground-truth audit failed for {} on {}: zero flips reported but bank \
                 {bank}'s hottest victim accumulated {margin:.1} of {t_rh:.1} ACT-equivalents",
                defense.name(),
                workload.name()
            );
        }
    }
    assert_eq!(
        oracle_flips,
        stats.bit_flips,
        "ground-truth audit failed for {} on {}: oracles saw {oracle_flips} flip(s) but the \
         run reported {}",
        defense.name(),
        workload.name(),
        stats.bit_flips
    );
}

/// Audit-mode cross-run check: the defended run and its baseline saw the
/// same trace, so they must have activated the same stream set — anything
/// else silently skews the weighted-speedup metric.
fn audit_cross(stats: &RunStats, baseline: &RunStats, defense: &DefenseSpec, w: &WorkloadSpec) {
    if let Err(findings) = StatsAudit::check_cross(stats, baseline) {
        let list: Vec<String> = findings.iter().map(ToString::to_string).collect();
        panic!(
            "cross-run audit failed for {} on {}: {}",
            defense.name(),
            w.name(),
            list.join("; ")
        );
    }
}

/// Scores one raw cell into its baseline-relative report.
fn report_for(group: &Group<'_>, spec: &GenSpec, cell: RawCell) -> SimReport {
    let stats = cell.run.stats;
    let baseline = &cell.baseline.stats;
    let energy_overhead = EnergyModel::micro2020().refresh_energy_overhead(
        stats.victim_rows_refreshed,
        stats.completion,
        group.mc.geometry.total_banks(),
    );
    let slowdown = stats.slowdown_vs(baseline);
    let latency_increase = latency_increase(&stats, baseline);
    let weighted_speedup_loss = stats.weighted_speedup_loss_vs(baseline);
    SimReport {
        defense: spec.defense.name(),
        workload: group.workload.name(),
        stats,
        energy_overhead,
        slowdown,
        latency_increase,
        weighted_speedup_loss,
    }
}

/// Runs one (defense, workload) pair plus its defense-free baseline and
/// returns the relative report.
///
/// # Panics
///
/// Panics with the [`MatrixError`] rendering when either run panics.
pub fn run_pair(cfg: &SimConfig, defense: &DefenseSpec, workload: &WorkloadSpec) -> SimReport {
    run_matrix(cfg, std::slice::from_ref(defense), std::slice::from_ref(workload)).reports.remove(0)
}

fn latency_increase(stats: &memctrl::RunStats, baseline: &memctrl::RunStats) -> f64 {
    if baseline.mean_latency() == 0.0 {
        0.0
    } else {
        stats.mean_latency() / baseline.mean_latency() - 1.0
    }
}

/// One failed grid cell of [`try_run_matrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The workload of the failing cell.
    pub workload: String,
    /// The defense of the failing cell.
    pub defense: String,
    /// The panic message of the failing run.
    pub message: String,
}

/// One or more grid cells of a matrix sweep failed; every *other* cell
/// still ran to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixError {
    /// Every failing (workload, defense) pair with its panic message.
    pub failures: Vec<CellFailure>,
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} matrix cell(s) failed:", self.failures.len())?;
        for c in &self.failures {
            writeln!(f, "  ({}, {}): {}", c.workload, c.defense, c.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for MatrixError {}

/// Renders a caught panic payload for [`CellFailure::message`].
pub(crate) fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The telemetry snapshot of one matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTelemetry {
    /// Workload name.
    pub workload: String,
    /// Defense name.
    pub defense: String,
    /// The cell's recorded snapshot.
    pub snapshot: Snapshot,
}

/// Reports plus telemetry from a matrix sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixTelemetry {
    /// Per-cell reports, (workload-major, defense-minor) as in
    /// [`try_run_matrix`].
    pub reports: Vec<SimReport>,
    /// Per-cell snapshots, one per defended cell when the campaign records
    /// (a recording [`TelemetrySpec`]); empty otherwise. A
    /// [`DefenseSpec::None`] cell is the uninstrumented baseline and has
    /// none.
    pub cells: Vec<CellTelemetry>,
    /// Live sweep progress: series `sweep.jobs_done` over wall-clock time
    /// (ps since sweep start), one sample per finished pool job.
    pub sweep: Snapshot,
}

impl MatrixTelemetry {
    /// Everything in one [`Snapshot`]: each cell's metrics prefixed with
    /// `"{workload}/{defense}/"`, the sweep-progress series unprefixed.
    /// This is what `telemetry-report` writes to disk.
    pub fn merged_snapshot(&self, source: &str) -> Snapshot {
        let mut out = Snapshot::empty(source);
        for cell in &self.cells {
            out.merge_prefixed(&format!("{}/{}/", cell.workload, cell.defense), &cell.snapshot);
        }
        out.merge_prefixed("", &self.sweep);
        out
    }
}

/// Runs the full (defenses × workloads) matrix in parallel and returns the
/// reports in (workload-major, defense-minor) order, with the telemetry:
/// per-cell snapshots (when `cfg.telemetry` is a recording spec) and the
/// live sweep-progress series sampled from the work-stealing pool's
/// completion stream.
///
/// Each workload is one group of the crate's one sweep engine: its
/// defense-free baseline runs once, uninstrumented, and is shared by every
/// defense of that workload (unlike repeated [`run_pair`] calls, which
/// would re-run it per pair); a [`DefenseSpec::None`] entry is scored from
/// that baseline, and every other cell is an independent job on the
/// work-stealing pool.
///
/// A panicking cell does not abort the sweep: the rest of the grid
/// completes, and the error names every failing (workload, defense) pair.
/// A panicking *baseline* fails all of that workload's cells, since they
/// have nothing to compare against.
///
/// # Errors
///
/// Returns [`MatrixError`] listing each failed cell.
pub fn try_run_matrix(
    cfg: &SimConfig,
    defenses: &[DefenseSpec],
    workloads: &[WorkloadSpec],
) -> Result<MatrixTelemetry, MatrixError> {
    let groups: Vec<Group<'_>> = workloads
        .iter()
        .map(|workload| Group {
            mc: cfg.mc_config_for(workload).clone(),
            workload,
            defenses: defenses.iter().map(|&d| GenSpec::ddr4(d)).collect(),
        })
        .collect();
    let score = |group: &Group<'_>, spec: &GenSpec, mut cell: RawCell| {
        let snapshot = cell.snapshot.take().map(|snapshot| CellTelemetry {
            workload: group.workload.name(),
            defense: spec.defense.name(),
            snapshot,
        });
        (report_for(group, spec, cell), snapshot)
    };
    let (scored, sweep) =
        sweep(&groups, cfg.accesses, cfg.seed, cfg.audit_enabled(), cfg.telemetry.as_ref(), score)?;
    let (reports, cells): (Vec<SimReport>, Vec<Option<CellTelemetry>>) = scored.into_iter().unzip();
    Ok(MatrixTelemetry { reports, cells: cells.into_iter().flatten().collect(), sweep })
}

/// One baseline-relative group of a sweep: a workload on one controller
/// configuration, and the defenses scored against its defense-free
/// baseline on the identical trace.
pub(crate) struct Group<'a> {
    pub(crate) mc: McConfig,
    pub(crate) workload: &'a WorkloadSpec,
    pub(crate) defenses: Vec<GenSpec>,
}

impl Group<'_> {
    /// The Row Hammer threshold the group's fault oracle is armed at.
    pub(crate) fn t_rh(&self) -> u64 {
        self.mc.fault_model.as_ref().expect("matrix groups arm the fault oracle").t_rh
    }
}

/// One defense's unscored sweep cell: its run (the baseline itself for
/// [`DefenseSpec::None`]), the group's shared baseline, and its telemetry
/// snapshot (when the sweep records).
pub(crate) struct RawCell {
    pub(crate) run: Run,
    pub(crate) baseline: Arc<Run>,
    pub(crate) snapshot: Option<Snapshot>,
}

/// The sweep engine behind every baseline-relative report — the Figure 8/9
/// matrices, the tracker arena, and the generation matrix.
///
/// Every group is one pool job that runs the group's defense-free baseline
/// and, on completion, fans out one job per defense sharing that baseline.
/// A [`DefenseSpec::None`] entry is no job: its cell is the baseline run
/// itself. Each run goes through [`execute`] under `catch_unwind`, and with
/// `audit` on each defended run is also cross-checked against its
/// baseline. Cells land in index-ordered slots and are handed to `score`
/// with their group and spec, so the result is (group-major,
/// defense-minor) at any thread count. Alongside the scored cells comes the
/// live sweep-progress series `sweep.jobs_done` (empty unless `telemetry`
/// records): one sample per finished pool job, timestamped in wall-clock
/// picoseconds since sweep start.
///
/// # Errors
///
/// Returns [`MatrixError`] naming every failed (workload, defense) cell; a
/// panicking baseline fails every cell of its group.
pub(crate) fn sweep<C>(
    groups: &[Group<'_>],
    accesses: u64,
    seed: u64,
    audit: bool,
    telemetry: Option<&TelemetrySpec>,
    score: impl Fn(&Group<'_>, &GenSpec, RawCell) -> C,
) -> Result<(Vec<C>, Snapshot), MatrixError> {
    let is_baseline = |spec: &GenSpec| matches!(spec.defense, DefenseSpec::None);
    let cell_count: usize = groups.iter().map(|g| g.defenses.len()).sum();
    let defended = groups.iter().flat_map(|g| &g.defenses).filter(|d| !is_baseline(d)).count();
    let slots: Vec<Mutex<Option<Result<RawCell, String>>>> =
        (0..cell_count).map(|_| Mutex::new(None)).collect();

    let sweep_sink = telemetry.filter(|s| !s.noop).map(|_| SharedSink::new());
    let sweep_start = std::time::Instant::now();
    let observe = sweep_sink.clone().map(|sink| {
        move |done: usize| {
            let t_ps = sweep_start.elapsed().as_nanos() as u64 * 1_000;
            sink.with(|rec| rec.sample("sweep.jobs_done", 0, t_ps, done as f64));
        }
    });

    let mut group_slots = slots.as_slice();
    let mut jobs: Vec<pool::Job<'_>> = Vec::with_capacity(groups.len());
    for group in groups {
        let (cell_slots, rest) = group_slots.split_at(group.defenses.len());
        group_slots = rest;
        jobs.push(pool::job(move |spawner| {
            let baseline = catch_unwind(AssertUnwindSafe(|| {
                let none = GenSpec::ddr4(DefenseSpec::None);
                execute(&group.mc, &none, group.workload, accesses, seed, audit, None).0
            }));
            let baseline = match baseline {
                Ok(b) => Arc::new(b),
                Err(payload) => {
                    let msg = format!("baseline panicked: {}", payload_message(&*payload));
                    for slot in cell_slots {
                        *slot.lock().expect("result slot poisoned") = Some(Err(msg.clone()));
                    }
                    return;
                }
            };
            for (slot, defense) in cell_slots.iter().zip(&group.defenses) {
                let baseline = Arc::clone(&baseline);
                if is_baseline(defense) {
                    let run = Run::clone(&baseline);
                    let cell = RawCell { run, baseline, snapshot: None };
                    *slot.lock().expect("result slot poisoned") = Some(Ok(cell));
                    continue;
                }
                spawner.spawn(move |_| {
                    let cell = catch_unwind(AssertUnwindSafe(|| {
                        let (run, snapshot) = execute(
                            &group.mc,
                            defense,
                            group.workload,
                            accesses,
                            seed,
                            audit,
                            telemetry,
                        );
                        if audit {
                            audit_cross(
                                &run.stats,
                                &baseline.stats,
                                &defense.defense,
                                group.workload,
                            );
                        }
                        RawCell { run, baseline, snapshot }
                    }))
                    .map_err(|payload| payload_message(&*payload));
                    *slot.lock().expect("result slot poisoned") = Some(cell);
                });
            }
        }));
    }
    let observer: Option<&(dyn Fn(usize) + Sync)> =
        observe.as_ref().map(|f| f as &(dyn Fn(usize) + Sync));
    pool::run_scoped(pool::threads_for(groups.len() + defended), jobs, observer, None, || ());

    let mut cells = Vec::with_capacity(cell_count);
    let mut failures = Vec::new();
    let mut slots = slots.into_iter();
    for group in groups {
        for (defense, slot) in group.defenses.iter().zip(slots.by_ref()) {
            match slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("every cell filled by the pool")
            {
                Ok(cell) => cells.push(score(group, defense, cell)),
                Err(message) => failures.push(CellFailure {
                    workload: group.workload.name(),
                    defense: defense.defense.name(),
                    message,
                }),
            }
        }
    }
    if !failures.is_empty() {
        return Err(MatrixError { failures });
    }
    let sweep = sweep_sink.map(|s| s.snapshot("sweep")).unwrap_or_else(|| Snapshot::empty("sweep"));
    Ok((cells, sweep))
}

/// [`try_run_matrix`], panicking with the full failure list if any cell
/// failed.
///
/// # Panics
///
/// Panics with the [`MatrixError`] rendering when one or more cells panic.
pub fn run_matrix(
    cfg: &SimConfig,
    defenses: &[DefenseSpec],
    workloads: &[WorkloadSpec],
) -> MatrixTelemetry {
    try_run_matrix(cfg, defenses, workloads).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphene_on_s3_is_clean_and_cheap() {
        let cfg = SimConfig::attack_bank(5_000, 30_000);
        let r = run_pair(&cfg, &DefenseSpec::Graphene { t_rh: 5_000, k: 2 }, &WorkloadSpec::S3);
        assert_eq!(r.stats.bit_flips, 0);
        assert!(r.stats.defense_refresh_commands > 0);
        assert!(r.energy_overhead < 0.05, "energy {}", r.energy_overhead);
    }

    #[test]
    fn no_defense_on_s3_flips() {
        let cfg = SimConfig::attack_bank(5_000, 30_000);
        let r = run_pair(&cfg, &DefenseSpec::None, &WorkloadSpec::S3);
        assert!(r.stats.bit_flips > 0);
        assert_eq!(r.slowdown, 0.0);
    }

    #[test]
    fn cbt_slower_than_graphene_on_attack() {
        let cfg = SimConfig::attack_bank(5_000, 30_000);
        let g = run_pair(&cfg, &DefenseSpec::Graphene { t_rh: 5_000, k: 2 }, &WorkloadSpec::S3);
        let c = run_pair(&cfg, &DefenseSpec::Cbt { t_rh: 5_000 }, &WorkloadSpec::S3);
        assert_eq!(c.stats.bit_flips, 0, "CBT must protect");
        assert!(
            c.stats.victim_rows_refreshed > g.stats.victim_rows_refreshed,
            "CBT bursts ({}) should dwarf Graphene ({})",
            c.stats.victim_rows_refreshed,
            g.stats.victim_rows_refreshed
        );
    }

    #[test]
    fn matrix_runs_all_pairs_in_order() {
        let cfg = SimConfig::attack_bank(5_000, 5_000);
        let defenses =
            [DefenseSpec::Graphene { t_rh: 5_000, k: 2 }, DefenseSpec::Para { p: 0.001 }];
        let workloads = [WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }];
        let reports = run_matrix(&cfg, &defenses, &workloads).reports;
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].workload, "S3");
        assert_eq!(reports[0].defense, "Graphene");
        assert_eq!(reports[3].workload, "S1-10");
        assert_eq!(reports[3].defense, "PARA-0.001");
    }

    #[test]
    fn poisoned_cell_is_isolated_and_named() {
        // Regression: one panicking cell used to poison its slot and abort
        // the whole sweep with "result slot poisoned", discarding every
        // other cell's result. Graphene{t_rh: 1} panics in the defense
        // factory (threshold too low to derive T).
        let cfg = SimConfig::attack_bank(5_000, 2_000);
        let defenses = [
            DefenseSpec::Para { p: 0.001 },
            DefenseSpec::Graphene { t_rh: 1, k: 2 },
            DefenseSpec::Twice { t_rh: 5_000 },
        ];
        let workloads = [WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }];
        let err = try_run_matrix(&cfg, &defenses, &workloads).unwrap_err();
        assert_eq!(err.failures.len(), 2, "one bad defense × two workloads");
        for f in &err.failures {
            assert_eq!(f.defense, "Graphene");
            assert!(!f.message.is_empty());
        }
        let shown = err.to_string();
        assert!(shown.contains("(S3, Graphene)"), "{shown}");
        assert!(shown.contains("(S1-10, Graphene)"), "{shown}");
    }

    #[test]
    fn healthy_matrix_returns_ok() {
        let cfg = SimConfig::attack_bank(5_000, 2_000);
        let m = try_run_matrix(&cfg, &[DefenseSpec::Para { p: 0.001 }], &[WorkloadSpec::S3]);
        assert_eq!(m.unwrap().reports.len(), 1);
    }

    #[test]
    #[should_panic(expected = "matrix cell(s) failed")]
    fn run_matrix_panics_with_failing_pairs() {
        let cfg = SimConfig::attack_bank(5_000, 1_000);
        let _ = run_matrix(&cfg, &[DefenseSpec::Graphene { t_rh: 1, k: 2 }], &[WorkloadSpec::S3]);
    }

    #[test]
    fn defense_free_entry_is_the_baseline_and_costs_no_run() {
        let cfg = SimConfig {
            telemetry: Some(TelemetrySpec::every_acts(500)),
            ..SimConfig::attack_bank(5_000, 8_000)
        };
        let defenses = [DefenseSpec::None, DefenseSpec::Para { p: 0.001 }];
        let m = try_run_matrix(&cfg, &defenses, &[WorkloadSpec::S3]).unwrap();
        let progress = m.sweep.series_for("sweep.jobs_done", 0).expect("sweep progress series");
        assert_eq!(
            progress.samples.last().unwrap().value,
            2.0,
            "one baseline job plus one defended run; the None entry must not run again"
        );
        assert_eq!(m.cells.len(), 1, "only the defended cell records a snapshot");
        // Built directly, not through `execute`, so the shared baseline is
        // compared against an independent reference.
        let direct = {
            let mut mc =
                McBuilder::new(cfg.attack.clone()).defenses(&DefenseSpec::None).audit(true).build();
            let mut w = WorkloadSpec::S3.build(1, 65_536, cfg.seed);
            mc.try_run(w.as_mut(), cfg.accesses).unwrap()
        };
        let none = &m.reports[0];
        assert_eq!(none.defense, "None");
        assert_eq!(none.stats, direct);
        assert_eq!(none.slowdown, 0.0);
    }

    #[test]
    fn identical_traces_across_defenses() {
        // The baseline and the defended run must see the same trace: their
        // access counts and (for deterministic defenses) activation counts
        // coincide.
        let cfg = SimConfig::attack_bank(5_000, 10_000);
        let a = run_pair(&cfg, &DefenseSpec::None, &WorkloadSpec::S1 { n: 10 });
        let b = run_pair(&cfg, &DefenseSpec::Twice { t_rh: 5_000 }, &WorkloadSpec::S1 { n: 10 });
        assert_eq!(a.stats.accesses, b.stats.accesses);
        assert_eq!(a.stats.activations, b.stats.activations);
    }
}
