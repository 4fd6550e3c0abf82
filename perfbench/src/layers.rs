//! The traced run: per-layer cost, measured from the outside.
//!
//! Nothing inside the program is instrumented. Two techniques split an
//! access's cost across the crates:
//!
//! * an **outside-in decomposition** replays the input sequentially in
//!   blocks of [`BLOCK`] accesses, timing each block's calls into one crate's
//!   public entry point: `TraceReader::try_next` (workloads),
//!   `SystemRouter::route_one` (memctrl routing),
//!   `MemoryController::try_run_batch` summed over shards (memctrl execution,
//!   with the defense and the oracle inside), and `write_fleet_checkpoint`
//!   after every fleet segment (sim);
//! * **legs** run the same decomposition with one layer switched off or on
//!   (defense `none`, oracle off, audit on, recorded telemetry); the
//!   difference in execution time prices that layer.
//!
//! Legs run round-robin until the time budget is spent, and each figure is
//! a median over rounds; a figure comparing two legs is taken within each
//! round first. Every leg that runs the end-to-end run's layers
//! must reproduce its simulated statistics exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use dram_model::RowId;
use memctrl::{DefenseFactory, LoggedCommand, StampedAccess, SystemController, SystemStats};
use rh_sim::{write_fleet_checkpoint, CkptFingerprint, DefenseSpec};
use telemetry::json::JsonValue;
use workloads::{real_fs, Access, TraceReader};

use crate::check::{self, median, per_mact, Checks};
use crate::input::PackedTrace;
use crate::phases::Input;
use crate::suite::{Layers, Sizes, Workload};

/// Accesses per decomposition block: one clock read per layer per block.
pub const BLOCK: usize = 4_096;
/// Accesses whose command log feeds the isolated-defense replay.
const ISOLATED_ACCESSES: u64 = 1_000_000;

/// Busy time at each layer boundary of one decomposed pass.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// Producing accesses: trace decode, or unpacking a packed input.
    pub input: Duration,
    /// Routing.
    pub route: Duration,
    /// Shard execution.
    pub exec: Duration,
    /// One checkpoint write per segment.
    pub ckpt: Vec<Duration>,
    /// Size of the last checkpoint written.
    pub ckpt_bytes: u64,
    /// The whole pass.
    pub wall: Duration,
}

/// Where a decomposed pass reads its accesses.
pub enum Source<'a> {
    /// A packed input, from its first access.
    Packed(&'a PackedTrace, usize),
    /// A fleet trace.
    Trace(TraceReader),
}

impl Source<'_> {
    fn fill(&mut self, block: &mut Vec<Access>, k: usize) -> Result<(), String> {
        match self {
            Source::Packed(trace, next) => {
                block.extend((*next..*next + k).map(|i| trace.get(i)));
                *next += k;
            }
            Source::Trace(reader) => {
                for _ in 0..k {
                    let access = reader
                        .try_next()
                        .map_err(|e| format!("trace record {}: {e}", reader.position()))?;
                    block.push(access);
                }
            }
        }
        Ok(())
    }
}

/// Checkpointing of a decomposed fleet pass, as `run_fleet` does it.
pub struct CkptPlan<'a> {
    /// Checkpoint file, rewritten after every segment.
    pub path: &'a Path,
    /// Accesses per segment.
    pub segment: u64,
    /// Name in the trace header.
    pub trace_name: String,
    /// The fleet configuration's fingerprint.
    pub fingerprint: CkptFingerprint,
}

/// Adds the time since `*last` to `*span` and restarts the clock; a no-op
/// for an untimed pass.
fn lap(last: &mut Option<Instant>, span: &mut Duration) {
    if let Some(t) = last {
        let now = Instant::now();
        *span += now - *t;
        *t = now;
    }
}

/// Replays `accesses` accesses from `source` through `system` sequentially:
/// each block is produced, routed through the system's router into
/// per-channel batches, and executed shard by shard with `try_run_batch`.
/// With `timed` off no clock is read inside the loop.
///
/// Executing in per-channel batches changes when work is done, never the
/// simulated outcome, so the statistics equal a `try_run` or `run_fleet` of
/// the same input.
///
/// # Errors
///
/// Describes the first trace, routing, execution or checkpoint error.
pub fn decompose(
    system: &mut SystemController,
    source: &mut Source<'_>,
    accesses: u64,
    ckpt: Option<&CkptPlan<'_>>,
    timed: bool,
) -> Result<Spans, String> {
    let fs = real_fs();
    let channels = system.geometry().channels as usize;
    let mut batches: Vec<Vec<StampedAccess>> =
        (0..channels).map(|_| Vec::with_capacity(BLOCK)).collect();
    let mut block = Vec::with_capacity(BLOCK);
    let mut spans = Spans::default();
    let start = Instant::now();
    let mut done = 0u64;
    while done < accesses {
        let segment_end = ckpt.map_or(accesses, |c| (done / c.segment + 1) * c.segment);
        let segment_end = segment_end.min(accesses);
        while done < segment_end {
            let k = (segment_end - done).min(BLOCK as u64) as usize;
            let mut clock = timed.then(Instant::now);
            block.clear();
            source.fill(&mut block, k)?;
            lap(&mut clock, &mut spans.input);
            let (mut router, shards) = system.split_streaming();
            for access in &block {
                let (c, stamped) = router.route_one(access).map_err(|e| e.to_string())?;
                batches[c].push(stamped);
            }
            lap(&mut clock, &mut spans.route);
            for (shard, batch) in shards.iter_mut().zip(&mut batches) {
                shard.try_run_batch(batch).map_err(|e| e.to_string())?;
                batch.clear();
            }
            lap(&mut clock, &mut spans.exec);
            done += k as u64;
        }
        if let Some(c) = ckpt {
            let mut clock = timed.then(Instant::now);
            write_fleet_checkpoint(
                fs.as_ref(),
                c.path,
                &c.trace_name,
                done,
                system,
                &c.fingerprint,
            )
            .map_err(|e| e.to_string())?;
            let mut took = Duration::ZERO;
            lap(&mut clock, &mut took);
            spans.ckpt.push(took);
            spans.ckpt_bytes = std::fs::metadata(c.path).map_or(0, |m| m.len());
        }
    }
    spans.wall = start.elapsed();
    Ok(spans)
}

/// One configuration the traced run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Leg {
    /// The end-to-end run's own path (`try_run` or `run_fleet`), untimed
    /// inside.
    Base,
    /// The decomposition with the end-to-end layers, timed.
    Full,
    /// The same decomposition with its clocks off.
    Untimed,
    /// Timed, oracle off.
    NoOracle,
    /// Timed, defense `none` and oracle off: scheduler, bank FSM, refresh.
    Core,
    /// Timed, with the audit shim.
    Audit,
    /// Timed, with recording telemetry.
    Telemetry,
}

impl Leg {
    fn layers(self, workload: Workload) -> Layers {
        let defended = workload.defended();
        match self {
            Leg::Base | Leg::Full | Leg::Untimed => defended,
            Leg::NoOracle => Layers { oracle: false, ..defended },
            Leg::Core => Layers { defense: DefenseSpec::None, oracle: false, ..defended },
            Leg::Audit => Layers { audit: true, ..defended },
            Leg::Telemetry => Layers { telemetry: true, ..defended },
        }
    }

    /// Legs whose layers are the end-to-end run's, plus observers that must
    /// not change the outcome.
    fn must_match(self) -> bool {
        matches!(self, Leg::Base | Leg::Full | Leg::Untimed | Leg::Audit | Leg::Telemetry)
    }
}

/// Opens a fresh source over the input.
fn source<'a>(input: &'a Input, workload: Workload) -> Result<Source<'a>, String> {
    match input {
        Input::Packed(trace) => Ok(Source::Packed(trace, 0)),
        Input::Fleet { trace, .. } => {
            let geometry = workload.mc_config(false).geometry;
            TraceReader::open_for(trace, &geometry)
                .map(Source::Trace)
                .map_err(|e| format!("{}: {e}", trace.display()))
        }
    }
}

/// Runs one leg once.
fn run_leg(
    leg: Leg,
    workload: Workload,
    input: &Input,
    accesses: u64,
) -> Result<(Spans, SystemStats), String> {
    let layers = leg.layers(workload);
    if leg == Leg::Base {
        let (stats, wall) = input.replay(workload, &layers);
        return stats.map(|s| (Spans { wall, ..Spans::default() }, s));
    }
    let mut src = source(input, workload)?;
    let plan = match (input, &src, leg) {
        (Input::Fleet { config, .. }, Source::Trace(reader), Leg::Full | Leg::Untimed) => {
            Some(CkptPlan {
                path: config.checkpoint.as_deref().expect("the fleet configuration checkpoints"),
                segment: config.segment,
                trace_name: reader.name(),
                fingerprint: CkptFingerprint::of(config),
            })
        }
        _ => None,
    };
    let mut system = workload.build_system(&layers);
    let spans = decompose(&mut system, &mut src, accesses, plan.as_ref(), leg != Leg::Untimed)?;
    Ok((spans, system.finish()))
}

/// Replays the ACT rows of the first [`ISOLATED_ACCESSES`] accesses' command
/// log through one standalone defense, bank after bank (reset in between),
/// and returns the time per ACT. The table stays hot in cache, unlike the
/// 64 tables of the in-system run.
fn isolated_ns_per_act(workload: Workload, input: &Input, accesses: u64) -> Result<f64, String> {
    let layers = Layers { oracle: false, command_log: true, ..workload.defended() };
    let mut system = workload.build_system(&layers);
    decompose(
        &mut system,
        &mut source(input, workload)?,
        accesses.min(ISOLATED_ACCESSES),
        None,
        false,
    )?;
    let rows = system.geometry().rows_per_bank;
    let mut per_bank: BTreeMap<(u8, u16), Vec<(u32, u64)>> = BTreeMap::new();
    for shard in system.shards() {
        let log = shard.command_log().ok_or("shard built without a command log")?;
        for r in log.records() {
            if let LoggedCommand::Activate { row } = r.cmd {
                per_bank.entry((shard.channel(), r.bank)).or_default().push((row, r.at));
            }
        }
    }
    drop(system);
    let acts: usize = per_bank.values().map(Vec::len).sum();
    let mut defense = layers.defense.build_defense(0, rows, false);
    let start = Instant::now();
    for bank in per_bank.values() {
        defense.reset();
        for &(row, at) in bank {
            black_box(defense.on_activation(RowId(row), at));
        }
    }
    Ok(start.elapsed().as_secs_f64() * 1e9 / acts.max(1) as f64)
}

/// The traced run: legs round-robin until `seconds` have passed (one round
/// at least), then the undefended and isolated-defense legs once.
///
/// # Errors
///
/// Propagates I/O errors loading the input.
pub fn trace(workload: Workload, sizes: &Sizes, dir: &Path, seconds: f64) -> io::Result<JsonValue> {
    let input = Input::load(workload, sizes, dir)?;
    let n = workload.accesses(sizes);
    let mut legs = vec![Leg::Base, Leg::Full, Leg::Untimed, Leg::Core, Leg::Audit, Leg::Telemetry];
    if workload.has_oracle() {
        legs.push(Leg::NoOracle);
    }
    let mut checks = Checks::default();
    let mut rounds: Vec<BTreeMap<Leg, Spans>> = Vec::new();
    let mut reference: Option<SystemStats> = None;
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut round = BTreeMap::new();
        for &leg in &legs {
            let Some((spans, stats)) = checks.ok(run_leg(leg, workload, &input, n)) else {
                continue;
            };
            match &reference {
                None if leg == Leg::Base => reference = Some(stats),
                Some(base) if leg.must_match() => checks.check(*base == stats, || {
                    format!(
                        "{leg:?} leg diverged: {} vs {}",
                        check::digest(&stats),
                        check::digest(base)
                    )
                }),
                _ => {}
            }
            round.insert(leg, spans);
        }
        rounds.push(round);
    }

    // Every figure is a median over rounds. Figures that compare two legs
    // are taken within each round first, so that host-speed drift between
    // rounds cancels.
    let over_rounds = |f: &dyn Fn(&BTreeMap<Leg, Spans>) -> Option<f64>| {
        median(&rounds.iter().filter_map(f).collect::<Vec<_>>())
    };
    let per_access = |d: Duration| d.as_secs_f64() * 1e9 / n as f64;
    let ns = |leg: Leg, span: fn(&Spans) -> Duration| {
        over_rounds(&|r| r.get(&leg).map(|s| per_access(span(s))))
    };
    let exec_minus = |a: Leg, b: Leg| {
        over_rounds(&|r| Some(per_access(r.get(&a)?.exec) - per_access(r.get(&b)?.exec)))
    };
    let wall_ratio = |a: Leg, b: Leg| {
        over_rounds(&|r| Some(r.get(&a)?.wall.as_secs_f64() / r.get(&b)?.wall.as_secs_f64()))
    };
    let defended_no_oracle = if workload.has_oracle() { Leg::NoOracle } else { Leg::Full };
    let mut full_passes = rounds.iter().filter_map(|r| r.get(&Leg::Full));
    let ckpt_ms: Vec<f64> =
        full_passes.clone().flat_map(|s| s.ckpt.iter().map(|d| d.as_secs_f64() * 1e3)).collect();
    let ckpt_bytes = full_passes.next_back().map_or(0, |s| s.ckpt_bytes);

    let mut flips_undefended = 0;
    if workload.has_oracle() {
        let undefended = Layers { defense: DefenseSpec::None, ..workload.defended() };
        if let Some(stats) = checks.ok(input.replay(workload, &undefended).0) {
            flips_undefended = stats.merged.bit_flips;
            if workload == Workload::Hammer {
                checks.check(flips_undefended > 0, || "undefended hammer flipped no bit".into());
            }
        }
    }
    let isolated = checks.ok(isolated_ns_per_act(workload, &input, n)).unwrap_or(f64::NAN);

    let mut metrics: Vec<(&str, f64)> = vec![
        (
            "workloads.decode_ns_per_access",
            if workload == Workload::Fleet { ns(Leg::Full, |s| s.input) } else { 0.0 },
        ),
        ("sim.ckpt_write_ms_median", median(&ckpt_ms)),
        ("sim.ckpt_write_ms_max", ckpt_ms.iter().copied().fold(0.0, f64::max)),
        ("sim.ckpt_bytes", ckpt_bytes as f64),
        ("sim.pipeline_speedup", wall_ratio(Leg::Untimed, Leg::Base)),
        ("memctrl.route_ns_per_access", ns(Leg::Full, |s| s.route)),
        ("memctrl.exec_ns_per_access", ns(Leg::Full, |s| s.exec)),
        ("memctrl.core_ns_per_access", ns(Leg::Core, |s| s.exec)),
        ("mitigations.defense_ns_per_access", exec_minus(defended_no_oracle, Leg::Core)),
        ("mitigations.defense_ns_per_act_isolated", isolated),
        ("mitigations.audit_ns_per_access", exec_minus(Leg::Audit, Leg::Full)),
        (
            "dram.oracle_ns_per_access",
            if workload.has_oracle() { exec_minus(Leg::Full, Leg::NoOracle) } else { 0.0 },
        ),
        ("dram.flips_undefended", flips_undefended as f64),
        ("telemetry.recorded_ns_per_access", exec_minus(Leg::Telemetry, Leg::Full)),
        ("trace.overhead_pct", (wall_ratio(Leg::Full, Leg::Untimed) - 1.0) * 100.0),
    ];
    if let Some(stats) = &reference {
        let m = &stats.merged;
        metrics.extend([
            ("memctrl.activations", m.activations as f64),
            ("memctrl.row_hit_ratio", m.row_hits as f64 / m.accesses.max(1) as f64),
            ("memctrl.refreshes", m.refreshes as f64),
            ("mitigations.nrr_per_mact", per_mact(m.defense_refresh_commands, m.activations)),
            ("mitigations.victim_rows_per_mact", per_mact(m.victim_rows_refreshed, m.activations)),
        ]);
    }
    let mut fields = vec![
        (
            "metrics".to_owned(),
            JsonValue::Obj(
                metrics.into_iter().map(|(k, v)| (k.to_owned(), JsonValue::F64(v))).collect(),
            ),
        ),
        ("rounds".to_owned(), JsonValue::U64(rounds.len() as u64)),
    ];
    if let Some(stats) = &reference {
        fields.push(("sim_digest".to_owned(), JsonValue::Str(check::digest(stats))));
    }
    fields.extend(checks.to_json());
    Ok(JsonValue::Obj(fields))
}
