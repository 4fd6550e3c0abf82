//! The untraced phases: set-up (input generation plus system build) and the
//! timed end-to-end run. Each runs in a process of its own, so that each
//! phase's `VmHWM` is that phase's peak resident memory.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use memctrl::{McError, SystemStats};
use rh_sim::{run_fleet, synth_fleet_trace, DefenseSpec, FleetConfig, FleetError};
use telemetry::json::JsonValue;
use workloads::crc32c;

use crate::check::{self, median, Checks};
use crate::input::{self, PackedTrace};
use crate::mem;
use crate::suite::{fleet_config, Layers, Sizes, Workload};

/// Name stamped into the fleet trace header.
const FLEET_TRACE_NAME: &str = "fleet";

/// The input file a set-up leaves in `dir`.
pub fn input_path(dir: &Path, workload: Workload) -> PathBuf {
    match workload {
        Workload::Fleet => dir.join("fleet.rht4"),
        Workload::Hammer | Workload::SpecMix => dir.join("input.pack"),
    }
}

/// The checkpoint file of fleet runs in `dir`.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("fleet.ckpt")
}

fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_secs_f64() * 1e9 / n.max(1) as f64
}

fn field(name: &str, value: JsonValue) -> (String, JsonValue) {
    (name.to_owned(), value)
}

/// Generates the workload's input from `seed` into `dir` and builds its
/// system, timing both.
///
/// # Errors
///
/// Propagates I/O errors writing the input.
pub fn setup(workload: Workload, sizes: &Sizes, seed: u64, dir: &Path) -> io::Result<JsonValue> {
    let path = input_path(dir, workload);
    let start = Instant::now();
    let mut fields = Vec::new();
    let packed = match workload {
        Workload::Fleet => {
            let geometry = workload.mc_config(false).geometry;
            synth_fleet_trace(
                &path,
                FLEET_TRACE_NAME,
                &geometry,
                sizes.fleet_tenants,
                sizes.fleet_records,
                seed,
            )?;
            fields.push(field(
                "synth_ns_per_record",
                JsonValue::F64(ns_per(start.elapsed(), sizes.fleet_records)),
            ));
            None
        }
        Workload::Hammer | Workload::SpecMix => {
            let (accesses, generating) = input::generate(workload, sizes, seed);
            let packed = PackedTrace::pack(&accesses)
                .ok_or_else(|| io::Error::other("an access needs more than 64 bits"))?;
            fields.push(field(
                "generate_ns_per_access",
                JsonValue::F64(ns_per(generating, accesses.len() as u64)),
            ));
            Some(packed)
        }
    };
    let system = workload.build_system(&workload.defended());
    let setup_s = start.elapsed().as_secs_f64();
    let setup_peak = mem::peak_rss_mb().unwrap_or(f64::NAN);
    drop(system);
    if let Some(packed) = &packed {
        packed.save(&path)?;
        fields
            .push(field("input_bits_per_access", JsonValue::U64(packed.bits_per_access().into())));
        fields.push(field(
            "input_resident_mb",
            JsonValue::F64(packed.resident_bytes() as f64 / (1 << 20) as f64),
        ));
    }
    let bytes = std::fs::read(&path)?;
    fields.push(field("input_accesses", JsonValue::U64(workload.accesses(sizes))));
    fields.push(field("input_file_bytes", JsonValue::U64(bytes.len() as u64)));
    fields.push(field("input_digest", JsonValue::Str(format!("{:08x}", crc32c(&bytes)))));
    fields.push(field("setup_s", JsonValue::F64(setup_s)));
    fields.push(field("setup_peak_rss_mb", JsonValue::F64(setup_peak)));
    Ok(JsonValue::Obj(fields))
}

/// One pass of a packed input through `SystemController::try_run`, timing
/// the run but not the build.
pub fn replay_system(
    workload: Workload,
    layers: &Layers,
    trace: &PackedTrace,
) -> (Result<SystemStats, McError>, Duration) {
    let mut system = workload.build_system(layers);
    let start = Instant::now();
    let result = system.try_run(&mut trace.replay(), trace.len() as u64);
    let stats = system.finish();
    let wall = start.elapsed();
    (result.map(|()| stats), wall)
}

/// One `run_fleet` over the trace from the start. A leftover checkpoint is
/// removed first, since `run_fleet` would resume from it.
pub fn replay_fleet(cfg: &FleetConfig, trace: &Path) -> (Result<SystemStats, String>, Duration) {
    if let Some(ckpt) = &cfg.checkpoint {
        if let Err(e) = std::fs::remove_file(ckpt) {
            if e.kind() != io::ErrorKind::NotFound {
                return (Err(format!("removing {}: {e}", ckpt.display())), Duration::ZERO);
            }
        }
    }
    let start = Instant::now();
    let result = run_fleet(cfg, trace, |_| {});
    let wall = start.elapsed();
    let stats = result.map_err(|e: FleetError| e.to_string()).and_then(|report| {
        if report.resumed_from.is_some() || report.accesses_done != report.trace_len {
            Err(format!(
                "run_fleet executed {} of {} records (resumed from {:?})",
                report.accesses_done, report.trace_len, report.resumed_from
            ))
        } else {
            Ok(report.stats)
        }
    });
    (stats, wall)
}

/// The workload's input, as the timed phase holds it.
pub enum Input {
    /// A packed `hammer` or `spec-mix` input.
    Packed(PackedTrace),
    /// The fleet trace file and the fleet configuration replaying it.
    Fleet {
        /// The RHT4 trace.
        trace: PathBuf,
        /// `fleet-replay run`'s configuration, checkpoint included.
        config: Box<FleetConfig>,
    },
}

impl Input {
    /// Loads the input a set-up left in `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and malformed packed inputs.
    pub fn load(workload: Workload, sizes: &Sizes, dir: &Path) -> io::Result<Input> {
        let path = input_path(dir, workload);
        Ok(match workload {
            Workload::Fleet => Input::Fleet {
                trace: path,
                config: Box::new(fleet_config(sizes, checkpoint_path(dir))),
            },
            Workload::Hammer | Workload::SpecMix => Input::Packed(PackedTrace::load(&path)?),
        })
    }

    /// One end-to-end pass with `layers` (ignored for `fleet`, whose layers
    /// are its configuration's).
    pub fn replay(
        &self,
        workload: Workload,
        layers: &Layers,
    ) -> (Result<SystemStats, String>, Duration) {
        match self {
            Input::Packed(trace) => {
                let (result, wall) = replay_system(workload, layers, trace);
                (result.map_err(|e| e.to_string()), wall)
            }
            Input::Fleet { trace, config } => replay_fleet(config, trace),
        }
    }
}

/// The timed phase: end-to-end passes over the input until `seconds` have
/// passed (at least one), each on a freshly built system. Reports the
/// median throughput, this process's peak resident memory, and the
/// simulated outcome, which every pass must reproduce exactly.
///
/// With `oracle` off the passes run without the fault oracle; the traced
/// run uses that to price the oracle's memory.
///
/// # Errors
///
/// Propagates I/O errors loading the input.
pub fn run(
    workload: Workload,
    sizes: &Sizes,
    dir: &Path,
    seconds: f64,
    oracle: bool,
) -> io::Result<JsonValue> {
    let input = Input::load(workload, sizes, dir)?;
    let layers = Layers { oracle: oracle && workload.has_oracle(), ..workload.defended() };
    let mut checks = Checks::default();
    let mut walls = Vec::new();
    let mut reference: Option<SystemStats> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (result, wall) = input.replay(workload, &layers);
        walls.push(wall.as_secs_f64());
        let Some(stats) = checks.ok(result) else { continue };
        checks.check(stats.merged.bit_flips == 0, || {
            format!("{} bit flips under Graphene", stats.merged.bit_flips)
        });
        match &reference {
            None => reference = Some(stats),
            Some(first) => checks.check(*first == stats, || {
                format!("pass diverged: {} vs {}", check::digest(&stats), check::digest(first))
            }),
        }
    }
    let peak = mem::peak_rss_mb().unwrap_or(f64::NAN);
    if workload == Workload::Hammer && layers.oracle {
        let undefended = Layers { defense: DefenseSpec::None, ..layers.clone() };
        if let Some(stats) = checks.ok(input.replay(workload, &undefended).0) {
            checks.check(stats.merged.bit_flips > 0, || "undefended hammer flipped no bit".into());
        }
    }
    let accesses = workload.accesses(sizes);
    let mut fields = vec![
        field("accesses_per_s", JsonValue::F64(accesses as f64 / median(&walls))),
        field("peak_rss_mb", JsonValue::F64(peak)),
        field("passes", JsonValue::U64(walls.len() as u64)),
        field("pass_s", JsonValue::Arr(walls.iter().map(|&w| JsonValue::F64(w)).collect())),
    ];
    if let Some(stats) = &reference {
        let config = workload.mc_config(layers.oracle);
        fields.push(field("sim_completion_ms", JsonValue::F64(check::completion_ms(stats))));
        fields.push(field(
            "sim_refresh_rows_per_mact",
            JsonValue::F64(check::refresh_rows_per_mact(stats, &config)),
        ));
        fields.push(field("sim_digest", JsonValue::Str(check::digest(stats))));
    }
    if let Input::Packed(trace) = &input {
        fields.push(field(
            "input_resident_mb",
            JsonValue::F64(trace.resident_bytes() as f64 / (1 << 20) as f64),
        ));
    }
    fields.extend(checks.to_json());
    Ok(JsonValue::Obj(fields))
}
