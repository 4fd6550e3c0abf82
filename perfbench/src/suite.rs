//! The three workloads: which system each one runs on, which layers it
//! switches on by default, and how large its generated inputs are.

use std::path::PathBuf;

use dram_model::fault::DisturbanceModel;
use memctrl::{CommandLog, MappingPolicy, McBuilder, McConfig, SystemController, TelemetryTap};
use rh_sim::{DefenseSpec, FleetConfig};
use telemetry::{Cadence, Recorder, SharedSink, DEFAULT_RING_CAPACITY};

/// Threshold of the oracle and of Graphene in `hammer` and `spec-mix`.
pub const SYSTEM_T_RH: u64 = 2_000;
/// Graphene's threshold in `fleet` (the `fleet-replay run` default).
pub const FLEET_T_RH: u64 = 50_000;
/// Worker threads of the fleet pipeline.
pub const FLEET_THREADS: usize = 2;
/// Telemetry cadence of the recorded-telemetry leg (the runner's default).
pub const TELEMETRY_EVERY_ACTS: u64 = 1_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A multi-tenant RHT4 trace streamed through `run_fleet`.
    Fleet,
    /// The 8-sided attack striped over all 64 banks, replayed through
    /// `SystemController::try_run`.
    Hammer,
    /// The benign SPEC-like `mix-high` mix, replayed the same way.
    SpecMix,
}

/// Input sizes of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Tenants merged into the fleet trace.
    pub fleet_tenants: u16,
    /// Records in the fleet trace.
    pub fleet_records: u64,
    /// Accesses per fleet segment; a checkpoint is written after each.
    pub fleet_segment: u64,
    /// Accesses of the `hammer` input.
    pub hammer: u64,
    /// Accesses of the `spec-mix` input.
    pub spec_mix: u64,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub const BENCH: Sizes = Sizes {
        fleet_tenants: 2_048,
        fleet_records: 2_000_000,
        fleet_segment: 500_000,
        hammer: 4_000_000,
        spec_mix: 2_000_000,
    };
}

/// Which layers a system is built with.
#[derive(Debug, Clone, PartialEq)]
pub struct Layers {
    /// Defense on every bank.
    pub defense: DefenseSpec,
    /// Ground-truth fault oracle at [`SYSTEM_T_RH`].
    pub oracle: bool,
    /// Invariant-auditing shim around every defense.
    pub audit: bool,
    /// Recording telemetry: instrumented defenses plus a tap per shard.
    pub telemetry: bool,
    /// A command log on every shard.
    pub command_log: bool,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Fleet, Workload::Hammer, Workload::SpecMix];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Hammer => "hammer",
            Workload::SpecMix => "spec-mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Accesses the workload's input holds.
    pub fn accesses(self, sizes: &Sizes) -> u64 {
        match self {
            Workload::Fleet => sizes.fleet_records,
            Workload::Hammer => sizes.hammer,
            Workload::SpecMix => sizes.spec_mix,
        }
    }

    /// True when the workload runs with the fault oracle (checkpoints refuse
    /// one, so `fleet` never does).
    pub fn has_oracle(self) -> bool {
        self != Workload::Fleet
    }

    /// The layers the end-to-end run uses: Graphene with `k = 2`, plus the
    /// oracle where the workload has one.
    pub fn defended(self) -> Layers {
        let t_rh = if self == Workload::Fleet { FLEET_T_RH } else { SYSTEM_T_RH };
        Layers {
            defense: DefenseSpec::Graphene { t_rh, k: 2 },
            oracle: self.has_oracle(),
            audit: false,
            telemetry: false,
            command_log: false,
        }
    }

    /// The controller configuration, with or without the oracle.
    pub fn mc_config(self, oracle: bool) -> McConfig {
        let mut config = McConfig::micro2020_no_oracle();
        if oracle {
            config.fault_model =
                Some(DisturbanceModel { t_rh: SYSTEM_T_RH, ..DisturbanceModel::ddr4_50k() });
        }
        config
    }

    /// Builds the bank-interleaved paper system with `layers`.
    pub fn build_system(self, layers: &Layers) -> SystemController {
        let config = self.mc_config(layers.oracle);
        let rows = config.geometry.rows_per_bank;
        let mut builder = McBuilder::new(config).mapping(MappingPolicy::BankInterleaved);
        if layers.command_log {
            builder = builder.command_log(CommandLog::unbounded());
        }
        if !layers.telemetry {
            return builder.defenses(&layers.defense).audit(layers.audit).build_system();
        }
        let sink = SharedSink::with_recorder(Recorder::with_ring_capacity(DEFAULT_RING_CAPACITY));
        let cadence = Cadence::EveryActs(TELEMETRY_EVERY_ACTS);
        let defense_sink = sink.clone();
        let (spec, audit) = (&layers.defense, layers.audit);
        builder
            .defenses_with(move |bank| {
                let inner = memctrl::DefenseFactory::build_defense(spec, bank, rows, audit);
                mitigations::instrumented(
                    inner,
                    Box::new(defense_sink.clone()),
                    bank as u16,
                    rows,
                    cadence,
                )
            })
            .telemetry_per_shard(move |channel, offset| {
                Some(TelemetryTap::keyed(Box::new(sink.clone()), cadence, offset, Some(channel)))
            })
            .build_system()
    }
}

/// The `fleet-replay run` configuration of the `fleet` workload: Graphene at
/// [`FLEET_T_RH`], bank-interleaved routing, [`FLEET_THREADS`] workers and a
/// checkpoint written to `checkpoint` after every segment.
pub fn fleet_config(sizes: &Sizes, checkpoint: PathBuf) -> FleetConfig {
    let mut cfg = FleetConfig::micro2020(Workload::Fleet.defended().defense);
    cfg.threads = FLEET_THREADS;
    cfg.segment = sizes.fleet_segment;
    cfg.checkpoint = Some(checkpoint);
    cfg
}
