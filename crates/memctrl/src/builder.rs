//! Typed construction for single-shard and system controllers.
//!
//! [`McBuilder`] replaces the old positional `MemoryController::new(...)`
//! constructor plus post-hoc `enable_command_log`/`attach_telemetry`
//! setters, which could not express the sharded configuration space
//! (mapping policy, per-shard telemetry, audit wrapping).
//! One builder serves both targets:
//!
//! * [`McBuilder::build`] — a single [`MemoryController`] owning the whole
//!   geometry, the legacy semantics;
//! * [`McBuilder::build_system`] — a [`SystemController`] with one shard
//!   per channel, each owning its ranks' banks, defenses, refresh engines,
//!   and oracle state.
//!
//! Defense construction funnels through [`DefenseFactory`], so simulation
//! drivers, benchmarks, and audited runs all build defenses from one spec
//! instead of re-plumbing per-bank seeds at every call site. Shard
//! defenses are built with the **global** flat bank index
//! (`channel × banks_per_channel + local`), so a sharded system seeds
//! bit-identically to a whole-system controller over the same banks.

use faultsim::FaultPlan;
use mitigations::{NoDefense, RowHammerDefense};

use crate::cmdlog::CommandLog;
use crate::config::McConfig;
use crate::controller::{McBuildError, MemoryController};
use crate::mapping::MappingPolicy;
use crate::system::SystemController;
use crate::tap::TelemetryTap;

/// Builds one per-bank defense instance.
///
/// The single construction interface shared by the simulator, benchmarks,
/// and the sharded path. `bank` is the global flat bank index (use it to
/// seed RNG-based defenses distinctly); `audited` asks the factory to wrap
/// the defense in its ground-truth audit shell, whatever that means for the
/// implementing spec.
///
/// Any `Fn(usize) -> Box<dyn RowHammerDefense + Send>` closure is a
/// `DefenseFactory` that ignores `rows_per_bank` and `audited`.
pub trait DefenseFactory {
    /// Builds the defense for global bank index `bank`.
    fn build_defense(
        &self,
        bank: usize,
        rows_per_bank: u32,
        audited: bool,
    ) -> Box<dyn RowHammerDefense + Send>;

    /// Builds one defense *per bank* for a contiguous span of `banks` banks
    /// starting at global index `first_bank`, when the spec's tracker shares
    /// state across banks (ABACuS's single all-bank counter table). Return
    /// `None` — the default — to keep the strictly per-bank
    /// [`build_defense`](Self::build_defense) path.
    ///
    /// The span is one controller's worth of banks: the whole geometry for
    /// [`McBuilder::build`], one channel for
    /// [`McBuilder::build_system`]. Sharing therefore never crosses a shard
    /// boundary, which keeps sharded execution deterministic (each shard
    /// serializes its own activations) and lets shards checkpoint
    /// independently. A `Some` return must hold exactly `banks` boxes, in
    /// bank order.
    fn build_all_bank(
        &self,
        first_bank: usize,
        banks: u32,
        rows_per_bank: u32,
        audited: bool,
    ) -> Option<Vec<Box<dyn RowHammerDefense + Send>>> {
        let _ = (first_bank, banks, rows_per_bank, audited);
        None
    }
}

impl<F> DefenseFactory for F
where
    F: Fn(usize) -> Box<dyn RowHammerDefense + Send>,
{
    fn build_defense(
        &self,
        bank: usize,
        _rows_per_bank: u32,
        _audited: bool,
    ) -> Box<dyn RowHammerDefense + Send> {
        self(bank)
    }
}

/// Per-shard telemetry factory: called with `(channel, global bank offset)`
/// for each shard of a system build.
type ShardTapFactory<'a> = Box<dyn FnMut(u8, u16) -> Option<TelemetryTap> + 'a>;

/// Where the builder gets its per-bank defenses from.
enum DefenseSource<'a> {
    /// No defense configured: every bank gets [`NoDefense`].
    None,
    /// A shared spec-style factory (borrowed, so one spec can build many
    /// controllers in a sweep).
    Factory(&'a dyn DefenseFactory),
    /// A stateful closure, for call sites that capture mutable state.
    Closure(Box<dyn FnMut(usize) -> Box<dyn RowHammerDefense + Send> + 'a>),
}

/// Typed builder for [`MemoryController`] and [`SystemController`].
///
/// # Example
///
/// ```
/// use memctrl::{mapping::MappingPolicy, McBuilder, McConfig};
/// use mitigations::Para;
///
/// let mut system = McBuilder::new(McConfig::micro2020_no_oracle())
///     .mapping(MappingPolicy::BankInterleaved)
///     .defenses_with(|bank| Box::new(Para::new(0.001, bank as u64)))
///     .build_system();
/// assert_eq!(system.shards().len(), 4);
/// ```
pub struct McBuilder<'a> {
    config: McConfig,
    policy: MappingPolicy,
    source: DefenseSource<'a>,
    audit: bool,
    command_log: Option<CommandLog>,
    telemetry: Option<TelemetryTap>,
    per_shard_telemetry: Option<ShardTapFactory<'a>>,
    faults: Option<FaultPlan>,
}

impl std::fmt::Debug for McBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McBuilder")
            .field("geometry", &self.config.geometry)
            .field("policy", &self.policy)
            .field("audit", &self.audit)
            .finish()
    }
}

impl<'a> McBuilder<'a> {
    /// Starts a builder over `config`'s geometry and timing.
    pub fn new(config: McConfig) -> Self {
        McBuilder {
            config,
            policy: MappingPolicy::default(),
            source: DefenseSource::None,
            audit: false,
            command_log: None,
            telemetry: None,
            per_shard_telemetry: None,
            faults: None,
        }
    }

    /// Selects the address-mapping policy of the system front end
    /// (ignored by [`build`](Self::build), which never routes).
    pub fn mapping(mut self, policy: MappingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Uses `factory` for every bank's defense. The factory is borrowed so
    /// one spec can build a whole sweep's controllers.
    pub fn defenses(mut self, factory: &'a dyn DefenseFactory) -> Self {
        self.source = DefenseSource::Factory(factory);
        self
    }

    /// Uses a closure for every bank's defense (called with the global flat
    /// bank index). Unlike [`defenses`](Self::defenses), the closure may be
    /// stateful; it never sees the audit flag.
    pub fn defenses_with<F>(mut self, factory: F) -> Self
    where
        F: FnMut(usize) -> Box<dyn RowHammerDefense + Send> + 'a,
    {
        self.source = DefenseSource::Closure(Box::new(factory));
        self
    }

    /// Asks the [`DefenseFactory`] for audit-wrapped defenses (ignored for
    /// [`defenses_with`](Self::defenses_with) closures, which predate the
    /// flag).
    pub fn audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Attaches a command log. Under [`build_system`](Self::build_system)
    /// the log is a *prototype*: each shard records into its own clone, so
    /// pass it empty.
    pub fn command_log(mut self, log: CommandLog) -> Self {
        self.command_log = Some(log);
        self
    }

    /// Attaches a telemetry tap to the single controller
    /// [`build`](Self::build) produces. A tap is owned by exactly one
    /// controller, so [`build_system`](Self::build_system) rejects this —
    /// use [`telemetry_per_shard`](Self::telemetry_per_shard) there.
    pub fn telemetry(mut self, tap: TelemetryTap) -> Self {
        self.telemetry = Some(tap);
        self
    }

    /// Supplies each shard's telemetry tap. The closure is called once per
    /// channel with `(channel, bank_key_offset)`, where the offset is the
    /// channel's first global bank index — pass it to
    /// [`TelemetryTap::keyed`] so the shards' per-bank series land on
    /// disjoint keys of a shared sink. Return `None` to leave a shard
    /// untapped.
    pub fn telemetry_per_shard<F>(mut self, taps: F) -> Self
    where
        F: FnMut(u8, u16) -> Option<TelemetryTap> + 'a,
    {
        self.per_shard_telemetry = Some(Box::new(taps));
        self
    }

    /// Arms a deterministic fault-injection plan: the controller replays it
    /// keyed by served-access index (see [`crate::faults`]). Only
    /// single-controller builds accept a plan — a plan's access clock is
    /// per-controller, so [`build_system`](Self::build_system) rejects it.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds a single controller owning the whole geometry — the legacy
    /// semantics every pre-sharding call site had.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's geometry or timing fail validation;
    /// use [`try_build`](Self::try_build) to handle that as an error.
    pub fn build(self) -> MemoryController {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`build`](Self::build), but surfaces configuration problems as
    /// [`McBuildError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`McBuildError::InvalidConfig`] when the geometry, timing or
    /// fault model of the [`McConfig`] fails validation.
    pub fn try_build(self) -> Result<MemoryController, McBuildError> {
        let McBuilder { config, mut source, audit, command_log, telemetry, faults, .. } = self;
        let rows = config.geometry.rows_per_bank;
        let banks = config.geometry.total_banks() as usize;
        let mut make = resolve_span(&mut source, 0, banks, rows, audit);
        let mut mc = MemoryController::try_from_parts(config, &mut make, 0, 0)?;
        if let Some(log) = command_log {
            mc.set_command_log(log);
        }
        if let Some(tap) = telemetry {
            mc.set_telemetry(tap);
        }
        if let Some(plan) = faults {
            mc.set_fault_plan(plan);
        }
        Ok(mc)
    }

    /// Builds a channel-sharded [`SystemController`]: one shard per
    /// channel, each owning its ranks' banks, defenses, refresh engines,
    /// and oracle state, fronted by the configured mapping policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation, if a single-owner
    /// [`telemetry`](Self::telemetry) tap was supplied (shards need
    /// [`telemetry_per_shard`](Self::telemetry_per_shard)), or if a
    /// [`faults`](Self::faults) plan was supplied (plans are
    /// per-controller).
    pub fn build_system(self) -> SystemController {
        self.try_build_system().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`build_system`](Self::build_system), but surfaces
    /// configuration problems as [`McBuildError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`McBuildError::InvalidConfig`] when the geometry, timing or
    /// fault model fails validation.
    ///
    /// # Panics
    ///
    /// Still panics on the API-misuse cases ([`telemetry`](Self::telemetry)
    /// or [`faults`](Self::faults) on a sharded build) — those are caller
    /// bugs, not data-dependent configuration problems.
    pub fn try_build_system(self) -> Result<SystemController, McBuildError> {
        let McBuilder {
            config,
            policy,
            source,
            audit,
            command_log,
            telemetry,
            mut per_shard_telemetry,
            faults,
        } = self;
        assert!(
            telemetry.is_none(),
            "a single telemetry tap cannot span shards; use telemetry_per_shard"
        );
        assert!(
            faults.is_none(),
            "a fault plan's access clock is per-controller; attach it to a single build()"
        );
        // Validate the system-level config here: a zero-channel geometry
        // would otherwise skip the per-shard validation entirely (the shard
        // loop runs zero times) and yield a silently inert controller.
        config.geometry.validate().map_err(McBuildError::InvalidConfig)?;
        config.timing.validate().map_err(McBuildError::InvalidConfig)?;
        if let Some(model) = &config.fault_model {
            model.validate().map_err(McBuildError::InvalidConfig)?;
        }
        let geometry = config.geometry;
        let rows = geometry.rows_per_bank;
        let per_channel = geometry.banks_per_channel() as usize;
        let mut source = source;
        let mut shards = Vec::with_capacity(usize::from(geometry.channels));
        for c in 0..geometry.channels {
            let shard_config = McConfig { geometry: geometry.channel_geometry(), ..config.clone() };
            let offset = usize::from(c) * per_channel;
            // Resolve per shard so all-bank factories share within — never
            // across — a channel's banks.
            let mut make = resolve_span(&mut source, offset, per_channel, rows, audit);
            let mut shard = MemoryController::try_from_parts(shard_config, &mut make, c, offset)?;
            if let Some(log) = &command_log {
                shard.set_command_log(log.clone());
            }
            if let Some(taps) = per_shard_telemetry.as_mut() {
                if let Some(tap) = taps(c, offset as u16) {
                    shard.set_telemetry(tap);
                }
            }
            shards.push(shard);
        }
        Ok(SystemController::from_shards(geometry, policy, shards))
    }
}

/// Collapses a defense source into the per-bank closure `try_from_parts` eats,
/// scoped to one controller's span of `banks` banks starting at
/// `first_bank`. Factory sources are offered the whole span via
/// [`DefenseFactory::build_all_bank`] first; a `Some` answer is drained
/// box-by-box (asserting bank order), `None` falls back to the per-bank
/// [`DefenseFactory::build_defense`] path.
fn resolve_span<'s, 'a: 's>(
    source: &'s mut DefenseSource<'a>,
    first_bank: usize,
    banks: usize,
    rows_per_bank: u32,
    audit: bool,
) -> Box<dyn FnMut(usize) -> Box<dyn RowHammerDefense + Send> + 's> {
    match source {
        DefenseSource::None => Box::new(|_| Box::new(NoDefense::new())),
        DefenseSource::Factory(f) => {
            let f: &'a dyn DefenseFactory = *f;
            match f.build_all_bank(first_bank, banks as u32, rows_per_bank, audit) {
                Some(pool) => {
                    assert_eq!(
                        pool.len(),
                        banks,
                        "build_all_bank returned {} defenses for a {banks}-bank span",
                        pool.len(),
                    );
                    let mut pool = pool.into_iter();
                    let mut next = first_bank;
                    Box::new(move |bank| {
                        assert_eq!(bank, next, "all-bank defenses drain in bank order");
                        next += 1;
                        pool.next().expect("all-bank defense pool exhausted")
                    })
                }
                None => Box::new(move |bank| f.build_defense(bank, rows_per_bank, audit)),
            }
        }
        DefenseSource::Closure(c) => Box::new(move |bank| c(bank)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use workloads::Synthetic;

    #[test]
    fn default_build_uses_no_defense() {
        let mut mc = McBuilder::new(McConfig::single_bank(65_536, None)).build();
        let stats = mc.try_run(&mut Synthetic::s3(65_536, 1), 5_000).unwrap();
        assert_eq!(stats.defense_refresh_commands, 0);
        assert_eq!(stats.accesses, 5_000);
    }

    #[test]
    fn factory_sees_global_bank_indices_and_audit_flag() {
        struct Spy {
            calls: AtomicUsize,
            audited: AtomicUsize,
        }
        impl DefenseFactory for Spy {
            fn build_defense(
                &self,
                bank: usize,
                rows_per_bank: u32,
                audited: bool,
            ) -> Box<dyn RowHammerDefense + Send> {
                assert_eq!(rows_per_bank, 65_536);
                assert_eq!(bank, self.calls.fetch_add(1, Ordering::Relaxed));
                if audited {
                    self.audited.fetch_add(1, Ordering::Relaxed);
                }
                Box::new(NoDefense::new())
            }
        }
        let spy = Spy { calls: AtomicUsize::new(0), audited: AtomicUsize::new(0) };
        let system = McBuilder::new(McConfig::micro2020_no_oracle())
            .defenses(&spy)
            .audit(true)
            .build_system();
        // 64 banks, numbered globally and in channel order across shards.
        assert_eq!(spy.calls.load(Ordering::Relaxed), 64);
        assert_eq!(spy.audited.load(Ordering::Relaxed), 64);
        assert_eq!(system.shards().len(), 4);
        assert_eq!(system.shards()[2].channel(), 2);
    }

    #[test]
    fn all_bank_factory_spans_each_shard_once() {
        // An all-bank factory is offered one contiguous span per controller:
        // the whole geometry for build(), one channel for build_system().
        struct SpanSpy {
            spans: std::sync::Mutex<Vec<(usize, u32)>>,
        }
        impl DefenseFactory for SpanSpy {
            fn build_defense(
                &self,
                _bank: usize,
                _rows_per_bank: u32,
                _audited: bool,
            ) -> Box<dyn RowHammerDefense + Send> {
                panic!("per-bank path must not run when build_all_bank answers");
            }
            fn build_all_bank(
                &self,
                first_bank: usize,
                banks: u32,
                rows_per_bank: u32,
                _audited: bool,
            ) -> Option<Vec<Box<dyn RowHammerDefense + Send>>> {
                assert_eq!(rows_per_bank, 65_536);
                self.spans.lock().unwrap().push((first_bank, banks));
                Some(
                    (0..banks)
                        .map(|_| Box::new(NoDefense::new()) as Box<dyn RowHammerDefense + Send>)
                        .collect(),
                )
            }
        }

        let spy = SpanSpy { spans: std::sync::Mutex::new(Vec::new()) };
        let system = McBuilder::new(McConfig::micro2020_no_oracle()).defenses(&spy).build_system();
        assert_eq!(system.shards().len(), 4);
        assert_eq!(*spy.spans.lock().unwrap(), vec![(0, 16), (16, 16), (32, 16), (48, 16)]);

        spy.spans.lock().unwrap().clear();
        let mc = McBuilder::new(McConfig::micro2020_no_oracle()).defenses(&spy).build();
        assert_eq!(mc.config().geometry.total_banks(), 64);
        assert_eq!(*spy.spans.lock().unwrap(), vec![(0, 64)]);
    }

    #[test]
    fn default_build_all_bank_keeps_per_bank_path() {
        struct PerBank(AtomicUsize);
        impl DefenseFactory for PerBank {
            fn build_defense(
                &self,
                _bank: usize,
                _rows_per_bank: u32,
                _audited: bool,
            ) -> Box<dyn RowHammerDefense + Send> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Box::new(NoDefense::new())
            }
        }
        let f = PerBank(AtomicUsize::new(0));
        let _ = McBuilder::new(McConfig::micro2020_no_oracle()).defenses(&f).build_system();
        assert_eq!(f.0.load(Ordering::Relaxed), 64);
    }

    #[test]
    #[should_panic(expected = "2 defenses for a 64-bank span")]
    fn short_all_bank_pool_is_rejected() {
        struct Short;
        impl DefenseFactory for Short {
            fn build_defense(
                &self,
                _bank: usize,
                _rows_per_bank: u32,
                _audited: bool,
            ) -> Box<dyn RowHammerDefense + Send> {
                Box::new(NoDefense::new())
            }
            fn build_all_bank(
                &self,
                _first_bank: usize,
                _banks: u32,
                _rows_per_bank: u32,
                _audited: bool,
            ) -> Option<Vec<Box<dyn RowHammerDefense + Send>>> {
                Some(vec![Box::new(NoDefense::new()), Box::new(NoDefense::new())])
            }
        }
        let _ = McBuilder::new(McConfig::micro2020_no_oracle()).defenses(&Short).build();
    }

    #[test]
    fn closure_source_matches_legacy_seeding() {
        let mut seen = Vec::new();
        let mc = McBuilder::new(McConfig::micro2020_no_oracle())
            .defenses_with(|bank| {
                seen.push(bank);
                Box::new(NoDefense::new())
            })
            .build();
        assert_eq!(mc.config().geometry.total_banks(), 64);
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn command_log_prototype_is_cloned_per_shard() {
        let mut system = McBuilder::new(McConfig::micro2020_no_oracle())
            .command_log(CommandLog::bounded(128))
            .build_system();
        system.try_run(&mut Synthetic::s3(65_536, 1), 100).unwrap();
        let _ = system.finish();
        for shard in system.shards() {
            assert!(shard.command_log().is_some());
        }
        // Channel 0 owns all the single-bank attack's commands; others idle.
        assert!(!system.shards()[0].command_log().unwrap().records().is_empty());
    }

    #[test]
    #[should_panic(expected = "telemetry_per_shard")]
    fn single_tap_rejected_for_system_build() {
        use telemetry::{Cadence, NoopSink};
        let _ = McBuilder::new(McConfig::micro2020_no_oracle())
            .telemetry(TelemetryTap::new(Box::new(NoopSink), Cadence::EveryActs(1)))
            .build_system();
    }

    #[test]
    fn try_build_reports_invalid_timing_and_geometry() {
        let mut bad_timing = McConfig::micro2020_no_oracle();
        bad_timing.timing.t_rc = 0;
        let err = McBuilder::new(bad_timing).try_build().unwrap_err();
        assert!(err.to_string().contains("t_rc"), "{err}");

        let mut bad_geometry = McConfig::micro2020_no_oracle();
        bad_geometry.geometry.channels = 0;
        let err = McBuilder::new(bad_geometry.clone()).try_build_system().unwrap_err();
        assert!(err.to_string().contains("geometry"), "{err}");
        assert_eq!(err.clone(), err, "build errors compare and clone");
    }

    #[test]
    fn try_build_reports_invalid_fault_model() {
        use dram_model::fault::{DisturbanceModel, MuModel};
        let bad_models = [
            DisturbanceModel { t_rh: 0, ..DisturbanceModel::ddr4_50k() },
            // t_rh · 2^16 would wrap to 0 in a release build.
            DisturbanceModel { t_rh: 1 << 48, ..DisturbanceModel::ddr4_50k() },
            DisturbanceModel { t_rh: 1 << 47, ..DisturbanceModel::ddr4_50k() },
            DisturbanceModel { t_rh: 1_000, mu: MuModel::Custom(vec![0.5]) },
            DisturbanceModel { t_rh: 1_000, mu: MuModel::Uniform { radius: 0 } },
        ];
        for model in bad_models {
            let mut config = McConfig::micro2020_no_oracle();
            config.fault_model = Some(model.clone());
            let err = McBuilder::new(config.clone()).try_build().unwrap_err();
            assert!(err.to_string().contains("fault model"), "{model:?}: {err}");
            let err = McBuilder::new(config).try_build_system().unwrap_err();
            assert!(err.to_string().contains("fault model"), "{model:?}: {err}");
        }
        let mut largest = McConfig::micro2020_no_oracle();
        largest.fault_model =
            Some(DisturbanceModel { t_rh: (1 << 47) - 1, ..DisturbanceModel::ddr4_50k() });
        assert!(McBuilder::new(largest).try_build().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid controller config")]
    fn build_still_panics_on_invalid_config() {
        let mut bad = McConfig::micro2020_no_oracle();
        bad.timing.t_refi = 0;
        let _ = McBuilder::new(bad).build();
    }

    #[test]
    #[should_panic(expected = "per-controller")]
    fn fault_plan_rejected_for_system_build() {
        use faultsim::FaultSpec;
        let _ = McBuilder::new(McConfig::micro2020_no_oracle())
            .faults(FaultPlan::generate(&FaultSpec::new(1)))
            .build_system();
    }
}
