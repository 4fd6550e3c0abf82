//! The full-system controller: channel shards behind a mapping front end.
//!
//! [`SystemController`] models the whole DIMM of the paper's Table III
//! system instead of one flat bank array. Its front end decodes every
//! workload access into a [`SystemAddress`](crate::mapping::SystemAddress)
//! through the configured [`MappingPolicy`] and forwards it — stamped with its absolute arrival
//! time — to the owning channel's shard, a plain [`MemoryController`] over
//! that channel's geometry. Channels share no timing state in DDR4 (each
//! has its own command/data bus), so shards are independent by
//! construction. Routing exists once, as [`SystemRouter::route_one`]:
//! [`SystemController::try_run`] routes through it and serves each access
//! on its shard at once, and a parallel caller takes the router and the
//! disjoint `&mut` shards from [`SystemController::split_streaming`] and
//! feeds [`MemoryController::try_run_batch`] from worker threads (the SPSC
//! pipeline in `rh-sim`).
//!
//! Because shards replay **absolute** timestamps and all refresh/clock
//! state is per-channel, a sharded run is bit-identical to running each
//! channel's sub-trace through a legacy single-shard controller — the
//! invariant the equivalence tests pin.

use dram_model::geometry::DramGeometry;
use dram_model::timing::Picoseconds;
use telemetry::json::JsonValue;
use workloads::{Access, Workload};

use crate::ckpt::{ckpt_field, ckpt_u64, obj, CkptError};
use crate::controller::{McError, MemoryController, StampedAccess};
use crate::mapping::MappingPolicy;
use crate::stats::RunStats;

/// Per-channel and merged statistics of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemStats {
    /// One [`RunStats`] per channel, in channel order.
    pub per_channel: Vec<RunStats>,
    /// The full-system reduction: counters summed, completion maxed,
    /// streams merged element-wise (see [`RunStats::merge`]).
    pub merged: RunStats,
}

/// The routing front end of a [`SystemController`], borrowed out by
/// [`SystemController::split_streaming`] so routing and shard execution can
/// proceed on different threads at the same time. The controller's own
/// [`try_run`](SystemController::try_run) routes through it too.
#[derive(Debug)]
pub struct SystemRouter<'a> {
    geometry: &'a DramGeometry,
    policy: MappingPolicy,
    clock: &'a mut Picoseconds,
    routed: &'a mut u64,
}

impl SystemRouter<'_> {
    /// Routes one access: the global clock advances by the access's gap
    /// and the access decodes into `(channel, stamped access)`, the stamp
    /// carrying the absolute arrival time.
    ///
    /// # Errors
    ///
    /// Returns [`McError::AddressOutOfRange`] when the access does not
    /// decode into the geometry (the clock still advances).
    pub fn route_one(&mut self, access: &Access) -> Result<(usize, StampedAccess), McError> {
        *self.clock += access.gap;
        let access_index = *self.routed;
        *self.routed += 1;
        match self.policy.route(self.geometry, access.bank, access.row) {
            Ok(addr) => Ok((
                usize::from(addr.coord.channel),
                StampedAccess {
                    bank: MappingPolicy::shard_bank_index(self.geometry, addr) as u16,
                    row: addr.row,
                    at: *self.clock,
                    stream: access.stream,
                },
            )),
            Err(addr) => {
                Err(McError::AddressOutOfRange { addr, geometry: *self.geometry, access_index })
            }
        }
    }

    /// The full-system geometry the router decodes into.
    pub fn geometry(&self) -> &DramGeometry {
        self.geometry
    }
}

/// Channel-sharded memory controller for full-system simulation.
///
/// Built by [`McBuilder::build_system`](crate::McBuilder::build_system).
///
/// # Example
///
/// ```
/// use memctrl::{McBuilder, McConfig};
/// use workloads::{ProxyWorkload, SpecPreset};
///
/// let mut system = McBuilder::new(McConfig::micro2020_no_oracle()).build_system();
/// let mut w = ProxyWorkload::from_preset(SpecPreset::Libquantum, 64, 65_536, 5);
/// system.try_run(&mut w, 10_000)?;
/// let stats = system.finish();
/// assert_eq!(stats.merged.accesses, 10_000);
/// # Ok::<(), memctrl::McError>(())
/// ```
pub struct SystemController {
    geometry: DramGeometry,
    policy: MappingPolicy,
    shards: Vec<MemoryController>,
    /// Global arrival clock, accumulated from workload gaps at routing time.
    clock: Picoseconds,
    /// Accesses routed so far; numbers the `access_index` of routing errors.
    routed: u64,
}

impl std::fmt::Debug for SystemController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemController")
            .field("geometry", &self.geometry)
            .field("policy", &self.policy)
            .field("shards", &self.shards.len())
            .field("routed", &self.routed)
            .finish()
    }
}

impl SystemController {
    pub(crate) fn from_shards(
        geometry: DramGeometry,
        policy: MappingPolicy,
        shards: Vec<MemoryController>,
    ) -> Self {
        SystemController { geometry, policy, shards, clock: 0, routed: 0 }
    }

    /// The full-system geometry (each shard owns its
    /// [`channel_geometry`](DramGeometry::channel_geometry)).
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The address-mapping policy of the front end.
    pub fn policy(&self) -> MappingPolicy {
        self.policy
    }

    /// Global arrival clock (ps) of the routing front end.
    pub fn clock(&self) -> Picoseconds {
        self.clock
    }

    /// The per-channel shards, in channel order.
    pub fn shards(&self) -> &[MemoryController] {
        &self.shards
    }

    /// Splits the controller into its routing front end and the shard
    /// array, so a driver thread can keep routing (and streaming batches
    /// out) while worker threads hold disjoint `&mut` shards — the borrow
    /// shape the parallel SPSC pipeline in `rh-sim` needs. The router owns
    /// the controller's clock and routed-access count for the borrow, and
    /// [`try_run`](Self::try_run) routes through the same router, so both
    /// drive paths stamp every access identically.
    pub fn split_streaming(&mut self) -> (SystemRouter<'_>, &mut [MemoryController]) {
        (
            SystemRouter {
                geometry: &self.geometry,
                policy: self.policy,
                clock: &mut self.clock,
                routed: &mut self.routed,
            },
            &mut self.shards,
        )
    }

    /// Runs `n` accesses from `workload` through the front end one at a
    /// time: each is routed and served on its shard before the next.
    ///
    /// # Errors
    ///
    /// Returns [`McError::AddressOutOfRange`] on the first access that does
    /// not decode into the geometry; prior accesses remain applied.
    pub fn try_run(&mut self, workload: &mut dyn Workload, n: u64) -> Result<(), McError> {
        let (mut router, shards) = self.split_streaming();
        for _ in 0..n {
            let (c, stamped) = router.route_one(&workload.next_access())?;
            shards[c]
                .try_run_batch(std::slice::from_ref(&stamped))
                // invariant: route_one decoded the access into shard `c`.
                .expect("routed access is in shard range");
        }
        Ok(())
    }

    /// Flushes telemetry and returns per-channel plus merged statistics.
    /// Callable repeatedly; each call snapshots the totals so far.
    pub fn finish(&mut self) -> SystemStats {
        let per_channel: Vec<RunStats> = self.shards.iter_mut().map(|s| s.finish_run()).collect();
        let mut merged = RunStats::default();
        for stats in &per_channel {
            merged.merge(stats);
        }
        SystemStats { per_channel, merged }
    }

    /// True if no shard's ground-truth oracle observed a bit flip.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(MemoryController::is_clean)
    }

    /// Encodes the full system's dynamic state — the routing front end's
    /// clock and access count plus one
    /// [`MemoryController::snapshot`] per channel shard — such that
    /// [`restore`](Self::restore) on a freshly built system of the same
    /// configuration resumes bit-identically.
    ///
    /// # Errors
    ///
    /// Propagates any shard's refusal (oracle, fault plan, command log,
    /// telemetry tap, or an uncheckpointable defense).
    pub fn snapshot(&self) -> Result<JsonValue, CkptError> {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(c, s)| {
                s.snapshot().map_err(|e| CkptError::Channel { channel: c, source: Box::new(e) })
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        Ok(obj(vec![
            ("clock", JsonValue::U64(self.clock)),
            ("routed", JsonValue::U64(self.routed)),
            ("shards", JsonValue::Arr(shards)),
        ]))
    }

    /// Replays state captured by [`snapshot`](Self::snapshot) into this
    /// system, which must have been built from the same configuration (the
    /// snapshot stores no geometry or policy; the builder pins them).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or mismatched field —
    /// wrong channel count, or any shard-level rejection. Shards restore in
    /// channel order; on error, earlier shards may already hold the
    /// checkpoint's state, so discard the system rather than resuming it.
    pub fn restore(&mut self, state: &JsonValue) -> Result<(), CkptError> {
        let clock = ckpt_u64(state, "clock")?;
        let routed = ckpt_u64(state, "routed")?;
        let shards = ckpt_field(state, "shards")?
            .as_arr()
            .ok_or_else(|| CkptError::NotArray { key: "shards".to_owned() })?;
        if shards.len() != self.shards.len() {
            return Err(CkptError::ShardCount { found: shards.len(), have: self.shards.len() });
        }
        for (c, shard_state) in shards.iter().enumerate() {
            self.shards[c]
                .restore(shard_state)
                .map_err(|e| CkptError::Channel { channel: c, source: Box::new(e) })?;
        }
        self.clock = clock;
        self.routed = routed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::McBuilder;
    use crate::config::McConfig;
    use dram_model::geometry::RowId;
    use workloads::{ProxyWorkload, SpecPreset, Trace};

    fn system() -> SystemController {
        McBuilder::new(McConfig::micro2020_no_oracle()).build_system()
    }

    fn trace(n: usize) -> Vec<Access> {
        ProxyWorkload::from_preset(SpecPreset::Libquantum, 64, 65_536, 5).take_accesses(n)
    }

    /// Drives `accesses` through [`SystemController::try_run`].
    fn run(sys: &mut SystemController, accesses: Vec<Access>) -> Result<(), McError> {
        let n = accesses.len() as u64;
        sys.try_run(&mut Trace::from_accesses("trace", accesses).replay(), n)
    }

    #[test]
    fn run_serves_every_access() {
        let mut sys = system();
        run(&mut sys, trace(20_000)).unwrap();
        let stats = sys.finish();
        assert_eq!(stats.merged.accesses, 20_000);
        assert_eq!(stats.per_channel.len(), 4);
        assert_eq!(stats.per_channel.iter().map(|s| s.accesses).sum::<u64>(), 20_000);
        // Bank-interleaved routing spreads this 64-bank trace over all four
        // channels.
        assert!(stats.per_channel.iter().all(|s| s.accesses > 0));
        assert!(sys.is_clean());
    }

    #[test]
    fn routing_error_names_the_missing_address() {
        let mut sys = system();
        let bad = Access { bank: 64, row: RowId(1), gap: 1_000, stream: 0 };
        let good = trace(5);
        let err = run(&mut sys, vec![good[0], good[1], bad]).expect_err("bank 64 of 64 must fail");
        match err {
            McError::AddressOutOfRange { addr, geometry, access_index } => {
                assert_eq!(addr.coord.channel, 4, "dense decode of the 65th bank");
                assert_eq!(geometry.channels, 4);
                assert_eq!(access_index, 2);
            }
            other => panic!("wrong error: {other:?}"),
        }
        // The two good accesses were served before the error surfaced.
        assert_eq!(sys.finish().merged.accesses, 2);
    }

    #[test]
    fn system_checkpoint_resumes_bit_identically_through_json_text() {
        let accesses = trace(40_000);
        let mut full = system();
        run(&mut full, accesses[..20_000].to_vec()).unwrap();
        let text = full.snapshot().unwrap().to_string();
        let mut resumed = system();
        resumed.restore(&telemetry::json::parse(&text).unwrap()).unwrap();
        run(&mut full, accesses[20_000..].to_vec()).unwrap();
        run(&mut resumed, accesses[20_000..].to_vec()).unwrap();
        assert_eq!(full.clock(), resumed.clock());
        assert_eq!(full.finish(), resumed.finish());
        assert_eq!(full.snapshot().unwrap().to_string(), resumed.snapshot().unwrap().to_string());
    }

    #[test]
    fn system_restore_rejects_wrong_shard_count() {
        let mut sys = system();
        let state = telemetry::json::parse("{\"clock\":0,\"routed\":0,\"shards\":[]}").unwrap();
        let err = sys.restore(&state).unwrap_err();
        assert!(matches!(err, CkptError::ShardCount { found: 0, have: _ }), "{err:?}");
        assert!(err.to_string().contains("shard"), "{err}");
    }

    #[test]
    fn global_clock_accumulates_gaps() {
        let mut sys = system();
        run(
            &mut sys,
            vec![
                Access { bank: 0, row: RowId(1), gap: 1_000, stream: 0 },
                Access { bank: 1, row: RowId(1), gap: 2_000, stream: 0 },
            ],
        )
        .unwrap();
        assert_eq!(sys.clock(), 3_000);
        // The two accesses land on different channels under bank
        // interleaving, each stamped with the *global* arrival time.
        let stats = sys.finish();
        assert_eq!(stats.per_channel[0].accesses, 1);
        assert_eq!(stats.per_channel[1].accesses, 1);
    }
}
