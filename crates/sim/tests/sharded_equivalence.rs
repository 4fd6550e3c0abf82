//! Property test pinning the central claim of the sharded system path:
//! running an interleaved trace through the channel-sharded
//! [`SystemController::try_run`](memctrl::SystemController::try_run) (the
//! sequential drive path every parallel run is compared against) produces
//! per-channel [`RunStats`] **bit-identical** to running each channel's
//! sub-trace through the legacy single-shard controller, for every mapping
//! policy, with and without recorded telemetry.
//!
//! The legacy comparison controller for channel `c` is seeded with the
//! *global* bank indices (`c × banks_per_channel + local`), exactly as the
//! system builder seeds its shards, so RNG-based defenses (PARA here) face
//! identical randomness. Its sub-trace carries delta gaps reconstructed
//! from the full trace's absolute arrival times, so every access arrives
//! at the same picosecond on both paths.

use dram_model::fault::DisturbanceModel;
use dram_model::geometry::DramGeometry;
use dram_model::RowId;
use memctrl::{MappingPolicy, McBuilder, McConfig, RunStats, TelemetryTap};
use proptest::prelude::*;
use rh_sim::DefenseSpec;
use telemetry::{Cadence, Recorder, SharedSink};
use workloads::{Access, Trace};

fn small_config() -> McConfig {
    let mut cfg = McConfig::micro2020();
    cfg.geometry =
        DramGeometry { channels: 4, ranks_per_channel: 1, banks_per_rank: 2, rows_per_bank: 512 };
    cfg.fault_model = Some(DisturbanceModel { t_rh: 500, ..DisturbanceModel::ddr4_50k() });
    cfg
}

/// Splits `trace` by where `policy` routes each access, rewriting banks to
/// shard-local indices and gaps to per-channel deltas of the global
/// arrival clock.
fn split_by_channel(
    trace: &[Access],
    policy: MappingPolicy,
    geometry: &DramGeometry,
) -> Vec<Vec<Access>> {
    let channels = geometry.channels as usize;
    let mut subs: Vec<Vec<Access>> = vec![Vec::new(); channels];
    let mut last_at = vec![0u64; channels];
    let mut clock = 0u64;
    for a in trace {
        clock += a.gap;
        let addr = policy.route(geometry, a.bank, a.row).expect("trace stays in geometry");
        let c = addr.coord.channel as usize;
        subs[c].push(Access {
            bank: MappingPolicy::shard_bank_index(geometry, addr) as u16,
            row: addr.row,
            gap: clock - last_at[c],
            stream: a.stream,
        });
        last_at[c] = clock;
    }
    subs
}

fn run_equivalence(trace: &[Access], policy: MappingPolicy, recorded: bool) {
    let cfg = small_config();
    let geometry = cfg.geometry;
    let rows = geometry.rows_per_bank;
    let per_channel = geometry.banks_per_channel() as usize;
    let defense = DefenseSpec::Para { p: 0.02 };

    // Sharded system path: in-order service through the routing front end.
    let shared = recorded.then(|| SharedSink::with_recorder(Recorder::with_ring_capacity(64)));
    let mut builder = McBuilder::new(cfg.clone()).mapping(policy).defenses(&defense);
    if let Some(s) = &shared {
        builder = builder.telemetry_per_shard(|channel, offset| {
            Some(TelemetryTap::keyed(
                Box::new(s.clone()),
                Cadence::EveryActs(50),
                offset,
                Some(channel),
            ))
        });
    }
    let mut system = builder.build_system();
    let n = trace.len() as u64;
    system.try_run(&mut Trace::from_accesses("trace", trace.to_vec()).replay(), n).unwrap();
    let system_stats = system.finish();

    // Legacy path: each channel's sub-trace through a single-shard
    // controller over the channel geometry.
    let shard_cfg = McConfig { geometry: geometry.channel_geometry(), ..cfg };
    for (c, sub) in split_by_channel(trace, policy, &geometry).into_iter().enumerate() {
        let got = &system_stats.per_channel[c];
        if sub.is_empty() {
            assert_eq!(got, &RunStats::default(), "idle channel {c} accumulated state");
            continue;
        }
        let legacy_shared =
            recorded.then(|| SharedSink::with_recorder(Recorder::with_ring_capacity(64)));
        let mut builder = McBuilder::new(shard_cfg.clone())
            .defenses_with(|b| defense.build(c * per_channel + b, rows));
        if let Some(s) = &legacy_shared {
            builder =
                builder.telemetry(TelemetryTap::new(Box::new(s.clone()), Cadence::EveryActs(50)));
        }
        let mut mc = builder.build();
        let n = sub.len() as u64;
        let legacy = mc.try_run(&mut Trace::from_accesses("sub", sub).replay(), n).unwrap();
        assert_eq!(
            got, &legacy,
            "channel {c} diverged from the legacy path under {policy:?} (recorded: {recorded})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_matches_legacy_per_channel(
        raw in prop::collection::vec((0u16..8, 0u32..512, 0u64..200_000, 0u16..4), 40..250),
        policy_idx in 0usize..3,
        recorded in any::<bool>(),
    ) {
        let policy = [
            MappingPolicy::RowInterleaved,
            MappingPolicy::BankInterleaved,
            MappingPolicy::ChannelXor,
        ][policy_idx];
        let trace: Vec<Access> = raw
            .into_iter()
            .map(|(bank, row, gap, stream)| Access { bank, row: RowId(row), gap, stream })
            .collect();
        run_equivalence(&trace, policy, recorded);
    }
}

/// Deterministic anchor alongside the property: a dense gap-free hammer
/// that keeps every channel saturated, under both telemetry modes.
#[test]
fn dense_hammer_equivalence_all_policies() {
    let trace: Vec<Access> = (0..6_000u32)
        .map(|i| Access {
            bank: (i % 8) as u16,
            row: RowId((i * 7) % 512),
            gap: if i % 3 == 0 { 0 } else { 45_000 },
            stream: (i % 4) as u16,
        })
        .collect();
    for policy in
        [MappingPolicy::RowInterleaved, MappingPolicy::BankInterleaved, MappingPolicy::ChannelXor]
    {
        run_equivalence(&trace, policy, false);
        run_equivalence(&trace, policy, true);
    }
}
