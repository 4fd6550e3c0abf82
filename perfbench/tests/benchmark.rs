//! The benchmark's own guarantees: seeded inputs, a traced decomposition
//! that reproduces the untraced statistics, and an attack that really flips
//! bits when undefended.

use std::path::PathBuf;

use perfbench::input::{self, PackedTrace};
use perfbench::layers::{decompose, CkptPlan, Source};
use perfbench::phases::{self, replay_fleet, replay_system};
use perfbench::suite::{fleet_config, Layers, Sizes, Workload};
use rh_sim::{CkptFingerprint, DefenseSpec};
use workloads::TraceReader;

const SMALL: Sizes = Sizes {
    fleet_tenants: 32,
    fleet_records: 30_000,
    fleet_segment: 10_000,
    hammer: 200_000,
    spec_mix: 40_000,
};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn packed(workload: Workload, sizes: &Sizes, seed: u64) -> PackedTrace {
    let (accesses, _) = input::generate(workload, sizes, seed);
    assert_eq!(accesses.len() as u64, workload.accesses(sizes));
    PackedTrace::pack(&accesses).expect("inputs pack into 64 bits")
}

fn fleet_input(seed: u64) -> Vec<u8> {
    let dir = scratch(&format!("fleet-seed-{seed}"));
    phases::setup(Workload::Fleet, &SMALL, seed, &dir).expect("fleet setup");
    std::fs::read(phases::input_path(&dir, Workload::Fleet)).expect("read trace")
}

#[test]
fn same_seed_same_input_other_seed_other_input() {
    for workload in [Workload::Hammer, Workload::SpecMix] {
        let a = packed(workload, &SMALL, 7);
        assert_eq!(a, packed(workload, &SMALL, 7), "{workload:?} is not deterministic");
        assert_ne!(a, packed(workload, &SMALL, 8), "{workload:?} ignores its seed");
    }
    let fleet = fleet_input(7);
    assert_eq!(fleet, fleet_input(7), "fleet trace is not deterministic");
    assert_ne!(fleet, fleet_input(8), "fleet trace ignores its seed");
}

#[test]
fn traced_decomposition_reproduces_untraced_stats() {
    for workload in [Workload::Hammer, Workload::SpecMix] {
        let trace = packed(workload, &SMALL, 3);
        let layers = workload.defended();
        let (untraced, _) = replay_system(workload, &layers, &trace);
        let untraced = untraced.expect("untraced run");
        for timed in [true, false] {
            let mut system = workload.build_system(&layers);
            let spans = decompose(
                &mut system,
                &mut Source::Packed(&trace, 0),
                trace.len() as u64,
                None,
                timed,
            )
            .expect("decomposed run");
            assert_eq!(system.finish(), untraced, "{workload:?} timed={timed}");
            assert_eq!(spans.exec.is_zero(), !timed);
        }
    }

    let dir = scratch("fleet-decomposition");
    phases::setup(Workload::Fleet, &SMALL, 5, &dir).expect("fleet setup");
    let trace = phases::input_path(&dir, Workload::Fleet);
    let config = fleet_config(&SMALL, phases::checkpoint_path(&dir));
    let (untraced, _) = replay_fleet(&config, &trace);
    let untraced = untraced.expect("run_fleet");
    let geometry = Workload::Fleet.mc_config(false).geometry;
    let reader = TraceReader::open_for(&trace, &geometry).expect("open trace");
    let plan = CkptPlan {
        path: config.checkpoint.as_deref().expect("checkpointing config"),
        segment: config.segment,
        trace_name: reader.name(),
        fingerprint: CkptFingerprint::of(&config),
    };
    let mut system = Workload::Fleet.build_system(&Workload::Fleet.defended());
    let spans =
        decompose(&mut system, &mut Source::Trace(reader), SMALL.fleet_records, Some(&plan), true)
            .expect("decomposed fleet run");
    assert_eq!(system.finish(), untraced, "fleet decomposition diverged from run_fleet");
    assert_eq!(spans.ckpt.len() as u64, SMALL.fleet_records / SMALL.fleet_segment);
    assert!(spans.ckpt_bytes > 0);
}

#[test]
fn undefended_hammer_flips_and_graphene_prevents_it() {
    let sizes = Sizes { hammer: 1_000_000, ..SMALL };
    let trace = packed(Workload::Hammer, &sizes, 1);
    let defended = Workload::Hammer.defended();
    let undefended = Layers { defense: DefenseSpec::None, ..defended.clone() };
    let (flipped, _) = replay_system(Workload::Hammer, &undefended, &trace);
    assert!(flipped.expect("undefended run").merged.bit_flips > 0, "the attack must flip bits");
    let (clean, _) = replay_system(Workload::Hammer, &defended, &trace);
    let clean = clean.expect("defended run");
    assert_eq!(clean.merged.bit_flips, 0);
    assert!(clean.merged.victim_rows_refreshed > 0, "Graphene must refresh victims");
}
