//! The tracker arena and the generation matrix score the same sweep
//! engine's cells: on DDR4 at a shared threshold, every arena cell must
//! equal the matching generation-matrix cell counter for counter.

use dram_model::Generation;
use rh_sim::{run_arena, run_generation_matrix, ArenaConfig, GenerationMatrixConfig, WorkloadSpec};

#[test]
fn arena_cells_equal_the_ddr4_generation_cells() {
    let workloads = vec![WorkloadSpec::S3, WorkloadSpec::SameRowAllBanks { banks: 4 }];
    let arena = run_arena(&ArenaConfig {
        thresholds: vec![1_560],
        workloads: workloads.clone(),
        accesses: 20_000,
        ..ArenaConfig::smoke()
    });
    let generations = run_generation_matrix(&GenerationMatrixConfig {
        generations: vec![Generation::Ddr4_2400],
        preset_tail: 1,
        workloads,
        accesses: 20_000,
        ..GenerationMatrixConfig::smoke()
    });
    assert_eq!(arena.len(), 2 * 4, "two workloads x four trackers");
    for a in &arena {
        let g = generations
            .iter()
            .find(|g| g.workload == a.workload && g.defense == a.defense)
            .unwrap_or_else(|| panic!("no generation cell for {}/{}", a.workload, a.defense));
        let id = format!("{}/{}", a.workload, a.defense);
        assert_eq!(g.t_rh, a.t_rh, "{id}");
        assert_eq!(a.bit_flips, g.bit_flips, "{id}: bit_flips");
        assert_eq!(a.baseline_bit_flips, g.baseline_bit_flips, "{id}: baseline_bit_flips");
        assert_eq!(a.max_disturbance, g.max_disturbance, "{id}: max_disturbance");
        assert_eq!(a.slowdown.to_bits(), g.slowdown.to_bits(), "{id}: slowdown");
        assert_eq!(a.throttled_acts, g.throttled_acts, "{id}: throttled_acts");
    }
}
