//! The tracker arena and the generation matrix are two lineups scored over
//! the same sweep axes: over one DDR4 point, every arena cell must equal
//! the matching generation-matrix cell counter for counter.

use dram_model::Generation;
use rh_sim::{run_arena, run_generation_matrix, MatrixAxes, WorkloadSpec};

#[test]
fn arena_cells_equal_the_ddr4_generation_cells() {
    let axes = MatrixAxes {
        points: vec![(Generation::Ddr4_2400, 1_560)],
        workloads: vec![WorkloadSpec::S3, WorkloadSpec::SameRowAllBanks { banks: 4 }],
        accesses: 20_000,
        ..MatrixAxes::arena_smoke()
    };
    let arena = run_arena(&axes);
    let generations = run_generation_matrix(&axes);
    assert_eq!(arena.len(), 2 * 4, "two workloads x four trackers");
    assert_eq!(generations.len(), 2 * 6, "two workloads x six lineup entries");
    for a in &arena {
        let g = generations
            .iter()
            .find(|g| g.workload == a.workload && g.defense == a.defense)
            .unwrap_or_else(|| panic!("no generation cell for {}/{}", a.workload, a.defense));
        let id = format!("{}/{}", a.workload, a.defense);
        assert_eq!(g.t_rh, a.t_rh, "{id}");
        assert_eq!(a.spec, g.spec, "{id}: DDR4 specs stay bare on both sides");
        assert_eq!(a.bit_flips, g.bit_flips, "{id}: bit_flips");
        assert_eq!(a.baseline_bit_flips, g.baseline_bit_flips, "{id}: baseline_bit_flips");
        assert_eq!(a.max_disturbance, g.max_disturbance, "{id}: max_disturbance");
        assert_eq!(a.slowdown.to_bits(), g.slowdown.to_bits(), "{id}: slowdown");
        assert_eq!(a.throttled_acts, g.throttled_acts, "{id}: throttled_acts");
    }
}
