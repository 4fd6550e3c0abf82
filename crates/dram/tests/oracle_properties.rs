//! Property-based tests of the ground-truth fault oracle and the
//! auto-refresh rotation — the referee every defense claim rests on.

use dram_model::fault::{DisturbanceModel, FaultOracle, MuModel};
use dram_model::geometry::RowId;
use dram_model::refresh::RefreshEngine;
use dram_model::timing::DramTiming;
use proptest::prelude::*;

const ROWS: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Disturbance accounting is exact: after any ACT/refresh interleaving,
    /// a row's accumulated disturbance equals the μ-weighted count of
    /// disturbing ACTs since its last refresh. At low thresholds rows flip
    /// along the way: the count must keep growing past the flip, each flip
    /// must be reported exactly once until a refresh re-arms the row, and
    /// the flipped state must never leak into `max_disturbance` or
    /// `hottest_victim`.
    #[test]
    fn disturbance_matches_shadow_accounting(
        ops in prop::collection::vec((0u32..ROWS, prop::bool::ANY), 1..500),
        radius in 1u32..4,
        low_threshold in prop::bool::ANY,
        small_t_rh in 1u64..12,
        span in 8u32..ROWS,
    ) {
        let mu = MuModel::InverseSquare { radius };
        // Low thresholds also crowd the ops onto `span` rows, so rows cross
        // T_RH, keep accumulating, and get refreshed and re-armed.
        let (t_rh, span) = if low_threshold { (small_t_rh, span) } else { (1_000_000, ROWS) };
        let model = DisturbanceModel { t_rh, mu: mu.clone() };
        let mut oracle = FaultOracle::new(model, ROWS);
        // Shadow state in the oracle's 2^-16 sub-units, so threshold
        // crossings compare exactly.
        let scale = 65_536.0;
        let threshold = t_rh * 65_536;
        let mut shadow = vec![0u64; ROWS as usize];
        let mut flipped = vec![false; ROWS as usize];
        let mut reported = 0usize;
        for (i, &(row, is_refresh)) in ops.iter().enumerate() {
            let row = row % span;
            if is_refresh {
                oracle.refresh_row(RowId(row));
                shadow[row as usize] = 0;
                flipped[row as usize] = false;
                continue;
            }
            let mut got: Vec<u32> = oracle.activate(RowId(row), i as u64).iter().map(|f| f.row.0).collect();
            let mut expected = Vec::new();
            for d in 1..=radius {
                let c = (mu.coefficient(d) * scale).round() as u64;
                for victim in [row.checked_sub(d), Some(row + d).filter(|&v| v < ROWS)].into_iter().flatten() {
                    let v = victim as usize;
                    shadow[v] += c;
                    if shadow[v] >= threshold && !flipped[v] {
                        flipped[v] = true;
                        expected.push(victim);
                    }
                }
            }
            got.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "new flips at op {}", i);
            reported += expected.len();
        }
        prop_assert_eq!(oracle.flips().len(), reported);
        for r in 0..ROWS {
            let got = oracle.disturbance_of(RowId(r));
            let want = shadow[r as usize] as f64 / scale;
            prop_assert!(got == want, "row {r}: oracle {got} vs shadow {want}");
        }
        let max = *shadow.iter().max().expect("bank has rows") as f64 / scale;
        prop_assert_eq!(oracle.max_disturbance(), max);
        let (hottest, value) = oracle.hottest_victim();
        prop_assert_eq!(value, max);
        prop_assert_eq!(shadow[hottest.0 as usize] as f64 / scale, max);
    }

    /// A flip occurs if and only if some row's μ-weighted disturbance since
    /// its last refresh reaches T_RH.
    #[test]
    fn flips_iff_threshold_reached(
        acts in prop::collection::vec(2u32..ROWS - 2, 50..400),
        t_rh in 5u64..50,
    ) {
        let model = DisturbanceModel { t_rh, mu: MuModel::Adjacent };
        let mut oracle = FaultOracle::new(model, ROWS);
        let mut counts = vec![0u64; ROWS as usize];
        let mut expected_flips = 0u64;
        for (i, &row) in acts.iter().enumerate() {
            oracle.activate(RowId(row), i as u64);
            for v in [row - 1, row + 1] {
                counts[v as usize] += 1;
                if counts[v as usize] == t_rh {
                    expected_flips += 1;
                }
            }
        }
        prop_assert_eq!(oracle.flips().len() as u64, expected_flips);
    }

    /// The refresh rotation refreshes every row at least once per window no
    /// matter how time advances (bursty catch-ups included).
    #[test]
    fn rotation_covers_bank_under_arbitrary_jumps(
        jumps in prop::collection::vec(1u64..20, 1..50),
    ) {
        let t = DramTiming::ddr4_2400();
        let mut eng = RefreshEngine::new(&t, ROWS);
        let mut seen = vec![0u32; ROWS as usize];
        let mut now = 0u64;
        // Total time advanced: one full window, delivered in random chunks.
        let total: u64 = jumps.iter().sum();
        for j in &jumps {
            now += j * t.t_refw / total;
            for r in eng.catch_up(now) {
                seen[r.0 as usize] += 1;
            }
        }
        // Let the final partial interval complete.
        for r in eng.catch_up(t.t_refw) {
            seen[r.0 as usize] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c >= 1), "rows missed in a full window");
    }

    /// Refreshing a row strictly resets its flip potential: a refreshed row
    /// needs the full T_RH again.
    #[test]
    fn refresh_restores_full_budget(row in 2u32..ROWS - 2, t_rh in 3u64..30) {
        let model = DisturbanceModel { t_rh, mu: MuModel::Adjacent };
        let mut oracle = FaultOracle::new(model, ROWS);
        for i in 0..(t_rh - 1) {
            oracle.activate(RowId(row), i);
        }
        oracle.refresh_row(RowId(row - 1));
        oracle.refresh_row(RowId(row + 1));
        for i in 0..(t_rh - 1) {
            prop_assert!(oracle.activate(RowId(row), t_rh + i).is_empty());
        }
        prop_assert!(!oracle.activate(RowId(row), 3 * t_rh).is_empty());
    }
}

#[test]
fn oracle_is_deterministic() {
    let model = DisturbanceModel { t_rh: 10, mu: MuModel::InverseSquare { radius: 2 } };
    let run = || {
        let mut o = FaultOracle::new(model.clone(), ROWS);
        for i in 0..200u64 {
            o.activate(RowId((i * 7 % 200 + 10) as u32), i);
        }
        o.flips().to_vec()
    };
    assert_eq!(run(), run());
}
