//! Differential property tests: the production [`CounterTable`] (slot
//! index, probe lane, probe cursor) against the linear-scan reference
//! [`LinearCounterTable`].
//!
//! Both implementations are driven with identical activation streams —
//! deliberately skewed to exercise count wraps (overflow bits), replacement
//! ties among equal-count entries, spillover growth, mid-stream resets, and
//! injected storage faults — and must produce identical [`TableUpdate`]
//! sequences, estimates, spillover counts, and [`CamStats`]. This is the
//! executable proof that the slot index and the probe cursor are pure
//! acceleration with no observable effect.
//!
//! Address-bit faults reach every bit of the field, and one suite confines
//! rows and flipped bits to a tiny universe so corrupted keys keep colliding
//! with live rows: two slots then hold one address, and both tables must
//! answer with the lower slot, like the CAM's priority encoder.
//! `suppress_next_lookup` is exercised in the unit suites only: it exists on
//! the production table alone (the reference models stored bits, not
//! transient compare-line glitches).

use dram_model::RowId;
use graphene_core::reference::LinearCounterTable;
use graphene_core::CounterTable;
use proptest::prelude::*;

/// Locksteps both tables over `stream`, asserting identical observables
/// at every step, and returns the production table for end-state checks.
fn lockstep(capacity: usize, t: u64, stream: &[u32]) -> Result<CounterTable, TestCaseError> {
    let mut soa = CounterTable::new(capacity, t);
    let mut linear = LinearCounterTable::new(capacity, t);
    for (step, &x) in stream.iter().enumerate() {
        let row = RowId(x);
        let a = soa.process_activation(row);
        let c = linear.process_activation(row);
        prop_assert_eq!(a, c, "soa/linear diverged at step {} (row {})", step, x);
        prop_assert_eq!(
            soa.estimate(row),
            linear.estimate(row),
            "estimate diverged at step {}",
            step
        );
        prop_assert_eq!(soa.spillover(), linear.spillover(), "spillover at step {}", step);
    }
    prop_assert_eq!(soa.cam_stats(), linear.cam_stats());
    prop_assert_eq!(soa.acts_since_reset(), linear.acts_since_reset());
    prop_assert_eq!(sorted(soa.iter()), sorted(linear.iter()), "soa/linear tracked sets differ");
    soa.assert_index_consistency();
    Ok(soa)
}

/// A table's tracked `(row, estimate, overflow)` triples, sorted
/// (duplicates kept).
fn sorted(entries: impl Iterator<Item = (RowId, u64, bool)>) -> Vec<(RowId, u64, bool)> {
    let mut v: Vec<_> = entries.collect();
    v.sort_unstable();
    v
}

/// One step of a fault-injected differential stream: either a normal
/// activation or a storage-corruption hook applied identically to both
/// implementations.
#[derive(Debug, Clone, Copy)]
enum FaultedOp {
    Act(u32),
    CorruptCount { slot: usize, bit: u32 },
    CorruptAddr { slot: usize, bit: u32 },
    CorruptSpillover { bit: u32 },
}

/// Decodes a raw generated tuple into an op, flipping address bits below
/// `addr_bits` and spillover bits below `spill_bits`. Roughly 8 activations for every corruption, so the stream
/// exercises both steady-state lockstep and behaviour right after a fault.
fn decode_op(
    (sel, row, slot, bit): (u32, u32, u32, u32),
    addr_bits: u32,
    spill_bits: u32,
) -> FaultedOp {
    let slot = slot as usize;
    match sel {
        0..=7 => FaultedOp::Act(row),
        8 => FaultedOp::CorruptCount { slot, bit: bit % 40 },
        9 => FaultedOp::CorruptAddr { slot, bit: bit % addr_bits },
        _ => FaultedOp::CorruptSpillover { bit: bit % spill_bits },
    }
}

/// Storage corruption applied identically to both tables leaves them
/// observably identical: the corrupted-count wrap semantics, the moved CAM
/// keys (including keys that collide with live rows), and the
/// inflated/deflated spillover register all follow the same fixed-width
/// register model, and the slot index and probe cursor track the corrupted
/// state exactly — checked after every step.
fn lockstep_faulted(
    capacity: usize,
    t: u64,
    warmup: &[u32],
    ops: &[FaultedOp],
) -> Result<(), TestCaseError> {
    let mut soa = CounterTable::new(capacity, t);
    let mut linear = LinearCounterTable::new(capacity, t);
    for &x in warmup {
        prop_assert_eq!(soa.process_activation(RowId(x)), linear.process_activation(RowId(x)));
    }
    for (step, &op) in ops.iter().enumerate() {
        match op {
            FaultedOp::Act(x) => {
                let row = RowId(x);
                let a = soa.process_activation(row);
                let c = linear.process_activation(row);
                prop_assert_eq!(a, c, "soa/linear diverged at step {}", step);
                prop_assert_eq!(soa.estimate(row), linear.estimate(row));
            }
            FaultedOp::CorruptCount { slot, bit } => {
                prop_assert_eq!(
                    soa.corrupt_count_bit(slot, bit),
                    linear.corrupt_count_bit(slot, bit)
                );
            }
            FaultedOp::CorruptAddr { slot, bit } => {
                prop_assert_eq!(
                    soa.corrupt_addr_bit(slot, bit),
                    linear.corrupt_addr_bit(slot, bit)
                );
            }
            FaultedOp::CorruptSpillover { bit } => {
                prop_assert_eq!(soa.corrupt_spillover_bit(bit), linear.corrupt_spillover_bit(bit));
            }
        }
        prop_assert_eq!(soa.spillover(), linear.spillover(), "spillover at step {}", step);
        soa.assert_index_consistency();
    }
    prop_assert_eq!(soa.cam_stats(), linear.cam_stats());
    prop_assert_eq!(sorted(soa.iter()), sorted(linear.iter()), "soa/linear tracked sets differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary streams over a small row universe: heavy on hits,
    /// replacements, and spillover matches.
    #[test]
    fn identical_on_dense_streams(
        stream in prop::collection::vec(0u32..40, 1..3000),
        capacity in 1usize..24,
        t in 2u64..50,
    ) {
        lockstep(capacity, t, &stream)?;
    }

    /// Wide row universe: mostly misses, so the spillover-match search (and
    /// its lowest-slot-index tie-break) decides almost every step.
    #[test]
    fn identical_on_sparse_streams(
        stream in prop::collection::vec(0u32..100_000, 1..2000),
        capacity in 1usize..12,
        t in 2u64..20,
    ) {
        lockstep(capacity, t, &stream)?;
    }

    /// Tiny thresholds force frequent wraps: overflow bits set early and the
    /// non-evictable mask dominates the count search.
    #[test]
    fn identical_under_heavy_wrapping(
        hot in prop::collection::vec(0u32..4, 1..1500),
        cold in prop::collection::vec(4u32..2000, 0..500),
        capacity in 1usize..8,
        t in 2u64..6,
    ) {
        // Interleave hot hammering with cold misses.
        let mut stream = Vec::with_capacity(hot.len() + cold.len());
        let mut c = cold.iter();
        for (i, &h) in hot.iter().enumerate() {
            stream.push(h);
            if i % 3 == 0 {
                if let Some(&x) = c.next() {
                    stream.push(x);
                }
            }
        }
        stream.extend(c);
        lockstep(capacity, t, &stream)?;
    }

    /// Resets anywhere in the stream leave both implementations in an
    /// identical state, including the rebuilt acceleration structures.
    #[test]
    fn identical_across_resets(
        prefix in prop::collection::vec(0u32..30, 0..1000),
        suffix in prop::collection::vec(0u32..30, 0..1000),
        capacity in 1usize..16,
        t in 2u64..40,
    ) {
        let mut soa = CounterTable::new(capacity, t);
        let mut linear = LinearCounterTable::new(capacity, t);
        for &x in &prefix {
            prop_assert_eq!(soa.process_activation(RowId(x)), linear.process_activation(RowId(x)));
        }
        soa.reset();
        linear.reset();
        soa.assert_index_consistency();
        for (step, &x) in suffix.iter().enumerate() {
            let a = soa.process_activation(RowId(x));
            let c = linear.process_activation(RowId(x));
            prop_assert_eq!(a, c, "post-reset soa/linear divergence at step {}", step);
        }
        prop_assert_eq!(soa.spillover(), linear.spillover());
        prop_assert_eq!(soa.cam_stats(), linear.cam_stats());
        soa.assert_index_consistency();
    }

    /// Faults over a 200-row universe, address flips anywhere in the
    /// 32-bit field: low bits move a key onto another live row, high bits
    /// move it out of the universe.
    #[test]
    fn identical_under_fault_injection(
        warmup in prop::collection::vec(0u32..200, 0..400),
        raw_ops in prop::collection::vec((0u32..11, 0u32..200, 0u32..64, 0u32..64), 1..600),
        capacity in 1usize..24,
        t in 2u64..50,
    ) {
        let ops: Vec<FaultedOp> = raw_ops.into_iter().map(|op| decode_op(op, 32, 32)).collect();
        lockstep_faulted(capacity, t, &warmup, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Rows below 32, address flips in bits 0..5 and spillover flips in
    /// bits 0..4: every corrupted key is another row of the stream and the
    /// spillover stays near the live counts, so duplicate addresses and
    /// counts sitting below the spillover are the common case rather than
    /// the corner.
    #[test]
    fn identical_under_colliding_address_faults(
        warmup in prop::collection::vec(0u32..32, 0..100),
        raw_ops in prop::collection::vec((0u32..11, 0u32..32, 0u32..16, 0u32..64), 1..300),
        capacity in 1usize..8,
        t in 2u64..12,
    ) {
        let ops: Vec<FaultedOp> = raw_ops.into_iter().map(|op| decode_op(op, 5, 4)).collect();
        lockstep_faulted(capacity, t, &warmup, &ops)?;
    }
}

/// Deterministic stress: a long adversarial mix (hammer bursts, distinct-row
/// floods, revisits) at Graphene-like sizing, checked step by step.
#[test]
fn long_adversarial_stream_stays_identical() {
    let capacity = 81;
    let t = 200;
    let mut soa = CounterTable::new(capacity, t);
    let mut linear = LinearCounterTable::new(capacity, t);
    let mut x: u64 = 0x0DDB_1A5E_5BAD_5EED;
    for step in 0..200_000u64 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let row = match r % 10 {
            // Hammer a small hot set hard enough to wrap repeatedly.
            0..=4 => RowId((r >> 32) as u32 % 8),
            // Medium working set: replacement churn at equal counts.
            5..=7 => RowId(100 + (r >> 32) as u32 % 200),
            // Distinct-row flood: spillover pressure.
            _ => RowId(10_000 + (step as u32)),
        };
        assert_eq!(
            soa.process_activation(row),
            linear.process_activation(row),
            "soa/linear diverged at step {step}"
        );
        if step % 20_000 == 0 {
            assert_eq!(soa.cam_stats(), linear.cam_stats());
            soa.assert_index_consistency();
        }
    }
    assert_eq!(soa.spillover(), linear.spillover());
    assert_eq!(soa.cam_stats(), linear.cam_stats());
    assert_eq!(sorted(soa.iter()), sorted(linear.iter()));
    soa.assert_index_consistency();
}
