//! The reference counter table: the linear-scan executable specification.
//!
//! [`LinearCounterTable`] is the original, hardware-shaped implementation of
//! the Graphene counter table: every activation scans the entry array once
//! for the address match and (on a miss) once for the spillover-count match
//! — exactly what the Address CAM and Count CAM do in parallel in silicon,
//! executed serially in software. Keep it boring: its value is that it is
//! obviously equal to Figure 5's pseudo-code. The differential property
//! test (`tests/indexed_differential.rs`) drives it and the production
//! [`CounterTable`](crate::table::CounterTable) with identical streams —
//! including count wraps, overflow pinning, replacement ties, and
//! `corrupt_*` fault injection — and requires identical [`TableUpdate`]
//! sequences, estimates, spillover counts, and [`CamStats`].

use dram_model::geometry::RowId;

use crate::cam::CamStats;
use crate::table::TableUpdate;

/// One reference-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    addr: Option<RowId>,
    low: u64,
    overflow: bool,
    crossings: u64,
}

impl Entry {
    const EMPTY: Entry = Entry { addr: None, low: 0, overflow: false, crossings: 0 };

    fn estimate(&self, t: u64) -> u64 {
        self.crossings * t + self.low
    }
}

/// Linear-scan twin of [`CounterTable`](crate::table::CounterTable).
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use graphene_core::reference::LinearCounterTable;
///
/// let mut table = LinearCounterTable::new(3, 5);
/// for _ in 0..4 {
///     assert!(!table.process_activation(RowId(7)).triggered());
/// }
/// assert!(table.process_activation(RowId(7)).triggered());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearCounterTable {
    entries: Vec<Entry>,
    spillover: u64,
    tracking_threshold: u64,
    acts_since_reset: u64,
    stats: CamStats,
}

impl LinearCounterTable {
    /// Creates a table with `n_entry` entries and tracking threshold `t`.
    ///
    /// # Panics
    ///
    /// Panics if `n_entry == 0` or `t == 0`.
    pub fn new(n_entry: usize, t: u64) -> Self {
        assert!(n_entry > 0, "table must have at least one entry");
        assert!(t > 0, "tracking threshold must be positive");
        LinearCounterTable {
            entries: vec![Entry::EMPTY; n_entry],
            spillover: 0,
            tracking_threshold: t,
            acts_since_reset: 0,
            stats: CamStats::default(),
        }
    }

    /// Tracking threshold `T`.
    pub fn tracking_threshold(&self) -> u64 {
        self.tracking_threshold
    }

    /// Number of entries (fixed at construction).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Current spillover count.
    pub fn spillover(&self) -> u64 {
        self.spillover
    }

    /// Activations processed since the last reset.
    pub fn acts_since_reset(&self) -> u64 {
        self.acts_since_reset
    }

    /// CAM access counters.
    pub fn cam_stats(&self) -> &CamStats {
        &self.stats
    }

    /// Estimated count of `row`, or `None` if untracked (linear scan).
    pub fn estimate(&self, row: RowId) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.addr == Some(row))
            .map(|e| e.estimate(self.tracking_threshold))
    }

    /// True if `row` currently occupies a table entry (linear scan).
    pub fn is_tracked(&self, row: RowId) -> bool {
        self.entries.iter().any(|e| e.addr == Some(row))
    }

    /// Iterator over occupied entries as `(row, estimated count, overflow)`.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, u64, bool)> + '_ {
        let t = self.tracking_threshold;
        self.entries.iter().filter_map(move |e| e.addr.map(|a| (a, e.estimate(t), e.overflow)))
    }

    /// Processes one activation, following Figure 5's pseudo-code with the
    /// original linear scans.
    pub fn process_activation(&mut self, row: RowId) -> TableUpdate {
        self.acts_since_reset += 1;
        // Line 3: one Address-CAM search per ACT.
        self.stats.addr_searches += 1;

        if let Some(i) = self.entries.iter().position(|e| e.addr == Some(row)) {
            // Row address HIT (lines 4-6): increment count, one Count-CAM write.
            self.stats.count_writes += 1;
            return TableUpdate::Hit { triggered: self.bump(i) };
        }

        // Row address MISS: one Count-CAM search for spillover match (line 9).
        self.stats.count_searches += 1;
        // Only non-overflowed entries can match (Lemma 2 keeps an overflowed
        // entry's estimate strictly above the spillover count).
        if let Some(i) = self.entries.iter().position(|e| !e.overflow && e.low == self.spillover) {
            // Entry replace (lines 10-13): simultaneous addr + count writes.
            self.stats.addr_writes += 1;
            self.stats.count_writes += 1;
            let evicted = self.entries[i].addr;
            self.entries[i].addr = Some(row);
            self.entries[i].low = self.spillover;
            let triggered = self.bump(i);
            TableUpdate::Replaced { evicted, triggered }
        } else {
            // No replacement (lines 15-16).
            self.stats.spillover_increments += 1;
            self.spillover += 1;
            TableUpdate::SpilloverIncremented
        }
    }

    /// Resets the table and the spillover register (end of a reset window).
    pub fn reset(&mut self) {
        self.entries.fill(Entry::EMPTY);
        self.spillover = 0;
        self.acts_since_reset = 0;
    }

    /// Increments entry `i`'s count, wrapping at `T`; returns whether the
    /// wrap (NRR trigger) occurred.
    fn bump(&mut self, i: usize) -> bool {
        let e = &mut self.entries[i];
        e.low += 1;
        if e.low == self.tracking_threshold {
            e.low = 0;
            e.overflow = true;
            e.crossings += 1;
            true
        } else {
            false
        }
    }

    // ---- Fault-injection twins --------------------------------------------
    //
    // The same soft-error mutations the production table models, minus the
    // parity bookkeeping (this reference specifies *lookup* behavior, not
    // the detection machinery). The differential test injects identical
    // faults into both implementations and requires identical streams
    // afterwards.

    /// Flips bit `bit` of the count field of entry `slot` (both reduced
    /// modulo the respective widths), mirroring
    /// [`CounterTable::corrupt_count_bit`](crate::CounterTable::corrupt_count_bit).
    pub fn corrupt_count_bit(&mut self, slot: usize, bit: u32) -> bool {
        let i = slot % self.entries.len();
        let width = (64 - (self.tracking_threshold - 1).leading_zeros()).max(1);
        self.entries[i].low ^= 1u64 << (bit % width);
        true
    }

    /// Flips bit `bit % 32` of the address field of entry `slot`; no-op on
    /// an invalid entry.
    pub fn corrupt_addr_bit(&mut self, slot: usize, bit: u32) -> bool {
        let i = slot % self.entries.len();
        let Some(old) = self.entries[i].addr else {
            return false;
        };
        self.entries[i].addr = Some(RowId(old.0 ^ (1 << (bit % 32))));
        true
    }

    /// Flips bit `bit % 32` of the spillover register.
    pub fn corrupt_spillover_bit(&mut self, bit: u32) -> bool {
        self.spillover ^= 1u64 << (bit % 32);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_figure_2_walkthrough() {
        let mut t = LinearCounterTable::new(3, 1000);
        for _ in 0..5 {
            t.process_activation(RowId(0x1010));
        }
        for _ in 0..7 {
            t.process_activation(RowId(0x2020));
        }
        for _ in 0..3 {
            t.process_activation(RowId(0x3030));
        }
        t.process_activation(RowId(0xAAAA));
        t.process_activation(RowId(0xBBBB));
        assert_eq!(t.spillover(), 2);
        assert_eq!(t.process_activation(RowId(0x1010)), TableUpdate::Hit { triggered: false });
        assert_eq!(t.estimate(RowId(0x1010)), Some(6));
        assert_eq!(t.process_activation(RowId(0x4040)), TableUpdate::SpilloverIncremented);
        let u = t.process_activation(RowId(0x5050));
        assert_eq!(u, TableUpdate::Replaced { evicted: Some(RowId(0x3030)), triggered: false });
        assert_eq!(t.estimate(RowId(0x5050)), Some(4));
        assert!(!t.is_tracked(RowId(0x3030)));
    }

    #[test]
    fn overflow_pins_entry() {
        let mut t = LinearCounterTable::new(1, 5);
        for _ in 0..5 {
            t.process_activation(RowId(9));
        }
        for i in 0..50u32 {
            assert_eq!(t.process_activation(RowId(1000 + i)), TableUpdate::SpilloverIncremented);
        }
        assert_eq!(t.estimate(RowId(9)), Some(5));
    }
}
