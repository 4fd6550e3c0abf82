//! Generated inputs: the seeded generators, and a bit-packed in-memory form
//! that keeps the timed phase's resident input small next to simulator state.
//!
//! A `Vec<Access>` costs 16 B per access, which at 4M accesses would swamp
//! the fault oracle's footprint in `peak_rss_mb`. [`PackedTrace`] stores each
//! access in only as many bits as the largest bank, row, gap and stream of
//! the input need: 22 bits for `hammer`, 42 or 43 for `spec-mix`. The first
//! access is kept whole because it carries the input's lead-in gap.

use std::io::{self, Read};
use std::path::Path;
use std::time::{Duration, Instant};

use rh_sim::WorkloadSpec;
use workloads::{Access, Workload};

use crate::suite::{Sizes, Workload as Bench};

const MAGIC: &[u8; 8] = b"PBPACK01";
/// Magic, first access (2 + 4 + 8 + 2 bytes), layout (4 bytes), count (8 bytes).
const HEADER_LEN: usize = 8 + 16 + 4 + 8;
/// Accesses generated between two reads of the clock in [`generate`].
const GENERATE_BLOCK: usize = 4_096;

/// Bits per field of one packed access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    bank: u32,
    row: u32,
    gap: u32,
    stream: u32,
}

impl Layout {
    fn of(accesses: &[Access]) -> Layout {
        let bits = |max: u64| u64::BITS - max.leading_zeros();
        let max = |f: fn(&Access) -> u64| accesses.iter().map(f).max().unwrap_or(0);
        Layout {
            bank: bits(max(|a| u64::from(a.bank))),
            row: bits(max(|a| u64::from(a.row.0))),
            gap: bits(max(|a| a.gap)),
            stream: bits(max(|a| u64::from(a.stream))),
        }
    }

    fn width(self) -> u32 {
        self.bank + self.row + self.gap + self.stream
    }
}

/// Words holding `accesses` packed accesses of `width` bits, plus a spare
/// word so that every read can span two words.
fn word_count(accesses: u64, width: u32) -> Option<u64> {
    Some(accesses.checked_mul(u64::from(width))? / 64 + 2)
}

fn mask(bits: u32) -> u128 {
    (1u128 << bits) - 1
}

/// A read-only sequence of accesses, bit-packed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTrace {
    first: Access,
    layout: Layout,
    /// Accesses after `first`.
    rest: usize,
    /// Packed fields; see [`word_count`].
    words: Vec<u64>,
}

impl PackedTrace {
    /// Packs `accesses`, or returns `None` when there are none or one access
    /// would need more than 64 bits.
    pub fn pack(accesses: &[Access]) -> Option<PackedTrace> {
        let (&first, rest) = accesses.split_first()?;
        let layout = Layout::of(rest);
        let width = layout.width();
        if width > 64 {
            return None;
        }
        let words = word_count(rest.len() as u64, width).and_then(|w| usize::try_from(w).ok())?;
        let mut words = vec![0u64; words];
        for (i, a) in rest.iter().enumerate() {
            let value = u128::from(a.bank)
                | u128::from(a.row.0) << layout.bank
                | u128::from(a.gap) << (layout.bank + layout.row)
                | u128::from(a.stream) << (layout.bank + layout.row + layout.gap);
            let pos = i * width as usize;
            let shifted = value << (pos % 64);
            words[pos / 64] |= shifted as u64;
            words[pos / 64 + 1] |= (shifted >> 64) as u64;
        }
        Some(PackedTrace { first, layout, rest: rest.len(), words })
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.rest + 1
    }

    /// Always false: a packed trace holds at least one access.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Resident bytes of the packed accesses.
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * 8 + std::mem::size_of::<PackedTrace>()
    }

    /// Bits one packed access takes.
    pub fn bits_per_access(&self) -> u32 {
        self.layout.width()
    }

    /// The `i`-th access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> Access {
        if i == 0 {
            return self.first;
        }
        assert!(i <= self.rest, "access {i} of a {}-access trace", self.len());
        let l = self.layout;
        let pos = (i - 1) * l.width() as usize;
        let window = u128::from(self.words[pos / 64]) | u128::from(self.words[pos / 64 + 1]) << 64;
        let v = window >> (pos % 64);
        let field = |shift: u32, bits: u32| (v >> shift) & mask(bits);
        Access {
            bank: field(0, l.bank) as u16,
            row: dram_model::RowId(field(l.bank, l.row) as u32),
            gap: field(l.bank + l.row, l.gap) as u64,
            stream: field(l.bank + l.row + l.gap, l.stream) as u16,
        }
    }

    /// A [`Workload`] yielding the accesses in order.
    pub fn replay(&self) -> Replay<'_> {
        Replay { trace: self, next: 0 }
    }

    /// Serializes the trace: a header (magic, the first access, the layout,
    /// the access count) followed by the packed words, little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.words.len() * 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.first.bank.to_le_bytes());
        out.extend_from_slice(&self.first.row.0.to_le_bytes());
        out.extend_from_slice(&self.first.gap.to_le_bytes());
        out.extend_from_slice(&self.first.stream.to_le_bytes());
        let l = self.layout;
        out.extend([l.bank, l.row, l.gap, l.stream].map(|b| b as u8));
        out.extend_from_slice(&(self.rest as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Reads [`to_bytes`](Self::to_bytes) output of `total_len` bytes from
    /// `r`, allocating only the packed words, once.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the magic, layout or length do not fit together
    /// or with `total_len`; read errors from `r`.
    pub fn read_from(mut r: impl Read, total_len: u64) -> io::Result<PackedTrace> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let (magic, h) = header.split_at(MAGIC.len());
        if magic != MAGIC {
            return Err(bad("not a packed trace"));
        }
        let bytes = |at: usize, len: usize| &h[at..at + len];
        let first = Access {
            bank: u16::from_le_bytes(bytes(0, 2).try_into().expect("2 bytes")),
            row: dram_model::RowId(u32::from_le_bytes(bytes(2, 4).try_into().expect("4 bytes"))),
            gap: u64::from_le_bytes(bytes(6, 8).try_into().expect("8 bytes")),
            stream: u16::from_le_bytes(bytes(14, 2).try_into().expect("2 bytes")),
        };
        let [bank, row, gap, stream] = [h[16], h[17], h[18], h[19]].map(u32::from);
        let layout = Layout { bank, row, gap, stream };
        if layout.width() > 64 {
            return Err(bad("packed access wider than 64 bits"));
        }
        let rest = u64::from_le_bytes(bytes(20, 8).try_into().expect("8 bytes"));
        let words_len = word_count(rest, layout.width())
            .filter(|w| {
                w.checked_mul(8).and_then(|b| b.checked_add(HEADER_LEN as u64)) == Some(total_len)
            })
            .ok_or_else(|| bad("packed words do not match the stated length"))?;
        let rest = usize::try_from(rest).map_err(|_| bad("trace too long"))?;
        let words_len = usize::try_from(words_len).map_err(|_| bad("trace too long"))?;
        let mut words = Vec::with_capacity(words_len);
        let mut word = [0u8; 8];
        for _ in 0..words_len {
            r.read_exact(&mut word)?;
            words.push(u64::from_le_bytes(word));
        }
        Ok(PackedTrace { first, layout, rest, words })
    }

    /// Writes the trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Loads a trace written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and [`read_from`](Self::read_from)'s refusals.
    pub fn load(path: &Path) -> io::Result<PackedTrace> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        PackedTrace::read_from(io::BufReader::new(file), len)
    }
}

/// Replays a [`PackedTrace`] front to back.
#[derive(Debug)]
pub struct Replay<'a> {
    trace: &'a PackedTrace,
    next: usize,
}

impl Workload for Replay<'_> {
    fn name(&self) -> String {
        "packed-replay".to_owned()
    }

    /// # Panics
    ///
    /// Panics when called more often than the trace has accesses.
    fn next_access(&mut self) -> Access {
        let a = self.trace.get(self.next);
        self.next += 1;
        a
    }
}

/// SplitMix64: spreads a seed over 64 bits.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the input of `hammer` or `spec-mix` from `seed`, returning it
/// with the time spent inside the generator.
///
/// `hammer` is the 8-sided attack striped over every bank, its victim row
/// chosen by the seed, and its first access arriving at a seeded phase of
/// the refresh interval. `spec-mix` is the `mix-high` mix of 16 seeded
/// SPEC-like cores.
///
/// # Panics
///
/// Panics for [`Bench::Fleet`], whose input is a trace file made by
/// `rh_sim::synth_fleet_trace`.
pub fn generate(workload: Bench, sizes: &Sizes, seed: u64) -> (Vec<Access>, Duration) {
    let config = workload.mc_config(false);
    let g = config.geometry;
    let banks = g.total_banks() as u16;
    let spec = match workload {
        Bench::Hammer => WorkloadSpec::StripedManySided { sides: 8, banks },
        Bench::SpecMix => WorkloadSpec::MixHigh,
        Bench::Fleet => panic!("the fleet input is a trace file, not a generated sequence"),
    };
    let n = workload.accesses(sizes) as usize;
    let mut source = spec.build(banks, g.rows_per_bank, seed);
    let mut accesses = Vec::with_capacity(n);
    let mut spent = Duration::ZERO;
    while accesses.len() < n {
        let block = GENERATE_BLOCK.min(n - accesses.len());
        let start = Instant::now();
        accesses.extend((0..block).map(|_| source.next_access()));
        spent += start.elapsed();
    }
    if workload == Bench::Hammer {
        if let Some(first) = accesses.first_mut() {
            first.gap += splitmix64(seed) % config.timing.t_refi;
        }
    }
    (accesses, spent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::RowId;

    fn access(bank: u16, row: u32, gap: u64, stream: u16) -> Access {
        Access { bank, row: RowId(row), gap, stream }
    }

    #[test]
    fn packing_round_trips_every_field() {
        let accesses: Vec<Access> = (0..1_000u64)
            .map(|i| {
                access(
                    (i % 64) as u16,
                    (i * 7_919 % 65_536) as u32,
                    i * i % 60_000,
                    (i % 16) as u16,
                )
            })
            .collect();
        let packed = PackedTrace::pack(&accesses).expect("fits 64 bits");
        assert_eq!(packed.bits_per_access(), 6 + 16 + 16 + 4);
        assert_eq!((0..packed.len()).map(|i| packed.get(i)).collect::<Vec<_>>(), accesses);
        let bytes = packed.to_bytes();
        let reread = PackedTrace::read_from(&bytes[..], bytes.len() as u64).expect("well formed");
        assert_eq!(reread, packed);
    }

    #[test]
    fn constant_fields_take_no_bits() {
        let accesses = vec![access(3, 9, 5_000_000, 0), access(0, 0, 0, 0), access(0, 0, 0, 0)];
        let packed = PackedTrace::pack(&accesses).expect("fits");
        assert_eq!(packed.bits_per_access(), 0);
        assert_eq!((0..3).map(|i| packed.get(i)).collect::<Vec<_>>(), accesses);
    }

    #[test]
    fn malformed_bytes_are_refused() {
        let packed = PackedTrace::pack(&[access(1, 2, 3, 0), access(4, 5, 6, 0)]).expect("fits");
        let bytes = packed.to_bytes();
        let len = bytes.len() as u64;
        assert!(PackedTrace::read_from(&bytes[..bytes.len() - 1], len - 1).is_err());
        assert!(PackedTrace::read_from(&bytes[1..], len - 1).is_err());
        assert!(PackedTrace::read_from(&bytes[..], len + 8).is_err());
        assert!(PackedTrace::pack(&[]).is_none());
    }
}
