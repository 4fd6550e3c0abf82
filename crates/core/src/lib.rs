//! # graphene-core
//!
//! The core mechanism of *Graphene: Strong yet Lightweight Row Hammer
//! Protection* (Park et al., MICRO 2020).
//!
//! Graphene sits in the memory controller and watches the stream of row
//! activations (ACTs) of each DRAM bank. It runs the Misra-Gries frequent
//! elements algorithm — in the spillover-counter formulation — over that
//! stream: a small table of (row address, estimated count) entries plus one
//! spillover count register. Whenever an entry's estimated count reaches a
//! multiple of the threshold `T`, Graphene issues a *Nearby Row Refresh*
//! (NRR) for the aggressor row, proactively restoring its ±1 (…±n)
//! neighbours before the Row Hammer threshold `T_RH` can be reached. The
//! table resets every *reset window* `tREFW / k`.
//!
//! The mechanism is provably free of false negatives: the paper's Lemma 1
//! (estimates never under-count), Lemma 2 (the spillover count is bounded by
//! `W/(N_entry+1)`), and the protection theorem (no row's actual count can
//! grow by `T` without an NRR) are all enforced and property-tested here.
//!
//! # Modules
//!
//! * [`config`] — parameter derivation from first principles: given the Row
//!   Hammer threshold, DRAM timing, reset-window divisor `k`, and the
//!   non-adjacent disturbance model, derive `T`, `W`, `N_entry` and the
//!   hardware bit budget (Inequalities 1–3 and Section IV-B of the paper).
//! * [`table`] — the hardware-faithful counter table: two CAM arrays
//!   (address, count) with the overflow-bit width optimization, exactly
//!   following the pseudo-code of Figure 5.
//! * [`mechanism`] — the per-bank [`Graphene`] engine: reset-window
//!   scheduling, activation processing, NRR generation.
//! * [`cam`] — CAM access accounting (searches and writes per ACT), the
//!   quantities the paper's energy model is expressed in.
//! * [`checked`] — a self-verifying wrapper that shadows the mechanism with
//!   exact per-row counts and asserts the paper's lemmas on every step; used
//!   by the test suite and available to downstream fuzzing.
//!
//! # Quickstart
//!
//! ```
//! use dram_model::{DramTiming, RowId};
//! use graphene_core::{Graphene, GrapheneConfig};
//!
//! # fn main() -> Result<(), graphene_core::ConfigError> {
//! // DDR4 with the 50K Row Hammer threshold reported by TRRespass.
//! let config = GrapheneConfig::builder()
//!     .row_hammer_threshold(50_000)
//!     .timing(DramTiming::ddr4_2400())
//!     .reset_window_divisor(2)
//!     .build()?;
//! let mut graphene = Graphene::from_config(&config)?;
//!
//! // Hammer one row; Graphene emits an NRR before T_RH/4 activations.
//! let mut protected = false;
//! for i in 0..10_000u64 {
//!     if let Some(nrr) = graphene.on_activation(RowId(0x1010), i * 45_000) {
//!         assert_eq!(nrr.aggressor, RowId(0x1010));
//!         protected = true;
//!         break;
//!     }
//! }
//! assert!(protected);
//! # Ok(())
//! # }
//! ```

pub mod cam;
pub mod checked;
pub mod config;
pub mod mechanism;
pub mod multi;
pub mod reference;
pub mod table;

pub use cam::CamStats;
pub use checked::CheckedGraphene;
pub use config::{ConfigError, GrapheneConfig, GrapheneConfigBuilder, GrapheneParams};
pub use mechanism::{Graphene, GrapheneSnapshot, GrapheneStats, NrrRequest};
pub use multi::{BankIndexError, BankSet};
pub use reference::LinearCounterTable;
pub use table::{CounterTable, TableSnapshot, TableUpdate};
