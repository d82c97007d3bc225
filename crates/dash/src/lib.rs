//! # pmem-dash — a Dash-style hash index on persistent memory
//!
//! The paper's handcrafted SSB joins use **Dash** (Lu et al., VLDB 2020), a
//! PMEM-optimized extendible hash table. This crate implements the same
//! design points on top of [`pmem-store`](pmem_store) regions:
//!
//! * **256 B buckets** aligned to Optane's XPLine granularity, so one bucket
//!   probe costs exactly one media access (the paper's Insight #12 —
//!   "recent PMEM data structures work on internal 256 Byte access
//!   granularity").
//! * **Fingerprints**: a 1-byte hash per slot checked before touching keys,
//!   so most negative probes never read the record area.
//! * **Balanced inserts + displacement**: a record may live in its home
//!   bucket or the neighbour; inserts fill the emptier of the two and
//!   displace neighbours before splitting.
//! * **Stash buckets** absorb overflow, delaying expensive segment splits.
//! * **Crash-consistent ordering**: records are written and persisted
//!   *before* the slot-visibility bit, so a crash never exposes a
//!   half-written record.
//!
//! For the Hyrise contrast (paper §6.1), [`chained::ChainedTable`] provides
//! a deliberately PMEM-*unaware* chained hash table whose pointer chasing
//! generates the small random reads that make hash joins slow on PMEM.
//!
//! ```
//! use pmem_dash::{DashTable, KvIndex};
//! use pmem_store::Namespace;
//! use pmem_sim::topology::SocketId;
//!
//! let ns = Namespace::devdax(SocketId(0), 32 << 20);
//! let table = DashTable::new(&ns).unwrap();
//! table.insert(42, 4200).unwrap();
//! assert_eq!(table.get(42), Some(4200));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::unwrap_used)]

pub mod bucket;
pub mod chained;
pub mod hash;
pub mod segment;
pub mod table;

pub use chained::{ChainedTable, SealedChainedTable};
pub use table::{DashRecovery, DashStats, DashTable, SealedDashTable};

use pmem_store::Tally;

/// Common interface over the PMEM-aware and PMEM-unaware tables so the SSB
/// engine can swap them per execution mode.
///
/// The `*_tallied` calls count their accesses into a caller's [`Tally`] of
/// the namespace the index was created in (any other tally panics);
/// [`KvIndex::insert`] and [`KvIndex::get`] run the same bodies, each with
/// a tally of its own that lands when the call returns.
pub trait KvIndex {
    /// Insert or update a key. Errors only on resource exhaustion.
    fn insert(&self, key: u64, value: u64) -> pmem_store::Result<()>;
    /// Point lookup.
    fn get(&self, key: u64) -> Option<u64>;
    /// [`KvIndex::insert`], counted into `tally`.
    fn insert_tallied(&self, key: u64, value: u64, tally: &mut Tally<'_>)
        -> pmem_store::Result<()>;
    /// [`KvIndex::get`], counted into `tally`.
    fn get_tallied(&self, key: u64, tally: &mut Tally<'_>) -> Option<u64>;
    /// Remove a key, returning its value.
    fn remove(&self, key: u64) -> Option<u64>;
    /// Number of live records.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
