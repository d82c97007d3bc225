//! # pmem-store — persistent-memory storage over the simulated device
//!
//! This crate is the PMDK-shaped storage layer of the `pmem-olap` workspace.
//! It exposes the abstractions the paper's benchmarks and SSB implementation
//! use on real Optane hardware, backed by the [`pmem-sim`](pmem_sim) device
//! models:
//!
//! * [`namespace`] — `ndctl`-style namespace management: App Direct in
//!   **devdax** or **fsdax** mode (with the fsdax page-fault cost model that
//!   explains the paper's 5–10 % devdax advantage) and **Memory Mode**.
//! * [`region`] — byte-addressable regions with the persistence primitives
//!   of the paper's kernels: `ntstore` (non-temporal store), `clwb`,
//!   `sfence`, plus crash/recovery simulation that enforces the ADR rules
//!   ("a write is persistent once accepted into the iMC's WPQ").
//! * [`alloc`] — a region allocator (bump + free-list) for carving tables,
//!   indexes, and intermediates out of a namespace.
//! * [`log`] — a per-worker, crash-consistent append log implementing the
//!   paper's "one log per worker, 256 B appends" recipe.
//! * [`scrub`] — per-block FNV checksums and a media scrubber that walks a
//!   region distinguishing poisoned XPLines (typed `StoreError::Poisoned`)
//!   from silent checksum mismatches, feeding the self-healing repair path
//!   in `pmem-ssb`.
//! * [`tracker`] — access accounting shared with the simulator: every read
//!   and write is tallied by kind so higher layers (SSB, benches) can turn
//!   executed work into simulated device time.
//!
//! Regions hold *real* bytes in host memory — data structures built on them
//! behave and can be tested functionally — while the trackers feed the
//! bandwidth model that supplies the paper's timing.
//!
//! ```
//! use pmem_store::{Namespace, NamespaceMode, AccessHint};
//!
//! let ns = Namespace::devdax(pmem_sim::topology::SocketId(0), 1 << 20);
//! let mut region = ns.alloc_region(4096).unwrap();
//! region.ntstore(0, b"hello pmem");
//! region.sfence();
//! assert!(region.is_persisted(0, 10));
//! assert_eq!(region.read(0, 10, AccessHint::Sequential), b"hello pmem");
//! assert_eq!(ns.mode(), NamespaceMode::DevDax);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::unwrap_used)]

pub mod alloc;
pub mod log;
pub mod namespace;
pub mod region;
pub mod scrub;
pub mod trace;
pub mod tracker;

mod error;
mod lineset;

pub use error::StoreError;
pub use log::WorkerLog;
pub use namespace::{Namespace, NamespaceMode};
pub use region::{AccessHint, Region, XPLINE};
pub use scrub::{BlockChecksums, ScrubReport};
pub use trace::{PersistEvent, PersistenceTrace};
pub use tracker::{AccessTracker, Tally, TrackerSnapshot};

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;
