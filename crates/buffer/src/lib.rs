//! # pmem-buffer — DRAM hot-tier buffer manager
//!
//! The paper's deployment story is hybrid PMEM+DRAM: PMEM holds the
//! capacity, DRAM holds the working set. This crate supplies the managed
//! DRAM tier the rest of the workspace wires into scans and serving:
//!
//! * [`frame`] — optimistic lock coupling: one atomic word per frame
//!   packing a 56-bit version and a lock state; readers validate versions
//!   instead of taking latches (the LeanStore/btree `PageState` shape).
//! * [`pool`] — the fixed-frame pool itself: 4 KB frames (the DIMM
//!   interleave granularity), read-through misses, clock eviction with a
//!   second-chance mark, and a brownout pressure hook that shrinks the
//!   tier before the serving layer sheds load.
//! * [`heat`] — planned admission: objects earn residency by observed
//!   heat density, densest first while the budget lasts, plus the
//!   Zipfian top-mass closed form used to model partial-residency hit
//!   rates.
//! * [`zipf`] — deterministic seeded Zipfian sampling for skewed
//!   workload generation in tests and the repro harness.
//!
//! ```
//! use pmem_buffer::{BufferPool, PageKey, FRAME_BYTES};
//! use pmem_store::{AccessHint, Namespace};
//! use pmem_sim::topology::SocketId;
//!
//! // A PMEM-resident page and a small DRAM tier.
//! let ns = Namespace::devdax(SocketId(0), 1 << 20);
//! let mut src = ns.alloc_region(FRAME_BYTES).unwrap();
//! src.ntstore(0, &[42u8; 4096]);
//! let pool = BufferPool::new(SocketId(0), 8 * FRAME_BYTES).unwrap();
//!
//! // Heat makes the object admissible; the second read hits DRAM.
//! pool.observe(0, FRAME_BYTES, 10 * FRAME_BYTES);
//! pool.replan();
//! let key = PageKey { object: 0, page: 0 };
//! let mut out = Vec::new();
//! assert!(!pool.read_through(key, &src, 0, FRAME_BYTES, &mut out).unwrap());
//! out.clear();
//! assert!(pool.read_through(key, &src, 0, FRAME_BYTES, &mut out).unwrap());
//! assert_eq!(out, vec![42u8; 4096]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::unwrap_used)]

pub mod frame;
pub mod heat;
pub mod pool;
pub mod zipf;

pub use frame::FrameState;
pub use heat::{zipf_top_mass, AdmissionPlan, HeatObject, PartialAdmission};
pub use pool::{BufferPool, BufferStats, PageKey, FRAME_BYTES};
pub use zipf::{splitmix64, ZipfSampler};
