//! # pmem-olap — Maximizing PMEM Bandwidth Utilization for OLAP Workloads
//!
//! A Rust reproduction of Daase, Bollmeier, Benson & Rabl, *"Maximizing
//! Persistent Memory Bandwidth Utilization for OLAP Workloads"* (SIGMOD
//! 2021), as a usable library. The paper characterizes Intel Optane DC
//! Persistent Memory on a dual-socket server and distills 7 best practices;
//! this crate packages those findings — and the whole stack built to
//! reproduce them — behind one facade:
//!
//! * [`best_practices`] — the 12 insights and 7 best practices as a typed
//!   catalogue, each linked to the experiment that reproduces it.
//! * [`planner`] — [`planner::AccessPlanner`] turns the practices into
//!   executable access plans (thread counts, access sizes, pinning,
//!   placement) and validates them against the simulator.
//! * [`cost`] — the §7 price/performance model.
//! * [`verify`] — every insight as a falsifiable, machine-checked claim.
//! * Re-exports: [`sim`] (the simulated dual-socket Optane server),
//!   [`store`] (namespaces, regions, persistence primitives), [`dash`]
//!   (the Dash hash index), [`membench`] (the characterization figures),
//!   [`ssb`] (the Star Schema Benchmark engines), and [`buffer`] (the
//!   DRAM hot tier in front of PMEM, the paper's stated future work of a
//!   hybrid PMEM–DRAM design).
//!
//! ## Quickstart
//!
//! ```
//! use pmem_olap::planner::{AccessPlanner, Intent};
//! use pmem_olap::sim::workload::AccessKind;
//!
//! let planner = AccessPlanner::paper_default();
//! let scan = planner.plan(Intent::BulkRead);
//! let ingest = planner.plan(Intent::BulkWrite);
//! // Best Practice #2: all cores for reads, 4-6 writers for ingest.
//! assert_eq!(scan.threads_per_socket, 18);
//! assert!(ingest.threads_per_socket <= 6);
//! let bw = planner.expected_bandwidth(&scan, AccessKind::Read);
//! assert!(bw.gib_s() > 75.0); // ~80 GB/s across both sockets
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::unwrap_used)]

pub mod best_practices;
pub mod cost;
pub mod planner;
pub mod verify;

pub use best_practices::{BestPractice, Insight};
pub use planner::{AccessPlanner, Intent, PlannedAccess};
pub use verify::{verify_all, verify_insight, InsightCheck};

/// The simulated dual-socket Optane/DRAM memory system.
pub use pmem_sim as sim;

/// Persistent-memory storage: namespaces, regions, persistence primitives.
pub use pmem_store as store;

/// The Dash hash index (and the PMEM-unaware chained contrast).
pub use pmem_dash as dash;

/// The bandwidth-characterization microbenchmarks (Figures 3–13).
pub use pmem_membench as membench;

/// The Star Schema Benchmark engines (Figure 14, Table 1).
pub use pmem_ssb as ssb;

/// The DRAM hot-tier buffer manager (OLC frames, heat-driven admission).
pub use pmem_buffer as buffer;
