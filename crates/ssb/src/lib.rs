//! # pmem-ssb — the Star Schema Benchmark on simulated PMEM/DRAM
//!
//! Reproduces §6 of the paper: a dbgen-equivalent data generator, fixed-row
//! storage striped/replicated across the simulated dual-socket server, a
//! handcrafted PMEM-aware query engine plus a Hyrise-like PMEM-unaware
//! engine, all 13 SSB queries, and a timing model that converts executed
//! traffic into simulated device seconds (Figure 14 and Table 1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::unwrap_used)]

pub mod checkpoint;
pub mod columnar;
pub mod datagen;
pub mod engine;
pub mod hyrise;
pub mod integrity;
pub mod queries;
pub mod reference;
pub mod report;
pub mod schema;
pub mod storage;
pub mod timing;

pub use checkpoint::{CheckpointRecovery, CheckpointStore};
pub use engine::OpCounters;
pub use integrity::{apply_media_plan, IntegrityRepair, StoreIntegrity};
pub use queries::{run_query, PhaseTraffic, QueryId, QueryOutcome};
pub use storage::{EngineMode, SsbStore, StorageDevice};
