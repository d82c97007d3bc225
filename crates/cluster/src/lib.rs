//! `pmem-cluster`: a shard router over N simulated PMEM machines.
//!
//! Everything below `pmem-cluster` models *one* calibrated dual-socket
//! Optane box. This crate scales that model out: SSB facts are
//! hash-partitioned by order key across N machines
//! ([`partition::ShardMap`]), each machine wraps its own store + serve
//! stack ([`machine::ShardMachine`]), and a router
//! ([`cluster::Cluster`]) fans queries out scatter-gather with partial
//! aggregation while ingest load is admitted per shard through the
//! existing planner.
//!
//! Every scenario runs through **one fleet simulation**
//! ([`cluster`]): the entry points build their faults, a shared detector
//! step turns them into one [`detector::HealthTimeline`] per shard, and a
//! shared run routes arrivals by those timelines, serves every machine,
//! replays per-shard breakers, rolls the fleet up, re-replicates or
//! garbage-collects, and answers a scrub-guarded verification query. The
//! chaos fuzzer therefore searches exactly the code the scenario gates
//! pin.
//!
//! Robustness is the point of the design:
//!
//! * **Peer replication.** Every shard's columnar partition is copied to
//!   its successor shard (`ColumnarFact::replicate_to`), so a media
//!   error can be repaired from a *remote replica*
//!   (`ColumnarFact::repair_from_replica`) — not just the local
//!   checkpoint mirror — and a whole lost machine does not lose data.
//! * **Failover.** A seeded whole-machine blackout
//!   ([`pmem_sim::fleet::FleetFaultPlans::with_lost_machine`]) kills one
//!   shard mid-run; its timeline goes `Dead` (after the oracle's fixed
//!   delay, or at the accrual detector's verdict), the router re-routes
//!   the dead shard's key range to its replica (arrivals pay the
//!   interconnect transfer), a per-shard circuit breaker
//!   ([`pmem_serve::CircuitBreaker`]) isolates the failure, and a
//!   background re-replication pass restores redundancy on a surviving
//!   peer.
//! * **Gray failures.** A machine that *keeps answering slowly* never
//!   trips a binary breaker, yet drags every scatter-gather query's tail
//!   behind its slowest partial. The accrual detector
//!   ([`detector::HealthTimeline`]) replays probe and completion streams
//!   into per-shard health scores — suspect → demote → (for true
//!   blackouts) dead — demotion is *graded* (reduced router weight, not
//!   exile; the shard re-earns full weight when its score clears), and
//!   the query plane ([`gray`]) hedges straggling partials to the ring
//!   replica over the priced interconnect, first result wins, loser
//!   cancelled, exactly one partial per key range ever counted.
//! * **Accounting.** [`report::ClusterReport`] carries fleet goodput,
//!   merged latency percentiles, per-shard [`pmem_serve::ServeReport`]s
//!   with fan-out outcomes, and the committed-vs-served aggregate that
//!   proves zero committed-data loss (or, with replication off,
//!   demonstrates the loss). [`report::GrayReport`] does the same for
//!   the gray plane: deadline-met query goodput, hedge/cancel counters,
//!   and the per-query aggregate-vs-ground-truth check that proves no
//!   partial was lost or double-counted.
//! * **Recovery.** Losses stop being terminal: a blacked-out machine
//!   rejoins after its window closes ([`recovery`]), scrubs its shard
//!   against the sealed checksums, catches up divergence from the ring
//!   replica through incremental anti-entropy (per-block hash exchange
//!   over the priced link, only divergent blocks shipped, verified on
//!   landing), re-earns traffic through the accrual detector's probe
//!   path (suspect → demoted weight → full weight), takes its key range
//!   back, and the extra replica re-replication made is GC'd. The same
//!   module's chaos runner stacks compositional fault schedules
//!   ([`pmem_sim::chaos`]) on the same fleet run, checks the standing
//!   invariants, and restores the fleet as built, for the `pmem-crashmc`
//!   fuzzer to search and shrink.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::unwrap_used)]

pub mod cluster;
pub mod detector;
pub mod gray;
pub mod machine;
pub mod partition;
pub mod recovery;
pub mod report;

pub use cluster::{Cluster, ClusterConfig};
pub use detector::{DetectorConfig, DetectorMode, HealthState, HealthTimeline, Observation};
pub use gray::GrayConfig;
pub use machine::ShardMachine;
pub use partition::ShardMap;
pub use recovery::RecoveryConfig;
pub use report::{
    ChaosReport, ClusterReport, GrayReport, RecoveryReport, ScatterGather, ShardOutcome,
};
