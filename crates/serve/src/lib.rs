//! `pmem-serve`: a bandwidth-aware concurrent query scheduler with
//! admission control over the simulated two-socket PMEM machine.
//!
//! OLAP serving on persistent memory dies by a thousand concurrent cuts:
//! a handful of bulk writers saturates the media at 4–6 threads, mixed
//! read/write phases crush scan bandwidth far below what either side gets
//! alone, and unpinned threads forfeit most of the device's sequential
//! read rate. This crate turns the planner's calibrated knowledge of
//! those cliffs ([`pmem_olap::planner::AccessPlanner`]) into a serving
//! policy:
//!
//! * **Admission control** ([`admission`]): per-socket writer caps at the
//!   saturation point, reader caps at the core budget, and deferral of
//!   whichever side [`AccessPlanner::should_serialize`] says should wait —
//!   the mixed phase is shrunk to nothing (Insight #11, Best Practice #5).
//! * **Shared scans** ([`batch`]): compatible fact-table scans arriving
//!   within a window ride one physical scan.
//! * **Accounting** ([`report`]): queue waits, simulated execution times,
//!   admission verdicts, and merged device stats per run.
//! * **Graceful degradation** ([`resilience`]): under an injected
//!   [`pmem_sim::faults::FaultPlan`], per-job deadlines with cancel-and-
//!   retry, admission re-planning against the degraded budget, routing
//!   away from sick sockets, and typed load shedding — the report carries
//!   a [`ServeHealth`] verdict instead of an unbounded queue.
//! * **Overload resilience** ([`overload`], [`fairness`], [`job::OpenLoopPlan`]):
//!   seeded open-loop arrival processes drive the server past capacity
//!   while bounded ingress queues, weighted-fair tenant token buckets, a
//!   global retry budget, per-socket circuit breakers, and brownout-mode
//!   quality degradation keep tail latency bounded and goodput near the
//!   saturation bandwidth instead of collapsing.
//! * **Closed-loop SLO control** ([`slo`], [`control`]): per-job service
//!   classes with earliest-deadline-first admission inside class bands,
//!   class-aware ingress eviction, brownout shielding for the high
//!   classes, and a deterministic epoch-based AIMD controller that tunes
//!   the overload knobs from interim per-class report windows until the
//!   declared per-class objectives hold.
//!
//! The front door is [`QueryServer`]: submit [`JobSpec`]s, call
//! [`QueryServer::run`], read the [`ServeReport`].
//!
//! [`AccessPlanner::should_serialize`]:
//!     pmem_olap::planner::AccessPlanner::should_serialize

#![deny(clippy::unwrap_used)]

pub mod admission;
pub mod batch;
pub mod control;
pub mod fairness;
pub mod job;
pub mod overload;
pub mod report;
pub mod resilience;
pub mod scheduler;
pub mod slo;
pub mod tier;

pub use admission::{
    AdmissionController, AdmissionPolicy, QueueReason, ShedReason, SocketLoad, Verdict,
};
pub use batch::{ScanBatch, ScanBatcher, ScanJobInfo};
pub use control::{auto_tune, ControllerConfig, EpochObservation, Knobs, TuneOutcome};
pub use fairness::FairnessPolicy;
pub use job::{JobId, JobKind, JobSpec, OpenLoopPlan, Side, TenantLoad};
pub use overload::{BreakerConfig, BreakerState, BrownoutConfig, CircuitBreaker, OverloadPolicy};
pub use report::{
    class_reports, tenant_reports, ClassReport, FanoutOutcome, HotTierReport, JobOutcome,
    JobRecord, Percentiles, ServeHealth, ServeReport, ShardRole, TenantReport, TierCurvePoint,
};
pub use resilience::ResiliencePolicy;
pub use scheduler::{QueryServer, ServeConfig};
pub use slo::{ClassTarget, SloClass, SloPolicy};
pub use tier::{HotTierPolicy, SocketDemand, TierAssignment};
