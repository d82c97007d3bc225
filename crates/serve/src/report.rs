//! Per-query accounting and the server-wide [`ServeReport`].

use pmem_sim::stats::SimStats;
use pmem_sim::topology::SocketId;
use pmem_ssb::OpCounters;

use crate::admission::{ShedReason, Verdict};
use crate::job::{JobId, Side};
use crate::slo::SloClass;

/// How a job left the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion (possibly after retries, possibly past deadline).
    Completed,
    /// Dropped by load shedding before it ran to completion.
    Shed(ShedReason),
    /// Cancelled after exhausting its retry budget.
    Failed,
}

impl JobOutcome {
    /// Did the job produce its result?
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "done",
            JobOutcome::Shed(ShedReason::Overloaded) => "shed/over",
            JobOutcome::Shed(ShedReason::Degraded) => "shed/degr",
            JobOutcome::Shed(ShedReason::Unrepairable) => "shed/media",
            JobOutcome::Shed(ShedReason::QueueFull) => "shed/queue",
            JobOutcome::Shed(ShedReason::RetryBudget) => "shed/retry",
            JobOutcome::Failed => "failed",
        }
    }
}

/// The server's overall health verdict for one run — the typed summary
/// the tentpole asks for in place of unbounded queueing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeHealth {
    /// No faults observed, nothing shed.
    Healthy,
    /// The run crossed degraded windows (throttling, dropouts, stalls,
    /// power loss) but load stayed within what shedding/retries absorb.
    Degraded,
    /// Load exceeded capacity: jobs were shed for overload.
    Overloaded,
}

impl ServeHealth {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ServeHealth::Healthy => "healthy",
            ServeHealth::Degraded => "degraded",
            ServeHealth::Overloaded => "overloaded",
        }
    }
}

/// Everything the server learned about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: u32,
    /// Human label ("Q4.2", "ingest 256 MiB").
    pub label: String,
    /// Device side the job occupied.
    pub side: Side,
    /// Socket the job ran on.
    pub socket: SocketId,
    /// Virtual arrival time in seconds.
    pub arrival: f64,
    /// Virtual admission time.
    pub admitted_at: f64,
    /// Virtual completion time.
    pub finished_at: f64,
    /// Seconds spent queued before admission.
    pub queue_wait_seconds: f64,
    /// Simulated execution seconds (admission to completion).
    pub exec_seconds: f64,
    /// Logical bytes the job moved.
    pub bytes: u64,
    /// Result rows (queries; zero for ingest).
    pub rows: u64,
    /// Operator counters from the real execution (queries only).
    pub counters: Option<OpCounters>,
    /// Simulated device stats for the job's own traffic.
    pub stats: SimStats,
    /// Admission history: (virtual time, verdict) whenever it changed.
    pub verdicts: Vec<(f64, Verdict)>,
    /// How many other scans shared this job's batch.
    pub batch_peers: u32,
    /// Absolute virtual deadline, if the spec set one.
    pub deadline: Option<f64>,
    /// Times the job was cancelled and re-run (power loss, deadline blow).
    pub retries: u32,
    /// How the job left the server.
    pub outcome: JobOutcome,
    /// DRAM hot-tier hit rate the job's reads were priced at (0 for
    /// writes and when the tier is disabled).
    pub hit_rate: f64,
    /// SLO class the job was served under.
    pub class: SloClass,
}

impl JobRecord {
    /// Was the job ever queued before admission?
    pub fn was_queued(&self) -> bool {
        self.verdicts.iter().any(|(_, v)| !v.is_admitted())
    }

    /// Did the job complete within its original deadline? Jobs without a
    /// deadline meet it trivially; shed and failed jobs never do.
    pub fn met_deadline(&self) -> bool {
        // MSRV 1.75: `!is_some_and` in place of the younger `is_none_or`.
        self.outcome.is_completed() && !self.deadline.is_some_and(|d| self.finished_at > d + 1e-9)
    }
}

/// p50/p95/p99 of one latency population (nearest-rank, seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of a population (order irrelevant), or
    /// `None` for an empty one. This is the typed form the closed-loop
    /// controller consumes: an interim window with no completions early
    /// in a run must read as "no signal", not as a perfect 0-second p99
    /// that an AIMD step would happily loosen the knobs against.
    pub fn try_of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let idx = (q * sorted.len() as f64).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        Some(Percentiles {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        })
    }

    /// Nearest-rank percentiles of a population (order irrelevant).
    /// All-zero for an empty population — display-friendly; decision
    /// code should prefer [`Percentiles::try_of`].
    pub fn of(values: &[f64]) -> Self {
        Self::try_of(values).unwrap_or_default()
    }
}

/// One tenant's slice of a serving run: counts, bytes, attribution
/// totals, and the latency percentiles the tentpole asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// The tenant.
    pub tenant: u32,
    /// Jobs the tenant submitted.
    pub jobs: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs dropped by load shedding (any [`ShedReason`]).
    pub shed: usize,
    /// Jobs that exhausted their retry budget.
    pub failed: usize,
    /// Logical bytes the tenant's completed jobs moved (its goodput).
    pub bytes_completed: u64,
    /// Sum of the tenant's queue waits (all jobs).
    pub queue_wait_total: f64,
    /// Sum of the tenant's execution seconds (all jobs).
    pub exec_total: f64,
    /// Queue-wait percentiles over the tenant's *completed* jobs.
    pub queue_wait: Percentiles,
    /// End-to-end (arrival → finish) percentiles over completed jobs.
    pub end_to_end: Percentiles,
    /// Byte-weighted DRAM hot-tier hit rate over the tenant's completed
    /// reads (0 when the tier is disabled or nothing completed).
    pub hit_rate: f64,
}

/// Fold per-job records into per-tenant slices, sorted by tenant id.
pub fn tenant_reports(jobs: &[JobRecord]) -> Vec<TenantReport> {
    let mut tenants: Vec<u32> = jobs.iter().map(|j| j.tenant).collect();
    tenants.sort_unstable();
    tenants.dedup();
    tenants
        .into_iter()
        .map(|tenant| {
            let mine: Vec<&JobRecord> = jobs.iter().filter(|j| j.tenant == tenant).collect();
            let done: Vec<&&JobRecord> = mine.iter().filter(|j| j.outcome.is_completed()).collect();
            let waits: Vec<f64> = done.iter().map(|j| j.queue_wait_seconds).collect();
            let e2e: Vec<f64> = done
                .iter()
                .map(|j| (j.finished_at - j.arrival).max(0.0))
                .collect();
            let read_bytes: u64 = done
                .iter()
                .filter(|j| j.side == Side::Read)
                .map(|j| j.bytes)
                .sum();
            let hit_rate = if read_bytes > 0 {
                done.iter()
                    .filter(|j| j.side == Side::Read)
                    .map(|j| j.hit_rate * j.bytes as f64)
                    .sum::<f64>()
                    / read_bytes as f64
            } else {
                0.0
            };
            TenantReport {
                tenant,
                jobs: mine.len(),
                completed: done.len(),
                shed: mine
                    .iter()
                    .filter(|j| matches!(j.outcome, JobOutcome::Shed(_)))
                    .count(),
                failed: mine
                    .iter()
                    .filter(|j| j.outcome == JobOutcome::Failed)
                    .count(),
                bytes_completed: done.iter().map(|j| j.bytes).sum(),
                queue_wait_total: mine.iter().map(|j| j.queue_wait_seconds).sum(),
                exec_total: mine.iter().map(|j| j.exec_seconds).sum(),
                queue_wait: Percentiles::of(&waits),
                end_to_end: Percentiles::of(&e2e),
                hit_rate,
            }
        })
        .collect()
}

/// One SLO class's slice of a serving run: deadline outcomes, latency
/// percentiles, and shed attribution — the per-class section the
/// closed-loop controller reads between epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class.
    pub class: SloClass,
    /// Jobs served under this class.
    pub jobs: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs dropped by load shedding (any [`ShedReason`]).
    pub shed: usize,
    /// Jobs that exhausted their retry budget.
    pub failed: usize,
    /// Jobs that carried a deadline (explicit or class default).
    pub deadline_carrying: usize,
    /// Deadline-carrying jobs that completed within their deadline.
    pub met_deadline: usize,
    /// Logical bytes the class's completed jobs moved (its goodput).
    pub bytes_completed: u64,
    /// Queue-wait percentiles over completed jobs; `None` when nothing
    /// of this class completed.
    pub queue_wait: Option<Percentiles>,
    /// End-to-end (arrival → finish) percentiles over completed jobs;
    /// `None` when nothing of this class completed.
    pub end_to_end: Option<Percentiles>,
}

impl ClassReport {
    /// Fraction of deadline-carrying jobs that met their deadline;
    /// `None` when the class carried no deadlines.
    pub fn met_fraction(&self) -> Option<f64> {
        (self.deadline_carrying > 0)
            .then(|| self.met_deadline as f64 / self.deadline_carrying as f64)
    }
}

/// Fold per-job records into per-class slices, in priority order.
/// Classes with no jobs are omitted.
pub fn class_reports(jobs: &[JobRecord]) -> Vec<ClassReport> {
    SloClass::ALL
        .iter()
        .filter_map(|&class| {
            let mine: Vec<&JobRecord> = jobs.iter().filter(|j| j.class == class).collect();
            if mine.is_empty() {
                return None;
            }
            let done: Vec<&&JobRecord> = mine.iter().filter(|j| j.outcome.is_completed()).collect();
            let waits: Vec<f64> = done.iter().map(|j| j.queue_wait_seconds).collect();
            let e2e: Vec<f64> = done
                .iter()
                .map(|j| (j.finished_at - j.arrival).max(0.0))
                .collect();
            let carrying: Vec<&&JobRecord> = mine.iter().filter(|j| j.deadline.is_some()).collect();
            Some(ClassReport {
                class,
                jobs: mine.len(),
                completed: done.len(),
                shed: mine
                    .iter()
                    .filter(|j| matches!(j.outcome, JobOutcome::Shed(_)))
                    .count(),
                failed: mine
                    .iter()
                    .filter(|j| j.outcome == JobOutcome::Failed)
                    .count(),
                deadline_carrying: carrying.len(),
                met_deadline: carrying.iter().filter(|j| j.met_deadline()).count(),
                bytes_completed: done.iter().map(|j| j.bytes).sum(),
                queue_wait: Percentiles::try_of(&waits),
                end_to_end: Percentiles::try_of(&e2e),
            })
        })
        .collect()
}

/// The role one server plays in a sharded fan-out run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRole {
    /// Serving its own hash-partitioned key range.
    Primary,
    /// Additionally absorbing a dead peer's re-routed key range.
    Failover,
    /// Suspected by the failure detector: still serving its range, but
    /// at reduced router weight — most new arrivals rebalance to the
    /// replica host until the health score clears.
    Demoted,
    /// Back from a blackout window: shard scrubbed and caught up from
    /// its replica via anti-entropy, re-earning traffic through the
    /// detector's probe path (demoted weight until the score clears,
    /// then the replica-served range is handed back).
    Rejoining,
}

impl ShardRole {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ShardRole::Primary => "primary",
            ShardRole::Failover => "failover",
            ShardRole::Demoted => "demoted",
            ShardRole::Rejoining => "rejoining",
        }
    }
}

/// What one shard contributed to a cluster-wide scatter-gather run.
/// Attached by the shard router; `None` for standalone servers.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutOutcome {
    /// Shard index within the cluster.
    pub shard: u32,
    /// Whether this shard also absorbed a failed peer's traffic.
    pub role: ShardRole,
    /// Jobs the router sent here as the primary for their key range.
    pub routed_jobs: u64,
    /// Jobs re-routed here after a peer shard was lost.
    pub rerouted_jobs: u64,
    /// Jobs the router moved *away* from this shard while the failure
    /// detector had it demoted (graded rebalancing, not failover).
    pub rebalanced_jobs: u64,
    /// This shard's router weight at the end of the offered window
    /// (1.0 = full weight, 0.0 = declared dead).
    pub router_weight: f64,
    /// Interconnect seconds spent moving re-routed payloads here.
    pub transfer_seconds: f64,
}

/// One point of the hit-rate-vs-latency curve: the same workload
/// replayed with the DRAM hot tier scaled to a fraction of its budget
/// (`budget_scale = 0` is the pure-PMEM baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierCurvePoint {
    /// Fraction of the configured budget this point ran with.
    pub budget_scale: f64,
    /// Absolute DRAM bytes of the scaled budget.
    pub budget_bytes: u64,
    /// Fraction of read bytes the tier served at this budget.
    pub hit_rate: f64,
    /// All completed bytes over the replay's makespan, GiB/s.
    pub goodput_gib_s: f64,
    /// Median end-to-end latency of completed units, seconds.
    pub e2e_p50: f64,
    /// p99 end-to-end latency of completed units, seconds.
    pub e2e_p99: f64,
}

/// What the DRAM hot tier did for one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct HotTierReport {
    /// Configured DRAM budget in bytes.
    pub dram_budget: u64,
    /// Bytes the heat-density admission plan occupies (partial included).
    pub admitted_bytes: u64,
    /// Read bytes the tier served instead of PMEM.
    pub hit_bytes: u64,
    /// `hit_bytes` over all read bytes moved.
    pub hit_rate: f64,
    /// Virtual seconds the brownout ladder ran with the tier shrunk.
    pub shrunk_seconds: f64,
    /// The hit-rate-vs-latency curve over scaled budgets, ascending.
    pub curve: Vec<TierCurvePoint>,
}

/// The server-wide outcome of one [`crate::QueryServer::run`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One record per submitted job, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Virtual seconds from first arrival to last completion.
    pub makespan: f64,
    /// Logical read bytes the device served.
    pub read_bytes_moved: u64,
    /// Logical write bytes the device absorbed.
    pub write_bytes_moved: u64,
    /// Virtual seconds during which at least one reader was active.
    pub read_busy_seconds: f64,
    /// Virtual seconds during which at least one writer was active.
    pub write_busy_seconds: f64,
    /// Most reader threads ever concurrent on one socket.
    pub peak_concurrent_readers: u32,
    /// Most writer threads ever concurrent on one socket.
    pub peak_concurrent_writers: u32,
    /// Scan batches formed (including singletons).
    pub batches: usize,
    /// Fact-scan bytes shared scans avoided re-reading.
    pub shared_scan_bytes_saved: u64,
    /// Device stats merged across every job.
    pub stats: SimStats,
    /// The run's typed health verdict.
    pub health: ServeHealth,
    /// Times a socket's admission budget was re-planned because observed
    /// bandwidth drifted from the calibration.
    pub replan_events: u32,
    /// Injected power-loss events the run absorbed.
    pub power_loss_events: u32,
    /// Virtual seconds the machine ran work while some component was
    /// degraded by an injected fault.
    pub degraded_seconds: f64,
    /// Jobs cancelled and re-queued because a media error quarantined
    /// their socket mid-run.
    pub quarantined: u32,
    /// Media-error repair windows completed (poisoned blocks rebuilt from
    /// the durable mirror while the socket was quarantined).
    pub repaired: u32,
    /// Per-tenant accounting and latency percentiles, sorted by tenant.
    pub tenants: Vec<TenantReport>,
    /// Per-SLO-class accounting in priority order (classes with no jobs
    /// omitted).
    pub classes: Vec<ClassReport>,
    /// Circuit-breaker trips across all sockets (re-opens included).
    pub breaker_trips: u32,
    /// Retries refused by the global retry budget.
    pub retry_budget_denied: u32,
    /// Virtual seconds the brownout ladder kept the reader budget
    /// tightened because the waiting line ran deep.
    pub brownout_seconds: f64,
    /// The shared-scan coalescing window the run actually used (after
    /// adaptive derivation and brownout widening).
    pub batch_window_used: f64,
    /// DRAM hot-tier accounting and the hit-rate-vs-latency curve
    /// (`None` when the tier is disabled).
    pub hot_tier: Option<HotTierReport>,
    /// This server's slice of a cluster fan-out (`None` outside a
    /// sharded run; filled in by the shard router).
    pub fanout: Option<FanoutOutcome>,
}

const GIB: f64 = (1u64 << 30) as f64;

impl ServeReport {
    /// Aggregate bandwidth over the whole run: all bytes / makespan.
    pub fn aggregate_bandwidth_gib_s(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        (self.read_bytes_moved + self.write_bytes_moved) as f64 / GIB / self.makespan
    }

    /// Read bandwidth while reads were actually running: read bytes over
    /// read-busy seconds. This is the number admission control protects —
    /// a serialized write phase lengthens the makespan but must not drag
    /// down what readers see while they run.
    pub fn read_bandwidth_gib_s(&self) -> f64 {
        if self.read_busy_seconds <= 0.0 {
            return 0.0;
        }
        self.read_bytes_moved as f64 / GIB / self.read_busy_seconds
    }

    /// Write bandwidth while writes were running.
    pub fn write_bandwidth_gib_s(&self) -> f64 {
        if self.write_busy_seconds <= 0.0 {
            return 0.0;
        }
        self.write_bytes_moved as f64 / GIB / self.write_busy_seconds
    }

    /// Mean queue wait across jobs.
    pub fn mean_queue_wait_seconds(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.queue_wait_seconds).sum::<f64>() / self.jobs.len() as f64
    }

    /// Jobs that spent time queued before admission.
    pub fn queued_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.was_queued()).count()
    }

    /// Jobs dropped by load shedding.
    pub fn shed_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Shed(_)))
            .count()
    }

    /// Jobs shed for one specific reason.
    pub fn shed_by(&self, reason: ShedReason) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Shed(reason))
            .count()
    }

    /// One tenant's slice, if it submitted anything this run.
    pub fn tenant(&self, tenant: u32) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Jobs that exhausted their retry budget.
    pub fn failed_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Failed)
            .count()
    }

    /// Jobs that were cancelled and re-run at least once.
    pub fn retried_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.retries > 0).count()
    }

    /// Jobs with a deadline that completed past it (shed/failed included).
    pub fn deadline_misses(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.deadline.is_some() && !j.met_deadline())
            .count()
    }

    /// Fraction of deadline-carrying jobs that completed within their
    /// deadline. `1.0` when no job carries a deadline.
    pub fn deadline_met_fraction(&self) -> f64 {
        let with: Vec<_> = self.jobs.iter().filter(|j| j.deadline.is_some()).collect();
        if with.is_empty() {
            return 1.0;
        }
        with.iter().filter(|j| j.met_deadline()).count() as f64 / with.len() as f64
    }

    /// One class's slice, if anything ran under it.
    pub fn class_report(&self, class: SloClass) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// The fraction of all sheds absorbed by `class` (0 when nothing
    /// was shed at all).
    pub fn shed_share(&self, class: SloClass) -> f64 {
        let total = self.shed_jobs();
        if total == 0 {
            return 0.0;
        }
        self.class_report(class).map_or(0, |c| c.shed) as f64 / total as f64
    }

    /// Completed bytes over the makespan, in bytes/second — the goodput
    /// number the controller maximizes.
    pub fn goodput_bytes_per_sec(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.jobs
            .iter()
            .filter(|j| j.outcome.is_completed())
            .map(|j| j.bytes as f64)
            .sum::<f64>()
            / self.makespan
    }

    /// Split the run into `n` equal time windows by completion instant
    /// and return each window's end-to-end percentiles for `class`.
    /// Windows with no completions are typed `None` — early-run windows
    /// routinely are, which is exactly the case [`Percentiles::try_of`]
    /// hardens the controller against.
    pub fn class_windows(&self, class: SloClass, n: usize) -> Vec<Option<Percentiles>> {
        let n = n.max(1);
        let span = self.makespan.max(1e-12);
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
        for j in self
            .jobs
            .iter()
            .filter(|j| j.class == class && j.outcome.is_completed())
        {
            let w = (((j.finished_at / span) * n as f64) as usize).min(n - 1);
            buckets[w].push((j.finished_at - j.arrival).max(0.0));
        }
        buckets.iter().map(|b| Percentiles::try_of(b)).collect()
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve report: {} jobs, makespan {:.3}s, {} batches ({} fact MiB shared)",
            self.jobs.len(),
            self.makespan,
            self.batches,
            self.shared_scan_bytes_saved >> 20,
        )?;
        writeln!(
            f,
            "  bandwidth: read {:.2} GiB/s (busy {:.3}s), write {:.2} GiB/s (busy {:.3}s), aggregate {:.2} GiB/s",
            self.read_bandwidth_gib_s(),
            self.read_busy_seconds,
            self.write_bandwidth_gib_s(),
            self.write_busy_seconds,
            self.aggregate_bandwidth_gib_s(),
        )?;
        writeln!(
            f,
            "  peaks: {} readers / {} writers; queued jobs: {}; mean wait {:.3}s",
            self.peak_concurrent_readers,
            self.peak_concurrent_writers,
            self.queued_jobs(),
            self.mean_queue_wait_seconds(),
        )?;
        writeln!(
            f,
            "  health: {} — {} shed, {} failed, {} retried, {} deadline misses; \
             {} replans, {} power losses, degraded {:.3}s; \
             {} quarantined, {} media repairs",
            self.health.label(),
            self.shed_jobs(),
            self.failed_jobs(),
            self.retried_jobs(),
            self.deadline_misses(),
            self.replan_events,
            self.power_loss_events,
            self.degraded_seconds,
            self.quarantined,
            self.repaired,
        )?;
        if self.breaker_trips > 0 || self.retry_budget_denied > 0 || self.brownout_seconds > 0.0 {
            writeln!(
                f,
                "  overload: {} breaker trips, {} retries denied, brownout {:.3}s, window {:.4}s",
                self.breaker_trips,
                self.retry_budget_denied,
                self.brownout_seconds,
                self.batch_window_used,
            )?;
        }
        if let Some(fanout) = &self.fanout {
            writeln!(
                f,
                "  fan-out: shard {} ({}), {} routed, {} rerouted, transfer {:.4}s",
                fanout.shard,
                fanout.role.label(),
                fanout.routed_jobs,
                fanout.rerouted_jobs,
                fanout.transfer_seconds,
            )?;
        }
        if let Some(tier) = &self.hot_tier {
            writeln!(
                f,
                "  hot tier: budget {:.1} MiB, admitted {:.1} MiB, hit rate {:.1}% \
                 ({:.1} MiB from DRAM), shrunk {:.3}s",
                tier.dram_budget as f64 / (1 << 20) as f64,
                tier.admitted_bytes as f64 / (1 << 20) as f64,
                tier.hit_rate * 100.0,
                tier.hit_bytes as f64 / (1 << 20) as f64,
                tier.shrunk_seconds,
            )?;
            writeln!(
                f,
                "    {:>6} {:>10} {:>6} {:>12} {:>9} {:>9}",
                "scale", "MiB", "hit%", "GiB/s", "p50(s)", "p99(s)"
            )?;
            for p in &tier.curve {
                writeln!(
                    f,
                    "    {:>6.2} {:>10.1} {:>6.1} {:>12.2} {:>9.3} {:>9.3}",
                    p.budget_scale,
                    p.budget_bytes as f64 / (1 << 20) as f64,
                    p.hit_rate * 100.0,
                    p.goodput_gib_s,
                    p.e2e_p50,
                    p.e2e_p99,
                )?;
            }
        }
        for c in &self.classes {
            let p = c.end_to_end.unwrap_or_default();
            writeln!(
                f,
                "  class {:>11}: {:>4} jobs ({} done, {} shed, {} failed), \
                 deadlines {}/{} met, e2e p50/p95/p99 {:.3}/{:.3}/{:.3}s, {:>8.1} MiB good",
                c.class.label(),
                c.jobs,
                c.completed,
                c.shed,
                c.failed,
                c.met_deadline,
                c.deadline_carrying,
                p.p50,
                p.p95,
                p.p99,
                c.bytes_completed as f64 / (1 << 20) as f64,
            )?;
        }
        for t in &self.tenants {
            writeln!(
                f,
                "  tenant {:>3}: {:>4} jobs ({} done, {} shed, {} failed), {:>8.1} MiB good, \
                 wait p50/p95/p99 {:.3}/{:.3}/{:.3}s, e2e {:.3}/{:.3}/{:.3}s, hit {:.1}%",
                t.tenant,
                t.jobs,
                t.completed,
                t.shed,
                t.failed,
                t.bytes_completed as f64 / (1 << 20) as f64,
                t.queue_wait.p50,
                t.queue_wait.p95,
                t.queue_wait.p99,
                t.end_to_end.p50,
                t.end_to_end.p95,
                t.end_to_end.p99,
                t.hit_rate * 100.0,
            )?;
        }
        writeln!(
            f,
            "  {:>7} {:>6} {:<14} {:>5} {:>4} {:>9} {:>9} {:>9} {:>10} {:>6}",
            "job", "tenant", "label", "side", "sock", "wait(s)", "exec(s)", "MiB", "rows", "peers"
        )?;
        for job in &self.jobs {
            writeln!(
                f,
                "  {:>7} {:>6} {:<14} {:>5} {:>4} {:>9.3} {:>9.3} {:>9.1} {:>10} {:>6}",
                job.id.to_string(),
                job.tenant,
                job.label,
                job.side.label(),
                job.socket.0,
                job.queue_wait_seconds,
                job.exec_seconds,
                job.bytes as f64 / (1 << 20) as f64,
                job.rows,
                job.batch_peers,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, side: Side, bytes: u64, wait: f64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            tenant: 0,
            label: "test".into(),
            side,
            socket: SocketId(0),
            arrival: 0.0,
            admitted_at: wait,
            finished_at: wait + 1.0,
            queue_wait_seconds: wait,
            exec_seconds: 1.0,
            bytes,
            rows: 3,
            counters: None,
            stats: SimStats::default(),
            verdicts: Vec::new(),
            batch_peers: 0,
            deadline: None,
            retries: 0,
            outcome: JobOutcome::Completed,
            hit_rate: 0.0,
            class: SloClass::Standard,
        }
    }

    #[test]
    fn bandwidth_uses_busy_time_not_makespan() {
        let gib = 1u64 << 30;
        let report = ServeReport {
            jobs: vec![record(0, Side::Read, 30 * gib, 0.0)],
            makespan: 2.0,
            read_bytes_moved: 30 * gib,
            write_bytes_moved: 10 * gib,
            read_busy_seconds: 1.0,
            write_busy_seconds: 1.0,
            peak_concurrent_readers: 30,
            peak_concurrent_writers: 6,
            batches: 1,
            shared_scan_bytes_saved: 0,
            stats: SimStats::default(),
            health: ServeHealth::Healthy,
            replan_events: 0,
            power_loss_events: 0,
            degraded_seconds: 0.0,
            quarantined: 0,
            repaired: 0,
            tenants: Vec::new(),
            classes: Vec::new(),
            breaker_trips: 0,
            retry_budget_denied: 0,
            brownout_seconds: 0.0,
            batch_window_used: 0.0,
            hot_tier: None,
            fanout: None,
        };
        assert!((report.read_bandwidth_gib_s() - 30.0).abs() < 1e-9);
        assert!((report.write_bandwidth_gib_s() - 10.0).abs() < 1e-9);
        assert!((report.aggregate_bandwidth_gib_s() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_reads_zero_everywhere() {
        let report = ServeReport {
            jobs: Vec::new(),
            makespan: 0.0,
            read_bytes_moved: 0,
            write_bytes_moved: 0,
            read_busy_seconds: 0.0,
            write_busy_seconds: 0.0,
            peak_concurrent_readers: 0,
            peak_concurrent_writers: 0,
            batches: 0,
            shared_scan_bytes_saved: 0,
            stats: SimStats::default(),
            health: ServeHealth::Healthy,
            replan_events: 0,
            power_loss_events: 0,
            degraded_seconds: 0.0,
            quarantined: 0,
            repaired: 0,
            tenants: Vec::new(),
            classes: Vec::new(),
            breaker_trips: 0,
            retry_budget_denied: 0,
            brownout_seconds: 0.0,
            batch_window_used: 0.0,
            hot_tier: None,
            fanout: None,
        };
        assert_eq!(report.read_bandwidth_gib_s(), 0.0);
        assert_eq!(report.mean_queue_wait_seconds(), 0.0);
        assert_eq!(report.queued_jobs(), 0);
        assert_eq!(report.deadline_met_fraction(), 1.0, "no deadlines set");
        assert_eq!(report.shed_jobs(), 0);
        let text = format!("{report}");
        assert!(text.contains("0 jobs"));
        assert!(text.contains("healthy"));
    }

    #[test]
    fn deadline_accounting_distinguishes_outcomes() {
        let gib = 1u64 << 30;
        let mut met = record(0, Side::Read, gib, 0.0);
        met.deadline = Some(2.0); // finished_at = 1.0 <= 2.0
        let mut missed = record(1, Side::Read, gib, 0.0);
        missed.deadline = Some(0.5); // finished_at = 1.0 > 0.5
        let mut shed = record(2, Side::Write, gib, 0.0);
        shed.deadline = Some(10.0);
        shed.outcome = JobOutcome::Shed(ShedReason::Degraded);
        let mut retried = record(3, Side::Write, gib, 0.0);
        retried.retries = 2;
        retried.deadline = Some(2.0);

        assert!(met.met_deadline());
        assert!(!missed.met_deadline());
        assert!(!shed.met_deadline(), "shed jobs never meet deadlines");
        assert!(retried.met_deadline(), "retries may still land in time");

        let report = ServeReport {
            jobs: vec![met, missed, shed, retried],
            makespan: 1.0,
            read_bytes_moved: 2 * gib,
            write_bytes_moved: gib,
            read_busy_seconds: 1.0,
            write_busy_seconds: 1.0,
            peak_concurrent_readers: 2,
            peak_concurrent_writers: 2,
            batches: 0,
            shared_scan_bytes_saved: 0,
            stats: SimStats::default(),
            health: ServeHealth::Degraded,
            replan_events: 1,
            power_loss_events: 1,
            degraded_seconds: 0.25,
            quarantined: 1,
            repaired: 1,
            tenants: Vec::new(),
            classes: Vec::new(),
            breaker_trips: 0,
            retry_budget_denied: 0,
            brownout_seconds: 0.0,
            batch_window_used: 0.0,
            hot_tier: None,
            fanout: None,
        };
        assert_eq!(report.shed_jobs(), 1);
        assert_eq!(report.retried_jobs(), 1);
        assert_eq!(report.deadline_misses(), 2);
        assert!((report.deadline_met_fraction() - 0.5).abs() < 1e-12);
        let text = format!("{report}");
        assert!(text.contains("degraded"));
        assert!(text.contains("1 shed"));
    }

    #[test]
    fn percentiles_use_nearest_rank_on_the_sorted_population() {
        // 1..=100 in scrambled order: nearest-rank p50 = 50th value, etc.
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        values.reverse();
        let p = Percentiles::of(&values);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        // Small populations clamp to real members, never interpolate.
        let tiny = Percentiles::of(&[0.3]);
        assert_eq!((tiny.p50, tiny.p95, tiny.p99), (0.3, 0.3, 0.3));
        assert_eq!(Percentiles::of(&[]), Percentiles::default());
    }

    #[test]
    fn empty_and_single_sample_windows_are_typed_not_zero() {
        // An empty window is `None`, distinguishable from a population
        // whose latencies really are zero — the controller must never
        // read "no completions yet" as "p99 = 0, loosen the knobs".
        assert_eq!(Percentiles::try_of(&[]), None);
        assert_eq!(
            Percentiles::try_of(&[0.0]),
            Some(Percentiles::default()),
            "a real all-zero sample still reads as data"
        );
        let single = Percentiles::try_of(&[0.7]).expect("one sample is a population");
        assert_eq!((single.p50, single.p95, single.p99), (0.7, 0.7, 0.7));
        // The display-friendly form keeps its old silent-zero behavior.
        assert_eq!(Percentiles::of(&[]), Percentiles::default());
    }

    #[test]
    fn class_reports_partition_attribute_and_type_empties() {
        let mut hot = record(0, Side::Read, 100, 0.1);
        hot.class = SloClass::Interactive;
        hot.deadline = Some(2.0); // finished_at 1.1 <= 2.0: met
        let mut hot2 = record(1, Side::Read, 50, 0.0);
        hot2.class = SloClass::Interactive;
        hot2.deadline = Some(0.5); // finished_at 1.0 > 0.5: missed
        let mut bulk = record(2, Side::Write, 400, 0.2);
        bulk.class = SloClass::BestEffort;
        bulk.outcome = JobOutcome::Shed(ShedReason::QueueFull);
        let jobs = vec![hot, hot2, bulk];

        let classes = class_reports(&jobs);
        assert_eq!(classes.len(), 2, "standard had no jobs and is omitted");
        let i = &classes[0];
        assert_eq!(i.class, SloClass::Interactive);
        assert_eq!((i.jobs, i.completed, i.shed, i.failed), (2, 2, 0, 0));
        assert_eq!((i.deadline_carrying, i.met_deadline), (2, 1));
        assert_eq!(i.met_fraction(), Some(0.5));
        assert_eq!(i.bytes_completed, 150);
        assert!(i.end_to_end.is_some());

        let b = &classes[1];
        assert_eq!(b.class, SloClass::BestEffort);
        assert_eq!((b.jobs, b.completed, b.shed), (1, 0, 1));
        assert_eq!(b.met_fraction(), None, "no deadlines carried");
        assert_eq!(b.end_to_end, None, "nothing completed: typed empty");
        assert_eq!(b.queue_wait, None);
    }

    #[test]
    fn shed_share_and_class_windows_read_off_the_report() {
        let gib = 1u64 << 30;
        let mut early = record(0, Side::Read, gib, 0.0);
        early.class = SloClass::Interactive;
        early.finished_at = 0.5;
        let mut late = record(1, Side::Read, gib, 0.0);
        late.class = SloClass::Interactive;
        late.finished_at = 1.9;
        let mut dropped = record(2, Side::Write, gib, 0.0);
        dropped.class = SloClass::BestEffort;
        dropped.outcome = JobOutcome::Shed(ShedReason::QueueFull);
        let jobs = vec![early, late, dropped];
        let classes = class_reports(&jobs);
        let report = ServeReport {
            jobs,
            makespan: 2.0,
            read_bytes_moved: 2 * gib,
            write_bytes_moved: 0,
            read_busy_seconds: 1.0,
            write_busy_seconds: 0.0,
            peak_concurrent_readers: 2,
            peak_concurrent_writers: 0,
            batches: 0,
            shared_scan_bytes_saved: 0,
            stats: SimStats::default(),
            health: ServeHealth::Overloaded,
            replan_events: 0,
            power_loss_events: 0,
            degraded_seconds: 0.0,
            quarantined: 0,
            repaired: 0,
            tenants: Vec::new(),
            classes,
            breaker_trips: 0,
            retry_budget_denied: 0,
            brownout_seconds: 0.0,
            batch_window_used: 0.0,
            hot_tier: None,
            fanout: None,
        };
        assert_eq!(report.shed_share(SloClass::BestEffort), 1.0);
        assert_eq!(report.shed_share(SloClass::Interactive), 0.0);
        assert!((report.goodput_bytes_per_sec() - gib as f64).abs() < 1.0);
        // Four windows over makespan 2.0: completions land in windows
        // 1 (t=0.5) and 3 (t=1.9); windows 0 and 2 are typed empty.
        let windows = report.class_windows(SloClass::Interactive, 4);
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0], None);
        assert!(windows[1].is_some());
        assert_eq!(windows[2], None);
        assert!(windows[3].is_some());
        let text = format!("{report}");
        assert!(text.contains("interactive"), "class section renders");
        assert!(text.contains("best-effort"));
    }

    #[test]
    fn tenant_reports_partition_the_jobs_and_sum_to_totals() {
        let mut a1 = record(0, Side::Read, 100, 0.1);
        a1.tenant = 1;
        let mut a2 = record(1, Side::Write, 200, 0.2);
        a2.tenant = 1;
        a2.outcome = JobOutcome::Shed(ShedReason::QueueFull);
        let mut b = record(2, Side::Write, 400, 0.4);
        b.tenant = 2;
        let mut c = record(3, Side::Read, 800, 0.0);
        c.tenant = 1;
        c.outcome = JobOutcome::Failed;
        let jobs = vec![a1, a2, b, c];

        let tenants = tenant_reports(&jobs);
        assert_eq!(tenants.len(), 2, "sorted, deduplicated tenants");
        assert_eq!((tenants[0].tenant, tenants[1].tenant), (1, 2));

        let t1 = &tenants[0];
        assert_eq!((t1.jobs, t1.completed, t1.shed, t1.failed), (3, 1, 1, 1));
        assert_eq!(t1.bytes_completed, 100, "only completed jobs are goodput");
        // Attribution totals cover *all* jobs; percentiles only completed.
        assert!((t1.queue_wait_total - 0.3).abs() < 1e-12);
        assert!((t1.exec_total - 3.0).abs() < 1e-12);
        assert_eq!(t1.queue_wait.p99, 0.1);
        assert_eq!(t1.end_to_end.p50, 1.1, "arrival -> finish of job 0");

        // The partition is exact: per-tenant counts sum to the totals.
        let sum_jobs: usize = tenants.iter().map(|t| t.jobs).sum();
        let sum_bytes: u64 = tenants.iter().map(|t| t.bytes_completed).sum();
        assert_eq!(sum_jobs, jobs.len());
        assert_eq!(sum_bytes, 500);
    }
}
