//! The query server: admission, batching, socket routing, and a
//! virtual-time execution loop priced by the bandwidth model.
//!
//! Execution happens on two planes. The *real* plane runs each distinct
//! query of a run once ([`pmem_ssb::run_query`]) to obtain its result
//! rows, operator counters, and measured traffic. The *virtual* plane
//! replays the jobs through a discrete-event loop: at every instant each
//! socket's admitted reader/writer thread mix determines the progress
//! rates via [`Simulation::evaluate_mixed`](pmem_sim::Simulation::evaluate_mixed) (the Figure 11 surface), and
//! the admission controller decides who may join the mix. Queue waits,
//! execution times, and bandwidth figures all come from the virtual plane;
//! rows and counters from the real one.
//!
//! The virtual plane's state is one `EventLoop`, and each unit transition
//! has one implementation on it: `arrive` (the ingress bound and the
//! media-quarantine wait), `note` (a queue or admission verdict, recorded
//! when it changes), `admit`, `requeue` (cancel-and-retry after a blown
//! deadline, a power loss or a media error, on the socket the unit can be
//! admitted on soonest) and `end`. Every exit — completion, failure and
//! every typed shed — goes through `end`, which also hands a retried
//! unit's retry-budget slot back.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use pmem_olap::planner::{AccessPlanner, ConcurrencyBudget};
use pmem_sim::faults::{FaultPlan, MachineFaultState};
use pmem_sim::params::DeviceClass;
use pmem_sim::sched::Pinning;
use pmem_sim::stats::SimStats;
use pmem_sim::topology::{Machine, SocketId};
use pmem_sim::workload::{MixedSpec, WorkloadSpec};
use pmem_sim::{tiered_rate, Bandwidth};
use pmem_ssb::{run_query, QueryId, QueryOutcome, SsbStore};
use pmem_store::Result;

use crate::admission::{
    AdmissionController, AdmissionPolicy, QueueReason, ShedReason, SocketLoad, Verdict,
};
use crate::batch::{ScanBatcher, ScanJobInfo};
use crate::fairness::{FairnessPolicy, TenantBuckets};
use crate::job::{JobId, JobKind, JobSpec, OpenLoopPlan, Side};
use crate::overload::{BreakerState, CircuitBreaker, OverloadPolicy, RetryLedger};
use crate::report::{
    self, HotTierReport, JobOutcome, JobRecord, Percentiles, ServeHealth, ServeReport,
    TierCurvePoint,
};
use crate::resilience::ResiliencePolicy;
use crate::slo::{SloClass, SloPolicy};
use crate::tier::{self, HotTierPolicy, SocketDemand, TierAssignment};

/// Bytes below which a unit counts as finished (float-remainder guard).
const DONE_EPSILON: f64 = 0.5;

/// Ceiling on the adaptive (and brownout-widened) coalescing window, in
/// virtual seconds.
const BATCH_WINDOW_MAX: f64 = 0.040;

/// Bandwidth drift (1 − observed/expected) beyond which resilience
/// re-plans a socket's admission budget down.
const REPLAN_DRIFT: f64 = 0.10;

/// Reader-budget scale while browned out, as if the read side had
/// degraded to this fraction of its bandwidth.
const BROWNOUT_READER_SCALE: f64 = 0.7;

/// Multiplier widening the shared-scan coalescing window when offered
/// read load exceeds projected capacity under overload control.
const BROWNOUT_BATCH_WIDEN: f64 = 2.0;

/// Server configuration. Each optional mechanism is off when its field
/// is `None`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission rules.
    pub admission: AdmissionPolicy,
    /// Thread pinning assumed for pricing.
    pub pinning: Pinning,
    /// Shared-scan batching window in virtual seconds (0 disables).
    pub batch_window: f64,
    /// Injected fault schedule the virtual plane replays (empty = healthy
    /// machine).
    pub faults: FaultPlan,
    /// Graceful-degradation behavior under faults and deadline pressure.
    pub resilience: Option<ResiliencePolicy>,
    /// Weighted-fair tenant admission (token buckets).
    pub fairness: Option<FairnessPolicy>,
    /// Overload control: bounded queues, retry budget, breakers, brownout.
    pub overload: Option<OverloadPolicy>,
    /// Open-loop arrival plan; when set, [`QueryServer::run`] generates
    /// and submits the whole timeline itself (every run replays it).
    pub open_loop: Option<OpenLoopPlan>,
    /// Derive the shared-scan window from the observed scan inter-arrival
    /// rate instead of the fixed `batch_window`.
    pub adaptive_batch: bool,
    /// DRAM hot tier pricing reads (`None` = pure-PMEM reads).
    pub hot_tier: Option<HotTierPolicy>,
    /// SLO classes: EDF-within-class admission bands, class-aware ingress
    /// eviction, brownout shielding, per-class default deadlines.
    pub slo: Option<SloPolicy>,
}

impl ServeConfig {
    /// The paper's serving setup: saturation caps, serialized mixed
    /// phases, core pinning, a 10 ms shared-scan window.
    pub fn scheduled(planner: &AccessPlanner) -> Self {
        ServeConfig {
            admission: AdmissionPolicy::paper(planner),
            pinning: Pinning::Cores,
            batch_window: 0.010,
            faults: FaultPlan::none(),
            resilience: None,
            fairness: None,
            overload: None,
            open_loop: None,
            adaptive_batch: false,
            hot_tier: None,
            slo: None,
        }
    }

    /// The full surge stack: the scheduled setup plus graceful
    /// degradation, overload control, weighted-fair tenants, and adaptive
    /// shared-scan batching. This is the configuration the overload
    /// experiments run the *controlled* server under.
    pub fn surge(planner: &AccessPlanner) -> Self {
        Self::scheduled(planner)
            .with_resilience(ResiliencePolicy::paper())
            .with_overload(OverloadPolicy::surge())
            .with_fairness(FairnessPolicy::weighted())
            .with_adaptive_batching()
    }

    /// Replay an injected fault schedule during the virtual plane.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enable (or reconfigure) graceful degradation.
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Enable (or reconfigure) overload control.
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = Some(overload);
        self
    }

    /// Enable (or reconfigure) weighted-fair tenant admission.
    pub fn with_fairness(mut self, fairness: FairnessPolicy) -> Self {
        self.fairness = Some(fairness);
        self
    }

    /// Drive runs from an open-loop arrival plan instead of explicit
    /// submissions.
    pub fn with_open_loop(mut self, plan: OpenLoopPlan) -> Self {
        self.open_loop = Some(plan);
        self
    }

    /// Derive the shared-scan window from the observed inter-arrival
    /// rate, capped at 40 ms.
    pub fn with_adaptive_batching(mut self) -> Self {
        self.adaptive_batch = true;
        self
    }

    /// Caps without phase serialization — writers mix with readers up to
    /// the saturation cap.
    pub fn capped_mixed(planner: &AccessPlanner) -> Self {
        ServeConfig {
            admission: AdmissionPolicy::cap_only(planner),
            ..Self::scheduled(planner)
        }
    }

    /// The unscheduled baseline: no admission control, no pinning, no
    /// shared scans — every job runs the moment it arrives, threads placed
    /// by the OS scheduler.
    pub fn free_for_all() -> Self {
        ServeConfig {
            admission: AdmissionPolicy::free_for_all(),
            pinning: Pinning::None,
            batch_window: 0.0,
            faults: FaultPlan::none(),
            resilience: None,
            fairness: None,
            overload: None,
            open_loop: None,
            adaptive_batch: false,
            hot_tier: None,
            slo: None,
        }
    }

    /// Price reads through a DRAM hot tier with `policy`; a zero-byte
    /// budget leaves the tier off.
    pub fn with_hot_tier(mut self, policy: HotTierPolicy) -> Self {
        self.hot_tier = (policy.dram_budget > 0).then_some(policy);
        self
    }

    /// Enable (or reconfigure) SLO classes: class-banded EDF admission,
    /// class-aware ingress eviction, and brownout shielding.
    pub fn with_slo_classes(mut self, slo: SloPolicy) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The relative deadline a job of `class` that set `explicit` runs
    /// under: its own, or with SLO classes on, its class default.
    pub(crate) fn effective_deadline(&self, class: SloClass, explicit: Option<f64>) -> Option<f64> {
        self.slo
            .map_or(explicit, |slo| slo.effective_deadline(class, explicit))
    }

    /// Whether SLO classes are on and shield `class` from brownout and
    /// ingress eviction.
    pub(crate) fn shielded(&self, class: SloClass) -> bool {
        self.slo.is_some_and(|slo| slo.shielded(class))
    }
}

/// A schedulable unit: one shared-scan batch or one ingest job.
#[derive(Debug, Clone)]
struct Unit {
    side: Side,
    socket: SocketId,
    arrival: f64,
    threads: u32,
    bytes: u64,
    /// Indices into the submission list.
    members: Vec<usize>,
    verdicts: Vec<(f64, Verdict)>,
    admitted_at: f64,
    finished_at: f64,
    /// Whether any member pinned its socket explicitly (blocks re-routing).
    pinned: bool,
    /// Tightest member deadline, relative to (re)start.
    deadline_rel: Option<f64>,
    /// Working absolute deadline; retries re-arm it from their restart.
    deadline_at: Option<f64>,
    /// Earliest virtual time the unit may be (re)admitted.
    ready_at: f64,
    /// Cancel-and-retry count so far.
    retries: u32,
    /// How the unit left the loop.
    outcome: JobOutcome,
    /// Primary tenant (the first member's) — what the ingress queue bound
    /// counts against.
    tenant: u32,
    /// Highest-priority member class: the unit's admission band,
    /// eviction rank, and brownout shield.
    class: SloClass,
    /// Per-member `(tenant, bytes)` demands the fairness buckets charge.
    charges: Vec<(u32, u64)>,
    /// Hot-tier hit rate the unit's reads see (0 for writes / no tier).
    hit_rate: f64,
    /// Hit rate in force while browned out (the tier shrinks first).
    hit_rate_browned: f64,
}

/// A unit currently holding device time.
struct ActiveRun {
    unit: usize,
    remaining: f64,
    rate: f64,
}

/// Multi-tenant query server over one loaded store.
pub struct QueryServer<'s> {
    store: &'s SsbStore,
    planner: AccessPlanner,
    config: ServeConfig,
    pending: Vec<(JobId, JobSpec)>,
    next_id: u64,
    route_rr: u64,
}

impl<'s> QueryServer<'s> {
    /// Server over a store with a configuration.
    pub fn new(store: &'s SsbStore, config: ServeConfig) -> Self {
        QueryServer {
            store,
            planner: AccessPlanner::paper_default(),
            config,
            pending: Vec::new(),
            next_id: 0,
            route_rr: 0,
        }
    }

    /// The planner pricing this server's admissions.
    pub fn planner(&self) -> &AccessPlanner {
        &self.planner
    }

    /// Submit one job; returns its id. Thread demands are clamped to the
    /// admission caps so every job is eventually admissible.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        let cap = match spec.kind.side() {
            Side::Read => self.config.admission.reader_cap,
            Side::Write => self.config.admission.writer_cap,
        };
        let spec = spec.threads(spec.kind.threads().min(cap.max(1)));
        self.pending.push((id, spec));
        id
    }

    /// Submit many jobs.
    pub fn submit_all<I: IntoIterator<Item = JobSpec>>(&mut self, specs: I) -> Vec<JobId> {
        specs.into_iter().map(|s| self.submit(s)).collect()
    }

    /// Jobs submitted and not yet run.
    pub fn pending_jobs(&self) -> usize {
        self.pending.len()
    }

    /// Route a job to a socket: explicit pin; otherwise, when resilience
    /// is on and faults are scheduled, the socket whose fault state leaves
    /// the most bandwidth for the job's side at its arrival (round-robin
    /// breaks ties); plain round-robin otherwise.
    fn route(&mut self, spec: &JobSpec) -> SocketId {
        if let Some(socket) = spec.socket {
            return socket;
        }
        let sockets = self.planner.sockets().max(1);
        let rr = SocketId((self.route_rr % u64::from(sockets)) as u8);
        self.route_rr += 1;
        if self.config.resilience.is_none() || self.config.faults.is_empty() {
            return rr;
        }
        let machine = &self.planner.simulation().params().machine;
        let state = self.config.faults.state_at(machine, spec.arrival);
        let side = spec.kind.side();
        soonest_socket(&state, &HashMap::new(), side, rr, spec.arrival, sockets)
    }

    /// Run every pending job to completion and report. The server stays
    /// usable afterwards — resubmit specs for another round. A configured
    /// open-loop plan is generated and submitted first (each run replays
    /// it from the same seed).
    pub fn run(&mut self) -> Result<ServeReport> {
        if let Some(plan) = self.config.open_loop.clone() {
            for spec in plan.jobs() {
                self.submit(spec);
            }
        }
        let submissions = std::mem::take(&mut self.pending);

        // ---- Route ----
        let routed: Vec<(JobId, JobSpec, SocketId)> = submissions
            .into_iter()
            .map(|(id, spec)| {
                let socket = self.route(&spec);
                (id, spec, socket)
            })
            .collect();

        // ---- Real plane: run each distinct query once ----
        // The store does not change during a run, and a query's outcome
        // depends only on (store, query, threads), so jobs repeating a
        // query share one execution. Faults live in the virtual plane
        // only: cancelled, retried, or restarted jobs replay virtual
        // timing, never the real computation.
        let mut outcomes: HashMap<(QueryId, u32), QueryOutcome> = HashMap::new();
        for (_, spec, _) in &routed {
            if let JobKind::Query { query, threads } = spec.kind {
                if let Entry::Vacant(slot) = outcomes.entry((query, threads)) {
                    slot.insert(run_query(self.store, query, threads)?);
                }
            }
        }

        // ---- Batch compatible scans, build schedulable units ----
        let scan_infos: Vec<ScanJobInfo> = routed
            .iter()
            .enumerate()
            .filter_map(|(idx, (_, spec, socket))| match spec.kind {
                JobKind::Query { query, threads } => {
                    let traffic = &outcomes[&(query, threads)].traffic;
                    Some(ScanJobInfo {
                        id: JobId(idx as u64), // index into `routed`
                        socket: *socket,
                        arrival: spec.arrival,
                        threads,
                        read_bytes: traffic.read_bytes().max(1),
                        fact_bytes: traffic.fact_read_bytes(),
                    })
                }
                JobKind::Ingest { .. } => None,
            })
            .collect();
        // Effective coalescing window: fixed or adaptive; under offered
        // read load beyond projected capacity, brownout widens it — the
        // first rung of the ladder, trading per-query latency for
        // deduplicated fact traffic before anything is shed.
        let mut batcher = if self.config.adaptive_batch {
            let arrivals: Vec<f64> = scan_infos.iter().map(|s| s.arrival).collect();
            ScanBatcher::adaptive(&arrivals, BATCH_WINDOW_MAX)
        } else {
            ScanBatcher::new(self.config.batch_window)
        };
        if self.config.overload.is_some() && scan_infos.len() >= 2 {
            let first = scan_infos
                .iter()
                .map(|s| s.arrival)
                .fold(f64::INFINITY, f64::min);
            let last = scan_infos.iter().map(|s| s.arrival).fold(0.0f64, f64::max);
            let offered: u64 = scan_infos.iter().map(|s| s.read_bytes).sum();
            let offered_rate = offered as f64 / (last - first).max(1e-6);
            let budget = self.planner.concurrency_budget();
            let (read_bw, _) = self.planner.expected_mixed(budget.reader_threads, 0);
            let capacity = read_bw.bytes_per_sec() * f64::from(self.planner.sockets().max(1));
            if offered_rate > capacity {
                batcher = ScanBatcher::new(
                    (batcher.window * BROWNOUT_BATCH_WIDEN)
                        .min(BATCH_WINDOW_MAX.max(batcher.window)),
                );
            }
        }
        let batch_window_used = batcher.window;
        let batches = batcher.coalesce(&scan_infos);

        let mut units: Vec<Unit> = Vec::new();
        let mut shared_scan_bytes_saved = 0u64;
        for batch in &batches {
            shared_scan_bytes_saved += batch.saved_bytes;
            // Effective deadlines: explicit spec deadlines, with the class
            // default filling any gap once SLO classes are on.
            let eff = |m: &ScanJobInfo| {
                let spec = &routed[m.id.0 as usize].1;
                self.config.effective_deadline(spec.class, spec.deadline)
            };
            let deadline_rel = batch
                .members
                .iter()
                .filter_map(&eff)
                .fold(f64::INFINITY, f64::min);
            let deadline_at = batch
                .members
                .iter()
                .filter_map(|m| eff(m).map(|d| routed[m.id.0 as usize].1.arrival + d))
                .fold(f64::INFINITY, f64::min);
            let class = batch
                .members
                .iter()
                .map(|m| routed[m.id.0 as usize].1.class)
                .min()
                .unwrap_or_default();
            units.push(Unit {
                side: Side::Read,
                socket: batch.socket,
                arrival: batch.ready_at,
                threads: batch.threads,
                bytes: batch.bytes,
                members: batch.members.iter().map(|m| m.id.0 as usize).collect(),
                verdicts: Vec::new(),
                admitted_at: f64::NAN,
                finished_at: f64::NAN,
                pinned: batch
                    .members
                    .iter()
                    .any(|m| routed[m.id.0 as usize].1.socket.is_some()),
                deadline_rel: deadline_rel.is_finite().then_some(deadline_rel),
                deadline_at: deadline_at.is_finite().then_some(deadline_at),
                ready_at: batch.ready_at,
                retries: 0,
                outcome: JobOutcome::Completed,
                tenant: routed[batch.members[0].id.0 as usize].1.tenant,
                class,
                charges: batch
                    .members
                    .iter()
                    .map(|m| (routed[m.id.0 as usize].1.tenant, m.read_bytes))
                    .collect(),
                hit_rate: 0.0,
                hit_rate_browned: 0.0,
            });
        }
        for (idx, (_, spec, socket)) in routed.iter().enumerate() {
            if let JobKind::Ingest { bytes, threads } = spec.kind {
                let eff = self.config.effective_deadline(spec.class, spec.deadline);
                units.push(Unit {
                    side: Side::Write,
                    socket: *socket,
                    arrival: spec.arrival,
                    threads,
                    bytes: bytes.max(1),
                    members: vec![idx],
                    verdicts: Vec::new(),
                    admitted_at: f64::NAN,
                    finished_at: f64::NAN,
                    pinned: spec.socket.is_some(),
                    deadline_rel: eff,
                    deadline_at: eff.map(|d| spec.arrival + d),
                    ready_at: spec.arrival,
                    retries: 0,
                    outcome: JobOutcome::Completed,
                    tenant: spec.tenant,
                    class: spec.class,
                    charges: vec![(spec.tenant, bytes.max(1))],
                    hit_rate: 0.0,
                    hit_rate_browned: 0.0,
                });
            }
        }

        // ---- DRAM hot tier: plan admission, price per-unit hit rates ----
        let tier_state = self.config.hot_tier.map(|tier_cfg| {
            let demands = self.socket_demands(&scan_infos);
            let full = tier::assign(&demands, tier_cfg.dram_budget);
            let shrunk = tier::assign(&demands, tier_cfg.shrunken_budget());
            price_hits(&mut units, &full, &shrunk);
            // Pristine copies replay the loop at scaled budgets for the
            // hit-rate-vs-latency curve.
            (tier_cfg, demands, full, units.clone())
        });

        // ---- Virtual plane: discrete-event loop ----
        let loop_out = self.event_loop(&mut units);

        // ---- Hot-tier report: observed hits plus the budget curve ----
        // Each point below the full budget replays the loop; the full
        // budget's point is the run itself.
        let hot_tier = tier_state.map(|(tier_cfg, demands, assignment, pristine)| {
            let mut curve: Vec<TierCurvePoint> = [0.0, 0.25, 0.5, 0.75]
                .iter()
                .map(|&scale| {
                    let budget = (tier_cfg.dram_budget as f64 * scale) as u64;
                    let point = tier::assign(&demands, budget);
                    let browned = tier::assign(
                        &demands,
                        (budget as f64 * tier_cfg.brownout_shrink.clamp(0.0, 1.0)) as u64,
                    );
                    let mut probe = pristine.clone();
                    price_hits(&mut probe, &point, &browned);
                    let o = self.event_loop(&mut probe);
                    curve_point(scale, budget, &o, &probe)
                })
                .collect();
            curve.push(curve_point(1.0, tier_cfg.dram_budget, &loop_out, &units));
            HotTierReport {
                dram_budget: tier_cfg.dram_budget,
                admitted_bytes: assignment.admitted_bytes,
                hit_bytes: loop_out.tier_hit_bytes,
                hit_rate: loop_out.tier_hit_rate(),
                shrunk_seconds: loop_out.tier_shrunk_seconds,
                curve,
            }
        });

        // ---- Records ----
        let sim = self.planner.simulation();
        let device = self.store.device.device_class();
        let mut records: Vec<JobRecord> = Vec::with_capacity(routed.len());
        let mut by_unit: HashMap<usize, usize> = HashMap::new(); // routed idx -> unit
        for (u, unit) in units.iter().enumerate() {
            for &m in &unit.members {
                by_unit.insert(m, u);
            }
        }
        for (idx, (id, spec, _)) in routed.iter().enumerate() {
            let unit = &units[by_unit[&idx]];
            let (bytes, rows, counters) = match spec.kind {
                JobKind::Query { query, threads } => {
                    let o = &outcomes[&(query, threads)];
                    (
                        o.traffic.read_bytes().max(1),
                        o.rows.len() as u64,
                        Some(o.counters),
                    )
                }
                JobKind::Ingest { bytes, .. } => (bytes.max(1), 0, None),
            };
            let wl = match spec.kind {
                JobKind::Query { threads, .. } => {
                    WorkloadSpec::seq_read(device, 4096, threads.max(1))
                }
                JobKind::Ingest { threads, .. } => {
                    WorkloadSpec::seq_write(device, 4096, threads.max(1))
                }
            }
            .pinning(self.config.pinning)
            .total_bytes(bytes);
            // Shed and failed jobs never moved their traffic; pricing their
            // device stats would overstate what the machine actually did.
            let stats = if unit.outcome.is_completed() {
                sim.evaluate_steady(&wl).stats
            } else {
                SimStats::default()
            };
            records.push(JobRecord {
                id: *id,
                tenant: spec.tenant,
                class: spec.class,
                label: spec.kind.label(),
                side: spec.kind.side(),
                socket: unit.socket,
                arrival: spec.arrival,
                admitted_at: unit.admitted_at,
                finished_at: unit.finished_at,
                queue_wait_seconds: (unit.admitted_at - spec.arrival).max(0.0),
                exec_seconds: (unit.finished_at - unit.admitted_at).max(0.0),
                bytes,
                rows,
                counters,
                stats,
                verdicts: unit.verdicts.clone(),
                batch_peers: unit.members.len() as u32 - 1,
                deadline: self
                    .config
                    .effective_deadline(spec.class, spec.deadline)
                    .map(|d| spec.arrival + d),
                retries: unit.retries,
                outcome: unit.outcome,
                hit_rate: unit.hit_rate,
            });
        }
        records.sort_by_key(|r| r.id);

        let stats = SimStats::merged(records.iter().map(|r| &r.stats));
        let tenants = report::tenant_reports(&records);
        let classes = report::class_reports(&records);
        let shed_overloaded = records.iter().any(|r| {
            matches!(
                r.outcome,
                JobOutcome::Shed(ShedReason::Overloaded)
                    | JobOutcome::Shed(ShedReason::QueueFull)
                    | JobOutcome::Shed(ShedReason::RetryBudget)
            )
        });
        let troubled = loop_out.degraded_seconds > 0.0
            || loop_out.power_loss_events > 0
            || loop_out.replan_events > 0
            || loop_out.quarantined > 0
            || loop_out.repaired > 0
            || loop_out.breaker_trips > 0
            || loop_out.brownout_seconds > 0.0
            || records.iter().any(|r| !r.outcome.is_completed());
        let health = if shed_overloaded {
            ServeHealth::Overloaded
        } else if troubled {
            ServeHealth::Degraded
        } else {
            ServeHealth::Healthy
        };
        Ok(ServeReport {
            jobs: records,
            makespan: loop_out.makespan,
            read_bytes_moved: loop_out.read_bytes_moved,
            write_bytes_moved: loop_out.write_bytes_moved,
            read_busy_seconds: loop_out.read_busy,
            write_busy_seconds: loop_out.write_busy,
            peak_concurrent_readers: loop_out.peak_readers,
            peak_concurrent_writers: loop_out.peak_writers,
            batches: batches.len(),
            shared_scan_bytes_saved,
            health,
            replan_events: loop_out.replan_events,
            power_loss_events: loop_out.power_loss_events,
            degraded_seconds: loop_out.degraded_seconds,
            quarantined: loop_out.quarantined,
            repaired: loop_out.repaired,
            tenants,
            classes,
            breaker_trips: loop_out.breaker_trips,
            retry_budget_denied: loop_out.retry_budget_denied,
            brownout_seconds: loop_out.brownout_seconds,
            batch_window_used,
            stats,
            hot_tier,
            fanout: None,
        })
    }

    /// Per-socket working sets and read demand the tier plans over: the
    /// socket's fact partition plus the largest single query's auxiliary
    /// (dimension/index) read set, against the total read bytes offered.
    fn socket_demands(&self, scans: &[ScanJobInfo]) -> Vec<SocketDemand> {
        let row = self.store.fact_bytes() / self.store.fact_rows().max(1);
        (0..self.planner.sockets().max(1))
            .map(|s| {
                let fact: u64 = self
                    .store
                    .shards
                    .iter()
                    .filter(|sh| sh.socket.0 == s)
                    .map(|sh| sh.fact_rows * row)
                    .sum();
                let mine = scans.iter().filter(|i| i.socket.0 == s);
                let aux = mine
                    .clone()
                    .map(|i| i.read_bytes.saturating_sub(i.fact_bytes))
                    .max()
                    .unwrap_or(0);
                let demand: u64 = mine.map(|i| i.read_bytes).sum();
                SocketDemand {
                    socket: s,
                    footprint_bytes: fact + aux,
                    demand_bytes: demand,
                }
            })
            .collect()
    }

    fn event_loop(&self, units: &mut [Unit]) -> LoopOutput {
        EventLoop::new(self, units).run()
    }
}

/// Point the read units' hit rates at a tier assignment: `full` in
/// force normally, `browned` while the brownout ladder shrinks the tier.
fn price_hits(units: &mut [Unit], full: &TierAssignment, browned: &TierAssignment) {
    for unit in units.iter_mut().filter(|u| u.side == Side::Read) {
        unit.hit_rate = full.hit(unit.socket.0);
        unit.hit_rate_browned = browned.hit(unit.socket.0);
    }
}

/// One point of the hot tier's budget curve, read off a finished loop.
fn curve_point(
    budget_scale: f64,
    budget_bytes: u64,
    o: &LoopOutput,
    units: &[Unit],
) -> TierCurvePoint {
    let e2e: Vec<f64> = units
        .iter()
        .filter(|u| u.outcome.is_completed())
        .map(|u| (u.finished_at - u.arrival).max(0.0))
        .collect();
    let p = Percentiles::of(&e2e);
    let moved = o.read_bytes_moved + o.write_bytes_moved;
    TierCurvePoint {
        budget_scale,
        budget_bytes,
        hit_rate: o.tier_hit_rate(),
        goodput_gib_s: if o.makespan > 0.0 {
            moved as f64 / ((1u64 << 30) as f64) / o.makespan
        } else {
            0.0
        },
        e2e_p50: p.p50,
        e2e_p99: p.p99,
    }
}

/// The socket a unit of `side` can be admitted on soonest from `at`: the
/// earliest quarantine lift wins, and the side's fault scale in `state`
/// breaks ties, in favour of `from` and then of the lower socket.
fn soonest_socket(
    state: &MachineFaultState,
    quarantine: &HashMap<u8, f64>,
    side: Side,
    from: SocketId,
    at: f64,
    sockets: u8,
) -> SocketId {
    let ready = |s: SocketId| quarantine.get(&s.0).copied().unwrap_or(0.0).max(at);
    let scale = |s: SocketId| match side {
        Side::Read => state.socket(s).read_scale,
        Side::Write => state.socket(s).write_scale,
    };
    let (mut best, mut best_ready, mut best_scale) = (from, ready(from), scale(from));
    for cand in (0..sockets).map(SocketId) {
        let sooner = ready(cand) - best_ready;
        if sooner < -1e-12 || (sooner < 1e-12 && scale(cand) > best_scale + 1e-9) {
            (best, best_ready, best_scale) = (cand, ready(cand), scale(cand));
        }
    }
    best
}

/// One pass of the virtual plane over a run's units. The loop's mutable
/// state lives here, and every unit transition is one method: `arrive`
/// (the ingress bound and the quarantine wait), `note` (a queue or
/// admission verdict), `admit`, `requeue` (cancel-and-retry) and `end`,
/// the one exit every completion, failure and shed goes through.
struct EventLoop<'a> {
    config: &'a ServeConfig,
    planner: &'a AccessPlanner,
    machine: &'a Machine,
    device: DeviceClass,
    sockets: u8,
    units: &'a mut [Unit],
    /// Units waiting for admission, in queue order.
    waiting: Vec<usize>,
    /// Units holding device time.
    active: Vec<ActiveRun>,
    ledger: RetryLedger,
    /// One deadline-miss circuit breaker per socket; empty when off.
    breakers: Vec<CircuitBreaker>,
    /// Weighted-fair tenant token buckets, when fairness is on.
    buckets: Option<TenantBuckets>,
    /// Socket -> virtual time its media-error quarantine lifts.
    quarantine: HashMap<u8, f64>,
    out: LoopOutput,
    now: f64,
}

impl<'a> EventLoop<'a> {
    fn new(server: &'a QueryServer<'_>, units: &'a mut [Unit]) -> Self {
        let config = &server.config;
        let planner = &server.planner;
        let sockets = planner.sockets().max(1);
        // Weighted-fair tenant buckets over every tenant in the workload,
        // with open-loop plan weights folded in under explicit ones.
        let buckets = config.fairness.as_ref().map(|fairness| {
            let mut policy = fairness.clone();
            if let Some(plan) = &config.open_loop {
                for (t, w) in plan.weights() {
                    if !policy.weights.iter().any(|&(pt, _)| pt == t) {
                        policy = policy.weight(t, w);
                    }
                }
            }
            let mut tenants: Vec<u32> = units
                .iter()
                .flat_map(|u| u.charges.iter().map(|&(t, _)| t))
                .collect();
            tenants.sort_unstable();
            tenants.dedup();
            TenantBuckets::new(&policy, planner, &tenants)
        });
        let breakers = config.overload.map_or_else(Vec::new, |overload| {
            (0..sockets)
                .map(|_| CircuitBreaker::new(overload.breaker))
                .collect()
        });
        EventLoop {
            config,
            planner,
            machine: &planner.simulation().params().machine,
            device: server.store.device.device_class(),
            sockets,
            units,
            waiting: Vec::new(),
            active: Vec::new(),
            ledger: RetryLedger::default(),
            breakers,
            buckets,
            quarantine: HashMap::new(),
            out: LoopOutput::default(),
            now: 0.0,
        }
    }

    fn run(mut self) -> LoopOutput {
        let config = self.config;
        let (res, overload, slo, faults) = (
            config.resilience,
            config.overload,
            config.slo,
            &config.faults,
        );
        let controller = AdmissionController::new(config.admission);
        // With no re-planning in force the effective caps are exactly the
        // policy caps (decide_with_caps takes the min of the two).
        let policy_caps = ConcurrencyBudget {
            reader_threads: config.admission.reader_cap,
            writer_threads: config.admission.writer_cap,
        };
        // Reader budget in force while browned out.
        let browned_caps =
            overload.map(|_| self.planner.degraded_budget(BROWNOUT_READER_SCALE, 1.0));

        // Optimistic solo execution time per unit on a healthy machine:
        // prices the "can this still make its deadline at all?" shed check.
        let min_exec: Vec<f64> = if res.is_some_and(|r| r.shed_hopeless) {
            let sim = self.planner.simulation();
            self.units
                .iter()
                .map(|u| {
                    let mut spec = match u.side {
                        Side::Read => MixedSpec::paper(self.device, 0, u.threads),
                        Side::Write => MixedSpec::paper(self.device, u.threads, 0),
                    };
                    spec.pinning = config.pinning;
                    let eval = sim.evaluate_mixed(&spec);
                    let rate = match u.side {
                        Side::Read => eval.read.bytes_per_sec(),
                        Side::Write => eval.write.bytes_per_sec(),
                    };
                    if rate > 0.0 {
                        u.bytes as f64 / rate
                    } else {
                        f64::INFINITY
                    }
                })
                .collect()
        } else {
            Vec::new()
        };

        let mut order: Vec<usize> = (0..self.units.len()).collect();
        order.sort_by(|&a, &b| {
            self.units[a]
                .arrival
                .total_cmp(&self.units[b].arrival)
                .then(a.cmp(&b))
        });
        let mut ptr = 0usize;
        let mut last_caps = vec![policy_caps; usize::from(self.sockets)];

        loop {
            while ptr < order.len() && self.units[order[ptr]].arrival <= self.now + 1e-12 {
                self.arrive(order[ptr]);
                ptr += 1;
            }

            let now = self.now;
            let fstate = faults.state_at(self.machine, now);
            for b in &mut self.breakers {
                b.poll(now);
            }
            // Brownout: tighten the reader budget while the waiting line
            // is deep — quality degrades before anything is shed.
            let brownout_active =
                overload.is_some_and(|o| self.waiting.len() >= o.brownout.queue_high);

            // Deadline enforcement (resilient only): cancel active units
            // that blew their working deadline and requeue them. Every
            // blown deadline feeds the socket's circuit breaker.
            if let Some(policy) = res {
                while let Some(u) =
                    self.take_active(|_, unit| unit.deadline_at.is_some_and(|d| now >= d - 1e-9))
                {
                    if let Some(b) = self.breakers.get_mut(usize::from(self.units[u].socket.0)) {
                        b.record(true, now);
                    }
                    self.requeue(u, &policy, JobOutcome::Failed);
                }
            }

            // Shed pass: a queued job whose deadline is unreachable even at
            // the healthy solo rate gets a typed refusal now instead of
            // queueing into certain failure.
            if res.is_some_and(|r| r.shed_hopeless) {
                let mut i = 0;
                while i < self.waiting.len() {
                    let u = self.waiting[i];
                    let unit = &self.units[u];
                    let hopeless = unit.ready_at <= now + 1e-12
                        && unit
                            .deadline_at
                            .is_some_and(|d| now + min_exec[u] > d + 1e-9);
                    if !hopeless {
                        i += 1;
                        continue;
                    }
                    let reason = if fstate.socket(unit.socket).is_degraded() {
                        ShedReason::Degraded
                    } else {
                        ShedReason::Overloaded
                    };
                    self.waiting.remove(i);
                    // The shed re-stamps admission, over a retried unit's
                    // earlier one too.
                    self.units[u].admitted_at = now;
                    self.end(u, JobOutcome::Shed(reason), now);
                }
            }

            // Re-planned admission budgets: when a socket's observed
            // bandwidth drifts past the threshold, its saturation points
            // shrink — admitting the healthy thread count would only deepen
            // the queues, so the budget shrinks with it.
            // Each socket carries two budgets: the (possibly re-planned)
            // plain caps, and the brownout-tightened caps. Which one an
            // admission sees depends on the unit's class: shielded classes
            // keep the plain budget, everyone else browns out.
            let mut caps_by_socket: Vec<(ConcurrencyBudget, ConcurrencyBudget)> = Vec::new();
            for (s, last) in last_caps.iter_mut().enumerate() {
                let sf = fstate.socket(SocketId(s as u8));
                let drift = (1.0 - sf.read_scale).max(1.0 - sf.write_scale);
                let caps = if res.is_some() && drift > REPLAN_DRIFT {
                    self.planner.degraded_budget(sf.read_scale, sf.write_scale)
                } else {
                    policy_caps
                };
                let prev = std::mem::replace(last, caps);
                if res.is_some() && prev != caps {
                    self.out.replan_events += 1;
                }
                // Brownout tightening stacks on top of fault re-planning
                // but is not a replan event — it lifts with the queue.
                let mut browned = caps;
                if let Some(b) = browned_caps.filter(|_| brownout_active) {
                    browned.reader_threads = browned.reader_threads.min(b.reader_threads);
                }
                caps_by_socket.push((caps, browned));
            }

            // Admission pass: FIFO with bypass — a queued unit does not
            // block later-arriving admissible ones. Units backing off
            // (ready_at in the future) are not yet eligible. With SLO
            // classes on, the queue is re-ordered earliest-deadline-first
            // within class bands before the pass: every interactive unit
            // is considered before any standard one, EDF inside each band.
            if slo.is_some() {
                let units = &*self.units;
                self.waiting.sort_by(|&a, &b| {
                    units[a]
                        .class
                        .cmp(&units[b].class)
                        .then(
                            units[a]
                                .deadline_at
                                .unwrap_or(f64::INFINITY)
                                .total_cmp(&units[b].deadline_at.unwrap_or(f64::INFINITY)),
                        )
                        .then(units[a].arrival.total_cmp(&units[b].arrival))
                        .then(a.cmp(&b))
                });
            }
            let mut i = 0;
            while i < self.waiting.len() {
                let u = self.waiting[i];
                if self.units[u].ready_at > now + 1e-12 {
                    i += 1;
                    continue;
                }
                if let Some(reason) = self.held(u) {
                    self.note(u, Verdict::Queued { reason });
                    i += 1;
                    continue;
                }
                let unit = &self.units[u];
                let socket = unit.socket;
                let caps = caps_by_socket
                    .get(usize::from(socket.0))
                    .map(|&(plain, browned)| {
                        if config.shielded(unit.class) {
                            plain
                        } else {
                            browned
                        }
                    })
                    .unwrap_or(policy_caps);
                let verdict = controller.decide_with_caps(
                    self.planner,
                    unit.side,
                    unit.threads,
                    unit.bytes,
                    &self.load(socket),
                    caps,
                );
                self.note(u, verdict);
                if verdict.is_admitted() {
                    self.admit(i);
                    let after = self.load(socket);
                    self.out.peak_readers = self.out.peak_readers.max(after.reader_threads);
                    self.out.peak_writers = self.out.peak_writers.max(after.writer_threads);
                } else {
                    i += 1;
                }
            }

            if self.active.is_empty() {
                let eligible = |u: usize| self.units[u].ready_at <= now + 1e-12;
                let next_ready = self
                    .waiting
                    .iter()
                    .map(|&u| self.units[u].ready_at)
                    .filter(|&r| r > now + 1e-12)
                    .fold(f64::INFINITY, f64::min);
                // Token refills and breaker cooldowns lift on their own —
                // both are wake events an idle machine must sleep toward.
                let next_token = self.buckets.as_ref().map_or(f64::INFINITY, |bk| {
                    self.waiting
                        .iter()
                        .filter(|&&u| eligible(u))
                        .map(|&u| {
                            bk.seconds_until_ready(&self.units[u].charges, self.units[u].side)
                        })
                        .filter(|&d| d > 1e-12)
                        .map(|d| now + d)
                        .fold(f64::INFINITY, f64::min)
                });
                let next_breaker = self
                    .breakers
                    .iter()
                    .filter_map(CircuitBreaker::next_transition)
                    .filter(|&t| t > now + 1e-12)
                    .fold(f64::INFINITY, f64::min);
                let wake = next_ready.min(next_token).min(next_breaker);
                let target = if ptr < order.len() {
                    self.units[order[ptr]].arrival.min(wake)
                } else {
                    wake
                };
                if target.is_finite() {
                    if let Some(bk) = self.buckets.as_mut() {
                        bk.refill((target - now).max(0.0));
                    }
                    self.now = target;
                    continue;
                }
                if let Some(pos) = self.waiting.iter().position(|&u| eligible(u)) {
                    // Defensive: an idle machine always admits the head of
                    // the eligible queue; reaching here means a policy with
                    // caps below the (clamped) demand — run it alone anyway.
                    let unit = &mut self.units[self.waiting[pos]];
                    let threads = |side| if unit.side == side { unit.threads } else { 0 };
                    let verdict = Verdict::Admitted {
                        readers: threads(Side::Read),
                        writers: threads(Side::Write),
                    };
                    unit.verdicts.push((now, verdict));
                    self.admit(pos);
                    continue;
                }
                break;
            }

            // Rates: per socket, the admitted mix prices both sides; the
            // fault state scales each side's achievable bandwidth. With a
            // hot tier, each read unit's rate is the harmonic blend of the
            // PMEM and DRAM lanes at its hit rate — shielded classes keep
            // the full tier even while the brownout ladder shrinks it.
            let hit = |unit: &Unit| {
                if brownout_active && !config.shielded(unit.class) {
                    unit.hit_rate_browned
                } else {
                    unit.hit_rate
                }
            };
            let mut lanes: HashMap<u8, (f64, f64, f64)> = HashMap::new();
            for k in 0..self.active.len() {
                let unit = &self.units[self.active[k].unit];
                let (per_reader, per_writer, per_reader_dram) = *lanes
                    .entry(unit.socket.0)
                    .or_insert_with(|| self.price(unit.socket, &fstate));
                let rate = f64::from(unit.threads)
                    * match unit.side {
                        Side::Read => tiered_rate(
                            Bandwidth::from_bytes_per_sec(per_reader),
                            Bandwidth::from_bytes_per_sec(per_reader_dram),
                            hit(unit),
                        )
                        .bytes_per_sec(),
                        Side::Write => per_writer,
                    };
                self.active[k].rate = rate;
            }

            // Advance to the next event: a completion, an arrival, a fault
            // transition (rates are piecewise-constant between them), a
            // backoff expiry, or a deadline the resilient path must enforce.
            let dt_done = self
                .active
                .iter()
                .map(|a| a.remaining / a.rate.max(1.0))
                .fold(f64::INFINITY, f64::min);
            let dt_arrival = if ptr < order.len() {
                (self.units[order[ptr]].arrival - now).max(0.0)
            } else {
                f64::INFINITY
            };
            let dt_fault = faults
                .next_transition_after(now)
                .map_or(f64::INFINITY, |t| (t - now).max(0.0));
            let dt_ready = self
                .waiting
                .iter()
                .map(|&u| self.units[u].ready_at - now)
                .filter(|&d| d > 1e-12)
                .fold(f64::INFINITY, f64::min);
            let dt_deadline = if res.is_some() {
                self.active
                    .iter()
                    .filter_map(|a| self.units[a.unit].deadline_at)
                    .map(|d| d - now)
                    .filter(|&d| d > 1e-9)
                    .fold(f64::INFINITY, f64::min)
            } else {
                f64::INFINITY
            };
            let dt_token = self.buckets.as_ref().map_or(f64::INFINITY, |bk| {
                self.waiting
                    .iter()
                    .filter(|&&u| self.units[u].ready_at <= now + 1e-12)
                    .map(|&u| bk.seconds_until_ready(&self.units[u].charges, self.units[u].side))
                    .filter(|&d| d > 1e-12)
                    .fold(f64::INFINITY, f64::min)
            });
            let dt_breaker = self
                .breakers
                .iter()
                .filter_map(CircuitBreaker::next_transition)
                .map(|t| t - now)
                .filter(|&d| d > 1e-12)
                .fold(f64::INFINITY, f64::min);
            let mut dt = dt_done
                .min(dt_arrival)
                .min(dt_fault)
                .min(dt_ready)
                .min(dt_deadline)
                .min(dt_token)
                .min(dt_breaker);
            debug_assert!(dt.is_finite(), "event loop must always have a next event");
            // A power loss inside the step truncates it to the loss instant.
            let loss = faults.power_losses_in(now, now + dt).into_iter().next();
            if let Some((t, _)) = loss {
                dt = (t - now).max(0.0);
            }
            // So does a media error landing inside the (possibly already
            // truncated) step — it may precede the power loss.
            let media = faults.media_errors_in(now, now + dt).into_iter().next();
            if let Some(m) = &media {
                dt = (m.at - now).max(0.0);
            }

            let busy = |side| self.active.iter().any(|a| self.units[a.unit].side == side);
            let (reading, writing) = (busy(Side::Read), busy(Side::Write));
            let out = &mut self.out;
            if reading {
                out.read_busy += dt;
            }
            if writing {
                out.write_busy += dt;
            }
            if fstate.is_degraded() && !self.active.is_empty() {
                out.degraded_seconds += dt;
            }
            if brownout_active {
                out.brownout_seconds += dt;
                if config.hot_tier.is_some() && !self.active.is_empty() {
                    out.tier_shrunk_seconds += dt;
                }
            }
            self.now += dt;
            let now = self.now;
            if let Some(bk) = self.buckets.as_mut() {
                bk.refill(dt);
            }
            for run in &mut self.active {
                let progressed = run.rate * dt;
                run.remaining -= progressed;
                let unit = &self.units[run.unit];
                if unit.side == Side::Read {
                    self.out.tier_hit_bytes += (progressed * hit(unit)) as u64;
                }
            }
            while let Some(u) = self.take_active(|run, _| run.remaining <= DONE_EPSILON) {
                let unit = &self.units[u];
                match unit.side {
                    Side::Read => self.out.read_bytes_moved += unit.bytes,
                    Side::Write => self.out.write_bytes_moved += unit.bytes,
                }
                // A completion is a deadline outcome the socket's breaker
                // learns from.
                if let Some(d) = unit.deadline_at {
                    if let Some(b) = self.breakers.get_mut(usize::from(unit.socket.0)) {
                        b.record(now > d + 1e-9, now);
                    }
                }
                self.end(u, JobOutcome::Completed, now);
            }

            // The power loss lands exactly at `now`: everything mid-flight
            // on that socket loses its progress. The resilient path retries
            // (usually onto the healthy peer); the baseline grinds the job
            // from scratch at whatever rate the faults leave it.
            if let Some((_, lost)) = loss.filter(|&(t, _)| t <= now + 1e-9) {
                self.out.power_loss_events += 1;
                if let Some(policy) = res {
                    while let Some(u) = self.take_active(|_, unit| unit.socket == lost) {
                        self.requeue(u, &policy, JobOutcome::Failed);
                    }
                } else {
                    for run in &mut self.active {
                        let unit = &self.units[run.unit];
                        if unit.socket == lost {
                            run.remaining = unit.bytes as f64;
                        }
                    }
                }
            }

            // The media error lands exactly at `now`: an uncorrectable
            // poisoned XPLine range on one socket. The protected path
            // quarantines the socket for one repair window (the scrubber
            // rebuilds the poisoned blocks from the durable mirror) and
            // requeues whatever was running there; the baseline's scans
            // consume the poison and die on the spot.
            if let Some(m) = media.filter(|m| m.at <= now + 1e-9) {
                if let Some(policy) = res {
                    let lift = now + policy.media_repair_seconds.max(0.0);
                    let q = self.quarantine.entry(m.socket.0).or_insert(0.0);
                    *q = q.max(lift);
                    self.out.repaired += 1;
                    // Jobs already queued for this socket sit out the
                    // repair window too.
                    for &w in &self.waiting {
                        let unit = &mut self.units[w];
                        if unit.socket == m.socket && unit.ready_at < lift {
                            unit.ready_at = lift;
                        }
                    }
                }
                while let Some(u) = self.take_active(|_, unit| unit.socket == m.socket) {
                    if let Some(policy) = res {
                        self.out.quarantined += 1;
                        self.requeue(u, &policy, JobOutcome::Shed(ShedReason::Unrepairable));
                    } else {
                        self.end(u, JobOutcome::Failed, now);
                    }
                }
            }
        }

        self.out.makespan = self.now;
        // Every exit goes through `end`, which hands a retried unit's
        // retry-budget slot back; a leak here starves later retries.
        debug_assert_eq!(
            self.ledger.outstanding(),
            0,
            "retry ledger must drain by loop exit"
        );
        self.out.breaker_trips = self.breakers.iter().map(|b| b.trips).sum();
        self.out.retry_budget_denied = self.ledger.denied;
        self.out
    }

    /// Unit `u` arrives at the door. Bounded ingress: an arrival past its
    /// tenant's queue cap is refused here, before it costs queue space or
    /// device time — the typed [`ShedReason::QueueFull`] refusal, stamped
    /// at its arrival. With SLO classes on, a full line evicts its worst
    /// queued unit of a strictly lower class instead of refusing a
    /// higher-class arrival: the shed lands on best-effort headroom first.
    /// An arrival routed to a quarantined socket sits out the repair
    /// window before it becomes admissible.
    fn arrive(&mut self, u: usize) {
        let (overload, slo) = (self.config.overload, self.config.slo);
        let units = &*self.units;
        let tenant = units[u].tenant;
        let depth = || {
            self.waiting
                .iter()
                .filter(|&&w| units[w].tenant == tenant)
                .count() as u32
        };
        if overload.is_some_and(|o| o.queue_cap > 0 && depth() >= o.queue_cap) {
            let victim = self
                .waiting
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, w)| {
                    slo.is_some() && units[w].tenant == tenant && units[w].class > units[u].class
                })
                .max_by(|&(pa, a), &(pb, b)| {
                    // Worst class first; most slack (latest deadline, None
                    // = infinite) breaks ties; queue position last.
                    units[a]
                        .class
                        .cmp(&units[b].class)
                        .then(
                            units[a]
                                .deadline_at
                                .unwrap_or(f64::INFINITY)
                                .total_cmp(&units[b].deadline_at.unwrap_or(f64::INFINITY)),
                        )
                        .then(pa.cmp(&pb))
                });
            let full = JobOutcome::Shed(ShedReason::QueueFull);
            let Some((pos, w)) = victim else {
                return self.end(u, full, units[u].arrival);
            };
            self.waiting.remove(pos);
            self.end(w, full, self.now);
        }
        if self.config.resilience.is_some() {
            let unit = &mut self.units[u];
            if let Some(&lift) = self.quarantine.get(&unit.socket.0) {
                unit.ready_at = unit.ready_at.max(lift);
            }
        }
        self.waiting.push(u);
    }

    /// Why unit `u` must wait before it is even priced for admission.
    /// Circuit breakers: an Open socket admits nothing — an unpinned unit
    /// re-routes to the first socket neither open nor under a media
    /// quarantine that has yet to lift, a pinned one queues — and a
    /// Half-Open socket takes exactly one probe at a time, whose outcome
    /// decides re-open vs close. Tenant fairness: every member tenant must
    /// hold tokens.
    fn held(&mut self, u: usize) -> Option<QueueReason> {
        let state = |s: SocketId| {
            self.breakers
                .get(usize::from(s.0))
                .map(CircuitBreaker::state)
        };
        let repairing = |s: SocketId| self.quarantine.get(&s.0).is_some_and(|&l| l > self.now);
        let unit = &mut self.units[u];
        if state(unit.socket) == Some(BreakerState::Open) {
            let alt = (0..self.sockets)
                .map(SocketId)
                .find(|&s| state(s) != Some(BreakerState::Open) && !repairing(s));
            match alt.filter(|_| !unit.pinned) {
                Some(s) => unit.socket = s,
                None => return Some(QueueReason::CircuitOpen),
            }
        }
        let units = &*self.units;
        let socket = units[u].socket;
        if state(socket) == Some(BreakerState::HalfOpen)
            && self.active.iter().any(|a| units[a.unit].socket == socket)
        {
            return Some(QueueReason::CircuitOpen);
        }
        let throttled = self
            .buckets
            .as_ref()
            .is_some_and(|bk| !bk.ready(&units[u].charges, units[u].side));
        throttled.then_some(QueueReason::TenantThrottle)
    }

    /// Record `verdict` for unit `u` now, unless it repeats the unit's
    /// last one.
    fn note(&mut self, u: usize, verdict: Verdict) {
        let verdicts = &mut self.units[u].verdicts;
        if verdicts.last().map(|&(_, v)| v) != Some(verdict) {
            verdicts.push((self.now, verdict));
        }
    }

    /// Admit the unit at queue position `pos` now: charge its tenants'
    /// buckets and put it on the device.
    fn admit(&mut self, pos: usize) {
        let u = self.waiting.remove(pos);
        let unit = &mut self.units[u];
        unit.admitted_at = self.now;
        if let Some(bk) = self.buckets.as_mut() {
            bk.charge(&unit.charges, unit.side);
        }
        self.active.push(ActiveRun {
            unit: u,
            remaining: unit.bytes as f64,
            rate: 0.0,
        });
    }

    /// Cancel-and-retry for a unit just taken off the device: it retries
    /// after a jittered backoff, with a re-armed working deadline, on the
    /// socket it can be admitted on soonest — every retry waits out a
    /// media quarantine, whatever cancelled it; pinned units keep their
    /// socket. A fresh unit's first retry must clear the global retry
    /// budget ([`ShedReason::RetryBudget`] otherwise), and a unit whose
    /// retries are exhausted under `res` ends with `exhausted`.
    fn requeue(&mut self, u: usize, res: &ResiliencePolicy, exhausted: JobOutcome) {
        let now = self.now;
        let retries = self.units[u].retries;
        if retries >= res.max_retries {
            return self.end(u, exhausted, now);
        }
        if let Some(overload) = self.config.overload.filter(|_| retries == 0) {
            if !self.ledger.try_start(&overload, self.fresh_in_flight()) {
                return self.end(u, JobOutcome::Shed(ShedReason::RetryBudget), now);
            }
        }
        let unit = &mut self.units[u];
        unit.retries += 1;
        let backoff_end = now + res.jittered_backoff_before(unit.retries, u as u64);
        if !unit.pinned {
            let state = self.config.faults.state_at(self.machine, backoff_end);
            unit.socket = soonest_socket(
                &state,
                &self.quarantine,
                unit.side,
                unit.socket,
                backoff_end,
                self.sockets,
            );
        }
        let lift = self.quarantine.get(&unit.socket.0).copied().unwrap_or(0.0);
        unit.ready_at = lift.max(backoff_end);
        unit.deadline_at = unit.deadline_rel.map(|d| unit.ready_at + d);
        self.waiting.push(u);
    }

    /// Unit `u` leaves the loop with `outcome`, finishing at `at`: the one
    /// exit every completion, failure and shed goes through. A shed
    /// records its verdict now; a never-admitted unit counts as admitted
    /// at `at`; a retried unit hands its retry-budget slot back.
    fn end(&mut self, u: usize, outcome: JobOutcome, at: f64) {
        let unit = &mut self.units[u];
        if let JobOutcome::Shed(reason) = outcome {
            unit.verdicts.push((self.now, Verdict::Shed { reason }));
        }
        unit.outcome = outcome;
        if unit.admitted_at.is_nan() {
            unit.admitted_at = at;
        }
        unit.finished_at = at;
        if unit.retries > 0 {
            self.ledger.release();
        }
    }

    /// Take the first running unit `hit` selects off the device.
    fn take_active(&mut self, hit: impl Fn(&ActiveRun, &Unit) -> bool) -> Option<usize> {
        let k = self
            .active
            .iter()
            .position(|run| hit(run, &self.units[run.unit]))?;
        Some(self.active.swap_remove(k).unit)
    }

    /// Fresh (never-retried) units still in flight — the denominator the
    /// retry budget scales with.
    fn fresh_in_flight(&self) -> u32 {
        self.waiting
            .iter()
            .copied()
            .chain(self.active.iter().map(|a| a.unit))
            .filter(|&u| self.units[u].retries == 0)
            .count() as u32
    }

    /// The active reader/writer threads and outstanding bytes on a socket.
    fn load(&self, socket: SocketId) -> SocketLoad {
        let mut load = SocketLoad::default();
        for run in &self.active {
            let unit = &self.units[run.unit];
            if unit.socket != socket {
                continue;
            }
            match unit.side {
                Side::Read => {
                    load.reader_threads += unit.threads;
                    load.read_bytes += run.remaining as u64;
                }
                Side::Write => {
                    load.writer_threads += unit.threads;
                    load.write_bytes += run.remaining as u64;
                }
            }
        }
        load
    }

    /// Per-thread `(read, write, DRAM read)` rates of `socket`'s admitted
    /// mix. Each lane prices the mix on the Figure 11 surface under the
    /// socket's fault state; a degraded UPI link additionally taxes
    /// unpinned threads, whose placement makes roughly half their traffic
    /// cross the link. The DRAM lane is priced only with a hot tier on.
    fn price(&self, socket: SocketId, fstate: &MachineFaultState) -> (f64, f64, f64) {
        let load = self.load(socket);
        let pinning = self.config.pinning;
        let lane = |device| {
            let mut spec = MixedSpec::paper(device, load.writer_threads, load.reader_threads);
            spec.pinning = pinning;
            let mut eval = self
                .planner
                .simulation()
                .evaluate_mixed_degraded(&spec, &fstate.socket(socket));
            if pinning == Pinning::None && fstate.upi_scale < 1.0 {
                let haircut = 0.5 + 0.5 * fstate.upi_scale;
                eval.read = eval.read.degrade(haircut);
                eval.write = eval.write.degrade(haircut);
            }
            eval
        };
        let per_thread = |bw: Bandwidth, threads: u32| {
            if threads > 0 {
                bw.bytes_per_sec() / threads as f64
            } else {
                0.0
            }
        };
        let pmem = lane(self.device);
        let dram_read = if self.config.hot_tier.is_some() && load.reader_threads > 0 {
            per_thread(lane(DeviceClass::Dram).read, load.reader_threads)
        } else {
            0.0
        };
        (
            per_thread(pmem.read, load.reader_threads),
            per_thread(pmem.write, load.writer_threads),
            dram_read,
        )
    }
}

#[derive(Debug, Default)]
struct LoopOutput {
    makespan: f64,
    read_busy: f64,
    write_busy: f64,
    read_bytes_moved: u64,
    write_bytes_moved: u64,
    peak_readers: u32,
    peak_writers: u32,
    replan_events: u32,
    power_loss_events: u32,
    degraded_seconds: f64,
    quarantined: u32,
    repaired: u32,
    breaker_trips: u32,
    retry_budget_denied: u32,
    brownout_seconds: f64,
    /// Read bytes the DRAM hot tier served (rate-weighted by hit rate).
    tier_hit_bytes: u64,
    /// Seconds the brownout ladder ran with the tier shrunk.
    tier_shrunk_seconds: f64,
}

impl LoopOutput {
    /// Share of the read bytes the hot tier served.
    fn tier_hit_rate(&self) -> f64 {
        self.tier_hit_bytes as f64 / self.read_bytes_moved.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::overload::BreakerConfig;
    use pmem_ssb::{EngineMode, QueryId, StorageDevice};

    fn store() -> SsbStore {
        SsbStore::generate_and_load(0.005, 99, EngineMode::Aware, StorageDevice::PmemFsdax)
            .expect("store loads")
    }

    #[test]
    fn every_job_finishes_with_accounting() {
        let store = store();
        let mut server = QueryServer::new(&store, ServeConfig::scheduled(server_planner()));
        server.submit_all([
            JobSpec::query(QueryId::Q1_1).threads(4),
            JobSpec::query(QueryId::Q2_2).threads(4).arrival(0.001),
            JobSpec::ingest(32 << 20).threads(2).arrival(0.002),
            JobSpec::query(QueryId::Q4_1).threads(4).arrival(0.003),
        ]);
        let report = server.run().expect("run succeeds");
        assert_eq!(report.jobs.len(), 4);
        assert!(report.makespan > 0.0);
        for job in &report.jobs {
            assert!(job.finished_at.is_finite(), "{} finished", job.id);
            assert!(job.exec_seconds > 0.0, "{} took time", job.id);
            assert!(job.queue_wait_seconds >= 0.0);
            assert!(job.bytes > 0);
            assert!(
                job.stats.app_read_bytes + job.stats.app_write_bytes > 0,
                "{} has device stats",
                job.id
            );
        }
        let queries = report.jobs.iter().filter(|j| j.side == Side::Read);
        for q in queries {
            assert!(q.counters.expect("queries carry counters").tuples_scanned > 0);
        }
        assert!(report.read_bytes_moved > 0);
        assert!(report.write_bytes_moved >= 32 << 20);
    }

    #[test]
    fn servers_are_reusable_across_runs() {
        let store = store();
        let mut server = QueryServer::new(&store, ServeConfig::free_for_all());
        let spec = JobSpec::query(QueryId::Q1_3).threads(2);
        server.submit(spec);
        let first = server.run().expect("first run");
        assert_eq!(server.pending_jobs(), 0);
        server.submit(spec);
        server.submit(spec);
        let second = server.run().expect("second run");
        assert_eq!(first.jobs.len(), 1);
        assert_eq!(second.jobs.len(), 2);
        // Fresh ids across runs.
        assert!(second.jobs.iter().all(|j| j.id > first.jobs[0].id));
    }

    #[test]
    fn explicit_socket_pins_are_honored() {
        let store = store();
        let mut server = QueryServer::new(&store, ServeConfig::scheduled(server_planner()));
        let a = server.submit(JobSpec::query(QueryId::Q1_1).socket(SocketId(1)));
        let b = server.submit(JobSpec::ingest(8 << 20).socket(SocketId(0)));
        let report = server.run().expect("run");
        let find = |id| {
            report
                .jobs
                .iter()
                .find(|j| j.id == id)
                .expect("submitted job is reported")
        };
        assert_eq!(find(a).socket, SocketId(1));
        assert_eq!(find(b).socket, SocketId(0));
    }

    fn server_planner() -> &'static AccessPlanner {
        use std::sync::OnceLock;
        static PLANNER: OnceLock<AccessPlanner> = OnceLock::new();
        PLANNER.get_or_init(AccessPlanner::paper_default)
    }

    /// One uncorrectable media error at `at` on `socket`.
    fn media_plan(at: f64, socket: u8) -> FaultPlan {
        FaultPlan::from_events(vec![pmem_sim::faults::FaultEvent {
            start: at,
            end: at,
            kind: pmem_sim::faults::FaultKind::MediaError {
                socket: SocketId(socket),
                offset: 4096,
                lines: 4,
            },
        }])
    }

    /// A long-running write pinned to socket 0 plus a query, so something
    /// is guaranteed to be active when the media error lands.
    fn media_jobs() -> [JobSpec; 2] {
        [
            JobSpec::ingest(64 << 20).threads(2).socket(SocketId(0)),
            JobSpec::query(QueryId::Q1_1).threads(4).socket(SocketId(0)),
        ]
    }

    #[test]
    fn media_error_kills_active_jobs_without_protection() {
        let store = store();
        let config = ServeConfig::scheduled(server_planner()).with_faults(media_plan(0.0005, 0));
        let mut server = QueryServer::new(&store, config);
        server.submit_all(media_jobs());
        let report = server.run().expect("run");
        assert!(
            report.jobs.iter().any(|j| j.outcome == JobOutcome::Failed),
            "baseline scans consume the poison and die"
        );
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.health, ServeHealth::Degraded);
    }

    #[test]
    fn media_error_is_quarantined_repaired_and_retried_with_protection() {
        let store = store();
        let config = ServeConfig::scheduled(server_planner())
            .with_faults(media_plan(0.0005, 0))
            .with_resilience(ResiliencePolicy::paper());
        let mut server = QueryServer::new(&store, config);
        server.submit_all(media_jobs());
        let report = server.run().expect("run");
        for job in &report.jobs {
            assert!(
                job.outcome.is_completed(),
                "{} must complete after repair, got {:?}",
                job.id,
                job.outcome
            );
        }
        assert_eq!(report.repaired, 1, "one repair window for one hit");
        assert!(report.quarantined >= 1, "the active unit was re-queued");
        assert!(report.jobs.iter().any(|j| j.retries > 0));
        assert_eq!(report.health, ServeHealth::Degraded);
        // Pinned jobs must wait out the repair window before re-admission.
        let victim = report
            .jobs
            .iter()
            .find(|j| j.retries > 0)
            .expect("a job retried");
        assert!(
            victim.finished_at >= 0.0005 + ResiliencePolicy::paper().media_repair_seconds - 1e-9,
            "retry cannot land before the quarantine lifts"
        );
    }

    #[test]
    fn every_retry_waits_out_the_media_quarantine() {
        // Socket 1 write-throttles to 5%, so the ingest routed there blows
        // its deadline while socket 0 is under repair; the deadline retry
        // must not be re-routed onto socket 0 before the repair ends.
        let (media_at, repair) = (0.001, 0.5);
        let mut events = media_plan(media_at, 0).events().to_vec();
        events.push(pmem_sim::faults::FaultEvent {
            start: 0.0005,
            end: 1.0,
            kind: pmem_sim::faults::FaultKind::WriteThrottle {
                socket: SocketId(1),
                factor: 0.05,
            },
        });
        let config = ServeConfig::scheduled(server_planner())
            .with_faults(FaultPlan::from_events(events))
            .with_resilience(ResiliencePolicy {
                media_repair_seconds: repair,
                ..ResiliencePolicy::paper()
            });
        let store = store();
        let mut server = QueryServer::new(&store, config);
        server.submit_all([JobSpec::ingest(32 << 20).threads(2).deadline(0.03); 2]);
        let report = server.run().expect("run");
        assert!(report.jobs.iter().any(|j| j.retries > 0), "a job retried");
        for job in &report.jobs {
            if job.socket == SocketId(0) && job.finished_at > media_at {
                assert!(
                    job.finished_at >= media_at + repair - 1e-9,
                    "{} ran on socket 0 inside its repair window, finishing at {}",
                    job.id,
                    job.finished_at
                );
            }
        }
    }

    #[test]
    fn a_breaker_reroute_waits_out_the_media_quarantine() {
        // Socket 0 write-throttles to 5%, so its pinned ingests blow their
        // deadlines and trip its breaker while socket 1 is under repair;
        // the unpinned ingests the Open breaker turns away must not be
        // re-routed onto socket 1 before its repair ends.
        let (media_at, repair) = (0.001, 0.5);
        let mut events = media_plan(media_at, 1).events().to_vec();
        events.push(pmem_sim::faults::FaultEvent {
            start: 0.0005,
            end: 1.0,
            kind: pmem_sim::faults::FaultKind::WriteThrottle {
                socket: SocketId(0),
                factor: 0.05,
            },
        });
        let overload = OverloadPolicy {
            breaker: BreakerConfig {
                window: 4,
                min_samples: 2,
                ..BreakerConfig::default_on()
            },
            ..OverloadPolicy::surge()
        };
        let config = ServeConfig::scheduled(server_planner())
            .with_faults(FaultPlan::from_events(events))
            .with_overload(overload)
            .with_resilience(ResiliencePolicy {
                media_repair_seconds: repair,
                ..ResiliencePolicy::paper()
            });
        let store = store();
        let mut server = QueryServer::new(&store, config);
        let pinned = JobSpec::ingest(64 << 20)
            .threads(2)
            .socket(SocketId(0))
            .deadline(0.03);
        server.submit_all([pinned; 3]);
        server.submit_all([JobSpec::ingest(16 << 20).threads(2); 2]);
        let report = server.run().expect("run");
        assert!(report.breaker_trips > 0, "socket 0's breaker tripped");
        for job in &report.jobs {
            let inside = |t: f64| t > media_at && t < media_at + repair - 1e-9;
            assert!(
                job.socket != SocketId(1) || !inside(job.finished_at),
                "{} ran on socket 1 inside its repair window ({} -> {})",
                job.id,
                job.admitted_at,
                job.finished_at
            );
        }
    }

    #[test]
    fn exhausted_media_retries_shed_as_unrepairable() {
        let store = store();
        let mut policy = ResiliencePolicy::paper();
        policy.max_retries = 0;
        let config = ServeConfig::scheduled(server_planner())
            .with_faults(media_plan(0.0005, 0))
            .with_resilience(policy);
        let mut server = QueryServer::new(&store, config);
        server.submit_all(media_jobs());
        let report = server.run().expect("run");
        let shed: Vec<_> = report
            .jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Shed(ShedReason::Unrepairable))
            .collect();
        assert!(!shed.is_empty(), "no retry budget: the victim is shed");
        for job in shed {
            assert_eq!(job.outcome.label(), "shed/media");
            assert!(!job.met_deadline());
        }
        assert!(report.repaired >= 1, "the socket itself is still repaired");
    }
}
