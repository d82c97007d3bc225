//! The query server: admission, batching, socket routing, and a
//! virtual-time execution loop priced by the bandwidth model.
//!
//! Execution happens on two planes. The *real* plane runs each distinct
//! query of a run once ([`pmem_ssb::run_query`]) to obtain its result
//! rows, operator counters, and measured traffic. The *virtual* plane
//! replays the jobs through a discrete-event loop: at every instant each
//! socket's admitted reader/writer thread mix determines the progress
//! rates via [`Simulation::evaluate_mixed`] (the Figure 11 surface), and
//! the admission controller decides who may join the mix. Queue waits,
//! execution times, and bandwidth figures all come from the virtual plane;
//! rows and counters from the real one.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use pmem_olap::planner::{AccessPlanner, ConcurrencyBudget};
use pmem_sim::faults::FaultPlan;
use pmem_sim::sched::Pinning;
use pmem_sim::stats::SimStats;
use pmem_sim::topology::{Machine, SocketId};
use pmem_sim::workload::{MixedSpec, WorkloadSpec};
use pmem_sim::{tiered_rate, Bandwidth};
use pmem_ssb::{run_query, QueryId, QueryOutcome, SsbStore};
use pmem_store::Result;

use crate::admission::{AdmissionController, AdmissionPolicy, QueueReason, ShedReason, Verdict};
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
use crate::tier::{self, HotTierPolicy, SocketDemand};

/// Bytes below which a unit counts as finished (float-remainder guard).
const DONE_EPSILON: f64 = 0.5;

/// Server configuration.
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
    pub resilience: ResiliencePolicy,
    /// Weighted-fair tenant admission (token buckets).
    pub fairness: FairnessPolicy,
    /// Overload control: bounded queues, retry budget, breakers, brownout.
    pub overload: OverloadPolicy,
    /// Open-loop arrival plan; when set, [`QueryServer::run`] generates
    /// and submits the whole timeline itself (every run replays it).
    pub open_loop: Option<OpenLoopPlan>,
    /// Derive the shared-scan window from the observed scan inter-arrival
    /// rate instead of the fixed `batch_window`.
    pub adaptive_batch: bool,
    /// Ceiling on the adaptive (and brownout-widened) coalescing window.
    pub batch_window_max: f64,
    /// DRAM hot tier pricing reads (disabled = pure-PMEM reads).
    pub hot_tier: HotTierPolicy,
    /// SLO classes: EDF-within-class admission bands, class-aware ingress
    /// eviction, brownout shielding, per-class default deadlines.
    pub slo: SloPolicy,
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
            resilience: ResiliencePolicy::disabled(),
            fairness: FairnessPolicy::disabled(),
            overload: OverloadPolicy::disabled(),
            open_loop: None,
            adaptive_batch: false,
            batch_window_max: 0.040,
            hot_tier: HotTierPolicy::disabled(),
            slo: SloPolicy::disabled(),
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
            .with_adaptive_batching(0.040)
    }

    /// Replay an injected fault schedule during the virtual plane.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enable (or reconfigure) graceful degradation.
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// Enable (or reconfigure) overload control.
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Enable (or reconfigure) weighted-fair tenant admission.
    pub fn with_fairness(mut self, fairness: FairnessPolicy) -> Self {
        self.fairness = fairness;
        self
    }

    /// Drive runs from an open-loop arrival plan instead of explicit
    /// submissions.
    pub fn with_open_loop(mut self, plan: OpenLoopPlan) -> Self {
        self.open_loop = Some(plan);
        self
    }

    /// Derive the shared-scan window from the observed inter-arrival
    /// rate, capped at `max_window` seconds.
    pub fn with_adaptive_batching(mut self, max_window: f64) -> Self {
        self.adaptive_batch = true;
        self.batch_window_max = max_window.max(0.0);
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
            resilience: ResiliencePolicy::disabled(),
            fairness: FairnessPolicy::disabled(),
            overload: OverloadPolicy::disabled(),
            open_loop: None,
            adaptive_batch: false,
            batch_window_max: 0.040,
            hot_tier: HotTierPolicy::disabled(),
            slo: SloPolicy::disabled(),
        }
    }

    /// Price reads through a DRAM hot tier with `policy`.
    pub fn with_hot_tier(mut self, policy: HotTierPolicy) -> Self {
        self.hot_tier = policy;
        self
    }

    /// Enable (or reconfigure) SLO classes: class-banded EDF admission,
    /// class-aware ingress eviction, and brownout shielding.
    pub fn with_slo_classes(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
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
        if self.config.resilience.enabled && !self.config.faults.is_empty() {
            let machine = self.planner.simulation().params().machine.clone();
            let state = self.config.faults.state_at(&machine, spec.arrival);
            let side = spec.kind.side();
            let mut best = rr;
            let mut best_scale = side_scale(state.socket(rr), side);
            for s in 0..sockets {
                let scale = side_scale(state.socket(SocketId(s)), side);
                if scale > best_scale + 1e-9 {
                    best = SocketId(s);
                    best_scale = scale;
                }
            }
            return best;
        }
        rr
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
            ScanBatcher::adaptive(&arrivals, self.config.batch_window_max)
        } else {
            ScanBatcher::new(self.config.batch_window)
        };
        let brown = self.config.overload.brownout;
        if self.config.overload.enabled && brown.enabled && scan_infos.len() >= 2 {
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
                    (batcher.window * brown.batch_widen.max(1.0))
                        .min(self.config.batch_window_max.max(batcher.window)),
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
            // default filling any gap once the SLO policy is enabled.
            let eff = |m: &ScanJobInfo| {
                let spec = &routed[m.id.0 as usize].1;
                self.config
                    .slo
                    .effective_deadline(spec.class, spec.deadline)
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
                let eff = self
                    .config
                    .slo
                    .effective_deadline(spec.class, spec.deadline);
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
        let tier_cfg = self.config.hot_tier;
        let tier_state = tier_cfg.enabled.then(|| {
            let demands = self.socket_demands(&scan_infos);
            let full = tier::assign(&demands, tier_cfg.zipf_theta, tier_cfg.dram_budget);
            let shrunk = tier::assign(&demands, tier_cfg.zipf_theta, tier_cfg.shrunken_budget());
            for unit in units.iter_mut().filter(|u| u.side == Side::Read) {
                unit.hit_rate = full.hit(unit.socket.0);
                unit.hit_rate_browned = shrunk.hit(unit.socket.0);
            }
            // Pristine copies replay the loop at scaled budgets for the
            // hit-rate-vs-latency curve.
            (demands, full, units.clone())
        });

        // ---- Virtual plane: discrete-event loop ----
        let loop_out = self.event_loop(&mut units);

        // ---- Hot-tier report: observed hits plus the budget curve ----
        let hot_tier = tier_state.map(|(demands, assignment, pristine)| {
            let curve = [0.0, 0.25, 0.5, 0.75, 1.0]
                .iter()
                .map(|&scale| {
                    let budget = (tier_cfg.dram_budget as f64 * scale) as u64;
                    let point = tier::assign(&demands, tier_cfg.zipf_theta, budget);
                    let browned = tier::assign(
                        &demands,
                        tier_cfg.zipf_theta,
                        (budget as f64 * tier_cfg.brownout_shrink.clamp(0.0, 1.0)) as u64,
                    );
                    let mut probe = pristine.clone();
                    for unit in probe.iter_mut().filter(|u| u.side == Side::Read) {
                        unit.hit_rate = point.hit(unit.socket.0);
                        unit.hit_rate_browned = browned.hit(unit.socket.0);
                    }
                    let o = self.event_loop(&mut probe);
                    let e2e: Vec<f64> = probe
                        .iter()
                        .filter(|u| u.outcome.is_completed())
                        .map(|u| (u.finished_at - u.arrival).max(0.0))
                        .collect();
                    let p = Percentiles::of(&e2e);
                    let moved = o.read_bytes_moved + o.write_bytes_moved;
                    TierCurvePoint {
                        budget_scale: scale,
                        budget_bytes: budget,
                        hit_rate: o.tier_hit_bytes as f64 / o.read_bytes_moved.max(1) as f64,
                        goodput_gib_s: if o.makespan > 0.0 {
                            moved as f64 / ((1u64 << 30) as f64) / o.makespan
                        } else {
                            0.0
                        },
                        e2e_p50: p.p50,
                        e2e_p99: p.p99,
                    }
                })
                .collect();
            HotTierReport {
                dram_budget: tier_cfg.dram_budget,
                admitted_bytes: assignment.admitted_bytes,
                hit_bytes: loop_out.tier_hit_bytes,
                hit_rate: loop_out.tier_hit_bytes as f64 / loop_out.read_bytes_moved.max(1) as f64,
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
                    .slo
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
        let sim = self.planner.simulation();
        let device = self.store.device.device_class();
        let controller = AdmissionController::new(self.config.admission);
        let machine = sim.params().machine.clone();
        let faults = &self.config.faults;
        let res = self.config.resilience;
        let overload = self.config.overload;
        let slo = self.config.slo;
        let sockets = self.planner.sockets().max(1);
        // With no re-planning in force the effective caps are exactly the
        // policy caps (decide_with_caps takes the min of the two).
        let policy_caps = ConcurrencyBudget {
            reader_threads: self.config.admission.reader_cap,
            writer_threads: self.config.admission.writer_cap,
        };

        // Weighted-fair tenant buckets over every tenant in the workload,
        // with open-loop plan weights folded in under explicit ones.
        let mut buckets: Option<TenantBuckets> = if self.config.fairness.enabled {
            let mut policy = self.config.fairness.clone();
            if let Some(plan) = &self.config.open_loop {
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
            Some(TenantBuckets::new(&policy, &self.planner, &tenants))
        } else {
            None
        };
        // One deadline-miss circuit breaker per socket.
        let mut breakers: HashMap<u8, CircuitBreaker> = HashMap::new();
        if overload.enabled && overload.breaker.enabled {
            for s in 0..sockets {
                breakers.insert(s, CircuitBreaker::new(overload.breaker));
            }
        }
        let mut ledger = RetryLedger::default();
        // Reader budget in force while browned out.
        let browned_caps = (overload.enabled && overload.brownout.enabled).then(|| {
            self.planner
                .degraded_budget(overload.brownout.reader_scale, 1.0)
        });

        // Optimistic solo execution time per unit on a healthy machine:
        // prices the "can this still make its deadline at all?" shed check.
        let min_exec: Vec<f64> = if res.enabled && res.shed_hopeless {
            units
                .iter()
                .map(|u| {
                    let mut spec = match u.side {
                        Side::Read => MixedSpec::paper(device, 0, u.threads),
                        Side::Write => MixedSpec::paper(device, u.threads, 0),
                    };
                    spec.pinning = self.config.pinning;
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

        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by(|&a, &b| {
            units[a]
                .arrival
                .total_cmp(&units[b].arrival)
                .then(a.cmp(&b))
        });

        let mut out = LoopOutput::default();
        let mut waiting: Vec<usize> = Vec::new();
        let mut active: Vec<ActiveRun> = Vec::new();
        let mut ptr = 0usize;
        let mut now = 0.0f64;
        let mut last_caps: HashMap<u8, ConcurrencyBudget> = HashMap::new();
        // Socket -> virtual time its media-error quarantine lifts.
        let mut quarantine: HashMap<u8, f64> = HashMap::new();

        loop {
            while ptr < order.len() && units[order[ptr]].arrival <= now + 1e-12 {
                let u = order[ptr];
                ptr += 1;
                // Bounded ingress: an arrival past its tenant's queue cap
                // is refused here, before it costs queue space or device
                // time — the typed [`ShedReason::QueueFull`] refusal. With
                // SLO classes on, a full line evicts its worst queued unit
                // of a strictly lower class instead of refusing a
                // higher-class arrival: the shed lands on best-effort
                // headroom first.
                if overload.enabled && overload.queue_cap > 0 {
                    let depth = waiting
                        .iter()
                        .filter(|&&w| units[w].tenant == units[u].tenant)
                        .count();
                    if depth as u32 >= overload.queue_cap {
                        let victim = if slo.enabled {
                            waiting
                                .iter()
                                .copied()
                                .enumerate()
                                .filter(|&(_, w)| {
                                    units[w].tenant == units[u].tenant
                                        && units[w].class > units[u].class
                                })
                                .max_by(|&(pa, a), &(pb, b)| {
                                    // Worst class first; most slack (latest
                                    // deadline, None = infinite) breaks
                                    // ties; queue position last.
                                    units[a]
                                        .class
                                        .cmp(&units[b].class)
                                        .then(
                                            units[a]
                                                .deadline_at
                                                .unwrap_or(f64::INFINITY)
                                                .total_cmp(
                                                    &units[b].deadline_at.unwrap_or(f64::INFINITY),
                                                ),
                                        )
                                        .then(pa.cmp(&pb))
                                })
                        } else {
                            None
                        };
                        let reason = ShedReason::QueueFull;
                        if let Some((pos, w)) = victim {
                            units[w].verdicts.push((now, Verdict::Shed { reason }));
                            units[w].outcome = JobOutcome::Shed(reason);
                            if units[w].admitted_at.is_nan() {
                                units[w].admitted_at = now;
                            }
                            units[w].finished_at = now;
                            if units[w].retries > 0 {
                                ledger.release();
                            }
                            waiting.remove(pos);
                        } else {
                            units[u].verdicts.push((now, Verdict::Shed { reason }));
                            units[u].outcome = JobOutcome::Shed(reason);
                            units[u].admitted_at = units[u].arrival;
                            units[u].finished_at = units[u].arrival;
                            continue;
                        }
                    }
                }
                // Arrivals routed to a quarantined socket sit out the
                // repair window before they become admissible.
                if res.enabled && res.repair_media {
                    if let Some(&lift) = quarantine.get(&units[u].socket.0) {
                        if lift > units[u].ready_at {
                            units[u].ready_at = lift;
                        }
                    }
                }
                waiting.push(u);
            }

            let fstate = faults.state_at(&machine, now);
            for s in 0..sockets {
                if let Some(b) = breakers.get_mut(&s) {
                    b.poll(now);
                }
            }
            // Brownout: tighten the reader budget while the waiting line
            // is deep — quality degrades before anything is shed.
            let brownout_active = overload.enabled
                && overload.brownout.enabled
                && waiting.len() >= overload.brownout.queue_high;

            // Deadline enforcement (resilient only): cancel active units
            // that blew their working deadline; retry with backoff on the
            // healthiest socket, or fail once retries are exhausted. Every
            // blown deadline feeds the socket's circuit breaker, and a
            // fresh unit's first retry must clear the global retry budget.
            if res.enabled {
                let mut k = 0;
                while k < active.len() {
                    let u = active[k].unit;
                    let blown = units[u].deadline_at.is_some_and(|d| now >= d - 1e-9);
                    if !blown {
                        k += 1;
                        continue;
                    }
                    active.swap_remove(k);
                    if let Some(b) = breakers.get_mut(&units[u].socket.0) {
                        b.record(true, now);
                    }
                    let fresh = fresh_in_flight(units, &waiting, &active);
                    if deny_first_retry(units, &mut ledger, &overload, &res, u, now, fresh) {
                        continue;
                    }
                    retry_or_fail(units, &mut waiting, u, now, &res, faults, &machine, sockets);
                    if !units[u].finished_at.is_nan() && units[u].retries > 0 {
                        ledger.release();
                    }
                }
            }

            // Shed pass: a queued job whose deadline is unreachable even at
            // the healthy solo rate gets a typed refusal now instead of
            // queueing into certain failure.
            if res.enabled && res.shed_hopeless {
                let mut i = 0;
                while i < waiting.len() {
                    let u = waiting[i];
                    let eligible = units[u].ready_at <= now + 1e-12;
                    let hopeless = eligible
                        && units[u]
                            .deadline_at
                            .is_some_and(|d| now + min_exec[u] > d + 1e-9);
                    if !hopeless {
                        i += 1;
                        continue;
                    }
                    let reason = if fstate.socket(units[u].socket).is_degraded() {
                        ShedReason::Degraded
                    } else {
                        ShedReason::Overloaded
                    };
                    units[u].verdicts.push((now, Verdict::Shed { reason }));
                    units[u].outcome = JobOutcome::Shed(reason);
                    units[u].admitted_at = now;
                    units[u].finished_at = now;
                    if units[u].retries > 0 {
                        ledger.release();
                    }
                    waiting.remove(i);
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
            let mut caps_by_socket: HashMap<u8, (ConcurrencyBudget, ConcurrencyBudget)> =
                HashMap::new();
            for s in 0..sockets {
                let sf = fstate.socket(SocketId(s));
                let drift = (1.0 - sf.read_scale).max(1.0 - sf.write_scale);
                let caps = if res.enabled && drift > res.replan_drift {
                    self.planner.degraded_budget(sf.read_scale, sf.write_scale)
                } else {
                    policy_caps
                };
                let prev = last_caps.insert(s, caps);
                if res.enabled && prev.unwrap_or(policy_caps) != caps {
                    out.replan_events += 1;
                }
                // Brownout tightening stacks on top of fault re-planning
                // but is not a replan event — it lifts with the queue.
                let mut browned = caps;
                if brownout_active {
                    if let Some(b) = browned_caps {
                        browned.reader_threads = browned.reader_threads.min(b.reader_threads);
                    }
                }
                caps_by_socket.insert(s, (caps, browned));
            }

            // Admission pass: FIFO with bypass — a queued unit does not
            // block later-arriving admissible ones. Units backing off
            // (ready_at in the future) are not yet eligible. With SLO
            // classes on, the queue is re-ordered earliest-deadline-first
            // within class bands before the pass: every interactive unit
            // is considered before any standard one, EDF inside each band.
            if slo.enabled {
                waiting.sort_by(|&a, &b| {
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
            while i < waiting.len() {
                let u = waiting[i];
                if units[u].ready_at > now + 1e-12 {
                    i += 1;
                    continue;
                }
                // Circuit breakers: an Open socket admits nothing —
                // unpinned units re-route to the first non-open socket,
                // pinned ones queue. A Half-Open socket takes exactly one
                // probe at a time; its outcome decides re-open vs close.
                if !breakers.is_empty() {
                    let state = |s: u8| breakers.get(&s).map(|b| b.state());
                    if state(units[u].socket.0) == Some(BreakerState::Open) {
                        let alt = (0..sockets).find(|&s| state(s) != Some(BreakerState::Open));
                        match (units[u].pinned, alt) {
                            (false, Some(s)) => units[u].socket = SocketId(s),
                            _ => {
                                let verdict = Verdict::Queued {
                                    reason: QueueReason::CircuitOpen,
                                };
                                if units[u].verdicts.last().map(|(_, v)| *v) != Some(verdict) {
                                    units[u].verdicts.push((now, verdict));
                                }
                                i += 1;
                                continue;
                            }
                        }
                    }
                    let socket = units[u].socket;
                    if state(socket.0) == Some(BreakerState::HalfOpen)
                        && active.iter().any(|a| units[a.unit].socket == socket)
                    {
                        let verdict = Verdict::Queued {
                            reason: QueueReason::CircuitOpen,
                        };
                        if units[u].verdicts.last().map(|(_, v)| *v) != Some(verdict) {
                            units[u].verdicts.push((now, verdict));
                        }
                        i += 1;
                        continue;
                    }
                }
                // Tenant fairness: every member tenant must hold tokens.
                if let Some(bk) = buckets.as_ref() {
                    if !bk.ready(&units[u].charges, units[u].side) {
                        let verdict = Verdict::Queued {
                            reason: QueueReason::TenantThrottle,
                        };
                        if units[u].verdicts.last().map(|(_, v)| *v) != Some(verdict) {
                            units[u].verdicts.push((now, verdict));
                        }
                        i += 1;
                        continue;
                    }
                }
                let socket = units[u].socket;
                let load = socket_load(units, &active, socket);
                let caps = caps_by_socket
                    .get(&socket.0)
                    .map(|&(plain, browned)| {
                        if slo.shielded(units[u].class) {
                            plain
                        } else {
                            browned
                        }
                    })
                    .unwrap_or(policy_caps);
                let verdict = controller.decide_with_caps(
                    &self.planner,
                    units[u].side,
                    units[u].threads,
                    units[u].bytes,
                    &load,
                    caps,
                );
                if units[u].verdicts.last().map(|(_, v)| *v) != Some(verdict) {
                    units[u].verdicts.push((now, verdict));
                }
                if verdict.is_admitted() {
                    units[u].admitted_at = now;
                    if let Some(bk) = buckets.as_mut() {
                        bk.charge(&units[u].charges, units[u].side);
                    }
                    active.push(ActiveRun {
                        unit: u,
                        remaining: units[u].bytes as f64,
                        rate: 0.0,
                    });
                    waiting.remove(i);
                    let after = socket_load(units, &active, socket);
                    out.peak_readers = out.peak_readers.max(after.reader_threads);
                    out.peak_writers = out.peak_writers.max(after.writer_threads);
                } else {
                    i += 1;
                }
            }

            if active.is_empty() {
                let next_ready = waiting
                    .iter()
                    .map(|&u| units[u].ready_at)
                    .filter(|&r| r > now + 1e-12)
                    .fold(f64::INFINITY, f64::min);
                // Token refills and breaker cooldowns lift on their own —
                // both are wake events an idle machine must sleep toward.
                let next_token = buckets.as_ref().map_or(f64::INFINITY, |bk| {
                    waiting
                        .iter()
                        .filter(|&&u| units[u].ready_at <= now + 1e-12)
                        .map(|&u| bk.seconds_until_ready(&units[u].charges, units[u].side))
                        .filter(|&d| d > 1e-12)
                        .map(|d| now + d)
                        .fold(f64::INFINITY, f64::min)
                });
                let next_breaker = (0..sockets)
                    .filter_map(|s| breakers.get(&s).and_then(|b| b.next_transition()))
                    .filter(|&t| t > now + 1e-12)
                    .fold(f64::INFINITY, f64::min);
                let wake = next_ready.min(next_token).min(next_breaker);
                if ptr < order.len() {
                    let target = units[order[ptr]].arrival.min(wake);
                    if let Some(bk) = buckets.as_mut() {
                        bk.refill((target - now).max(0.0));
                    }
                    now = target;
                    continue;
                }
                if wake.is_finite() {
                    if let Some(bk) = buckets.as_mut() {
                        bk.refill((wake - now).max(0.0));
                    }
                    now = wake;
                    continue;
                }
                if let Some(pos) = waiting
                    .iter()
                    .position(|&u| units[u].ready_at <= now + 1e-12)
                {
                    // Defensive: an idle machine always admits the head of
                    // the eligible queue; reaching here means a policy with
                    // caps below the (clamped) demand — run it alone anyway.
                    let u = waiting[pos];
                    units[u].verdicts.push((
                        now,
                        Verdict::Admitted {
                            readers: if units[u].side == Side::Read {
                                units[u].threads
                            } else {
                                0
                            },
                            writers: if units[u].side == Side::Write {
                                units[u].threads
                            } else {
                                0
                            },
                        },
                    ));
                    units[u].admitted_at = now;
                    if let Some(bk) = buckets.as_mut() {
                        bk.charge(&units[u].charges, units[u].side);
                    }
                    active.push(ActiveRun {
                        unit: u,
                        remaining: units[u].bytes as f64,
                        rate: 0.0,
                    });
                    waiting.remove(pos);
                    continue;
                }
                break;
            }

            // Rates: per socket, the admitted mix prices both sides; the
            // fault state scales each side's achievable bandwidth. A
            // degraded UPI link additionally taxes unpinned threads, whose
            // placement makes roughly half their traffic cross the link.
            // With a hot tier, the same mix is priced once more against
            // DRAM — each read unit's rate is then the harmonic blend of
            // the two lanes at its hit rate.
            let tier_on = self.config.hot_tier.enabled;
            let mut socket_rates: HashMap<u8, (f64, f64, f64)> = HashMap::new();
            for socket in active
                .iter()
                .map(|a| units[a.unit].socket)
                .collect::<std::collections::BTreeSet<_>>()
            {
                let load = socket_load(units, &active, socket);
                let mut spec = MixedSpec::paper(device, load.writer_threads, load.reader_threads);
                spec.pinning = self.config.pinning;
                let mut eval = sim.evaluate_mixed_degraded(&spec, &fstate.socket(socket));
                if self.config.pinning == Pinning::None && fstate.upi_scale < 1.0 {
                    let haircut = 0.5 + 0.5 * fstate.upi_scale;
                    eval.read = eval.read.degrade(haircut);
                    eval.write = eval.write.degrade(haircut);
                }
                let per_reader = if load.reader_threads > 0 {
                    eval.read.bytes_per_sec() / load.reader_threads as f64
                } else {
                    0.0
                };
                let per_writer = if load.writer_threads > 0 {
                    eval.write.bytes_per_sec() / load.writer_threads as f64
                } else {
                    0.0
                };
                let per_reader_dram = if tier_on && load.reader_threads > 0 {
                    let mut dram_spec = MixedSpec::paper(
                        pmem_sim::params::DeviceClass::Dram,
                        load.writer_threads,
                        load.reader_threads,
                    );
                    dram_spec.pinning = self.config.pinning;
                    let mut dram = sim.evaluate_mixed_degraded(&dram_spec, &fstate.socket(socket));
                    if self.config.pinning == Pinning::None && fstate.upi_scale < 1.0 {
                        dram.read = dram.read.degrade(0.5 + 0.5 * fstate.upi_scale);
                    }
                    dram.read.bytes_per_sec() / load.reader_threads as f64
                } else {
                    0.0
                };
                socket_rates.insert(socket.0, (per_reader, per_writer, per_reader_dram));
            }
            for run in &mut active {
                let unit = &units[run.unit];
                let (per_reader, per_writer, per_reader_dram) = socket_rates[&unit.socket.0];
                run.rate = unit.threads as f64
                    * match unit.side {
                        Side::Read => {
                            // Shielded classes keep the full tier even
                            // while the brownout ladder shrinks it.
                            let hit = if brownout_active && !slo.shielded(unit.class) {
                                unit.hit_rate_browned
                            } else {
                                unit.hit_rate
                            };
                            tiered_rate(
                                Bandwidth::from_bytes_per_sec(per_reader),
                                Bandwidth::from_bytes_per_sec(per_reader_dram),
                                hit,
                            )
                            .bytes_per_sec()
                        }
                        Side::Write => per_writer,
                    };
            }

            // Advance to the next event: a completion, an arrival, a fault
            // transition (rates are piecewise-constant between them), a
            // backoff expiry, or a deadline the resilient path must enforce.
            let dt_done = active
                .iter()
                .map(|a| a.remaining / a.rate.max(1.0))
                .fold(f64::INFINITY, f64::min);
            let dt_arrival = if ptr < order.len() {
                (units[order[ptr]].arrival - now).max(0.0)
            } else {
                f64::INFINITY
            };
            let dt_fault = faults
                .next_transition_after(now)
                .map_or(f64::INFINITY, |t| (t - now).max(0.0));
            let dt_ready = waiting
                .iter()
                .map(|&u| units[u].ready_at - now)
                .filter(|&d| d > 1e-12)
                .fold(f64::INFINITY, f64::min);
            let dt_deadline = if res.enabled {
                active
                    .iter()
                    .filter_map(|a| units[a.unit].deadline_at)
                    .map(|d| d - now)
                    .filter(|&d| d > 1e-9)
                    .fold(f64::INFINITY, f64::min)
            } else {
                f64::INFINITY
            };
            let dt_token = buckets.as_ref().map_or(f64::INFINITY, |bk| {
                waiting
                    .iter()
                    .filter(|&&u| units[u].ready_at <= now + 1e-12)
                    .map(|&u| bk.seconds_until_ready(&units[u].charges, units[u].side))
                    .filter(|&d| d > 1e-12)
                    .fold(f64::INFINITY, f64::min)
            });
            let dt_breaker = (0..sockets)
                .filter_map(|s| breakers.get(&s).and_then(|b| b.next_transition()))
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

            let any_reader = active.iter().any(|a| units[a.unit].side == Side::Read);
            let any_writer = active.iter().any(|a| units[a.unit].side == Side::Write);
            if any_reader {
                out.read_busy += dt;
            }
            if any_writer {
                out.write_busy += dt;
            }
            if fstate.is_degraded() && !active.is_empty() {
                out.degraded_seconds += dt;
            }
            if brownout_active {
                out.brownout_seconds += dt;
                if tier_on && !active.is_empty() {
                    out.tier_shrunk_seconds += dt;
                }
            }
            now += dt;
            if let Some(bk) = buckets.as_mut() {
                bk.refill(dt);
            }
            for run in &mut active {
                let progressed = run.rate * dt;
                run.remaining -= progressed;
                let unit = &units[run.unit];
                if unit.side == Side::Read {
                    let hit = if brownout_active && !slo.shielded(unit.class) {
                        unit.hit_rate_browned
                    } else {
                        unit.hit_rate
                    };
                    out.tier_hit_bytes += (progressed * hit) as u64;
                }
            }
            let mut k = 0;
            while k < active.len() {
                if active[k].remaining <= DONE_EPSILON {
                    let u = active[k].unit;
                    units[u].finished_at = now;
                    match units[u].side {
                        Side::Read => out.read_bytes_moved += units[u].bytes,
                        Side::Write => out.write_bytes_moved += units[u].bytes,
                    }
                    // A completion is a deadline outcome the socket's
                    // breaker learns from; a retried unit leaving the
                    // system hands its retry-budget slot back.
                    if let Some(d) = units[u].deadline_at {
                        if let Some(b) = breakers.get_mut(&units[u].socket.0) {
                            b.record(now > d + 1e-9, now);
                        }
                    }
                    if units[u].retries > 0 {
                        ledger.release();
                    }
                    active.swap_remove(k);
                } else {
                    k += 1;
                }
            }

            // The power loss lands exactly at `now`: everything mid-flight
            // on that socket loses its progress. The resilient path retries
            // (usually onto the healthy peer); the baseline grinds the job
            // from scratch at whatever rate the faults leave it.
            if let Some((_, lost_socket)) = loss.filter(|&(t, _)| t <= now + 1e-9) {
                out.power_loss_events += 1;
                let mut k = 0;
                while k < active.len() {
                    let u = active[k].unit;
                    if units[u].socket != lost_socket {
                        k += 1;
                        continue;
                    }
                    if res.enabled {
                        active.swap_remove(k);
                        let fresh = fresh_in_flight(units, &waiting, &active);
                        if deny_first_retry(units, &mut ledger, &overload, &res, u, now, fresh) {
                            continue;
                        }
                        retry_or_fail(units, &mut waiting, u, now, &res, faults, &machine, sockets);
                        if !units[u].finished_at.is_nan() && units[u].retries > 0 {
                            ledger.release();
                        }
                    } else {
                        active[k].remaining = units[u].bytes as f64;
                        k += 1;
                    }
                }
            }

            // The media error lands exactly at `now`: an uncorrectable
            // poisoned XPLine range on one socket. The protected path
            // quarantines the socket for one repair window (the scrubber
            // rebuilds the poisoned blocks from the durable mirror) and
            // re-queues whatever was running there with backoff; the
            // baseline's scans consume the poison and die on the spot.
            if let Some(m) = media.filter(|m| m.at <= now + 1e-9) {
                let protect = res.enabled && res.repair_media;
                if protect {
                    let lift = now + res.media_repair_seconds.max(0.0);
                    let q = quarantine.entry(m.socket.0).or_insert(0.0);
                    if lift > *q {
                        *q = lift;
                    }
                    out.repaired += 1;
                    // Jobs already queued for this socket sit out the
                    // repair window too.
                    for &w in &waiting {
                        if units[w].socket == m.socket && units[w].ready_at < lift {
                            units[w].ready_at = lift;
                        }
                    }
                }
                let mut k = 0;
                while k < active.len() {
                    let u = active[k].unit;
                    if units[u].socket != m.socket {
                        k += 1;
                        continue;
                    }
                    active.swap_remove(k);
                    if protect {
                        out.quarantined += 1;
                        let fresh = fresh_in_flight(units, &waiting, &active);
                        if deny_first_retry(units, &mut ledger, &overload, &res, u, now, fresh) {
                            continue;
                        }
                        media_retry_or_shed(
                            units,
                            &mut waiting,
                            u,
                            now,
                            &res,
                            &quarantine,
                            faults,
                            &machine,
                            sockets,
                        );
                        if !units[u].finished_at.is_nan() && units[u].retries > 0 {
                            ledger.release();
                        }
                    } else {
                        units[u].outcome = JobOutcome::Failed;
                        units[u].finished_at = now;
                        if units[u].admitted_at.is_nan() {
                            units[u].admitted_at = now;
                        }
                        if units[u].retries > 0 {
                            ledger.release();
                        }
                    }
                }
            }
        }

        out.makespan = now;
        // Every terminal path — completion, failure, every typed shed
        // (including class-aware ingress eviction) — must hand its
        // retry-budget slot back; a leak here starves later retries.
        debug_assert_eq!(
            ledger.outstanding(),
            0,
            "retry ledger must drain by loop exit"
        );
        out.breaker_trips = (0..sockets)
            .filter_map(|s| breakers.get(&s))
            .map(|b| b.trips)
            .sum();
        out.retry_budget_denied = ledger.denied;
        out
    }
}

/// Fresh (never-retried) units still in flight — the denominator the
/// retry budget scales with.
fn fresh_in_flight(units: &[Unit], waiting: &[usize], active: &[ActiveRun]) -> u32 {
    waiting
        .iter()
        .copied()
        .chain(active.iter().map(|a| a.unit))
        .filter(|&u| units[u].retries == 0)
        .count() as u32
}

/// Gate a fresh unit's first retry behind the global retry budget.
/// Returns true when the budget refused and the unit was shed with the
/// typed [`ShedReason::RetryBudget`] instead of re-queueing. Units
/// already holding a retry slot (retries > 0) and units whose retries are
/// exhausted anyway pass straight through.
fn deny_first_retry(
    units: &mut [Unit],
    ledger: &mut RetryLedger,
    overload: &OverloadPolicy,
    res: &ResiliencePolicy,
    u: usize,
    now: f64,
    fresh: u32,
) -> bool {
    if !overload.enabled || units[u].retries > 0 || units[u].retries >= res.max_retries {
        return false;
    }
    if ledger.try_start(overload, fresh) {
        return false;
    }
    let reason = ShedReason::RetryBudget;
    units[u].verdicts.push((now, Verdict::Shed { reason }));
    units[u].outcome = JobOutcome::Shed(reason);
    units[u].finished_at = now;
    if units[u].admitted_at.is_nan() {
        units[u].admitted_at = now;
    }
    true
}

/// Cancel a unit whose socket took a media error at `now`: schedule a
/// backed-off retry on the healthiest socket whose quarantine lifts
/// soonest (pinned units wait out their own socket's repair), or shed it
/// with the typed [`ShedReason::Unrepairable`] once retries are exhausted.
#[allow(clippy::too_many_arguments)]
fn media_retry_or_shed(
    units: &mut [Unit],
    waiting: &mut Vec<usize>,
    u: usize,
    now: f64,
    res: &ResiliencePolicy,
    quarantine: &HashMap<u8, f64>,
    faults: &FaultPlan,
    machine: &Machine,
    sockets: u8,
) {
    if units[u].retries < res.max_retries {
        units[u].retries += 1;
        let backoff_end = now + res.jittered_backoff_before(units[u].retries, u as u64);
        let lift = |s: u8| quarantine.get(&s).copied().unwrap_or(0.0);
        if !units[u].pinned {
            // Earliest admissible instant wins; the side's fault scale at
            // that instant breaks ties.
            let state = faults.state_at(machine, backoff_end);
            let mut best = units[u].socket;
            let mut best_ready = lift(best.0).max(backoff_end);
            let mut best_scale = side_scale(state.socket(best), units[u].side);
            for s in 0..sockets {
                let cand = SocketId(s);
                let ready = lift(s).max(backoff_end);
                let scale = side_scale(state.socket(cand), units[u].side);
                if ready < best_ready - 1e-12
                    || (ready < best_ready + 1e-12 && scale > best_scale + 1e-9)
                {
                    best = cand;
                    best_ready = ready;
                    best_scale = scale;
                }
            }
            units[u].socket = best;
        }
        units[u].ready_at = lift(units[u].socket.0).max(backoff_end);
        units[u].deadline_at = units[u].deadline_rel.map(|d| units[u].ready_at + d);
        waiting.push(u);
    } else {
        let reason = ShedReason::Unrepairable;
        units[u].verdicts.push((now, Verdict::Shed { reason }));
        units[u].outcome = JobOutcome::Shed(reason);
        units[u].finished_at = now;
        if units[u].admitted_at.is_nan() {
            units[u].admitted_at = now;
        }
    }
}

/// Cancel a unit at `now`: schedule a backed-off retry — re-routed to the
/// healthiest socket for its side unless pinned, with a re-armed working
/// deadline — or mark it failed once retries are exhausted.
#[allow(clippy::too_many_arguments)]
fn retry_or_fail(
    units: &mut [Unit],
    waiting: &mut Vec<usize>,
    u: usize,
    now: f64,
    res: &ResiliencePolicy,
    faults: &FaultPlan,
    machine: &Machine,
    sockets: u8,
) {
    if units[u].retries < res.max_retries {
        units[u].retries += 1;
        units[u].ready_at = now + res.jittered_backoff_before(units[u].retries, u as u64);
        units[u].deadline_at = units[u].deadline_rel.map(|d| units[u].ready_at + d);
        if !units[u].pinned {
            let state = faults.state_at(machine, units[u].ready_at);
            let mut best = units[u].socket;
            let mut best_scale = side_scale(state.socket(best), units[u].side);
            for s in 0..sockets {
                let scale = side_scale(state.socket(SocketId(s)), units[u].side);
                if scale > best_scale + 1e-9 {
                    best = SocketId(s);
                    best_scale = scale;
                }
            }
            units[u].socket = best;
        }
        waiting.push(u);
    } else {
        units[u].outcome = JobOutcome::Failed;
        units[u].finished_at = now;
        if units[u].admitted_at.is_nan() {
            units[u].admitted_at = now;
        }
    }
}

/// The fault scale relevant to a job's side.
fn side_scale(state: pmem_sim::faults::SocketFaultState, side: Side) -> f64 {
    match side {
        Side::Read => state.read_scale,
        Side::Write => state.write_scale,
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

/// Sum the active reader/writer threads and outstanding bytes on a socket.
fn socket_load(
    units: &[Unit],
    active: &[ActiveRun],
    socket: SocketId,
) -> crate::admission::SocketLoad {
    let mut load = crate::admission::SocketLoad::default();
    for run in active {
        let unit = &units[run.unit];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
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
