//! The shard router: build a fleet, fan out load, survive losing a
//! machine — and the one fleet run every scenario shares.
//!
//! Each entry point ([`Cluster::run_healthy`],
//! [`Cluster::run_with_lost_shard`], [`Cluster::run_gray`],
//! [`Cluster::run_rejoin`], [`Cluster::run_chaos`]) only builds its
//! faults. Everything else goes through two shared steps:
//!
//! 1. **Detect.** The fleet's fault plans and the link plan become one
//!    [`HealthTimeline`] per shard. The oracle sees only a blackout (its
//!    machine goes `Dead` a fixed delay after the window opens); the
//!    accrual detector replays each faulted shard's probes and
//!    completion stream.
//! 2. **Run.** Arrivals route by their home shard's timeline weight
//!    (moved jobs pay the interconnect hop to the ring replica host),
//!    every machine serves its routed jobs, per-shard breakers replay
//!    the outcomes, and the fleet rolls up. A shard whose timeline
//!    reaches `Dead` is re-replicated onto the next survivor; if the
//!    timeline later leaves `Dead` the machine takes its range back and
//!    the extra copy is garbage-collected, otherwise the shard is written
//!    off and the scrub-guarded verification query reads its replica.

use pmem_olap::planner::AccessPlanner;
use pmem_serve::{
    BreakerConfig, CircuitBreaker, FanoutOutcome, JobOutcome, JobSpec, OpenLoopPlan, Percentiles,
    QueryServer, ServeConfig, ServeReport, ShardRole, ShedReason, SloClass, SloPolicy, TenantLoad,
};
use pmem_sim::des::arrivals::ArrivalProcess;
use pmem_sim::faults::FaultPlan;
use pmem_sim::fleet::{machine_seed, FleetFaultPlans, Interconnect, LinkPlan};
use pmem_sim::topology::Machine;
use pmem_ssb::columnar::ColumnarFact;
use pmem_ssb::{datagen, IntegrityRepair};
use pmem_store::{Result, StoreError};

use crate::detector::{DetectorConfig, DetectorMode, HealthState, HealthTimeline, Observation};
use crate::gray::GrayConfig;
use crate::machine::{scrubs_clean, ShardMachine};
use crate::partition::ShardMap;
use crate::report::{ClusterReport, ScatterGather, ShardOutcome};

/// How a cluster experiment is shaped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of shards (= machines).
    pub shards: u32,
    /// Master seed: data generation, arrival processes, fault plans.
    pub seed: u64,
    /// SSB scale factor of the *whole* data set (split across shards).
    pub sf: f64,
    /// Replicate each partition to its ring successor.
    pub replicate: bool,
    /// Open-loop arrival horizon in virtual seconds.
    pub horizon: f64,
    /// Offered ingest load per shard as a multiple of its write capacity.
    pub overload: f64,
    /// Bytes per ingest unit.
    pub unit_bytes: u64,
    /// Per-unit completion deadline in seconds after arrival.
    pub deadline: f64,
    /// Inter-machine network pricing.
    pub interconnect: Interconnect,
    /// SLO-class policy every shard's server runs under. When enabled,
    /// each shard's steady tenant is tagged `Interactive` and its bursty
    /// tenant `BestEffort`, and failover re-routing carries the class
    /// with the job — the replica host inherits the victim's tiers.
    pub slo: SloPolicy,
    /// How the router detects unhealthy shards. [`DetectorConfig::oracle`]
    /// is the PR-7 behavior (fixed blackout delay, blind to gray
    /// failures); [`DetectorConfig::accrual`] scores probes and
    /// completion outcomes and grades demotion.
    pub detector: DetectorConfig,
}

impl ClusterConfig {
    /// The acceptance-test shape: tiny data set, 0.2 s horizon, 2× per-
    /// shard overload, 64 MiB units, 100 GbE interconnect, replication on.
    pub fn demo(shards: u32, seed: u64) -> Self {
        ClusterConfig {
            shards: shards.max(1),
            seed,
            sf: 0.002,
            replicate: true,
            horizon: 0.2,
            overload: 2.0,
            unit_bytes: 64 << 20,
            deadline: 0.25,
            interconnect: Interconnect::paper_default(),
            slo: SloPolicy::disabled(),
            detector: DetectorConfig::oracle(),
        }
    }

    /// The no-replication baseline (demonstrates data loss).
    pub fn without_replication(mut self) -> Self {
        self.replicate = false;
        self
    }

    /// Serve every shard under `slo` (class-tagged tenants, class-banded
    /// admission on each machine).
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// Swap the failure detector (oracle ↔ accrual, threshold sweeps).
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector;
        self
    }
}

/// N simulated machines behind one hash router.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) map: ShardMap,
    pub(crate) machines: Vec<ShardMachine>,
    /// Committed ground-truth aggregate over the whole data set.
    pub(crate) reference: i64,
}

/// A shard's completion stream as the router sees it, in completion
/// order. Ingress sheds (flow control) carry no service signal and are
/// left out; admitted jobs that miss their deadline or die are misses.
/// Both the detector replay and the per-shard breaker read this stream.
fn completion_stream(report: &ServeReport) -> Vec<Observation> {
    let mut stream: Vec<Observation> = report
        .jobs
        .iter()
        .filter(|j| {
            !matches!(
                j.outcome,
                JobOutcome::Shed(ShedReason::QueueFull) | JobOutcome::Shed(ShedReason::RetryBudget)
            )
        })
        .map(|j| Observation {
            at: j.finished_at,
            latency: (j.finished_at - j.arrival).max(0.0),
            miss: !j.met_deadline(),
        })
        .collect();
    stream.sort_by(|a, b| a.at.total_cmp(&b.at));
    stream
}

impl Cluster {
    /// Generate the data set once, partition it, and bring up one
    /// machine per shard (replicating each partition to its ring
    /// successor when the config says so).
    pub fn build(cfg: ClusterConfig) -> Result<Self> {
        let map = ShardMap::new(cfg.shards);
        let data = datagen::generate(cfg.sf, cfg.seed);
        let parts = map.partition(&data);
        let max_rows = parts
            .iter()
            .map(|p| p.lineorder.len() as u64)
            .max()
            .unwrap_or(1);
        // Room for the steady-state peer replica plus one re-replicated
        // partition after a failover.
        let replica_bytes = 2 * max_rows.max(1) * 64 + (8 << 20);
        let mut machines = Vec::with_capacity(parts.len());
        for (shard, part) in parts.iter().enumerate() {
            machines.push(ShardMachine::build(
                shard as u32,
                part,
                cfg.sf,
                replica_bytes,
            )?);
        }
        if cfg.replicate {
            for shard in 0..cfg.shards {
                if let Some(peer) = map.replica_of(shard) {
                    let copy = machines[shard as usize]
                        .fact
                        .replicate_to(machines[peer as usize].replica_ns())?;
                    machines[peer as usize].host_replica(shard, copy);
                }
            }
        }
        let reference = machines.iter().map(|m| m.committed).sum();
        Ok(Cluster {
            cfg,
            map,
            machines,
            reference,
        })
    }

    /// The partitioning function.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// The fleet's machines, by shard.
    pub fn machines(&self) -> &[ShardMachine] {
        &self.machines
    }

    /// Mutable access (fault-injection hooks in tests).
    pub fn machines_mut(&mut self) -> &mut [ShardMachine] {
        &mut self.machines
    }

    /// Committed ground-truth Q1.1 aggregate over all partitions.
    pub fn reference(&self) -> i64 {
        self.reference
    }

    /// The cluster's configuration.
    pub fn config(&self) -> ClusterConfig {
        self.cfg
    }

    /// Swap the failure detector on a built cluster (the gray suite
    /// contrasts oracle vs accrual over the same data set without
    /// paying data generation twice).
    pub fn set_detector(&mut self, detector: DetectorConfig) {
        self.cfg.detector = detector;
    }

    /// Borrow shard `shard`'s machine mutably together with the replica
    /// of its partition its ring successor hosts. Errors if no replica
    /// exists (replication off, or a one-machine fleet).
    pub(crate) fn with_replica<R>(
        &mut self,
        shard: u32,
        f: impl FnOnce(&mut ShardMachine, &ColumnarFact) -> Result<R>,
    ) -> Result<R> {
        let peer = self.map.replica_of(shard).ok_or(StoreError::OutOfBounds {
            offset: u64::from(shard),
            len: 0,
            capacity: u64::from(self.cfg.shards),
        })?;
        let (lo, hi) = (shard.min(peer) as usize, shard.max(peer) as usize);
        let (head, tail) = self.machines.split_at_mut(hi);
        let (target, host) = if shard < peer {
            (&mut head[lo], &tail[0])
        } else {
            (&mut tail[0], &head[lo])
        };
        let replica = host.replica_of(shard).ok_or(StoreError::OutOfBounds {
            offset: u64::from(shard),
            len: 0,
            capacity: 0,
        })?;
        f(target, replica)
    }

    /// Repair shard `shard`'s columnar partition from the peer replica
    /// its ring successor hosts. Errors if replication is off (no
    /// replica exists) — mirroring an operator pointing repair at a
    /// source that is not there.
    pub fn repair_shard_from_replica(&mut self, shard: u32) -> Result<IntegrityRepair> {
        self.with_replica(shard, |target, replica| {
            target.fact.repair_from_replica(replica)
        })
    }

    /// Run the fleet healthy end to end.
    pub fn run_healthy(&mut self) -> Result<ClusterReport> {
        self.run_fleet(FleetFaultPlans::healthy(self.cfg.shards as usize))
    }

    /// Run the fleet with shard `victim` blacked out from `at` onward.
    pub fn run_with_lost_shard(&mut self, victim: u32, at: f64) -> Result<ClusterReport> {
        let (shards, horizon) = (self.cfg.shards, self.cfg.horizon);
        let victim = (victim % shards) as usize;
        self.run_fleet(FleetFaultPlans::healthy(shards as usize).with_lost_machine(
            victim,
            at,
            10.0 * horizon.max(0.1),
        ))
    }

    /// Detect and run `fleet` over a clean link.
    fn run_fleet(&mut self, fleet: FleetFaultPlans) -> Result<ClusterReport> {
        let planner = AccessPlanner::paper_default();
        let link = LinkPlan::none();
        let timelines = self.detect(&fleet, &link, GrayConfig::demo().bytes_per_row, &planner)?;
        self.simulate(&fleet, &link, &timelines, &planner)
    }

    /// Per-shard ingest capacity the surge is sized against (what the
    /// planner projects one machine sustains at its writer caps).
    pub(crate) fn machine_write_bw(planner: &AccessPlanner) -> f64 {
        let budget = planner.concurrency_budget();
        let (_, write) = planner.expected_mixed(0, budget.writer_threads);
        write.bytes_per_sec() * f64::from(planner.sockets().max(1))
    }

    /// Per-machine scan bandwidth the query plane prices partial
    /// aggregations against (what the planner projects at its reader
    /// caps, both sockets).
    pub(crate) fn machine_scan_bw(planner: &AccessPlanner) -> f64 {
        let budget = planner.concurrency_budget();
        let (read, _) = planner.expected_mixed(budget.reader_threads, 0);
        read.bytes_per_sec() * f64::from(planner.sockets().max(1))
    }

    /// One shard's open-loop plan: two tenants (steady + bursty) whose
    /// combined rate is `overload ×` the shard's write capacity. Tenant
    /// ids are globally unique; each shard draws from its own
    /// [`machine_seed`], so plans are independent and a shard's plan is
    /// identical whether the fleet has 1 machine or 16.
    pub(crate) fn shard_plan(&self, shard: u32, planner: &AccessPlanner) -> OpenLoopPlan {
        let cfg = &self.cfg;
        let total_rate = cfg.overload * Self::machine_write_bw(planner) / cfg.unit_bytes as f64;
        let per_tenant = total_rate / 2.0;
        let template = JobSpec::ingest(cfg.unit_bytes)
            .threads(2)
            .deadline(cfg.deadline);
        // With SLO classes on, the steady tenant is the latency tier and
        // the bursty one rides best-effort; disabled policies leave both
        // at the default class (inert — the PR-6 plan, byte for byte).
        let (steady, bursty) = if cfg.slo.enabled {
            (
                template.slo(SloClass::Interactive),
                template.slo(SloClass::BestEffort),
            )
        } else {
            (template, template)
        };
        let seed = machine_seed(cfg.seed, shard as usize);
        OpenLoopPlan::new(seed, cfg.horizon)
            .tenant(TenantLoad::new(
                shard * 2 + 1,
                ArrivalProcess::poisson(per_tenant),
                steady,
            ))
            .tenant(TenantLoad::new(
                shard * 2 + 2,
                ArrivalProcess::bursty(per_tenant * 2.0, 0.05, 0.05),
                bursty,
            ))
    }

    /// Serve `jobs` on shard `shard`'s machine under `plan`: the one
    /// place a shard's serve stack is built.
    fn serve_shard(
        &self,
        shard: usize,
        plan: FaultPlan,
        jobs: &[JobSpec],
        planner: &AccessPlanner,
    ) -> Result<ServeReport> {
        let config = ServeConfig::surge(planner)
            .with_faults(plan)
            .with_slo_classes(self.cfg.slo);
        let mut server = QueryServer::new(&self.machines[shard].store, config);
        server.submit_all(jobs.iter().copied());
        server.run()
    }

    /// Health-probe pricing for shard `shard`: the probe's healthy cost,
    /// and its cost when issued at virtual time `t` — a round trip over
    /// `link` plus a sample scan of `bytes_per_row` virtual bytes per row
    /// at the machine's service rate under `plan`.
    pub(crate) fn probe_pricing<'a>(
        &self,
        shard: usize,
        plan: &'a FaultPlan,
        link: &'a LinkPlan,
        bytes_per_row: u64,
        planner: &AccessPlanner,
    ) -> (f64, impl Fn(f64) -> f64 + 'a) {
        let interconnect = self.cfg.interconnect;
        let machine = Machine::paper_default();
        let scan = self.machines[shard].virtual_scan_bytes(bytes_per_row) as f64
            / Self::machine_scan_bw(planner).max(1.0);
        let probe = move |t: f64| {
            2.0 * interconnect.latency_seconds_at(t, link)
                + scan / plan.state_at(&machine, t).service_scale().max(1e-9)
        };
        (2.0 * interconnect.latency_seconds + scan, probe)
    }

    /// The detector step: one [`HealthTimeline`] per shard for `fleet`
    /// over `link`. The oracle marks the blackout machine `Dead` at
    /// `blackout.at + oracle_delay` and is blind to everything else. The
    /// accrual detector replays every faulted shard's unrouted
    /// completion stream and its probes; a blackout's replay runs at
    /// least ten probe intervals past the window's start and falls back
    /// to the oracle verdict if it never fires.
    pub(crate) fn detect(
        &self,
        fleet: &FleetFaultPlans,
        link: &LinkPlan,
        bytes_per_row: u64,
        planner: &AccessPlanner,
    ) -> Result<Vec<HealthTimeline>> {
        let det = &self.cfg.detector;
        let blackout = fleet.blackout();
        let mut timelines = Vec::with_capacity(self.machines.len());
        for s in 0..self.machines.len() {
            let lost = blackout.filter(|b| b.machine == s);
            let mut oracle = HealthTimeline::healthy();
            if let Some(b) = lost {
                oracle.extend(&[(b.at + det.oracle_delay, HealthState::Dead)]);
            }
            let plan = fleet.plan(s);
            if det.mode == DetectorMode::Oracle || plan.is_empty() {
                timelines.push(oracle);
                continue;
            }
            let jobs = self.shard_plan(s as u32, planner).jobs();
            let stream = completion_stream(&self.serve_shard(s, plan.clone(), &jobs, planner)?);
            let (baseline, probe) = self.probe_pricing(s, &plan, link, bytes_per_row, planner);
            let horizon = lost.map_or(self.cfg.horizon, |b| {
                self.cfg.horizon.max(b.at + 10.0 * det.probe_interval)
            });
            let replayed = HealthTimeline::replay(det, horizon, baseline, probe, &stream);
            timelines.push(if lost.is_some() && replayed.dead_at().is_none() {
                oracle
            } else {
                replayed
            });
        }
        Ok(timelines)
    }

    /// The fleet run every entry point shares: route, serve, replay the
    /// breakers, roll up, restore redundancy, and verify. See the module
    /// docs for the rules `timelines` drive.
    pub(crate) fn simulate(
        &mut self,
        fleet: &FleetFaultPlans,
        link: &LinkPlan,
        timelines: &[HealthTimeline],
        planner: &AccessPlanner,
    ) -> Result<ClusterReport> {
        let cfg = self.cfg;
        let det = cfg.detector;
        let shards = cfg.shards as usize;

        // Route. A job stays home while its shard is at full weight or
        // its seeded draw falls under the shard's weight; otherwise it
        // moves to the ring replica host and its payload pays the hop.
        // With replication off no other machine owns the range, so
        // nothing moves and a dead shard's arrivals die there.
        let plans: Vec<Vec<JobSpec>> = (0..shards)
            .map(|s| self.shard_plan(s as u32, planner).jobs())
            .collect();
        let owned: Vec<u64> = plans.iter().map(|jobs| jobs.len() as u64).collect();
        let mut routed: Vec<Vec<JobSpec>> = vec![Vec::new(); shards];
        let mut moved_out = vec![0u64; shards];
        let mut moved_in = vec![0u64; shards];
        let mut transfer_in = vec![0.0_f64; shards];
        let mut handed_back = 0u64;
        for (s, jobs) in plans.into_iter().enumerate() {
            let timeline = &timelines[s];
            let peer = self.map.replica_of(s as u32).filter(|_| cfg.replicate);
            for (i, mut job) in jobs.into_iter().enumerate() {
                let weight = timeline.weight_at(job.arrival, &det);
                let home = weight >= 1.0
                    || ShardMap::rebalance_draw(cfg.seed, s as u32, i as u64) < weight;
                let Some(p) = peer.filter(|_| !home).map(|p| p as usize) else {
                    if timeline.dead_at().is_some_and(|d| job.arrival >= d) {
                        handed_back += 1;
                    }
                    routed[s].push(job);
                    continue;
                };
                let hop = cfg
                    .interconnect
                    .transfer_seconds_at(cfg.unit_bytes, job.arrival, link);
                job.arrival += hop;
                transfer_in[p] += hop;
                moved_out[s] += 1;
                moved_in[p] += 1;
                routed[p].push(job);
            }
        }
        for (jobs, _) in routed.iter_mut().zip(&moved_in).filter(|(_, n)| **n > 0) {
            jobs.sort_by(|x, y| {
                x.arrival
                    .total_cmp(&y.arrival)
                    .then(x.tenant.cmp(&y.tenant))
            });
        }

        // Serve every machine, then replay a cluster-level breaker over
        // each shard's completion stream.
        let mut per_shard = Vec::with_capacity(shards);
        let mut outcomes = Vec::with_capacity(shards);
        for (s, jobs) in routed.iter().enumerate() {
            let timeline = &timelines[s];
            let mut report = self.serve_shard(s, fleet.plan(s), jobs, planner)?;
            let written_off = timeline.written_off();
            report.fanout = Some(FanoutOutcome {
                shard: s as u32,
                role: if timeline.dead_at().is_some() && !written_off {
                    ShardRole::Rejoining
                } else if moved_out[s] > 0 && !written_off {
                    ShardRole::Demoted
                } else if moved_in[s] > 0 {
                    ShardRole::Failover
                } else {
                    ShardRole::Primary
                },
                routed_jobs: owned[s],
                rerouted_jobs: moved_in[s],
                rebalanced_jobs: if written_off { 0 } else { moved_out[s] },
                router_weight: timeline.weight_at(cfg.horizon, &det),
                transfer_seconds: transfer_in[s],
            });
            let mut breaker = CircuitBreaker::new(BreakerConfig::default_on());
            for o in completion_stream(&report) {
                breaker.poll(o.at);
                breaker.record(o.miss, o.at);
            }
            let completed = report.jobs.iter().filter(|j| j.outcome.is_completed());
            outcomes.push(ShardOutcome {
                shard: s as u32,
                routed: owned[s],
                rerouted: moved_in[s],
                completed: completed.clone().count() as u64,
                bytes_completed: completed.map(|j| j.bytes).sum(),
                breaker_trips: breaker.trips(),
            });
            per_shard.push(report);
        }

        // Fleet rollup. A written-off machine's makespan ends at
        // max(last completion, detection): the fleet does not wait for
        // jobs stranded on it. Goodput counts bytes completed inside the
        // offered window [0, horizon], so a deeper end-of-run drain queue
        // (a failover host's) does not masquerade as lower throughput —
        // the p99 covers tails.
        let makespan = per_shard
            .iter()
            .zip(timelines)
            .map(|(r, timeline)| match timeline.dead_at() {
                Some(detected) if timeline.written_off() => r
                    .jobs
                    .iter()
                    .filter(|j| j.outcome.is_completed())
                    .map(|j| j.finished_at)
                    .fold(detected, f64::max),
                _ => r.makespan,
            })
            .fold(0.0_f64, f64::max);
        let completed_jobs = || {
            per_shard
                .iter()
                .flat_map(|r| r.jobs.iter())
                .filter(|j| j.outcome.is_completed())
        };
        let window_bytes: u64 = completed_jobs()
            .filter(|j| j.finished_at <= cfg.horizon)
            .map(|j| j.bytes)
            .sum();
        let e2e_samples: Vec<f64> = completed_jobs()
            .map(|j| (j.finished_at - j.arrival).max(0.0))
            .collect();

        // Redundancy: a dead shard's partition is copied from its ring
        // replica onto the machine after the replica host (two machines
        // have no third to host it). A damaged replica is never a copy
        // source. If the shard later comes back, the copy is GC'd.
        let lost = timelines.iter().position(|t| t.dead_at().is_some());
        let failover_at = lost.and_then(|v| timelines[v].dead_at());
        let written_off = lost.filter(|&v| timelines[v].written_off());
        let peer = lost
            .and_then(|v| self.map.replica_of(v as u32))
            .filter(|_| cfg.replicate && cfg.shards >= 3);
        let mut rereplicated_bytes = 0;
        let mut replica_gc_bytes = 0;
        let mut redundancy_restored_at = None;
        if let (Some(v), Some(peer), Some(at)) = (lost, peer, failover_at) {
            let target = ((peer + 1) % cfg.shards) as usize;
            let source = self.machines[peer as usize]
                .replica_of(v as u32)
                .filter(|r| scrubs_clean(r));
            if let Some(source) = source {
                let copy = source.replicate_to(self.machines[target].replica_ns())?;
                rereplicated_bytes = copy.total_bytes();
                let transfer = cfg
                    .interconnect
                    .transfer_seconds_at(rereplicated_bytes, at, link);
                redundancy_restored_at = Some(at + transfer);
                self.machines[target].host_replica(v as u32, copy);
                if written_off.is_none() {
                    replica_gc_bytes = self.machines[target].drop_replica(v as u32).unwrap_or(0);
                }
            }
        }

        Ok(ClusterReport {
            shards: cfg.shards,
            replicated: cfg.replicate,
            makespan,
            goodput_bytes_per_sec: window_bytes as f64 / cfg.horizon.max(1e-9),
            e2e: Percentiles::of(&e2e_samples),
            jobs: owned.iter().sum(),
            completed: completed_jobs().count() as u64,
            shed: per_shard.iter().map(|r| r.shed_jobs() as u64).sum(),
            rerouted_jobs: moved_in.iter().sum(),
            handed_back_jobs: handed_back,
            shard_breaker_trips: outcomes.iter().map(|o| o.breaker_trips).sum(),
            outcomes,
            lost_shard: lost.map(|v| v as u32),
            failover_at,
            query: self.scatter_gather(written_off.map(|v| v as u32)),
            reference: self.reference,
            rereplicated_bytes,
            redundancy_restored_at,
            replica_gc_bytes,
            per_shard,
        })
    }

    /// Fan the Q1.1 verification query out to every shard and sum the
    /// partials. A lost shard's key range is served by the replica its
    /// ring successor hosts; with replication off those rows are gone.
    /// Every partial is scrub-guarded: a source whose blocks no longer
    /// verify against its sealed checksums contributes nothing — a
    /// damaged primary surfaces as an aggregate mismatch, a damaged
    /// replica as lost rows — instead of scanning unverified bytes.
    pub fn scatter_gather(&self, lost: Option<u32>) -> ScatterGather {
        let cfg = &self.cfg;
        let guarded =
            |fact: &ColumnarFact| scrubs_clean(fact).then(|| ShardMachine::q11_partial(fact));
        let mut partials = vec![0i64; cfg.shards as usize];
        let mut lost_rows = 0;
        let mut replica_served_rows = 0;
        // Request fan-out + tiny partial results back: latency-dominated.
        let mut transfer_seconds = 2.0 * cfg.shards as f64 * cfg.interconnect.latency_seconds;
        for (s, machine) in self.machines.iter().enumerate() {
            if lost == Some(s as u32) {
                let replica = self
                    .map
                    .replica_of(s as u32)
                    .and_then(|peer| self.machines[peer as usize].replica_of(s as u32));
                match replica.and_then(guarded) {
                    Some(partial) => {
                        partials[s] = partial;
                        replica_served_rows += machine.rows;
                        transfer_seconds += cfg.interconnect.latency_seconds;
                    }
                    None => lost_rows += machine.rows,
                }
            } else {
                partials[s] = guarded(&machine.fact).unwrap_or(0);
            }
        }
        ScatterGather {
            aggregate: partials.iter().sum(),
            partials,
            lost_rows,
            replica_served_rows,
            transfer_seconds,
        }
    }
}
