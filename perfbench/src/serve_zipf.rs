//! `serve-zipf`: rounds of `QueryServer::run` over freshly seeded job
//! lists whose queries repeat under Zipf skew, on SF 0.02 aware stores.
//!
//! It is the only workload with shared work: within a round most query
//! jobs repeat a query another job already ran on the same store, and the
//! real plane re-executes every one of them.

use std::collections::BTreeSet;
use std::time::Instant;

use pmem_buffer::zipf::ZipfSampler;
use pmem_olap::planner::AccessPlanner;
use pmem_serve::{
    HotTierPolicy, JobKind, JobRecord, JobSpec, QueryServer, QueueReason, ServeConfig, ServeReport,
    ShedReason, SloClass, SloPolicy, Verdict,
};
use pmem_sim::rng::splitmix64;
use pmem_ssb::datagen;
use pmem_ssb::reference::reference_query;
use pmem_ssb::{run_query, EngineMode, QueryId, SsbStore, StorageDevice};

use crate::ctx::Ctx;
use crate::metrics::{median, nearest_rank};

/// Scale factor of the serving stores.
pub const SF: f64 = 0.02;
/// Stores built per run (each a set-up sample); rounds rotate over them.
pub const STORES: u64 = 6;
/// Jobs per round: enough that the waiting line reaches the brownout
/// threshold in most rounds.
pub const JOBS: usize = 80;
/// Threads of every query and ingest job.
pub const THREADS: u32 = 2;
/// Offered query read demand over the planner's read capacity, while
/// the round's arrivals last.
pub const READ_LOAD: f64 = 2.0;
/// Offered ingest demand over the planner's write capacity.
pub const WRITE_LOAD: f64 = 12.0;
/// Bytes per ingest job.
pub const UNIT_BYTES: u64 = 64 << 20;
/// Query skew, as in `repro --cache`.
pub const THETA: f64 = 0.99;
/// Rounds the virtual metrics pool (five per store), whatever the host
/// speed.
pub const FIXED_ROUNDS: usize = 30;

const STORE_SALT: u64 = 0x5e12_0001;
const ROUND_SALT: u64 = 0x5e12_0002;
const PROBE_SALT: u64 = 0x5e12_0003;
const GIB: f64 = (1u64 << 30) as f64;
const CLASSES: [SloClass; 3] = [
    SloClass::Interactive,
    SloClass::Standard,
    SloClass::BestEffort,
];
const INGEST_TENANT: u32 = 4;

const QUEUE_REASONS: [(QueueReason, &str); 6] = [
    (QueueReason::WriterCap, "serve.queue_wait_s.writer_cap"),
    (QueueReason::ReaderCap, "serve.queue_wait_s.reader_cap"),
    (
        QueueReason::SerializeMixed,
        "serve.queue_wait_s.serialize_mixed",
    ),
    (QueueReason::Degraded, "serve.queue_wait_s.degraded"),
    (
        QueueReason::TenantThrottle,
        "serve.queue_wait_s.tenant_throttle",
    ),
    (QueueReason::CircuitOpen, "serve.queue_wait_s.circuit_open"),
];
const SHED_REASONS: [(ShedReason, &str); 5] = [
    (ShedReason::Overloaded, "serve.shed.overloaded"),
    (ShedReason::Degraded, "serve.shed.degraded"),
    (ShedReason::Unrepairable, "serve.shed.unrepairable"),
    (ShedReason::QueueFull, "serve.shed.queue_full"),
    (ShedReason::RetryBudget, "serve.shed.retry_budget"),
];

/// Virtual outcomes pooled over several serving runs.
#[derive(Debug, Default)]
pub struct Pool {
    e2e_s: Vec<f64>,
    completed_bytes: f64,
    /// Summed virtual makespan; callers add one per run.
    pub makespan_s: f64,
    met: u64,
    offered: u64,
    queue_wait_s: [f64; 6],
    exec_s: f64,
    shed: [u64; 5],
    retries: u64,
    breaker_trips: u64,
    brownout_s: f64,
    batches: u64,
    scan_bytes_saved: u64,
    hit_bytes: f64,
    read_bytes: f64,
    admitted_bytes: f64,
    tiered_runs: u64,
}

impl Pool {
    /// Pool one server's report (its makespan is the caller's to add).
    pub fn add(&mut self, report: &ServeReport) {
        for job in &report.jobs {
            self.add_job(job);
        }
        self.breaker_trips += u64::from(report.breaker_trips);
        self.brownout_s += report.brownout_seconds;
        self.batches += report.batches as u64;
        self.scan_bytes_saved += report.shared_scan_bytes_saved;
        if let Some(tier) = &report.hot_tier {
            self.hit_bytes += tier.hit_bytes as f64;
            self.read_bytes += report.read_bytes_moved as f64;
            self.admitted_bytes += tier.admitted_bytes as f64;
            self.tiered_runs += 1;
        }
    }

    fn add_job(&mut self, job: &JobRecord) {
        self.offered += 1;
        self.met += u64::from(job.met_deadline());
        self.retries += u64::from(job.retries);
        if job.outcome.is_completed() {
            self.e2e_s.push((job.finished_at - job.arrival).max(0.0));
            self.completed_bytes += job.bytes as f64;
            self.exec_s += job.exec_seconds;
        }
        for (i, (reason, _)) in SHED_REASONS.iter().enumerate() {
            if job.outcome == pmem_serve::JobOutcome::Shed(*reason) {
                self.shed[i] += 1;
            }
        }
        // A queued verdict holds until the next verdict, or until
        // admission when it is the last one.
        for (i, (at, verdict)) in job.verdicts.iter().enumerate() {
            if let Verdict::Queued { reason } = verdict {
                let until = job
                    .verdicts
                    .get(i + 1)
                    .map_or(job.admitted_at, |(next, _)| *next);
                if let Some(k) = QUEUE_REASONS.iter().position(|(r, _)| r == reason) {
                    self.queue_wait_s[k] += (until - at).max(0.0);
                }
            }
        }
    }

    /// The end-to-end virtual metrics.
    pub fn set_sim(&self, ctx: &mut Ctx) {
        ctx.set(
            "sim_goodput_gib_s",
            self.completed_bytes / self.makespan_s.max(1e-12) / GIB,
        );
        ctx.set("sim_p99_ms", nearest_rank(&self.e2e_s, 99.0) * 1e3);
        ctx.set("sim_met_frac", self.met as f64 / self.offered.max(1) as f64);
    }

    /// The serve layer's virtual metrics, and the buffer's when a hot
    /// tier priced the reads.
    pub fn set_serve(&self, ctx: &mut Ctx) {
        for ((_, name), wait) in QUEUE_REASONS.iter().zip(self.queue_wait_s) {
            ctx.set(name, wait);
        }
        for ((_, name), shed) in SHED_REASONS.iter().zip(self.shed) {
            ctx.set(name, shed as f64);
        }
        ctx.set("serve.exec_s", self.exec_s);
        ctx.set("serve.retries", self.retries as f64);
        ctx.set("serve.breaker_trips", self.breaker_trips as f64);
        ctx.set("serve.brownout_s", self.brownout_s);
        ctx.set("serve.batches", self.batches as f64);
        ctx.set("serve.scan_bytes_saved", self.scan_bytes_saved as f64);
        if self.tiered_runs > 0 {
            ctx.set("buffer.hit_rate", self.hit_bytes / self.read_bytes.max(1.0));
            ctx.set(
                "buffer.admitted_bytes",
                self.admitted_bytes / self.tiered_runs as f64,
            );
        }
    }
}

/// One loaded store with the reference row count of every query.
struct ServeStore {
    store: SsbStore,
    reference_rows: [u64; 13],
}

/// The planner's read and write capacity over both sockets, bytes/s.
fn capacity(planner: &AccessPlanner) -> (f64, f64) {
    let budget = planner.concurrency_budget();
    let sockets = f64::from(planner.sockets().max(1));
    let (read, _) = planner.expected_mixed(budget.reader_threads, 0);
    let (_, write) = planner.expected_mixed(0, budget.writer_threads);
    (
        read.bytes_per_sec() * sockets,
        write.bytes_per_sec() * sockets,
    )
}

/// Position of `query` in [`QueryId::ALL`].
fn index(query: QueryId) -> usize {
    QueryId::ALL.iter().position(|q| *q == query).unwrap_or(0)
}

fn uniform(state: &mut u64) -> f64 {
    *state = splitmix64(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Round `round`'s jobs: [`JOBS`] Poisson arrivals whose rates put
/// [`READ_LOAD`] × the read capacity of query scans (each nominally one
/// pass over the fact table) and [`WRITE_LOAD`] × the write capacity of
/// ingest on the machine. Each round holds the rates' share of ingest
/// jobs exactly, in seeded order. Queries are drawn Zipf([`THETA`]) over
/// the 13 SSB queries, for three tenants, one per SLO class; ingest
/// belongs to a fourth, best-effort tenant.
pub fn jobs(seed: u64, round: u64, fact_bytes: u64, capacity: (f64, f64)) -> Vec<JobSpec> {
    let query_rate = READ_LOAD * capacity.0 / fact_bytes.max(1) as f64;
    let ingest_rate = WRITE_LOAD * capacity.1 / UNIT_BYTES as f64;
    let rate = query_rate + ingest_rate;
    let zipf = ZipfSampler::new(QueryId::ALL.len() as u64, THETA);
    let mut state = splitmix64(seed ^ ROUND_SALT ^ splitmix64(round));
    let ingest_jobs = (JOBS as f64 * ingest_rate / rate).round() as usize;
    let mut is_ingest: Vec<bool> = (0..JOBS).map(|i| i < ingest_jobs).collect();
    for i in (1..JOBS).rev() {
        let j = (uniform(&mut state) * (i + 1) as f64) as usize;
        is_ingest.swap(i, j.min(i));
    }
    let mut now = 0.0;
    is_ingest
        .into_iter()
        .map(|ingest| {
            now += -(1.0 - uniform(&mut state)).ln() / rate;
            let spec = if ingest {
                JobSpec::ingest(UNIT_BYTES)
                    .tenant(INGEST_TENANT)
                    .slo(SloClass::BestEffort)
            } else {
                let query = QueryId::ALL[zipf.sample(&mut state) as usize];
                let tenant = (uniform(&mut state) * 3.0) as usize % 3;
                JobSpec::query(query)
                    .tenant(tenant as u32 + 1)
                    .slo(CLASSES[tenant])
            };
            spec.threads(THREADS).arrival(now)
        })
        .collect()
}

/// The surge stack with a hot tier of half the fact bytes (so the
/// working set exceeds it) and SLO classes on.
fn config(planner: &AccessPlanner, store: &SsbStore) -> ServeConfig {
    ServeConfig::surge(planner)
        .with_hot_tier(HotTierPolicy::with_budget(store.fact_bytes() / 2))
        .with_slo_classes(SloPolicy::default_on())
}

/// Build `count` stores from seeds derived from `seed`; each build is one
/// set-up sample.
fn setup(ctx: &mut Ctx, seed: u64, count: u64) -> Vec<ServeStore> {
    let (mut datagen_s, mut load_s) = (Vec::new(), Vec::new());
    let mut stores = Vec::new();
    for i in 0..count {
        let data_seed = splitmix64(seed ^ STORE_SALT ^ splitmix64(i));
        let (data, g) = ctx
            .tracer
            .timed("ssb.datagen", || datagen::generate(SF, data_seed));
        let (loaded, l) = ctx.tracer.timed("ssb.load.aware", || {
            SsbStore::load(&data, SF, EngineMode::Aware, StorageDevice::PmemFsdax)
        });
        ctx.setups.push(g + l);
        datagen_s.push(g);
        load_s.push(l);
        let (reference_rows, _) = ctx.tracer.timed("bench.reference", || {
            QueryId::ALL.map(|q| reference_query(&data, q).len() as u64)
        });
        match loaded {
            Ok(store) => stores.push(ServeStore {
                store,
                reference_rows,
            }),
            Err(e) => ctx.check_run("ssb store loads", false, || format!("serve store {i}: {e}")),
        }
    }
    ctx.set("ssb.datagen_s", median(&datagen_s));
    ctx.set("ssb.load_s.aware", median(&load_s));
    stores
}

/// What one round ran, for the real-plane estimate.
struct Round {
    store: usize,
    queries: Vec<QueryId>,
    host_s: f64,
}

/// Serve rounds while `more(rounds_done)`; the first `fixed` rounds feed
/// the virtual metrics.
fn serve(
    ctx: &mut Ctx,
    stores: &[ServeStore],
    seed: u64,
    fixed: usize,
    more: impl Fn(usize) -> bool,
) {
    let planner = AccessPlanner::paper_default();
    let capacity = capacity(&planner);
    let mut pool = Pool::default();
    let (mut distinct, mut query_jobs) = (0usize, 0usize);
    let mut rounds: Vec<Round> = Vec::new();
    while !stores.is_empty() && more(rounds.len()) {
        let r = rounds.len();
        let s = &stores[r % stores.len()];
        let specs = jobs(seed, r as u64, s.store.fact_bytes(), capacity);
        let queries: Vec<QueryId> = specs
            .iter()
            .filter_map(|spec| match spec.kind {
                JobKind::Query { query, .. } => Some(query),
                JobKind::Ingest { .. } => None,
            })
            .collect();
        let mut server = QueryServer::new(&s.store, config(&planner, &s.store));
        let ids = server.submit_all(specs.iter().copied());
        let (result, host_s) = ctx.op("serve.run", || server.run());
        let ok = match result {
            Ok(report) => {
                let ok = check_round(ctx, &report, &ids, &specs, &s.reference_rows);
                if r < fixed {
                    pool.add(&report);
                    pool.makespan_s += report.makespan;
                    distinct += queries
                        .iter()
                        .map(|q| index(*q))
                        .collect::<BTreeSet<_>>()
                        .len();
                    query_jobs += queries.len();
                }
                ok
            }
            Err(e) => ctx.check("serve run returns Ok", false, || format!("round {r}: {e}")),
        };
        ctx.op_result(ok);
        rounds.push(Round {
            store: r % stores.len(),
            queries,
            host_s,
        });
    }
    pool.set_sim(ctx);
    pool.set_serve(ctx);
    ctx.set(
        "serve.repeat_share",
        1.0 - distinct as f64 / query_jobs.max(1) as f64,
    );
    let host_ms: Vec<f64> = rounds.iter().map(|r| r.host_s * 1e3).collect();
    ctx.set("serve.run_ms", median(&host_ms));
    if ctx.tracer.is_on() {
        real_plane(ctx, stores, &rounds);
    }
}

/// Every job has exactly one terminal record, and every completed query
/// returned the reference's row count.
fn check_round(
    ctx: &mut Ctx,
    report: &ServeReport,
    ids: &[pmem_serve::JobId],
    specs: &[JobSpec],
    reference_rows: &[u64; 13],
) -> bool {
    let mut seen: Vec<u64> = report.jobs.iter().map(|j| j.id.0).collect();
    seen.sort_unstable();
    let mut want: Vec<u64> = ids.iter().map(|id| id.0).collect();
    want.sort_unstable();
    let terminal = ctx.check("serve: one terminal outcome per job", seen == want, || {
        format!("{} records for {} jobs", seen.len(), want.len())
    });
    let mut rows_ok = true;
    for (job, spec) in report.jobs.iter().zip(specs) {
        if let (JobKind::Query { query, .. }, true) = (spec.kind, job.outcome.is_completed()) {
            let k = index(query);
            rows_ok &= ctx.check(
                "serve rows == reference",
                job.rows == reference_rows[k],
                || {
                    format!(
                        "{} returned {} rows, reference {}",
                        query.name(),
                        job.rows,
                        reference_rows[k]
                    )
                },
            );
        }
    }
    terminal && rows_ok
}

/// Estimate the real plane's share of each round from outside: time one
/// `run_query` per distinct (store, query) and charge it to every query
/// job of that store.
fn real_plane(ctx: &mut Ctx, stores: &[ServeStore], rounds: &[Round]) {
    let mut cost = vec![[0.0f64; 13]; stores.len()];
    for (s, costs) in stores.iter().zip(cost.iter_mut()) {
        for (q, c) in QueryId::ALL.into_iter().zip(costs.iter_mut()) {
            s.store.reset_trackers();
            let start = Instant::now();
            let result = run_query(&s.store, q, THREADS);
            *c = start.elapsed().as_secs_f64();
            if let Err(e) = result {
                ctx.check_run("serve real-plane probe runs", false, || {
                    format!("{}: {e}", q.name())
                });
            }
        }
    }
    let estimate: Vec<f64> = rounds
        .iter()
        .map(|r| {
            r.queries
                .iter()
                .map(|q| cost[r.store][index(*q)])
                .sum::<f64>()
        })
        .collect();
    let host: f64 = rounds.iter().map(|r| r.host_s).sum();
    ctx.set(
        "serve.real_plane_ms",
        median(&estimate.iter().map(|e| e * 1e3).collect::<Vec<_>>()),
    );
    ctx.set(
        "serve.real_plane_share",
        estimate.iter().sum::<f64>() / host.max(1e-12),
    );
}

/// The timed workload: [`STORES`] stores, then rounds until `seconds`
/// have passed (at least [`FIXED_ROUNDS`]).
pub fn run(ctx: &mut Ctx, seed: u64, seconds: f64) {
    let stores = setup(ctx, seed, STORES);
    let start = Instant::now();
    serve(ctx, &stores, seed, FIXED_ROUNDS, |done| {
        done < FIXED_ROUNDS || start.elapsed().as_secs_f64() < seconds
    });
}

/// Fill the serve and buffer metrics of a workload that bypasses them:
/// one store and one round.
pub fn probe(ctx: &mut Ctx, seed: u64) {
    let seed = splitmix64(seed ^ PROBE_SALT);
    let stores = setup(ctx, seed, 1);
    serve(ctx, &stores, seed, 1, |done| done < 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_are_seeded_skewed_and_mixed() {
        let capacity = capacity(&AccessPlanner::paper_default());
        let fact = 15 << 20;
        let a = jobs(7, 0, fact, capacity);
        assert_eq!(a, jobs(7, 0, fact, capacity));
        assert_ne!(a, jobs(7, 1, fact, capacity));
        assert_eq!(a.len(), JOBS);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let queries: Vec<QueryId> = a
            .iter()
            .filter_map(|s| match s.kind {
                JobKind::Query { query, .. } => Some(query),
                JobKind::Ingest { .. } => None,
            })
            .collect();
        assert!(queries.len() > JOBS / 2 && queries.len() < JOBS);
        let distinct = queries
            .iter()
            .map(|q| index(*q))
            .collect::<BTreeSet<_>>()
            .len();
        assert!(distinct < queries.len(), "Zipf skew repeats queries");
        let hottest = queries.iter().filter(|q| **q == QueryId::Q1_1).count();
        assert!(hottest > queries.len() / 13, "rank 0 is the hottest");
    }
}
