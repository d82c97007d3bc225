//! Acceptance tests for the DRAM hot-tier buffer manager (`pmem-buffer`)
//! and its wiring through the stack: optimistic lock coupling never
//! exposes a torn frame, buffered scans agree with plain scans while
//! splitting traffic between DRAM and PMEM, and a seeded Zipfian
//! multi-tenant serving run beats pure PMEM at the same bandwidth budget
//! with a flat p99 — with the hit-rate-vs-latency curve in the report.

use proptest::prelude::*;

use pmem_buffer::{BufferPool, FrameState, ZipfSampler, FRAME_BYTES};
use pmem_olap::planner::AccessPlanner;
use pmem_serve::{HotTierPolicy, JobSpec, OverloadPolicy, QueryServer, ServeConfig, ServeReport};
use pmem_sim::topology::SocketId;
use pmem_ssb::columnar::{Column, ColumnarFact};
use pmem_ssb::timing::{tiered_scan_seconds, TimingConfig};
use pmem_ssb::{datagen, EngineMode, QueryId, SsbStore, StorageDevice};
use pmem_store::Namespace;

/// The master seed: identical seeds must reproduce identical reports.
const SEED: u64 = 0x0b0f_fe12;

fn store() -> SsbStore {
    SsbStore::generate_and_load(0.01, 4242, EngineMode::Aware, StorageDevice::PmemFsdax)
        .expect("store generates and loads")
}

fn columnar() -> (ColumnarFact, Namespace) {
    let data = datagen::generate(0.003, 11);
    let ns = Namespace::devdax(SocketId(0), 64 << 20);
    let fact = ColumnarFact::load(&ns, &data).expect("columnar load");
    (fact, ns)
}

fn scan_sum(fact: &ColumnarFact, projection: &[Column], threads: u32) -> u64 {
    fact.scan(
        projection,
        threads,
        || 0u64,
        |acc, t| *acc += t.revenue as u64 + t.quantity as u64,
    )
    .into_iter()
    .sum()
}

fn scan_buffered_sum(
    fact: &ColumnarFact,
    pool: &BufferPool,
    projection: &[Column],
    threads: u32,
) -> u64 {
    fact.scan_buffered(
        pool,
        projection,
        threads,
        || 0u64,
        |acc, t| *acc += t.revenue as u64 + t.quantity as u64,
    )
    .expect("buffered scan")
    .into_iter()
    .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// OLC torn-frame safety over interleaved schedules: replay any
    /// interleaving of optimistic readers, shared lockers, an exclusive
    /// writer (whose in-progress write leaves an odd "torn" payload), and
    /// clock marks against one frame word. A validated optimistic read
    /// must never have overlapped a write — neither a torn intermediate
    /// nor a committed version change slips through validation.
    #[test]
    fn olc_validation_rejects_every_interleaved_write(
        ops in prop::collection::vec((0u32..8, 0u32..4), 1..96)
    ) {
        let state = FrameState::new();
        // Frames are born evicted; publish version 0 once.
        prop_assert!(state.try_lock_x());
        state.unlock_x();

        let mut payload: u64 = 0; // even = consistent, odd = torn
        let mut writer_locked = false;
        let mut optimistic: [Option<(u64, u64)>; 4] = [None; 4];
        let mut shared: [bool; 4] = [false; 4];
        for (op, who) in ops {
            let who = who as usize;
            match op {
                // Optimistic read begins: snapshot word + payload.
                0 => optimistic[who] = state.optimistic_pre().map(|w| (w, payload)),
                // Optimistic read ends: validation must imply consistency.
                1 => {
                    if let Some((pre, snap)) = optimistic[who].take() {
                        if state.optimistic_validate(pre) {
                            prop_assert_eq!(payload % 2, 0, "validated a torn frame");
                            prop_assert_eq!(payload, snap, "validated a stale snapshot");
                        }
                    }
                }
                // Writer locks and starts a (torn) write.
                2 => {
                    if !writer_locked && state.try_lock_x() {
                        writer_locked = true;
                        payload += 1;
                    }
                }
                // Writer completes and publishes.
                3 => {
                    if writer_locked {
                        payload += 1;
                        state.unlock_x();
                        writer_locked = false;
                    }
                }
                // Pessimistic shared readers always see consistent data.
                4 => {
                    if !shared[who] && state.try_lock_s() {
                        shared[who] = true;
                        prop_assert_eq!(payload % 2, 0, "s-lock admitted mid-write");
                    }
                }
                5 => {
                    if shared[who] {
                        state.unlock_s();
                        shared[who] = false;
                    }
                }
                // Clock hand marks/unmarks; neither invalidates readers.
                6 => {
                    let _ = state.try_mark();
                }
                7 => {
                    let _ = state.clear_mark();
                }
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn buffered_scan_matches_plain_scan_and_splits_traffic() {
    let (fact, _ns) = columnar();
    let projection = [Column::Revenue, Column::Quantity];
    let plain = scan_sum(&fact, &projection, 2);

    // Budget holds the whole projection: both columns are admitted.
    let budget: u64 = projection
        .iter()
        .map(|&c| fact.column_bytes(c).div_ceil(FRAME_BYTES) * FRAME_BYTES)
        .sum();
    let pool = BufferPool::new(SocketId(0), budget).expect("pool");

    let cold = scan_buffered_sum(&fact, &pool, &projection, 2);
    assert_eq!(cold, plain, "cold buffered scan result");
    let after_cold = pool.stats();
    assert!(after_cold.fills > 0, "cold scan fills frames");
    assert!(after_cold.miss_bytes > 0, "cold scan misses charge PMEM");

    let warm = scan_buffered_sum(&fact, &pool, &projection, 2);
    assert_eq!(warm, plain, "warm buffered scan result");
    let after_warm = pool.stats();
    let hit_delta = after_warm.hit_bytes - after_cold.hit_bytes;
    let miss_delta = after_warm.miss_bytes - after_cold.miss_bytes;
    assert!(hit_delta > 0, "warm scan hits DRAM");
    assert_eq!(miss_delta, 0, "fully admitted projection re-reads nothing");

    // The frames live in a tracked DRAM namespace: hits are charged there.
    let dram = pool.dram_traffic();
    assert!(dram.read_bytes() >= hit_delta, "DRAM lane carries the hits");

    // And the cost model prices the split cheaper than pure PMEM.
    let planner = AccessPlanner::paper_default();
    let cfg = TimingConfig::paper_aware(StorageDevice::PmemFsdax);
    let total = hit_delta + miss_delta;
    let pure = tiered_scan_seconds(planner.simulation(), &cfg, total, 0);
    let split = tiered_scan_seconds(planner.simulation(), &cfg, miss_delta, hit_delta);
    assert!(
        split < pure,
        "tiered pricing must beat pure PMEM: {split} vs {pure}"
    );
}

#[test]
fn concurrent_scans_survive_memory_pressure_and_eviction() {
    let (fact, _ns) = columnar();
    let projection = [Column::Revenue, Column::ExtendedPrice, Column::Discount];
    let plain = scan_sum(&fact, &projection, 4);

    let budget: u64 = projection
        .iter()
        .map(|&c| fact.column_bytes(c).div_ceil(FRAME_BYTES) * FRAME_BYTES)
        .sum();
    let pool = BufferPool::new(SocketId(0), budget).expect("pool");
    assert_eq!(scan_buffered_sum(&fact, &pool, &projection, 4), plain);
    assert_eq!(scan_buffered_sum(&fact, &pool, &projection, 4), plain);
    let occupied_before = pool.occupied();
    assert!(occupied_before > 0, "warm pool holds frames");

    // Brownout signal: the tier shrinks, clock eviction trims residency,
    // and concurrent scans stay correct against the smaller pool.
    pool.set_pressure(0.3);
    assert!(
        pool.effective_budget() < budget,
        "pressure shrinks the tier"
    );
    assert!(pool.occupied() < occupied_before, "eviction trimmed frames");
    assert!(
        pool.stats().evictions > 0,
        "clock hand evicted under pressure"
    );
    assert_eq!(scan_buffered_sum(&fact, &pool, &projection, 4), plain);

    // Pressure lifts: the tier re-grows and warms back up.
    pool.set_pressure(1.0);
    assert_eq!(pool.effective_budget(), pool.budget());
    assert_eq!(scan_buffered_sum(&fact, &pool, &projection, 4), plain);
    assert!(pool.stats().hit_rate() > 0.0);
}

/// Seeded Zipfian multi-tenant query mix: 3 tenants, queries drawn from a
/// Zipf(0.99) popularity ranking, staggered arrivals, pinned to socket 0
/// so the working set concentrates where the DRAM budget lands.
fn zipfian_jobs() -> Vec<JobSpec> {
    let queries = [
        QueryId::Q1_1,
        QueryId::Q1_2,
        QueryId::Q1_3,
        QueryId::Q2_1,
        QueryId::Q3_1,
        QueryId::Q4_1,
    ];
    let sampler = ZipfSampler::new(queries.len() as u64, 0.99);
    let mut rng = SEED;
    (0..24)
        .map(|i| {
            let q = queries[sampler.sample(&mut rng) as usize];
            JobSpec::query(q)
                .threads(4)
                .tenant(1 + (i % 3) as u32)
                .socket(SocketId(0))
                .arrival(i as f64 * 0.0005)
        })
        .collect()
}

fn run_with(store: &SsbStore, planner: &AccessPlanner, tier: Option<HotTierPolicy>) -> ServeReport {
    let config = ServeConfig {
        hot_tier: tier,
        ..ServeConfig::scheduled(planner)
    };
    let mut server = QueryServer::new(store, config);
    server.submit_all(zipfian_jobs());
    server.run().expect("serve run")
}

fn goodput(report: &ServeReport) -> f64 {
    let bytes: u64 = report
        .jobs
        .iter()
        .filter(|j| j.outcome.is_completed())
        .map(|j| j.bytes)
        .sum();
    bytes as f64 / report.makespan.max(1e-9)
}

fn e2e_p99(report: &ServeReport) -> f64 {
    let e2e: Vec<f64> = report
        .jobs
        .iter()
        .filter(|j| j.outcome.is_completed())
        .map(|j| (j.finished_at - j.arrival).max(0.0))
        .collect();
    pmem_serve::Percentiles::of(&e2e).p99
}

#[test]
fn zipfian_hot_tier_beats_pure_pmem_with_flat_p99() {
    let store = store();
    let planner = AccessPlanner::paper_default();
    // The workload's footprint (both fact partitions plus auxiliaries)
    // exceeds this budget, so admission and partial caching are exercised.
    let budget = store.fact_bytes() / 2;

    let pure = run_with(&store, &planner, None);
    assert!(pure.hot_tier.is_none(), "no tier reports nothing");
    let tiered = run_with(&store, &planner, Some(HotTierPolicy::with_budget(budget)));
    let tier = tiered.hot_tier.as_ref().expect("tier report present");

    // Everything completes in both runs; the buffered run is faster.
    assert_eq!(pure.shed_jobs() + pure.failed_jobs(), 0);
    assert_eq!(tiered.shed_jobs() + tiered.failed_jobs(), 0);
    assert!(tier.hit_rate > 0.05, "hit rate {}", tier.hit_rate);
    assert!(tier.hit_bytes > 0);
    assert!(tier.admitted_bytes <= budget, "plan respects the budget");
    assert!(
        goodput(&tiered) > goodput(&pure) * 1.02,
        "buffered goodput {} must beat pure PMEM {}",
        goodput(&tiered),
        goodput(&pure)
    );
    assert!(
        e2e_p99(&tiered) <= e2e_p99(&pure) * 1.01 + 1e-9,
        "p99 stays flat: {} vs {}",
        e2e_p99(&tiered),
        e2e_p99(&pure)
    );

    // Per-tenant hit rates are exposed, and reads actually hit.
    assert!(tiered.tenants.iter().any(|t| t.hit_rate > 0.0));
    assert!(tiered.jobs.iter().any(|j| j.hit_rate > 0.0));

    // The hit-rate-vs-latency curve: 5 ascending budget points, the first
    // being the pure-PMEM baseline; hit rate grows with budget and
    // latency never worsens as the tier grows.
    assert_eq!(tier.curve.len(), 5);
    assert_eq!(tier.curve[0].budget_bytes, 0);
    assert_eq!(tier.curve[0].hit_rate, 0.0, "zero budget = pure PMEM");
    for pair in tier.curve.windows(2) {
        assert!(pair[0].budget_scale < pair[1].budget_scale);
        assert!(
            pair[1].hit_rate >= pair[0].hit_rate - 1e-12,
            "hit rate monotone in budget"
        );
        assert!(
            pair[1].e2e_p99 <= pair[0].e2e_p99 * 1.01 + 1e-9,
            "p99 must not grow with the tier: {} -> {}",
            pair[0].e2e_p99,
            pair[1].e2e_p99
        );
    }
    let first = tier.curve.first().expect("baseline point");
    let last = tier.curve.last().expect("full-budget point");
    assert!(last.hit_rate > first.hit_rate, "budget buys hits");
    assert!(last.goodput_gib_s > first.goodput_gib_s, "and goodput");

    // Determinism: the same seed reproduces the same report.
    let again = run_with(&store, &planner, Some(HotTierPolicy::with_budget(budget)));
    assert_eq!(tiered.makespan, again.makespan);
    let tier_again = again.hot_tier.as_ref().expect("tier report");
    assert_eq!(tier.hit_bytes, tier_again.hit_bytes);
    assert_eq!(tier.curve, tier_again.curve);
}

#[test]
fn brownout_shrinks_the_hot_tier_before_shedding() {
    let store = store();
    let planner = AccessPlanner::paper_default();
    let mut overload = OverloadPolicy::surge();
    // Shallow brownout threshold so a burst of ten queries trips it.
    overload.brownout.queue_high = 2;
    let mut config = ServeConfig::scheduled(&planner)
        .with_overload(overload)
        .with_hot_tier(HotTierPolicy::with_budget(store.fact_bytes() / 2).shrink(0.25));
    // No coalescing: each query stays its own unit so the line runs deep.
    config.batch_window = 0.0;

    let mut server = QueryServer::new(&store, config);
    let queries = [
        QueryId::Q1_1,
        QueryId::Q1_2,
        QueryId::Q1_3,
        QueryId::Q2_1,
        QueryId::Q3_1,
    ];
    for i in 0..10u32 {
        server.submit(
            JobSpec::query(queries[(i % 5) as usize])
                .threads(6)
                .socket(SocketId(0))
                .tenant(1 + i % 2),
        );
    }
    let report = server.run().expect("serve run");

    assert!(report.brownout_seconds > 0.0, "the burst browned out");
    let tier = report.hot_tier.as_ref().expect("tier report");
    assert!(
        tier.shrunk_seconds > 0.0,
        "memory pressure shrank the tier before shedding"
    );
    assert!(tier.shrunk_seconds <= report.brownout_seconds + 1e-9);
    assert!(tier.hit_bytes > 0, "the shrunken tier still serves hits");
    assert_eq!(report.shed_jobs(), 0, "shrinking came before shedding");
    assert_eq!(report.failed_jobs(), 0);
}
