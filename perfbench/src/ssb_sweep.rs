//! `ssb-sweep`: all 13 SSB queries on both engines over freshly seeded
//! SF 0.1 data sets on PMEM fsdax, priced the way `repro` prices Figure 14.
//!
//! Each data set is generated, loaded into the aware store and queried;
//! the first data set of every cycle is then also loaded into the unaware
//! store and queried again. Every (query, engine, data set) runs exactly
//! once: the repeat share is 0.

use std::time::Instant;

use pmem_sim::rng::splitmix64;
use pmem_sim::Simulation;
use pmem_ssb::datagen::{self, SsbData};
use pmem_ssb::reference::reference_query;
use pmem_ssb::report::{fig14a_unaware, fig14b_aware, SsbFigure};
use pmem_ssb::timing::{estimate, TimingBreakdown, TimingConfig, TimingParams};
use pmem_ssb::{run_query, EngineMode, OpCounters, QueryId, SsbStore, StorageDevice};
use pmem_store::TrackerSnapshot;

use crate::ctx::Ctx;
use crate::metrics::{median, nearest_rank, tail};

/// Scale factor of the timed data sets (ROADMAP's reference rung).
pub const SF: f64 = 0.1;
/// Threads per `run_query`, as `repro` runs it; the simulated totals are
/// the same at 2 and 8 threads.
pub const THREADS: u32 = 2;
/// Scale factor of the one data set other workloads' traced runs sweep to
/// fill the ssb, store and sim metrics.
pub const PROBE_SF: f64 = 0.01;
/// Scale factor of the unaware-engine probe that keeps ROADMAP item 2's
/// out-of-space defect visible.
pub const DEFECT_SF: f64 = 0.2;
/// Data sets per timed cycle. Each is swept by the aware engine, only the
/// first by the unaware one. With one sweep of each per data set the
/// median op sits at the sparse top edge of the aware engine's latencies
/// and its spread over ten seeds was 0.18-0.36 of the median; with three
/// aware sweeps per unaware one it sits inside that cluster.
pub const SETS_PER_CYCLE: u64 = 3;
/// The data seed `repro`'s Figure 14 runs on; a data set with this seed
/// must price exactly as `fig14b_aware` / `fig14a_unaware` do.
pub const PINNED_SEED: u64 = 414;

const PROBE_SALT: u64 = 0x55b_9120;
const DEFECT_SALT: u64 = 0x55b_0f02;
const GIB: f64 = (1u64 << 30) as f64;

/// How the benchmark runs one engine.
struct Engine {
    mode: EngineMode,
    label: &'static str,
    /// The SF its Figure 14 half prices at (14b: 100, 14a: 50).
    target_sf: f64,
    load_span: &'static str,
    query_span: &'static str,
}

const ENGINES: [Engine; 2] = [
    Engine {
        mode: EngineMode::Aware,
        label: "aware",
        target_sf: 100.0,
        load_span: "ssb.load.aware",
        query_span: "ssb.query.aware",
    },
    Engine {
        mode: EngineMode::Unaware,
        label: "unaware",
        target_sf: 50.0,
        load_span: "ssb.load.unaware",
        query_span: "ssb.query.unaware",
    },
];

/// The reference rows a query's output must equal.
pub type Reference = fn(&SsbData, QueryId) -> Vec<(u64, i64)>;

/// What one engine did on one data set.
#[derive(Debug, Default)]
struct EngineRun {
    load_s: f64,
    query_s: Vec<f64>,
    counters: OpCounters,
    /// PMEM-fsdax pricing per completed query at the target SF.
    pmem: Vec<TimingBreakdown>,
    /// DRAM pricing of the same queries (the Figure 14 ratio's base).
    dram_s: Vec<f64>,
    /// Fact bytes the completed queries scan, scaled to the target SF.
    fact_target_bytes: f64,
}

impl EngineRun {
    fn pmem_total(&self) -> f64 {
        self.pmem.iter().map(|b| b.total_seconds).sum()
    }
}

/// One swept data set.
#[derive(Debug)]
struct DataSet {
    seed: u64,
    datagen_s: f64,
    /// One run per engine swept, in [`ENGINES`] order.
    engines: Vec<EngineRun>,
    load_traffic: TrackerSnapshot,
    query_traffic: TrackerSnapshot,
}

/// The seed of the `d`-th data set of a run: the first one is the run's
/// seed itself, so `--seed 414` sweeps `repro`'s Figure 14 data.
pub fn data_seed(seed: u64, d: u64) -> u64 {
    if d == 0 {
        seed
    } else {
        splitmix64(seed ^ splitmix64(d))
    }
}

fn store_traffic(store: &SsbStore) -> TrackerSnapshot {
    let mut total = TrackerSnapshot::default();
    for s in &store.shards {
        for ns in [&s.fact_ns, &s.dim_ns, &s.index_ns, &s.intermediate_ns] {
            total = total.plus(&ns.tracker().snapshot());
        }
    }
    total
}

fn pricing(engine: &Engine, device: StorageDevice, sf: f64) -> TimingConfig {
    let cfg = match engine.mode {
        EngineMode::Aware => TimingConfig::paper_aware(device),
        EngineMode::Unaware => TimingConfig::paper_unaware(device),
    };
    cfg.sf(sf, engine.target_sf)
}

/// Generate one data set, then load and query each of `engines`' stores
/// in turn. Each store built is one set-up sample (the first pays the
/// datagen too) and each query one op; every query's rows are checked
/// against `reference`.
fn data_set(
    ctx: &mut Ctx,
    sf: f64,
    seed: u64,
    engines: &[Engine],
    reference: Reference,
) -> DataSet {
    ctx.tracer.enter("bench.data_set");
    let (data, datagen_s) = ctx
        .tracer
        .timed("ssb.datagen", || datagen::generate(sf, seed));
    let (expected, _) = ctx.tracer.timed("bench.reference", || {
        QueryId::ALL.map(|q| reference(&data, q))
    });
    let sim = Simulation::paper_default();
    let params = TimingParams::default();
    let mut out = DataSet {
        seed,
        datagen_s,
        engines: Vec::new(),
        load_traffic: TrackerSnapshot::default(),
        query_traffic: TrackerSnapshot::default(),
    };
    let mut setup_s = datagen_s;
    for engine in engines {
        out.engines.push(EngineRun::default());
        let run = out.engines.last_mut().expect("just pushed");
        let device = StorageDevice::PmemFsdax;
        let (loaded, load_s) = ctx.tracer.timed(engine.load_span, || {
            SsbStore::load(&data, sf, engine.mode, device)
        });
        ctx.setups.push(setup_s + load_s);
        setup_s = 0.0;
        run.load_s = load_s;
        let store = match loaded {
            Ok(store) => store,
            Err(e) => {
                ctx.check_run("ssb store loads", false, || {
                    format!("{} data seed {seed}: {e}", engine.label)
                });
                continue;
            }
        };
        out.load_traffic = out.load_traffic.plus(&store_traffic(&store));
        let pmem_cfg = pricing(engine, device, sf);
        let dram_cfg = pricing(engine, StorageDevice::Dram, sf);
        for (q, expected) in QueryId::ALL.into_iter().zip(&expected) {
            store.reset_trackers();
            let (result, secs) = ctx.op(engine.query_span, || run_query(&store, q, THREADS));
            run.query_s.push(secs);
            let ok = match result {
                Ok(outcome) => {
                    out.query_traffic = out.query_traffic.plus(&store_traffic(&store));
                    let ((pmem, dram), _) = ctx.tracer.timed("sim.estimate", || {
                        (
                            estimate(&outcome, engine.mode, &pmem_cfg, &sim, &params),
                            estimate(&outcome, engine.mode, &dram_cfg, &sim, &params),
                        )
                    });
                    run.counters.merge(&outcome.counters);
                    run.fact_target_bytes +=
                        outcome.traffic.fact_read_bytes() as f64 * pmem_cfg.fact_scale();
                    run.pmem.push(pmem);
                    run.dram_s.push(dram.total_seconds);
                    ctx.check("ssb rows == reference", outcome.rows == *expected, || {
                        format!(
                            "{} {} data seed {seed}: {} rows differ from the reference's {}",
                            engine.label,
                            q.name(),
                            outcome.rows.len(),
                            expected.len()
                        )
                    })
                }
                Err(e) => ctx.check("ssb query returns Ok", false, || {
                    format!("{} {} data seed {seed}: {e}", engine.label, q.name())
                }),
            };
            ctx.op_result(ok);
        }
    }
    ctx.tracer.exit();
    out
}

/// The timed workload: cycles of [`SETS_PER_CYCLE`] data sets until
/// `seconds` have passed (at least one cycle). Virtual metrics and counts
/// come from the first data set only, so they do not depend on how many
/// data sets the host finished.
pub fn run(ctx: &mut Ctx, seed: u64, seconds: f64) {
    let start = Instant::now();
    let mut sets = Vec::new();
    while sets.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for i in 0..SETS_PER_CYCLE {
            let engines = if i == 0 { &ENGINES[..] } else { &ENGINES[..1] };
            let seed = data_seed(seed, sets.len() as u64);
            sets.push(data_set(ctx, SF, seed, engines, reference_query));
        }
    }
    if sets[0].seed == PINNED_SEED {
        pinned_check(ctx, &sets[0]);
    }
    record(ctx, &sets);
    let (aware, unaware) = (&sets[0].engines[0], &sets[0].engines[1]);
    let offered = 2 * QueryId::ALL.len();
    let pmem: Vec<f64> = aware
        .pmem
        .iter()
        .chain(&unaware.pmem)
        .map(|b| b.total_seconds)
        .collect();
    ctx.set(
        "sim_goodput_gib_s",
        (aware.fact_target_bytes + unaware.fact_target_bytes)
            / (aware.pmem_total() + unaware.pmem_total())
            / GIB,
    );
    ctx.set("sim_p99_ms", nearest_rank(&pmem, 99.0) * 1e3);
    ctx.set("sim_met_frac", pmem.len() as f64 / offered as f64);
    ctx.set("serve.repeat_share", 0.0);
}

/// `repro`'s Figure 14 at the same SF: the first data set, swept on seed
/// 414, must price to exactly the same PMEM sums.
fn pinned_check(ctx: &mut Ctx, set: &DataSet) {
    let figures = [fig14b_aware(SF, THREADS), fig14a_unaware(SF, THREADS)];
    for ((figure, run), engine) in figures.iter().zip(&set.engines).zip(&ENGINES) {
        let ours = run.pmem_total();
        let theirs = figure
            .as_ref()
            .map(|f: &SsbFigure| f.rows.iter().map(|r| r.pmem_seconds).sum::<f64>());
        ctx.check_run(
            "sim sums == repro Figure 14 (seed 414)",
            matches!(theirs, Ok(t) if t.to_bits() == ours.to_bits()),
            || format!("{}: swept {ours} s, repro {theirs:?}", engine.label),
        );
    }
}

/// Per-layer ssb, store and sim metrics of a sweep.
fn record(ctx: &mut Ctx, sets: &[DataSet]) {
    let runs = |e: usize| sets.iter().filter_map(move |s| s.engines.get(e));
    let datagen: Vec<f64> = sets.iter().map(|s| s.datagen_s).collect();
    ctx.set("ssb.datagen_s", median(&datagen));
    ctx.set(
        "ssb.load_s.aware",
        median(&runs(0).map(|r| r.load_s).collect::<Vec<_>>()),
    );
    ctx.set(
        "ssb.load_s.unaware",
        median(&runs(1).map(|r| r.load_s).collect::<Vec<_>>()),
    );
    for (e, (p50, tail_name)) in [
        ("ssb.query_ms.aware.p50", "ssb.query_ms.aware.tail"),
        ("ssb.query_ms.unaware.p50", "ssb.query_ms.unaware.tail"),
    ]
    .into_iter()
    .enumerate()
    {
        let ms: Vec<f64> = runs(e)
            .flat_map(|r| r.query_s.iter().map(|t| t * 1e3))
            .collect();
        ctx.set(p50, median(&ms));
        ctx.set(tail_name, tail(&ms).value);
    }

    let first = &sets[0];
    let counts: [[&'static str; 6]; 2] = [
        [
            "ssb.tuples_scanned.aware",
            "ssb.tuples_selected.aware",
            "ssb.probes.aware",
            "ssb.build_inserts.aware",
            "ssb.agg_updates.aware",
            "ssb.selected_per_probe.aware",
        ],
        [
            "ssb.tuples_scanned.unaware",
            "ssb.tuples_selected.unaware",
            "ssb.probes.unaware",
            "ssb.build_inserts.unaware",
            "ssb.agg_updates.unaware",
            "ssb.selected_per_probe.unaware",
        ],
    ];
    for (names, run) in counts.iter().zip(&first.engines) {
        let c = run.counters;
        ctx.set(names[0], c.tuples_scanned as f64);
        ctx.set(names[1], c.tuples_selected as f64);
        ctx.set(names[2], c.probes as f64);
        ctx.set(names[3], c.build_inserts as f64);
        ctx.set(names[4], c.agg_updates as f64);
        ctx.set(names[5], c.tuples_selected as f64 / c.probes.max(1) as f64);
    }

    let store_names: [[&'static str; 4]; 2] = [
        [
            "store.write_bytes.load",
            "store.seq_read_bytes.load",
            "store.rand_read_bytes.load",
            "store.sfences.load",
        ],
        [
            "store.write_bytes.query",
            "store.seq_read_bytes.query",
            "store.rand_read_bytes.query",
            "store.sfences.query",
        ],
    ];
    for (names, t) in store_names
        .iter()
        .zip([first.load_traffic, first.query_traffic])
    {
        ctx.set(names[0], t.write_bytes() as f64);
        ctx.set(names[1], t.seq_read_bytes as f64);
        ctx.set(names[2], t.rand_read_bytes as f64);
        ctx.set(names[3], t.sfences as f64);
    }

    let sim_names: [[&'static str; 7]; 2] = [
        [
            "sim.scan_s.aware",
            "sim.probe_s.aware",
            "sim.build_s.aware",
            "sim.intermediate_s.aware",
            "sim.cpu_s.aware",
            "sim.fig14b_ratio",
            "sim.ssb_aware_s",
        ],
        [
            "sim.scan_s.unaware",
            "sim.probe_s.unaware",
            "sim.build_s.unaware",
            "sim.intermediate_s.unaware",
            "sim.cpu_s.unaware",
            "sim.fig14a_ratio",
            "sim.ssb_unaware_s",
        ],
    ];
    for (names, run) in sim_names.iter().zip(&first.engines) {
        let sum = |f: fn(&TimingBreakdown) -> f64| run.pmem.iter().map(f).sum::<f64>();
        ctx.set(names[0], sum(|b| b.scan_seconds));
        ctx.set(names[1], sum(|b| b.probe_seconds));
        ctx.set(names[2], sum(|b| b.build_seconds));
        ctx.set(names[3], sum(|b| b.intermediate_seconds));
        ctx.set(names[4], sum(|b| b.cpu_seconds));
        // SsbFigure::average_ratio: the mean of per-query PMEM/DRAM ratios.
        let ratios: f64 = run
            .pmem
            .iter()
            .zip(&run.dram_s)
            .map(|(p, d)| p.total_seconds / d)
            .sum();
        ctx.set(names[5], ratios / run.pmem.len().max(1) as f64);
        ctx.set(names[6], run.pmem_total());
    }
}

/// Fill the ssb, store and sim metrics of a workload that bypasses them:
/// one data set at [`PROBE_SF`].
pub fn probe(ctx: &mut Ctx, seed: u64) {
    let seed = splitmix64(seed ^ PROBE_SALT);
    let set = data_set(ctx, PROBE_SF, seed, &ENGINES, reference_query);
    record(ctx, &[set]);
}

/// Sweep the unaware engine over one SF 0.2 data set and record how many
/// queries fail. Failures are the known defect being measured, not failed
/// ops; a query that succeeds must still return the reference rows.
pub fn defect_probe(ctx: &mut Ctx, seed: u64) {
    let data = datagen::generate(DEFECT_SF, splitmix64(seed ^ DEFECT_SALT));
    let store = SsbStore::load(
        &data,
        DEFECT_SF,
        EngineMode::Unaware,
        StorageDevice::PmemFsdax,
    );
    let store = match store {
        Ok(store) => store,
        Err(e) => {
            ctx.check_run("ssb store loads", false, || format!("unaware SF 0.2: {e}"));
            return;
        }
    };
    let mut failed = 0u32;
    for q in QueryId::ALL {
        store.reset_trackers();
        match run_query(&store, q, THREADS) {
            Ok(outcome) => {
                let ok = outcome.rows == reference_query(&data, q);
                ctx.check_run("ssb rows == reference", ok, || {
                    format!("unaware {} at SF 0.2: rows differ", q.name())
                });
            }
            Err(_) => failed += 1,
        }
    }
    ctx.set("ssb.sf02_failed", f64::from(failed));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrong_for_q21(data: &SsbData, q: QueryId) -> Vec<(u64, i64)> {
        let mut rows = reference_query(data, q);
        if q == QueryId::Q2_1 {
            rows.push((u64::MAX, 1));
        }
        rows
    }

    #[test]
    fn a_planted_wrong_expectation_fails_one_op_per_engine_and_the_sweep_goes_on() {
        let mut ctx = Ctx::new(false);
        let set = data_set(&mut ctx, 0.002, 11, &ENGINES, wrong_for_q21);
        assert_eq!(ctx.attempted, 26);
        assert_eq!(ctx.failed, 2);
        assert_eq!(ctx.verdicts["ssb rows == reference"], (24, 2));
        assert!(ctx.failures[0].contains("Q2.1"));
        assert!(set.engines.iter().all(|e| e.pmem.len() == 13));
        assert_eq!(ctx.setups.len(), 2);
    }

    #[test]
    fn the_first_data_set_sweeps_the_runs_own_seed() {
        assert_eq!(data_seed(414, 0), 414);
        assert_ne!(data_seed(414, 1), data_seed(414, 2));
    }
}
