//! `fleet-chaos`: an 8-machine fleet with the accrual detector run
//! healthy, with a lost shard, gray, and through a rejoin; a seeded chaos
//! campaign; and the three crash-state clients.
//!
//! The shards are ingest-only, so no real query plane runs: host time goes
//! to `serve`'s virtual loop, the cluster, and the store's fine-grained
//! clwb/sfence/crash path.

use std::time::Instant;

use pmem_cluster::{Cluster, ClusterConfig, DetectorConfig, GrayConfig, RecoveryConfig};
use pmem_crashmc::chaos::{build_cluster, ChaosFuzzConfig};
use pmem_crashmc::{clients, CheckReport, CrashChecker};
use pmem_serve::ServeReport;
use pmem_sim::rng::splitmix64;

use crate::ctx::Ctx;
use crate::metrics::median;
use crate::serve_zipf::Pool;

/// Machines in the fleet.
pub const SHARDS: u32 = 8;
/// The machine every fault scenario hits.
pub const VICTIM: u32 = 3;
/// When the lost-shard run blacks the victim out (virtual seconds).
pub const LOST_AT: f64 = 0.05;
/// The gray window: the victim serves at [`GRAY_FACTOR`] of its rate
/// over 60% of the 0.2 s horizon.
pub const GRAY_WINDOW: (f64, f64) = (0.04, 0.16);
/// Service-rate factor inside the gray window.
pub const GRAY_FACTOR: f64 = 0.1;
/// Chaos schedules per cycle. Twelve put the median op inside the dense
/// cluster of chaos-schedule runs rather than in the gap above it.
pub const CHAOS_SCHEDULES: u32 = 12;
/// Cycles the virtual metrics pool, whatever the host speed.
pub const FIXED_CYCLES: usize = 8;
/// Worker-log appends the crash checker traces (as `repro --crashes`).
pub const LOG_APPENDS: u64 = 30;
/// Checkpoint batches the crash checker traces (as `repro --crashes`).
pub const CHECKPOINT_BATCHES: u64 = 16;

const CYCLE_SALT: u64 = 0xf1ee_0001;
const PROBE_SALT: u64 = 0xf1ee_0002;

/// Host times per scenario, in seconds.
#[derive(Debug, Default)]
struct Host {
    build: Vec<f64>,
    healthy: Vec<f64>,
    lost: Vec<f64>,
    gray: Vec<f64>,
    rejoin: Vec<f64>,
    chaos: Vec<f64>,
    crash: Vec<f64>,
}

/// Virtual outcomes and counts of the fixed cycles.
#[derive(Debug, Default)]
struct Virtual {
    pool: Pool,
    rerouted: u64,
    hedges_fired: u64,
    hedge_wins: u64,
    detect_s: Vec<f64>,
    ship_bytes: u64,
    hash_bytes: u64,
    full_weight_s: Vec<f64>,
    ratio: [Vec<f64>; 3],
    crash_states: u64,
    chaos_events: u64,
    violations: u64,
}

impl Virtual {
    /// Pool one scenario's per-machine serving reports; the fleet's
    /// makespan is its slowest machine's.
    fn add_run(&mut self, per_shard: &[ServeReport]) {
        for report in per_shard {
            self.pool.add(report);
        }
        self.pool.makespan_s += per_shard.iter().map(|r| r.makespan).fold(0.0, f64::max);
    }
}

fn cycle_seed(seed: u64, c: u64) -> u64 {
    splitmix64(seed ^ CYCLE_SALT ^ splitmix64(c))
}

/// One cycle on a freshly built fleet. Every scenario, chaos schedule and
/// crash client is one op; `virt` collects the virtual outcomes.
fn cycle(ctx: &mut Ctx, seed: u64, host: &mut Host, mut virt: Option<&mut Virtual>) {
    ctx.tracer.enter("bench.cycle");
    let cfg = ClusterConfig::demo(SHARDS, seed).with_detector(DetectorConfig::accrual());
    let (fleet, build_s) = ctx.tracer.timed("cluster.build", || Cluster::build(cfg));
    let chaos_cfg = ChaosFuzzConfig::smoke(seed, CHAOS_SCHEDULES);
    let (campaign, chaos_build_s) = ctx
        .tracer
        .timed("cluster.build.chaos", || build_cluster(&chaos_cfg));
    ctx.setups.push(build_s + chaos_build_s);
    host.build.push(build_s);

    match fleet {
        Ok(mut fleet) => scenarios(ctx, &mut fleet, host, virt.as_deref_mut()),
        Err(e) => ctx.check_run("cluster builds", false, || format!("fleet: {e}")),
    }
    match campaign {
        Ok(mut campaign) => chaos(ctx, &mut campaign, &chaos_cfg, host, virt.as_deref_mut()),
        Err(e) => ctx.check_run("cluster builds", false, || format!("chaos: {e}")),
    }
    crash_clients(ctx, host, virt);
    ctx.tracer.exit();
}

fn scenarios(ctx: &mut Ctx, fleet: &mut Cluster, host: &mut Host, virt: Option<&mut Virtual>) {
    let (healthy, t) = ctx.op("cluster.run.healthy", || fleet.run_healthy());
    host.healthy.push(t);
    let healthy = match healthy {
        Ok(r) => {
            let ok = ctx.check("cluster data intact", r.data_intact(), || "healthy".into());
            ctx.op_result(ok);
            r
        }
        Err(e) => {
            ctx.check_run("cluster run returns Ok", false, || format!("healthy: {e}"));
            return;
        }
    };

    let (lost, t) = ctx.op("cluster.run.lost", || {
        fleet.run_with_lost_shard(VICTIM, LOST_AT)
    });
    host.lost.push(t);
    let lost = lost.inspect(|r| {
        let ok = ctx.check("cluster data intact", r.data_intact(), || {
            "lost shard".into()
        });
        ctx.op_result(ok);
    });

    let (at, until) = GRAY_WINDOW;
    let gray_cfg = GrayConfig::demo().with_fail_slow(VICTIM, at, until, GRAY_FACTOR);
    let (gray, t) = ctx.op("cluster.run.gray", || fleet.run_gray(&gray_cfg));
    host.gray.push(t);
    let gray = gray.inspect(|r| {
        let ok = ctx.check("cluster data intact", r.data_intact(), || "gray".into())
            & ctx.check(
                "gray: no mismatched or double-counted partials",
                r.mismatched_queries == 0 && r.double_counted == 0,
                || {
                    format!(
                        "{} mismatched, {} double",
                        r.mismatched_queries, r.double_counted
                    )
                },
            );
        ctx.op_result(ok);
    });

    let (rejoin, t) = ctx.op("cluster.run.rejoin", || {
        fleet.run_rejoin(&RecoveryConfig::demo(VICTIM))
    });
    host.rejoin.push(t);
    let rejoin = rejoin.inspect(|r| {
        let ok = ctx.check("cluster data intact", r.data_intact(), || "rejoin".into())
            & ctx.check(
                "rejoin: caught up and back at full weight",
                r.caught_up && r.full_weight_at.is_some(),
                || {
                    format!(
                        "caught_up {}, full weight {:?}",
                        r.caught_up, r.full_weight_at
                    )
                },
            );
        ctx.op_result(ok);
    });

    let (lost, gray, rejoin) = match (lost, gray, rejoin) {
        (Ok(l), Ok(g), Ok(r)) => (l, g, r),
        (l, g, r) => {
            for e in [l.err(), g.err(), r.err()].into_iter().flatten() {
                ctx.check_run("cluster run returns Ok", false, || e.to_string());
            }
            return;
        }
    };
    let Some(v) = virt else { return };
    v.add_run(&healthy.per_shard);
    v.add_run(&lost.per_shard);
    v.add_run(&gray.per_shard);
    v.add_run(&rejoin.per_shard);
    v.rerouted += lost.rerouted_jobs + rejoin.rerouted_jobs;
    v.hedges_fired += gray.hedges_fired;
    v.hedge_wins += gray.hedge_wins;
    v.detect_s.push(rejoin.detect_at - rejoin.blackout_at);
    v.ship_bytes += rejoin.catch_up.bytes_shipped;
    v.hash_bytes += rejoin.catch_up.hash_bytes_exchanged;
    v.full_weight_s.extend(rejoin.time_to_full_weight());
    let base = healthy.goodput_bytes_per_sec.max(1e-12);
    v.ratio[0].push(lost.goodput_bytes_per_sec / base);
    v.ratio[1].push(gray.ingest_goodput_bytes_per_sec / base);
    v.ratio[2].push(rejoin.goodput_bytes_per_sec / base);
}

fn chaos(
    ctx: &mut Ctx,
    campaign: &mut Cluster,
    cfg: &ChaosFuzzConfig,
    host: &mut Host,
    mut virt: Option<&mut Virtual>,
) {
    let (baseline, _) = ctx.op("cluster.run.chaos_baseline", || campaign.run_healthy());
    let healthy_p99 = match baseline {
        Ok(r) => {
            let ok = ctx.check("cluster data intact", r.data_intact(), || {
                "chaos baseline".into()
            });
            ctx.op_result(ok);
            r.e2e.p99
        }
        Err(e) => {
            ctx.check_run("cluster run returns Ok", false, || {
                format!("chaos baseline: {e}")
            });
            return;
        }
    };
    for i in 0..cfg.schedules {
        let schedule = cfg.schedule(i);
        let (report, t) = ctx.op("cluster.chaos", || {
            campaign.run_chaos(&schedule, cfg.verify_catch_up)
        });
        host.chaos.push(t);
        let violations = match report {
            Ok(r) => r.violations(healthy_p99),
            Err(e) => vec![format!("run failed: {e}")],
        };
        let ok = ctx.check(
            "chaos: no invariant violations",
            violations.is_empty(),
            || {
                format!(
                    "schedule {i} of seed {}: {}",
                    cfg.seed,
                    violations.join("; ")
                )
            },
        );
        ctx.op_result(ok);
        if let Some(v) = virt.as_deref_mut() {
            v.chaos_events += schedule.len() as u64;
            v.violations += violations.len() as u64;
        }
    }
}

/// One of `pmem_crashmc::clients`' model-checking drivers.
type CrashClient = fn(&CrashChecker) -> CheckReport;

fn crash_clients(ctx: &mut Ctx, host: &mut Host, mut virt: Option<&mut Virtual>) {
    let checker = CrashChecker::new();
    let runs: [(&'static str, CrashClient); 3] = [
        ("check.crash.worker_log", |c| {
            clients::check_worker_log(c, LOG_APPENDS)
        }),
        ("check.crash.dash_segment", |c| {
            clients::check_dash_segment(c, true)
        }),
        ("check.crash.ssb_checkpoint", |c| {
            clients::check_ssb_checkpoint(c, CHECKPOINT_BATCHES)
        }),
    ];
    let mut total = 0.0;
    for (span, client) in runs {
        let (report, t) = ctx.op(span, || client(&checker));
        total += t;
        let ok = ctx.check(
            "crash states recover without violations",
            report.violations.is_empty() && !report.trace_truncated,
            || format!("{span}: {}", report.summary()),
        );
        ctx.op_result(ok);
        if let Some(v) = virt.as_deref_mut() {
            v.crash_states += report.states_explored as u64;
            v.violations += report.violations.len() as u64;
        }
    }
    host.crash.push(total);
}

fn record(ctx: &mut Ctx, host: &Host, virt: &Virtual) {
    let ms = |v: &[f64]| median(v) * 1e3;
    ctx.set("cluster.build_ms", ms(&host.build));
    ctx.set("cluster.run_ms.healthy", ms(&host.healthy));
    ctx.set("cluster.run_ms.lost", ms(&host.lost));
    ctx.set("cluster.run_ms.gray", ms(&host.gray));
    ctx.set("cluster.run_ms.rejoin", ms(&host.rejoin));
    ctx.set("cluster.chaos_ms.p50", ms(&host.chaos));
    ctx.set("check.crash_ms", ms(&host.crash));

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    virt.pool.set_sim(ctx);
    virt.pool.set_serve(ctx);
    ctx.set("cluster.rerouted_jobs", virt.rerouted as f64);
    ctx.set("cluster.hedges_fired", virt.hedges_fired as f64);
    ctx.set("cluster.hedge_wins", virt.hedge_wins as f64);
    ctx.set("cluster.detect_s", mean(&virt.detect_s));
    ctx.set("cluster.ship_bytes", virt.ship_bytes as f64);
    ctx.set("cluster.hash_bytes", virt.hash_bytes as f64);
    ctx.set("cluster.full_weight_s", mean(&virt.full_weight_s));
    ctx.set("cluster.goodput_ratio.lost", mean(&virt.ratio[0]));
    ctx.set("cluster.goodput_ratio.gray", mean(&virt.ratio[1]));
    ctx.set("cluster.goodput_ratio.rejoin", mean(&virt.ratio[2]));
    ctx.set("check.crash_states", virt.crash_states as f64);
    ctx.set("check.chaos_events", virt.chaos_events as f64);
    ctx.set("check.violations", virt.violations as f64);
}

/// Cycles while `more(cycles_done)`; the first `fixed` feed the virtual
/// metrics.
fn cycles(ctx: &mut Ctx, seed: u64, fixed: usize, more: impl Fn(usize) -> bool) {
    let mut host = Host::default();
    let mut virt = Virtual::default();
    let mut done = 0;
    while more(done) {
        let pooled = (done < fixed).then_some(&mut virt);
        cycle(ctx, cycle_seed(seed, done as u64), &mut host, pooled);
        done += 1;
    }
    record(ctx, &host, &virt);
}

/// The timed workload: cycles until `seconds` have passed (at least
/// [`FIXED_CYCLES`]).
pub fn run(ctx: &mut Ctx, seed: u64, seconds: f64) {
    let start = Instant::now();
    cycles(ctx, seed, FIXED_CYCLES, |done| {
        done < FIXED_CYCLES || start.elapsed().as_secs_f64() < seconds
    });
    ctx.set("serve.repeat_share", 0.0);
}

/// Fill the cluster and check metrics of a workload that bypasses them:
/// one cycle.
pub fn probe(ctx: &mut Ctx, seed: u64) {
    cycles(ctx, splitmix64(seed ^ PROBE_SALT), 1, |done| done < 1);
}
