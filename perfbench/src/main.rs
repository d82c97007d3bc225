//! `pmem-perfbench` — the repository's two-clock benchmark.
//!
//! ```text
//! pmem-perfbench --workload <ssb-sweep|serve-zipf|fleet-chaos|all> --seed <n>
//!                --seconds <s> --trace <0|1>
//! pmem-perfbench --describe
//! ```
//!
//! One single-threaded driver runs a seeded workload against the stack's
//! public functions, times each call from outside, checks every output,
//! and prints every metric with its unit and clock. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, and the
//! metrics — the end-to-end ones untraced, the per-layer ones traced.
//!
//! A traced run runs the workload twice with the same seed, untraced then
//! traced (spans recorded in memory, written out at the end), and reports
//! the difference as the tracing overhead. It then runs the direct probes:
//! `store` and `dash` micro-calls, the SF 0.2 defect sweep, and one small
//! seeded cycle of each workload whose layers this one bypasses, so every
//! traced run reports every per-layer metric.
//!
//! Virtual and count metrics must repeat bit for bit per seed. The traced
//! run compares its two passes; every run also compares against earlier
//! runs of the same binary and seed, kept beside the binary.

mod ctx;
mod fleet_chaos;
mod metrics;
mod probes;
mod serve_zipf;
mod ssb_sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use ctx::Ctx;
use metrics::{median, tail, Metric, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 3] = ["ssb-sweep", "serve-zipf", "fleet-chaos"];
const USAGE: &str = "usage: pmem-perfbench --workload <ssb-sweep|serve-zipf|fleet-chaos|all> \
                     --seed <n> --seconds <s> --trace <0|1> | --describe";

/// Host end-to-end metrics and the per-layer metric that carries the
/// tracing overhead of each.
const OVERHEAD: [(&str, &str); 5] = [
    ("setup_s", "trace.overhead.setup_s"),
    ("ops_per_s", "trace.overhead.ops_per_s"),
    ("op_ms.p50", "trace.overhead.op_ms.p50"),
    ("op_ms.tail", "trace.overhead.op_ms.tail"),
    ("peak_rss_mib", "trace.overhead.peak_rss_mib"),
];
const SELF_TIME: [(&str, &str); 6] = [
    ("ssb", "self_s.ssb"),
    ("sim", "self_s.sim"),
    ("serve", "self_s.serve"),
    ("cluster", "self_s.cluster"),
    ("check", "self_s.check"),
    ("bench", "self_s.bench"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value)
            }
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// One line per workload: what it runs and at which sizes.
fn inputs(workload: &str) -> String {
    match workload {
        "ssb-sweep" => format!(
            "13 SSB queries per engine sweep, SF {}, {} threads, PMEM fsdax; cycles of {} \
             fresh data sets, each swept by the aware engine, the first also by the \
             unaware one; data set 0 seeded with --seed; virtual metrics from data set 0",
            ssb_sweep::SF,
            ssb_sweep::THREADS,
            ssb_sweep::SETS_PER_CYCLE
        ),
        "serve-zipf" => format!(
            "{} aware stores at SF {}; rounds of {} Poisson jobs, Zipf {} over 13 queries, \
             read load {}x / write load {}x planner capacity, {} MiB ingest units, hot tier \
             = half the fact bytes; virtual metrics from the first {} rounds",
            serve_zipf::STORES,
            serve_zipf::SF,
            serve_zipf::JOBS,
            serve_zipf::THETA,
            serve_zipf::READ_LOAD,
            serve_zipf::WRITE_LOAD,
            serve_zipf::UNIT_BYTES >> 20,
            serve_zipf::FIXED_ROUNDS
        ),
        _ => format!(
            "{}-machine demo fleet, accrual detector; per cycle: healthy, lost shard {} at \
             {} s, gray {:?} s at {}x, rejoin, {} chaos schedules, 3 crash clients; \
             virtual metrics from the first {} cycles",
            fleet_chaos::SHARDS,
            fleet_chaos::VICTIM,
            fleet_chaos::LOST_AT,
            fleet_chaos::GRAY_WINDOW,
            fleet_chaos::GRAY_FACTOR,
            fleet_chaos::CHAOS_SCHEDULES,
            fleet_chaos::FIXED_CYCLES
        ),
    }
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One pass over a workload, with its end-to-end host metrics.
fn pass(workload: &str, seed: u64, seconds: f64, trace: bool) -> Ctx {
    let mut ctx = Ctx::new(trace);
    match workload {
        "ssb-sweep" => ssb_sweep::run(&mut ctx, seed, seconds),
        "serve-zipf" => serve_zipf::run(&mut ctx, seed, seconds),
        _ => fleet_chaos::run(&mut ctx, seed, seconds),
    }
    let op_secs: f64 = ctx.ops.iter().sum();
    let ms: Vec<f64> = ctx.ops.iter().map(|s| s * 1e3).collect();
    let t = tail(&ms);
    ctx.set("setup_s", median(&ctx.setups));
    ctx.set("ops_per_s", ctx.ops.len() as f64 / op_secs.max(1e-12));
    ctx.set("op_ms.p50", median(&ms));
    ctx.set("op_ms.tail", t.value);
    ctx.set("op.samples", t.samples as f64);
    ctx.set("op.tail_pct", t.pct);
    ctx.set(
        "op.failed_frac",
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
    );
    match peak_rss_mib() {
        Some(mib) => ctx.set("peak_rss_mib", mib),
        None => ctx.check_run("peak RSS is readable", false, || "/proc/self/status".into()),
    }
    ctx
}

/// Direct probes and one cycle of each workload whose layers `workload`
/// bypasses. Each probe runs on a traced context of its own; an earlier
/// probe's value (and layer self time) wins over a later one's.
fn probes(workload: &str, seed: u64) -> (Ctx, BTreeMap<&'static str, f64>) {
    let mut runs: Vec<fn(&mut Ctx, u64)> = vec![
        |ctx, _| probes::store(ctx),
        |ctx, _| probes::dash(ctx),
        ssb_sweep::defect_probe,
    ];
    if workload != "ssb-sweep" {
        runs.push(ssb_sweep::probe);
    }
    if workload != "serve-zipf" {
        runs.push(serve_zipf::probe);
    }
    if workload != "fleet-chaos" {
        runs.push(fleet_chaos::probe);
    }
    let mut merged = Ctx::new(false);
    let mut layers = BTreeMap::new();
    for run in runs {
        let mut ctx = Ctx::new(true);
        run(&mut ctx, seed);
        for (layer, secs) in trace::layer_self_times(ctx.tracer.spans()) {
            layers.entry(layer).or_insert(secs);
        }
        merged.absorb(ctx);
    }
    (merged, layers)
}

/// Compare the deterministic metrics two runs of one seed share: one
/// passed check when all agree, one failed check per metric that differs.
fn guard(ctx: &mut Ctx, earlier: &BTreeMap<String, u64>, what: &str) {
    const CHECK: &str = "virtual and count metrics repeat per seed";
    let mut compared = 0;
    let mut differ = Vec::new();
    for (name, value) in &ctx.values {
        let deterministic = metrics::find(name).is_some_and(|m| m.clock.is_deterministic());
        if let (true, Some(bits)) = (deterministic, earlier.get(*name)) {
            compared += 1;
            if *bits != value.to_bits() {
                differ.push(format!(
                    "{name}: {} now, {} {what}",
                    value,
                    f64::from_bits(*bits)
                ));
            }
        }
    }
    if compared > 0 && differ.is_empty() {
        ctx.check(CHECK, true, String::new);
    }
    for d in differ {
        ctx.check_run(CHECK, false, || d);
    }
}

fn bits_of(ctx: &Ctx) -> BTreeMap<String, u64> {
    ctx.values
        .iter()
        .map(|(name, v)| (name.to_string(), v.to_bits()))
        .collect()
}

/// Directory for the ledger and traces, beside the binary (inside the
/// build directory of the checkout).
fn out_dir(sub: &str) -> Option<PathBuf> {
    let dir = std::env::current_exe().ok()?.parent()?.join(sub);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// FNV-1a over the running binary: runs of the same build share a ledger.
fn build_id() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Check this run's deterministic metrics against earlier runs of the
/// same build and seed, then remember any it adds.
fn ledger(ctx: &mut Ctx, workload: &str, seed: u64) {
    let (Some(dir), Some(id)) = (out_dir("perfbench-ledger"), build_id()) else {
        eprintln!("perfbench: no ledger beside the binary; cross-run determinism unchecked");
        return;
    };
    let path = dir.join(format!("{id:016x}-{workload}-{seed}.txt"));
    let mut known: BTreeMap<String, u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (name, bits) = l.split_once(' ')?;
            Some((name.to_string(), u64::from_str_radix(bits, 16).ok()?))
        })
        .collect();
    guard(ctx, &known, "in an earlier run");
    for (name, value) in &ctx.values {
        if metrics::find(name).is_some_and(|m| m.clock.is_deterministic()) {
            known
                .entry(name.to_string())
                .or_insert_with(|| value.to_bits());
        }
    }
    let body: String = known.iter().map(|(n, b)| format!("{n} {b:x}\n")).collect();
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("perfbench: ledger not written: {e}");
    }
}

fn print_metrics(ctx: &Ctx, list: &[Metric]) {
    println!("{:<38} {:>20} {:<9} clock", "metric", "value", "unit");
    for m in list {
        let value = ctx
            .values
            .get(m.name)
            .map_or("MISSING".into(), |v| v.to_string());
        println!(
            "{:<38} {:>20} {:<9} {}",
            m.name,
            value,
            m.unit,
            m.clock.label()
        );
    }
}

fn print_checks(ctx: &Ctx) {
    println!("checks:");
    for (name, (pass, fail)) in &ctx.verdicts {
        let verdict = if *fail == 0 { "pass" } else { "FAIL" };
        println!("  {verdict}  {name:<52} {pass}/{}", pass + fail);
    }
    for failure in &ctx.failures {
        println!("  failure: {failure}");
    }
}

/// Where the traced pass's host time went, by span name.
fn print_self_times(spans: &[trace::Span]) {
    let times = trace::self_times(spans);
    let total: f64 = times.values().map(|t| t.self_s).sum();
    let mut rows: Vec<_> = times.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    println!("where the traced pass's host time went (self time by span):");
    println!(
        "  {:<30} {:>7} {:>11} {:>11} {:>7}",
        "span", "count", "self s", "total s", "share"
    );
    for (name, t) in rows {
        println!(
            "  {:<30} {:>7} {:>11.4} {:>11.4} {:>6.1}%",
            name,
            t.count,
            t.self_s,
            t.total_s,
            100.0 * t.self_s / total.max(1e-12)
        );
    }
}

fn json_line(ctx: &Ctx, list: &[Metric]) -> String {
    let mut metrics = String::new();
    let mut missing = false;
    for (i, m) in list.iter().enumerate() {
        let value = match ctx.values.get(m.name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                missing = true;
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    let correct = ctx.failed == 0 && ctx.attempted > 0 && !missing;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        ctx.attempted.max(1),
        ctx.failed
    )
}

/// Run one workload and print its report; returns the JSON result line.
fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
    println!(
        "== pmem-perfbench {workload} | seed {seed} | {seconds} s | trace {} ==",
        u8::from(traced)
    );
    println!("inputs: {}", inputs(workload));
    if !traced {
        let mut ctx = pass(workload, seed, seconds, false);
        ledger(&mut ctx, workload, seed);
        print_checks(&ctx);
        print_metrics(&ctx, END_TO_END);
        return json_line(&ctx, END_TO_END);
    }

    let mut base = pass(workload, seed, seconds, false);
    let mut ctx = pass(workload, seed, seconds, true);
    guard(&mut ctx, &bits_of(&base), "in the untraced pass");
    for (e2e, overhead) in OVERHEAD {
        let (t, u) = (ctx.values.get(e2e), base.values.get(e2e));
        if let (Some(t), Some(u)) = (t, u) {
            let delta = t - u;
            ctx.set(overhead, delta);
        }
    }
    let spans = ctx.tracer.spans().to_vec();
    let (probe, probe_layers) = probes(workload, seed);
    let layers = trace::layer_self_times(&spans);
    for (layer, metric) in SELF_TIME {
        let own = layers.get(layer).or(probe_layers.get(layer));
        ctx.set(metric, own.copied().unwrap_or(0.0));
    }
    ctx.absorb(probe);
    // The untraced pass's checks count too; its values served as the
    // baseline above.
    base.values.clear();
    ctx.absorb(base);
    ledger(&mut ctx, workload, seed);

    print_checks(&ctx);
    println!("end-to-end, traced pass (untraced values are these minus trace.overhead.*):");
    print_metrics(&ctx, END_TO_END);
    println!("per layer:");
    print_metrics(&ctx, PER_LAYER);
    print_self_times(&spans);
    if let Some(dir) = out_dir("perfbench-traces") {
        let path = dir.join(format!("{workload}-seed{seed}.json"));
        match std::fs::write(&path, trace::chrome_json(&spans)) {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), spans.len()),
            Err(e) => eprintln!("perfbench: spans not written: {e}"),
        }
    }
    json_line(&ctx, PER_LAYER)
}

/// Every workload in its own process (so each has its own peak RSS);
/// the last line folds their results together.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut parts = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let stdout = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("perfbench: {workload} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let number = |key: &str| -> u64 {
            last.split(key)
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|n| n.trim().parse().ok())
                .unwrap_or(0)
        };
        correct &= last.starts_with("{\"correct\": true");
        attempted += number("\"attempted\": ");
        failed += number("\"failed\": ");
        let metrics = last
            .split_once("\"metrics\": ")
            .map_or("{}", |(_, m)| m.strip_suffix('}').unwrap_or(m));
        parts.push(format!("\"{workload}\": {metrics}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    );
    ExitCode::SUCCESS
}

/// The catalog as a markdown table.
fn describe() {
    for (title, list) in [("End to end", END_TO_END), ("Per layer", PER_LAYER)] {
        println!("### {title}\n");
        println!("| name | unit | clock | better | meaning / moves |");
        println!("|---|---|---|---|---|");
        for m in list {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "| `{}` | {} | {} | {} | {} |",
                m.name,
                m.unit,
                m.clock.label(),
                better,
                m.moves
            );
        }
        println!();
    }
    println!("### Workloads\n");
    for w in WORKLOADS {
        println!("- `{w}`: {}", inputs(w));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            describe();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("pmem-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let line = run_one(&args.workload, args.seed, args.seconds, args.trace);
    println!("{line}");
    ExitCode::SUCCESS
}
