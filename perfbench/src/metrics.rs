//! The metric catalog and the statistics every metric is reduced with.
//!
//! The catalog is the single source for what the benchmark prints: each
//! metric's name, unit, clock, direction, and the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` lists the same
//! metrics; a test keeps the two in agreement.

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock of the machine running the benchmark.
    Host,
    /// The modelled dual-socket Optane server's clock.
    Virtual,
    /// An exact count of work done; repeats bit for bit per seed.
    Count,
    /// A property of the generated input; repeats bit for bit per seed.
    Input,
}

impl Clock {
    /// Short label for the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
            Clock::Input => "input",
        }
    }

    /// Whether a host-only change must leave the metric bit-identical.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, Clock::Host)
    }
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Clock the value is read from.
    pub clock: Clock,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// For an end-to-end metric, what it measures; for a per-layer one,
    /// the end-to-end metric(s) and workload(s) it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        higher_is_better,
        moves,
    }
}

use Clock::{Count, Host, Input, Virtual};

/// End-to-end metrics, printed by every untraced run of every workload.
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Host, false, "median set-up per store or fleet built"),
    m("ops_per_s", "op/s", Host, true, "ops per second of op time in the timed phase"),
    m("op_ms.p50", "ms", Host, false, "median host latency per op"),
    m("op_ms.tail", "ms", Host, false, "highest percentile with >= 10 ops beyond it"),
    m("peak_rss_mib", "MiB", Host, false, "peak resident memory of the run"),
    m("sim_goodput_gib_s", "GiB/s", Virtual, true, "completed bytes / summed virtual makespan"),
    m("sim_p99_ms", "ms", Virtual, false, "p99 virtual latency of completed jobs"),
    m("sim_met_frac", "fraction", Virtual, true, "jobs done within deadline / jobs offered"),
];

const SETUP_SWEEP_SERVE: &str = "setup_s . ssb-sweep, serve-zipf";
const OPS_SWEEP: &str = "ops_per_s, op_ms.* . ssb-sweep";
const OPS_SERVE: &str = "op_ms.*, ops_per_s . serve-zipf";
const OPS_FLEET: &str = "op_ms.*, ops_per_s . fleet-chaos";
const SIM_SERVE: &str = "sim_p99_ms, sim_met_frac, sim_goodput_gib_s . serve-zipf";
const SIM_FLEET: &str = "sim_goodput_gib_s, sim_p99_ms . fleet-chaos";
const EXPLAIN_SWEEP: &str = "explains op_ms.* . ssb-sweep; fixed under host-only changes";
const PRICED: &str = "sim_* . ssb-sweep (the model prices these bytes)";

/// Per-layer metrics, printed by every traced run of every workload.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    // The run itself.
    m("op.samples", "count", Host, true, "sample count behind op_ms.*"),
    m("op.tail_pct", "pct", Host, true, "percentile op_ms.tail reads"),
    m("op.failed_frac", "fraction", Host, false, "failed ops / attempted ops; all workloads"),
    m("trace.overhead.setup_s", "s", Host, false, "traced minus untraced setup_s"),
    m("trace.overhead.ops_per_s", "op/s", Host, true, "traced minus untraced ops_per_s"),
    m("trace.overhead.op_ms.p50", "ms", Host, false, "traced minus untraced op_ms.p50"),
    m("trace.overhead.op_ms.tail", "ms", Host, false, "traced minus untraced op_ms.tail"),
    m("trace.overhead.peak_rss_mib", "MiB", Host, false, "traced minus untraced peak_rss_mib"),
    m("self_s.ssb", "s", Host, false, "self time of ssb spans; op_ms.* . ssb-sweep"),
    m("self_s.sim", "s", Host, false, "self time of model pricing spans"),
    m("self_s.serve", "s", Host, false, "self time of serve spans; op_ms.* . serve-zipf"),
    m("self_s.cluster", "s", Host, false, "self time of cluster spans; op_ms.* . fleet-chaos"),
    m("self_s.check", "s", Host, false, "self time of pmem-crashmc spans . fleet-chaos"),
    m("self_s.bench", "s", Host, false, "self time of the benchmark's own checks"),
    // ssb
    m("ssb.datagen_s", "s", Host, false, SETUP_SWEEP_SERVE),
    m("ssb.load_s.aware", "s", Host, false, SETUP_SWEEP_SERVE),
    m("ssb.load_s.unaware", "s", Host, false, "setup_s . ssb-sweep"),
    m("ssb.query_ms.aware.p50", "ms", Host, false, "op_ms.* . ssb-sweep, serve-zipf"),
    m("ssb.query_ms.aware.tail", "ms", Host, false, "op_ms.* . ssb-sweep, serve-zipf"),
    m("ssb.query_ms.unaware.p50", "ms", Host, false, OPS_SWEEP),
    m("ssb.query_ms.unaware.tail", "ms", Host, false, OPS_SWEEP),
    m("ssb.tuples_scanned.aware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.tuples_scanned.unaware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.tuples_selected.aware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.tuples_selected.unaware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.probes.aware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.probes.unaware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.build_inserts.aware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.build_inserts.unaware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.agg_updates.aware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.agg_updates.unaware", "count", Count, false, EXPLAIN_SWEEP),
    m("ssb.selected_per_probe.aware", "ratio", Count, true, EXPLAIN_SWEEP),
    m("ssb.selected_per_probe.unaware", "ratio", Count, true, EXPLAIN_SWEEP),
    m("ssb.sf02_failed", "count", Count, false, "unaware queries failing at SF 0.2 (item 2)"),
    // store
    m("store.ntstore_mib_s", "MiB/s", Host, true, "setup_s . all; op_ms.* . ssb-sweep"),
    m("store.read_mib_s", "MiB/s", Host, true, "setup_s . all; op_ms.* . ssb-sweep"),
    m("store.write_bytes.load", "B", Count, false, PRICED),
    m("store.write_bytes.query", "B", Count, false, PRICED),
    m("store.seq_read_bytes.load", "B", Count, false, PRICED),
    m("store.seq_read_bytes.query", "B", Count, false, PRICED),
    m("store.rand_read_bytes.load", "B", Count, false, PRICED),
    m("store.rand_read_bytes.query", "B", Count, false, PRICED),
    m("store.sfences.load", "count", Count, false, PRICED),
    m("store.sfences.query", "count", Count, false, PRICED),
    // dash
    m("dash.insert_ns", "ns", Host, false, "aware op_ms.* . ssb-sweep; op_ms.* . serve-zipf"),
    m("dash.get_ns", "ns", Host, false, "aware op_ms.* . ssb-sweep; op_ms.* . serve-zipf"),
    m("dash.chained_insert_ns", "ns", Host, false, "unaware op_ms.* . ssb-sweep"),
    m("dash.chained_get_ns", "ns", Host, false, "unaware op_ms.* . ssb-sweep"),
    // sim
    m("sim.scan_s.aware", "s", Virtual, false, "sim.ssb_aware_s . ssb-sweep"),
    m("sim.scan_s.unaware", "s", Virtual, false, "sim.ssb_unaware_s . ssb-sweep"),
    m("sim.probe_s.aware", "s", Virtual, false, "sim.ssb_aware_s . ssb-sweep"),
    m("sim.probe_s.unaware", "s", Virtual, false, "sim.ssb_unaware_s . ssb-sweep"),
    m("sim.build_s.aware", "s", Virtual, false, "sim.ssb_aware_s . ssb-sweep"),
    m("sim.build_s.unaware", "s", Virtual, false, "sim.ssb_unaware_s . ssb-sweep"),
    m("sim.intermediate_s.aware", "s", Virtual, false, "sim.ssb_aware_s . ssb-sweep"),
    m("sim.intermediate_s.unaware", "s", Virtual, false, "sim.ssb_unaware_s . ssb-sweep"),
    m("sim.cpu_s.aware", "s", Virtual, false, "sim.ssb_aware_s . ssb-sweep"),
    m("sim.cpu_s.unaware", "s", Virtual, false, "sim.ssb_unaware_s . ssb-sweep"),
    m("sim.fig14b_ratio", "ratio", Virtual, false, "model error beside sim.ssb_aware_s (paper 1.66)"),
    m("sim.fig14a_ratio", "ratio", Virtual, false, "model error beside sim.ssb_unaware_s (paper 5.3)"),
    m("sim.ssb_aware_s", "s", Virtual, false, "Fig. 14b sum at SF 100; sim_* . ssb-sweep"),
    m("sim.ssb_unaware_s", "s", Virtual, false, "Fig. 14a sum at SF 50; sim_* . ssb-sweep"),
    // serve
    m("serve.run_ms", "ms", Host, false, OPS_SERVE),
    m("serve.real_plane_ms", "ms", Host, false, OPS_SERVE),
    m("serve.real_plane_share", "fraction", Host, false, OPS_SERVE),
    m("serve.repeat_share", "fraction", Input, true, "input property; 0 on ssb-sweep by construction"),
    m("serve.queue_wait_s.writer_cap", "s", Virtual, false, SIM_SERVE),
    m("serve.queue_wait_s.reader_cap", "s", Virtual, false, SIM_SERVE),
    m("serve.queue_wait_s.serialize_mixed", "s", Virtual, false, SIM_SERVE),
    m("serve.queue_wait_s.degraded", "s", Virtual, false, SIM_SERVE),
    m("serve.queue_wait_s.tenant_throttle", "s", Virtual, false, SIM_SERVE),
    m("serve.queue_wait_s.circuit_open", "s", Virtual, false, SIM_SERVE),
    m("serve.exec_s", "s", Virtual, false, SIM_SERVE),
    m("serve.shed.overloaded", "count", Virtual, false, SIM_SERVE),
    m("serve.shed.degraded", "count", Virtual, false, SIM_SERVE),
    m("serve.shed.unrepairable", "count", Virtual, false, SIM_SERVE),
    m("serve.shed.queue_full", "count", Virtual, false, SIM_SERVE),
    m("serve.shed.retry_budget", "count", Virtual, false, SIM_SERVE),
    m("serve.retries", "count", Virtual, false, SIM_SERVE),
    m("serve.breaker_trips", "count", Virtual, false, SIM_SERVE),
    m("serve.brownout_s", "s", Virtual, false, SIM_SERVE),
    m("serve.batches", "count", Virtual, false, SIM_SERVE),
    m("serve.scan_bytes_saved", "B", Virtual, true, SIM_SERVE),
    // buffer
    m("buffer.hit_rate", "fraction", Virtual, true, "sim_goodput_gib_s, sim_p99_ms . serve-zipf"),
    m("buffer.admitted_bytes", "B", Virtual, true, "sim_goodput_gib_s, sim_p99_ms . serve-zipf"),
    // cluster
    m("cluster.build_ms", "ms", Host, false, "setup_s . fleet-chaos"),
    m("cluster.run_ms.healthy", "ms", Host, false, OPS_FLEET),
    m("cluster.run_ms.lost", "ms", Host, false, OPS_FLEET),
    m("cluster.run_ms.gray", "ms", Host, false, OPS_FLEET),
    m("cluster.run_ms.rejoin", "ms", Host, false, OPS_FLEET),
    m("cluster.chaos_ms.p50", "ms", Host, false, OPS_FLEET),
    m("cluster.rerouted_jobs", "count", Virtual, false, SIM_FLEET),
    m("cluster.hedges_fired", "count", Virtual, false, SIM_FLEET),
    m("cluster.hedge_wins", "count", Virtual, true, SIM_FLEET),
    m("cluster.detect_s", "s", Virtual, false, SIM_FLEET),
    m("cluster.ship_bytes", "B", Virtual, false, SIM_FLEET),
    m("cluster.hash_bytes", "B", Virtual, false, SIM_FLEET),
    m("cluster.full_weight_s", "s", Virtual, false, SIM_FLEET),
    m("cluster.goodput_ratio.lost", "ratio", Virtual, true, SIM_FLEET),
    m("cluster.goodput_ratio.gray", "ratio", Virtual, true, SIM_FLEET),
    m("cluster.goodput_ratio.rejoin", "ratio", Virtual, true, SIM_FLEET),
    // check (pmem-crashmc)
    m("check.crash_ms", "ms", Host, false, OPS_FLEET),
    m("check.crash_states", "count", Count, true, "ops_per_s, op.failed_frac . fleet-chaos"),
    m("check.chaos_events", "count", Count, true, "ops_per_s, op.failed_frac . fleet-chaos"),
    m("check.violations", "count", Count, false, "op.failed_frac . fleet-chaos"),
];

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail statistic: the highest percentile that still has at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Its percentile (nearest rank, 0–100).
    pub pct: f64,
    /// Samples the statistic was taken over.
    pub samples: usize,
}

/// Samples that must lie strictly above the tail value.
pub const TAIL_BEYOND: usize = 10;

/// [`Tail`] of `values`. With 20 samples or fewer that percentile would
/// sit at or below the median (or not exist), so the maximum is reported
/// at percentile 100 and the sample count says why.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 0.0,
            samples: 0,
        };
    }
    let idx = if n > 2 * TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    Tail {
        value: v[idx],
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_and_reports_its_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

        let t = tail(&values[..21]);
        assert_eq!((t.value, t.samples), (11.0, 21));
        assert!((t.pct - 100.0 * 11.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_too_few_samples_is_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.pct, t.samples), (3.0, 100.0, 3));
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values).value, 20.0);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut values: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let a = tail(&values);
        values.reverse();
        assert_eq!(a, tail(&values));
        assert_eq!(a.value, 29.0);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&values, 99.0), 198.0);
        assert_eq!(nearest_rank(&values[..26], 99.0), 26.0);
    }

    #[test]
    fn every_metric_has_a_valid_unique_name_a_unit_and_a_clock() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(
                !metric.unit.is_empty() && metric.unit.len() <= 16,
                "{}",
                metric.name
            );
            assert!(!metric.clock.label().is_empty());
            assert!(
                !metric.moves.is_empty(),
                "{} says nothing it moves",
                metric.name
            );
            assert_eq!(
                all.iter().filter(|o| o.name == metric.name).count(),
                1,
                "{} listed twice",
                metric.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let json = include_str!("../../BENCHMARK.json");
        let entry = |metric: &Metric| {
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, better
            )
        };
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&entry(metric)),
                "{} missing from BENCHMARK.json",
                metric.name
            );
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        assert_eq!(json.matches("\"bound\":").count(), END_TO_END.len());
    }
}
