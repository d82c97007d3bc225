//! Discrete-event engine (DES).
//!
//! Where the [`analytic`](crate::analytic) model computes closed-form
//! steady-state bandwidth, the DES pushes individual 64 B cache-line
//! requests through `thread → (UPI) → DIMM queue → media` with virtual
//! time, yielding:
//!
//! * request **latency distributions** (mean/percentiles),
//! * emergent **queueing and coverage** effects (e.g. one thread cannot
//!   saturate six DIMMs; sequential sub-256 B reads hit the controller's
//!   XPLine buffer),
//! * per-run [`crate::stats::SimStats`] counters.
//!
//! Two deliberate simplifications, documented for honesty:
//!
//! 1. The **write-combining efficiency** under buffer pressure is taken from
//!    the same calibrated occupancy model the analytic engine uses (the
//!    paper's §4.2 explanation), then applied per-flush — the DES still
//!    plays out ordering and queueing event by event.
//! 2. The **L2 prefetcher pathology** (grouped 1–2 KB dip) is a CPU-side
//!    artifact that is out of scope for a memory-device DES; the analytic
//!    model covers it.
//!
//! The engine simulates one socket's workload (near or far, read or write,
//! all three patterns, PMEM or DRAM). Multi-socket composition and mixed
//! read/write sharing live in the analytic model.

pub mod arrivals;
mod engine;
mod latency;

pub use arrivals::ArrivalProcess;
pub use latency::LatencyStats;

use crate::bandwidth::Bandwidth;
use crate::params::SystemParams;
use crate::stats::SimStats;
use crate::workload::{Placement, WorkloadSpec};

/// Configuration of one DES run.
#[derive(Debug, Clone)]
pub struct DesConfig {
    /// Device/calibration parameters (shared with the analytic model).
    pub params: SystemParams,
    /// The workload. `placement` decides near vs far; dual-socket
    /// placements are rejected (compose two runs instead).
    pub spec: WorkloadSpec,
    /// Bytes to actually simulate. Bandwidth is volume-invariant in steady
    /// state, so runs use a scaled-down volume (default 8 MiB) instead of
    /// the paper's 70 GB.
    pub volume_bytes: u64,
    /// Whether the coherence mapping is cold (first far touch, §3.4).
    pub cold_far: bool,
    /// For mixed runs: the first `write_threads` of `spec.threads` issue
    /// writes while the rest read (Figure 11's x writers / y readers).
    /// Zero = all threads follow `spec.kind`.
    pub write_threads: u32,
}

impl DesConfig {
    /// Default-scaled configuration for a workload spec.
    pub fn new(spec: WorkloadSpec) -> Self {
        assert!(
            matches!(spec.placement, Placement::Single { .. }),
            "the DES simulates one socket at a time; compose dual-socket \
             placements from two runs"
        );
        DesConfig {
            params: SystemParams::paper_default(),
            spec,
            volume_bytes: 8 << 20,
            cold_far: false,
            write_threads: 0,
        }
    }

    /// A mixed run: `write_threads` writers and `read_threads` readers on
    /// the same socket and DIMMs, each side streaming 4 KB individually —
    /// the Figure 11 workload, played out through the queues.
    pub fn mixed(params: SystemParams, write_threads: u32, read_threads: u32) -> Self {
        let spec = WorkloadSpec::seq_read(
            crate::params::DeviceClass::Pmem,
            4096,
            write_threads + read_threads,
        );
        let mut cfg = DesConfig::new(spec);
        cfg.params = params;
        cfg.write_threads = write_threads;
        cfg
    }

    /// Override the simulated volume.
    pub fn volume(mut self, bytes: u64) -> Self {
        self.volume_bytes = bytes;
        self
    }

    /// Mark the far mapping cold (first-touch run).
    pub fn cold(mut self) -> Self {
        self.cold_far = true;
        self
    }

    /// Override the parameter set.
    pub fn params(mut self, params: SystemParams) -> Self {
        self.params = params;
        self
    }
}

/// Result of a DES run.
#[derive(Debug, Clone)]
pub struct DesResult {
    /// Virtual seconds from first issue to last completion.
    pub elapsed_seconds: f64,
    /// Application bytes moved per virtual second.
    pub bandwidth: Bandwidth,
    /// Read-side bandwidth (equals `bandwidth` for pure reads).
    pub read_bandwidth: Bandwidth,
    /// Write-side bandwidth (zero for pure reads).
    pub write_bandwidth: Bandwidth,
    /// Device counters observed during the run.
    pub stats: SimStats,
    /// Latency distribution of read requests (empty for writes).
    pub read_latency: LatencyStats,
}

/// Run the discrete-event simulation.
pub fn run(config: &DesConfig) -> DesResult {
    engine::Engine::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{BandwidthModel, CoherenceView};
    use crate::params::DeviceClass;
    use crate::workload::{AccessKind, Pattern, WorkloadSpec};

    fn des_bw(spec: WorkloadSpec) -> f64 {
        run(&DesConfig::new(spec)).bandwidth.gib_s()
    }

    fn analytic_bw(spec: &WorkloadSpec) -> f64 {
        BandwidthModel::paper_default()
            .bandwidth(spec, CoherenceView::WARM)
            .gib_s()
    }

    /// Anchor agreement between the DES and the analytic model — generous
    /// tolerance, the DES is mechanism- not curve-fitted.
    fn assert_agree(spec: WorkloadSpec, rel_tol: f64) {
        let a = analytic_bw(&spec);
        let d = des_bw(spec.clone());
        let rel = (d - a).abs() / a;
        assert!(
            rel < rel_tol,
            "DES {d:.1} vs analytic {a:.1} GB/s for {spec:?} (rel {rel:.2})"
        );
    }

    #[test]
    fn near_read_peak_matches_analytic() {
        assert_agree(WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18), 0.35);
    }

    #[test]
    fn single_thread_read_matches_analytic() {
        assert_agree(WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 1), 0.45);
    }

    #[test]
    fn read_bandwidth_grows_with_threads() {
        let b1 = des_bw(WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 1));
        let b4 = des_bw(WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 4));
        let b18 = des_bw(WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18));
        assert!(b1 < b4 && b4 < b18, "{b1} < {b4} < {b18}");
    }

    #[test]
    fn four_write_threads_saturate_the_media() {
        let spec = WorkloadSpec::seq_write(DeviceClass::Pmem, 4096, 4);
        let b = des_bw(spec);
        assert!((9.0..15.0).contains(&b), "write 4T {b}");
    }

    #[test]
    fn sequential_sub_xpline_reads_hit_the_buffer() {
        let spec = WorkloadSpec::seq_read(DeviceClass::Pmem, 64, 8).total_bytes(1 << 20);
        let r = run(&DesConfig::new(spec).volume(1 << 20));
        assert!(r.stats.read_buffer_hits > 0, "expected buffer hits");
        // 3 of every 4 lines hit the buffer.
        let hit_rate = r.stats.read_buffer_hits as f64 / (r.stats.app_read_bytes / 64) as f64;
        assert!((0.6..0.8).contains(&hit_rate), "hit rate {hit_rate}");
        assert!(
            r.stats.read_amplification() < 1.45,
            "{}",
            r.stats.read_amplification()
        );
    }

    #[test]
    fn random_sub_xpline_reads_amplify() {
        let spec = WorkloadSpec::random(DeviceClass::Pmem, AccessKind::Read, 64, 8, 1 << 30);
        let r = run(&DesConfig::new(spec).volume(1 << 20));
        assert!(
            r.stats.read_amplification() > 3.0,
            "random 64B amplification {}",
            r.stats.read_amplification()
        );
    }

    #[test]
    fn far_reads_are_slower_than_near_and_cold_slower_than_warm() {
        let near = des_bw(WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18));
        let far_spec = WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18)
            .placement(crate::workload::Placement::FAR);
        let warm = run(&DesConfig::new(far_spec.clone())).bandwidth.gib_s();
        let cold = run(&DesConfig::new(far_spec).cold()).bandwidth.gib_s();
        assert!(warm < near, "far warm {warm} < near {near}");
        assert!(cold < warm * 0.55, "cold {cold} well below warm {warm}");
        assert!((4.0..13.0).contains(&cold), "cold far {cold}");
    }

    #[test]
    fn write_latencies_do_not_pollute_read_histogram() {
        let r = run(&DesConfig::new(WorkloadSpec::seq_write(
            DeviceClass::Pmem,
            4096,
            4,
        )));
        assert_eq!(r.read_latency.count(), 0);
    }

    #[test]
    fn read_latency_distribution_is_plausible() {
        let r = run(&DesConfig::new(WorkloadSpec::seq_read(
            DeviceClass::Pmem,
            4096,
            18,
        )));
        let mean = r.read_latency.mean();
        // Idle latency is ~170 ns; loaded mean should sit above it but below
        // a few microseconds.
        assert!((170e-9..5e-6).contains(&mean), "mean latency {mean}");
        assert!(r.read_latency.quantile(0.99) >= r.read_latency.quantile(0.5));
    }

    #[test]
    fn dram_reads_are_faster_than_pmem() {
        let p = des_bw(WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18));
        let d = des_bw(WorkloadSpec::seq_read(DeviceClass::Dram, 4096, 18));
        assert!(d > 1.5 * p, "DRAM {d} vs PMEM {p}");
    }

    #[test]
    fn grouped_small_writes_underperform_individual() {
        let g = des_bw(
            WorkloadSpec::seq_write(DeviceClass::Pmem, 64, 36).pattern(Pattern::SequentialGrouped),
        );
        let i = des_bw(WorkloadSpec::seq_write(DeviceClass::Pmem, 64, 36));
        assert!(g < i, "grouped {g} < individual {i}");
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = WorkloadSpec::random(DeviceClass::Pmem, AccessKind::Read, 256, 8, 1 << 28);
        let a = run(&DesConfig::new(spec.clone()).volume(1 << 20));
        let b = run(&DesConfig::new(spec).volume(1 << 20));
        assert_eq!(a.elapsed_seconds, b.elapsed_seconds);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn mixed_runs_reproduce_the_read_write_interference() {
        // Figure 11's core effect, from queueing alone: adding writers to a
        // read stream costs read bandwidth, and the combined total stays
        // below the read-only throughput.
        let params = SystemParams::paper_default();
        let solo = run(&DesConfig::mixed(params.clone(), 0, 24));
        let mixed = run(&DesConfig::mixed(params.clone(), 4, 24));
        assert!(solo.write_bandwidth.gib_s() < 0.01);
        assert!(
            mixed.read_bandwidth.gib_s() < solo.read_bandwidth.gib_s(),
            "writers must cost readers: {} vs {}",
            mixed.read_bandwidth.gib_s(),
            solo.read_bandwidth.gib_s()
        );
        assert!(mixed.write_bandwidth.gib_s() > 1.0, "writers make progress");
        assert!(
            mixed.bandwidth.gib_s() <= solo.bandwidth.gib_s() * 1.05,
            "combined {} must not beat read-only {}",
            mixed.bandwidth.gib_s(),
            solo.bandwidth.gib_s()
        );
    }

    #[test]
    fn mixed_runs_trend_with_the_analytic_model() {
        let params = SystemParams::paper_default();
        let des = run(&DesConfig::mixed(params.clone(), 4, 18));
        let analytic = BandwidthModel::new(params).mixed(&crate::workload::MixedSpec::paper(
            DeviceClass::Pmem,
            4,
            18,
        ));
        // Loose agreement: same order of magnitude, same read>write shape.
        assert!(des.read_bandwidth.gib_s() > des.write_bandwidth.gib_s());
        assert!(analytic.read.gib_s() > analytic.write.gib_s());
        let ratio = des.read_bandwidth.gib_s() / analytic.read.gib_s();
        assert!(
            (0.4..2.5).contains(&ratio),
            "read-side DES/analytic {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "one socket at a time")]
    fn dual_socket_placements_are_rejected() {
        let spec = WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18)
            .placement(crate::workload::Placement::BothNear);
        let _ = DesConfig::new(spec);
    }
}
