//! Calibration parameters for the device models.
//!
//! Every constant is anchored to a measurement published in the paper (or in
//! the prior characterization work it builds on — Yang et al., FAST '20).
//! The analytic model and the discrete-event engine share this single source
//! of truth, so tuning a parameter moves both consistently.

use crate::bandwidth::Bandwidth;
use crate::topology::Machine;

/// Which memory device a workload targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Intel Optane DC Persistent Memory (App Direct).
    Pmem,
    /// DDR4 DRAM.
    Dram,
    /// NVMe SSD (the "traditional" baseline of §6.2).
    Ssd,
}

impl DeviceClass {
    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Pmem => "pmem",
            DeviceClass::Dram => "dram",
            DeviceClass::Ssd => "ssd",
        }
    }
}

/// Optane DIMM and socket-level PMEM parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct OptaneParams {
    /// Optane's internal media granularity ("XPLine"): 256 B. CPU cache
    /// lines are 64 B, so sub-256 B traffic causes read/write amplification
    /// (§2.1, §4.1).
    pub xpline_bytes: u64,
    /// Media read bandwidth of one DIMM. Six DIMMs per socket give the
    /// paper's ≈40 GB/s socket sequential-read peak (Figure 3).
    pub media_read_per_dimm: Bandwidth,
    /// Media write bandwidth of one DIMM. Six DIMMs per socket give the
    /// paper's ≈13 GB/s socket sequential-write peak (Figure 7: 12.6 GB/s
    /// global maximum for grouped 4 KB).
    pub media_write_per_dimm: Bandwidth,
    /// Per-thread sequential read issue rate (latency × memory-level
    /// parallelism bound). Calibrated so 8 threads reach ≈85 % of the socket
    /// peak ("as few as 8 threads achieves nearly as much bandwidth as 36,
    /// ~15 % difference", §3.2) and a single thread lands in the 4–5 GB/s
    /// range reported by Yang et al.
    pub per_thread_seq_read: Bandwidth,
    /// Per-thread sequential write issue rate with ntstore. Calibrated so 4
    /// threads saturate the ≈12.6 GB/s socket write peak (§4.2: "4 threads
    /// are sufficient to fully saturate the PMEM bandwidth").
    pub per_thread_seq_write: Bandwidth,
    /// Per-DIMM write-combining buffer ("XPBuffer") capacity. Intra-buffer
    /// merging of 64 B stores into 256 B lines is what makes 256 B and 4 KB
    /// writes fast and large-footprint writes slow (§4.1–4.2).
    pub wc_buffer_bytes: u64,
    /// In-flight bytes per thread (requests the core keeps outstanding).
    /// This is the "window" that determines how many DIMMs one thread keeps
    /// busy at once via the interleave map.
    pub read_window_bytes: u64,
    /// In-flight bytes per write thread.
    pub write_window_bytes: u64,
    /// Fraction of the sequential peak reachable by random reads of ≥4 KB
    /// (§5.2: "reaching only up to ~2/3 of the maximum for larger access
    /// sizes above 4 KB").
    pub random_read_large_frac: f64,
    /// Fraction of the sequential peak for 256 B random reads. §5.2 states
    /// both "~50 % of sequential performance" for 256/512 B and a "4×
    /// bandwidth over PMEM for 512 Byte" advantage for large-region DRAM;
    /// the two anchors only reconcile if the 50 % is read against the
    /// *random-access* maximum (2/3 of sequential), i.e. ~0.38 of the
    /// sequential peak in absolute terms. We calibrate to the ratio anchor.
    pub random_read_small_frac: f64,
    /// Fraction of the sequential write peak reachable by large random
    /// writes (§5.2: "about 2/3").
    pub random_write_large_frac: f64,
}

impl Default for OptaneParams {
    fn default() -> Self {
        OptaneParams {
            xpline_bytes: 256,
            media_read_per_dimm: Bandwidth::from_gib_s(40.5 / 6.0),
            media_write_per_dimm: Bandwidth::from_gib_s(13.2 / 6.0),
            per_thread_seq_read: Bandwidth::from_gib_s(4.5),
            per_thread_seq_write: Bandwidth::from_gib_s(3.4),
            wc_buffer_bytes: 16 * 1024,
            read_window_bytes: 4096,
            write_window_bytes: 2048,
            random_read_large_frac: 2.0 / 3.0,
            random_read_small_frac: 0.38,
            random_write_large_frac: 2.0 / 3.0,
        }
    }
}

/// DRAM parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DramParams {
    /// Socket sequential read peak: ≈100 GB/s near (Figure 6b: "peak
    /// bandwidth for near DRAM (~100 GB/s)", 2 sockets 185 GB/s).
    pub socket_seq_read: Bandwidth,
    /// Socket sequential write peak. The paper does not publish an absolute
    /// DRAM write figure; ≈49 GB/s matches 6 DDR4-2666 channels with
    /// non-temporal stores and keeps the paper's qualitative claim that DRAM
    /// writes scale with threads where PMEM writes do not (§4.2).
    pub socket_seq_write: Bandwidth,
    /// Per-thread sequential read issue rate.
    pub per_thread_seq_read: Bandwidth,
    /// Per-thread sequential write issue rate.
    pub per_thread_seq_write: Bandwidth,
    /// Far (cross-socket) read cap: ≈33 GB/s (Figure 6b "a stark difference
    /// in far access, achieving only ~33 GB/s") — UPI-payload-bound.
    pub far_read_cap: Bandwidth,
    /// Random-access fraction of sequential peak for a small (2 GB) region,
    /// which lands on a single NUMA node = 3 of 6 channels (§5.2).
    pub small_region_channel_frac: f64,
    /// Fraction of sequential peak random access reaches once the region
    /// spans all channels (§5.2: "reaches 90 % of DRAM's sequential
    /// performance").
    pub random_large_region_frac: f64,
    /// Region size above which a DRAM allocation spreads over both NUMA
    /// nodes of the socket (the paper observed a 2 GB allocation on one
    /// node; ~90 GB = all DRAM of a socket used all 6 channels).
    pub node_spread_threshold: u64,
}

impl Default for DramParams {
    fn default() -> Self {
        DramParams {
            socket_seq_read: Bandwidth::from_gib_s(100.0),
            socket_seq_write: Bandwidth::from_gib_s(49.0),
            per_thread_seq_read: Bandwidth::from_gib_s(12.0),
            per_thread_seq_write: Bandwidth::from_gib_s(9.0),
            far_read_cap: Bandwidth::from_gib_s(33.0),
            small_region_channel_frac: 0.5,
            random_large_region_frac: 0.9,
            node_spread_threshold: 8 << 30,
        }
    }
}

/// NVMe SSD parameters (Intel SSD DC P4610, §6.2 footnote).
#[derive(Debug, Clone, PartialEq)]
pub struct SsdParams {
    /// Sequential read bandwidth: 3.20 GB/s.
    pub seq_read: Bandwidth,
    /// Sequential write bandwidth: 2.08 GB/s.
    pub seq_write: Bandwidth,
    /// 4 KB random read bandwidth (derived from the device's ~640 K IOPS).
    pub rand_read_4k: Bandwidth,
}

impl Default for SsdParams {
    fn default() -> Self {
        SsdParams {
            seq_read: Bandwidth::from_gib_s(3.20),
            seq_write: Bandwidth::from_gib_s(2.08),
            rand_read_4k: Bandwidth::from_gib_s(2.5),
        }
    }
}

/// UPI cross-socket interconnect parameters (§3.5).
#[derive(Debug, Clone, PartialEq)]
pub struct UpiParams {
    /// Raw link bandwidth per direction: "The UPI achieves ~40 GB/s per
    /// direction".
    pub raw_per_direction: Bandwidth,
    /// Fraction of raw bandwidth consumed by metadata: "about 25 % of this
    /// is required for metadata transfer, i.e., allowing for ~30 GB/s data
    /// per direction".
    pub metadata_fraction: f64,
    /// Additional one-way latency for crossing the link, in seconds.
    pub extra_latency: f64,
}

impl UpiParams {
    /// Payload bandwidth available per direction (~30 GB/s).
    pub fn payload_per_direction(&self) -> Bandwidth {
        self.raw_per_direction.scale(1.0 - self.metadata_fraction)
    }
}

impl Default for UpiParams {
    fn default() -> Self {
        UpiParams {
            raw_per_direction: Bandwidth::from_gib_s(40.0),
            metadata_fraction: 0.25,
            extra_latency: 60e-9,
        }
    }
}

/// CPU-side parameters: prefetcher, hyperthreading, scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuParams {
    /// Whether the L2 hardware prefetcher is enabled (it is by default, and
    /// the paper recommends leaving it on, §3.1).
    pub l2_prefetcher: bool,
    /// Efficiency multiplier for grouped reads at the pathological 1–2 KB
    /// access sizes with the prefetcher enabled (§3.1: "the L2 hardware
    /// prefetcher performs poorly for 1 and 2 KB access" — also observed on
    /// DRAM, so it is CPU- not PMEM-specific).
    pub prefetch_pathology_eff: f64,
    /// Read-efficiency multiplier once hyperthread siblings share L2 with
    /// the prefetcher polluting it (§3.2: thread counts >18 "perform worse
    /// than 18 threads").
    pub hyperthread_read_eff: f64,
    /// With the prefetcher *disabled*, low thread counts lose prefetch
    /// benefit (§3.2: "lower thread counts (<8) perform worse").
    pub no_prefetch_low_thread_eff: f64,
    /// Scheduling-overhead multiplier when more software threads than
    /// physical cores must be juggled inside a NUMA region instead of being
    /// pinned to explicit cores (§3.3/§4.3: Cores pinning slightly
    /// outperforms NUMA-region pinning above 18 threads).
    pub numa_region_oversub_eff: f64,
    /// Cache-line size in bytes.
    pub cacheline_bytes: u64,
    /// Idle sequential-read latency to near PMEM, seconds (used by the DES).
    pub pmem_read_latency: f64,
    /// Idle read latency to near DRAM, seconds.
    pub dram_read_latency: f64,
    /// Outstanding cache-line fills one core sustains (MLP).
    pub mlp: u32,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            l2_prefetcher: true,
            prefetch_pathology_eff: 0.55,
            hyperthread_read_eff: 0.88,
            no_prefetch_low_thread_eff: 0.80,
            numa_region_oversub_eff: 0.97,
            cacheline_bytes: 64,
            pmem_read_latency: 170e-9,
            dram_read_latency: 85e-9,
            mlp: 10,
        }
    }
}

/// Parameters of the NUMA coherence-remapping warm-up effect (§3.4).
#[derive(Debug, Clone, PartialEq)]
pub struct CoherenceParams {
    /// Bandwidth fraction achieved on the *first* multi-threaded far read of
    /// a region ("a very low bandwidth of ~8 GB/s, being worse by a factor
    /// of 5" vs the ~40 GB/s near peak).
    pub cold_far_read_frac: f64,
    /// Warm far read cap (≈33 GB/s: "the performance nearly matches ... ~33
    /// GB/s when accessing far PMEM in the second and consecutive runs").
    pub warm_far_read_cap: Bandwidth,
    /// Thread count at which the *cold* far read peaks (§3.4: "the optimal
    /// thread count for far PMEM access also shifts from 18 threads to only
    /// 4 threads").
    pub cold_peak_threads: u32,
}

impl Default for CoherenceParams {
    fn default() -> Self {
        CoherenceParams {
            cold_far_read_frac: 0.20,
            warm_far_read_cap: Bandwidth::from_gib_s(33.0),
            cold_peak_threads: 4,
        }
    }
}

/// Far-write behaviour (§4.4–4.5): ntstore across the UPI degrades into
/// read-modify-write, with up to ~10× internal write amplification.
#[derive(Debug, Clone, PartialEq)]
pub struct FarWriteParams {
    /// Peak data bandwidth for single-socket far writes (≈7 GB/s at 8
    /// threads, Figure 10).
    pub far_write_cap: Bandwidth,
    /// Threads needed to reach the far-write peak (≥6, §4.4).
    pub peak_threads: u32,
    /// Internal write amplification at high far-thread counts (the paper
    /// observed ~10× at 18 threads: "~500 MB/s actual data ... but an
    /// internal write bandwidth consumption of 5 GB/s").
    pub max_amplification: f64,
}

impl Default for FarWriteParams {
    fn default() -> Self {
        FarWriteParams {
            far_write_cap: Bandwidth::from_gib_s(7.0),
            peak_threads: 6,
            max_amplification: 10.0,
        }
    }
}

/// Mixed read/write interference (§5.1): writes occupy the iMC/media for
/// much longer than reads, so capacity is shared in *utilization* units with
/// an efficiency that degrades as write threads are added.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedParams {
    /// Shared-capacity efficiency with zero interference.
    pub base_efficiency: f64,
    /// Efficiency lost per contending write thread (writes block the iMC
    /// far longer than reads — §5.1 reason ii).
    pub per_write_thread_penalty: f64,
    /// Efficiency lost per contending read thread.
    pub per_read_thread_penalty: f64,
    /// Efficiency a *second read location* costs readers when the L2
    /// prefetcher has to fetch from two streams (§5.1 reason i).
    pub second_read_stream_eff: f64,
    /// Floor for the shared-capacity efficiency.
    pub min_efficiency: f64,
}

impl Default for MixedParams {
    fn default() -> Self {
        MixedParams {
            base_efficiency: 1.0,
            per_write_thread_penalty: 0.01,
            per_read_thread_penalty: 0.006,
            second_read_stream_eff: 0.94,
            min_efficiency: 0.45,
        }
    }
}

/// The full parameter set shared by the analytic model and the DES.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemParams {
    /// Topology of the machine.
    pub machine: Machine,
    /// Optane device model.
    pub optane: OptaneParams,
    /// DRAM device model.
    pub dram: DramParams,
    /// SSD device model.
    pub ssd: SsdParams,
    /// UPI link model.
    pub upi: UpiParams,
    /// CPU-side model.
    pub cpu: CpuParams,
    /// Coherence warm-up model.
    pub coherence: CoherenceParams,
    /// Far-write model.
    pub far_write: FarWriteParams,
    /// Mixed-workload model.
    pub mixed: MixedParams,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::paper_default()
    }
}

impl SystemParams {
    /// Parameters calibrated to the paper's server (§2.3).
    pub fn paper_default() -> Self {
        SystemParams::default()
    }

    /// Socket-level PMEM sequential read peak (≈40 GB/s).
    pub fn pmem_socket_read_peak(&self) -> Bandwidth {
        self.optane
            .media_read_per_dimm
            .scale(self.machine.channels_per_socket() as f64)
    }

    /// Socket-level PMEM sequential write peak (≈13 GB/s).
    pub fn pmem_socket_write_peak(&self) -> Bandwidth {
        self.optane
            .media_write_per_dimm
            .scale(self.machine.channels_per_socket() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_peaks_match_paper() {
        let p = SystemParams::paper_default();
        let read = p.pmem_socket_read_peak().gib_s();
        let write = p.pmem_socket_write_peak().gib_s();
        assert!((39.0..42.0).contains(&read), "read peak {read}");
        assert!((12.5..13.5).contains(&write), "write peak {write}");
    }

    #[test]
    fn upi_payload_is_30_gib() {
        let upi = UpiParams::default();
        let payload = upi.payload_per_direction().gib_s();
        assert!((29.5..30.5).contains(&payload), "payload {payload}");
    }

    #[test]
    fn dram_read_dwarfs_pmem_by_about_2_5x() {
        // §2.1: "Reading from PMEM yields approx. a third ... of the
        // bandwidth of DRAM"; our socket peaks give 100/40.5 ≈ 2.5×.
        let p = SystemParams::paper_default();
        let ratio = p.dram.socket_seq_read.gib_s() / p.pmem_socket_read_peak().gib_s();
        assert!((2.0..3.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pmem_write_is_about_a_seventh_of_dram_read() {
        // §2.1: "writing a seventh of the bandwidth of DRAM".
        let p = SystemParams::paper_default();
        let ratio = p.dram.socket_seq_read.gib_s() / p.pmem_socket_write_peak().gib_s();
        assert!((6.0..9.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn ssd_is_an_order_of_magnitude_below_pmem() {
        let p = SystemParams::paper_default();
        assert!(p.pmem_socket_read_peak().gib_s() / p.ssd.seq_read.gib_s() > 10.0);
    }

    #[test]
    fn device_names() {
        assert_eq!(DeviceClass::Pmem.name(), "pmem");
        assert_eq!(DeviceClass::Dram.name(), "dram");
        assert_eq!(DeviceClass::Ssd.name(), "ssd");
    }
}
