//! Random access bandwidth (paper §5.2, Figures 12–13).
//!
//! Random reads lose prefetching and random writes lose write-combining, so
//! both top out at ~2/3 of their sequential peaks for large accesses.
//! Sub-256 B accesses additionally pay Optane's XPLine read/write
//! amplification. On DRAM the dominant effect is the *region size*: a 2 GB
//! allocation lives on one NUMA node and can only use half the channels.

use crate::bandwidth::Bandwidth;
use crate::params::{DeviceClass, SystemParams};
use crate::sched::ThreadLayout;
use crate::workload::WorkloadSpec;

use super::thread_demand;

/// Random read bandwidth.
pub(crate) fn read(
    params: &SystemParams,
    spec: &WorkloadSpec,
    region_bytes: u64,
    layout: &ThreadLayout,
) -> Bandwidth {
    let a = spec.access_size;
    match spec.device {
        DeviceClass::Pmem => {
            let seq_peak = params
                .optane
                .media_read_per_dimm
                .scale(params.machine.channels_per_socket() as f64);
            // PMEM is interleaved at 4 KB across all channels regardless of
            // region size (§5.2), so only the access size matters.
            let cap = seq_peak.scale(pmem_read_size_frac(params, a));
            // Hyperthreading *helps* random reads (more outstanding misses
            // hide the latency), unlike sequential reads.
            let per_thread = params
                .optane
                .per_thread_seq_read
                .scale(0.4 * (a as f64 / 4096.0).powf(0.3).clamp(0.15, 1.0));
            let demand = thread_demand(
                per_thread,
                spec.threads,
                params.machine.cores_per_socket as u32,
                0.7,
            );
            demand.min(cap).scale(layout.sched_efficiency)
        }
        DeviceClass::Dram => {
            let channel_frac = dram_channel_fraction(params, region_bytes);
            let spread = region_bytes > params.dram.node_spread_threshold;
            let large_region_frac = if spread {
                params.dram.random_large_region_frac
            } else {
                1.0
            };
            let cap = params
                .dram
                .socket_seq_read
                .scale(channel_frac * large_region_frac * dram_size_frac(a));
            let per_thread = params.dram.per_thread_seq_read.scale(0.5);
            let demand = thread_demand(
                per_thread,
                spec.threads,
                params.machine.cores_per_socket as u32,
                0.7,
            );
            demand.min(cap).scale(layout.sched_efficiency)
        }
        DeviceClass::Ssd => {
            let cap = params
                .ssd
                .rand_read_4k
                .scale((a as f64 / 4096.0).clamp(0.1, 1.28));
            Bandwidth::from_gib_s(0.25 * spec.threads as f64)
                .min(cap)
                .min(params.ssd.seq_read)
        }
    }
}

/// Random write bandwidth.
pub(crate) fn write(
    params: &SystemParams,
    spec: &WorkloadSpec,
    region_bytes: u64,
    layout: &ThreadLayout,
) -> Bandwidth {
    let a = spec.access_size;
    match spec.device {
        DeviceClass::Pmem => {
            let seq_peak = params
                .optane
                .media_write_per_dimm
                .scale(params.machine.channels_per_socket() as f64);
            let cap = seq_peak.scale(pmem_write_size_frac(params, a));
            // Same thread behaviour as sequential writes: 4–6 threads peak,
            // more threads thrash the write-combining buffer.
            let ramp = (spec.threads as f64 / 4.0).min(1.0);
            let over = spec.threads.saturating_sub(6) as f64;
            let decay = 1.0 / (1.0 + 0.05 * over);
            cap.scale(ramp * decay * layout.sched_efficiency)
        }
        DeviceClass::Dram => {
            let channel_frac = dram_channel_fraction(params, region_bytes);
            // "the access size has little impact on the DRAM bandwidth and
            // more threads achieve higher bandwidths".
            let size = 0.8 + 0.2 * (a as f64 / 4096.0).min(1.0);
            let cap = params.dram.socket_seq_write.scale(channel_frac * size);
            let demand = thread_demand(
                params.dram.per_thread_seq_write.scale(0.5),
                spec.threads,
                params.machine.cores_per_socket as u32,
                0.7,
            );
            demand.min(cap).scale(layout.sched_efficiency)
        }
        DeviceClass::Ssd => Bandwidth::from_gib_s(0.2 * spec.threads as f64)
            .min(params.ssd.seq_write)
            .scale((a as f64 / 4096.0).clamp(0.1, 1.0)),
    }
}

/// PMEM random-read fraction of the sequential peak, by access size.
fn pmem_read_size_frac(params: &SystemParams, a: u64) -> f64 {
    let xp = params.optane.xpline_bytes;
    if a >= 4096 {
        params.optane.random_read_large_frac
    } else if a >= xp {
        // Interpolate 0.5 → 2/3 between 256 B and 4 KB (log scale).
        let t = ((a as f64 / xp as f64).log2() / 4.0).clamp(0.0, 1.0);
        params.optane.random_read_small_frac
            + t * (params.optane.random_read_large_frac - params.optane.random_read_small_frac)
    } else {
        // Sub-XPLine reads are amplified: a 64 B read still moves 256 B of
        // media.
        (a as f64 / xp as f64) * 1.1 * params.optane.random_read_small_frac
    }
}

/// PMEM random-write fraction of the sequential peak, by access size.
fn pmem_write_size_frac(params: &SystemParams, a: u64) -> f64 {
    let xp = params.optane.xpline_bytes;
    if a >= 4096 {
        params.optane.random_write_large_frac
    } else if a >= xp {
        let t = ((a as f64 / xp as f64).log2() / 4.0).clamp(0.0, 1.0);
        0.45 + t * (params.optane.random_write_large_frac - 0.45)
    } else {
        (a as f64 / xp as f64) * 0.45
    }
}

/// DRAM random access below 4 KB does not reach the channel peak (§5.2:
/// DRAM "does not reach its peak bandwidth until 4 KB").
fn dram_size_frac(a: u64) -> f64 {
    if a >= 4096 {
        1.0
    } else if a >= 256 {
        let t = ((a as f64 / 256.0).log2() / 4.0).clamp(0.0, 1.0);
        0.5 + 0.5 * t
    } else {
        (a as f64 / 256.0) * 0.5
    }
}

/// Fraction of the socket's channels serving a DRAM region: small regions
/// are allocated on a single NUMA node (3 of 6 channels).
fn dram_channel_fraction(params: &SystemParams, region_bytes: u64) -> f64 {
    if region_bytes <= params.dram.node_spread_threshold {
        params.dram.small_region_channel_frac
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{BandwidthModel, CoherenceView};
    use crate::workload::{AccessKind, WorkloadSpec};

    const REGION_2G: u64 = 2 << 30;
    const REGION_90G: u64 = 90 << 30;

    fn bw(spec: &WorkloadSpec) -> f64 {
        BandwidthModel::paper_default()
            .bandwidth(spec, CoherenceView::WARM)
            .gib_s()
    }

    fn rr(device: DeviceClass, a: u64, t: u32, region: u64) -> f64 {
        bw(&WorkloadSpec::random(
            device,
            AccessKind::Read,
            a,
            t,
            region,
        ))
    }

    fn rw(device: DeviceClass, a: u64, t: u32, region: u64) -> f64 {
        bw(&WorkloadSpec::random(
            device,
            AccessKind::Write,
            a,
            t,
            region,
        ))
    }

    // ---- Figure 12: random reads ----

    #[test]
    fn pmem_random_read_large_is_two_thirds_of_sequential() {
        let seq = bw(&WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 36));
        let rand = rr(DeviceClass::Pmem, 4096, 36, REGION_2G);
        let ratio = rand / seq;
        assert!((0.58..0.75).contains(&ratio), "random/seq {ratio}");
    }

    #[test]
    fn pmem_random_read_256b_loses_about_half_of_the_random_maximum() {
        // §5.2 gives two anchors for small random reads (≈50 % of sequential
        // and a 4× DRAM advantage at 512 B); they reconcile against the
        // *random* maximum — see `OptaneParams::random_read_small_frac`.
        let rand_max = rr(DeviceClass::Pmem, 4096, 36, REGION_2G);
        let rand = rr(DeviceClass::Pmem, 256, 36, REGION_2G);
        let ratio = rand / rand_max;
        assert!(
            (0.45..0.70).contains(&ratio),
            "256B/4K random ratio {ratio}"
        );
    }

    #[test]
    fn hyperthreading_improves_pmem_random_reads() {
        // §5.2: "hyperthreading improves the PMEM bandwidth, unlike
        // sequential reads".
        let b18 = rr(DeviceClass::Pmem, 256, 18, REGION_2G);
        let b36 = rr(DeviceClass::Pmem, 256, 36, REGION_2G);
        assert!(b36 > b18, "36T ({b36}) should beat 18T ({b18})");
    }

    #[test]
    fn pmem_random_read_sub_xpline_pays_amplification() {
        let b64 = rr(DeviceClass::Pmem, 64, 36, REGION_2G);
        let b256 = rr(DeviceClass::Pmem, 256, 36, REGION_2G);
        assert!(b64 < 0.5 * b256, "64 B ({b64}) far below 256 B ({b256})");
    }

    #[test]
    fn dram_small_region_uses_half_the_channels() {
        // 2 GB region on one NUMA node: ~50 % of sequential peak at ≥4 KB.
        let b = rr(DeviceClass::Dram, 4096, 36, REGION_2G);
        assert!((45.0..55.0).contains(&b), "DRAM 2G random {b}");
    }

    #[test]
    fn dram_large_region_nearly_reaches_sequential() {
        // §5.2: "This scaling reaches 90 % of DRAM's sequential performance".
        let b = rr(DeviceClass::Dram, 4096, 36, REGION_90G);
        assert!((82.0..95.0).contains(&b), "DRAM 90G random {b}");
    }

    #[test]
    fn dram_is_about_4x_pmem_at_512b_on_large_regions() {
        let d = rr(DeviceClass::Dram, 512, 36, REGION_90G);
        let p = rr(DeviceClass::Pmem, 512, 36, REGION_90G);
        let ratio = d / p;
        assert!((2.8..5.5).contains(&ratio), "DRAM/PMEM at 512 B {ratio}");
        // §5.2: DRAM's random advantage is severalfold for 256 B probes of
        // a 1 GiB index from both sockets, too.
        let probe = |device| {
            bw(
                &WorkloadSpec::random(device, AccessKind::Read, 256, 18, 1 << 30)
                    .placement(crate::workload::Placement::BothNear),
            )
        };
        let ratio = probe(DeviceClass::Dram) / probe(DeviceClass::Pmem);
        assert!((1.5..8.0).contains(&ratio), "DRAM/PMEM at 256 B {ratio}");
    }

    #[test]
    fn region_size_does_not_matter_for_pmem() {
        let small = rr(DeviceClass::Pmem, 4096, 36, REGION_2G);
        let large = rr(DeviceClass::Pmem, 4096, 36, REGION_90G);
        assert!((small - large).abs() < 1e-9);
    }

    // ---- Figure 13: random writes ----

    #[test]
    fn pmem_random_write_peaks_at_two_thirds_of_sequential_peak() {
        let peak = [1u32, 2, 4, 6, 8, 18, 24, 36]
            .iter()
            .map(|t| rw(DeviceClass::Pmem, 4096, *t, REGION_2G))
            .fold(0.0, f64::max);
        assert!((7.5..9.5).contains(&peak), "random write peak {peak}");
    }

    #[test]
    fn pmem_random_write_prefers_4_to_6_threads() {
        let b4 = rw(DeviceClass::Pmem, 4096, 4, REGION_2G);
        let b6 = rw(DeviceClass::Pmem, 4096, 6, REGION_2G);
        let b36 = rw(DeviceClass::Pmem, 4096, 36, REGION_2G);
        assert!(b4.max(b6) > b36, "4–6T ({b4}/{b6}) beat 36T ({b36})");
    }

    #[test]
    fn larger_access_improves_pmem_random_writes() {
        let b256 = rw(DeviceClass::Pmem, 256, 6, REGION_2G);
        let b4k = rw(DeviceClass::Pmem, 4096, 6, REGION_2G);
        assert!(b4k > b256, "4 KB ({b4k}) > 256 B ({b256})");
    }

    #[test]
    fn dram_random_writes_scale_with_threads() {
        let b4 = rw(DeviceClass::Dram, 4096, 4, REGION_2G);
        let b36 = rw(DeviceClass::Dram, 4096, 36, REGION_2G);
        assert!(b36 > b4, "DRAM random writes scale: {b4} -> {b36}");
    }

    #[test]
    fn dram_random_write_size_has_little_impact() {
        let b256 = rw(DeviceClass::Dram, 256, 18, REGION_2G);
        let b4k = rw(DeviceClass::Dram, 4096, 18, REGION_2G);
        assert!(b4k / b256 < 1.4, "little size impact: {b256} vs {b4k}");
    }

    #[test]
    fn ssd_random_read_is_bounded_by_device() {
        let b = rr(DeviceClass::Ssd, 4096, 18, REGION_2G);
        assert!(b <= 3.2 && b > 1.0, "SSD random read {b}");
    }
}
