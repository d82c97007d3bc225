//! Timing model: executed traffic → simulated device seconds.
//!
//! A query execution produces byte-exact traffic (tracker deltas per phase)
//! and operator counters. This module prices that work on a device using
//! the [`pmem-sim`](pmem_sim) bandwidth model:
//!
//! * sequential fact-scan bytes at the sequential-read curve,
//! * index-probe bytes at the random-access curve for the observed probe
//!   granule, attenuated by a last-level-cache model (probes into a tiny
//!   date index are nearly free; probes into a multi-GB index are not),
//! * a *dependent-chase latency* path for the unaware engine's chained
//!   probes (each hop is a serialized loaded-latency access — the paper's
//!   "hash operations take over 90 % of the execution time"),
//! * intermediate materialization at the sequential-write curve,
//! * a CPU cost model overlapped with the memory pipeline.
//!
//! Traffic can be *scaled* to a larger scale factor: all byte counts and
//! operator counts grow linearly in sf, so a run at sf 0.05 can be priced
//! as the paper's sf 100 (`TimingConfig::scale`). Absolute seconds land
//! within ~2× of the paper's testbed; EXPERIMENTS.md tracks per-anchor
//! deviations. Ratios (PMEM/DRAM, optimization steps) are the target.

use pmem_sim::params::DeviceClass;

use crate::datagen::cardinalities;
use pmem_sim::sched::Pinning;
use pmem_sim::workload::{AccessKind, Placement, WorkloadSpec};
use pmem_sim::{Bandwidth, Simulation};

use crate::queries::QueryOutcome;
use crate::storage::{EngineMode, StorageDevice};

/// Calibration constants of the timing model.
#[derive(Debug, Clone)]
pub struct TimingParams {
    /// CPU cost per scanned fact tuple (decode + predicate), ns.
    pub cpu_scan_ns: f64,
    /// CPU cost per index probe (hash + compare), ns.
    pub cpu_probe_ns: f64,
    /// CPU cost per aggregation update, ns.
    pub cpu_agg_ns: f64,
    /// CPU cost per index-build insert, ns.
    pub cpu_insert_ns: f64,
    /// CPU cost per materialized intermediate tuple (unaware engine), ns.
    pub cpu_materialize_ns: f64,
    /// Multiplier on CPU work for the unaware engine (operator-at-a-time
    /// interpretation overhead).
    pub unaware_cpu_factor: f64,
    /// Loaded latency of one dependent random PMEM access under full
    /// concurrency (chained-hash pointer chase), seconds.
    pub pmem_chase_latency: f64,
    /// Loaded latency of one dependent random DRAM access, seconds.
    pub dram_chase_latency: f64,
    /// Last-level cache per socket (Xeon Gold 5220S: 24.75 MB).
    pub l3_bytes_per_socket: f64,
    /// Miss-rate floor for cache-resident indexes.
    pub cached_miss_floor: f64,
    /// Memory-bandwidth factor applied when threads are not pinned at all
    /// (milder than the raw-bandwidth collapse: query threads also compute).
    pub unpinned_mem_penalty: f64,
    /// Fraction of the smaller of (memory, CPU) time NOT hidden by
    /// overlap, as a function floor; overlap improves with threads.
    pub overlap_floor: f64,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            cpu_scan_ns: 25.0,
            cpu_probe_ns: 60.0,
            cpu_agg_ns: 30.0,
            cpu_insert_ns: 200.0,
            cpu_materialize_ns: 20.0,
            unaware_cpu_factor: 2.5,
            pmem_chase_latency: 1.3e-6,
            dram_chase_latency: 0.13e-6,
            l3_bytes_per_socket: 24.75 * 1024.0 * 1024.0,
            cached_miss_floor: 0.15,
            unpinned_mem_penalty: 0.78,
            overlap_floor: 0.25,
        }
    }
}

/// Hardware/placement configuration a run is priced for.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Target device.
    pub device: StorageDevice,
    /// Total threads.
    pub threads: u32,
    /// Sockets participating (1 or 2).
    pub sockets: u8,
    /// Pinning strategy.
    pub pinning: Pinning,
    /// Scale factor the query actually executed at.
    pub run_sf: f64,
    /// Scale factor to price the traffic at (the paper uses sf 100 for the
    /// handcrafted engine and sf 50 for Hyrise).
    pub target_sf: f64,
}

impl TimingConfig {
    /// Paper §6.2 configuration: 36 threads pinned across both sockets.
    pub fn paper_aware(device: StorageDevice) -> Self {
        TimingConfig {
            device,
            threads: 36,
            sockets: 2,
            pinning: Pinning::Cores,
            run_sf: 1.0,
            target_sf: 1.0,
        }
    }

    /// Paper §6.1 configuration: Hyrise on a single socket.
    pub fn paper_unaware(device: StorageDevice) -> Self {
        TimingConfig {
            device,
            threads: 18,
            sockets: 1,
            pinning: Pinning::NumaRegion,
            run_sf: 1.0,
            target_sf: 1.0,
        }
    }

    /// Price traffic executed at `run_sf` as if it ran at `target_sf`.
    /// Fact-driven traffic scales by `target/run`; per-dimension index
    /// sizes scale by their own SSB cardinality growth.
    pub fn sf(mut self, run_sf: f64, target_sf: f64) -> Self {
        self.run_sf = run_sf;
        self.target_sf = target_sf;
        self
    }

    /// Fact-traffic scale factor.
    pub fn fact_scale(&self) -> f64 {
        self.target_sf / self.run_sf
    }

    /// Per-dimension growth factors (date, customer, supplier, part).
    pub fn dim_scales(&self) -> [f64; 4] {
        let run = cardinalities(self.run_sf);
        let target = cardinalities(self.target_sf);
        [
            1.0, // the calendar is sf-invariant
            target.customer as f64 / run.customer as f64,
            target.supplier as f64 / run.supplier as f64,
            target.part as f64 / run.part as f64,
        ]
    }

    /// Set threads/sockets.
    pub fn parallelism(mut self, threads: u32, sockets: u8) -> Self {
        self.threads = threads;
        self.sockets = sockets;
        self
    }

    /// Set pinning.
    pub fn pinning(mut self, pinning: Pinning) -> Self {
        self.pinning = pinning;
        self
    }
}

/// Per-component simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingBreakdown {
    /// Fact scan.
    pub scan_seconds: f64,
    /// Index probes (bandwidth or latency path, whichever binds).
    pub probe_seconds: f64,
    /// Index build.
    pub build_seconds: f64,
    /// Intermediate materialization + result writes.
    pub intermediate_seconds: f64,
    /// CPU work.
    pub cpu_seconds: f64,
    /// Overlapped total.
    pub total_seconds: f64,
}

/// Fraction of the whole query that waited on memory (the paper measured
/// Q2.1 "memory bound over 70 % of the time").
impl TimingBreakdown {
    /// Memory time / total.
    pub fn memory_bound_fraction(&self) -> f64 {
        let mem = self.scan_seconds.max(self.probe_seconds)
            + self.build_seconds
            + self.intermediate_seconds;
        (mem / self.total_seconds).min(1.0)
    }
}

fn placement(sockets: u8) -> Placement {
    if sockets >= 2 {
        Placement::BothNear
    } else {
        Placement::NEAR
    }
}

fn seq_read_bw(sim: &Simulation, device: DeviceClass, cfg: &TimingConfig) -> Bandwidth {
    let per_socket = (cfg.threads / cfg.sockets as u32).max(1);
    let spec = WorkloadSpec::seq_read(device, 4096, per_socket)
        .placement(placement(cfg.sockets))
        .pinning(Pinning::NumaRegion);
    sim.evaluate_steady(&spec).total_bandwidth
}

/// Seconds to stream a scan whose traffic split across the two lanes of a
/// hybrid tier: `pmem_bytes` missed the DRAM buffer (priced at the PMEM
/// sequential-read curve), `dram_bytes` hit it (priced at the DRAM curve).
/// Both lanes use the same thread/socket configuration; the effective rate
/// is the harmonic mix of the two (see [`pmem_sim::tiered_rate`]).
pub fn tiered_scan_seconds(
    sim: &Simulation,
    cfg: &TimingConfig,
    pmem_bytes: u64,
    dram_bytes: u64,
) -> f64 {
    let total = pmem_bytes + dram_bytes;
    if total == 0 {
        return 0.0;
    }
    let hit = dram_bytes as f64 / total as f64;
    let rate = pmem_sim::tiered_rate(
        seq_read_bw(sim, DeviceClass::Pmem, cfg),
        seq_read_bw(sim, DeviceClass::Dram, cfg),
        hit,
    );
    rate.time_for_bytes(total)
}

fn seq_write_bw(sim: &Simulation, device: DeviceClass, cfg: &TimingConfig) -> Bandwidth {
    // Writers follow Best Practice #2: at most ~6 per socket.
    let per_socket = (cfg.threads / cfg.sockets as u32).clamp(1, 6);
    let spec = WorkloadSpec::seq_write(device, 4096, per_socket)
        .placement(placement(cfg.sockets))
        .pinning(Pinning::NumaRegion);
    sim.evaluate_steady(&spec).total_bandwidth
}

fn rand_read_bw(
    sim: &Simulation,
    device: DeviceClass,
    cfg: &TimingConfig,
    granule: u64,
    region: u64,
) -> Bandwidth {
    let per_socket = (cfg.threads / cfg.sockets as u32).max(1);
    let spec = WorkloadSpec::random(
        device,
        AccessKind::Read,
        granule.max(8),
        per_socket,
        region.max(1 << 20),
    )
    .placement(placement(cfg.sockets))
    .pinning(Pinning::NumaRegion);
    sim.evaluate_steady(&spec).total_bandwidth
}

fn rand_write_bw(
    sim: &Simulation,
    device: DeviceClass,
    cfg: &TimingConfig,
    granule: u64,
) -> Bandwidth {
    let per_socket = (cfg.threads / cfg.sockets as u32).clamp(1, 6);
    let spec = WorkloadSpec::random(
        device,
        AccessKind::Write,
        granule.max(64),
        per_socket,
        1 << 30,
    )
    .placement(placement(cfg.sockets))
    .pinning(Pinning::NumaRegion);
    sim.evaluate_steady(&spec).total_bandwidth
}

/// Price one executed query on a device configuration.
pub fn estimate(
    outcome: &QueryOutcome,
    mode: EngineMode,
    cfg: &TimingConfig,
    sim: &Simulation,
    params: &TimingParams,
) -> TimingBreakdown {
    let scale = cfg.fact_scale().max(f64::MIN_POSITIVE);
    let dim_scales = cfg.dim_scales();
    let t = &outcome.traffic;
    // The base table, the indexes and the intermediates all live on the
    // configured device (`estimate_ssd` prices §6.2's SSD setup).
    let device = cfg.device.device_class();

    // ---- Fact scan ----
    let mut scan_seconds =
        (t.fact.seq_read_bytes as f64 * scale) / seq_read_bw(sim, device, cfg).bytes_per_sec();
    // fsdax minor page faults on the scanned range (§2.3: 5–10 % slower).
    if cfg.device == StorageDevice::PmemFsdax {
        let pages = (t.fact.seq_read_bytes as f64 * scale) / (2u64 << 20) as f64;
        scan_seconds += pages * pmem_membench_fault_cost();
    }

    // ---- Probes ----
    let probe_bytes = (t.probe.rand_read_bytes + t.probe.seq_read_bytes) as f64 * scale;
    let probe_ops = t.probe.read_ops as f64 * scale;
    let granule = (t.probe.rand_read_bytes + t.probe.seq_read_bytes)
        .checked_div(t.probe.read_ops)
        .map_or(64, |g| g.max(8));
    // Scaled per-socket index size: each dimension grows by its own
    // cardinality factor (the date index never grows; `part` grows ~log sf).
    let index_bytes: f64 = t
        .index_bytes_by_dim
        .iter()
        .zip(dim_scales)
        .map(|(b, s)| *b as f64 * s)
        .sum::<f64>()
        / cfg.sockets as f64;
    let miss = cache_miss_rate(index_bytes, params);
    let bw_path = probe_bytes * miss
        / rand_read_bw(sim, device, cfg, granule, (index_bytes as u64).max(1 << 20))
            .bytes_per_sec();
    let probe_seconds = if mode == EngineMode::Unaware {
        // Dependent pointer chasing: each read op serializes one loaded
        // latency; threads chase independently.
        let lat = match device {
            DeviceClass::Pmem => params.pmem_chase_latency,
            _ => params.dram_chase_latency,
        };
        let lat_path = probe_ops * miss * lat / cfg.threads.max(1) as f64;
        bw_path.max(lat_path)
    } else {
        bw_path
    };

    // ---- Build ----
    // Build traffic is dimension-driven: scale it by the byte-weighted mean
    // of the per-dimension growth factors.
    let dim_total: f64 = t.index_bytes_by_dim.iter().map(|b| *b as f64).sum();
    let build_scale = if dim_total > 0.0 {
        t.index_bytes_by_dim
            .iter()
            .zip(dim_scales)
            .map(|(b, s)| *b as f64 * s)
            .sum::<f64>()
            / dim_total
    } else {
        1.0
    };
    let build_reads = (t.build.seq_read_bytes + t.build.rand_read_bytes) as f64 * build_scale;
    let build_writes = (t.build.seq_write_bytes + t.build.rand_write_bytes) as f64 * build_scale;
    let build_seconds = build_reads / seq_read_bw(sim, device, cfg).bytes_per_sec()
        + build_writes / rand_write_bw(sim, device, cfg, 256).bytes_per_sec();

    // ---- Intermediates ----
    let inter_writes =
        (t.intermediate.seq_write_bytes + t.intermediate.rand_write_bytes) as f64 * scale;
    let inter_reads =
        (t.intermediate.seq_read_bytes + t.intermediate.rand_read_bytes) as f64 * scale;
    let intermediate_seconds = inter_writes / seq_write_bw(sim, device, cfg).bytes_per_sec()
        + inter_reads / seq_read_bw(sim, device, cfg).bytes_per_sec();

    // ---- CPU ----
    let c = &outcome.counters;
    let materialized = (t.intermediate.seq_write_bytes / 64) as f64;
    let mut cpu_ns = (c.tuples_scanned as f64 * params.cpu_scan_ns
        + c.probes as f64 * params.cpu_probe_ns
        + c.agg_updates as f64 * params.cpu_agg_ns
        + materialized * params.cpu_materialize_ns)
        * scale
        + c.build_inserts as f64 * params.cpu_insert_ns * build_scale;
    if mode == EngineMode::Unaware {
        cpu_ns *= params.unaware_cpu_factor;
    }
    // Explicit core pinning avoids migrations and hyperthread cache
    // conflicts relative to NUMA-region pinning (§4.3) — a small CPU-side
    // win that gives Table 1 its final "Pinning" step.
    let cpu_pin_eff = if cfg.pinning == Pinning::Cores {
        0.95
    } else {
        1.0
    };
    let cpu_seconds = cpu_ns * cpu_pin_eff / 1e9 / cfg.threads.max(1) as f64;

    // ---- Compose ----
    let unpinned = if cfg.pinning == Pinning::None {
        1.0 / params.unpinned_mem_penalty
    } else {
        1.0
    };
    let mem = (scan_seconds.max(probe_seconds) + build_seconds + intermediate_seconds) * unpinned;
    // CPU/memory overlap improves with threads (a single thread serializes
    // dependent work almost completely).
    let kappa = params.overlap_floor + (1.0 - params.overlap_floor) / cfg.threads.max(1) as f64;
    let total_seconds = mem.max(cpu_seconds) + kappa * mem.min(cpu_seconds);

    TimingBreakdown {
        scan_seconds: scan_seconds * unpinned,
        probe_seconds: probe_seconds * unpinned,
        build_seconds,
        intermediate_seconds,
        cpu_seconds,
        total_seconds,
    }
}

/// fsdax minor-fault cost per 2 MB page (shared constant with membench).
fn pmem_membench_fault_cost() -> f64 {
    4e-6
}

/// Price a query on the "traditional" NVMe-SSD configuration of §6.2: the
/// base table is scanned from the SSD while hash indexes and intermediates
/// stay in DRAM. The paper measured Q2.1 at 22.8 s this way — 2.6× slower
/// than PMEM without using any DRAM for the table.
pub fn estimate_ssd(
    outcome: &QueryOutcome,
    mode: EngineMode,
    cfg: &TimingConfig,
    sim: &Simulation,
    params: &TimingParams,
) -> TimingBreakdown {
    // Everything except the scan is DRAM-priced.
    let dram_cfg = TimingConfig {
        device: StorageDevice::Dram,
        ..cfg.clone()
    };
    let mut bd = estimate(outcome, mode, &dram_cfg, sim, params);
    // Re-price the scan against the SSD's sequential-read bandwidth.
    let spec = WorkloadSpec::seq_read(DeviceClass::Ssd, 4096, cfg.threads);
    let ssd_bw = sim.evaluate_steady(&spec).total_bandwidth.bytes_per_sec();
    let scan = outcome.traffic.fact.seq_read_bytes as f64 * cfg.fact_scale() / ssd_bw;
    let mem = scan.max(bd.probe_seconds) + bd.build_seconds + bd.intermediate_seconds;
    let kappa = params.overlap_floor + (1.0 - params.overlap_floor) / cfg.threads.max(1) as f64;
    bd.scan_seconds = scan;
    bd.total_seconds = mem.max(bd.cpu_seconds) + kappa * mem.min(bd.cpu_seconds);
    bd
}

/// Cache miss rate for probes into an index of `size` bytes.
fn cache_miss_rate(size: f64, params: &TimingParams) -> f64 {
    let l3 = params.l3_bytes_per_socket;
    if size <= l3 {
        params.cached_miss_floor
    } else {
        params.cached_miss_floor + (1.0 - params.cached_miss_floor) * (1.0 - l3 / size)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::queries::{run_query, QueryId};
    use crate::storage::SsbStore;

    const SF: f64 = 0.01;

    fn aware_outcome(q: QueryId) -> QueryOutcome {
        let store =
            SsbStore::generate_and_load(SF, 77, EngineMode::Aware, StorageDevice::PmemFsdax)
                .unwrap();
        store.reset_trackers();
        run_query(&store, q, 8).unwrap()
    }

    fn price(outcome: &QueryOutcome, mode: EngineMode, device: StorageDevice) -> f64 {
        let sim = Simulation::paper_default();
        let cfg = match mode {
            EngineMode::Aware => TimingConfig::paper_aware(device).sf(SF, 100.0),
            EngineMode::Unaware => TimingConfig::paper_unaware(device).sf(SF, 100.0),
        };
        estimate(outcome, mode, &cfg, &sim, &TimingParams::default()).total_seconds
    }

    #[test]
    fn qf1_lands_near_the_paper_seconds() {
        // Paper §6.2: QF1 ≈ 1.3 s on PMEM, ≈ 0.5 s on DRAM at sf 100.
        let outcome = aware_outcome(QueryId::Q1_1);
        let pmem = price(&outcome, EngineMode::Aware, StorageDevice::PmemDevdax);
        let dram = price(&outcome, EngineMode::Aware, StorageDevice::Dram);
        assert!((0.6..2.6).contains(&pmem), "QF1 PMEM {pmem}");
        assert!((0.25..1.3).contains(&dram), "QF1 DRAM {dram}");
        assert!(pmem > dram, "PMEM must be slower");
    }

    #[test]
    fn aware_pmem_dram_ratio_is_moderate() {
        // Paper: handcrafted PMEM is 1.66× DRAM on average (1.4–3.0).
        let outcome = aware_outcome(QueryId::Q2_1);
        let pmem = price(&outcome, EngineMode::Aware, StorageDevice::PmemDevdax);
        let dram = price(&outcome, EngineMode::Aware, StorageDevice::Dram);
        let ratio = pmem / dram;
        assert!((1.2..3.2).contains(&ratio), "aware ratio {ratio}");
    }

    #[test]
    fn unaware_ratio_is_much_larger_than_aware() {
        let data = crate::datagen::generate(SF, 77);
        let aware = SsbStore::load(&data, SF, EngineMode::Aware, StorageDevice::PmemFsdax).unwrap();
        let unaware =
            SsbStore::load(&data, SF, EngineMode::Unaware, StorageDevice::PmemFsdax).unwrap();
        aware.reset_trackers();
        unaware.reset_trackers();
        let a = run_query(&aware, QueryId::Q2_1, 8).unwrap();
        let u = run_query(&unaware, QueryId::Q2_1, 8).unwrap();
        let aware_ratio = price(&a, EngineMode::Aware, StorageDevice::PmemDevdax)
            / price(&a, EngineMode::Aware, StorageDevice::Dram);
        let unaware_ratio = price(&u, EngineMode::Unaware, StorageDevice::PmemFsdax)
            / price(&u, EngineMode::Unaware, StorageDevice::Dram);
        assert!(
            unaware_ratio > 1.5 * aware_ratio,
            "unaware {unaware_ratio} vs aware {aware_ratio}"
        );
        assert!(unaware_ratio > 2.5, "unaware ratio {unaware_ratio}");
    }

    #[test]
    fn fsdax_is_slightly_slower_than_devdax() {
        let outcome = aware_outcome(QueryId::Q1_1);
        let devdax = price(&outcome, EngineMode::Aware, StorageDevice::PmemDevdax);
        let fsdax = price(&outcome, EngineMode::Aware, StorageDevice::PmemFsdax);
        assert!(fsdax > devdax, "fsdax {fsdax} ≤ devdax {devdax}");
        assert!(fsdax < devdax * 1.25, "fsdax penalty too large");
    }

    #[test]
    fn more_threads_reduce_simulated_time() {
        let outcome = aware_outcome(QueryId::Q2_1);
        let sim = Simulation::paper_default();
        let p = TimingParams::default();
        let t1 = estimate(
            &outcome,
            EngineMode::Aware,
            &TimingConfig::paper_aware(StorageDevice::PmemDevdax)
                .sf(SF, 100.0)
                .parallelism(1, 1),
            &sim,
            &p,
        )
        .total_seconds;
        let t18 = estimate(
            &outcome,
            EngineMode::Aware,
            &TimingConfig::paper_aware(StorageDevice::PmemDevdax)
                .sf(SF, 100.0)
                .parallelism(18, 1),
            &sim,
            &p,
        )
        .total_seconds;
        let t36 = estimate(
            &outcome,
            EngineMode::Aware,
            &TimingConfig::paper_aware(StorageDevice::PmemDevdax)
                .sf(SF, 100.0)
                .parallelism(36, 2),
            &sim,
            &p,
        )
        .total_seconds;
        assert!(t1 > 5.0 * t18, "1 thread {t1} vs 18 threads {t18}");
        assert!(t18 > t36, "18 threads {t18} vs 2-socket {t36}");
        // Table 1 magnitude: 1 thread in the hundreds of seconds.
        assert!((120.0..500.0).contains(&t1), "1-thread Q2.1 {t1}");
    }

    #[test]
    fn q2_1_is_memory_bound() {
        // §6.2: "the benchmark is memory bound over 70 % of the time".
        let outcome = aware_outcome(QueryId::Q2_1);
        let sim = Simulation::paper_default();
        let bd = estimate(
            &outcome,
            EngineMode::Aware,
            &TimingConfig::paper_aware(StorageDevice::PmemDevdax).sf(SF, 100.0),
            &sim,
            &TimingParams::default(),
        );
        assert!(
            bd.memory_bound_fraction() > 0.5,
            "memory-bound fraction {}",
            bd.memory_bound_fraction()
        );
    }

    #[test]
    fn unpinned_execution_is_slower() {
        let outcome = aware_outcome(QueryId::Q2_1);
        let sim = Simulation::paper_default();
        let p = TimingParams::default();
        let pinned = estimate(
            &outcome,
            EngineMode::Aware,
            &TimingConfig::paper_aware(StorageDevice::PmemDevdax).sf(SF, 100.0),
            &sim,
            &p,
        )
        .total_seconds;
        let unpinned = estimate(
            &outcome,
            EngineMode::Aware,
            &TimingConfig::paper_aware(StorageDevice::PmemDevdax)
                .sf(SF, 100.0)
                .pinning(Pinning::None),
            &sim,
            &p,
        )
        .total_seconds;
        assert!(unpinned > pinned);
    }
}
