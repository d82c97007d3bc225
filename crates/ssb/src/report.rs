//! Paper-facing SSB reports: Figure 14 (a: Hyrise-like, b: handcrafted)
//! and Table 1 (the Q2.1 optimization ladder), plus the SSD comparison.
//!
//! Each report executes the real engine at a small scale factor and prices
//! the observed traffic at the paper's scale (sf 50 for Figure 14a, sf 100
//! for Figure 14b and Table 1) via [`timing`](crate::timing).

use pmem_sim::sched::Pinning;
use pmem_sim::Simulation;
use pmem_store::Result;

use crate::queries::{run_query, QueryId};
use crate::storage::{EngineMode, SsbStore, StorageDevice};
use crate::timing::{estimate, estimate_ssd, TimingConfig, TimingParams};

/// Simulated PMEM and DRAM seconds for one query.
#[derive(Debug, Clone, Copy)]
pub struct QueryTimes {
    /// Which query.
    pub query: QueryId,
    /// Simulated seconds on PMEM.
    pub pmem_seconds: f64,
    /// Simulated seconds on DRAM.
    pub dram_seconds: f64,
}

impl QueryTimes {
    /// PMEM/DRAM slowdown.
    pub fn ratio(&self) -> f64 {
        self.pmem_seconds / self.dram_seconds
    }
}

/// One reproduced half of Figure 14.
#[derive(Debug, Clone)]
pub struct SsbFigure {
    /// "fig14a" or "fig14b".
    pub id: &'static str,
    /// Per-query times.
    pub rows: Vec<QueryTimes>,
}

impl SsbFigure {
    /// Average PMEM/DRAM ratio across the 13 queries (the paper's headline
    /// 1.66× / 5.3× numbers).
    pub fn average_ratio(&self) -> f64 {
        self.rows.iter().map(QueryTimes::ratio).sum::<f64>() / self.rows.len() as f64
    }

    /// Worst (max) per-query ratio.
    pub fn max_ratio(&self) -> f64 {
        self.rows.iter().map(QueryTimes::ratio).fold(0.0, f64::max)
    }

    /// Best (min) per-query ratio.
    pub fn min_ratio(&self) -> f64 {
        self.rows
            .iter()
            .map(QueryTimes::ratio)
            .fold(f64::MAX, f64::min)
    }

    /// Average PMEM/DRAM ratio per query flight (1–4), the granularity of
    /// the paper's Figure 14 bars.
    pub fn flight_ratios(&self) -> [f64; 4] {
        let mut sums = [0.0f64; 4];
        let mut counts = [0u32; 4];
        for r in &self.rows {
            let f = r.query.flight() as usize - 1;
            sums[f] += r.ratio();
            counts[f] += 1;
        }
        let mut out = [0.0; 4];
        for f in 0..4 {
            out[f] = sums[f] / counts[f].max(1) as f64;
        }
        out
    }

    /// Aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "== {} ==\n{:>6} {:>12} {:>12} {:>8}\n",
            self.id, "query", "PMEM [s]", "DRAM [s]", "ratio"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:>6} {:>12.2} {:>12.2} {:>8.2}\n",
                r.query.name(),
                r.pmem_seconds,
                r.dram_seconds,
                r.ratio()
            ));
        }
        out.push_str(&format!(
            "{:>6} {:>12} {:>12} {:>8.2}\n",
            "AVG",
            "",
            "",
            self.average_ratio()
        ));
        out
    }
}

/// Run all 13 queries in one mode and price them for PMEM and DRAM at the
/// target scale factor.
fn ssb_figure(
    id: &'static str,
    mode: EngineMode,
    run_sf: f64,
    target_sf: f64,
    run_threads: u32,
    seed: u64,
) -> Result<SsbFigure> {
    // Execute once on PMEM-class storage; traffic is device-independent.
    let device = match mode {
        EngineMode::Aware => StorageDevice::PmemFsdax, // §6.2: Dash needs fsdax
        EngineMode::Unaware => StorageDevice::PmemFsdax,
    };
    let store = SsbStore::generate_and_load(run_sf, seed, mode, device)?;
    let sim = Simulation::paper_default();
    let params = TimingParams::default();
    let (pmem_cfg, dram_cfg) = match mode {
        EngineMode::Aware => (
            TimingConfig::paper_aware(device).sf(run_sf, target_sf),
            TimingConfig::paper_aware(StorageDevice::Dram).sf(run_sf, target_sf),
        ),
        EngineMode::Unaware => (
            TimingConfig::paper_unaware(device).sf(run_sf, target_sf),
            TimingConfig::paper_unaware(StorageDevice::Dram).sf(run_sf, target_sf),
        ),
    };

    let mut rows = Vec::with_capacity(13);
    for q in QueryId::ALL {
        let outcome = run_query(&store, q, run_threads)?;
        let pmem = estimate(&outcome, mode, &pmem_cfg, &sim, &params).total_seconds;
        let dram = estimate(&outcome, mode, &dram_cfg, &sim, &params).total_seconds;
        rows.push(QueryTimes {
            query: q,
            pmem_seconds: pmem,
            dram_seconds: dram,
        });
    }
    Ok(SsbFigure { id, rows })
}

/// Figure 14a: the PMEM-unaware (Hyrise-like) engine at sf 50.
/// Paper: PMEM 5.3× slower on average (2.5×–7.7×).
pub fn fig14a_unaware(run_sf: f64, run_threads: u32) -> Result<SsbFigure> {
    ssb_figure(
        "fig14a",
        EngineMode::Unaware,
        run_sf,
        50.0,
        run_threads,
        414,
    )
}

/// Figure 14b: the handcrafted PMEM-aware engine at sf 100.
/// Paper: PMEM 1.66× slower on average (best Q3.3 1.4×, worst Q1.3 3×).
pub fn fig14b_aware(run_sf: f64, run_threads: u32) -> Result<SsbFigure> {
    ssb_figure("fig14b", EngineMode::Aware, run_sf, 100.0, run_threads, 414)
}

/// One step of the Table 1 optimization ladder.
#[derive(Debug, Clone, Copy)]
pub struct LadderStep {
    /// Step label ("1 Thr.", "18 Thr.", "2-Socket", "NUMA", "Pinning").
    pub label: &'static str,
    /// Simulated PMEM seconds.
    pub pmem_seconds: f64,
    /// Simulated DRAM seconds.
    pub dram_seconds: f64,
}

/// Table 1: Q2.1 at sf 100 under the staged optimizations, plus the SSD
/// configuration (paper: 22.8 s) as a final reference row.
pub fn table1_ladder(run_sf: f64, run_threads: u32) -> Result<(Vec<LadderStep>, f64)> {
    let store =
        SsbStore::generate_and_load(run_sf, 414, EngineMode::Aware, StorageDevice::PmemFsdax)?;
    let outcome = run_query(&store, QueryId::Q2_1, run_threads)?;
    let sim = Simulation::paper_default();
    let params = TimingParams::default();

    let steps: [(&'static str, u32, u8, Pinning); 5] = [
        ("1 Thr.", 1, 1, Pinning::Cores),
        ("18 Thr.", 18, 1, Pinning::Cores),
        ("2-Socket", 36, 2, Pinning::None),
        ("NUMA", 36, 2, Pinning::NumaRegion),
        ("Pinning", 36, 2, Pinning::Cores),
    ];
    let mut ladder = Vec::with_capacity(steps.len());
    for (label, threads, sockets, pinning) in steps {
        let pmem_cfg = TimingConfig::paper_aware(StorageDevice::PmemFsdax)
            .sf(run_sf, 100.0)
            .parallelism(threads, sockets)
            .pinning(pinning);
        let dram_cfg = TimingConfig::paper_aware(StorageDevice::Dram)
            .sf(run_sf, 100.0)
            .parallelism(threads, sockets)
            .pinning(pinning);
        ladder.push(LadderStep {
            label,
            pmem_seconds: estimate(&outcome, EngineMode::Aware, &pmem_cfg, &sim, &params)
                .total_seconds,
            dram_seconds: estimate(&outcome, EngineMode::Aware, &dram_cfg, &sim, &params)
                .total_seconds,
        });
    }

    let ssd_cfg = TimingConfig::paper_aware(StorageDevice::Dram)
        .sf(run_sf, 100.0)
        .parallelism(36, 2)
        .pinning(Pinning::Cores);
    let ssd = estimate_ssd(&outcome, EngineMode::Aware, &ssd_cfg, &sim, &params).total_seconds;
    Ok((ladder, ssd))
}

/// Scan-time projection of the columnar extension, per query.
#[derive(Debug, Clone, Copy)]
pub struct ColumnarRow {
    /// Which query.
    pub query: QueryId,
    /// Row-format scan seconds on PMEM (sf 100, both sockets).
    pub row_pmem: f64,
    /// Columnar scan seconds on PMEM.
    pub col_pmem: f64,
    /// Row-format scan seconds on DRAM.
    pub row_dram: f64,
    /// Columnar scan seconds on DRAM.
    pub col_dram: f64,
}

/// Columnar-extension experiment: scan traffic per query in the paper's
/// 128 B row format vs a column-projected layout, priced on PMEM and DRAM
/// at sf 100. The punchline: projected columnar scans on PMEM are faster
/// than full-row scans on DRAM — layout buys back more than the device
/// gap costs.
pub fn columnar_scan_report(target_sf: f64) -> Vec<ColumnarRow> {
    use pmem_sim::params::DeviceClass;
    use pmem_sim::workload::{Placement, WorkloadSpec};

    let sim = Simulation::paper_default();
    let rows = crate::datagen::cardinalities(target_sf).lineorder as f64;
    let bw = |device| {
        sim.evaluate_steady(
            &WorkloadSpec::seq_read(device, 4096, 18).placement(Placement::BothNear),
        )
        .total_bandwidth
        .bytes_per_sec()
    };
    let pmem = bw(DeviceClass::Pmem);
    let dram = bw(DeviceClass::Dram);

    crate::columnar::scan_comparisons()
        .into_iter()
        .map(|c| ColumnarRow {
            query: c.query,
            row_pmem: rows * c.row_bytes as f64 / pmem,
            col_pmem: rows * c.column_bytes as f64 / pmem,
            row_dram: rows * c.row_bytes as f64 / dram,
            col_dram: rows * c.column_bytes as f64 / dram,
        })
        .collect()
}

/// One configuration row of the ingest experiment.
#[derive(Debug, Clone)]
pub struct IngestRow {
    /// Configuration label.
    pub label: &'static str,
    /// Sustained ingest bandwidth.
    pub bandwidth_gib_s: f64,
    /// Seconds to ingest the target-sf fact table.
    pub seconds: f64,
}

/// Data-import experiment (§4's motivation: "an important feature of data
/// warehouses is an efficient data import"). Executes a real ingest at
/// `run_sf` (sequential ntstore + sfence through the store), then prices
/// the target-sf volume under write configurations ranging from naive to
/// the paper's best practice.
pub fn ingest_report(run_sf: f64, target_sf: f64) -> Result<Vec<IngestRow>> {
    use pmem_sim::params::DeviceClass;
    use pmem_sim::workload::{Pattern, Placement, WorkloadSpec};

    // Execute the load for real so the traffic signature is verified…
    let store =
        SsbStore::generate_and_load(run_sf, 414, EngineMode::Aware, StorageDevice::PmemDevdax)?;
    let snap = store.shards[0].fact_ns.tracker().snapshot();
    assert_eq!(snap.rand_write_bytes, 0, "ingest must be sequential");

    // …then price the paper-scale volume per configuration.
    let bytes =
        (crate::datagen::cardinalities(target_sf).lineorder * crate::schema::LINEORDER_ROW) as f64;
    let sim = Simulation::paper_default();
    let configs: [(&'static str, DeviceClass, u64, u32); 5] = [
        ("naive: 36 thr x 1 MB", DeviceClass::Pmem, 1 << 20, 18),
        ("36 thr x 4 KB", DeviceClass::Pmem, 4096, 18),
        ("BP: 6 thr x 4 KB", DeviceClass::Pmem, 4096, 6),
        ("BP: 4 thr x 4 KB", DeviceClass::Pmem, 4096, 4),
        ("DRAM: 18 thr x 4 KB", DeviceClass::Dram, 4096, 18),
    ];
    Ok(configs
        .iter()
        .map(|(label, device, access, threads_per_socket)| {
            let spec = WorkloadSpec::seq_write(*device, *access, *threads_per_socket)
                .placement(Placement::BothNear)
                .pattern(Pattern::SequentialIndividual);
            let bw = sim.evaluate_steady(&spec).total_bandwidth;
            IngestRow {
                label,
                bandwidth_gib_s: bw.gib_s(),
                seconds: bytes / bw.bytes_per_sec(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    const RUN_SF: f64 = 0.01;

    #[test]
    fn fig14b_reproduces_the_aware_gap() {
        let fig = fig14b_aware(RUN_SF, 8).unwrap();
        assert_eq!(fig.rows.len(), 13);
        let avg = fig.average_ratio();
        assert!((1.2..2.6).contains(&avg), "aware avg ratio {avg}");
        assert!(fig.min_ratio() >= 1.0, "PMEM never beats DRAM");
        // QF1 queries are scan-bound: PMEM pays the full bandwidth gap.
        let q11 = &fig.rows[0];
        assert!(q11.ratio() > 1.2, "Q1.1 ratio {}", q11.ratio());
        let table = fig.to_table();
        assert!(table.contains("Q2.1") && table.contains("AVG"));
    }

    #[test]
    fn fig14a_reproduces_the_unaware_gap() {
        let fig = fig14a_unaware(RUN_SF, 8).unwrap();
        let avg = fig.average_ratio();
        assert!(avg > 2.2, "unaware avg ratio {avg}");
        // The unaware gap must be clearly larger than the aware gap.
        let aware = fig14b_aware(RUN_SF, 8).unwrap();
        assert!(
            avg > 1.4 * aware.average_ratio(),
            "unaware {avg} vs aware {}",
            aware.average_ratio()
        );
    }

    #[test]
    fn table1_ladder_is_monotone_and_lands_near_paper() {
        let (ladder, ssd) = table1_ladder(RUN_SF, 8).unwrap();
        assert_eq!(ladder.len(), 5);
        // Each optimization step improves PMEM time.
        for w in ladder.windows(2) {
            assert!(
                w[1].pmem_seconds < w[0].pmem_seconds * 1.02,
                "{} ({}) -> {} ({}) did not improve",
                w[0].label,
                w[0].pmem_seconds,
                w[1].label,
                w[1].pmem_seconds
            );
        }
        // Magnitudes: 1 thread in the hundreds of seconds, final single
        // digits (paper: 306.7 → 8.6 s).
        assert!(
            ladder[0].pmem_seconds > 100.0,
            "1-thread {}",
            ladder[0].pmem_seconds
        );
        assert!(
            ladder[4].pmem_seconds < 15.0,
            "final {}",
            ladder[4].pmem_seconds
        );
        // SSD configuration is slower than optimized PMEM by >2×
        // (paper: 22.8 s vs 8.6 s = 2.6×).
        let ratio = ssd / ladder[4].pmem_seconds;
        assert!((1.8..5.0).contains(&ratio), "SSD/PMEM ratio {ratio}");
    }

    #[test]
    fn flight_ratios_cover_all_four_flights() {
        let fig = fig14b_aware(RUN_SF, 8).unwrap();
        let flights = fig.flight_ratios();
        for (i, r) in flights.iter().enumerate() {
            assert!(*r >= 1.0, "flight {} ratio {r}", i + 1);
        }
        // QF1 (scan-bound) carries the widest gap in our reproduction.
        assert!(flights[0] >= flights[1] - 0.05);
    }

    #[test]
    fn columnar_pmem_scans_beat_row_dram_scans() {
        let rows = columnar_scan_report(100.0);
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert!(r.col_pmem < r.row_pmem / 5.0, "{}", r.query.name());
            // The extension headline: projected PMEM scan < full-row DRAM.
            assert!(
                r.col_pmem < r.row_dram,
                "{}: columnar PMEM {} vs row DRAM {}",
                r.query.name(),
                r.col_pmem,
                r.row_dram
            );
        }
        // QF1 magnitudes: 70 GB row scan ≈ 0.87 s, 5.5 GB projection ≈ 70 ms.
        let q11 = &rows[0];
        assert!((0.7..1.1).contains(&q11.row_pmem), "row {}", q11.row_pmem);
        assert!(q11.col_pmem < 0.1, "col {}", q11.col_pmem);
    }

    #[test]
    fn ingest_best_practice_beats_naive() {
        let rows = ingest_report(0.005, 100.0).unwrap();
        let find = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .unwrap_or_else(|| panic!("missing {label}"))
        };
        let naive = find("naive");
        let bp = find("BP: 6");
        assert!(
            bp.bandwidth_gib_s > 1.8 * naive.bandwidth_gib_s,
            "best practice {} vs naive {}",
            bp.bandwidth_gib_s,
            naive.bandwidth_gib_s
        );
        // 70 GB of sf-100 fact data at ~25 GB/s across two sockets ≈ 3 s.
        assert!((2.0..5.0).contains(&bp.seconds), "BP ingest {}", bp.seconds);
        // DRAM ingest is still several times faster (paper §4.2).
        let dram = find("DRAM");
        assert!(dram.bandwidth_gib_s > 2.5 * bp.bandwidth_gib_s);
    }
}
