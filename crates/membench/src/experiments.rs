//! One function per characterization figure of the paper (Figures 3–13,
//! plus the §2.3 devdax-vs-fsdax experiment). Each returns [`Figure`] data
//! whose series/axes mirror the paper's plots.

use pmem_sim::params::DeviceClass;
use pmem_sim::sched::Pinning;
use pmem_sim::workload::{AccessKind, MixedSpec, Pattern, Placement, WorkloadSpec};
use pmem_sim::Simulation;

use crate::figure::{Figure, Series};

/// Thread counts of the read sweeps (paper Figure 3 legend).
pub const READ_THREADS: [u32; 8] = [1, 4, 8, 16, 18, 24, 32, 36];
/// Thread counts of the write sweeps (paper Figure 7 legend).
pub const WRITE_THREADS: [u32; 8] = [1, 2, 4, 6, 8, 18, 24, 36];
/// Access sizes of the sequential sweeps (64 B – 64 KB).
pub const ACCESS_SIZES: [u64; 11] = [
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];
/// Access sizes of the random sweeps (§5.2 stops at 8 KB — "we do not
/// consider larger access sizes to be random anymore").
pub const RANDOM_SIZES: [u64; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];
/// Thread counts of the pinning/NUMA figures.
pub const PIN_THREADS: [u32; 6] = [1, 4, 8, 18, 24, 36];
/// Thread counts of the multi-socket figures (per socket).
pub const SOCKET_THREADS: [u32; 7] = [1, 4, 8, 18, 24, 32, 36];
/// Writer/reader combinations of the mixed figure (paper Figure 11).
pub const MIXED_COMBOS: [(u32, u32); 12] = [
    (1, 1),
    (1, 8),
    (1, 18),
    (1, 30),
    (4, 1),
    (4, 8),
    (4, 18),
    (4, 30),
    (6, 1),
    (6, 8),
    (6, 18),
    (6, 30),
];
/// Random-access region size (§5.2: "we limit the memory range to 2 GB,
/// representing, e.g., a hash index").
pub const RANDOM_REGION: u64 = 2 << 30;

fn read_spec(access: u64, threads: u32) -> WorkloadSpec {
    WorkloadSpec::seq_read(DeviceClass::Pmem, access, threads)
}

fn write_spec(access: u64, threads: u32) -> WorkloadSpec {
    WorkloadSpec::seq_write(DeviceClass::Pmem, access, threads)
}

fn sweep_sizes(
    sim: &Simulation,
    threads: &[u32],
    sizes: &[u64],
    make: impl Fn(u64, u32) -> WorkloadSpec,
) -> Vec<Series> {
    threads
        .iter()
        .map(|&t| {
            let points = sizes
                .iter()
                .map(|&a| {
                    let bw = sim.evaluate_steady(&make(a, t)).total_bandwidth.gib_s();
                    (a as f64, bw)
                })
                .collect();
            Series::new(t.to_string(), points)
        })
        .collect()
}

/// Figure 3: sequential read bandwidth by access size and thread count,
/// grouped (a) and individual (b).
pub fn fig3_read_access_size(sim: &Simulation) -> (Figure, Figure) {
    let mut a = Figure::new(
        "fig3a",
        "Read bandwidth — grouped access",
        "Access Size [Byte]",
        "Bandwidth [GB/s]",
    );
    a.series = sweep_sizes(sim, &READ_THREADS, &ACCESS_SIZES, |acc, t| {
        read_spec(acc, t).pattern(Pattern::SequentialGrouped)
    });
    let mut b = Figure::new(
        "fig3b",
        "Read bandwidth — individual access",
        "Access Size [Byte]",
        "Bandwidth [GB/s]",
    );
    b.series = sweep_sizes(sim, &READ_THREADS, &ACCESS_SIZES, read_spec);
    (a, b)
}

fn pinning_figure(sim: &Simulation, id: &str, title: &str, write: bool) -> Figure {
    let mut fig = Figure::new(id, title, "Threads [#]", "Bandwidth [GB/s]");
    for pin in [Pinning::None, Pinning::NumaRegion, Pinning::Cores] {
        let points = PIN_THREADS
            .iter()
            .map(|&t| {
                let spec = if write {
                    write_spec(4096, t)
                } else {
                    read_spec(4096, t)
                }
                .pinning(pin);
                (t as f64, sim.evaluate_steady(&spec).total_bandwidth.gib_s())
            })
            .collect();
        fig.series.push(Series::new(pin.label(), points));
    }
    fig
}

/// Figure 4: read bandwidth by pinning strategy.
pub fn fig4_read_pinning(sim: &Simulation) -> Figure {
    pinning_figure(sim, "fig4", "Read bandwidth by thread pinning", false)
}

/// Figure 5: read NUMA effects — first far run (cold), second far run
/// (warm), and near access. Uses a *stateful* simulation per thread count
/// so the coherence warm-up plays out exactly as in the paper's runs.
pub fn fig5_read_numa(sim: &mut Simulation) -> Figure {
    let mut far1 = Vec::new();
    let mut far2 = Vec::new();
    let mut near = Vec::new();
    for &t in &PIN_THREADS {
        sim.reset_coherence();
        let far = read_spec(4096, t).placement(Placement::FAR);
        far1.push((t as f64, sim.evaluate(&far).total_bandwidth.gib_s()));
        far2.push((t as f64, sim.evaluate(&far).total_bandwidth.gib_s()));
        near.push((
            t as f64,
            sim.evaluate(&read_spec(4096, t)).total_bandwidth.gib_s(),
        ));
    }
    let mut fig = Figure::new(
        "fig5",
        "Read NUMA effects",
        "Threads [#]",
        "Bandwidth [GB/s]",
    );
    fig.series.push(Series::new("Far", far1));
    fig.series.push(Series::new("2nd Far", far2));
    fig.series.push(Series::new("Near", near));
    fig
}

fn multisocket_series(sim: &Simulation, device: DeviceClass, write: bool) -> Vec<Series> {
    let combos: [(&str, Placement); 5] = [
        ("1 Near", Placement::NEAR),
        ("2 Near", Placement::BothNear),
        ("1 Far", Placement::FAR),
        ("2 Far", Placement::BothFar),
        ("1 Near 1 Far", Placement::Contended),
    ];
    combos
        .iter()
        .map(|(label, placement)| {
            let points = SOCKET_THREADS
                .iter()
                .map(|&t| {
                    let spec = if write {
                        WorkloadSpec::seq_write(device, 4096, t)
                    } else {
                        WorkloadSpec::seq_read(device, 4096, t)
                    }
                    .placement(*placement)
                    .pinning(Pinning::NumaRegion);
                    (t as f64, sim.evaluate_steady(&spec).total_bandwidth.gib_s())
                })
                .collect();
            Series::new(*label, points)
        })
        .collect()
}

/// Figure 6: reading from multiple sockets, PMEM (a) and DRAM (b).
pub fn fig6_read_multisocket(sim: &Simulation) -> (Figure, Figure) {
    let mut a = Figure::new(
        "fig6a",
        "Read from multiple sockets — PMEM",
        "Threads per Socket [#]",
        "Bandwidth [GB/s]",
    );
    a.series = multisocket_series(sim, DeviceClass::Pmem, false);
    let mut b = Figure::new(
        "fig6b",
        "Read from multiple sockets — DRAM",
        "Threads per Socket [#]",
        "Bandwidth [GB/s]",
    );
    b.series = multisocket_series(sim, DeviceClass::Dram, false);
    (a, b)
}

/// Figure 7: sequential write bandwidth by access size and thread count,
/// grouped (a) and individual (b).
pub fn fig7_write_access_size(sim: &Simulation) -> (Figure, Figure) {
    let mut a = Figure::new(
        "fig7a",
        "Write bandwidth — grouped access",
        "Access Size [Byte]",
        "Bandwidth [GB/s]",
    );
    a.series = sweep_sizes(sim, &WRITE_THREADS, &ACCESS_SIZES, |acc, t| {
        write_spec(acc, t).pattern(Pattern::SequentialGrouped)
    });
    let mut b = Figure::new(
        "fig7b",
        "Write bandwidth — individual access",
        "Access Size [Byte]",
        "Bandwidth [GB/s]",
    );
    b.series = sweep_sizes(sim, &WRITE_THREADS, &ACCESS_SIZES, write_spec);
    (a, b)
}

/// Figure 8: the write "boomerang" heatmap — one series per thread count
/// (1..36), access sizes 64 B – 32 MB, grouped (a) and individual (b).
pub fn fig8_write_heatmap(sim: &Simulation) -> (Figure, Figure) {
    let threads: Vec<u32> = (1..=36).collect();
    let sizes: Vec<u64> = (6..=25).map(|p| 1u64 << p).collect(); // 64 B .. 32 MB
    let build = |id: &str, title: &str, pattern: Pattern| {
        let mut fig = Figure::new(id, title, "Access Size [Byte]", "Bandwidth [GB/s]");
        for &t in &threads {
            let points = sizes
                .iter()
                .map(|&a| {
                    let spec = write_spec(a, t).pattern(pattern);
                    (a as f64, sim.evaluate_steady(&spec).total_bandwidth.gib_s())
                })
                .collect();
            fig.series.push(Series::new(t.to_string(), points));
        }
        fig
    };
    (
        build(
            "fig8a",
            "Write heatmap — grouped access",
            Pattern::SequentialGrouped,
        ),
        build(
            "fig8b",
            "Write heatmap — individual access",
            Pattern::SequentialIndividual,
        ),
    )
}

/// Figure 9: write bandwidth by pinning strategy.
pub fn fig9_write_pinning(sim: &Simulation) -> Figure {
    pinning_figure(sim, "fig9", "Write bandwidth by thread pinning", true)
}

/// Figure 10: writing to multiple sockets (PMEM).
pub fn fig10_write_multisocket(sim: &Simulation) -> Figure {
    let mut fig = Figure::new(
        "fig10",
        "Write to multiple sockets — PMEM",
        "Threads per Socket [#]",
        "Bandwidth [GB/s]",
    );
    fig.series = multisocket_series(sim, DeviceClass::Pmem, true);
    fig
}

/// Figure 11: mixed read/write workloads. x is the combo index into
/// [`MIXED_COMBOS`]; the two series are the write and read bandwidths.
pub fn fig11_mixed(sim: &Simulation) -> Figure {
    let mut write_pts = Vec::new();
    let mut read_pts = Vec::new();
    for (i, (w, r)) in MIXED_COMBOS.iter().enumerate() {
        let eval = sim.evaluate_mixed(&MixedSpec::paper(DeviceClass::Pmem, *w, *r));
        write_pts.push((i as f64, eval.write.gib_s()));
        read_pts.push((i as f64, eval.read.gib_s()));
    }
    let mut fig = Figure::new(
        "fig11",
        "Mixed workload performance (x = write/read combo)",
        "# Write/Read Threads",
        "Bandwidth [GB/s]",
    );
    fig.series.push(Series::new("Write", write_pts));
    fig.series.push(Series::new("Read", read_pts));
    fig
}

/// Label of combo `i` in [`MIXED_COMBOS`] (e.g. "4/18").
pub fn mixed_combo_label(i: usize) -> String {
    let (w, r) = MIXED_COMBOS[i];
    format!("{w}/{r}")
}

fn random_figure(
    sim: &Simulation,
    id: &str,
    title: &str,
    device: DeviceClass,
    kind: AccessKind,
) -> Figure {
    let threads: &[u32] = match kind {
        AccessKind::Read => &READ_THREADS,
        AccessKind::Write => &WRITE_THREADS,
    };
    let mut fig = Figure::new(id, title, "Access Size [Byte]", "Bandwidth [GB/s]");
    for &t in threads {
        let points = RANDOM_SIZES
            .iter()
            .map(|&a| {
                let spec = WorkloadSpec::random(device, kind, a, t, RANDOM_REGION);
                (a as f64, sim.evaluate_steady(&spec).total_bandwidth.gib_s())
            })
            .collect();
        fig.series.push(Series::new(t.to_string(), points));
    }
    fig
}

/// Figure 12: random read bandwidth, PMEM (a) and DRAM (b), 2 GB region.
pub fn fig12_random_read(sim: &Simulation) -> (Figure, Figure) {
    (
        random_figure(
            sim,
            "fig12a",
            "Random read — PMEM",
            DeviceClass::Pmem,
            AccessKind::Read,
        ),
        random_figure(
            sim,
            "fig12b",
            "Random read — DRAM",
            DeviceClass::Dram,
            AccessKind::Read,
        ),
    )
}

/// Figure 13: random write bandwidth, PMEM (a) and DRAM (b), 2 GB region.
pub fn fig13_random_write(sim: &Simulation) -> (Figure, Figure) {
    (
        random_figure(
            sim,
            "fig13a",
            "Random write — PMEM",
            DeviceClass::Pmem,
            AccessKind::Write,
        ),
        random_figure(
            sim,
            "fig13b",
            "Random write — DRAM",
            DeviceClass::Dram,
            AccessKind::Write,
        ),
    )
}

/// Per-2 MB-page minor-fault cost in fsdax once data is present (mapping
/// establishment, no zeroing). Produces the paper's consistent 5–10 %
/// devdax advantage on reads.
pub const FSDAX_MINOR_FAULT_SECS: f64 = 4e-6;
/// fsdax fault granularity.
pub const FSDAX_PAGE: u64 = 2 << 20;

/// §2.3 experiment: devdax vs fsdax vs pre-faulted fsdax read bandwidth.
pub fn devdax_vs_fsdax(sim: &Simulation) -> Figure {
    let mut devdax = Vec::new();
    let mut fsdax = Vec::new();
    let mut prefaulted = Vec::new();
    for &t in &PIN_THREADS {
        let bw = sim
            .evaluate_steady(&read_spec(4096, t))
            .total_bandwidth
            .gib_s();
        devdax.push((t as f64, bw));
        // fsdax pays one minor fault per 2 MB of fresh mapping.
        let page_secs = FSDAX_PAGE as f64 / (bw * (1u64 << 30) as f64);
        let slowdown = 1.0 + FSDAX_MINOR_FAULT_SECS / page_secs;
        fsdax.push((t as f64, bw / slowdown));
        // Pre-faulted fsdax equals devdax (§2.3: "identical if all pages
        // were pre-faulted").
        prefaulted.push((t as f64, bw));
    }
    let mut fig = Figure::new(
        "fig_dax",
        "devdax vs fsdax read bandwidth",
        "Threads [#]",
        "Bandwidth [GB/s]",
    );
    fig.series.push(Series::new("devdax", devdax));
    fig.series.push(Series::new("fsdax", fsdax));
    fig.series.push(Series::new("fsdax prefaulted", prefaulted));
    fig
}

/// Every figure, in paper order — the repro binary iterates this.
pub fn all_figures(sim: &mut Simulation) -> Vec<Figure> {
    let (f3a, f3b) = fig3_read_access_size(sim);
    let f4 = fig4_read_pinning(sim);
    let f5 = fig5_read_numa(sim);
    let (f6a, f6b) = fig6_read_multisocket(sim);
    let (f7a, f7b) = fig7_write_access_size(sim);
    let (f8a, f8b) = fig8_write_heatmap(sim);
    let f9 = fig9_write_pinning(sim);
    let f10 = fig10_write_multisocket(sim);
    let f11 = fig11_mixed(sim);
    let (f12a, f12b) = fig12_random_read(sim);
    let (f13a, f13b) = fig13_random_write(sim);
    let dax = devdax_vs_fsdax(sim);
    vec![
        f3a, f3b, f4, f5, f6a, f6b, f7a, f7b, f8a, f8b, f9, f10, f11, f12a, f12b, f13a, f13b, dax,
    ]
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn sim() -> Simulation {
        Simulation::paper_default()
    }

    #[test]
    fn fig3_shapes() {
        let (a, b) = fig3_read_access_size(&sim());
        // Grouped: 36-thread series spans roughly 12..40 GB/s.
        let s36 = a.series("36").unwrap();
        assert!(s36.at(64.0).unwrap() < 16.0);
        assert!(s36.peak() > 37.0);
        assert_eq!(s36.peak_x(), 4096.0);
        // Individual: flat for 18 threads.
        let s18 = b.series("18").unwrap();
        let min = s18.points.iter().map(|p| p.1).fold(f64::MAX, f64::min);
        assert!(s18.peak() - min < 4.0, "individual spread too wide");
    }

    #[test]
    fn fig4_none_pinning_collapses() {
        let f = fig4_read_pinning(&sim());
        assert!(f.series("None").unwrap().peak() < 10.0);
        assert!(f.series("Cores").unwrap().peak() > 37.0);
    }

    #[test]
    fn fig5_warmup_ordering() {
        let mut s = sim();
        let f = fig5_read_numa(&mut s);
        let far = f.series("Far").unwrap();
        let far2 = f.series("2nd Far").unwrap();
        let near = f.series("Near").unwrap();
        assert!(far.peak() < 10.0, "first far run must be cold");
        assert!((30.0..35.0).contains(&far2.peak()));
        assert!(near.peak() > 37.0);
        // Cold far peaks at 4 threads, not 18 (§3.4).
        assert_eq!(far.peak_x(), 4.0);
    }

    #[test]
    fn fig6_upi_flattening() {
        let (pmem, dram) = fig6_read_multisocket(&sim());
        assert!(pmem.series("2 Near").unwrap().peak() > 75.0);
        assert!(pmem.series("2 Far").unwrap().peak() < 55.0);
        assert!(pmem.series("1 Near 1 Far").unwrap().peak() < 15.0);
        assert!(dram.series("2 Near").unwrap().peak() > 180.0);
        assert!(dram.series("1 Near 1 Far").unwrap().peak() > 45.0);
    }

    #[test]
    fn fig7_write_shapes() {
        let (a, _b) = fig7_write_access_size(&sim());
        // Global maximum is grouped 4 KB (§4.1), reached by few threads.
        let peak = a.series.iter().map(|s| s.peak()).fold(0.0, f64::max);
        assert!((11.5..13.5).contains(&peak), "write peak {peak}");
        // 36 threads peak at 256 B, not 4 KB.
        assert_eq!(a.series("36").unwrap().peak_x(), 256.0);
    }

    #[test]
    fn fig8_boomerang() {
        let (_a, b) = fig8_write_heatmap(&sim());
        let s4 = b.series("4").unwrap();
        let s36 = b.series("36").unwrap();
        // 4 threads sustain large sizes; 36 threads collapse there.
        assert!(s4.at((32 << 20) as f64).unwrap() > 10.0);
        assert!(s36.at((32 << 20) as f64).unwrap() < 7.0);
        // 36 threads are fine at 256 B.
        assert!(s36.at(256.0).unwrap() > 9.0);
    }

    #[test]
    fn fig10_far_write_penalty() {
        let f = fig10_write_multisocket(&sim());
        let near = f.series("1 Near").unwrap().peak();
        let far = f.series("1 Far").unwrap().peak();
        assert!(far <= 0.6 * near, "far {far} vs near {near}");
        assert!(f.series("2 Near").unwrap().peak() > 23.0);
    }

    #[test]
    fn fig11_combined_below_read_only() {
        let f = fig11_mixed(&sim());
        let w = f.series("Write").unwrap();
        let r = f.series("Read").unwrap();
        assert_eq!(w.points.len(), MIXED_COMBOS.len());
        for i in 0..MIXED_COMBOS.len() {
            let total = w.points[i].1 + r.points[i].1;
            assert!(total < 36.0, "combo {} total {total}", mixed_combo_label(i));
        }
        // 1/30 read ≈ 26 GB/s (§5.1).
        let idx = MIXED_COMBOS.iter().position(|c| *c == (1, 30)).unwrap();
        assert!((23.0..28.5).contains(&r.points[idx].1));
    }

    #[test]
    fn fig12_random_read_ratios() {
        let (pmem, dram) = fig12_random_read(&sim());
        let p36 = pmem.series("36").unwrap();
        assert!(p36.at(4096.0).unwrap() < 30.0); // ≈2/3 of 40
        assert!(p36.at(4096.0).unwrap() > 22.0);
        let d36 = dram.series("36").unwrap();
        assert!((45.0..55.0).contains(&d36.at(4096.0).unwrap()));
    }

    #[test]
    fn fig13_random_write_thread_preference() {
        let (pmem, dram) = fig13_random_write(&sim());
        let p4 = pmem.series("4").unwrap().at(4096.0).unwrap();
        let p36 = pmem.series("36").unwrap().at(4096.0).unwrap();
        assert!(p4 > p36, "PMEM random writes prefer few threads");
        let d4 = dram.series("4").unwrap().at(4096.0).unwrap();
        let d36 = dram.series("36").unwrap().at(4096.0).unwrap();
        assert!(d36 >= d4, "DRAM random writes scale with threads");
    }

    #[test]
    fn devdax_advantage_is_5_to_10_percent() {
        let f = devdax_vs_fsdax(&sim());
        let dev = f.series("devdax").unwrap().at(18.0).unwrap();
        let fs = f.series("fsdax").unwrap().at(18.0).unwrap();
        let adv = dev / fs - 1.0;
        assert!((0.04..0.12).contains(&adv), "devdax advantage {adv}");
        let pre = f.series("fsdax prefaulted").unwrap().at(18.0).unwrap();
        assert_eq!(pre, dev, "pre-faulted fsdax equals devdax");
    }

    #[test]
    fn all_figures_render() {
        let mut s = sim();
        let figs = all_figures(&mut s);
        assert_eq!(figs.len(), 18);
        for f in &figs {
            assert!(!f.series.is_empty(), "{} has no series", f.id);
            let csv = f.to_csv();
            assert!(csv.lines().count() > 1, "{} csv empty", f.id);
            assert!(!f.to_table().is_empty());
        }
    }
}
