//! Star Schema Benchmark analytics on simulated PMEM vs DRAM.
//!
//! ```sh
//! cargo run -p pmem-olap --example ssb_analytics --release [-- <sf>]
//! ```
//!
//! Loads an SSB database (default sf 0.02) into the PMEM-aware engine,
//! executes all 13 queries for real (answers are cross-checked against a
//! direct reference evaluation), and prices the traffic at the paper's
//! sf 100 for PMEM and DRAM — reproducing Figure 14b's 1.66× story.

use pmem_olap::sim::Simulation;
use pmem_olap::ssb::datagen;
use pmem_olap::ssb::queries::{run_query, QueryId};
use pmem_olap::ssb::reference::reference_query;
use pmem_olap::ssb::storage::{EngineMode, SsbStore};
use pmem_olap::ssb::timing::{estimate, TimingConfig, TimingParams};
use pmem_olap::ssb::StorageDevice;

fn main() {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.02);
    let threads = 8;

    println!("generating SSB data at sf {sf}...");
    let data = datagen::generate(sf, 414);
    println!(
        "  {} lineorder rows, {} customers, {} suppliers, {} parts",
        data.lineorder.len(),
        data.customers.len(),
        data.suppliers.len(),
        data.parts.len()
    );

    let store =
        SsbStore::load(&data, sf, EngineMode::Aware, StorageDevice::PmemFsdax).expect("load store");
    println!(
        "loaded {} MiB of fact data striped across {} socket(s)\n",
        store.fact_bytes() >> 20,
        store.shards.len()
    );

    let sim = Simulation::paper_default();
    let params = TimingParams::default();
    let pmem_cfg = TimingConfig::paper_aware(StorageDevice::PmemFsdax).sf(sf, 100.0);
    let dram_cfg = TimingConfig::paper_aware(StorageDevice::Dram).sf(sf, 100.0);

    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>7}  result",
        "query", "groups", "PMEM [s]", "DRAM [s]", "ratio"
    );
    let mut ratios = Vec::new();
    for q in QueryId::ALL {
        let outcome = run_query(&store, q, threads).expect("query");
        // Answers must match the direct reference evaluation.
        assert_eq!(
            outcome.rows,
            reference_query(&data, q),
            "{} diverged from the reference",
            q.name()
        );
        let pmem = estimate(&outcome, EngineMode::Aware, &pmem_cfg, &sim, &params).total_seconds;
        let dram = estimate(&outcome, EngineMode::Aware, &dram_cfg, &sim, &params).total_seconds;
        ratios.push(pmem / dram);
        let headline = outcome
            .rows
            .first()
            .map(|(k, v)| format!("first group {k:#x} -> {v}"))
            .unwrap_or_else(|| "empty".into());
        println!(
            "{:>6} {:>10} {:>12.2} {:>12.2} {:>6.2}x  {headline}",
            q.name(),
            outcome.rows.len(),
            pmem,
            dram,
            pmem / dram
        );
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!(
        "\naverage PMEM/DRAM slowdown: {avg:.2}x (paper: 1.66x) — PMEM is a viable,\n\
         2.4x cheaper substrate for read-heavy OLAP (paper §7)."
    );
}
