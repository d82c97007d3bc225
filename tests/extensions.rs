//! Integration tests for the extension features built beyond the paper's
//! core evaluation: the per-worker log, the columnar layout, Dash's
//! XPLine-sized probes and the traffic `explain` predicts.

use pmem_olap::sim::topology::SocketId;
use pmem_olap::ssb::columnar::{scan_comparisons, Column, ColumnarFact};
use pmem_olap::ssb::datagen;
use pmem_olap::ssb::queries::QueryId;
use pmem_olap::ssb::report::columnar_scan_report;
use pmem_olap::store::{Namespace, WorkerLog};

#[test]
fn one_log_per_worker_scales_and_recovers() {
    // Best Practice #1/#2 applied to logging: each worker appends to its
    // own log; all records survive a crash.
    let ns = Namespace::devdax(SocketId(0), 64 << 20);
    let mut logs: Vec<WorkerLog> = (0..8)
        .map(|_| WorkerLog::create(&ns, 256).expect("log"))
        .collect();
    std::thread::scope(|scope| {
        for (worker, log) in logs.iter_mut().enumerate() {
            scope.spawn(move || {
                for i in 0..100u64 {
                    log.append(format!("w{worker}:{i}").as_bytes())
                        .expect("append");
                }
            });
        }
    });
    for (worker, log) in logs.iter_mut().enumerate() {
        assert_eq!(log.crash_and_recover(), 100, "worker {worker}");
        assert_eq!(log.read(99).unwrap(), format!("w{worker}:99").as_bytes());
    }
    // The aggregate traffic signature is the recommended one.
    let snap = ns.tracker().snapshot();
    assert_eq!(snap.rand_write_bytes, 0);
}

#[test]
fn columnar_layout_closes_the_device_gap_for_scans() {
    // Execute a real projected scan and check the answer, then confirm the
    // priced claim: columnar PMEM out-scans row DRAM for every query.
    let data = datagen::generate(0.003, 5);
    let ns = Namespace::devdax(SocketId(0), 64 << 20);
    let fact = ColumnarFact::load(&ns, &data).expect("columnar load");
    let partials = fact.scan(
        Column::for_query(QueryId::Q1_2),
        4,
        || 0i64,
        |acc, t| {
            if t.orderdate / 100 == 199401
                && (4..=6).contains(&t.discount)
                && (26..=35).contains(&t.quantity)
            {
                *acc += t.extendedprice as i64 * t.discount as i64;
            }
        },
    );
    let total: i64 = partials.iter().sum();
    let reference = pmem_olap::ssb::reference::reference_query(&data, QueryId::Q1_2);
    assert_eq!(total, reference[0].1, "columnar Q1.2 result");

    for row in columnar_scan_report(100.0) {
        assert!(row.col_pmem < row.row_dram, "{}", row.query.name());
    }
    assert!(scan_comparisons().iter().all(|c| c.reduction() >= 5.0));
}

#[test]
fn dash_probes_read_whole_xplines() {
    use pmem_olap::dash::{DashTable, KvIndex};

    // Probing a built table reads whole 256 B buckets at random.
    let ns = Namespace::devdax(SocketId(0), 64 << 20);
    let table = DashTable::with_capacity(&ns, 4096).expect("table");
    for k in 0..4096u64 {
        table.insert(k, k).expect("insert");
    }
    ns.tracker().reset();
    for k in 0..2000u64 {
        table.get((k * 2654435761) % 4096);
    }
    let snap = ns.tracker().snapshot();
    let granule = snap.rand_read_bytes / snap.read_ops.max(1);
    assert_eq!(granule, 256, "Dash probes are XPLine-sized");
}

#[test]
fn explain_matches_measured_traffic() {
    use pmem_olap::ssb::queries::{explain, run_query};
    use pmem_olap::ssb::storage::{EngineMode, SsbStore, StorageDevice};

    let store = SsbStore::generate_and_load(0.003, 5, EngineMode::Aware, StorageDevice::PmemDevdax)
        .unwrap();
    let text = explain(QueryId::Q3_1, EngineMode::Aware);
    assert!(text.contains("customer") && text.contains("supplier") && !text.contains("part,"));
    // A query whose plan names no part index must not read the part table.
    let before = store.shards[0].dim_ns.tracker().snapshot();
    let _ = run_query(&store, QueryId::Q3_1, 2).unwrap();
    let delta = store.shards[0].dim_ns.tracker().snapshot().since(&before);
    let part_bytes = store.shards[0].parts.len();
    let others: u64 = store.shards[0].dates.len()
        + store.shards[0].customers.len()
        + store.shards[0].suppliers.len();
    assert!(
        delta.read_bytes() <= others,
        "Q3.1 must not scan the part table ({part_bytes} B): read {}",
        delta.read_bytes()
    );
}
