//! Acceptance tests for the `pmem-serve` scheduler (the serving-layer
//! tentpole): admission caps match the saturation points, scheduling
//! protects scan bandwidth where a free-for-all forfeits it, and every
//! submitted job completes with real accounting.

use pmem_olap::planner::AccessPlanner;
use pmem_serve::{AdmissionPolicy, JobSpec, QueryServer, QueueReason, ServeConfig, Side, Verdict};
use pmem_sim::topology::SocketId;
use pmem_ssb::{run_query, EngineMode, QueryId, SsbStore, StorageDevice};

const MIB: u64 = 1 << 20;

fn store() -> SsbStore {
    SsbStore::generate_and_load(0.01, 4242, EngineMode::Aware, StorageDevice::PmemFsdax)
        .expect("store generates and loads")
}

/// Scheduled config with batching off so each query stays its own reader
/// unit — the concurrency assertions below count threads exactly.
fn scheduled_unbatched(planner: &AccessPlanner) -> ServeConfig {
    ServeConfig {
        batch_window: 0.0,
        ..ServeConfig::scheduled(planner)
    }
}

/// Thirty reader threads on one socket, then seven writers: the writers
/// defer while the readers run (serialize-mixed), at most the saturation
/// cap of them run together afterwards, and the seventh queues behind the
/// cap — exactly what `should_serialize` and the concurrency budget say.
#[test]
fn writer_admission_matches_the_planner() {
    let store = store();
    let planner = AccessPlanner::paper_default();
    let policy = AdmissionPolicy::paper(&planner);
    assert!((4..=6).contains(&policy.writer_cap), "Best Practice #2 cap");
    assert_eq!(policy.reader_cap, 30, "core budget minus writer threads");

    let mut server = QueryServer::new(&store, scheduled_unbatched(&planner));
    // 5 queries x 6 threads = the full 30-thread reader budget of socket 0.
    let queries = [
        QueryId::Q1_1,
        QueryId::Q2_1,
        QueryId::Q3_1,
        QueryId::Q4_1,
        QueryId::Q4_2,
    ];
    for q in queries {
        server.submit(JobSpec::query(q).threads(6).socket(SocketId(0)));
    }
    // Seven writers show up just after the readers start.
    let writer_ids: Vec<_> = (0..7)
        .map(|i| {
            server.submit(
                JobSpec::ingest(256 * MIB)
                    .threads(1)
                    .socket(SocketId(0))
                    .arrival(1e-4)
                    .tenant(1 + i),
            )
        })
        .collect();
    let report = server.run().expect("run succeeds");

    assert_eq!(
        report.peak_concurrent_readers, 30,
        "the full reader budget is admitted"
    );
    assert!(
        report.peak_concurrent_writers <= policy.writer_cap,
        "never more than the saturation cap of writers: {} > {}",
        report.peak_concurrent_writers,
        policy.writer_cap
    );
    assert!(
        report.peak_concurrent_writers >= 4,
        "the cap itself is reached once reads drain"
    );

    let writers: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| writer_ids.contains(&j.id))
        .collect();
    assert_eq!(writers.len(), 7);
    // Every writer was first told to wait for the read phase to drain.
    for w in &writers {
        assert!(
            w.verdicts.iter().any(|(_, v)| matches!(
                v,
                Verdict::Queued {
                    reason: QueueReason::SerializeMixed
                }
            )),
            "{} deferred behind the read phase",
            w.id
        );
        assert!(w.queue_wait_seconds > 0.0);
    }
    // At least one writer (the 7th) also hit the writer cap once the first
    // six occupied the socket.
    assert!(
        writers
            .iter()
            .any(|w| w.verdicts.iter().any(|(_, v)| matches!(
                v,
                Verdict::Queued {
                    reason: QueueReason::WriterCap
                }
            ))),
        "the excess writer queues behind the cap"
    );

    // The deferral agrees with the planner's projection for this mix.
    let read_total: u64 = report
        .jobs
        .iter()
        .filter(|j| j.side == Side::Read)
        .map(|j| j.bytes)
        .sum();
    assert!(
        planner.should_serialize(30, 7, read_total, 7 * 256 * MIB),
        "planner projects serializing beats mixing for this workload"
    );
}

/// Queue-wait accounting under deferred admission: a writer deferred by
/// serialize-mixed waits exactly from arrival to admission, admission
/// happens only once the read phase drains, and the identities
/// `queue_wait = admitted - arrival` and `exec = finished - admitted`
/// hold for every job in the report.
#[test]
fn deferred_writers_account_their_queue_wait() {
    let store = store();
    let planner = AccessPlanner::paper_default();
    let mut server = QueryServer::new(&store, scheduled_unbatched(&planner));
    let queries = [
        QueryId::Q1_1,
        QueryId::Q2_1,
        QueryId::Q3_1,
        QueryId::Q4_1,
        QueryId::Q4_2,
    ];
    for q in queries {
        server.submit(JobSpec::query(q).threads(6).socket(SocketId(0)));
    }
    let writer = server.submit(
        JobSpec::ingest(256 * MIB)
            .threads(2)
            .socket(SocketId(0))
            .arrival(1e-4),
    );
    let report = server.run().expect("run succeeds");

    for job in &report.jobs {
        assert!(
            job.admitted_at + 1e-9 >= job.arrival,
            "{} admitted before it arrived",
            job.id
        );
        assert!(
            (job.queue_wait_seconds - (job.admitted_at - job.arrival)).abs() < 1e-6,
            "{} queue wait {} != admitted {} - arrival {}",
            job.id,
            job.queue_wait_seconds,
            job.admitted_at,
            job.arrival
        );
        assert!(
            (job.exec_seconds - (job.finished_at - job.admitted_at)).abs() < 1e-6,
            "{} exec time disagrees with its admission window",
            job.id
        );
    }

    // The full reader budget is free at t=0: readers never wait.
    for j in report.jobs.iter().filter(|j| j.side == Side::Read) {
        assert_eq!(j.queue_wait_seconds, 0.0, "{} admitted on arrival", j.id);
    }

    // The writer was deferred behind the read phase, and the entire
    // deferral — not just part of it — shows up as queue wait.
    let w = report
        .jobs
        .iter()
        .find(|j| j.id == writer)
        .expect("writer is reported");
    assert!(
        w.verdicts.iter().any(|(_, v)| matches!(
            v,
            Verdict::Queued {
                reason: QueueReason::SerializeMixed
            }
        )),
        "writer deferred by serialize-mixed"
    );
    let read_drain = report
        .jobs
        .iter()
        .filter(|j| j.side == Side::Read)
        .map(|j| j.finished_at)
        .fold(0.0, f64::max);
    assert!(read_drain > 0.0);
    assert!(
        w.admitted_at + 1e-6 >= read_drain,
        "writer admitted at {} before the reads drained at {}",
        w.admitted_at,
        read_drain
    );
    assert!(
        w.queue_wait_seconds >= read_drain - w.arrival - 1e-6,
        "deferral under-accounted: waited {} of {}",
        w.queue_wait_seconds,
        read_drain - w.arrival
    );
}

/// Scheduled mixed execution sustains the read-only scan rate (>=80%);
/// the unscheduled free-for-all measurably forfeits it.
#[test]
fn scheduling_protects_scan_bandwidth() {
    let store = store();
    let planner = AccessPlanner::paper_default();

    let queries = [
        QueryId::Q1_1,
        QueryId::Q2_1,
        QueryId::Q3_1,
        QueryId::Q4_1,
        QueryId::Q4_2,
    ];
    let readers =
        |socket: u8| queries.map(|q| JobSpec::query(q).threads(6).socket(SocketId(socket)));
    let writers = |socket: u8| {
        (0..7).map(move |_| {
            JobSpec::ingest(256 * MIB)
                .threads(1)
                .socket(SocketId(socket))
                .arrival(1e-4)
        })
    };

    // Read-only baseline under the scheduled config.
    let mut server = QueryServer::new(&store, scheduled_unbatched(&planner));
    server.submit_all(readers(0));
    let baseline = server.run().expect("read-only run");
    let baseline_bw = baseline.read_bandwidth_gib_s();
    assert!(
        baseline_bw > 20.0,
        "pinned scan rate is high: {baseline_bw}"
    );

    // Same reads plus writers, scheduled: reads keep their bandwidth.
    let mut server = QueryServer::new(&store, scheduled_unbatched(&planner));
    server.submit_all(readers(0));
    server.submit_all(writers(0));
    let scheduled = server.run().expect("scheduled mixed run");
    let scheduled_bw = scheduled.read_bandwidth_gib_s();
    assert!(
        scheduled_bw >= 0.80 * baseline_bw,
        "scheduled mixed read bandwidth {scheduled_bw:.2} fell below 80% of read-only {baseline_bw:.2}"
    );

    // Same mix with no admission control and no pinning: the mixed phase
    // plus NUMA-oblivious placement crush the scan rate.
    let mut server = QueryServer::new(&store, ServeConfig::free_for_all());
    server.submit_all(readers(0));
    server.submit_all(writers(0));
    let chaos = server.run().expect("free-for-all run");
    let chaos_bw = chaos.read_bandwidth_gib_s();
    assert!(
        chaos_bw < 0.60 * baseline_bw,
        "free-for-all read bandwidth {chaos_bw:.2} should fall measurably below read-only {baseline_bw:.2}"
    );
    assert!(
        chaos_bw < scheduled_bw,
        "scheduling must beat the free-for-all"
    );
}

/// Every submitted job — reader or writer, admitted straight away or
/// queued — completes with non-zero simulated device stats.
#[test]
fn every_job_completes_with_stats() {
    let store = store();
    let planner = AccessPlanner::paper_default();
    let mut server = QueryServer::new(&store, ServeConfig::scheduled(&planner));

    let all: [QueryId; 13] = [
        QueryId::Q1_1,
        QueryId::Q1_2,
        QueryId::Q1_3,
        QueryId::Q2_1,
        QueryId::Q2_2,
        QueryId::Q2_3,
        QueryId::Q3_1,
        QueryId::Q3_2,
        QueryId::Q3_3,
        QueryId::Q3_4,
        QueryId::Q4_1,
        QueryId::Q4_2,
        QueryId::Q4_3,
    ];
    for (i, q) in all.into_iter().enumerate() {
        server.submit(
            JobSpec::query(q)
                .threads(1 + (i as u32 % 4))
                .arrival(i as f64 * 0.002)
                .tenant(i as u32 % 3),
        );
    }
    // Q2.1 again, four more times: the server executes a repeated query
    // once, and every copy must report what a direct execution returns.
    let repeats: Vec<_> = (0..4u32)
        .map(|i| {
            server.submit(
                JobSpec::query(QueryId::Q2_1)
                    .threads(4)
                    .arrival(0.003 + 0.005 * f64::from(i))
                    .tenant(i % 3),
            )
        })
        .collect();
    for i in 0..4u64 {
        server.submit(
            JobSpec::ingest(64 * MIB)
                .threads(2)
                .arrival(0.001 * i as f64),
        );
    }
    let submitted = server.pending_jobs();
    let report = server.run().expect("run succeeds");

    assert_eq!(report.jobs.len(), submitted, "no job is lost");
    for job in &report.jobs {
        assert!(job.finished_at.is_finite(), "{} completed", job.id);
        assert!(job.exec_seconds > 0.0, "{} spent device time", job.id);
        assert!(job.bytes > 0, "{} moved bytes", job.id);
        let stats = &job.stats;
        assert!(
            stats.app_read_bytes + stats.app_write_bytes > 0,
            "{} has non-zero simulated stats",
            job.id
        );
        assert!(
            stats.media_read_bytes + stats.media_write_bytes > 0,
            "{} touched the media",
            job.id
        );
        if job.side == Side::Read {
            let counters = job.counters.expect("queries carry operator counters");
            assert!(counters.tuples_scanned > 0);
        }
    }
    // The merged stats fold every job's traffic.
    assert_eq!(
        report.stats.app_read_bytes,
        report
            .jobs
            .iter()
            .map(|j| j.stats.app_read_bytes)
            .sum::<u64>()
    );
    // Shared scans actually formed under the default window (13 queries
    // arriving 2 ms apart plus the four repeats, on two sockets, 10 ms
    // window).
    assert!(report.batches < 13, "some scans coalesced");
    assert!(report.shared_scan_bytes_saved > 0);
    let direct = run_query(&store, QueryId::Q2_1, 4).expect("direct execution");
    for id in &repeats {
        let job = report
            .jobs
            .iter()
            .find(|j| j.id == *id)
            .expect("repeat recorded");
        assert_eq!(job.rows, direct.rows.len() as u64, "{id} rows");
        assert_eq!(job.bytes, direct.traffic.read_bytes().max(1), "{id} bytes");
        assert_eq!(job.counters, Some(direct.counters), "{id} counters");
    }

    // The unscheduled config completes everything too (no lost jobs without
    // admission control either), pinning differences notwithstanding.
    let mut chaos = QueryServer::new(&store, ServeConfig::free_for_all());
    chaos.submit_all([
        JobSpec::query(QueryId::Q2_2).threads(40), // over-subscribed on purpose
        JobSpec::ingest(8 * MIB).threads(12),
    ]);
    let chaos_report = chaos.run().expect("free-for-all run succeeds");
    assert!(
        chaos_report
            .jobs
            .iter()
            .all(|j| j.finished_at.is_finite()
                && j.stats.app_read_bytes + j.stats.app_write_bytes > 0)
    );
}
