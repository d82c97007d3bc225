//! The engines' reported work is pinned: host-side changes to how a query
//! executes must leave every row, operator counter and tracked byte of
//! every phase exactly as it was.
//!
//! Each engine runs all 13 queries at SF 0.005 (seed 21) on PMEM fsdax, in
//! paper order on one store, so first-touch page faults are pinned too.
//! The outcomes fold into one FNV-1a digest per engine; a mismatch prints
//! every outcome.
//!
//! A query that fails is pinned too: with one XPLine of every fact
//! partition poisoned, each query stops where its scan meets the poison,
//! and what every namespace's tracker holds then is digested.
//!
//! A query counts only its own traffic, so two queries run at once on one
//! store must each report exactly their solo outcome.

use std::sync::{Arc, Barrier};

use pmem_ssb::{
    run_query, EngineMode, OpCounters, PhaseTraffic, QueryId, QueryOutcome, SsbStore, StorageDevice,
};
use pmem_store::{StoreError, TrackerSnapshot, XPLINE};

const SF: f64 = 0.005;
const SEED: u64 = 21;
const THREADS: u32 = 4;

/// Digests of the 13 outcomes per engine.
const AWARE_DIGEST: u64 = 0xcb43a2b8980ce786;
const UNAWARE_DIGEST: u64 = 0x5e72325e0188b2e2;

/// Digests of the trackers after each of the 13 failing queries.
const AWARE_POISONED_DIGEST: u64 = 0x05bec733a679f430;
const UNAWARE_POISONED_DIGEST: u64 = 0x18d86dad8d14a543;

/// Every counter of a snapshot, in field order.
fn snapshot_words(snapshot: TrackerSnapshot) -> [u64; 10] {
    let TrackerSnapshot {
        seq_read_bytes,
        rand_read_bytes,
        seq_write_bytes,
        rand_write_bytes,
        read_ops,
        write_ops,
        sfences,
        page_faults,
        crashes,
        crash_lost_lines,
    } = snapshot;
    [
        seq_read_bytes,
        rand_read_bytes,
        seq_write_bytes,
        rand_write_bytes,
        read_ops,
        write_ops,
        sfences,
        page_faults,
        crashes,
        crash_lost_lines,
    ]
}

/// Every number an outcome reports, in a fixed order. The destructuring
/// names every field, so a new one cannot go unpinned.
fn words(outcome: &QueryOutcome) -> Vec<u64> {
    let mut words = vec![outcome.rows.len() as u64];
    for &(key, value) in &outcome.rows {
        words.extend([key, value as u64]);
    }
    let OpCounters {
        tuples_scanned,
        tuples_selected,
        probes,
        agg_updates,
        build_inserts,
    } = outcome.counters;
    words.extend([
        tuples_scanned,
        tuples_selected,
        probes,
        agg_updates,
        build_inserts,
    ]);
    let PhaseTraffic {
        build,
        probe,
        fact,
        intermediate,
        index_bytes,
        index_bytes_by_dim,
    } = outcome.traffic;
    for snapshot in [build, probe, fact, intermediate] {
        words.extend(snapshot_words(snapshot));
    }
    words.push(index_bytes);
    words.extend(index_bytes_by_dim);
    words
}

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn both_engines_report_the_pinned_traffic() {
    for (mode, pinned) in [
        (EngineMode::Aware, AWARE_DIGEST),
        (EngineMode::Unaware, UNAWARE_DIGEST),
    ] {
        let store = SsbStore::generate_and_load(SF, SEED, mode, StorageDevice::PmemFsdax)
            .expect("store loads");
        let outcomes: Vec<QueryOutcome> = QueryId::ALL
            .iter()
            .map(|&q| run_query(&store, q, THREADS).expect("query runs"))
            .collect();
        let digest = fnv1a(outcomes.iter().flat_map(words));
        if digest != pinned {
            for o in &outcomes {
                eprintln!(
                    "{mode:?} {}: {} rows (digest {:#018x}), {:?}, {:?}",
                    o.query.name(),
                    o.rows.len(),
                    fnv1a(o.rows.iter().flat_map(|&(k, v)| [k, v as u64])),
                    o.counters,
                    o.traffic
                );
            }
        }
        assert_eq!(
            digest, pinned,
            "{mode:?} engine digest {digest:#018x}, pinned {pinned:#018x}"
        );
    }
}

#[test]
fn failing_queries_leave_the_pinned_counts() {
    for (mode, pinned) in [
        (EngineMode::Aware, AWARE_POISONED_DIGEST),
        (EngineMode::Unaware, UNAWARE_POISONED_DIGEST),
    ] {
        let mut store = SsbStore::generate_and_load(SF, SEED, mode, StorageDevice::PmemFsdax)
            .expect("store loads");
        // One XPLine in the middle of every fact partition.
        for shard in &mut store.shards {
            let fact = Arc::get_mut(&mut shard.fact).expect("no scan in flight");
            let offset = fact.len() / 2 / XPLINE * XPLINE;
            assert_eq!(fact.inject_poison(offset, XPLINE), 1);
        }
        // One thread: one scan worker per shard, so each scan stops at the
        // same row on every run.
        let mut words = Vec::new();
        for q in QueryId::ALL {
            match run_query(&store, q, 1) {
                Err(StoreError::Poisoned { offset, len }) => words.extend([offset, len]),
                other => panic!("{mode:?} {}: {other:?}", q.name()),
            }
            for shard in &store.shards {
                for ns in [
                    &shard.fact_ns,
                    &shard.dim_ns,
                    &shard.index_ns,
                    &shard.intermediate_ns,
                ] {
                    words.extend(snapshot_words(ns.tracker().snapshot()));
                }
            }
        }
        let digest = fnv1a(words);
        assert_eq!(
            digest, pinned,
            "{mode:?} engine digest {digest:#018x}, pinned {pinned:#018x}"
        );
    }
}

#[test]
fn concurrent_queries_report_their_solo_outcomes() {
    use QueryId::*;
    // Devdax: no first-touch faults, so a query's counts do not depend on
    // what ran before it.
    for (mode, pairs) in [
        (EngineMode::Aware, [[Q2_1, Q4_3], [Q1_1, Q3_2]]),
        (EngineMode::Unaware, [[Q1_1, Q3_2], [Q2_1, Q4_1]]),
    ] {
        let store = SsbStore::generate_and_load(SF, SEED, mode, StorageDevice::PmemDevdax)
            .expect("store loads");
        for pair in pairs {
            let solo = pair.map(|q| run_query(&store, q, THREADS).expect("query runs"));
            for _ in 0..5 {
                // Both queries start together and run side by side.
                let (store, start) = (&store, &Barrier::new(2));
                let together = std::thread::scope(|scope| {
                    pair.map(|q| {
                        scope.spawn(move || {
                            start.wait();
                            run_query(store, q, THREADS)
                        })
                    })
                    .map(|run| run.join().expect("query thread"))
                });
                for (i, outcome) in together.into_iter().enumerate() {
                    assert_eq!(
                        outcome.expect("query runs"),
                        solo[i],
                        "{mode:?} {} beside {}",
                        pair[i].name(),
                        pair[1 - i].name()
                    );
                }
            }
        }
    }
}
