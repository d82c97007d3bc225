//! The PMEM-unaware, Hyrise-like executor (paper §6.1).
//!
//! Hyrise executes operator-at-a-time: every operator **materializes** its
//! full intermediate result before the next operator starts. Combined with
//! unfiltered chained-hash join indexes, this produces exactly the traffic
//! mix that made PMEM-Hyrise 5.3× slower than DRAM-Hyrise in the paper:
//!
//! * full-table scans materializing large intermediates (sequential writes
//!   at PMEM's ~13 GB/s vs DRAM's ~49 GB/s),
//! * every intermediate re-read by the next operator,
//! * per-row probes into pointer-chasing chained hash tables — small,
//!   dependent random reads, the worst pattern for Optane ("hash-operations
//!   take over 90 % of the execution time", §6.1).
//!
//! The executor still produces bit-identical query answers to the aware
//! engine — only the physical execution differs.

use std::sync::atomic::{AtomicU64, Ordering};

use pmem_store::{AccessHint, Region, Result};

use crate::engine::{scan_fact, spill_result, GroupAgg, JoinIndex, OpCounters};
use crate::queries::{build_for_plan, PhaseTraffic, Plan, QueryOutcome, ShardIndexes};
use crate::storage::{Reservation, SsbStore};

/// Bytes per materialized intermediate tuple: the four join keys, the
/// aggregate value, and the four dimension payloads.
pub const INTERMEDIATE_ROW: u64 = 64;

/// A materialized intermediate tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Rec {
    partkey: u32,
    suppkey: u32,
    custkey: u32,
    orderdate: u32,
    value: i64,
    dp: u64,
    cp: u64,
    sp: u64,
    pp: u64,
}

impl Rec {
    fn encode(&self, buf: &mut [u8]) {
        buf[0..4].copy_from_slice(&self.partkey.to_le_bytes());
        buf[4..8].copy_from_slice(&self.suppkey.to_le_bytes());
        buf[8..12].copy_from_slice(&self.custkey.to_le_bytes());
        buf[12..16].copy_from_slice(&self.orderdate.to_le_bytes());
        buf[16..24].copy_from_slice(&self.value.to_le_bytes());
        buf[24..32].copy_from_slice(&self.dp.to_le_bytes());
        buf[32..40].copy_from_slice(&self.cp.to_le_bytes());
        buf[40..48].copy_from_slice(&self.sp.to_le_bytes());
        buf[48..56].copy_from_slice(&self.pp.to_le_bytes());
        buf[56..64].fill(0);
    }

    fn decode(buf: &[u8]) -> Rec {
        Rec {
            partkey: u32::from_le_bytes(buf[0..4].try_into().expect("4")),
            suppkey: u32::from_le_bytes(buf[4..8].try_into().expect("4")),
            custkey: u32::from_le_bytes(buf[8..12].try_into().expect("4")),
            orderdate: u32::from_le_bytes(buf[12..16].try_into().expect("4")),
            value: i64::from_le_bytes(buf[16..24].try_into().expect("8")),
            dp: u64::from_le_bytes(buf[24..32].try_into().expect("8")),
            cp: u64::from_le_bytes(buf[32..40].try_into().expect("8")),
            sp: u64::from_le_bytes(buf[40..48].try_into().expect("8")),
            pp: u64::from_le_bytes(buf[48..56].try_into().expect("8")),
        }
    }
}

/// Materialize a batch of records into a fresh intermediate region, which
/// holds its namespace budget until it is dropped.
fn materialize<'s>(store: &'s SsbStore, recs: &[Rec]) -> Result<(Region, Reservation<'s>)> {
    let ns = &store.shards[0].intermediate_ns;
    let len = (recs.len() as u64).max(1) * INTERMEDIATE_ROW;
    let (mut region, held) = Reservation::hold(ns, || ns.alloc_region(len))?;
    let mut buf = vec![0u8; recs.len() * INTERMEDIATE_ROW as usize];
    for (i, r) in recs.iter().enumerate() {
        r.encode(&mut buf[i * INTERMEDIATE_ROW as usize..(i + 1) * INTERMEDIATE_ROW as usize]);
    }
    if !recs.is_empty() {
        region.try_ntstore(0, &buf, AccessHint::Sequential)?;
        region.sfence();
    }
    Ok((region, held))
}

/// Parallel chunked pass over an intermediate region. Returns the
/// per-thread output batches and the merged stage counters.
fn scan_intermediate<F>(
    region: &Region,
    count: u64,
    threads: u32,
    visit: F,
) -> (Vec<Vec<Rec>>, OpCounters)
where
    F: Fn(&Rec, &mut Vec<Rec>, &mut OpCounters) + Sync,
{
    const CHUNK: u64 = 1024;
    let cursor = AtomicU64::new(0);
    let chunks = count.div_ceil(CHUNK);
    let outs: Vec<(Vec<Rec>, OpCounters)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                let cursor = &cursor;
                let visit = &visit;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut counters = OpCounters::default();
                    loop {
                        let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                        if chunk >= chunks {
                            break;
                        }
                        let start = chunk * CHUNK;
                        let n = CHUNK.min(count - start);
                        let bytes = region.read(
                            start * INTERMEDIATE_ROW,
                            n * INTERMEDIATE_ROW,
                            AccessHint::Sequential,
                        );
                        for i in 0..n as usize {
                            let rec = Rec::decode(
                                &bytes[i * INTERMEDIATE_ROW as usize
                                    ..(i + 1) * INTERMEDIATE_ROW as usize],
                            );
                            visit(&rec, &mut out, &mut counters);
                        }
                    }
                    (out, counters)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stage worker"))
            .collect()
    });
    let mut merged = OpCounters::default();
    let recs = outs
        .into_iter()
        .map(|(recs, c)| {
            merged.merge(&c);
            recs
        })
        .collect::<Vec<_>>();
    (recs, merged)
}

/// Execute a plan in the Hyrise-like operator-at-a-time fashion.
pub(crate) fn execute_unaware(store: &SsbStore, plan: &Plan, threads: u32) -> Result<QueryOutcome> {
    assert_eq!(store.shards.len(), 1, "the unaware engine is single-socket");
    let shard = &store.shards[0];
    let threads = threads.max(1);

    let fact0 = shard.fact_ns.tracker().snapshot();
    let dimidx0 = shard
        .dim_ns
        .tracker()
        .snapshot()
        .plus(&shard.index_ns.tracker().snapshot());

    // ---- Build phase: full (unfiltered) chained indexes ----
    // The indexes are per-query structures: their budget returns when
    // `index_budget` drops, on every return path.
    let (indexes, index_budget) =
        Reservation::hold(&shard.index_ns, || build_for_plan(store, shard, plan))?;

    let build = shard
        .dim_ns
        .tracker()
        .snapshot()
        .plus(&shard.index_ns.tracker().snapshot())
        .since(&dimidx0);
    let index1 = shard.index_ns.tracker().snapshot();
    let index_bytes = index_budget.bytes();
    let inter0 = shard.intermediate_ns.tracker().snapshot();

    let mut counters = OpCounters {
        build_inserts: indexes.inserts,
        ..OpCounters::default()
    };

    // ---- Stage 0: table scan, materialize survivors ----
    let scanned: Vec<Vec<Rec>> = scan_fact(
        &shard.fact,
        shard.fact_rows,
        threads,
        Vec::new,
        |out: &mut Vec<Rec>, row| {
            if (plan.row)(row) {
                out.push(Rec {
                    partkey: row.partkey,
                    suppkey: row.suppkey,
                    custkey: row.custkey,
                    orderdate: row.orderdate,
                    value: (plan.value)(row),
                    ..Rec::default()
                });
            }
        },
    )?;
    counters.tuples_scanned = shard.fact_rows;
    let mut current: Vec<Rec> = scanned.into_iter().flatten().collect();
    let mut materialized = materialize(store, &current)?;

    // ---- One materializing probe stage per joined dimension ----
    type Stage = (
        fn(&ShardIndexes) -> &Option<JoinIndex>,
        Option<fn(u64) -> bool>,
        fn(&Rec) -> u64,
        fn(&mut Rec, u64),
    );
    let stages: [Stage; 4] = [
        (
            |i| &i.part,
            plan.part,
            |r| r.partkey as u64,
            |r, p| r.pp = p,
        ),
        (
            |i| &i.supp,
            plan.supp,
            |r| r.suppkey as u64,
            |r, p| r.sp = p,
        ),
        (
            |i| &i.cust,
            plan.cust,
            |r| r.custkey as u64,
            |r, p| r.cp = p,
        ),
        (
            |i| &i.date,
            plan.date,
            |r| r.orderdate as u64,
            |r, p| r.dp = p,
        ),
    ];

    for (select, pred, key_of, set_payload) in stages {
        let Some(pred) = pred else { continue };
        let idx = select(&indexes)
            .as_ref()
            .expect("index built for joined dim");
        let count = current.len() as u64;
        let (outs, stage_counters) =
            scan_intermediate(&materialized.0, count, threads, |rec, out, c| {
                c.probes += 1;
                if let Some(payload) = idx.get(key_of(rec)) {
                    if pred(payload) {
                        let mut rec = *rec;
                        set_payload(&mut rec, payload);
                        out.push(rec);
                    }
                }
            });
        counters.merge(&stage_counters);
        current = outs.into_iter().flatten().collect();
        // The new intermediate replaces this one, whose budget returns.
        materialized = materialize(store, &current)?;
    }

    // ---- Final aggregation over the last intermediate ----
    let count = current.len() as u64;
    let (aggs, _) = scan_intermediate(&materialized.0, count, threads, |rec, out, _| {
        // Reuse the record vec as a carrier; aggregation happens below to
        // keep the group map merge explicit.
        out.push(*rec);
    });
    let mut agg = GroupAgg::default();
    for recs in aggs {
        for rec in recs {
            agg.add((plan.group)(rec.dp, rec.cp, rec.sp, rec.pp), rec.value);
        }
    }
    counters.tuples_selected = count;
    counters.agg_updates = agg.updates;
    drop(materialized);

    let probe = shard.index_ns.tracker().snapshot().since(&index1);
    let fact = shard.fact_ns.tracker().snapshot().since(&fact0);

    let rows = agg.into_sorted();
    spill_result(&shard.intermediate_ns, &rows)?;
    let intermediate = shard.intermediate_ns.tracker().snapshot().since(&inter0);

    Ok(QueryOutcome {
        query: crate::queries::QueryId::Q1_1, // overwritten by caller
        rows,
        counters,
        traffic: PhaseTraffic {
            build,
            probe,
            fact,
            intermediate,
            index_bytes,
            index_bytes_by_dim: indexes.bytes_by_dim,
        },
        threads,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::queries::{plan_for, run_query, QueryId};
    use crate::storage::{EngineMode, StorageDevice};

    #[test]
    fn rec_round_trip() {
        let rec = Rec {
            partkey: 1,
            suppkey: 2,
            custkey: 3,
            orderdate: 19970101,
            value: -42,
            dp: 10,
            cp: 20,
            sp: 30,
            pp: 40,
        };
        let mut buf = [0u8; INTERMEDIATE_ROW as usize];
        rec.encode(&mut buf);
        assert_eq!(Rec::decode(&buf), rec);
    }

    #[test]
    fn unaware_executor_matches_aware_results() {
        let data = crate::datagen::generate(0.004, 31);
        let aware = crate::storage::SsbStore::load(
            &data,
            0.004,
            EngineMode::Aware,
            StorageDevice::PmemDevdax,
        )
        .unwrap();
        let unaware = crate::storage::SsbStore::load(
            &data,
            0.004,
            EngineMode::Unaware,
            StorageDevice::PmemFsdax,
        )
        .unwrap();
        for q in [QueryId::Q1_1, QueryId::Q2_1, QueryId::Q3_3, QueryId::Q4_2] {
            let a = run_query(&aware, q, 4).unwrap();
            let u = run_query(&unaware, q, 4).unwrap();
            assert_eq!(a.rows, u.rows, "{} diverges", q.name());
        }
    }

    #[test]
    fn unaware_executor_materializes_intermediates() {
        let store = crate::storage::SsbStore::generate_and_load(
            0.004,
            31,
            EngineMode::Unaware,
            StorageDevice::PmemFsdax,
        )
        .unwrap();
        store.reset_trackers();
        let plan = plan_for(QueryId::Q2_1);
        let outcome = execute_unaware(&store, &plan, 4).unwrap();
        // Stage 0 materializes every fact row (no row filter in Q2.1):
        // sequential intermediate writes at least rows × 64 B.
        let expected_stage0 = store.fact_rows() * INTERMEDIATE_ROW;
        assert!(
            outcome.traffic.intermediate.seq_write_bytes >= expected_stage0,
            "intermediates {} < stage0 {expected_stage0}",
            outcome.traffic.intermediate.seq_write_bytes
        );
        // And the intermediates are read back by the next stage.
        assert!(outcome.traffic.intermediate.seq_read_bytes >= expected_stage0);
        // Probes hit the chained index.
        assert!(outcome.counters.probes >= store.fact_rows());
    }
}
