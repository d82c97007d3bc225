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
//!
//! Each stage is one parallel pass over its input, and its output is one
//! materialized intermediate of 64 B tuples:
//!
//! * the stage's workers encode surviving tuples straight into byte
//!   buffers of their own (a probe stage copies the row it read and writes
//!   the probed payload into the copy), taken from the store's
//!   `StageBuffers` with room for every input row, and given back once
//!   the stage's intermediate has landed;
//! * the buffers land, in worker order, in a region allocated for them
//!   ([`alloc_region_stored`]) as one non-temporal store of the whole
//!   intermediate and one fence, so the tracked traffic is that of one
//!   store however many workers ran; every intermediate of a query counts
//!   its store and fence into one tally the query owns;
//! * each stage worker reads its chunks of the input intermediate through
//!   its own tally of the intermediate namespace, and probes sealed
//!   indexes ([`JoinIndex`]), which take no lock, through its own tally
//!   of the index namespace; the query adds up the tallies' counts;
//! * the stage's input intermediate drops once the workers have read it,
//!   before the output lands;
//! * the final aggregation folds per-worker [`GroupAgg`]s, as the aware
//!   engine does.
//!
//! Both kinds of host memory a stage fills are recycled: the stage
//! buffers through the store, and the intermediates' host images (one
//! buffer of bytes each: an intermediate is never stored to after its
//! one fence, so it saves no pre-image) through the intermediate
//! namespace's pool, where each output finds its input's image. After a
//! store's first query the stages write into pages that are already
//! faulted in on the host, and the unaware engine's host footprint peaks
//! at stage 0: the buffers and one intermediate image.
//!
//! [`alloc_region_stored`]: pmem_store::Namespace::alloc_region_stored

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pmem_store::namespace::POOL_MIN_BYTES;
use pmem_store::{AccessHint, Region, Result, Tally};

use crate::engine::{scan_fact, scan_rows, spill_result, GroupAgg, JoinIndex, OpCounters};
use crate::queries::{build_for_plan, PhaseTraffic, Plan, QueryOutcome, ShardIndexes};
use crate::storage::SsbStore;

/// Bytes per materialized intermediate tuple: the four join keys, the
/// aggregate value, and the four dimension payloads.
pub const INTERMEDIATE_ROW: u64 = 64;

/// Rows per chunk a stage worker claims of its input intermediate.
const STAGE_CHUNK_ROWS: u64 = 1024;

// Byte offsets of the fields of an encoded intermediate tuple. Keys are
// `u32`, the value `i64` and payloads `u64`, all little-endian; bytes
// 56..64 are zero.
const PARTKEY: usize = 0;
const SUPPKEY: usize = 4;
const CUSTKEY: usize = 8;
const ORDERDATE: usize = 12;
const VALUE: usize = 16;
const DATE_PAYLOAD: usize = 24;
const CUST_PAYLOAD: usize = 32;
const SUPP_PAYLOAD: usize = 40;
const PART_PAYLOAD: usize = 48;

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

fn u32_at(row: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(row[at..at + 4].try_into().expect("4"))
}

fn u64_at(row: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(row[at..at + 8].try_into().expect("8"))
}

impl Rec {
    fn encode(&self) -> [u8; INTERMEDIATE_ROW as usize] {
        let mut row = [0u8; INTERMEDIATE_ROW as usize];
        row[PARTKEY..PARTKEY + 4].copy_from_slice(&self.partkey.to_le_bytes());
        row[SUPPKEY..SUPPKEY + 4].copy_from_slice(&self.suppkey.to_le_bytes());
        row[CUSTKEY..CUSTKEY + 4].copy_from_slice(&self.custkey.to_le_bytes());
        row[ORDERDATE..ORDERDATE + 4].copy_from_slice(&self.orderdate.to_le_bytes());
        row[VALUE..VALUE + 8].copy_from_slice(&self.value.to_le_bytes());
        row[DATE_PAYLOAD..DATE_PAYLOAD + 8].copy_from_slice(&self.dp.to_le_bytes());
        row[CUST_PAYLOAD..CUST_PAYLOAD + 8].copy_from_slice(&self.cp.to_le_bytes());
        row[SUPP_PAYLOAD..SUPP_PAYLOAD + 8].copy_from_slice(&self.sp.to_le_bytes());
        row[PART_PAYLOAD..PART_PAYLOAD + 8].copy_from_slice(&self.pp.to_le_bytes());
        row
    }

    fn decode(row: &[u8]) -> Rec {
        Rec {
            partkey: u32_at(row, PARTKEY),
            suppkey: u32_at(row, SUPPKEY),
            custkey: u32_at(row, CUSTKEY),
            orderdate: u32_at(row, ORDERDATE),
            value: u64_at(row, VALUE) as i64,
            dp: u64_at(row, DATE_PAYLOAD),
            cp: u64_at(row, CUST_PAYLOAD),
            sp: u64_at(row, SUPP_PAYLOAD),
            pp: u64_at(row, PART_PAYLOAD),
        }
    }
}

/// Stage buffers a store keeps at most: one per worker of stages run with
/// up to this many threads.
pub(crate) const STAGE_BUFFERS: usize = 16;

/// The byte buffers the unaware engine's stage workers encode into, kept
/// between stages and queries.
#[derive(Debug, Default)]
pub(crate) struct StageBuffers {
    free: Mutex<Vec<Vec<u8>>>,
    /// Buffers of at least `POOL_MIN_BYTES` handed out that no free buffer
    /// had room for, so were allocated fresh.
    fresh: AtomicU64,
}

impl StageBuffers {
    /// An empty buffer with room for `bytes`: a free one if it has room
    /// (the pages of the largest stage it served stay faulted in),
    /// otherwise a fresh allocation. Room for every row a worker could
    /// emit means it never reallocates while it fills.
    fn take(&self, bytes: u64) -> Vec<u8> {
        let buf = self.lock().pop().unwrap_or_default();
        if buf.capacity() as u64 >= bytes {
            return buf;
        }
        if bytes >= POOL_MIN_BYTES {
            self.fresh.fetch_add(1, Ordering::Relaxed);
        }
        Vec::with_capacity(bytes as usize)
    }

    /// Keep `bufs`, emptied, up to [`STAGE_BUFFERS`].
    fn give(&self, bufs: Vec<Vec<u8>>) {
        let mut free = self.lock();
        for mut buf in bufs {
            if free.len() < STAGE_BUFFERS {
                buf.clear();
                free.push(buf);
            }
        }
    }

    /// The free list. A worker that panicked holding it left a valid list
    /// (every update is one `push` or `pop`), so a poisoned lock is taken.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<u8>>> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Buffers free now.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Fresh allocations of at least `POOL_MIN_BYTES` so far.
    #[cfg(test)]
    pub(crate) fn fresh(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }
}

/// One materialized intermediate. Its region holds its namespace budget
/// until it is dropped.
struct Intermediate {
    region: Region,
    rows: u64,
}

/// Materialize the encoded rows of `parts`, in order, into a fresh
/// intermediate region with one non-temporal store and one fence, counted
/// into `stores` (a tally of the intermediate namespace). An empty stage
/// output is one empty tuple's region, never stored to. The parts go back
/// to the stage buffers.
fn materialize(
    store: &SsbStore,
    parts: Vec<Vec<u8>>,
    stores: &mut Tally<'_>,
) -> Result<Intermediate> {
    let ns = &store.shards[0].intermediate_ns;
    let bytes: u64 = parts.iter().map(|p| p.len() as u64).sum();
    let landed = if bytes == 0 {
        ns.alloc_region(INTERMEDIATE_ROW)
    } else {
        ns.alloc_region_stored(&parts, AccessHint::Sequential, stores)
    };
    store.stage_buffers.give(parts);
    Ok(Intermediate {
        region: landed?,
        rows: bytes / INTERMEDIATE_ROW,
    })
}

/// Execute a plan in the Hyrise-like operator-at-a-time fashion.
pub(crate) fn execute_unaware(store: &SsbStore, plan: &Plan, threads: u32) -> Result<QueryOutcome> {
    assert_eq!(store.shards.len(), 1, "the unaware engine is single-socket");
    let shard = &store.shards[0];
    let threads = threads.max(1);

    // ---- Build phase: full (unfiltered) chained indexes ----
    // The indexes are per-query structures: their regions return their
    // bytes when they drop, on every return path.
    let indexes = build_for_plan(store, shard, plan)?;

    let mut counters = OpCounters {
        build_inserts: indexes.inserts,
        ..OpCounters::default()
    };
    let mut traffic = PhaseTraffic {
        build: indexes.traffic,
        index_bytes_by_dim: indexes.bytes_by_dim(),
        ..PhaseTraffic::default()
    };
    traffic.index_bytes = traffic.index_bytes_by_dim.iter().sum();
    // Every intermediate's store and fence.
    let mut stores = shard.intermediate_ns.tally();

    // ---- Stage 0: table scan, materialize survivors ----
    let (scanned, fact) = scan_fact(
        &shard.fact,
        shard.fact_rows,
        threads,
        || store.stage_buffers.take(shard.fact_rows * INTERMEDIATE_ROW),
        |out: &mut Vec<u8>, row| {
            if (plan.row)(row) {
                let rec = Rec {
                    partkey: row.partkey,
                    suppkey: row.suppkey,
                    custkey: row.custkey,
                    orderdate: row.orderdate,
                    value: (plan.value)(row),
                    ..Rec::default()
                };
                out.extend_from_slice(&rec.encode());
            }
        },
    )?;
    traffic.fact = fact;
    counters.tuples_scanned = shard.fact_rows;
    let mut current = materialize(store, scanned, &mut stores)?;

    // ---- One materializing probe stage per joined dimension ----
    // (index, predicate, key offset, payload offset)
    type Stage = (
        fn(&ShardIndexes) -> &Option<JoinIndex>,
        Option<fn(u64) -> bool>,
        usize,
        usize,
    );
    let stages: [Stage; 4] = [
        (|i| &i.part, plan.part, PARTKEY, PART_PAYLOAD),
        (|i| &i.supp, plan.supp, SUPPKEY, SUPP_PAYLOAD),
        (|i| &i.cust, plan.cust, CUSTKEY, CUST_PAYLOAD),
        (|i| &i.date, plan.date, ORDERDATE, DATE_PAYLOAD),
    ];

    for (select, pred, key_at, payload_at) in stages {
        let Some(pred) = pred else { continue };
        let idx = select(&indexes)
            .as_ref()
            .expect("index built for joined dim");
        let room = current.rows * INTERMEDIATE_ROW;
        let (outs, reads) = scan_rows::<{ INTERMEDIATE_ROW as usize }, _>(
            &current.region,
            current.rows,
            STAGE_CHUNK_ROWS,
            threads,
            || {
                let out = store.stage_buffers.take(room);
                (out, OpCounters::default(), shard.index_ns.tally())
            },
            |(out, c, probes), row| {
                c.probes += 1;
                if let Some(payload) = idx.get(u32_at(row, key_at) as u64, probes) {
                    if pred(payload) {
                        let at = out.len() + payload_at;
                        out.extend_from_slice(row);
                        out[at..at + 8].copy_from_slice(&payload.to_le_bytes());
                    }
                }
            },
        )?;
        traffic.intermediate = traffic.intermediate.plus(&reads);
        let mut parts = Vec::with_capacity(outs.len());
        for (out, c, probes) in outs {
            counters.merge(&c);
            traffic.probe = traffic.probe.plus(&probes.counts());
            parts.push(out);
        }
        // The stage has read all of its input, and its output waits in
        // the stage buffers: the input drops, returning its budget and its
        // host image, before the output lands (in that image, if large).
        drop(current);
        current = materialize(store, parts, &mut stores)?;
    }

    // ---- Final aggregation over the last intermediate ----
    let (parts, reads) = scan_rows::<{ INTERMEDIATE_ROW as usize }, _>(
        &current.region,
        current.rows,
        STAGE_CHUNK_ROWS,
        threads,
        GroupAgg::default,
        |agg, row| {
            let rec = Rec::decode(row);
            agg.add((plan.group)(rec.dp, rec.cp, rec.sp, rec.pp), rec.value);
        },
    )?;
    let mut agg = GroupAgg::default();
    for part in parts {
        agg.merge(part);
    }
    counters.tuples_selected = current.rows;
    counters.agg_updates = agg.updates;
    drop(current);

    let rows = agg.into_sorted();
    let spilled = spill_result(&shard.intermediate_ns, &rows)?;
    traffic.intermediate = traffic
        .intermediate
        .plus(&reads)
        .plus(&stores.counts())
        .plus(&spilled);

    Ok(QueryOutcome {
        query: crate::queries::QueryId::Q1_1, // overwritten by caller
        rows,
        counters,
        traffic,
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
        assert_eq!(Rec::decode(&rec.encode()), rec);
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
    fn a_repeated_query_allocates_no_fresh_host_memory() {
        // SF 0.01: stage 0 of a Q2-Q4 query materializes 3.8 MB, above
        // the pooling threshold, and Q4.1's part stage keeps 1.5 MB.
        // Each query runs twice, and the second run must take every image
        // and stage buffer of at least that size from a pool.
        let store = crate::storage::SsbStore::generate_and_load(
            0.01,
            31,
            EngineMode::Unaware,
            StorageDevice::PmemFsdax,
        )
        .unwrap();
        assert!(store.fact_rows() * INTERMEDIATE_ROW >= POOL_MIN_BYTES);
        let shard = &store.shards[0];
        let namespaces = [
            &shard.fact_ns,
            &shard.dim_ns,
            &shard.index_ns,
            &shard.intermediate_ns,
        ];
        let fresh = || {
            let images = namespaces.map(|ns| ns.fresh_images());
            (images, store.stage_buffers.fresh())
        };
        for q in [QueryId::Q2_1, QueryId::Q3_1, QueryId::Q4_1] {
            let first = run_query(&store, q, 2).unwrap();
            let before = fresh();
            let again = run_query(&store, q, 2).unwrap();
            assert_eq!(
                fresh(),
                before,
                "{}: fresh images or stage buffers",
                q.name()
            );
            assert_eq!(again, first, "{}", q.name());
        }
        // The first runs allocated both kinds, so the pools served the
        // second ones: one intermediate image, which every stage since the
        // first Q2.1's stage 0 has reused, and one stage buffer per worker.
        assert_eq!(shard.intermediate_ns.fresh_images(), 1);
        assert_eq!(store.stage_buffers.fresh(), 2);
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
