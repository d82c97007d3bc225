//! Query-engine building blocks: parallel chunked scans, filtered hash-join
//! index builds, and grouped aggregation.
//!
//! The engine follows the paper's handcrafted design: scans stream each
//! socket's fact partition in large individual chunks with threads pinned
//! near their data; joins build a (filtered) hash index per dimension and
//! probe it during the fact scan; aggregates accumulate into per-thread
//! hash maps merged at the end.
//!
//! [`build_index`] fills a live table, then seals it into a [`JoinIndex`]
//! that only answers lookups. It owns the table while it fills it, so a
//! Dash build inserts through [`DashTable::insert_owned`] and takes no
//! lock. The scan workers share the sealed index and probe it without a
//! lock or a reference-count bump, yet every probe reads exactly the
//! buckets (Dash) or chain nodes (chained) a live table's `get` reads, so
//! sealing moves host time and no tracked byte.
//!
//! A query counts its own traffic. Every access it makes counts into a
//! [`Tally`] the query owns: one per build for the dimension reads and one
//! for the index writes, one per scan worker for its reads and one for its
//! probes, one for the unaware engine's intermediate stores, one for the
//! spill. The query reports the tallies' counts, so two queries on one
//! store never see each other's traffic, and each tally adds its counts
//! into its namespace's tracker when it drops, so the store-wide totals
//! stay whole.
//!
//! [`spill_result`], the last write of both engines' queries, lands the
//! encoded rows as one sequential non-temporal store and one fence into a
//! region allocated for them ([`Namespace::alloc_region_stored`]), which
//! keeps no host copy beside its bytes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use pmem_dash::{ChainedTable, DashTable, SealedChainedTable, SealedDashTable};
use pmem_store::{AccessHint, Namespace, Region, Result, Tally, TrackerSnapshot};

use crate::schema::{DateDim, GeoDim, Lineorder, PartDim, DIM_ROW, LINEORDER_ROW};
use crate::storage::{EngineMode, RESULT_ROW};

/// Rows per scan chunk: 512 × 128 B = 64 KB sequential reads, comfortably
/// in the flat region of the read-bandwidth curves.
pub const SCAN_CHUNK_ROWS: u64 = 512;

/// Counters a query execution accumulates beyond the namespace trackers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounters {
    /// Fact tuples visited.
    pub tuples_scanned: u64,
    /// Tuples surviving all predicates/joins.
    pub tuples_selected: u64,
    /// Index probes issued.
    pub probes: u64,
    /// Aggregate-state updates.
    pub agg_updates: u64,
    /// Index build inserts.
    pub build_inserts: u64,
}

impl OpCounters {
    /// Merge another counter set.
    pub fn merge(&mut self, other: &OpCounters) {
        self.tuples_scanned += other.tuples_scanned;
        self.tuples_selected += other.tuples_selected;
        self.probes += other.probes;
        self.agg_updates += other.agg_updates;
        self.build_inserts += other.build_inserts;
    }
}

/// A sealed join index: either PMEM-aware (Dash) or unaware (chained), per
/// the execution mode. [`build_index`] seals it after its last insert, so
/// a probe takes no lock yet reads exactly what a live table's would.
pub enum JoinIndex {
    /// Dash extendible hashing (paper §6.2).
    Dash(SealedDashTable),
    /// PMEM-unaware chained hashing (paper §6.1 / Hyrise).
    Chained(SealedChainedTable),
}

impl JoinIndex {
    /// Probe for a key, counted into `tally` (a tally of the namespace the
    /// index was built in).
    #[inline]
    pub fn get(&self, key: u64, tally: &mut Tally<'_>) -> Option<u64> {
        match self {
            JoinIndex::Dash(t) => t.get(key, tally),
            JoinIndex::Chained(t) => t.get(key, tally),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match self {
            JoinIndex::Dash(t) => t.len(),
            JoinIndex::Chained(t) => t.len(),
        }
    }

    /// Bytes the index holds in its namespace.
    pub fn bytes(&self) -> u64 {
        match self {
            JoinIndex::Dash(t) => t.bytes(),
            JoinIndex::Chained(t) => t.bytes(),
        }
    }

    /// Whether the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Build a join index over the `rows` rows of a dimension region and seal
/// it. `entry` maps a row to `Some((key, payload))` if it passes the
/// build-side filter (the paper's aware engine pushes dimension predicates
/// into the build so probe misses filter fact rows). Returns the index, its
/// inserts, and the build's traffic: the dimension reads and the index
/// writes.
pub fn build_index(
    ns: &Namespace,
    dim: &Region,
    rows: u64,
    mode: EngineMode,
    entry: impl Fn(&[u8; DIM_ROW as usize]) -> Option<(u64, u64)>,
) -> Result<(JoinIndex, u64, TrackerSnapshot)> {
    let mut reads = dim.tracker().tally();
    let mut writes = ns.tally();
    let mut fill = |insert: &mut dyn FnMut(u64, u64, &mut Tally<'_>) -> Result<()>| -> Result<u64> {
        let mut inserts = 0u64;
        let mut row = 0u64;
        while row < rows {
            let n = SCAN_CHUNK_ROWS.min(rows - row);
            let bytes = dim.read_tallied(
                row * DIM_ROW,
                n * DIM_ROW,
                AccessHint::Sequential,
                &mut reads,
            );
            for row in rows_of(bytes) {
                if let Some((key, value)) = entry(row) {
                    insert(key, value, &mut writes)?;
                    inserts += 1;
                }
            }
            row += n;
        }
        Ok(inserts)
    };
    let (index, inserts) = match mode {
        EngineMode::Aware => {
            let mut table = DashTable::with_capacity(ns, rows as usize)?;
            let inserts = fill(&mut |key, value, tally| table.insert_owned(key, value, tally))?;
            (JoinIndex::Dash(table.seal()), inserts)
        }
        EngineMode::Unaware => {
            let mut table = ChainedTable::with_capacity(ns, rows as usize)?;
            let inserts = fill(&mut |key, value, tally| table.insert_owned(key, value, tally))?;
            (JoinIndex::Chained(table.seal()), inserts)
        }
    };
    Ok((index, inserts, reads.counts().plus(&writes.counts())))
}

/// The whole `ROW`-byte rows of `bytes`, each as a fixed-width array, so
/// a decoder's field reads need no bounds checks.
#[inline]
fn rows_of<const ROW: usize>(bytes: &[u8]) -> impl Iterator<Item = &[u8; ROW]> {
    bytes
        .chunks_exact(ROW)
        .map(|row| row.try_into().expect("a whole row"))
}

/// Run `threads` workers (at least one) over chunks `0..chunks`. Each
/// worker claims the next unclaimed chunk from a shared cursor and hands
/// it to `visit` with its own state, which starts as `init()`, until the
/// chunks run out or `visit` fails. Returns the workers' states in spawn
/// order, or the first error in that order. One worker runs on the
/// calling thread, visiting the chunks in order.
pub(crate) fn par_chunks<S: Send, E: Send>(
    chunks: u64,
    threads: u32,
    init: impl Fn() -> S + Sync,
    visit: impl Fn(&mut S, u64) -> std::result::Result<(), E> + Sync,
) -> std::result::Result<Vec<S>, E> {
    let cursor = AtomicU64::new(0);
    let worker = || {
        let mut state = init();
        loop {
            let chunk = cursor.fetch_add(1, Ordering::Relaxed);
            if chunk >= chunks {
                return Ok(state);
            }
            visit(&mut state, chunk)?;
        }
    };
    if threads <= 1 {
        return worker().map(|state| vec![state]);
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("scan worker"))
            .collect()
    })
}

/// Scan the `rows` rows of `region`, `ROW` bytes each, with `threads`
/// workers claiming chunks of `chunk_rows` rows ([`par_chunks`]). A chunk
/// is one checked sequential read, counted into its worker's own tally,
/// and each of its rows goes to the worker's accumulator. Returns the
/// accumulators and the sum of the workers' read counts.
pub(crate) fn scan_rows<const ROW: usize, A: Send>(
    region: &Region,
    rows: u64,
    chunk_rows: u64,
    threads: u32,
    init: impl Fn() -> A + Sync,
    visit: impl Fn(&mut A, &[u8; ROW]) + Sync,
) -> Result<(Vec<A>, TrackerSnapshot)> {
    let row_bytes = ROW as u64;
    let workers = par_chunks(
        rows.div_ceil(chunk_rows),
        threads,
        || (init(), region.tracker().tally()),
        |(acc, reads), chunk| {
            let start = chunk * chunk_rows;
            let n = chunk_rows.min(rows - start);
            let bytes = region.try_read_tallied(
                start * row_bytes,
                n * row_bytes,
                AccessHint::Sequential,
                reads,
            )?;
            for row in rows_of(bytes) {
                visit(acc, row);
            }
            Ok(())
        },
    )?;
    let mut reads = TrackerSnapshot::default();
    let accs = workers
        .into_iter()
        .map(|(acc, tally)| {
            reads = reads.plus(&tally.counts());
            acc
        })
        .collect();
    Ok((accs, reads))
}

/// Scan a fact partition with `threads` workers. Each worker claims 64 KB
/// chunks from a shared cursor (individual sequential streams), decodes the
/// rows, and feeds them to its own accumulator. Returns the accumulators
/// and the scan's reads.
///
/// Reads are checked: a chunk that intersects a poisoned XPLine aborts the
/// scan with [`StoreError::Poisoned`](pmem_store::StoreError) instead of
/// consuming corrupt rows, so query results are never silently wrong. The
/// serving layer catches the typed error, quarantines and repairs the
/// range, and retries the query.
pub fn scan_fact<A: Send>(
    fact: &Region,
    rows: u64,
    threads: u32,
    make_acc: impl Fn() -> A + Sync,
    visit: impl Fn(&mut A, &Lineorder) + Sync,
) -> Result<(Vec<A>, TrackerSnapshot)> {
    scan_rows::<{ LINEORDER_ROW as usize }, A>(
        fact,
        rows,
        SCAN_CHUNK_ROWS,
        threads,
        make_acc,
        |acc, row| visit(acc, &Lineorder::decode(row)),
    )
}

/// A per-thread grouped aggregation accumulator.
#[derive(Debug, Default)]
pub struct GroupAgg {
    groups: HashMap<u64, i64>,
    /// Updates performed (for the CPU model).
    pub updates: u64,
}

impl GroupAgg {
    /// Add `value` to group `key`.
    #[inline]
    pub fn add(&mut self, key: u64, value: i64) {
        *self.groups.entry(key).or_insert(0) += value;
        self.updates += 1;
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: GroupAgg) {
        for (k, v) in other.groups {
            *self.groups.entry(k).or_insert(0) += v;
        }
        self.updates += other.updates;
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups exist.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Sorted (key, sum) rows — the deterministic query result.
    pub fn into_sorted(self) -> Vec<(u64, i64)> {
        let mut rows: Vec<(u64, i64)> = self.groups.into_iter().collect();
        rows.sort_unstable();
        rows
    }
}

/// Spill a result set to the intermediate namespace as the final
/// materialization step (sequential 16 B rows), mirroring the paper's
/// intermediate-result writes: one region allocated for the rows, which
/// land as one non-temporal store and one fence. Returns that traffic.
pub fn spill_result(ns: &Namespace, rows: &[(u64, i64)]) -> Result<TrackerSnapshot> {
    let mut tally = ns.tally();
    if !rows.is_empty() {
        let mut buf = Vec::with_capacity(rows.len() * RESULT_ROW as usize);
        for (k, v) in rows {
            buf.extend_from_slice(&k.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        ns.alloc_region_stored(&[buf], AccessHint::Sequential, &mut tally)?;
    }
    Ok(tally.counts())
}

// ---- Join payload packing -------------------------------------------------

/// Pack a geography dimension into an index payload.
pub fn geo_payload(g: &GeoDim) -> u64 {
    (g.city as u64) | ((g.nation as u64) << 16) | ((g.region as u64) << 24)
}

/// City from a geography payload.
pub fn geo_city(p: u64) -> u16 {
    (p & 0xFFFF) as u16
}

/// Nation from a geography payload.
pub fn geo_nation(p: u64) -> u8 {
    ((p >> 16) & 0xFF) as u8
}

/// Region from a geography payload.
pub fn geo_region(p: u64) -> u8 {
    ((p >> 24) & 0xFF) as u8
}

/// Pack a part dimension into an index payload.
pub fn part_payload(p: &PartDim) -> u64 {
    (p.brand as u64) | ((p.category as u64) << 16) | ((p.mfgr as u64) << 24)
}

/// Brand from a part payload.
pub fn part_brand(p: u64) -> u16 {
    (p & 0xFFFF) as u16
}

/// Category from a part payload.
pub fn part_category(p: u64) -> u8 {
    ((p >> 16) & 0xFF) as u8
}

/// Manufacturer from a part payload.
pub fn part_mfgr(p: u64) -> u8 {
    ((p >> 24) & 0xFF) as u8
}

/// Pack a date dimension into an index payload.
pub fn date_payload(d: &DateDim) -> u64 {
    (d.year as u64) | ((d.weeknuminyear as u64) << 16) | ((d.yearmonthnum as u64) << 32)
}

/// Year from a date payload.
pub fn date_year(p: u64) -> u16 {
    (p & 0xFFFF) as u16
}

/// Week-in-year from a date payload.
pub fn date_week(p: u64) -> u8 {
    ((p >> 16) & 0xFF) as u8
}

/// yyyymm from a date payload.
pub fn date_yearmonthnum(p: u64) -> u32 {
    (p >> 32) as u32
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::storage::{SsbStore, StorageDevice};
    use pmem_sim::topology::SocketId;

    #[test]
    fn payload_round_trips() {
        let g = GeoDim {
            key: 1,
            city: 205,
            nation: 20,
            region: 4,
            mktsegment: 0,
        };
        let p = geo_payload(&g);
        assert_eq!(geo_city(p), 205);
        assert_eq!(geo_nation(p), 20);
        assert_eq!(geo_region(p), 4);

        let part = PartDim {
            partkey: 9,
            mfgr: 3,
            category: 14,
            brand: 533,
            ..Default::default()
        };
        let p = part_payload(&part);
        assert_eq!(part_brand(p), 533);
        assert_eq!(part_category(p), 14);
        assert_eq!(part_mfgr(p), 3);

        let d = DateDim {
            datekey: 19970601,
            year: 1997,
            weeknuminyear: 22,
            yearmonthnum: 199706,
            ..Default::default()
        };
        let p = date_payload(&d);
        assert_eq!(date_year(p), 1997);
        assert_eq!(date_week(p), 22);
        assert_eq!(date_yearmonthnum(p), 199706);
    }

    #[test]
    fn filtered_index_build_only_keeps_matches() {
        let store =
            SsbStore::generate_and_load(0.002, 5, EngineMode::Aware, StorageDevice::PmemDevdax)
                .unwrap();
        let shard = &store.shards[0];
        let (index, inserts, traffic) = build_index(
            &shard.index_ns,
            &shard.parts,
            store.card.part as u64,
            EngineMode::Aware,
            |row| {
                let p = PartDim::decode(row);
                (p.category == 12).then(|| (p.partkey as u64, part_payload(&p)))
            },
        )
        .unwrap();
        assert_eq!(index.len() as u64, inserts);
        // The build read every row, and the index holds its namespace's
        // bytes.
        assert_eq!(traffic.seq_read_bytes, store.card.part as u64 * DIM_ROW);
        assert_eq!(index.bytes(), shard.index_ns.used());
        // Roughly 1/25 of parts have a given category.
        let frac = inserts as f64 / store.card.part as f64;
        assert!((0.01..0.1).contains(&frac), "category selectivity {frac}");
    }

    #[test]
    fn scan_fact_visits_every_row_once() {
        let store =
            SsbStore::generate_and_load(0.002, 5, EngineMode::Aware, StorageDevice::PmemDevdax)
                .unwrap();
        let shard = &store.shards[0];
        let (counts, reads) = scan_fact(
            &shard.fact,
            shard.fact_rows,
            4,
            || 0u64,
            |acc, _row| *acc += 1,
        )
        .unwrap();
        let total: u64 = counts.iter().sum();
        assert_eq!(total, shard.fact_rows);
        assert_eq!(reads.seq_read_bytes, shard.fact_rows * LINEORDER_ROW);
    }

    #[test]
    fn scan_fact_decodes_real_rows() {
        let data = crate::datagen::generate(0.002, 5);
        let store =
            SsbStore::load(&data, 0.002, EngineMode::Unaware, StorageDevice::PmemDevdax).unwrap();
        let shard = &store.shards[0];
        let (sums, _) = scan_fact(
            &shard.fact,
            shard.fact_rows,
            3,
            || 0u64,
            |acc, row| *acc += row.revenue as u64,
        )
        .unwrap();
        let expected: u64 = data.lineorder.iter().map(|l| l.revenue as u64).sum();
        assert_eq!(sums.iter().sum::<u64>(), expected);
    }

    #[test]
    fn one_worker_visits_every_chunk_in_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let visit = |seen: &mut Vec<u64>, chunk| {
            assert_eq!(std::thread::current().id(), caller);
            seen.push(chunk);
            if chunk == 99 {
                return Err(chunk);
            }
            Ok(())
        };
        assert_eq!(
            par_chunks(5, 1, Vec::new, visit),
            Ok(vec![vec![0, 1, 2, 3, 4]])
        );
        assert_eq!(par_chunks(0, 1, Vec::new, visit), Ok(vec![vec![]]));
        assert_eq!(par_chunks(200, 1, Vec::new, visit), Err(99));
        // Zero threads means one worker too.
        assert_eq!(par_chunks(3, 0, Vec::new, visit), Ok(vec![vec![0, 1, 2]]));
    }

    #[test]
    fn group_agg_merges_and_sorts() {
        let mut a = GroupAgg::default();
        a.add(2, 10);
        a.add(1, 5);
        let mut b = GroupAgg::default();
        b.add(2, 7);
        b.add(3, 1);
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.updates, 4);
        assert_eq!(a.into_sorted(), vec![(1, 5), (2, 17), (3, 1)]);
    }

    #[test]
    fn spill_result_accounts_sequential_writes() {
        let ns = pmem_store::Namespace::devdax(SocketId(0), 1 << 20);
        let spilled = spill_result(&ns, &[(1, 2), (3, 4)]).unwrap();
        let snap = ns.tracker().snapshot();
        assert_eq!(snap.seq_write_bytes, 32);
        assert_eq!(spilled, snap);
        let nothing = spill_result(&ns, &[]).unwrap(); // no-op
        assert_eq!(nothing, pmem_store::TrackerSnapshot::default());
        assert_eq!(ns.tracker().snapshot().seq_write_bytes, 32);
    }
}
