//! The extendible-hashing directory tying segments into a table.
//!
//! The directory maps the low `global_depth` hash bits to segments. A full
//! segment splits into two with `local_depth + 1`; when a segment is
//! already at the global depth, the directory doubles first. Concurrency is
//! directory-read + segment-write for normal operations and directory-write
//! for splits — coarse but correct, and segment operations dominate.
//!
//! A table with one owner fills through [`DashTable::insert_owned`], which
//! reaches a segment through `&mut` and takes no lock unless directory
//! twins share it. It runs the one segment insert and the one split the
//! shared [`KvIndex::insert`] runs.
//!
//! A table that takes no more writes can be [sealed](DashTable::seal) into
//! a [`SealedDashTable`]: the same segments and directory, out of their
//! locks, probed with exactly the same bucket reads.
//!
//! Inserts and lookups count their bucket accesses into the caller's
//! [`Tally`] of the table's namespace; [`KvIndex::insert`] and
//! [`KvIndex::get`] run the same bodies with a tally of their own. Each
//! segment's region holds its bytes of the namespace: a split's replaced
//! segment returns them when its last handle drops, and an allocation that
//! fails part-way drops, and so returns, the segments it already took.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use pmem_store::{Namespace, Result, Tally};

use crate::hash::{self, hash64};
use crate::segment::{Segment, SegmentInner, SegmentInsert, SEGMENT_BYTES};
use crate::KvIndex;

/// Directory state.
struct Directory {
    global_depth: u8,
    entries: Vec<Arc<Segment>>,
}

/// Structural statistics of a [`DashTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DashStats {
    /// Live records.
    pub records: usize,
    /// Distinct segments.
    pub segments: usize,
    /// Directory slots (≥ segments; twins share a segment until split).
    pub directory_entries: usize,
    /// Extendible-hashing global depth.
    pub global_depth: u8,
    /// Smallest local depth across segments.
    pub min_local_depth: u8,
    /// Records living in stash (overflow) buckets.
    pub stash_records: u64,
    /// Records / theoretical slot capacity.
    pub load_factor: f64,
    /// PMEM bytes held by segments.
    pub bytes: u64,
}

/// What [`DashTable::crash_recover`] found and fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DashRecovery {
    /// Segments swept.
    pub segments: usize,
    /// Stale duplicate copies persistently cleared.
    pub duplicates_repaired: usize,
    /// Live records after recovery.
    pub records: usize,
}

/// A Dash-style extendible hash table on persistent memory.
pub struct DashTable {
    ns: Namespace,
    dir: RwLock<Directory>,
    len: AtomicUsize,
}

/// The one lookup body of the live and the sealed table: hash the key,
/// pick its directory slot, probe the segment `segment` returns for it.
#[inline]
fn lookup<S: Deref<Target = SegmentInner>>(
    key: u64,
    global_depth: u8,
    segment: impl FnOnce(usize) -> S,
    tally: &mut Tally<'_>,
) -> Option<u64> {
    let h = hash64(key);
    segment(hash::dir_index(h, global_depth)).get(h, key, tally)
}

/// A [`DashTable`] after its last write: the directory as segment indices
/// and the segments out of their locks. A probe takes no lock and clones
/// nothing, and reads exactly the buckets [`DashTable::get`] reads.
pub struct SealedDashTable {
    global_depth: u8,
    /// Segment index of every directory slot (twins share one).
    dir: Vec<u32>,
    segments: Vec<SegmentInner>,
    len: usize,
}

impl SealedDashTable {
    /// Point lookup, counted into `tally` (a tally of the namespace the
    /// table was built in).
    #[inline]
    pub fn get(&self, key: u64, tally: &mut Tally<'_>) -> Option<u64> {
        lookup(
            key,
            self.global_depth,
            |slot| &self.segments[self.dir[slot] as usize],
            tally,
        )
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the table holds in its namespace: its segments' regions. The
    /// segments a split replaced have already given theirs back.
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.region.len()).sum()
    }
}

impl DashTable {
    /// Create a table with a single segment (global depth 0).
    pub fn new(ns: &Namespace) -> Result<Self> {
        Self::with_initial_depth(ns, 0)
    }

    /// Create a table pre-sized with `2^depth` segments — avoids split
    /// storms when the final cardinality is known (e.g. SSB dimension
    /// tables).
    pub fn with_initial_depth(ns: &Namespace, depth: u8) -> Result<Self> {
        assert!(
            depth <= 28,
            "directory of 2^{depth} entries is unreasonable"
        );
        let entries = (0..1usize << depth)
            .map(|_| Segment::new(ns, depth).map(Arc::new))
            .collect::<Result<_>>()?;
        Ok(DashTable {
            ns: ns.clone(),
            dir: RwLock::new(Directory {
                global_depth: depth,
                entries,
            }),
            len: AtomicUsize::new(0),
        })
    }

    /// Pick an initial depth for an expected number of records.
    pub fn with_capacity(ns: &Namespace, records: usize) -> Result<Self> {
        let per_segment = (crate::segment::SegmentInner::capacity() as f64 * 0.7) as usize;
        let mut depth = 0u8;
        while (1usize << depth) * per_segment < records && depth < 28 {
            depth += 1;
        }
        Self::with_initial_depth(ns, depth)
    }

    /// Current directory size (diagnostic).
    pub fn directory_size(&self) -> usize {
        self.dir.read().entries.len()
    }

    /// Current global depth (diagnostic).
    pub fn global_depth(&self) -> u8 {
        self.dir.read().global_depth
    }

    /// Consume the table into its read-only form. Every segment leaves its
    /// lock; directory twins keep sharing one segment. The regions, and so
    /// the namespace bytes they hold, move over unchanged.
    pub fn seal(self) -> SealedDashTable {
        let Directory {
            global_depth,
            entries,
        } = self.dir.into_inner();
        let mut index_of: HashMap<*const Segment, u32> = HashMap::new();
        let mut unique = Vec::new();
        let dir = entries
            .iter()
            .map(|segment| {
                *index_of.entry(Arc::as_ptr(segment)).or_insert_with(|| {
                    unique.push(Arc::clone(segment));
                    (unique.len() - 1) as u32
                })
            })
            .collect();
        // With the directory gone, `unique` holds the only handles.
        drop(entries);
        let segments = unique
            .into_iter()
            .map(|segment| {
                Arc::into_inner(segment)
                    .expect("a consumed table shares no segment")
                    .into_inner()
            })
            .collect();
        SealedDashTable {
            global_depth,
            dir,
            segments,
            len: self.len.into_inner(),
        }
    }

    /// Single-owner insert or update, counted into `tally`: exactly what
    /// [`KvIndex::insert_tallied`] writes and counts, without its locks. A
    /// segment only this directory slot holds is reached through `&mut`;
    /// one that split twins share is locked as the shared path locks it.
    pub fn insert_owned(&mut self, key: u64, value: u64, tally: &mut Tally<'_>) -> Result<()> {
        let h = hash64(key);
        loop {
            let dir = self.dir.get_mut();
            let slot = &mut dir.entries[hash::dir_index(h, dir.global_depth)];
            let outcome = match Arc::get_mut(slot) {
                Some(segment) => segment.get_mut().insert(h, key, value, tally),
                None => slot.write().insert(h, key, value, tally),
            };
            match outcome {
                SegmentInsert::Inserted => {
                    *self.len.get_mut() += 1;
                    return Ok(());
                }
                SegmentInsert::Updated => return Ok(()),
                SegmentInsert::NeedsSplit => {
                    let full_segment = Arc::as_ptr(slot);
                    self.split(h, full_segment, tally)?;
                }
            }
        }
    }

    /// Split the segment responsible for hash `h`, unless another thread
    /// already replaced it (`expected` no longer matches).
    fn split(&self, h: u64, expected: *const Segment, tally: &mut Tally<'_>) -> Result<()> {
        let mut dir = self.dir.write();
        let idx = hash::dir_index(h, dir.global_depth);
        let old = Arc::clone(&dir.entries[idx]);
        if Arc::as_ptr(&old) != expected {
            return Ok(()); // concurrent split already handled it
        }
        let old_inner = old.write();
        let local = old_inner.local_depth;

        // Both halves first: a split that cannot get them changes nothing
        // and holds no bytes.
        let zero = Arc::new(Segment::new(&self.ns, local + 1)?);
        let one = Arc::new(Segment::new(&self.ns, local + 1)?);

        if local == dir.global_depth {
            // Double the directory: entry i gains a twin at i + 2^depth.
            let entries = dir.entries.clone();
            dir.entries.extend(entries);
            dir.global_depth += 1;
        }

        {
            let mut z = zero.write();
            let mut o = one.write();
            for (k, v) in old_inner.records(tally) {
                let kh = hash64(k);
                let bit = (kh >> local) & 1;
                let target = if bit == 0 { &mut *z } else { &mut *o };
                match target.insert(kh, k, v, tally) {
                    SegmentInsert::Inserted => {}
                    // A single split cannot overflow a fresh segment: the
                    // parent held ≤ capacity records.
                    other => unreachable!("split re-insert failed: {other:?}"),
                }
            }
        }

        // Rewire every directory entry that pointed at the old segment.
        let stride = 1usize << local;
        let base = idx & (stride - 1);
        let mut slot = base;
        while slot < dir.entries.len() {
            let bit = (slot >> local) & 1;
            dir.entries[slot] = if bit == 0 {
                Arc::clone(&zero)
            } else {
                Arc::clone(&one)
            };
            slot += stride;
        }
        // The replaced segment's bytes go back with its last handle, `old`.
        Ok(())
    }

    /// Structural statistics (diagnostics and sizing).
    pub fn stats(&self) -> DashStats {
        let dir = self.dir.read();
        let mut seen: Vec<*const Segment> = Vec::new();
        let mut records = 0usize;
        let mut stash_records = 0u64;
        let mut min_depth = u8::MAX;
        for seg in &dir.entries {
            let ptr = Arc::as_ptr(seg);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            let inner = seg.read();
            records += inner.count;
            stash_records += inner.stash_used as u64;
            min_depth = min_depth.min(inner.local_depth);
        }
        let segments = seen.len();
        DashStats {
            records,
            segments,
            directory_entries: dir.entries.len(),
            global_depth: dir.global_depth,
            min_local_depth: if segments == 0 { 0 } else { min_depth },
            stash_records,
            load_factor: records as f64
                / (segments * crate::segment::SegmentInner::capacity()).max(1) as f64,
            bytes: segments as u64 * SEGMENT_BYTES,
        }
    }

    /// Simulate a power loss across every segment: lines not yet accepted
    /// into the WPQ revert to their last persisted image (chaos-testing
    /// hook; see `pmem_store::Region::crash`). Dash's publication order
    /// guarantees no half-visible records afterwards.
    pub fn simulate_crash(&self) -> u64 {
        let dir = self.dir.write();
        let mut seen: Vec<*const Segment> = Vec::new();
        let mut lost = 0;
        for seg in &dir.entries {
            let ptr = Arc::as_ptr(seg);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            lost += seg.write().region.crash();
        }
        lost
    }

    /// Recount live records after a crash (the persisted truth may differ
    /// from the in-memory counter for unfenced inserts).
    pub fn recount(&self) -> usize {
        let n = self.iter_records().len();
        self.len.store(n, Ordering::Relaxed);
        n
    }

    /// Post-crash recovery: sweep every segment for interrupted
    /// displacements (the same record live in both buckets of its home
    /// pair) and rebuild the live counters from the persisted buckets.
    /// Must run before serving operations after a power loss — a surviving
    /// duplicate would otherwise outlive its own removal and resurrect
    /// deleted data (see `SegmentInner::repair_duplicates`).
    pub fn crash_recover(&self) -> DashRecovery {
        let dir = self.dir.write();
        let mut seen: Vec<*const Segment> = Vec::new();
        let mut duplicates_repaired = 0usize;
        let mut records = 0usize;
        for seg in &dir.entries {
            let ptr = Arc::as_ptr(seg);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            let mut inner = seg.write();
            duplicates_repaired += inner.repair_duplicates();
            inner.recount();
            records += inner.count;
        }
        self.len.store(records, Ordering::Relaxed);
        DashRecovery {
            segments: seen.len(),
            duplicates_repaired,
            records,
        }
    }

    /// Iterate all records (snapshot per segment; used by tests and the SSB
    /// build verification).
    pub fn iter_records(&self) -> Vec<(u64, u64)> {
        let dir = self.dir.read();
        let tally = &mut self.ns.tally();
        let mut seen: Vec<*const Segment> = Vec::new();
        let mut out = Vec::new();
        for seg in &dir.entries {
            let ptr = Arc::as_ptr(seg);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            out.extend(seg.read().records(tally));
        }
        out
    }
}

impl KvIndex for DashTable {
    fn insert(&self, key: u64, value: u64) -> Result<()> {
        self.insert_tallied(key, value, &mut self.ns.tally())
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.get_tallied(key, &mut self.ns.tally())
    }

    fn insert_tallied(&self, key: u64, value: u64, tally: &mut Tally<'_>) -> Result<()> {
        let h = hash64(key);
        loop {
            let full_segment = {
                // The directory guard keeps the segment alive while it is
                // locked, so no handle is cloned.
                let dir = self.dir.read();
                let segment = &dir.entries[hash::dir_index(h, dir.global_depth)];
                let outcome = segment.write().insert(h, key, value, tally);
                match outcome {
                    SegmentInsert::Inserted => {
                        self.len.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                    SegmentInsert::Updated => return Ok(()),
                    SegmentInsert::NeedsSplit => Arc::as_ptr(segment),
                }
            };
            // Split outside of the read lock, then retry.
            self.split(h, full_segment, tally)?;
        }
    }

    fn get_tallied(&self, key: u64, tally: &mut Tally<'_>) -> Option<u64> {
        // Directory, then segment: the lock order inserts and splits use.
        let dir = self.dir.read();
        lookup(
            key,
            dir.global_depth,
            |slot| dir.entries[slot].read(),
            tally,
        )
    }

    fn remove(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let dir = self.dir.read();
        let idx = hash::dir_index(h, dir.global_depth);
        let segment = Arc::clone(&dir.entries[idx]);
        let mut inner = segment.write();
        let removed = inner.remove(h, key, &mut self.ns.tally());
        if removed.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use pmem_sim::topology::SocketId;

    fn ns(mib: u64) -> Namespace {
        Namespace::devdax(SocketId(0), mib << 20)
    }

    #[test]
    fn basic_crud() {
        let ns = ns(8);
        let t = DashTable::new(&ns).unwrap();
        assert!(t.is_empty());
        t.insert(1, 100).unwrap();
        t.insert(2, 200).unwrap();
        assert_eq!(t.get(1), Some(100));
        assert_eq!(t.get(2), Some(200));
        assert_eq!(t.get(3), None);
        assert_eq!(t.len(), 2);
        t.insert(1, 101).unwrap();
        assert_eq!(t.get(1), Some(101));
        assert_eq!(t.len(), 2, "update must not grow len");
        assert_eq!(t.remove(1), Some(101));
        assert_eq!(t.remove(1), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_through_many_splits() {
        let ns = ns(256);
        let t = DashTable::new(&ns).unwrap();
        let n = 50_000u64;
        for k in 0..n {
            t.insert(k, k.wrapping_mul(3)).unwrap();
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.global_depth() >= 5, "depth {}", t.global_depth());
        for k in 0..n {
            assert_eq!(t.get(k), Some(k.wrapping_mul(3)), "key {k}");
        }
        assert_eq!(t.get(n + 1), None);
    }

    #[test]
    fn presized_table_avoids_splits() {
        let ns = ns(256);
        let t = DashTable::with_capacity(&ns, 20_000).unwrap();
        let before = t.directory_size();
        for k in 0..20_000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(
            t.directory_size(),
            before,
            "presized table should not split"
        );
    }

    #[test]
    fn iter_records_matches_len() {
        let ns = ns(64);
        let t = DashTable::new(&ns).unwrap();
        for k in 0..5_000u64 {
            t.insert(k, k + 7).unwrap();
        }
        let recs = t.iter_records();
        assert_eq!(recs.len(), t.len());
        assert!(recs.iter().all(|(k, v)| *v == k + 7));
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let ns = ns(256);
        let t = Arc::new(DashTable::new(&ns).unwrap());
        let threads = 8;
        let per = 4_000u64;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..per {
                        let k = tid * per + i;
                        t.insert(k, k * 2).unwrap();
                        assert_eq!(t.get(k), Some(k * 2));
                    }
                });
            }
        });
        assert_eq!(t.len(), (threads * per) as usize);
        for k in 0..threads * per {
            assert_eq!(t.get(k), Some(k * 2));
        }
    }

    #[test]
    fn stats_reflect_structure_and_load() {
        let ns = ns(256);
        let t = DashTable::new(&ns).unwrap();
        let empty = t.stats();
        assert_eq!(empty.records, 0);
        assert_eq!(empty.segments, 1);
        assert_eq!(empty.global_depth, 0);
        for k in 0..30_000u64 {
            t.insert(k, k).unwrap();
        }
        let full = t.stats();
        assert_eq!(full.records, 30_000);
        assert!(full.segments > 16, "segments {}", full.segments);
        assert!(full.directory_entries >= full.segments);
        assert!(
            (0.3..0.95).contains(&full.load_factor),
            "load factor {}",
            full.load_factor
        );
        assert!(full.min_local_depth <= full.global_depth);
        assert_eq!(
            full.bytes,
            full.segments as u64 * crate::segment::SEGMENT_BYTES
        );
    }

    #[test]
    fn crash_recover_sweeps_duplicates_and_recounts() {
        let ns = ns(64);
        let t = DashTable::new(&ns).unwrap();
        for k in 0..200u64 {
            t.insert(k, k + 1).unwrap();
        }
        // Plant an interrupted displacement in whichever segment owns the
        // key, exactly as a crash in the displacement window would.
        let key = 7777u64;
        let h = hash64(key);
        {
            let dir = t.dir.read();
            let idx = hash::dir_index(h, dir.global_depth);
            let seg = Arc::clone(&dir.entries[idx]);
            drop(dir);
            let mut inner = seg.write();
            let tally = &mut ns.tally();
            assert_eq!(inner.insert(h, key, 1, tally), SegmentInsert::Inserted);
            let b = hash::bucket_index(h, crate::segment::BUCKETS);
            let n = (b + 1) % crate::segment::BUCKETS;
            let fp = hash::fingerprint(h);
            let off = |bkt: u32| bkt as u64 * crate::bucket::BUCKET_BYTES;
            let to = if crate::bucket::load(&inner.region, off(b), tally)
                .find(fp, key)
                .is_some()
            {
                n
            } else {
                b
            };
            let free = crate::bucket::load(&inner.region, off(to), tally)
                .free_slot()
                .unwrap();
            crate::bucket::publish(&mut inner.region, off(to), free, fp, key, 1, tally);
        }
        let report = t.crash_recover();
        assert_eq!(report.duplicates_repaired, 1);
        assert_eq!(report.records, 201);
        assert_eq!(t.len(), 201);
        assert_eq!(t.remove(key), Some(1));
        assert_eq!(t.get(key), None, "removal must be final after recovery");
    }

    #[test]
    fn sealed_lookup_reads_what_the_live_get_reads() {
        // Two tables built alike on namespaces of their own: one through
        // `KvIndex::insert`, the other through one tally, then sealed. A
        // small capacity hint makes them split.
        let build = |tallied: bool| {
            let ns = Namespace::fsdax(SocketId(0), 64 << 20);
            let t = DashTable::with_capacity(&ns, 16).unwrap();
            let mut tally = ns.tally();
            for k in 0..7_500u64 {
                if tallied {
                    t.insert_tallied(k * 3, k, &mut tally).unwrap();
                } else {
                    t.insert(k * 3, k).unwrap();
                }
            }
            drop(tally);
            (ns, t)
        };
        let segment_bytes = |t: &DashTable| -> Vec<Vec<u8>> {
            let dir = t.dir.read();
            let regions = dir.entries.iter().map(|s| s.read());
            regions
                .map(|s| s.region.untracked_slice().to_vec())
                .collect()
        };
        let (live_ns, live) = build(false);
        let (sealed_ns, table) = build(true);
        assert_eq!(sealed_ns.tracker().snapshot(), live_ns.tracker().snapshot());
        assert_eq!(segment_bytes(&table), segment_bytes(&live));
        let stats = table.stats();
        assert_eq!(stats, live.stats());
        assert!(
            stats.directory_entries > stats.segments,
            "twin directory entries: {stats:?}"
        );
        assert!(stats.stash_records > 0, "stash in use: {stats:?}");
        let sealed = table.seal();
        assert_eq!(sealed.len(), live.len());
        // Every third key is a hit, the others miss.
        for key in 0..22_500u64 {
            let (live0, sealed0) = (live_ns.tracker().snapshot(), sealed_ns.tracker().snapshot());
            let mut tally = sealed_ns.tally();
            assert_eq!(sealed.get(key, &mut tally), live.get(key), "key {key}");
            drop(tally);
            assert_eq!(
                sealed_ns.tracker().snapshot().since(&sealed0),
                live_ns.tracker().snapshot().since(&live0),
                "key {key}"
            );
        }
    }

    #[test]
    fn owned_inserts_equal_shared_inserts() {
        // Each shape is built twice, on namespaces of their own: through
        // `insert_owned` and through `KvIndex::insert_tallied`, then every
        // seventh key is updated. Started at depth 0 the table splits into
        // twins, which the owned insert reaches through their lock; the
        // presized table never splits.
        let segment_bytes = |t: &DashTable| -> Vec<Vec<u8>> {
            let dir = t.dir.read();
            let regions = dir.entries.iter().map(|s| s.read());
            regions
                .map(|s| s.region.untracked_slice().to_vec())
                .collect()
        };
        for (presized, keys) in [(false, 7_500u64), (true, 2_000)] {
            let build = |owned: bool| {
                let ns = Namespace::fsdax(SocketId(0), 64 << 20);
                let mut t = if presized {
                    DashTable::with_capacity(&ns, keys as usize)
                } else {
                    DashTable::new(&ns)
                }
                .unwrap();
                let mut tally = ns.tally();
                let pairs = (0..keys).map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k));
                let updates = (0..keys)
                    .step_by(7)
                    .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), !k));
                for (key, value) in pairs.chain(updates) {
                    if owned {
                        t.insert_owned(key, value, &mut tally).unwrap();
                    } else {
                        t.insert_tallied(key, value, &mut tally).unwrap();
                    }
                }
                let counts = tally.counts();
                drop(tally);
                (ns, t, counts)
            };
            let (owned_ns, owned, owned_counts) = build(true);
            let (shared_ns, shared, shared_counts) = build(false);
            assert_eq!(owned_counts, shared_counts, "presized {presized}");
            assert_eq!(
                owned_ns.tracker().snapshot(),
                shared_ns.tracker().snapshot()
            );
            assert_eq!(owned.iter_records(), shared.iter_records());
            assert_eq!(segment_bytes(&owned), segment_bytes(&shared));
            let stats = owned.stats();
            assert_eq!(stats, shared.stats());
            assert_eq!(stats.records, keys as usize);
            assert_eq!(
                stats.directory_entries > stats.segments,
                !presized,
                "twins only where the table split: {stats:?}"
            );
            let (owned, shared) = (owned.seal(), shared.seal());
            assert_eq!(owned.len(), shared.len());
            for k in 0..2 * keys {
                let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let (mut a, mut b) = (owned_ns.tally(), shared_ns.tally());
                assert_eq!(owned.get(key, &mut a), shared.get(key, &mut b), "key {key}");
                assert_eq!(a.counts(), b.counts(), "key {key}");
            }
        }
    }

    #[test]
    fn namespace_bytes_follow_the_live_segments() {
        use crate::segment::SEGMENT_BYTES;
        // A run of splits returns the bytes of every segment it replaces.
        let ns = ns(64);
        let t = DashTable::new(&ns).unwrap();
        for k in 0..20_000u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.stats().segments > 8, "{:?}", t.stats());
        assert_eq!(ns.used(), t.stats().bytes);
        assert_eq!(t.seal().bytes(), ns.used());

        // Inserts until a split fails: with room for 2 or 4 segments the
        // failing split gets its first half and not its second; with a
        // region taking all the room but the table's, it gets neither.
        for (room, taken) in [(2, 0), (4, 0), (3, 2)] {
            let ns = Namespace::devdax(SocketId(0), room * SEGMENT_BYTES);
            let t = DashTable::new(&ns).unwrap();
            let _taken = ns.alloc_region(taken * SEGMENT_BYTES).unwrap();
            let failed = (0..100_000u64).find_map(|k| t.insert(k, k).err());
            assert!(
                matches!(failed, Some(pmem_store::StoreError::OutOfSpace { .. })),
                "{failed:?}"
            );
            let stats = t.stats();
            assert_eq!(
                ns.used(),
                stats.bytes + taken * SEGMENT_BYTES,
                "room {room}"
            );
            // The failed split changed nothing: every record still answers.
            for (k, v) in t.iter_records() {
                assert_eq!(t.get(k), Some(v));
            }
            assert_eq!(t.iter_records().len(), stats.records);
        }

        // A table whose segments do not all fit holds none of them.
        let ns = Namespace::devdax(SocketId(0), 5 * SEGMENT_BYTES);
        let per_segment = (SegmentInner::capacity() as f64 * 0.7) as usize;
        assert!(DashTable::with_capacity(&ns, 8 * per_segment).is_err());
        assert_eq!(ns.used(), 0);
    }

    #[test]
    fn out_of_space_surfaces_as_error() {
        let tiny = Namespace::devdax(SocketId(0), 64 << 10); // one segment fits, splits don't
        let t = DashTable::new(&tiny).unwrap();
        let mut err = None;
        for k in 0..100_000u64 {
            if let Err(e) = t.insert(k, k) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(
            err,
            Some(pmem_store::StoreError::OutOfSpace { .. })
        ));
    }
}
