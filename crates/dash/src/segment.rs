//! A Dash segment: 64 regular buckets plus 4 stash buckets in one
//! contiguous, lock-protected PMEM region.
//!
//! Records live in their *home* bucket `b` or the probing neighbour
//! `(b + 1) % 64`; inserts go to the emptier of the two ("balanced
//! insert"), displace movable neighbours when both are full, and spill into
//! the stash as a last resort. Only when even the stash is full does the
//! table split the segment.
//!
//! Lookups, inserts (displacement and stash included), removes and the
//! record listing a split takes count every bucket access into the
//! caller's [`Tally`]; the recovery sweeps count into one of their own.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use pmem_store::{Namespace, Region, Result, Tally};

use crate::bucket::{self, BucketInsert, BUCKET_BYTES, SLOTS};
use crate::hash::{self, hash64};

/// Regular buckets per segment.
pub const BUCKETS: u32 = 64;
/// Stash (overflow) buckets per segment.
pub const STASH: u32 = 4;
/// Region bytes per segment.
pub const SEGMENT_BYTES: u64 = (BUCKETS + STASH) as u64 * BUCKET_BYTES;

/// Result of a segment-level insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentInsert {
    /// New record stored.
    Inserted,
    /// Existing key updated.
    Updated,
    /// Segment is full (even the stash): the table must split it.
    NeedsSplit,
}

/// Mutable state of a segment.
#[derive(Debug)]
pub struct SegmentInner {
    /// Backing PMEM region.
    pub region: Region,
    /// Extendible-hashing local depth.
    pub local_depth: u8,
    /// Live records in this segment.
    pub count: usize,
    /// Records currently living in stash buckets. Dash tracks stash
    /// occupancy in bucket metadata so negative lookups skip the stash
    /// entirely — without this, every miss costs four extra 256 B probes.
    pub stash_used: u32,
}

/// A lock-protected segment.
#[derive(Debug)]
pub struct Segment {
    inner: RwLock<SegmentInner>,
}

impl Segment {
    /// Allocate an empty segment with the given local depth.
    pub fn new(ns: &Namespace, local_depth: u8) -> Result<Self> {
        let region = ns.alloc_region(SEGMENT_BYTES)?;
        Ok(Segment {
            inner: RwLock::new(SegmentInner {
                region,
                local_depth,
                count: 0,
                stash_used: 0,
            }),
        })
    }

    /// Shared access to the inner state.
    pub fn read(&self) -> parking_lot::RwLockReadGuard<'_, SegmentInner> {
        self.inner.read()
    }

    /// Exclusive access to the inner state.
    pub fn write(&self) -> parking_lot::RwLockWriteGuard<'_, SegmentInner> {
        self.inner.write()
    }

    /// The inner state through a unique handle, without taking the lock.
    pub fn get_mut(&mut self) -> &mut SegmentInner {
        self.inner.get_mut()
    }

    /// The inner state, out of its lock (the segment is consumed).
    pub fn into_inner(self) -> SegmentInner {
        self.inner.into_inner()
    }
}

fn bucket_off(b: u32) -> u64 {
    b as u64 * BUCKET_BYTES
}

fn stash_off(s: u32) -> u64 {
    (BUCKETS + s) as u64 * BUCKET_BYTES
}

impl SegmentInner {
    /// The buckets `key` may live in, in probe order: home, neighbour,
    /// then the stash when it holds records.
    fn probe_offsets(&self, h: u64) -> impl Iterator<Item = u64> {
        let b = hash::bucket_index(h, BUCKETS);
        let stash = if self.stash_used > 0 { STASH } else { 0 };
        [bucket_off(b), bucket_off((b + 1) % BUCKETS)]
            .into_iter()
            .chain((0..stash).map(stash_off))
    }

    /// Where `key` lives: the first bucket of its probe order holding it,
    /// the slot, and the value.
    #[inline]
    fn find(&self, h: u64, key: u64, t: &mut Tally<'_>) -> Option<(u64, usize, u64)> {
        let fp = hash::fingerprint(h);
        self.probe_offsets(h).find_map(|off| {
            let snap = bucket::load(&self.region, off, t);
            let slot = snap.find(fp, key)?;
            Some((off, slot, snap.record(slot).1))
        })
    }

    /// Point lookup: home bucket, neighbour, then the stash — at most six
    /// 256 B probes, usually one.
    #[inline]
    pub fn get(&self, h: u64, key: u64, t: &mut Tally<'_>) -> Option<u64> {
        self.find(h, key, t).map(|(_, _, value)| value)
    }

    /// Insert or update.
    pub fn insert(&mut self, h: u64, key: u64, value: u64, t: &mut Tally<'_>) -> SegmentInsert {
        let fp = hash::fingerprint(h);
        let b = hash::bucket_index(h, BUCKETS);
        let n = (b + 1) % BUCKETS;

        // Update in place if the key exists anywhere it may live.
        if let Some((off, slot, _)) = self.find(h, key, t) {
            bucket::update_value(&mut self.region, off, slot, value, t);
            return SegmentInsert::Updated;
        }

        // Balanced insert: fill the emptier of home and neighbour.
        let (b_occ, n_occ) = (
            bucket::load(&self.region, bucket_off(b), t).occupancy(),
            bucket::load(&self.region, bucket_off(n), t).occupancy(),
        );
        let order = if b_occ <= n_occ { [b, n] } else { [n, b] };
        for target in order {
            if bucket::insert(&mut self.region, bucket_off(target), fp, key, value, t)
                == BucketInsert::Inserted
            {
                self.count += 1;
                return SegmentInsert::Inserted;
            }
        }

        // Displacement: make room in the home pair by moving a record to
        // *its* alternate bucket.
        for victim_bucket in [b, n] {
            if self.displace_one(victim_bucket, t)
                && bucket::insert(
                    &mut self.region,
                    bucket_off(victim_bucket),
                    fp,
                    key,
                    value,
                    t,
                ) == BucketInsert::Inserted
            {
                self.count += 1;
                return SegmentInsert::Inserted;
            }
        }

        // Stash.
        for s in 0..STASH {
            if bucket::insert(&mut self.region, stash_off(s), fp, key, value, t)
                == BucketInsert::Inserted
            {
                self.count += 1;
                self.stash_used += 1;
                return SegmentInsert::Inserted;
            }
        }
        SegmentInsert::NeedsSplit
    }

    /// Try to move one record of `from` into that record's alternate
    /// bucket. Returns true if a slot was freed.
    fn displace_one(&mut self, from: u32, t: &mut Tally<'_>) -> bool {
        let region = &self.region;
        let snap = bucket::load(region, bucket_off(from), t);
        let movable = snap.live().find_map(|(slot, key, value)| {
            let h = hash64(key);
            let home = hash::bucket_index(h, BUCKETS);
            let alt = if home == from {
                (home + 1) % BUCKETS
            } else {
                home
            };
            if alt == from {
                return None;
            }
            let free = bucket::load(region, bucket_off(alt), t).free_slot()?;
            Some((slot, alt, free, hash::fingerprint(h), key, value))
        });
        let Some((slot, alt, free, fp, key, value)) = movable else {
            return false;
        };
        // Crash-safe move: publish the copy first, then clear the
        // original. A crash in between leaves a duplicate, which
        // lookups tolerate (same key/value) and splits dedupe.
        bucket::publish(&mut self.region, bucket_off(alt), free, fp, key, value, t);
        bucket::clear_slot(&mut self.region, bucket_off(from), slot, t);
        true
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, h: u64, key: u64, t: &mut Tally<'_>) -> Option<u64> {
        let (off, slot, value) = self.find(h, key, t)?;
        bucket::clear_slot(&mut self.region, off, slot, t);
        self.count -= 1;
        if off >= stash_off(0) {
            self.stash_used -= 1;
        }
        Some(value)
    }

    /// All live records (for splits). Duplicates from interrupted
    /// displacements are removed.
    pub fn records(&self, t: &mut Tally<'_>) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.count);
        for bkt in 0..BUCKETS + STASH {
            let snap = bucket::load(&self.region, bkt as u64 * BUCKET_BYTES, t);
            out.extend(snap.live().map(|(_, k, v)| (k, v)));
        }
        out.sort_unstable();
        out.dedup_by_key(|(k, _)| *k);
        out
    }

    /// Theoretical record capacity of a segment.
    pub fn capacity() -> usize {
        (BUCKETS + STASH) as usize * SLOTS
    }

    /// Rebuild a segment over an existing region — the post-crash remap
    /// path (e.g. a region materialized from a crash image). With `repair`
    /// set, interrupted displacements are swept first; the returned
    /// [`SegmentRecovery`] reports what the sweep found.
    pub fn recover(
        region: Region,
        local_depth: u8,
        repair: bool,
    ) -> (SegmentInner, SegmentRecovery) {
        let mut inner = SegmentInner {
            region,
            local_depth,
            count: 0,
            stash_used: 0,
        };
        let duplicates_repaired = if repair { inner.repair_duplicates() } else { 0 };
        inner.recount();
        let report = SegmentRecovery {
            duplicates_repaired,
            records: inner.count,
        };
        (inner, report)
    }

    /// Recompute `count` and `stash_used` from the persisted buckets (the
    /// in-memory counters die with the process; the buckets are the truth).
    pub fn recount(&mut self) {
        let tracker = Arc::clone(self.region.tracker());
        let t = &mut tracker.tally();
        let mut count = 0usize;
        let mut stash_used = 0u32;
        for bkt in 0..BUCKETS + STASH {
            let occ = bucket::load(&self.region, bkt as u64 * BUCKET_BYTES, t).occupancy();
            count += occ;
            if bkt >= BUCKETS {
                stash_used += occ as u32;
            }
        }
        self.count = count;
        self.stash_used = stash_used;
    }

    /// Keys currently occupying more than one slot — the footprint a crash
    /// inside [`SegmentInner::insert`]'s displacement window leaves (copy
    /// published to the alternate bucket, original not yet cleared).
    pub fn raw_duplicates(&self) -> Vec<u64> {
        let tracker = Arc::clone(self.region.tracker());
        let t = &mut tracker.tally();
        let mut occurrences: BTreeMap<u64, u32> = BTreeMap::new();
        for bkt in 0..BUCKETS + STASH {
            let snap = bucket::load(&self.region, bkt as u64 * BUCKET_BYTES, t);
            for (_, k, _) in snap.live() {
                *occurrences.entry(k).or_insert(0) += 1;
            }
        }
        occurrences
            .into_iter()
            .filter(|(_, n)| *n > 1)
            .map(|(k, _)| k)
            .collect()
    }

    /// Sweep interrupted displacements: for every key occupying multiple
    /// slots, keep the copy `get`/update probing reaches first (the
    /// authoritative one — in-place updates land there) and persistently
    /// clear the rest. Without this sweep a duplicated key survives its own
    /// removal: `remove` clears only the first probe hit, so the stale copy
    /// resurrects deleted data. Returns the number of copies cleared.
    pub fn repair_duplicates(&mut self) -> usize {
        let tracker = Arc::clone(self.region.tracker());
        let t = &mut tracker.tally();
        let mut cleared = 0usize;
        for key in self.raw_duplicates() {
            let h = hash64(key);
            let b = hash::bucket_index(h, BUCKETS);
            let mut offsets = vec![bucket_off(b), bucket_off((b + 1) % BUCKETS)];
            offsets.extend((0..STASH).map(stash_off));
            let mut kept = false;
            for off in offsets {
                let slots: Vec<usize> = bucket::load(&self.region, off, t)
                    .live()
                    .filter(|&(_, k, _)| k == key)
                    .map(|(slot, _, _)| slot)
                    .collect();
                for slot in slots {
                    if kept {
                        bucket::clear_slot(&mut self.region, off, slot, t);
                        cleared += 1;
                    } else {
                        kept = true;
                    }
                }
            }
        }
        cleared
    }
}

/// What a recovery sweep found in one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRecovery {
    /// Stale duplicate copies persistently cleared.
    pub duplicates_repaired: usize,
    /// Live records after the sweep.
    pub records: usize,
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use pmem_sim::topology::SocketId;

    fn segment() -> (Namespace, Segment) {
        let ns = Namespace::devdax(SocketId(0), 4 << 20);
        let segment = Segment::new(&ns, 0).unwrap();
        (ns, segment)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let (ns, seg) = segment();
        let mut inner = seg.write();
        let t = &mut ns.tally();
        for k in 0..100u64 {
            assert_eq!(
                inner.insert(hash64(k), k, k * 2, t),
                SegmentInsert::Inserted
            );
        }
        assert_eq!(inner.count, 100);
        for k in 0..100u64 {
            assert_eq!(inner.get(hash64(k), k, t), Some(k * 2));
        }
        assert_eq!(inner.get(hash64(500), 500, t), None);
        assert_eq!(inner.remove(hash64(7), 7, t), Some(14));
        assert_eq!(inner.get(hash64(7), 7, t), None);
        assert_eq!(inner.count, 99);
    }

    #[test]
    fn updates_do_not_grow_count() {
        let (ns, seg) = segment();
        let mut inner = seg.write();
        let t = &mut ns.tally();
        inner.insert(hash64(1), 1, 10, t);
        assert_eq!(inner.insert(hash64(1), 1, 20, t), SegmentInsert::Updated);
        assert_eq!(inner.count, 1);
        assert_eq!(inner.get(hash64(1), 1, t), Some(20));
    }

    #[test]
    fn fills_to_a_healthy_load_factor_before_split() {
        let (ns, seg) = segment();
        let mut inner = seg.write();
        let t = &mut ns.tally();
        let mut inserted = 0u32;
        for k in 0..(SegmentInner::capacity() as u64 * 2) {
            match inner.insert(hash64(k), k, k, t) {
                SegmentInsert::Inserted => inserted += 1,
                SegmentInsert::NeedsSplit => break,
                SegmentInsert::Updated => unreachable!("keys are distinct"),
            }
        }
        let load = inserted as f64 / SegmentInner::capacity() as f64;
        assert!(
            load > 0.65,
            "balanced insert + displacement + stash should reach ≥65 % load, got {load:.2}"
        );
        // Everything inserted must remain findable.
        for k in 0..inserted as u64 {
            assert_eq!(inner.get(hash64(k), k, t), Some(k), "lost key {k}");
        }
    }

    #[test]
    fn records_returns_everything_once() {
        let (ns, seg) = segment();
        let mut inner = seg.write();
        let t = &mut ns.tally();
        for k in 0..50u64 {
            inner.insert(hash64(k), k, k + 1, t);
        }
        let recs = inner.records(t);
        assert_eq!(recs.len(), 50);
        assert!(recs.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(recs.iter().all(|(k, v)| *v == k + 1));
    }

    /// The on-media state a crash at the displacement window
    /// (publish-to-alternate done, clear-of-original not) leaves behind:
    /// the same record live in both buckets of its home pair. This is the
    /// exact state the crash-state model checker reaches by accepting the
    /// copy's lines but not the clear (see `tests/crash_model.rs`).
    fn craft_interrupted_displacement(
        inner: &mut SegmentInner,
        key: u64,
        value: u64,
        t: &mut Tally<'_>,
    ) {
        let h = hash64(key);
        assert_eq!(inner.insert(h, key, value, t), SegmentInsert::Inserted);
        let b = hash::bucket_index(h, BUCKETS);
        let n = (b + 1) % BUCKETS;
        let fp = hash::fingerprint(h);
        // Balanced insert put the record in one bucket of the home pair;
        // publish the displacement copy into the other.
        let to = if bucket::load(&inner.region, bucket_off(b), t)
            .find(fp, key)
            .is_some()
        {
            n
        } else {
            b
        };
        let free = bucket::load(&inner.region, bucket_off(to), t)
            .free_slot()
            .expect("room in the pair");
        bucket::publish(&mut inner.region, bucket_off(to), free, fp, key, value, t);
        // Crash here: the clear of the original never happened.
    }

    #[test]
    fn interrupted_displacement_resurrects_deleted_keys_without_repair() {
        let (ns, seg) = segment();
        let mut inner = seg.write();
        let t = &mut ns.tally();
        craft_interrupted_displacement(&mut inner, 42, 4200, t);
        inner.recount();
        assert_eq!(inner.raw_duplicates(), vec![42]);
        let h = hash64(42);
        assert_eq!(inner.remove(h, 42, t), Some(4200));
        // The pre-repair bug, pinned: the stale copy answers lookups for a
        // key the caller just deleted.
        assert_eq!(
            inner.get(h, 42, t),
            Some(4200),
            "without the repair sweep the duplicate must resurrect (bug under test)"
        );
    }

    #[test]
    fn repair_sweep_keeps_exactly_one_copy_and_makes_removal_final() {
        let (ns, seg) = segment();
        let mut inner = seg.write();
        let t = &mut ns.tally();
        craft_interrupted_displacement(&mut inner, 42, 4200, t);
        let repaired = inner.repair_duplicates();
        assert_eq!(repaired, 1, "one stale copy cleared");
        assert!(inner.raw_duplicates().is_empty());
        inner.recount();
        assert_eq!(inner.count, 1);
        let h = hash64(42);
        assert_eq!(
            inner.get(h, 42, t),
            Some(4200),
            "the surviving copy still answers"
        );
        assert_eq!(inner.remove(h, 42, t), Some(4200));
        assert_eq!(inner.get(h, 42, t), None, "removal is final after repair");
        // The sweep's clears are fenced: a crash right after repair cannot
        // bring the duplicate back.
        inner.region.crash();
        assert!(inner.raw_duplicates().is_empty());
    }

    #[test]
    fn recover_rebuilds_counters_from_the_region() {
        let ns = Namespace::devdax(SocketId(0), 4 << 20);
        let seg = Segment::new(&ns, 3).unwrap();
        let t = &mut ns.tally();
        let region = {
            let mut inner = seg.write();
            for k in 0..40u64 {
                inner.insert(hash64(k), k, k * 7, t);
            }
            craft_interrupted_displacement(&mut inner, 999, 111, t);
            // Steal the region, as a post-crash remap would.
            std::mem::replace(&mut inner.region, ns.alloc_region(64).unwrap())
        };
        let (recovered, report) = SegmentInner::recover(region, 3, true);
        assert_eq!(report.duplicates_repaired, 1);
        assert_eq!(report.records, 41);
        assert_eq!(recovered.count, 41);
        assert_eq!(recovered.local_depth, 3);
        for k in 0..40u64 {
            assert_eq!(recovered.get(hash64(k), k, t), Some(k * 7));
        }
        assert_eq!(recovered.get(hash64(999), 999, t), Some(111));
    }

    #[test]
    fn stash_absorbs_bucket_overflow() {
        // Collect real keys that all hash to home bucket 5, overflowing the
        // bucket + neighbour pair so the stash must absorb the rest.
        let colliders: Vec<u64> = (0..2_000_000u64)
            .filter(|k| crate::hash::bucket_index(hash64(*k), BUCKETS) == 5)
            .take(3 * SLOTS)
            .collect();
        assert_eq!(colliders.len(), 3 * SLOTS);
        let (ns, seg) = segment();
        let mut inner = seg.write();
        let t = &mut ns.tally();
        for &k in &colliders {
            let r = inner.insert(hash64(k), k, k + 1, t);
            assert_eq!(r, SegmentInsert::Inserted, "stash should absorb key {k}");
        }
        for &k in &colliders {
            assert_eq!(inner.get(hash64(k), k, t), Some(k + 1));
        }
    }
}
