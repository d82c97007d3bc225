//! The fixed-frame DRAM buffer pool.
//!
//! A [`BufferPool`] owns a DRAM namespace carved into 4 KB frames — the
//! Optane DIMM interleave granularity, so one frame maps to one device
//! stripe unit. PMEM-resident pages are cached read-through: scans consult
//! the pool first and fall back to the source region on a miss, optionally
//! filling a frame so the next scan hits DRAM.
//!
//! Synchronization is optimistic lock coupling per frame (see
//! [`crate::frame`]): readers snapshot the frame's version word, copy the
//! payload, and validate; fills and evictions take the exclusive state and
//! bump the version. The payload itself lives in a tracked
//! [`Region`] behind a `parking_lot::RwLock` — Rust
//! cannot express the C++ racy-copy optimistic read, so the lock carries
//! the data race the version word resolves in the original protocol, while
//! the version word remains the source of truth for validity (a reader
//! whose validation fails discards the copy exactly as LeanStore would).
//!
//! Eviction is a clock with a second-chance bit encoded as the frame
//! state's `MARKED` value: the hand marks unlocked frames on first visit
//! and evicts still-marked ones on the second; any access in between
//! clears the mark. Admission is planned, not incidental: only objects
//! whose observed heat density earns DRAM residency (per
//! [`AdmissionPlan`]) are cached, everything
//! else bypasses the pool and streams from PMEM.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Mutex, RwLock};
use pmem_store::{AccessHint, Namespace, Region, Result, TrackerSnapshot};

use crate::frame::FrameState;
use crate::heat::{AdmissionPlan, HeatObject};
use pmem_sim::topology::SocketId;

/// Frame size: the 4 KB DIMM interleave granularity.
pub const FRAME_BYTES: u64 = 4096;

/// Identity of one cached page: an object (column, partition, index) and a
/// 4 KB-aligned page number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// Caller-assigned object id.
    pub object: u64,
    /// Page number within the object (`byte_offset / FRAME_BYTES`).
    pub page: u64,
}

#[derive(Debug)]
struct Frame {
    state: FrameState,
    /// Current key, valid while the frame is not evicted. Written only
    /// under the exclusive state; read optimistically with re-validation.
    obj: AtomicU64,
    page: AtomicU64,
    /// Valid payload bytes (<= FRAME_BYTES; tail pages are short).
    len: AtomicU64,
    /// 4 KB DRAM region holding the payload. The RwLock makes the copy
    /// race-free; the OLC word decides whether the copy was valid.
    data: RwLock<Region>,
}

#[derive(Debug, Default)]
struct StatCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    hit_bytes: AtomicU64,
    miss_bytes: AtomicU64,
    bypass_bytes: AtomicU64,
    fills: AtomicU64,
    evictions: AtomicU64,
    optimistic_retries: AtomicU64,
}

/// Point-in-time view of pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from DRAM frames.
    pub hits: u64,
    /// Page requests that went to the PMEM source (admitted objects).
    pub misses: u64,
    /// Bytes served from DRAM.
    pub hit_bytes: u64,
    /// Bytes read from PMEM on misses of admitted objects.
    pub miss_bytes: u64,
    /// Bytes read from PMEM for objects the admission plan excluded.
    pub bypass_bytes: u64,
    /// Frames filled.
    pub fills: u64,
    /// Frames evicted (clock replacement, pressure shrink, de-admission).
    pub evictions: u64,
    /// Optimistic reads that failed validation and retried or fell back.
    pub optimistic_retries: u64,
}

impl BufferStats {
    /// Byte-weighted hit rate over admitted traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0 {
            0.0
        } else {
            self.hit_bytes as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct HeatEntry {
    object_bytes: u64,
    heat_bytes: f64,
}

/// A DRAM hot-tier page cache over PMEM-resident data.
#[derive(Debug)]
pub struct BufferPool {
    ns: Namespace,
    frames: Vec<Frame>,
    /// Page → frame index. Also serializes fills, evictions, and occupancy
    /// accounting; the read hot path touches it once per lookup.
    map: Mutex<HashMap<PageKey, usize>>,
    hand: AtomicUsize,
    occupied: AtomicUsize,
    configured_budget: u64,
    /// Effective budget in bytes (shrinks under memory pressure).
    effective_budget: AtomicU64,
    heat: Mutex<HashMap<u64, HeatEntry>>,
    admitted: RwLock<AdmissionPlan>,
    stats: StatCounters,
}

impl BufferPool {
    /// Build a pool of `budget_bytes / 4 KB` DRAM frames on `socket`.
    pub fn new(socket: SocketId, budget_bytes: u64) -> Result<Self> {
        let frame_count = (budget_bytes / FRAME_BYTES).max(1) as usize;
        // Slack for allocator metadata rounding.
        let ns = Namespace::dram(socket, frame_count as u64 * FRAME_BYTES + (1 << 20));
        let mut frames = Vec::with_capacity(frame_count);
        for _ in 0..frame_count {
            frames.push(Frame {
                state: FrameState::new(),
                obj: AtomicU64::new(0),
                page: AtomicU64::new(0),
                len: AtomicU64::new(0),
                data: RwLock::new(ns.alloc_region(FRAME_BYTES)?),
            });
        }
        Ok(Self {
            ns,
            frames,
            map: Mutex::new(HashMap::with_capacity(frame_count)),
            hand: AtomicUsize::new(0),
            occupied: AtomicUsize::new(0),
            configured_budget: frame_count as u64 * FRAME_BYTES,
            effective_budget: AtomicU64::new(frame_count as u64 * FRAME_BYTES),
            heat: Mutex::new(HashMap::new()),
            admitted: RwLock::new(AdmissionPlan::default()),
            stats: StatCounters::default(),
        })
    }

    /// Total frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Configured DRAM budget in bytes.
    pub fn budget(&self) -> u64 {
        self.configured_budget
    }

    /// Budget currently in force (after pressure shrink).
    pub fn effective_budget(&self) -> u64 {
        self.effective_budget.load(Ordering::Relaxed)
    }

    /// Frames currently holding a page.
    pub fn occupied(&self) -> usize {
        self.occupied.load(Ordering::Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            hit_bytes: self.stats.hit_bytes.load(Ordering::Relaxed),
            miss_bytes: self.stats.miss_bytes.load(Ordering::Relaxed),
            bypass_bytes: self.stats.bypass_bytes.load(Ordering::Relaxed),
            fills: self.stats.fills.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            optimistic_retries: self.stats.optimistic_retries.load(Ordering::Relaxed),
        }
    }

    /// DRAM traffic the pool generated (frame fills and hit reads), from
    /// the namespace tracker — priced by the simulator's DRAM lane.
    pub fn dram_traffic(&self) -> TrackerSnapshot {
        self.ns.tracker().snapshot()
    }

    /// Record observed read traffic against an object. Heat accumulates
    /// until [`BufferPool::replan`] turns it into an admission decision.
    pub fn observe(&self, object: u64, object_bytes: u64, read_bytes: u64) {
        let mut heat = self.heat.lock();
        let e = heat.entry(object).or_default();
        e.object_bytes = e.object_bytes.max(object_bytes);
        e.heat_bytes += read_bytes as f64;
    }

    /// Re-run admission over the accumulated heat profile under the
    /// effective budget, then evict frames of objects that lost residency.
    /// Returns the new plan.
    pub fn replan(&self) -> AdmissionPlan {
        let objects: Vec<HeatObject> = {
            let heat = self.heat.lock();
            let mut v: Vec<HeatObject> = heat
                .iter()
                .map(|(&id, e)| HeatObject {
                    id,
                    bytes: e.object_bytes,
                    heat_bytes: e.heat_bytes,
                })
                .collect();
            // HashMap order is not deterministic; fix it before the
            // stable sort inside the planner.
            v.sort_by_key(|o| o.id);
            v
        };
        let plan = AdmissionPlan::plan(&objects, self.effective_budget());
        *self.admitted.write() = plan.clone();
        self.evict_where(|obj| !plan.is_admitted(obj));
        plan
    }

    /// Is the object currently admitted to the hot tier?
    pub fn is_admitted(&self, object: u64) -> bool {
        self.admitted.read().is_admitted(object)
    }

    /// Brownout hook: scale the effective budget to `configured × scale`
    /// and shrink occupancy to fit. `scale` is clamped to `[0, 1]`;
    /// restoring pressure to 1.0 re-opens the full tier (re-admission
    /// happens on the next [`BufferPool::replan`]).
    pub fn set_pressure(&self, scale: f64) {
        let scale = scale.clamp(0.0, 1.0);
        let effective = ((self.configured_budget as f64 * scale) / FRAME_BYTES as f64).floor()
            as u64
            * FRAME_BYTES;
        self.effective_budget.store(effective, Ordering::Relaxed);
        let cap = (effective / FRAME_BYTES) as usize;
        let mut map = self.map.lock();
        let n = self.frames.len();
        let mut attempts = 0;
        while self.occupied.load(Ordering::Relaxed) > cap && attempts < 2 * n {
            attempts += 1;
            let idx = self.hand.fetch_add(1, Ordering::Relaxed) % n;
            let f = &self.frames[idx];
            if f.state.is_evicted() || !f.state.try_lock_x() {
                continue;
            }
            self.evict_locked(&mut map, idx);
        }
    }

    /// Read `len` bytes of `key`'s page (starting at `src_offset` in the
    /// PMEM source region) into `out`. Returns `true` on a DRAM hit. On a
    /// miss the source is read and, if the object is admitted, the page is
    /// filled into a frame for future hits.
    pub fn read_through(
        &self,
        key: PageKey,
        src: &Region,
        src_offset: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> Result<bool> {
        debug_assert!(len <= FRAME_BYTES);
        if len == 0 {
            return Ok(false);
        }
        if !self.is_admitted(key.object) {
            out.extend_from_slice(src.try_read(src_offset, len, AccessHint::Sequential)?);
            self.stats.bypass_bytes.fetch_add(len, Ordering::Relaxed);
            return Ok(false);
        }
        if self.try_hit(key, len, out)? {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            self.stats.hit_bytes.fetch_add(len, Ordering::Relaxed);
            return Ok(true);
        }
        // Miss: stream from PMEM, then fill a frame.
        let start = out.len();
        out.extend_from_slice(src.try_read(src_offset, len, AccessHint::Sequential)?);
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.stats.miss_bytes.fetch_add(len, Ordering::Relaxed);
        self.fill(key, &out[start..]);
        Ok(false)
    }

    /// Attempt to serve `key` from a frame. `Ok(false)` means miss (or an
    /// unwinnable race — treated as a miss rather than spinning forever).
    fn try_hit(&self, key: PageKey, len: u64, out: &mut Vec<u8>) -> Result<bool> {
        const OPTIMISTIC_ATTEMPTS: usize = 3;
        for attempt in 0..=OPTIMISTIC_ATTEMPTS {
            let idx = match self.map.lock().get(&key) {
                Some(&idx) => idx,
                None => return Ok(false),
            };
            let f = &self.frames[idx];
            if attempt < OPTIMISTIC_ATTEMPTS {
                // Optimistic: copy without any lock on the OLC word, then
                // validate the version.
                let Some(pre) = f.state.optimistic_pre() else {
                    self.stats
                        .optimistic_retries
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                if !self.frame_key_is(f, key) || f.len.load(Ordering::Acquire) < len {
                    self.stats
                        .optimistic_retries
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let copied = {
                    let Some(guard) = f.data.try_read() else {
                        self.stats
                            .optimistic_retries
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    guard.try_read(0, len, AccessHint::Sequential)?.to_vec()
                };
                if f.state.optimistic_validate(pre) && self.frame_key_is(f, key) {
                    out.extend_from_slice(&copied);
                    f.state.clear_mark(); // second chance: the access un-marks
                    return Ok(true);
                }
                self.stats
                    .optimistic_retries
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                // Pessimistic fallback: a shared lock on the OLC word keeps
                // writers out while we copy.
                let mut spins = 0;
                while !f.state.try_lock_s() {
                    spins += 1;
                    if spins > 10_000 {
                        return Ok(false);
                    }
                    std::hint::spin_loop();
                }
                let result = (|| -> Result<bool> {
                    if !self.frame_key_is(f, key) || f.len.load(Ordering::Acquire) < len {
                        return Ok(false); // frame was recycled for another page
                    }
                    let guard = f.data.read();
                    out.extend_from_slice(guard.try_read(0, len, AccessHint::Sequential)?);
                    Ok(true)
                })();
                f.state.unlock_s();
                return result;
            }
        }
        Ok(false)
    }

    fn frame_key_is(&self, f: &Frame, key: PageKey) -> bool {
        f.obj.load(Ordering::Acquire) == key.object && f.page.load(Ordering::Acquire) == key.page
    }

    /// Fill `key`'s page into a frame chosen by the clock. Silently skips
    /// when no victim is available or the key raced in already.
    fn fill(&self, key: PageKey, bytes: &[u8]) {
        if bytes.len() as u64 > FRAME_BYTES {
            return;
        }
        let cap = (self.effective_budget() / FRAME_BYTES) as usize;
        if cap == 0 {
            return;
        }
        let mut map = self.map.lock();
        if map.contains_key(&key) {
            return; // another thread filled it during our miss
        }
        let n = self.frames.len();
        let mut victim = None;
        for _ in 0..2 * n + 1 {
            let idx = self.hand.fetch_add(1, Ordering::Relaxed) % n;
            let f = &self.frames[idx];
            if f.state.is_evicted() {
                // Empty frame: only usable if occupancy may still grow.
                if self.occupied.load(Ordering::Relaxed) < cap && f.state.try_lock_x() {
                    victim = Some(idx);
                    break;
                }
                continue;
            }
            // Second chance: mark on first visit, evict if still marked.
            if f.state.try_mark() {
                continue;
            }
            if f.state.is_marked() && f.state.try_lock_x() {
                victim = Some(idx);
                break;
            }
        }
        let Some(idx) = victim else { return };
        let f = &self.frames[idx];
        // Take the payload lock *before* publishing the new key so a
        // pessimistic reader never pairs the new key with the old bytes.
        let mut guard = f.data.write();
        if f.len.load(Ordering::Relaxed) > 0 || !f.state.is_evicted() {
            // Evict the previous tenant (if the frame held one).
            let old = PageKey {
                object: f.obj.load(Ordering::Relaxed),
                page: f.page.load(Ordering::Relaxed),
            };
            if map.get(&old) == Some(&idx) {
                map.remove(&old);
                self.occupied.fetch_sub(1, Ordering::Relaxed);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, idx);
        self.occupied.fetch_add(1, Ordering::Relaxed);
        f.obj.store(key.object, Ordering::Release);
        f.page.store(key.page, Ordering::Release);
        f.len.store(bytes.len() as u64, Ordering::Release);
        drop(map);
        let fill_ok = guard.try_write(0, bytes, AccessHint::Sequential).is_ok();
        drop(guard);
        f.state.unlock_x(); // version bump invalidates racing readers
        if fill_ok {
            self.stats.fills.fetch_add(1, Ordering::Relaxed);
        } else {
            // Defensive: a failed DRAM write leaves the frame unusable for
            // this key; drop the mapping again.
            let mut map = self.map.lock();
            if map.get(&key) == Some(&idx) {
                map.remove(&key);
                self.occupied.fetch_sub(1, Ordering::Relaxed);
            }
            if f.state.try_lock_x() {
                f.len.store(0, Ordering::Release);
                f.state.unlock_x_evicted();
            }
        }
    }

    /// Evict all frames whose object satisfies `pred`.
    fn evict_where<P: Fn(u64) -> bool>(&self, pred: P) {
        let mut map = self.map.lock();
        for idx in 0..self.frames.len() {
            let f = &self.frames[idx];
            if f.state.is_evicted() {
                continue;
            }
            if !pred(f.obj.load(Ordering::Relaxed)) {
                continue;
            }
            if !f.state.try_lock_x() {
                continue; // busy frame: the next replan sweep gets it
            }
            self.evict_locked(&mut map, idx);
        }
    }

    /// Drop frame `idx` (exclusive state already held) and release it
    /// empty. Requires the map lock.
    fn evict_locked(&self, map: &mut HashMap<PageKey, usize>, idx: usize) {
        let f = &self.frames[idx];
        let old = PageKey {
            object: f.obj.load(Ordering::Relaxed),
            page: f.page.load(Ordering::Relaxed),
        };
        if map.get(&old) == Some(&idx) {
            map.remove(&old);
            self.occupied.fetch_sub(1, Ordering::Relaxed);
        }
        f.len.store(0, Ordering::Release);
        f.state.unlock_x_evicted();
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use pmem_store::AccessHint;

    fn pmem_region(bytes: &[u8]) -> Region {
        let ns = Namespace::devdax(SocketId(0), bytes.len() as u64 + (1 << 20));
        let mut r = ns.alloc_region(bytes.len() as u64).unwrap();
        r.try_ntstore(0, bytes, AccessHint::Sequential).unwrap();
        r.sfence();
        r
    }

    fn patterned(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ salt)
            .collect()
    }

    #[test]
    fn admitted_object_hits_on_second_read() {
        let data = patterned(4 * FRAME_BYTES as usize, 7);
        let src = pmem_region(&data);
        let pool = BufferPool::new(SocketId(0), 8 * FRAME_BYTES).unwrap();
        pool.observe(0, data.len() as u64, data.len() as u64);
        pool.replan();
        assert!(pool.is_admitted(0));
        let key = PageKey { object: 0, page: 1 };
        let mut out = Vec::new();
        assert!(!pool
            .read_through(key, &src, FRAME_BYTES, FRAME_BYTES, &mut out)
            .unwrap());
        let mut out2 = Vec::new();
        assert!(pool
            .read_through(key, &src, FRAME_BYTES, FRAME_BYTES, &mut out2)
            .unwrap());
        assert_eq!(out, out2);
        assert_eq!(out, data[FRAME_BYTES as usize..2 * FRAME_BYTES as usize]);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!(pool.dram_traffic().write_bytes() >= FRAME_BYTES);
    }

    #[test]
    fn cold_objects_bypass_the_pool() {
        let data = patterned(FRAME_BYTES as usize, 3);
        let src = pmem_region(&data);
        let pool = BufferPool::new(SocketId(0), 8 * FRAME_BYTES).unwrap();
        // No heat observed, no replan: nothing is admitted.
        let key = PageKey { object: 5, page: 0 };
        let mut out = Vec::new();
        assert!(!pool
            .read_through(key, &src, 0, FRAME_BYTES, &mut out)
            .unwrap());
        assert!(!pool
            .read_through(key, &src, 0, FRAME_BYTES, &mut out)
            .unwrap());
        let s = pool.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.bypass_bytes, 2 * FRAME_BYTES);
        assert_eq!(pool.occupied(), 0);
    }

    #[test]
    fn clock_evicts_under_capacity_pressure() {
        let pages = 8u64;
        let data = patterned((pages * FRAME_BYTES) as usize, 11);
        let src = pmem_region(&data);
        let pool = BufferPool::new(SocketId(0), 2 * FRAME_BYTES).unwrap();
        pool.observe(0, 2 * FRAME_BYTES, 100 * FRAME_BYTES);
        pool.replan();
        // Note: object bytes must fit the budget to be admitted; report a
        // hot 2-page object then touch 8 pages so the clock must recycle.
        for round in 0..3 {
            for p in 0..pages {
                let mut out = Vec::new();
                pool.read_through(
                    PageKey { object: 0, page: p },
                    &src,
                    p * FRAME_BYTES,
                    FRAME_BYTES,
                    &mut out,
                )
                .unwrap();
                assert_eq!(
                    out,
                    data[(p * FRAME_BYTES) as usize..((p + 1) * FRAME_BYTES) as usize],
                    "round {round} page {p}"
                );
            }
        }
        assert!(pool.occupied() <= 2);
        assert!(pool.stats().evictions > 0);
    }

    #[test]
    fn pressure_shrinks_then_recovers() {
        let data = patterned(8 * FRAME_BYTES as usize, 5);
        let src = pmem_region(&data);
        let pool = BufferPool::new(SocketId(0), 8 * FRAME_BYTES).unwrap();
        pool.observe(0, data.len() as u64, data.len() as u64);
        pool.replan();
        for p in 0..8 {
            let mut out = Vec::new();
            pool.read_through(
                PageKey { object: 0, page: p },
                &src,
                p * FRAME_BYTES,
                FRAME_BYTES,
                &mut out,
            )
            .unwrap();
        }
        assert_eq!(pool.occupied(), 8);
        pool.set_pressure(0.5);
        assert!(pool.occupied() <= 4, "occupied {}", pool.occupied());
        assert_eq!(pool.effective_budget(), 4 * FRAME_BYTES);
        pool.set_pressure(1.0);
        assert_eq!(pool.effective_budget(), 8 * FRAME_BYTES);
        // Reads still correct after shrink/recover churn.
        let mut out = Vec::new();
        pool.read_through(
            PageKey { object: 0, page: 3 },
            &src,
            3 * FRAME_BYTES,
            FRAME_BYTES,
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out,
            data[3 * FRAME_BYTES as usize..4 * FRAME_BYTES as usize]
        );
    }

    #[test]
    fn replan_evicts_deadmitted_objects() {
        let data = patterned(2 * FRAME_BYTES as usize, 9);
        let src = pmem_region(&data);
        let pool = BufferPool::new(SocketId(0), 2 * FRAME_BYTES).unwrap();
        pool.observe(0, 2 * FRAME_BYTES, 10 * FRAME_BYTES);
        pool.replan();
        let mut out = Vec::new();
        pool.read_through(
            PageKey { object: 0, page: 0 },
            &src,
            0,
            FRAME_BYTES,
            &mut out,
        )
        .unwrap();
        assert_eq!(pool.occupied(), 1);
        // A hotter object arrives and takes the whole budget.
        pool.observe(1, 2 * FRAME_BYTES, 1000 * FRAME_BYTES);
        pool.replan();
        assert!(!pool.is_admitted(0));
        assert!(pool.is_admitted(1));
        assert_eq!(pool.occupied(), 0, "old object's frames evicted");
    }

    #[test]
    fn concurrent_readers_and_churn_see_untorn_pages() {
        use std::sync::Arc;
        let pages = 16u64;
        let data: Vec<u8> = (0..pages)
            .flat_map(|p| vec![p as u8; FRAME_BYTES as usize])
            .collect();
        let src = Arc::new(pmem_region(&data));
        let pool = Arc::new(BufferPool::new(SocketId(0), 4 * FRAME_BYTES).unwrap());
        pool.observe(0, 4 * FRAME_BYTES, 1000 * FRAME_BYTES);
        pool.replan();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            let src = Arc::clone(&src);
            handles.push(std::thread::spawn(move || {
                let mut seed = crate::zipf::splitmix64(t + 1);
                for _ in 0..400 {
                    seed = crate::zipf::splitmix64(seed);
                    let p = seed % pages;
                    let mut out = Vec::new();
                    pool.read_through(
                        PageKey { object: 0, page: p },
                        &src,
                        p * FRAME_BYTES,
                        FRAME_BYTES,
                        &mut out,
                    )
                    .unwrap();
                    // A torn frame would mix fill bytes of two pages.
                    assert!(out.iter().all(|&b| b == p as u8), "torn page {p}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.stats().hits > 0);
    }
}
