//! Byte-addressable regions with Optane persistence semantics.
//!
//! A [`Region`] owns real bytes (so data structures built on it can be
//! tested functionally) and enforces the persistence rules of the paper's
//! kernels:
//!
//! * a regular `write` lands in the CPU cache — **volatile** until flushed,
//! * `clwb` moves dirty cache lines towards the iMC write-pending queue,
//! * `ntstore` bypasses the cache straight to the WPQ path,
//! * `sfence` orders/drains: everything previously `ntstore`d or `clwb`ed
//!   is then *accepted into the WPQ* and therefore persistent (ADR domain),
//! * [`Region::crash`] simulates a power loss: every line not yet accepted
//!   into the WPQ reverts to its last persisted image.
//!
//! Every access is tallied into the namespace's
//! [`crate::tracker::AccessTracker`] so simulated device time
//! can be derived, and fsdax regions charge first-touch page faults
//! (the §2.3 devdax-vs-fsdax effect). The `*_tallied` methods count into
//! a worker's [`Tally`] of that tracker instead; they run the same body as
//! their untallied twins, which count each access into the tracker.
//!
//! The bookkeeping around each access costs O(1) amortized and takes no
//! shared lock (DESIGN.md, "Store hot path"): dirty, pending and poisoned
//! lines are bitsets updated a 64-bit word at a time, `sfence` visits only
//! the words made pending since the previous fence, the fsdax fault state
//! is an atomic page bitmap, and the persistence-trace hook takes its
//! mutex only while a trace is attached.
//!
//! A region's host memory is one buffer of its bytes, plus the saved
//! persisted images of the lines a store took out of the clean state
//! (see [`Region`]); the fence copies nothing. A region returns its
//! length to its namespace's budget when it drops. A region of at least
//! [`POOL_MIN_BYTES`](crate::namespace::POOL_MIN_BYTES) also hands its
//! bytes' buffer back to its namespace's pool, and the namespace builds
//! later regions in it, zero-filled, so a recycled region's pages are
//! already faulted in on the host.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::lineset::{word_masks, LineSet};
use crate::namespace::NamespaceInner;
use crate::trace::{PersistEvent, PersistenceTrace};
use crate::tracker::{AccessTracker, OneAccess, Sink, Tally};
use crate::{Result, StoreError};

/// CPU cache-line size: the granularity of dirtiness and flushing.
pub const CACHE_LINE: u64 = 64;

/// Optane media granularity: one 256 B XPLine. Uncorrectable media errors
/// poison whole XPLines, so poison tracking and repair work at this
/// granularity (4 CPU cache lines per XPLine).
pub const XPLINE: u64 = 256;

/// Whether an access should be accounted as part of a sequential stream or
/// as random. [`AccessHint::Auto`] infers it from the previous access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessHint {
    /// Part of a sequential scan.
    Sequential,
    /// Random access (probe, point lookup).
    Random,
    /// Infer: sequential iff this access starts where the last one ended.
    Auto,
}

/// fsdax page-fault state (2 MB pages by default, §2.3): one bit per page
/// of the region, set by the first access that touches the page.
#[derive(Debug)]
pub(crate) struct FaultModel {
    page_bytes: u64,
    /// Touched pages. Relaxed throughout: a bit publishes no other data,
    /// and `fetch_or` is a read-modify-write, so exactly one thread sees
    /// a given bit go from 0 to 1 and counts that fault.
    touched: Box<[AtomicU64]>,
}

impl FaultModel {
    /// Fault state for a region of `region_len` bytes. It covers every page
    /// an in-bounds access can name — also the page a zero-length access
    /// at `offset == region_len` names, which faults like any other.
    pub(crate) fn new(page_bytes: u64, region_len: u64) -> Self {
        let pages = region_len / page_bytes + 1;
        FaultModel {
            page_bytes,
            touched: (0..pages.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Touch the pages covering `len` bytes at `offset`; returns how many
    /// of them were touched for the first time. A page already touched
    /// costs one relaxed load.
    fn touch(&self, offset: u64, len: u64) -> u64 {
        let first = offset / self.page_bytes;
        let last = (offset + len.max(1) - 1) / self.page_bytes;
        let mut fresh = 0;
        for (w, mask) in word_masks(first, last) {
            let word = &self.touched[w];
            if word.load(Ordering::Relaxed) & mask == mask {
                continue;
            }
            fresh += u64::from((mask & !word.fetch_or(mask, Ordering::Relaxed)).count_ones());
        }
        fresh
    }
}

/// An optional sink accesses report into (the persistence trace). The
/// `attached` flag lets an access with no sink attached skip the mutex.
#[derive(Debug)]
struct Hook<T> {
    /// Mirrors `sink.is_some()`. Stored with `Release` under the `sink`
    /// lock and loaded with `Acquire` before taking it: an access that
    /// sees `true` also sees everything done before the attach. The lock
    /// still decides which sink, if any, an event goes to.
    attached: AtomicBool,
    sink: Mutex<Option<Arc<T>>>,
}

impl<T> Hook<T> {
    fn new() -> Self {
        Hook {
            attached: AtomicBool::new(false),
            sink: Mutex::new(None),
        }
    }

    fn set(&self, sink: Option<Arc<T>>) {
        let mut slot = self.sink.lock();
        self.attached.store(sink.is_some(), Ordering::Release);
        *slot = sink;
    }

    #[inline]
    fn with(&self, f: impl FnOnce(&T)) {
        if !self.attached.load(Ordering::Acquire) {
            return;
        }
        if let Some(sink) = self.sink.lock().as_ref() {
            f(sink);
        }
    }
}

/// The bytes of the cache lines `start..end` of a region of `len` bytes
/// (its tail line may be short).
fn line_bytes(start: u64, end: u64, len: usize) -> Range<usize> {
    (start * CACHE_LINE) as usize..((end * CACHE_LINE) as usize).min(len)
}

/// A byte-addressable allocation on a (simulated) memory device. A region
/// of a namespace holds its length of the namespace's budget until it
/// drops.
///
/// Persistence state is one bit per 64 B cache line and poison one bit
/// per 256 B XPLine, in bitsets sized to the region: lines past the end
/// are never dirty, pending or poisoned, and a line is never both dirty
/// and pending. With no trace attached an access takes no lock. Its page
/// faults and tracker counts are atomic, and exact once every [`Tally`]
/// has dropped and the accessing threads are joined.
///
/// A line that is neither dirty nor pending holds its persisted image: a
/// fenced line is durable (ADR), so the fence copies nothing. A store
/// first saves the persisted image of each clean line it takes out of
/// that state, and a crash reverts each dirty or pending line to its
/// saved image. Until a fence drains some line or poison scrambles one,
/// every persisted image is zeros and a store saves nothing: a region
/// that is loaded with ntstores and one fence, or that only takes cached
/// writes, never allocates the pre-image buffer.
#[derive(Debug)]
pub struct Region {
    data: Vec<u8>,
    /// Whether some line may have persisted other bytes than zeros: set
    /// by the first fence that drains a line and by poison.
    persisted_any: bool,
    /// The persisted image of each dirty or pending line, at the line's
    /// offset: saved by the store that took the line out of the clean
    /// state (once `persisted_any` was set), or written by poison. A line
    /// dirtied before `persisted_any` was set persisted zeros and still
    /// reads zeros here; clean lines hold stale bytes. Empty until its
    /// first save, then the region's length, zero-filled, so its untouched
    /// pages cost no host memory; while it is empty every dirty or pending
    /// line persisted zeros.
    preimages: Vec<u8>,
    /// Lines written through the cache and not yet flushed.
    dirty: LineSet,
    /// Lines on their way to the WPQ (ntstore / clwb), not yet fenced.
    pending: LineSet,
    /// XPLine indices with uncorrectable media errors. Checked reads of a
    /// poisoned line fail with [`StoreError::Poisoned`]; a write covering
    /// the whole XPLine clears the poison (the device remaps the line).
    poisoned: LineSet,
    tracker: Arc<AccessTracker>,
    /// False for DRAM or Memory-Mode regions: nothing survives a crash.
    persistent: bool,
    fault_model: Option<FaultModel>,
    last_read_end: AtomicU64,
    last_write_end: AtomicU64,
    /// Optional persistence-event sink for crash-state model checking
    /// (see [`crate::trace`]).
    persist_trace: Hook<PersistenceTrace>,
    /// The namespace that allocated this region, which takes its bytes
    /// and its image back when the region drops (if the namespace still
    /// exists).
    ns: Weak<NamespaceInner>,
}

impl Region {
    /// A region over `data`, which must be zeros: every line clean and
    /// persisted, no poison, no page touched and no trace attached.
    pub(crate) fn from_zeros(
        data: Vec<u8>,
        tracker: Arc<AccessTracker>,
        persistent: bool,
        fault_model: Option<FaultModel>,
        ns: Weak<NamespaceInner>,
    ) -> Self {
        let len = data.len() as u64;
        Region {
            data,
            persisted_any: false,
            preimages: Vec::new(),
            dirty: LineSet::new(len.div_ceil(CACHE_LINE)),
            pending: LineSet::new(len.div_ceil(CACHE_LINE)),
            poisoned: LineSet::new(len.div_ceil(XPLINE)),
            tracker,
            persistent,
            fault_model,
            last_read_end: AtomicU64::new(u64::MAX),
            last_write_end: AtomicU64::new(u64::MAX),
            persist_trace: Hook::new(),
            ns,
        }
    }

    /// A zeroed region of `len` bytes that belongs to no namespace.
    #[cfg(test)]
    pub(crate) fn new(
        len: u64,
        tracker: Arc<AccessTracker>,
        persistent: bool,
        fault_model: Option<FaultModel>,
    ) -> Self {
        let data = vec![0; len as usize];
        Self::from_zeros(data, tracker, persistent, fault_model, Weak::new())
    }

    /// Whether the region has allocated its pre-image buffer.
    #[cfg(test)]
    pub(crate) fn has_preimages(&self) -> bool {
        !self.preimages.is_empty()
    }

    /// Attach a persistence trace: subsequent stores, `clwb`s, and
    /// `sfence`s are recorded in order for crash-state model checking.
    pub fn attach_persist_trace(&self, trace: Arc<PersistenceTrace>) {
        self.persist_trace.set(Some(trace));
    }

    /// Stop recording persistence events.
    pub fn detach_persist_trace(&self) {
        self.persist_trace.set(None);
    }

    #[inline]
    fn record_persist(&self, event: impl FnOnce() -> PersistEvent) {
        self.persist_trace.with(|trace| trace.record(event()));
    }

    /// Capacity in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// True if the region holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether this region guarantees persistence (App Direct).
    pub fn is_persistent(&self) -> bool {
        self.persistent
    }

    /// The tracker this region reports into.
    pub fn tracker(&self) -> &Arc<AccessTracker> {
        &self.tracker
    }

    fn check(&self, offset: u64, len: u64) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            return Err(StoreError::OutOfBounds {
                offset,
                len,
                capacity: self.len(),
            });
        }
        Ok(())
    }

    fn fault_pages(&self, offset: u64, len: u64, sink: &mut impl Sink) {
        if let Some(fm) = &self.fault_model {
            let fresh = fm.touch(offset, len);
            if fresh > 0 {
                sink.page_faults(&self.tracker, fresh);
            }
        }
    }

    /// Pre-fault the whole region (the §2.3 experiment that equalizes fsdax
    /// and devdax). Counts the faults now instead of during the measured
    /// access — call `tracker().reset()` afterwards to exclude them.
    pub fn prefault(&self) {
        self.fault_pages(0, self.len(), &mut OneAccess);
    }

    fn infer_read(&self, offset: u64, len: u64, hint: AccessHint) -> bool {
        match hint {
            AccessHint::Sequential => true,
            AccessHint::Random => false,
            AccessHint::Auto => {
                let prev = self.last_read_end.swap(offset + len, Ordering::Relaxed);
                prev == offset
            }
        }
    }

    fn infer_write(&self, offset: u64, len: u64, hint: AccessHint) -> bool {
        match hint {
            AccessHint::Sequential => true,
            AccessHint::Random => false,
            AccessHint::Auto => {
                let prev = self.last_write_end.swap(offset + len, Ordering::Relaxed);
                prev == offset
            }
        }
    }

    /// Account and return the bytes without a poison check — the raw load.
    #[inline]
    fn read_accounted(
        &self,
        offset: u64,
        len: u64,
        hint: AccessHint,
        sink: &mut impl Sink,
    ) -> &[u8] {
        self.fault_pages(offset, len, sink);
        let sequential = self.infer_read(offset, len, hint);
        sink.read(&self.tracker, len, sequential);
        &self.data[offset as usize..(offset + len) as usize]
    }

    /// Read `len` bytes at `offset`. Panics on out-of-bounds (see
    /// [`Region::try_read`] for the fallible variant).
    ///
    /// On real Optane hardware a load that consumes a poisoned XPLine raises
    /// a machine-check exception. Under `cfg(test)` / the `testing` feature
    /// this models that as a panic so unprotected reads of poisoned data
    /// cannot hide; otherwise the load returns the scrambled media content —
    /// exactly the silent corruption the scrubber exists to prevent. Use
    /// [`Region::try_read`] to surface poison as a typed error instead.
    pub fn read(&self, offset: u64, len: u64, hint: AccessHint) -> &[u8] {
        self.read_with(offset, len, hint, &mut OneAccess)
    }

    /// [`Region::read`], counted into `tally`.
    #[inline]
    pub fn read_tallied(
        &self,
        offset: u64,
        len: u64,
        hint: AccessHint,
        tally: &mut Tally<'_>,
    ) -> &[u8] {
        self.read_with(offset, len, hint, tally.of(&self.tracker))
    }

    #[inline]
    fn read_with(&self, offset: u64, len: u64, hint: AccessHint, sink: &mut impl Sink) -> &[u8] {
        if let Err(e) = self.check(offset, len) {
            panic!("region read out of bounds: {e}");
        }
        if let Some(line) = self.first_poisoned(offset, len) {
            #[cfg(any(test, feature = "testing"))]
            panic!(
                "machine check: load consumed poisoned XPLine at byte {}",
                line * XPLINE
            );
            #[cfg(not(any(test, feature = "testing")))]
            let _ = line;
        }
        self.read_accounted(offset, len, hint, sink)
    }

    /// Fallible [`Region::read`]: out-of-bounds accesses return
    /// [`StoreError::OutOfBounds`] and accesses intersecting a poisoned
    /// XPLine return [`StoreError::Poisoned`] instead of bytes.
    pub fn try_read(&self, offset: u64, len: u64, hint: AccessHint) -> Result<&[u8]> {
        self.try_read_with(offset, len, hint, &mut OneAccess)
    }

    /// [`Region::try_read`], counted into `tally`.
    #[inline]
    pub fn try_read_tallied(
        &self,
        offset: u64,
        len: u64,
        hint: AccessHint,
        tally: &mut Tally<'_>,
    ) -> Result<&[u8]> {
        self.try_read_with(offset, len, hint, tally.of(&self.tracker))
    }

    #[inline]
    fn try_read_with(
        &self,
        offset: u64,
        len: u64,
        hint: AccessHint,
        sink: &mut impl Sink,
    ) -> Result<&[u8]> {
        self.check(offset, len)?;
        if let Some(line) = self.first_poisoned(offset, len) {
            return Err(self.poison_error(line));
        }
        Ok(self.read_accounted(offset, len, hint, sink))
    }

    /// Read a little-endian `u64` (random-access accounted unless hinted).
    /// Panics on out-of-bounds; see [`Region::try_read_u64`].
    pub fn read_u64(&self, offset: u64, hint: AccessHint) -> u64 {
        let bytes = self.read(offset, 8, hint);
        u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }

    /// Read a little-endian `u32`. Panics on out-of-bounds; see
    /// [`Region::try_read_u32`].
    pub fn read_u32(&self, offset: u64, hint: AccessHint) -> u32 {
        let bytes = self.read(offset, 4, hint);
        u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
    }

    /// Checked [`Region::read_u64`]: returns an error (never panics) on
    /// out-of-range offsets — including `offset + 8` overflow — or poison.
    pub fn try_read_u64(&self, offset: u64, hint: AccessHint) -> Result<u64> {
        let bytes = self.try_read(offset, 8, hint)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Checked [`Region::read_u32`]: returns an error (never panics) on
    /// out-of-range offsets or poison.
    pub fn try_read_u32(&self, offset: u64, hint: AccessHint) -> Result<u32> {
        let bytes = self.try_read(offset, 4, hint)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Access the raw bytes without accounting (test/debug aid; not part of
    /// the modeled workload).
    pub fn untracked_slice(&self) -> &[u8] {
        &self.data
    }

    /// The first poisoned XPLine index the range intersects, if any.
    /// Callers must bounds-check first (`offset + len` must not overflow).
    fn first_poisoned(&self, offset: u64, len: u64) -> Option<u64> {
        if self.poisoned.is_empty() || len == 0 {
            return None;
        }
        self.poisoned
            .first_in(offset / XPLINE, (offset + len - 1) / XPLINE)
    }

    /// Describe the contiguous poisoned run starting at `line`.
    fn poison_error(&self, line: u64) -> StoreError {
        let mut run = 1;
        while self.poisoned.contains(line + run) {
            run += 1;
        }
        StoreError::Poisoned {
            offset: line * XPLINE,
            len: run * XPLINE,
        }
    }

    /// Inject an uncorrectable media error over `[offset, offset + len)`.
    /// The range is widened to XPLine boundaries and clamped to the region;
    /// both the live bytes and the persisted image are deterministically
    /// scrambled (the data is genuinely lost, not merely flagged, and a
    /// crash cannot resurrect it). Returns the number of newly poisoned
    /// XPLines.
    pub fn inject_poison(&mut self, offset: u64, len: u64) -> u64 {
        if len == 0 || offset >= self.len() {
            return 0;
        }
        let end = offset.saturating_add(len).min(self.len());
        let first = offset / XPLINE;
        let last = (end - 1) / XPLINE;
        // The scramble is the lines' persisted image too, in every mode:
        // a crash restores it to the lines that are dirty or pending.
        self.persisted_any = true;
        if self.preimages.is_empty() {
            self.preimages = vec![0; self.data.len()];
        }
        let mut fresh = 0;
        for line in first..=last {
            fresh += self.poisoned.insert(line, line);
            let start = (line * XPLINE) as usize;
            let stop = (start + XPLINE as usize).min(self.data.len());
            // Deterministic scramble (splitmix64 keyed by the line index) so
            // identical injections corrupt identically across runs.
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ line.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            for chunk in self.data[start..stop].chunks_mut(8) {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let bytes = z.to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
            self.preimages[start..stop].copy_from_slice(&self.data[start..stop]);
        }
        fresh
    }

    /// Drop the poison marks over `[offset, offset + len)` without repairing
    /// the bytes (test aid; real repair rewrites the lines, which clears
    /// poison as a side effect). Returns the number of lines cleared.
    pub fn clear_poison(&mut self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = offset.saturating_add(len);
        self.poisoned.remove(offset / XPLINE, (end - 1) / XPLINE)
    }

    /// Whether the range intersects any poisoned XPLine.
    pub fn is_poisoned(&self, offset: u64, len: u64) -> bool {
        let end = offset.saturating_add(len).min(self.len());
        if end <= offset {
            return false;
        }
        self.first_poisoned(offset, end - offset).is_some()
    }

    /// Byte offsets of every poisoned XPLine, sorted.
    pub fn poisoned_lines(&self) -> Vec<u64> {
        self.poisoned.iter().map(|l| l * XPLINE).collect()
    }

    /// Clear poison from every XPLine *fully covered* by a write to
    /// `[offset, offset + len)` — the device remaps fully rewritten lines.
    /// Partially covered lines stay poisoned (the lost bytes are still
    /// unreadable). Callers must bounds-check first.
    fn clear_poison_covered(&mut self, offset: u64, len: u64) {
        if self.poisoned.is_empty() || len == 0 {
            return;
        }
        let end = offset + len;
        // Covered: lines starting at or after `offset` that end (clamped to
        // the region) at or before `end`.
        let first = offset.div_ceil(XPLINE);
        let stop = if end == self.len() {
            end.div_ceil(XPLINE)
        } else {
            end / XPLINE
        };
        if first < stop {
            self.poisoned.remove(first, stop - 1);
        }
    }

    /// The cache lines `first..=last` an access of `len` bytes at `offset`
    /// touches; a zero-length access names the line holding `offset`.
    fn lines(offset: u64, len: u64) -> (u64, u64) {
        let last = offset.saturating_add(len.max(1) - 1);
        (offset / CACHE_LINE, last / CACHE_LINE)
    }

    /// Save the persisted image of each line among `first..=last` that is
    /// neither dirty nor pending, before a store takes it out of that
    /// state: one copy per run of such lines. Nothing needs saving while
    /// every persisted image is zeros.
    fn save_preimages(&mut self, first: u64, last: u64) {
        if !self.persisted_any {
            return;
        }
        let (preimages, data) = (&mut self.preimages, &self.data);
        self.dirty
            .runs_outside(&self.pending, first, last, |start, end| {
                if preimages.is_empty() {
                    *preimages = vec![0; data.len()];
                }
                let at = line_bytes(start, end, data.len());
                preimages[at.clone()].copy_from_slice(&data[at]);
            });
    }

    /// Regular (cached) store. Volatile until `clwb` + `sfence` or a
    /// subsequent cache eviction — crashes lose it.
    pub fn write(&mut self, offset: u64, bytes: &[u8]) {
        self.try_write(offset, bytes, AccessHint::Auto)
            .expect("region write out of bounds")
    }

    /// Fallible [`Region::write`] with an explicit hint.
    pub fn try_write(&mut self, offset: u64, bytes: &[u8], hint: AccessHint) -> Result<()> {
        self.try_write_with(offset, bytes, hint, &mut OneAccess)
    }

    /// [`Region::try_write`], counted into `tally`.
    #[inline]
    pub fn try_write_tallied(
        &mut self,
        offset: u64,
        bytes: &[u8],
        hint: AccessHint,
        tally: &mut Tally<'_>,
    ) -> Result<()> {
        self.try_write_with(offset, bytes, hint, tally.of(&self.tracker))
    }

    #[inline]
    fn try_write_with(
        &mut self,
        offset: u64,
        bytes: &[u8],
        hint: AccessHint,
        sink: &mut impl Sink,
    ) -> Result<()> {
        self.check(offset, bytes.len() as u64)?;
        self.fault_pages(offset, bytes.len() as u64, sink);
        let sequential = self.infer_write(offset, bytes.len() as u64, hint);
        sink.write(&self.tracker, bytes.len() as u64, sequential);
        self.record_persist(|| PersistEvent::Store {
            offset,
            data: bytes.to_vec(),
        });
        let (first, last) = Self::lines(offset, bytes.len() as u64);
        self.save_preimages(first, last);
        self.data[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
        self.pending.remove(first, last);
        self.dirty.insert(first, last);
        self.clear_poison_covered(offset, bytes.len() as u64);
        Ok(())
    }

    /// Non-temporal store (`vmovntdq` in the paper's kernels): bypasses the
    /// cache; persistent after the next [`Region::sfence`].
    pub fn ntstore(&mut self, offset: u64, bytes: &[u8]) {
        self.try_ntstore(offset, bytes, AccessHint::Auto)
            .expect("region ntstore out of bounds")
    }

    /// Fallible [`Region::ntstore`] with an explicit hint.
    pub fn try_ntstore(&mut self, offset: u64, bytes: &[u8], hint: AccessHint) -> Result<()> {
        self.try_ntstore_gather_with(offset, &[bytes], hint, &mut OneAccess)
    }

    /// [`Region::try_ntstore`], counted into `tally`.
    #[inline]
    pub fn try_ntstore_tallied(
        &mut self,
        offset: u64,
        bytes: &[u8],
        hint: AccessHint,
        tally: &mut Tally<'_>,
    ) -> Result<()> {
        self.try_ntstore_gather_with(offset, &[bytes], hint, tally.of(&self.tracker))
    }

    /// Gather form of [`Region::try_ntstore_tallied`]: `parts`, in order,
    /// land at `offset` as one non-temporal store counted into `tally`.
    /// Bounds, accounting, the persistence event, the lines and the poison
    /// cleared are those of one store of their concatenation,
    /// which is built only for an attached persistence trace.
    pub(crate) fn try_ntstore_gather<B: AsRef<[u8]>>(
        &mut self,
        offset: u64,
        parts: &[B],
        hint: AccessHint,
        tally: &mut Tally<'_>,
    ) -> Result<()> {
        self.try_ntstore_gather_with(offset, parts, hint, tally.of(&self.tracker))
    }

    /// The one body of every non-temporal store.
    #[inline]
    fn try_ntstore_gather_with<B: AsRef<[u8]>>(
        &mut self,
        offset: u64,
        parts: &[B],
        hint: AccessHint,
        sink: &mut impl Sink,
    ) -> Result<()> {
        let len: u64 = parts.iter().map(|p| p.as_ref().len() as u64).sum();
        self.check(offset, len)?;
        self.fault_pages(offset, len, sink);
        let sequential = self.infer_write(offset, len, hint);
        sink.write(&self.tracker, len, sequential);
        self.record_persist(|| PersistEvent::NtStore {
            offset,
            data: parts.iter().flat_map(|p| p.as_ref()).copied().collect(),
        });
        let (first, last) = Self::lines(offset, len);
        self.save_preimages(first, last);
        let mut at = offset as usize;
        for part in parts {
            let part = part.as_ref();
            self.data[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        self.dirty.remove(first, last);
        self.pending.insert(first, last);
        self.clear_poison_covered(offset, len);
        Ok(())
    }

    /// Write a little-endian `u64` with a non-temporal store.
    pub fn ntstore_u64(&mut self, offset: u64, value: u64) {
        self.ntstore(offset, &value.to_le_bytes());
    }

    /// `clwb`: schedule the dirty cache lines covering the range for
    /// write-back. They persist at the next [`Region::sfence`].
    pub fn clwb(&mut self, offset: u64, len: u64) {
        self.record_persist(|| PersistEvent::Clwb { offset, len });
        let (first, last) = Self::lines(offset, len);
        self.dirty.move_into(&mut self.pending, first, last);
    }

    /// Store fence: everything previously `ntstore`d or `clwb`ed is now in
    /// the WPQ and — by the ADR guarantee — persistent. It drains the
    /// pending lines and copies no byte.
    pub fn sfence(&mut self) {
        self.sfence_with(&mut OneAccess);
    }

    /// [`Region::sfence`], counted into `tally`.
    #[inline]
    pub fn sfence_tallied(&mut self, tally: &mut Tally<'_>) {
        self.sfence_with(tally.of(&self.tracker));
    }

    #[inline]
    fn sfence_with(&mut self, sink: &mut impl Sink) {
        sink.sfence(&self.tracker);
        self.record_persist(|| PersistEvent::Sfence);
        if !self.persistent {
            return; // Memory Mode: nothing actually persists (§2.1).
        }
        if self.pending.drain_runs(|_, _| {}) > 0 {
            self.persisted_any = true;
        }
    }

    /// Convenience: `clwb` the range, then `sfence` (PMDK's
    /// `pmem_persist`).
    pub fn persist(&mut self, offset: u64, len: u64) {
        self.clwb(offset, len);
        self.sfence();
    }

    /// Whether every byte of the range would survive a crash right now.
    pub fn is_persisted(&self, offset: u64, len: u64) -> bool {
        if !self.persistent {
            return false;
        }
        let (first, last) = Self::lines(offset, len);
        self.dirty.first_in(first, last).is_none() && self.pending.first_in(first, last).is_none()
    }

    /// Simulate a power loss: all lines not yet accepted into the WPQ revert
    /// to their last persisted image. Returns the number of lines lost.
    pub fn crash(&mut self) -> u64 {
        let (data, preimages) = (&mut self.data, &self.preimages);
        let mut revert = |start, end| {
            let at = line_bytes(start, end, data.len());
            if preimages.is_empty() {
                data[at].fill(0);
            } else {
                data[at.clone()].copy_from_slice(&preimages[at]);
            }
        };
        // Dirty and pending are disjoint, so the two drains count each
        // lost line once.
        let mut count = self.dirty.drain_runs(&mut revert) + self.pending.drain_runs(&mut revert);
        if !self.persistent {
            // Volatile region: everything reverts, and the lines that were
            // neither dirty nor pending already hold their persisted image.
            count = self.len().div_ceil(CACHE_LINE);
        }
        self.last_read_end.store(u64::MAX, Ordering::Relaxed);
        self.last_write_end.store(u64::MAX, Ordering::Relaxed);
        self.tracker.record_crash(count);
        count
    }
}

impl Drop for Region {
    /// Return the region's bytes to its namespace and hand it their host
    /// buffer, which its pool keeps if the region is large enough and the
    /// pool has room.
    fn drop(&mut self) {
        if let Some(ns) = self.ns.upgrade() {
            ns.reclaim(std::mem::take(&mut self.data));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // unwrap in tests is fine

    use super::*;

    fn region(len: u64) -> Region {
        Region::new(len, AccessTracker::shared(), true, None)
    }

    #[test]
    fn plain_store_is_lost_on_crash() {
        let mut r = region(4096);
        r.write(0, b"volatile");
        r.crash();
        assert_eq!(r.read(0, 8, AccessHint::Sequential), &[0u8; 8]);
    }

    #[test]
    fn store_clwb_sfence_survives_crash() {
        let mut r = region(4096);
        r.write(0, b"durable!");
        r.clwb(0, 8);
        r.sfence();
        r.crash();
        assert_eq!(r.read(0, 8, AccessHint::Sequential), b"durable!");
    }

    #[test]
    fn ntstore_sfence_survives_crash() {
        let mut r = region(4096);
        r.ntstore(128, b"nt-data!");
        r.sfence();
        r.crash();
        assert_eq!(r.read(128, 8, AccessHint::Sequential), b"nt-data!");
    }

    #[test]
    fn ntstore_without_sfence_is_lost() {
        let mut r = region(4096);
        r.ntstore(0, b"unfenced");
        r.crash();
        assert_eq!(r.read(0, 8, AccessHint::Sequential), &[0u8; 8]);
    }

    #[test]
    fn clwb_without_sfence_is_lost() {
        let mut r = region(4096);
        r.write(0, b"flushing");
        r.clwb(0, 8);
        r.crash();
        assert_eq!(r.read(0, 8, AccessHint::Sequential), &[0u8; 8]);
    }

    #[test]
    fn partial_persistence_per_line() {
        let mut r = region(4096);
        r.write(0, b"line-a");
        r.write(64, b"line-b");
        r.persist(0, 6); // only line 0
        assert!(r.is_persisted(0, 6));
        assert!(!r.is_persisted(64, 6));
        r.crash();
        assert_eq!(r.read(0, 6, AccessHint::Sequential), b"line-a");
        assert_eq!(r.read(64, 6, AccessHint::Sequential), &[0u8; 6]);
    }

    #[test]
    fn overwrite_after_persist_needs_new_flush() {
        let mut r = region(4096);
        r.ntstore(0, b"v1------");
        r.sfence();
        r.write(0, b"v2------");
        assert!(!r.is_persisted(0, 8));
        r.crash();
        assert_eq!(r.read(0, 8, AccessHint::Sequential), b"v1------");
    }

    #[test]
    fn crash_returns_lost_line_count() {
        let mut r = region(4096);
        r.write(0, b"x");
        r.write(200, b"y");
        assert_eq!(r.crash(), 2);
        assert_eq!(r.crash(), 0);
    }

    #[test]
    fn crash_events_report_into_the_tracker() {
        let mut r = region(4096);
        r.write(0, b"x");
        r.crash();
        r.crash();
        let s = r.tracker().snapshot();
        assert_eq!(s.crashes, 2);
        assert_eq!(s.crash_lost_lines, 1);
    }

    #[test]
    fn reads_account_sequential_vs_random() {
        let r = region(4096);
        r.read(0, 64, AccessHint::Auto); // first read: not continuing → random
        r.read(64, 64, AccessHint::Auto); // continues → sequential
        r.read(2048, 64, AccessHint::Auto); // jump → random
        let s = r.tracker().snapshot();
        assert_eq!(s.seq_read_bytes, 64);
        assert_eq!(s.rand_read_bytes, 128);
        assert_eq!(s.read_ops, 3);
    }

    #[test]
    fn explicit_hints_override_inference() {
        let r = region(4096);
        r.read(1024, 64, AccessHint::Sequential);
        let s = r.tracker().snapshot();
        assert_eq!(s.seq_read_bytes, 64);
        assert_eq!(s.rand_read_bytes, 0);
    }

    #[test]
    fn typed_reads_round_trip() {
        let mut r = region(4096);
        r.ntstore_u64(16, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.read_u64(16, AccessHint::Random), 0xDEAD_BEEF_CAFE_F00D);
        r.ntstore(24, &7u32.to_le_bytes());
        assert_eq!(r.read_u32(24, AccessHint::Random), 7);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut r = region(128);
        assert!(matches!(
            r.try_read(120, 16, AccessHint::Auto),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(r.try_write(u64::MAX, b"x", AccessHint::Auto).is_err());
        assert!(r.try_ntstore(129, b"", AccessHint::Auto).is_err());
    }

    #[test]
    fn checked_typed_reads_never_panic_out_of_range() {
        let r = region(128);
        // Regression: read_u64/read_u32 used to be panic-only; the checked
        // variants must return OutOfBounds for every bad offset, including
        // offset + len overflow at the top of the address space.
        assert!(matches!(
            r.try_read_u64(121, AccessHint::Auto),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.try_read_u64(u64::MAX - 4, AccessHint::Auto),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.try_read_u32(126, AccessHint::Auto),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.try_read_u32(u64::MAX, AccessHint::Auto),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.try_read(u64::MAX - 7, 16, AccessHint::Auto),
            Err(StoreError::OutOfBounds { .. })
        ));
        // In-range values still round-trip through the checked path.
        let mut r = region(128);
        r.ntstore_u64(0, 42);
        assert_eq!(r.try_read_u64(0, AccessHint::Auto).unwrap(), 42);
        assert_eq!(r.try_read_u32(0, AccessHint::Auto).unwrap(), 42);
    }

    #[test]
    fn poisoned_lines_fail_checked_reads_with_typed_error() {
        let mut r = region(4096);
        r.ntstore(0, &[7u8; 1024]);
        r.sfence();
        assert_eq!(r.inject_poison(512, 300), 2, "two XPLines: 512 and 768");
        assert!(r.is_poisoned(512, 1));
        assert!(r.is_poisoned(0, 4096));
        assert!(!r.is_poisoned(0, 512));
        assert_eq!(r.poisoned_lines(), vec![512, 768]);
        match r.try_read(600, 8, AccessHint::Random) {
            Err(StoreError::Poisoned { offset, len }) => {
                assert_eq!(offset, 512);
                assert_eq!(len, 512, "contiguous run of two lines");
            }
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // Reads clear of the poison still succeed.
        assert_eq!(
            r.try_read(0, 512, AccessHint::Sequential).unwrap().len(),
            512
        );
        // Poisoned reads are not accounted: the load never completes.
        let before = r.tracker().snapshot().read_ops;
        let _ = r.try_read(512, 8, AccessHint::Random);
        assert_eq!(r.tracker().snapshot().read_ops, before);
    }

    #[test]
    #[should_panic(expected = "machine check")]
    fn infallible_read_of_poison_is_a_machine_check_in_tests() {
        let mut r = region(4096);
        r.inject_poison(256, 1);
        let _ = r.read(256, 8, AccessHint::Random);
    }

    #[test]
    fn poison_scrambles_media_and_survives_crash() {
        let mut r = region(4096);
        r.ntstore(256, &[0xAB; 256]);
        r.sfence();
        r.inject_poison(256, 256);
        // The bytes are genuinely lost, not merely flagged...
        assert_ne!(&r.untracked_slice()[256..512], &[0xAB; 256][..]);
        // ...and a crash cannot resurrect them: the persisted image was
        // scrambled too, and the poison mark survives power cycles.
        r.crash();
        assert_ne!(&r.untracked_slice()[256..512], &[0xAB; 256][..]);
        assert!(r.is_poisoned(256, 256));
        // Identical injections scramble identically (deterministic).
        let mut r2 = region(4096);
        r2.ntstore(256, &[0xAB; 256]);
        r2.sfence();
        r2.inject_poison(256, 256);
        assert_eq!(
            &r.untracked_slice()[256..512],
            &r2.untracked_slice()[256..512]
        );
        // A line dirty over an already-fenced image when the poison lands
        // (a partial write, so the poison stays) reverts to the scramble,
        // not to the bytes fenced before the poison: in a persistent and
        // in a volatile (Memory Mode) region.
        for persistent in [true, false] {
            let mut r = Region::new(4096, AccessTracker::shared(), persistent, None);
            r.ntstore(256, &[0xAB; 256]);
            r.sfence();
            r.write(300, &[0xCD; 8]);
            r.inject_poison(256, 256);
            let scrambled = r.untracked_slice()[256..512].to_vec();
            r.crash();
            assert_eq!(&r.untracked_slice()[256..512], &scrambled[..]);
            assert!(r.is_poisoned(256, 256));
        }
    }

    #[test]
    fn full_xpline_rewrite_clears_poison_partial_does_not() {
        let mut r = region(4096);
        r.inject_poison(0, 512); // lines 0 and 256
        r.try_ntstore(0, &[1u8; 256], AccessHint::Sequential)
            .unwrap();
        assert!(!r.is_poisoned(0, 256), "fully rewritten line is remapped");
        assert!(r.is_poisoned(256, 256), "untouched line stays poisoned");
        // A partial overwrite leaves the line poisoned: the rest is lost.
        r.try_write(256, &[2u8; 100], AccessHint::Random).unwrap();
        assert!(r.is_poisoned(256, 256));
        // Covering the remainder in one full-line write clears it.
        r.try_ntstore(256, &[3u8; 256], AccessHint::Sequential)
            .unwrap();
        assert!(!r.is_poisoned(0, 4096));
        assert!(r.poisoned_lines().is_empty());
        // And the checked read sees the rewritten bytes again.
        assert_eq!(
            r.try_read(256, 4, AccessHint::Random).unwrap(),
            &[3, 3, 3, 3]
        );
    }

    #[test]
    fn clear_poison_unmarks_without_repair() {
        let mut r = region(1024);
        r.inject_poison(0, 1024);
        assert_eq!(r.clear_poison(0, 512), 2);
        assert!(!r.is_poisoned(0, 512));
        assert!(r.is_poisoned(512, 512));
        assert_eq!(
            r.clear_poison(0, 1024),
            2,
            "already-clear lines not counted"
        );
    }

    #[test]
    fn poison_at_region_tail_is_clamped() {
        let mut r = region(300); // tail XPLine is only 44 bytes long
        assert_eq!(r.inject_poison(256, 10_000), 1);
        assert!(r.is_poisoned(299, 1));
        assert_eq!(r.inject_poison(5000, 16), 0, "past the end: nothing");
        // Rewriting offset 256..300 covers the whole (clamped) tail line.
        r.try_ntstore(256, &[9u8; 44], AccessHint::Sequential)
            .unwrap();
        assert!(!r.is_poisoned(0, 300));
    }

    #[test]
    fn only_a_store_over_a_fenced_line_saves_a_preimage() {
        // Stored from fresh, fenced, then read (a load): nothing to save.
        let mut r = region(1 << 16);
        r.ntstore(0, &[1; 1 << 16]);
        r.sfence();
        r.read(0, 1 << 16, AccessHint::Sequential);
        assert!(!r.has_preimages());
        // Cached writes never fenced (a chained table): nothing either,
        // and a crash still loses them to zeros.
        let mut r = region(4096);
        r.write(0, &[2; 100]);
        r.write(1000, &[3; 8]);
        r.clwb(0, 64);
        assert!(!r.has_preimages());
        assert_eq!(r.crash(), 3);
        assert!(r.untracked_slice().iter().all(|&b| b == 0));
        // The fence copies nothing; the first store over a fenced line
        // saves that line's image, which a crash restores.
        r.ntstore(0, &[4; 64]);
        r.sfence();
        assert!(!r.has_preimages());
        r.write(8, &[5; 8]);
        assert!(r.has_preimages());
        r.crash();
        assert_eq!(r.read(0, 64, AccessHint::Sequential), &[4; 64]);
    }

    #[test]
    fn volatile_region_never_persists() {
        let mut r = Region::new(4096, AccessTracker::shared(), false, None);
        r.ntstore(0, b"gone....");
        r.sfence();
        assert!(!r.is_persisted(0, 8));
        r.crash();
        assert_eq!(r.read(0, 8, AccessHint::Sequential), &[0u8; 8]);
    }

    #[test]
    fn fsdax_faults_once_per_page_devdax_never() {
        let fm = FaultModel::new(2 << 20, 8 << 20);
        let r = Region::new(8 << 20, AccessTracker::shared(), true, Some(fm));
        r.read(0, 64, AccessHint::Auto);
        r.read(100, 64, AccessHint::Auto); // same page: no new fault
        r.read(2 << 20, 64, AccessHint::Auto); // next page
        assert_eq!(r.tracker().snapshot().page_faults, 2);

        let d = region(8 << 20);
        d.read(0, 64, AccessHint::Auto);
        assert_eq!(d.tracker().snapshot().page_faults, 0);
    }

    #[test]
    fn prefault_touches_every_page_up_front() {
        let fm = FaultModel::new(2 << 20, 8 << 20);
        let r = Region::new(8 << 20, AccessTracker::shared(), true, Some(fm));
        r.prefault();
        assert_eq!(r.tracker().snapshot().page_faults, 4);
        r.read(0, 64, AccessHint::Auto);
        assert_eq!(r.tracker().snapshot().page_faults, 4); // no new faults
    }

    #[test]
    fn untracked_slice_does_not_account() {
        let r = region(64);
        let _ = r.untracked_slice();
        assert_eq!(r.tracker().snapshot().read_ops, 0);
    }

    #[test]
    fn gather_store_equals_one_store_of_the_concatenation() {
        use crate::trace::{PersistEvent, PersistenceTrace};
        // Two identical regions (fsdax faults, poison, a persistence
        // trace): one takes the parts as a gather store, the other their
        // concatenation.
        let make = || {
            let mut r = Region::new(
                4096,
                AccessTracker::shared(),
                true,
                Some(FaultModel::new(1024, 4096)),
            );
            let persists = PersistenceTrace::shared(64);
            r.attach_persist_trace(Arc::clone(&persists));
            r.ntstore(0, &[1; 64]);
            r.inject_poison(512, 256);
            (r, persists)
        };
        let (mut gathered, g_persists) = make();
        let (mut single, s_persists) = make();
        let lines = |r: &Region| {
            let line_set = |set: &LineSet| set.iter().collect::<Vec<_>>();
            let persisted: Vec<bool> = (0..4096 / CACHE_LINE)
                .map(|l| r.is_persisted(l * CACHE_LINE, CACHE_LINE))
                .collect();
            (line_set(&r.dirty), line_set(&r.pending), persisted)
        };
        let same = |g: &Region, s: &Region| {
            assert_eq!(g.tracker().snapshot(), s.tracker().snapshot());
            assert_eq!(lines(g), lines(s));
            assert_eq!(g.untracked_slice(), s.untracked_slice());
            assert_eq!(g.poisoned_lines(), s.poisoned_lines());
        };

        // 300..1000 in three parts (one empty); the part boundary at 600
        // falls inside the poisoned XPLine 512..768, which the store covers.
        let parts: [&[u8]; 3] = [&[7; 300], &[], &[9; 400]];
        let writes0 = gathered.tracker().snapshot().write_ops;
        let tracker = Arc::clone(gathered.tracker());
        gathered
            .try_ntstore_gather(300, &parts, AccessHint::Auto, &mut tracker.tally())
            .unwrap();
        single
            .try_ntstore(300, &parts.concat(), AccessHint::Auto)
            .unwrap();
        same(&gathered, &single);
        assert_eq!(gathered.tracker().snapshot().write_ops, writes0 + 1);
        assert!(
            !gathered.is_poisoned(0, 4096),
            "poison cleared across parts"
        );
        assert!(!gathered.is_persisted(300, 700), "pending until the fence");
        gathered.sfence();
        single.sfence();
        same(&gathered, &single);
        assert!(gathered.is_persisted(300, 700));

        // An unfenced gather store is lost to a crash exactly as one store.
        let parts: [&[u8]; 2] = [&[3; 100], &[4; 200]];
        gathered
            .try_ntstore_gather(2000, &parts, AccessHint::Auto, &mut tracker.tally())
            .unwrap();
        single
            .try_ntstore(2000, &parts.concat(), AccessHint::Auto)
            .unwrap();
        same(&gathered, &single);
        assert_eq!(gathered.crash(), single.crash());
        same(&gathered, &single);

        // Bounds hold on the total: parts that each fit but together run
        // past the end fail as their concatenation does, and record nothing.
        let parts: [&[u8]; 2] = [&[5; 64], &[6; 64]];
        let err = gathered.try_ntstore_gather(4000, &parts, AccessHint::Auto, &mut tracker.tally());
        assert_eq!(
            err,
            Err(StoreError::OutOfBounds {
                offset: 4000,
                len: 128,
                capacity: 4096
            })
        );
        assert_eq!(
            err,
            single.try_ntstore(4000, &parts.concat(), AccessHint::Auto)
        );
        same(&gathered, &single);

        let events = g_persists.take();
        assert_eq!(events, s_persists.take());
        let stores: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, PersistEvent::NtStore { .. }))
            .collect();
        assert_eq!(stores.len(), 3, "the setup store and one per gather");
        assert_eq!(
            stores[1],
            &PersistEvent::NtStore {
                offset: 300,
                data: [[7; 300].as_slice(), &[9; 400]].concat()
            }
        );
    }

    #[test]
    fn a_tally_dropped_on_an_early_err_lands_what_it_counted() {
        let fm = FaultModel::new(1024, 4096);
        let mut r = Region::new(4096, AccessTracker::shared(), true, Some(fm));
        r.inject_poison(2048, 1);
        let tracker = Arc::clone(r.tracker());
        let read_until_poison = |r: &Region, tally: &mut Tally<'_>| -> Result<()> {
            for offset in (0..4096).step_by(256) {
                r.try_read_tallied(offset, 256, AccessHint::Auto, tally)?;
            }
            Ok(())
        };
        let result = read_until_poison(&r, &mut tracker.tally());
        assert_eq!(
            result,
            Err(StoreError::Poisoned {
                offset: 2048,
                len: 256
            })
        );
        let s = tracker.snapshot();
        assert_eq!(
            (s.read_ops, s.seq_read_bytes, s.rand_read_bytes),
            (8, 1792, 256)
        );
        assert_eq!(
            s.page_faults, 2,
            "pages 0 and 1; the poisoned read faults none"
        );
        // Stores and a fence through a tally land the same way.
        let mut tally = tracker.tally();
        r.try_ntstore_tallied(0, &[1; 64], AccessHint::Random, &mut tally)
            .unwrap();
        r.try_write_tallied(64, &[2; 8], AccessHint::Random, &mut tally)
            .unwrap();
        r.sfence_tallied(&mut tally);
        assert_eq!(tracker.snapshot(), s, "nothing lands before the drop");
        drop(tally);
        let s = tracker.snapshot().since(&s);
        assert_eq!((s.write_ops, s.rand_write_bytes, s.sfences), (2, 72, 1));
    }

    #[test]
    #[should_panic(expected = "its own tracker")]
    fn a_tally_of_another_tracker_panics() {
        let r = region(4096);
        let other = AccessTracker::shared();
        let _ = r.read_tallied(0, 8, AccessHint::Random, &mut other.tally());
    }

    #[test]
    fn persist_trace_records_the_ordered_event_stream() {
        use crate::trace::{PersistEvent, PersistenceTrace};
        let mut r = region(4096);
        let trace = PersistenceTrace::shared(64);
        r.attach_persist_trace(Arc::clone(&trace));
        r.write(0, b"ab");
        r.clwb(0, 2);
        r.sfence();
        trace.mark(1);
        r.ntstore(64, b"cd");
        r.detach_persist_trace();
        r.sfence(); // not recorded: trace detached
        let events = trace.take();
        assert_eq!(
            events,
            vec![
                PersistEvent::Store {
                    offset: 0,
                    data: b"ab".to_vec()
                },
                PersistEvent::Clwb { offset: 0, len: 2 },
                PersistEvent::Sfence,
                PersistEvent::Mark(1),
                PersistEvent::NtStore {
                    offset: 64,
                    data: b"cd".to_vec()
                },
            ]
        );
    }
}
