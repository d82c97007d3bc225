//! Access accounting: the bridge between executed work and simulated time.
//!
//! Every [`Region`](crate::region::Region) operation tallies into an
//! [`AccessTracker`]. Higher layers snapshot the tracker and feed the byte
//! counts into the [`pmem-sim`](pmem_sim) bandwidth model to obtain the
//! simulated device time a real Optane system would have spent.
//!
//! Every access counts into a batch of plain counters: a worker's
//! [`Tally`], added into the tracker when the tally drops, or, for the
//! `Region` methods that take no tally, the access's own batch, added
//! into the tracker before the method returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Counter slots, in `TrackerSnapshot` field order.
const SEQ_READ_BYTES: usize = 0;
const RAND_READ_BYTES: usize = 1;
const SEQ_WRITE_BYTES: usize = 2;
const RAND_WRITE_BYTES: usize = 3;
const READ_OPS: usize = 4;
const WRITE_OPS: usize = 5;
const SFENCES: usize = 6;
const PAGE_FAULTS: usize = 7;
const CRASHES: usize = 8;
const CRASH_LOST_LINES: usize = 9;
const COUNTERS: usize = 10;

/// Thread-safe access counters shared by all regions of a namespace.
///
/// Counts arrive a batch at a time (a dropped [`Tally`], or one untallied
/// access), and a crash adds its own two. Adds are relaxed atomic adds: a
/// count publishes no other data, and concurrent batches lose no update.
#[derive(Default)]
pub struct AccessTracker {
    counters: [AtomicU64; COUNTERS],
}

impl std::fmt::Debug for AccessTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AccessTracker")
            .field(&self.snapshot())
            .finish()
    }
}

impl AccessTracker {
    /// New zeroed tracker behind an `Arc` (the shape regions consume).
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Add each nonzero count of `batch`.
    #[inline]
    pub(crate) fn add(&self, batch: &Counts) {
        for (counter, &n) in self.counters.iter().zip(&batch.0) {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn record_crash(&self, lost_lines: u64) {
        self.counters[CRASHES].fetch_add(1, Ordering::Relaxed);
        self.counters[CRASH_LOST_LINES].fetch_add(lost_lines, Ordering::Relaxed);
    }

    /// A tally of this tracker's counters, empty; it adds what it counted
    /// into this tracker when it drops.
    pub fn tally(&self) -> Tally<'_> {
        Tally {
            tracker: self,
            counts: Counts::default(),
        }
    }

    /// Snapshot of the counters, read with relaxed loads. Once every
    /// thread that recorded into the tracker has been joined, the counts
    /// are exact; a snapshot taken while threads are still recording may
    /// see some of their batches and not others (fine for timing
    /// estimates, which snapshot between phases).
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot::from_counts(&Counts(std::array::from_fn(|i| {
            self.counters[i].load(Ordering::Relaxed)
        })))
    }

    /// Reset all counters to zero (e.g. after the load phase, before the
    /// measured query phase).
    pub fn reset(&self) {
        for counter in &self.counters {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// One batch of a tracker's counters, counted with plain adds: every
/// access body of [`Region`](crate::region::Region) counts into one.
#[derive(Debug, Default)]
pub(crate) struct Counts([u64; COUNTERS]);

impl Counts {
    /// One read of `bytes`.
    #[inline]
    pub(crate) fn read(&mut self, bytes: u64, sequential: bool) {
        self.0[READ_OPS] += 1;
        let kind = if sequential {
            SEQ_READ_BYTES
        } else {
            RAND_READ_BYTES
        };
        self.0[kind] += bytes;
    }

    /// One write (cached or non-temporal) of `bytes`.
    #[inline]
    pub(crate) fn write(&mut self, bytes: u64, sequential: bool) {
        self.0[WRITE_OPS] += 1;
        let kind = if sequential {
            SEQ_WRITE_BYTES
        } else {
            RAND_WRITE_BYTES
        };
        self.0[kind] += bytes;
    }

    /// One `sfence`.
    #[inline]
    pub(crate) fn sfence(&mut self) {
        self.0[SFENCES] += 1;
    }

    /// `pages` first-touch page faults.
    #[inline]
    pub(crate) fn page_faults(&mut self, pages: u64) {
        self.0[PAGE_FAULTS] += pages;
    }
}

/// A worker's own batch of one [`AccessTracker`]'s counters.
///
/// The `Region` methods that take a tally count into it with plain adds.
/// When the tally drops, on every return path an `?` included, it adds
/// each nonzero count into the tracker, so the tracker's counts are exact
/// once every tally of it has dropped and the threads that recorded are
/// joined. A tally records only regions of its own tracker: recording a
/// region of another one panics.
#[derive(Debug)]
pub struct Tally<'t> {
    tracker: &'t AccessTracker,
    counts: Counts,
}

impl Tally<'_> {
    /// What this tally has counted so far; none of it has reached the
    /// tracker yet.
    pub fn counts(&self) -> TrackerSnapshot {
        TrackerSnapshot::from_counts(&self.counts)
    }

    /// This tally's batch, after checking that it belongs to `tracker`.
    #[inline]
    pub(crate) fn of(&mut self, tracker: &AccessTracker) -> &mut Counts {
        assert!(
            std::ptr::eq(self.tracker, tracker),
            "a tally records only regions of its own tracker"
        );
        &mut self.counts
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.tracker.add(&self.counts);
    }
}

/// Point-in-time view of an [`AccessTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackerSnapshot {
    /// Bytes read sequentially.
    pub seq_read_bytes: u64,
    /// Bytes read at random offsets.
    pub rand_read_bytes: u64,
    /// Bytes written sequentially.
    pub seq_write_bytes: u64,
    /// Bytes written at random offsets.
    pub rand_write_bytes: u64,
    /// Read operations.
    pub read_ops: u64,
    /// Write operations.
    pub write_ops: u64,
    /// `sfence` calls.
    pub sfences: u64,
    /// fsdax first-touch page faults.
    pub page_faults: u64,
    /// Simulated power-loss events ([`crate::region::Region::crash`]).
    pub crashes: u64,
    /// Cache lines reverted to their persisted image across those crashes.
    pub crash_lost_lines: u64,
}

impl TrackerSnapshot {
    fn from_counts(Counts(counts): &Counts) -> Self {
        TrackerSnapshot {
            seq_read_bytes: counts[SEQ_READ_BYTES],
            rand_read_bytes: counts[RAND_READ_BYTES],
            seq_write_bytes: counts[SEQ_WRITE_BYTES],
            rand_write_bytes: counts[RAND_WRITE_BYTES],
            read_ops: counts[READ_OPS],
            write_ops: counts[WRITE_OPS],
            sfences: counts[SFENCES],
            page_faults: counts[PAGE_FAULTS],
            crashes: counts[CRASHES],
            crash_lost_lines: counts[CRASH_LOST_LINES],
        }
    }

    /// All bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.seq_read_bytes + self.rand_read_bytes
    }

    /// All bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.seq_write_bytes + self.rand_write_bytes
    }

    /// Mean random-read granule, useful to pick the access size for the
    /// bandwidth model (0 when no random reads happened).
    pub fn mean_random_read_size(&self) -> u64 {
        if self.rand_read_bytes == 0 {
            return 0;
        }
        // Approximation: attribute all read ops proportionally.
        let total = self.read_bytes();
        let rand_ops = (self.read_ops as f64 * self.rand_read_bytes as f64 / total as f64).max(1.0);
        (self.rand_read_bytes as f64 / rand_ops) as u64
    }

    /// Element-wise sum (e.g. combining per-socket shards).
    pub fn plus(&self, other: &TrackerSnapshot) -> TrackerSnapshot {
        TrackerSnapshot {
            seq_read_bytes: self.seq_read_bytes + other.seq_read_bytes,
            rand_read_bytes: self.rand_read_bytes + other.rand_read_bytes,
            seq_write_bytes: self.seq_write_bytes + other.seq_write_bytes,
            rand_write_bytes: self.rand_write_bytes + other.rand_write_bytes,
            read_ops: self.read_ops + other.read_ops,
            write_ops: self.write_ops + other.write_ops,
            sfences: self.sfences + other.sfences,
            page_faults: self.page_faults + other.page_faults,
            crashes: self.crashes + other.crashes,
            crash_lost_lines: self.crash_lost_lines + other.crash_lost_lines,
        }
    }

    /// Difference against an earlier snapshot (for measuring one phase).
    pub fn since(&self, earlier: &TrackerSnapshot) -> TrackerSnapshot {
        TrackerSnapshot {
            seq_read_bytes: self.seq_read_bytes - earlier.seq_read_bytes,
            rand_read_bytes: self.rand_read_bytes - earlier.rand_read_bytes,
            seq_write_bytes: self.seq_write_bytes - earlier.seq_write_bytes,
            rand_write_bytes: self.rand_write_bytes - earlier.rand_write_bytes,
            read_ops: self.read_ops - earlier.read_ops,
            write_ops: self.write_ops - earlier.write_ops,
            sfences: self.sfences - earlier.sfences,
            page_faults: self.page_faults - earlier.page_faults,
            crashes: self.crashes - earlier.crashes,
            crash_lost_lines: self.crash_lost_lines - earlier.crash_lost_lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker that received `batch` once.
    fn tracker_of(batch: impl FnOnce(&mut Counts)) -> AccessTracker {
        let t = AccessTracker::default();
        let mut counts = Counts::default();
        batch(&mut counts);
        t.add(&counts);
        t
    }

    #[test]
    fn records_by_kind() {
        let t = tracker_of(|c| {
            c.read(100, true);
            c.read(50, false);
            c.write(30, true);
            c.write(20, false);
            c.sfence();
            c.page_faults(1);
        });
        let s = t.snapshot();
        assert_eq!(s.seq_read_bytes, 100);
        assert_eq!(s.rand_read_bytes, 50);
        assert_eq!(s.seq_write_bytes, 30);
        assert_eq!(s.rand_write_bytes, 20);
        assert_eq!(s.read_bytes(), 150);
        assert_eq!(s.write_bytes(), 50);
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.write_ops, 2);
        assert_eq!(s.sfences, 1);
        assert_eq!(s.page_faults, 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = tracker_of(|c| c.read(1, true));
        t.record_crash(3);
        t.reset();
        assert_eq!(t.snapshot(), TrackerSnapshot::default());
    }

    #[test]
    fn crash_events_accumulate() {
        let t = AccessTracker::default();
        t.record_crash(5);
        t.record_crash(0);
        let s = t.snapshot();
        assert_eq!(s.crashes, 2);
        assert_eq!(s.crash_lost_lines, 5);
    }

    #[test]
    fn since_computes_phase_delta() {
        let t = tracker_of(|c| c.read(100, true));
        let before = t.snapshot();
        t.tally().of(&t).read(40, false);
        let delta = t.snapshot().since(&before);
        assert_eq!(delta.rand_read_bytes, 40);
        assert_eq!(delta.seq_read_bytes, 0);
    }

    #[test]
    fn mean_random_read_size_is_sane() {
        let t = tracker_of(|c| {
            for _ in 0..10 {
                c.read(256, false);
            }
        });
        let s = t.snapshot();
        assert_eq!(s.mean_random_read_size(), 256);
        assert_eq!(TrackerSnapshot::default().mean_random_read_size(), 0);
    }

    #[test]
    fn a_tally_lands_its_counts_when_it_drops() {
        let t = AccessTracker::default();
        let mut tally = t.tally();
        let counts = tally.of(&t);
        counts.read(256, false);
        counts.write(64, true);
        counts.sfence();
        counts.page_faults(2);
        assert_eq!(t.snapshot(), TrackerSnapshot::default(), "held until drop");
        let counted = tally.counts();
        drop(tally);
        let s = t.snapshot();
        assert_eq!(s, counted, "lands what it counted");
        assert_eq!(
            (s.rand_read_bytes, s.read_ops, s.seq_write_bytes),
            (256, 1, 64)
        );
        assert_eq!((s.write_ops, s.sfences, s.page_faults), (1, 1, 2));
    }

    #[test]
    fn tracker_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccessTracker>();
    }
}
