//! Access accounting: the bridge between executed work and simulated time.
//!
//! Every [`Region`](crate::region::Region) operation tallies into an
//! [`AccessTracker`]. Higher layers snapshot the tracker and feed the byte
//! counts into the [`pmem-sim`](pmem_sim) bandwidth model to obtain the
//! simulated device time a real Optane system would have spent.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Counter stripes per tracker. Threads take stripes round-robin, in the
/// order they first record into any tracker, so threads spawned together
/// (a query's scan workers) count on distinct cache lines.
const STRIPES: usize = 16;

// Counter slots of a stripe, in `TrackerSnapshot` field order.
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

/// One thread's share of the counters, alone on its cache lines (128 B
/// covers the adjacent-line prefetch pair as well).
#[derive(Default)]
#[repr(align(128))]
struct Stripe([AtomicU64; COUNTERS]);

/// Next stripe to hand to a thread. Relaxed: the value only spreads
/// threads over stripes and publishes nothing.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe index, assigned on its first use.
#[inline]
fn stripe_index() -> usize {
    STRIPE.with(|slot| {
        let mut index = slot.get();
        if index == usize::MAX {
            index = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
            slot.set(index);
        }
        index
    })
}

/// Thread-safe access counters shared by all regions of a namespace.
///
/// Each counter is split into per-thread, cache-line-padded stripes, so
/// threads scanning the same namespace never contend on a counter line.
/// Increments are relaxed atomic adds: a count publishes no other data,
/// and threads that do share a stripe still lose no update.
#[derive(Default)]
pub struct AccessTracker {
    stripes: [Stripe; STRIPES],
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

    #[inline]
    fn add(&self, counter: usize, n: u64) {
        self.stripes[stripe_index()].0[counter].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_read(&self, bytes: u64, sequential: bool) {
        let stripe = &self.stripes[stripe_index()].0;
        stripe[READ_OPS].fetch_add(1, Ordering::Relaxed);
        let kind = if sequential {
            SEQ_READ_BYTES
        } else {
            RAND_READ_BYTES
        };
        stripe[kind].fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, bytes: u64, sequential: bool) {
        let stripe = &self.stripes[stripe_index()].0;
        stripe[WRITE_OPS].fetch_add(1, Ordering::Relaxed);
        let kind = if sequential {
            SEQ_WRITE_BYTES
        } else {
            RAND_WRITE_BYTES
        };
        stripe[kind].fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_sfence(&self) {
        self.add(SFENCES, 1);
    }

    pub(crate) fn record_page_faults(&self, pages: u64) {
        self.add(PAGE_FAULTS, pages);
    }

    pub(crate) fn record_crash(&self, lost_lines: u64) {
        self.add(CRASHES, 1);
        self.add(CRASH_LOST_LINES, lost_lines);
    }

    /// Snapshot of the counters: each is the sum of its stripes, read with
    /// relaxed loads. Once every thread that recorded into the tracker has
    /// been joined, the counts are exact; a snapshot taken while threads
    /// are still recording may see some of their updates and not others
    /// (fine for timing estimates, which snapshot between phases).
    pub fn snapshot(&self) -> TrackerSnapshot {
        let mut sum = [0u64; COUNTERS];
        for stripe in &self.stripes {
            for (total, counter) in sum.iter_mut().zip(&stripe.0) {
                *total += counter.load(Ordering::Relaxed);
            }
        }
        TrackerSnapshot {
            seq_read_bytes: sum[SEQ_READ_BYTES],
            rand_read_bytes: sum[RAND_READ_BYTES],
            seq_write_bytes: sum[SEQ_WRITE_BYTES],
            rand_write_bytes: sum[RAND_WRITE_BYTES],
            read_ops: sum[READ_OPS],
            write_ops: sum[WRITE_OPS],
            sfences: sum[SFENCES],
            page_faults: sum[PAGE_FAULTS],
            crashes: sum[CRASHES],
            crash_lost_lines: sum[CRASH_LOST_LINES],
        }
    }

    /// Reset all counters, in every stripe, to zero (e.g. after the load
    /// phase, before the measured query phase).
    pub fn reset(&self) {
        for counter in self.stripes.iter().flat_map(|s| &s.0) {
            counter.store(0, Ordering::Relaxed);
        }
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

    #[test]
    fn records_by_kind() {
        let t = AccessTracker::default();
        t.record_read(100, true);
        t.record_read(50, false);
        t.record_write(30, true);
        t.record_write(20, false);
        t.record_sfence();
        t.record_page_faults(1);
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
        let t = AccessTracker::default();
        t.record_read(1, true);
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
        let t = AccessTracker::default();
        t.record_read(100, true);
        let before = t.snapshot();
        t.record_read(40, false);
        let delta = t.snapshot().since(&before);
        assert_eq!(delta.rand_read_bytes, 40);
        assert_eq!(delta.seq_read_bytes, 0);
    }

    #[test]
    fn mean_random_read_size_is_sane() {
        let t = AccessTracker::default();
        for _ in 0..10 {
            t.record_read(256, false);
        }
        let s = t.snapshot();
        assert_eq!(s.mean_random_read_size(), 256);
        assert_eq!(TrackerSnapshot::default().mean_random_read_size(), 0);
    }

    #[test]
    fn tracker_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccessTracker>();
    }
}
