//! Real multi-threaded traffic generation over `pmem-store` regions.
//!
//! The bandwidth numbers of the figures come from the simulator, but the
//! harness also *executes* the access patterns against real regions —
//! grouped/individual/random, reads and writes, with the paper's thread
//! counts — so the patterns themselves are tested code, not just spec
//! structs. Reads verify a checksum over deterministic fill data; each
//! worker counts its traffic into a tally of its own, and all of it lands
//! in the namespace tracker, which tests compare against the expected
//! pattern signature.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem_sim::workload::{AccessKind, Pattern};
use pmem_store::{AccessHint, Namespace, Region, Result, TrackerSnapshot};

/// A scaled-down, executable version of a workload spec.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Read or write.
    pub kind: AccessKind,
    /// Grouped / individual / random.
    pub pattern: Pattern,
    /// Bytes per operation.
    pub access_size: u64,
    /// Worker threads.
    pub threads: u32,
    /// Total bytes to move (default 8 MiB — patterns are volume-invariant).
    pub volume: u64,
    /// Seed for random offsets.
    pub seed: u64,
}

impl TrafficConfig {
    /// Sequential-read default for the given geometry.
    pub fn new(kind: AccessKind, pattern: Pattern, access_size: u64, threads: u32) -> Self {
        TrafficConfig {
            kind,
            pattern,
            access_size: access_size.max(1),
            threads: threads.max(1),
            volume: 8 << 20,
            seed: 0x5EED,
        }
    }
}

/// What a traffic run observed.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Bytes actually moved.
    pub bytes: u64,
    /// Checksum of bytes read (0 for pure writes) — validates data flow.
    pub checksum: u64,
    /// Tracker delta attributable to this run.
    pub delta: TrackerSnapshot,
}

/// Deterministic fill byte for an offset (checksummable).
#[inline]
fn fill_byte(offset: u64) -> u8 {
    (offset.wrapping_mul(0x9E37_79B9) >> 16) as u8
}

/// A tiny xorshift for random offsets — avoids pulling `rand` in here and
/// keeps runs deterministic.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Run the configured traffic against fresh regions of `ns`.
pub fn run_traffic(ns: &Namespace, cfg: &TrafficConfig) -> Result<TrafficReport> {
    let before = ns.tracker().snapshot();
    let (bytes, checksum) = match cfg.kind {
        AccessKind::Read => read_traffic(ns, cfg)?,
        AccessKind::Write => write_traffic(ns, cfg)?,
    };
    let delta = ns.tracker().snapshot().since(&before);
    Ok(TrafficReport {
        bytes,
        checksum,
        delta,
    })
}

fn read_traffic(ns: &Namespace, cfg: &TrafficConfig) -> Result<(u64, u64)> {
    let access = cfg.access_size;
    let volume = cfg.volume.max(access) / access * access;
    let region_len = match cfg.pattern {
        Pattern::Random { region_bytes } => region_bytes.min(volume.max(access)),
        _ => volume,
    };
    let mut region = ns.alloc_region(region_len)?;
    // Fill untracked buffers deterministically through ntstore (tracked as
    // setup), then reset the tracker so the measured phase is clean.
    let fill: Vec<u8> = (0..region_len).map(fill_byte).collect();
    region.try_ntstore(0, &fill, AccessHint::Sequential)?;
    region.sfence();
    ns.tracker().reset();

    let region = Arc::new(region);
    let grouped_next = AtomicU64::new(0);
    let total_chunks = volume / access;
    let checksum = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..cfg.threads as u64 {
            let region = Arc::clone(&region);
            let grouped_next = &grouped_next;
            let checksum = &checksum;
            let cfg = cfg.clone();
            scope.spawn(move || {
                let mut reads = region.tracker().tally();
                let mut local_sum = 0u64;
                let mut rng = XorShift(cfg.seed ^ (t + 1).wrapping_mul(0x2545_F491_4F6C_DD1D));
                match cfg.pattern {
                    Pattern::SequentialGrouped => loop {
                        let chunk = grouped_next.fetch_add(1, Ordering::Relaxed);
                        if chunk >= total_chunks {
                            break;
                        }
                        let data = region.read_tallied(
                            chunk * access,
                            access,
                            AccessHint::Sequential,
                            &mut reads,
                        );
                        local_sum = local_sum.wrapping_add(sum_bytes(data));
                    },
                    Pattern::SequentialIndividual => {
                        let per_thread = total_chunks / cfg.threads as u64;
                        let base = t * per_thread * access;
                        for i in 0..per_thread {
                            let data = region.read_tallied(
                                base + i * access,
                                access,
                                AccessHint::Sequential,
                                &mut reads,
                            );
                            local_sum = local_sum.wrapping_add(sum_bytes(data));
                        }
                    }
                    Pattern::Random { .. } => {
                        let per_thread = total_chunks / cfg.threads as u64;
                        let slots = region.len() / access;
                        for _ in 0..per_thread {
                            let slot = rng.next() % slots.max(1);
                            let data = region.read_tallied(
                                slot * access,
                                access,
                                AccessHint::Random,
                                &mut reads,
                            );
                            local_sum = local_sum.wrapping_add(sum_bytes(data));
                        }
                    }
                }
                checksum.fetch_add(local_sum, Ordering::Relaxed);
            });
        }
    });

    let moved = ns.tracker().snapshot().read_bytes();
    Ok((moved, checksum.load(Ordering::Relaxed)))
}

fn write_traffic(ns: &Namespace, cfg: &TrafficConfig) -> Result<(u64, u64)> {
    let access = cfg.access_size;
    let volume = cfg.volume.max(access) / access * access;
    let per_thread = volume / cfg.threads as u64 / access * access;
    // Writers get disjoint regions (the harness equivalent of "individual
    // memory regions"; grouped writes interleave chunk ids inside one
    // region per thread-pair is not expressible without &mut sharing, so
    // each thread owns its stripe — the tracker signature is identical).
    let mut regions: Vec<Region> = (0..cfg.threads)
        .map(|_| ns.alloc_region(per_thread.max(access)))
        .collect::<Result<_>>()?;
    ns.tracker().reset();

    let payload: Vec<u8> = (0..access).map(fill_byte).collect();
    let tracker = ns.tracker();
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(regions.len());
        for (t, region) in regions.iter_mut().enumerate() {
            let payload = &payload;
            let cfg = cfg.clone();
            workers.push(scope.spawn(move || -> Result<()> {
                let mut writes = tracker.tally();
                let mut rng = XorShift(cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9));
                let ops = per_thread / access;
                for i in 0..ops {
                    let offset = match cfg.pattern {
                        Pattern::Random { .. } => {
                            let slots = (region.len() / access).max(1);
                            (rng.next() % slots) * access
                        }
                        _ => i * access,
                    };
                    let hint = if matches!(cfg.pattern, Pattern::Random { .. }) {
                        AccessHint::Random
                    } else {
                        AccessHint::Sequential
                    };
                    region.try_ntstore_tallied(offset, payload, hint, &mut writes)?;
                    region.sfence_tallied(&mut writes);
                }
                Ok(())
            }));
        }
        // The first failed worker's error, in spawn order.
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("write worker"))
    })?;

    let moved = ns.tracker().snapshot().write_bytes();
    Ok((moved, 0))
}

#[inline]
fn sum_bytes(data: &[u8]) -> u64 {
    data.iter().map(|b| *b as u64).sum()
}

/// Expected checksum for sequentially reading `volume` bytes of fill data.
pub fn expected_checksum(volume: u64) -> u64 {
    (0..volume).map(|o| fill_byte(o) as u64).sum()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use pmem_sim::topology::SocketId;

    fn ns() -> Namespace {
        Namespace::devdax(SocketId(0), 256 << 20)
    }

    #[test]
    fn grouped_reads_cover_the_whole_volume_exactly_once() {
        let ns = ns();
        let cfg = TrafficConfig::new(AccessKind::Read, Pattern::SequentialGrouped, 4096, 8);
        let report = run_traffic(&ns, &cfg).unwrap();
        assert_eq!(report.bytes, cfg.volume);
        assert_eq!(report.checksum, expected_checksum(cfg.volume));
        assert_eq!(report.delta.rand_read_bytes, 0);
    }

    #[test]
    fn individual_reads_cover_disjoint_ranges() {
        let ns = ns();
        let cfg = TrafficConfig::new(AccessKind::Read, Pattern::SequentialIndividual, 4096, 4);
        let report = run_traffic(&ns, &cfg).unwrap();
        assert_eq!(report.bytes, cfg.volume);
        assert_eq!(report.checksum, expected_checksum(cfg.volume));
    }

    #[test]
    fn random_reads_are_tracked_as_random() {
        let ns = ns();
        let mut cfg = TrafficConfig::new(
            AccessKind::Read,
            Pattern::Random {
                region_bytes: 1 << 20,
            },
            256,
            4,
        );
        cfg.volume = 1 << 20;
        let report = run_traffic(&ns, &cfg).unwrap();
        assert!(report.delta.rand_read_bytes > 0);
        assert_eq!(report.delta.seq_read_bytes, 0);
    }

    #[test]
    fn writes_land_with_persistence_and_sequential_signature() {
        let ns = ns();
        let cfg = TrafficConfig::new(AccessKind::Write, Pattern::SequentialIndividual, 4096, 4);
        let report = run_traffic(&ns, &cfg).unwrap();
        assert_eq!(report.bytes, cfg.volume);
        assert_eq!(report.delta.seq_write_bytes, cfg.volume);
        assert!(report.delta.sfences >= cfg.volume / 4096);
    }

    #[test]
    fn odd_thread_counts_do_not_lose_much_volume() {
        let ns = ns();
        let cfg = TrafficConfig::new(AccessKind::Read, Pattern::SequentialIndividual, 4096, 7);
        let report = run_traffic(&ns, &cfg).unwrap();
        // Up to threads-1 trailing chunks may be unassigned.
        assert!(report.bytes >= cfg.volume - 7 * 4096);
    }

    #[test]
    fn random_writes_are_tracked_as_random() {
        let ns = ns();
        let mut cfg = TrafficConfig::new(
            AccessKind::Write,
            Pattern::Random {
                region_bytes: 1 << 20,
            },
            256,
            2,
        );
        cfg.volume = 1 << 20;
        let report = run_traffic(&ns, &cfg).unwrap();
        assert!(report.delta.rand_write_bytes > 0);
        assert_eq!(report.delta.seq_write_bytes, 0);
    }
}
