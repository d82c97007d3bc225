//! `ndctl`-style namespace management (paper §2.1, §2.3).
//!
//! A namespace is one socket's slice of (simulated) memory configured in a
//! particular mode:
//!
//! * **devdax** — App Direct as a character device: no filesystem, no page
//!   cache, no page faults once mapped. The paper's recommendation for
//!   full-control OLAP systems (Best Practice #7).
//! * **fsdax** — App Direct through a DAX filesystem: identical bandwidth
//!   trends but 5–10 % slower because `mmap` returns zeroed memory and every
//!   first touch of a (2 MB) page faults into the kernel (~0.5 ms each).
//! * **Memory Mode** — PMEM transparently extends DRAM; no persistence
//!   guarantee (dirty lines in the DRAM "L4" cache are lost on power loss).
//! * **dram** — plain volatile DRAM, for the paper's PMEM-vs-DRAM contrast
//!   experiments.
//!
//! A region holds its bytes of its namespace's budget until it drops, so
//! an error path that drops what it allocated gives every byte back; a
//! region that outlives its namespace just frees its memory.
//!
//! A namespace recycles the host memory of its large regions. A dropped
//! region of at least [`POOL_MIN_BYTES`] hands its host buffer (its
//! bytes) to the namespace's pool, which keeps at most [`POOL_IMAGES`] of
//! them, the largest. [`Namespace::alloc_region`] of at least that size,
//! and so [`Namespace::alloc_region_stored`], reuses the smallest pooled
//! image that fits, zero-filled. Reuse moves only host time: a recycled
//! region is indistinguishable from a fresh one, its fsdax pages
//! unfaulted in the model included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem_sim::params::DeviceClass;
use pmem_sim::topology::SocketId;

use crate::region::{AccessHint, FaultModel, Region};
use crate::tracker::{AccessTracker, Tally};
use crate::{Result, StoreError};

/// The fsdax page size when PMEM is configured with `ndctl` (§2.3): the
/// granularity every fsdax region faults at.
pub const FSDAX_PAGE: u64 = 2 << 20;

/// Regions of at least this many bytes recycle their host images through
/// their namespace's pool; smaller ones leave theirs to the allocator.
pub const POOL_MIN_BYTES: u64 = 1 << 20;

/// Host images a namespace's pool keeps at most: the two largest it was
/// given. One carries the unaware engine's intermediates from stage to
/// stage and from query to query (a stage's input drops before its output
/// lands); the other keeps the next-largest region of a namespace that
/// holds several, such as a chained index's bucket array beside its nodes.
pub const POOL_IMAGES: usize = 2;

/// The host images (byte buffers) of a namespace's dropped regions, kept
/// for reuse.
#[derive(Debug, Default)]
struct ImagePool {
    images: Mutex<Vec<Vec<u8>>>,
    /// Allocations of at least [`POOL_MIN_BYTES`] no pooled image fitted.
    fresh: AtomicU64,
}

impl ImagePool {
    /// `len` zero bytes: in the smallest pooled image that holds them, for
    /// an allocation of at least [`POOL_MIN_BYTES`]; otherwise in a fresh
    /// zeroed allocation, whose pages the host zeroes on first touch.
    fn take(&self, len: u64) -> Vec<u8> {
        let pooled = if len < POOL_MIN_BYTES {
            None
        } else {
            let mut images = self.images.lock();
            let best = (0..images.len())
                .filter(|&at| images[at].capacity() as u64 >= len)
                .min_by_key(|&at| images[at].capacity());
            if best.is_none() {
                self.fresh.fetch_add(1, Ordering::Relaxed);
            }
            best.map(|at| images.swap_remove(at))
        };
        match pooled {
            // Zero-filled outside the lock.
            Some(mut image) => {
                image.clear();
                image.resize(len as usize, 0);
                image
            }
            None => vec![0; len as usize],
        }
    }

    /// Keep the image of a dropped region of at least [`POOL_MIN_BYTES`]
    /// if the pool has room or holds a smaller one, which it frees instead.
    fn give(&self, image: Vec<u8>) {
        if (image.capacity() as u64) < POOL_MIN_BYTES {
            return;
        }
        let mut images = self.images.lock();
        let freed = if images.len() < POOL_IMAGES {
            images.push(image);
            None
        } else {
            let smallest = (0..images.len()).min_by_key(|&at| images[at].capacity());
            match smallest {
                Some(at) if images[at].capacity() < image.capacity() => {
                    Some(std::mem::replace(&mut images[at], image))
                }
                _ => Some(image),
            }
        };
        drop(images);
        drop(freed); // freed outside the lock
    }
}

/// Namespace operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamespaceMode {
    /// App Direct via a character device (`/dev/daxX.Y`).
    DevDax,
    /// App Direct via a DAX filesystem; first-touch page faults apply, one
    /// per [`FSDAX_PAGE`] page.
    FsDax,
    /// PMEM as transparent volatile main-memory extension.
    MemoryMode,
    /// Volatile DRAM.
    Dram,
}

impl NamespaceMode {
    /// Whether regions of this mode guarantee persistence.
    pub fn is_persistent(self) -> bool {
        matches!(self, NamespaceMode::DevDax | NamespaceMode::FsDax)
    }

    /// The device class whose bandwidth model times accesses in this mode.
    pub fn device_class(self) -> DeviceClass {
        match self {
            NamespaceMode::Dram => DeviceClass::Dram,
            _ => DeviceClass::Pmem,
        }
    }
}

/// One socket's memory namespace: a capacity budget, an access tracker, and
/// a region factory.
///
/// Cloning is cheap (`Arc` inside) and clones share the same budget and
/// tracker — data structures keep a clone so they can allocate later (e.g.
/// Dash segment splits).
#[derive(Debug, Clone)]
pub struct Namespace {
    inner: Arc<NamespaceInner>,
}

/// A namespace's shared state. Its regions hold it weakly, so a region
/// that outlives the namespace keeps none of it alive.
#[derive(Debug)]
pub(crate) struct NamespaceInner {
    mode: NamespaceMode,
    socket: SocketId,
    capacity: u64,
    used: AtomicU64,
    tracker: Arc<AccessTracker>,
    /// Host images of dropped regions.
    pool: ImagePool,
}

impl NamespaceInner {
    /// Take back a dropped region's bytes: their length leaves `used`, and
    /// the pool may keep their host buffer.
    pub(crate) fn reclaim(&self, bytes: Vec<u8>) {
        self.used.fetch_sub(bytes.len() as u64, Ordering::Relaxed);
        self.pool.give(bytes);
    }
}

impl Namespace {
    fn new(mode: NamespaceMode, socket: SocketId, capacity: u64) -> Self {
        Namespace {
            inner: Arc::new(NamespaceInner {
                mode,
                socket,
                capacity,
                used: AtomicU64::new(0),
                tracker: AccessTracker::shared(),
                pool: ImagePool::default(),
            }),
        }
    }

    /// App Direct devdax namespace.
    pub fn devdax(socket: SocketId, capacity: u64) -> Self {
        Self::new(NamespaceMode::DevDax, socket, capacity)
    }

    /// App Direct fsdax namespace, faulting per 2 MB page.
    pub fn fsdax(socket: SocketId, capacity: u64) -> Self {
        Self::new(NamespaceMode::FsDax, socket, capacity)
    }

    /// Memory-Mode namespace (volatile PMEM behind the DRAM cache).
    pub fn memory_mode(socket: SocketId, capacity: u64) -> Self {
        Self::new(NamespaceMode::MemoryMode, socket, capacity)
    }

    /// Volatile DRAM namespace.
    pub fn dram(socket: SocketId, capacity: u64) -> Self {
        Self::new(NamespaceMode::Dram, socket, capacity)
    }

    /// The namespace mode.
    pub fn mode(&self) -> NamespaceMode {
        self.inner.mode
    }

    /// The socket whose DIMMs back this namespace.
    pub fn socket(&self) -> SocketId {
        self.inner.socket
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Bytes held by this namespace's live regions.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.inner.capacity - self.used()
    }

    /// Whether regions of this namespace survive power loss.
    pub fn is_persistent(&self) -> bool {
        self.inner.mode.is_persistent()
    }

    /// The device class timing accesses to this namespace.
    pub fn device_class(&self) -> DeviceClass {
        self.inner.mode.device_class()
    }

    /// The shared access tracker all regions of this namespace report into.
    pub fn tracker(&self) -> &Arc<AccessTracker> {
        &self.inner.tracker
    }

    /// A worker's [`Tally`] of this namespace's tracker: the `*_tallied`
    /// accesses of this namespace's regions count into it, and it adds its
    /// counts into the tracker when it drops.
    pub fn tally(&self) -> Tally<'_> {
        self.inner.tracker.tally()
    }

    /// Host images the pool holds now (at most [`POOL_IMAGES`]).
    pub fn pooled_images(&self) -> usize {
        self.inner.pool.images.lock().len()
    }

    /// Allocations of at least [`POOL_MIN_BYTES`] so far that found no
    /// pooled image to reuse and allocated their host memory fresh.
    pub fn fresh_images(&self) -> u64 {
        self.inner.pool.fresh.load(Ordering::Relaxed)
    }

    /// Allocate a zeroed region of `len` bytes. It holds `len` bytes of
    /// the budget until it drops.
    pub fn alloc_region(&self, len: u64) -> Result<Region> {
        self.charge(len)?;
        let data = self.inner.pool.take(len);
        let fault = match self.inner.mode {
            NamespaceMode::FsDax => Some(FaultModel::new(FSDAX_PAGE, len)),
            _ => None,
        };
        Ok(Region::from_zeros(
            data,
            Arc::clone(&self.inner.tracker),
            self.is_persistent(),
            fault,
            Arc::downgrade(&self.inner),
        ))
    }

    /// Allocate a region of the parts' total length already holding
    /// `parts`, in order, persisted: exactly [`Namespace::alloc_region`],
    /// one gather store of `parts` at offset 0 with `hint`, and one
    /// `sfence`, both counted into `tally` (a tally of this namespace).
    /// The store saves no pre-image, since nothing was fenced before it,
    /// so the region's only host memory is its bytes.
    pub fn alloc_region_stored<B: AsRef<[u8]>>(
        &self,
        parts: &[B],
        hint: AccessHint,
        tally: &mut Tally<'_>,
    ) -> Result<Region> {
        let len = parts.iter().map(|p| p.as_ref().len() as u64).sum();
        let mut region = self.alloc_region(len)?;
        region.try_ntstore_gather(0, parts, hint, tally)?;
        region.sfence_tallied(tally);
        Ok(region)
    }

    /// Charge `len` bytes to the namespace's capacity, atomically so
    /// concurrent allocators cannot oversubscribe.
    fn charge(&self, len: u64) -> Result<()> {
        let mut current = self.inner.used.load(Ordering::Relaxed);
        loop {
            let Some(next) = current.checked_add(len) else {
                return Err(StoreError::OutOfSpace {
                    requested: len,
                    available: self.available(),
                });
            };
            if next > self.inner.capacity {
                return Err(StoreError::OutOfSpace {
                    requested: len,
                    available: self.inner.capacity - current,
                });
            }
            match self.inner.used.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // unwrap in tests is fine
    use super::*;
    use crate::region::AccessHint;

    const S0: SocketId = SocketId(0);

    #[test]
    fn modes_classify_persistence_and_device() {
        assert!(NamespaceMode::DevDax.is_persistent());
        assert!(NamespaceMode::FsDax.is_persistent());
        assert!(!NamespaceMode::MemoryMode.is_persistent());
        assert!(!NamespaceMode::Dram.is_persistent());
        assert_eq!(NamespaceMode::DevDax.device_class(), DeviceClass::Pmem);
        assert_eq!(NamespaceMode::MemoryMode.device_class(), DeviceClass::Pmem);
        assert_eq!(NamespaceMode::Dram.device_class(), DeviceClass::Dram);
    }

    #[test]
    fn capacity_accounting() {
        let ns = Namespace::devdax(S0, 1000);
        let a = ns.alloc_region(600).unwrap();
        assert_eq!(ns.used(), 600);
        assert_eq!(ns.available(), 400);
        assert!(matches!(
            ns.alloc_region(500),
            Err(StoreError::OutOfSpace { available: 400, .. })
        ));
        drop(a);
        assert!(ns.alloc_region(500).is_ok());

        const MIB: u64 = POOL_MIN_BYTES;
        for make in MODES {
            let ns = make(S0, 4 * MIB);
            let what = format!("{:?}", ns.mode());
            // Below the pool's threshold, at it, above it, and stored.
            let regions = [
                ns.alloc_region(600).unwrap(),
                ns.alloc_region(MIB).unwrap(),
                ns.alloc_region(MIB + 600).unwrap(),
                ns.alloc_region_stored(
                    &[[7u8; 100], [8; 100]],
                    AccessHint::Sequential,
                    &mut ns.tally(),
                )
                .unwrap(),
            ];
            let held = 2 * MIB + 1400;
            assert_eq!(
                (ns.used(), ns.available()),
                (held, 4 * MIB - held),
                "{what}"
            );

            // Out of space: nothing charged.
            let over = ns.available() + 1;
            assert!(ns.alloc_region(over).is_err(), "{what}");
            let parts = [vec![0u8; over as usize]];
            assert!(matches!(
                ns.alloc_region_stored(&parts, AccessHint::Sequential, &mut ns.tally()),
                Err(StoreError::OutOfSpace { requested, .. }) if requested == over
            ));
            assert_eq!(ns.used(), held, "{what}");

            // A dropped region returns exactly its length.
            for region in regions {
                let (used, len) = (ns.used(), region.len());
                drop(region);
                assert_eq!(ns.used(), used - len, "{what}: {len} B");
            }
            assert_eq!(ns.used(), 0, "{what}");
            // So does one over a pooled image: the 1 MiB + 600 B image
            // holds 1 MiB + 300 B, and the length charged, not the image's
            // capacity, comes back.
            let parts = [vec![1u8; (MIB + 300) as usize]];
            let reused = ns
                .alloc_region_stored(&parts, AccessHint::Random, &mut ns.tally())
                .unwrap();
            assert_eq!((ns.used(), ns.fresh_images()), (MIB + 300, 2), "{what}");
            drop(reused);
            assert_eq!(ns.used(), 0, "{what}");

            // A region dropped after its namespace neither panics nor
            // counts anything.
            let orphans = [ns.alloc_region(600).unwrap(), ns.alloc_region(MIB).unwrap()];
            let tracker = Arc::clone(ns.tracker());
            let counts = tracker.snapshot();
            drop(ns);
            drop(orphans);
            assert_eq!(tracker.snapshot(), counts, "{what}");
        }
    }

    #[test]
    fn devdax_regions_have_no_page_faults() {
        let ns = Namespace::devdax(S0, 8 << 20);
        let r = ns.alloc_region(4 << 20).unwrap();
        r.read(0, 1024, AccessHint::Sequential);
        assert_eq!(ns.tracker().snapshot().page_faults, 0);
    }

    #[test]
    fn fsdax_regions_fault_on_first_touch() {
        let ns = Namespace::fsdax(S0, 8 << 20);
        let r = ns.alloc_region(4 << 20).unwrap();
        r.read(0, 1024, AccessHint::Sequential);
        r.read((2 << 20) + 5, 10, AccessHint::Random);
        assert_eq!(ns.tracker().snapshot().page_faults, 2);
    }

    #[test]
    fn memory_mode_regions_do_not_persist() {
        let ns = Namespace::memory_mode(S0, 1 << 20);
        let mut r = ns.alloc_region(4096).unwrap();
        r.ntstore(0, b"x");
        r.sfence();
        assert!(!r.is_persisted(0, 1));
        // A fenced store is lost to a crash.
        r.crash();
        assert_ne!(r.read(0, 1, AccessHint::Sequential), b"x");
    }

    #[test]
    fn tracker_is_shared_across_regions() {
        let ns = Namespace::devdax(S0, 1 << 20);
        let a = ns.alloc_region(4096).unwrap();
        let b = ns.alloc_region(4096).unwrap();
        a.read(0, 64, AccessHint::Sequential);
        b.read(0, 64, AccessHint::Sequential);
        assert_eq!(ns.tracker().snapshot().read_ops, 2);
    }

    #[test]
    fn overflow_requests_are_rejected() {
        let ns = Namespace::devdax(S0, u64::MAX);
        let _held = ns.alloc_region(10).unwrap();
        assert!(ns.alloc_region(u64::MAX).is_err());
    }

    /// Every namespace mode.
    const MODES: [fn(SocketId, u64) -> Namespace; 4] = [
        Namespace::devdax,
        Namespace::fsdax,
        Namespace::memory_mode,
        Namespace::dram,
    ];

    #[test]
    fn the_pool_keeps_the_largest_images_and_lends_the_tightest() {
        const MIB: u64 = POOL_MIN_BYTES;
        let ns = Namespace::devdax(S0, 64 << 20);
        let live: Vec<Region> = [MIB - 1, 3 * MIB, 2 * MIB, 4 * MIB]
            .map(|len| ns.alloc_region(len).unwrap())
            .into();
        drop(live);
        // The image under the threshold never counted or pooled, and the
        // 2 MiB one was freed to keep the 4 MiB one.
        assert_eq!((ns.fresh_images(), ns.pooled_images()), (3, POOL_IMAGES));
        // 2.5 MiB fits both pooled images and takes the tighter 3 MiB one,
        // so 3.5 MiB still finds the 4 MiB one; 5 MiB fits none.
        let a = ns.alloc_region(5 * MIB / 2).unwrap();
        let b = ns.alloc_region(7 * MIB / 2).unwrap();
        assert_eq!((ns.fresh_images(), ns.pooled_images()), (3, 0));
        let c = ns.alloc_region(5 * MIB).unwrap();
        let d = ns.alloc_region(MIB - 1).unwrap();
        assert_eq!((ns.fresh_images(), ns.pooled_images()), (4, 0));
        drop((a, b, c, d));
        assert_eq!(ns.pooled_images(), POOL_IMAGES);
        // A region that outlives its namespace frees its image.
        let orphan = ns.alloc_region(MIB).unwrap();
        drop(ns);
        assert!(orphan.untracked_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn a_stored_allocation_equals_alloc_store_and_fence() {
        use crate::region::CACHE_LINE;
        let big = vec![0xB7; (POOL_MIN_BYTES + 100) as usize];
        let shapes: [&[&[u8]]; 5] = [
            &[],
            &[&[]],
            &[&[1; 10]],
            &[&[2; 100], &[], &[3; 300]],
            &[&big, &[4; 28]],
        ];
        let same = |a: &Region, b: &Region, what: &str| {
            let lines = |r: &Region| -> Vec<bool> {
                (0..r.len().div_ceil(CACHE_LINE))
                    .map(|l| r.is_persisted(l * CACHE_LINE, CACHE_LINE))
                    .collect()
            };
            assert_eq!(a.len(), b.len(), "{what}");
            assert!(a.untracked_slice() == b.untracked_slice(), "{what}");
            assert_eq!(a.poisoned_lines(), b.poisoned_lines(), "{what}");
            assert_eq!(lines(a), lines(b), "{what}");
            assert_eq!(a.tracker().snapshot(), b.tracker().snapshot(), "{what}");
        };
        for make in MODES {
            for parts in shapes {
                for hint in [AccessHint::Sequential, AccessHint::Random, AccessHint::Auto] {
                    let (fused_ns, plain_ns) = (make(S0, 8 << 20), make(S0, 8 << 20));
                    // A dirty, pending, partly fenced and poisoned image in
                    // the fused namespace's pool, for the large shape.
                    let mut old = fused_ns.alloc_region(2 << 20).unwrap();
                    old.write(5, &[9; 5000]);
                    old.ntstore(1 << 20, &[8; 4096]);
                    old.sfence();
                    old.ntstore(0, &[7; 64]);
                    old.inject_poison(4096, 512);
                    drop(old);
                    fused_ns.tracker().reset();
                    let fresh0 = fused_ns.fresh_images();

                    let mut fused = fused_ns
                        .alloc_region_stored(parts, hint, &mut fused_ns.tally())
                        .unwrap();
                    let len = fused.len();
                    let mut plain = plain_ns.alloc_region(len).unwrap();
                    plain
                        .try_ntstore_gather(0, parts, hint, &mut plain_ns.tally())
                        .unwrap();
                    plain.sfence();
                    let what = format!("{:?} {len} B {hint:?}", fused_ns.mode());
                    same(&fused, &plain, &what);
                    assert_eq!(fused_ns.used(), plain_ns.used(), "{what}");
                    assert_eq!(fused_ns.fresh_images(), fresh0, "{what}: pooled");
                    assert_eq!(fused_ns.pooled_images(), usize::from(len < POOL_MIN_BYTES));

                    // The hint state carries over: an empty store at the
                    // end continues the first one, and a read starts anew.
                    for r in [&mut fused, &mut plain] {
                        r.try_ntstore(len, &[], AccessHint::Auto).unwrap();
                        r.read(0, len.min(64), AccessHint::Auto);
                    }
                    same(&fused, &plain, &what);
                    // The persisted images: overwrite every byte through the
                    // cache and lose it to a crash.
                    let lost: Vec<u64> = [&mut fused, &mut plain]
                        .map(|r| {
                            r.try_write(0, &vec![0xEE; len as usize], AccessHint::Random)
                                .unwrap();
                            r.crash()
                        })
                        .into();
                    assert_eq!(lost[0], lost[1], "{what}");
                    same(&fused, &plain, &what);
                    let persisted = if fused_ns.is_persistent() {
                        parts.concat()
                    } else {
                        vec![0; len as usize]
                    };
                    assert!(fused.untracked_slice() == persisted, "{what}");
                }
            }
        }
        // Out of space: nothing charged, nothing counted.
        let ns = Namespace::devdax(S0, 100);
        assert!(matches!(
            ns.alloc_region_stored(&[[0u8; 101]], AccessHint::Sequential, &mut ns.tally()),
            Err(StoreError::OutOfSpace {
                requested: 101,
                available: 100
            })
        ));
        assert_eq!(ns.used(), 0);
        assert_eq!(ns.tracker().snapshot(), Default::default());
    }
}
