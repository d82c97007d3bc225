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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem_sim::params::DeviceClass;
use pmem_sim::topology::SocketId;

use crate::region::{FaultModel, Region};
use crate::tracker::{AccessTracker, Tally};
use crate::{Result, StoreError};

/// Default fsdax page size when PMEM is configured with `ndctl` (§2.3).
pub const DEFAULT_FSDAX_PAGE: u64 = 2 << 20;

/// Namespace operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamespaceMode {
    /// App Direct via a character device (`/dev/daxX.Y`).
    DevDax,
    /// App Direct via a DAX filesystem; first-touch page faults apply.
    FsDax {
        /// Fault granularity (2 MB by default).
        page_bytes: u64,
    },
    /// PMEM as transparent volatile main-memory extension.
    MemoryMode,
    /// Volatile DRAM.
    Dram,
}

impl NamespaceMode {
    /// Whether regions of this mode guarantee persistence.
    pub fn is_persistent(self) -> bool {
        matches!(self, NamespaceMode::DevDax | NamespaceMode::FsDax { .. })
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

#[derive(Debug)]
struct NamespaceInner {
    mode: NamespaceMode,
    socket: SocketId,
    capacity: u64,
    used: AtomicU64,
    tracker: Arc<AccessTracker>,
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
            }),
        }
    }

    /// App Direct devdax namespace.
    pub fn devdax(socket: SocketId, capacity: u64) -> Self {
        Self::new(NamespaceMode::DevDax, socket, capacity)
    }

    /// App Direct fsdax namespace with the default 2 MB fault granularity.
    pub fn fsdax(socket: SocketId, capacity: u64) -> Self {
        Self::new(
            NamespaceMode::FsDax {
                page_bytes: DEFAULT_FSDAX_PAGE,
            },
            socket,
            capacity,
        )
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

    /// Bytes handed out to regions.
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

    /// Allocate a region of `len` bytes.
    pub fn alloc_region(&self, len: u64) -> Result<Region> {
        // Reserve atomically so concurrent allocators cannot oversubscribe.
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
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        let fault = match self.inner.mode {
            NamespaceMode::FsDax { page_bytes } => Some(FaultModel::new(page_bytes, len)),
            _ => None,
        };
        Ok(Region::new(
            len,
            Arc::clone(&self.inner.tracker),
            self.is_persistent(),
            fault,
        ))
    }

    /// Return capacity from a dropped region (regions do not auto-return on
    /// drop; OLAP workloads allocate once and hold).
    pub fn release(&self, len: u64) {
        self.inner
            .used
            .fetch_sub(len.min(self.used()), Ordering::Relaxed);
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
        assert!(NamespaceMode::FsDax { page_bytes: 4096 }.is_persistent());
        assert!(!NamespaceMode::MemoryMode.is_persistent());
        assert!(!NamespaceMode::Dram.is_persistent());
        assert_eq!(NamespaceMode::DevDax.device_class(), DeviceClass::Pmem);
        assert_eq!(NamespaceMode::MemoryMode.device_class(), DeviceClass::Pmem);
        assert_eq!(NamespaceMode::Dram.device_class(), DeviceClass::Dram);
    }

    #[test]
    fn capacity_accounting() {
        let ns = Namespace::devdax(S0, 1000);
        let _a = ns.alloc_region(600).unwrap();
        assert_eq!(ns.used(), 600);
        assert_eq!(ns.available(), 400);
        assert!(matches!(
            ns.alloc_region(500),
            Err(StoreError::OutOfSpace { available: 400, .. })
        ));
        ns.release(600);
        assert!(ns.alloc_region(500).is_ok());
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
        ns.alloc_region(10).unwrap();
        assert!(ns.alloc_region(u64::MAX).is_err());
    }
}
