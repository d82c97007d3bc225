//! Workload vocabulary: what the paper's microbenchmarks vary.
//!
//! A [`WorkloadSpec`] captures one cell of one figure: device, operation,
//! access pattern, access size, thread count, socket placement, and pinning.

use crate::params::DeviceClass;
use crate::sched::Pinning;
use crate::topology::SocketId;

/// Read, write, or a concurrent mix (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Loads (`vmovntdqa` in the paper's kernels).
    Read,
    /// Non-temporal stores followed by `sfence`.
    Write,
}

/// Spatial access pattern (§3.1/§4.1/§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// One global sequential stream interleaved across all threads: thread 1
    /// takes bytes `0..A`, thread 2 takes `A..2A`, … ("Grouped Access").
    SequentialGrouped,
    /// Each thread streams over its own disjoint region ("Individual
    /// Access").
    SequentialIndividual,
    /// Uniformly random offsets within a region of the given size (hash
    /// probing / point lookups, §5.2). The region size matters for DRAM: a
    /// 2 GB region lives on one NUMA node and uses only half the channels.
    Random {
        /// Size of the randomly-accessed region in bytes.
        region_bytes: u64,
    },
}

impl Pattern {
    /// `true` for either sequential variant.
    pub fn is_sequential(self) -> bool {
        !matches!(self, Pattern::Random { .. })
    }
}

/// Where threads run and which socket's memory they target (§3.4–3.5,
/// §4.4–4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Threads on socket `cpu` access memory of socket `mem`. `cpu == mem`
    /// is "Near", otherwise "Far". `threads` in the spec is the total count.
    Single {
        /// Socket running the threads.
        cpu: SocketId,
        /// Socket owning the target memory.
        mem: SocketId,
    },
    /// Both sockets run `threads` threads each, every socket accessing its
    /// own near memory ("2 Near" — the linear-speedup case).
    BothNear,
    /// Both sockets run `threads` threads each, every socket accessing the
    /// *other* socket's memory ("2 Far" — UPI-bound in both directions).
    BothFar,
    /// Socket 0 accesses its near memory while socket 1 accesses the *same*
    /// memory (far for it) — the contended "1 Near 1 Far" case that is
    /// disastrous on PMEM.
    Contended,
}

impl Placement {
    /// Near single-socket placement on socket 0.
    pub const NEAR: Placement = Placement::Single {
        cpu: SocketId(0),
        mem: SocketId(0),
    };

    /// Far single-socket placement (socket 0 CPUs, socket 1 memory).
    pub const FAR: Placement = Placement::Single {
        cpu: SocketId(0),
        mem: SocketId(1),
    };

    /// Does any access cross the UPI?
    pub fn crosses_upi(self) -> bool {
        match self {
            Placement::Single { cpu, mem } => cpu != mem,
            Placement::BothNear => false,
            Placement::BothFar | Placement::Contended => true,
        }
    }

    /// Number of sockets issuing requests.
    pub fn issuing_sockets(self) -> u8 {
        match self {
            Placement::Single { .. } => 1,
            _ => 2,
        }
    }
}

/// A fully specified microbenchmark configuration — one cell of one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Target device.
    pub device: DeviceClass,
    /// Read or write. Mixed workloads use [`MixedSpec`] instead.
    pub kind: AccessKind,
    /// Spatial pattern.
    pub pattern: Pattern,
    /// Consecutive bytes accessed by one thread in one operation.
    pub access_size: u64,
    /// Thread count. For `Placement::Single` this is the total; for the
    /// dual-socket placements it is *per socket* (matching the paper's
    /// "Threads per Socket" x-axes of Figures 6 and 10).
    pub threads: u32,
    /// Socket placement.
    pub placement: Placement,
    /// Thread-to-core assignment strategy.
    pub pinning: Pinning,
    /// Total bytes moved (70 GB in most paper benchmarks; scale-invariant in
    /// the analytic model, but the DES and warm-up semantics use it).
    pub total_bytes: u64,
}

impl WorkloadSpec {
    /// Default volume used by the paper's read/write sweeps.
    pub const PAPER_VOLUME: u64 = 70 << 30;

    /// A near-socket sequential-read spec with paper-style defaults
    /// (individual pattern, Cores pinning); customize with the builder
    /// methods.
    pub fn seq_read(device: DeviceClass, access_size: u64, threads: u32) -> Self {
        WorkloadSpec {
            device,
            kind: AccessKind::Read,
            pattern: Pattern::SequentialIndividual,
            access_size,
            threads,
            placement: Placement::NEAR,
            pinning: Pinning::Cores,
            total_bytes: Self::PAPER_VOLUME,
        }
    }

    /// A near-socket sequential-write spec with paper-style defaults.
    pub fn seq_write(device: DeviceClass, access_size: u64, threads: u32) -> Self {
        WorkloadSpec {
            kind: AccessKind::Write,
            ..Self::seq_read(device, access_size, threads)
        }
    }

    /// A random-access spec over `region_bytes` (2 GB in Figure 12/13).
    pub fn random(
        device: DeviceClass,
        kind: AccessKind,
        access_size: u64,
        threads: u32,
        region_bytes: u64,
    ) -> Self {
        WorkloadSpec {
            kind,
            pattern: Pattern::Random { region_bytes },
            ..Self::seq_read(device, access_size, threads)
        }
    }

    /// Set the pattern.
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Set the placement.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Set the pinning strategy.
    pub fn pinning(mut self, pinning: Pinning) -> Self {
        self.pinning = pinning;
        self
    }

    /// Set the total volume.
    pub fn total_bytes(mut self, total: u64) -> Self {
        self.total_bytes = total;
        self
    }

    /// Total threads across all issuing sockets.
    pub fn total_threads(&self) -> u32 {
        self.threads * self.placement.issuing_sockets() as u32
    }
}

/// A concurrent read+write workload (Figure 11): `x` write threads and `y`
/// read threads on the same socket targeting the same PMEM DIMMs, each side
/// using 4 KB individual access.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedSpec {
    /// Target device.
    pub device: DeviceClass,
    /// Number of writer threads.
    pub write_threads: u32,
    /// Number of reader threads.
    pub read_threads: u32,
    /// Access size for both sides (4 KB in the paper).
    pub access_size: u64,
    /// Pinning (NUMA-region in the paper's Figure 11).
    pub pinning: Pinning,
}

impl MixedSpec {
    /// Paper-style mixed spec: 4 KB individual access, NUMA-region pinning.
    pub fn paper(device: DeviceClass, write_threads: u32, read_threads: u32) -> Self {
        MixedSpec {
            device,
            write_threads,
            read_threads,
            access_size: 4096,
            pinning: Pinning::NumaRegion,
        }
    }

    /// Total thread count.
    pub fn total_threads(&self) -> u32 {
        self.write_threads + self.read_threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper_conventions() {
        let s = WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18);
        assert_eq!(s.pattern, Pattern::SequentialIndividual);
        assert_eq!(s.pinning, Pinning::Cores);
        assert_eq!(s.placement, Placement::NEAR);
        assert_eq!(s.total_bytes, 70 << 30);
        assert_eq!(s.total_threads(), 18);
    }

    #[test]
    fn dual_socket_placements_double_threads() {
        let s = WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18).placement(Placement::BothNear);
        assert_eq!(s.total_threads(), 36);
    }

    #[test]
    fn crosses_upi() {
        assert!(!Placement::NEAR.crosses_upi());
        assert!(Placement::FAR.crosses_upi());
        assert!(!Placement::BothNear.crosses_upi());
        assert!(Placement::BothFar.crosses_upi());
        assert!(Placement::Contended.crosses_upi());
    }

    #[test]
    fn random_pattern_is_not_sequential() {
        assert!(Pattern::SequentialGrouped.is_sequential());
        assert!(Pattern::SequentialIndividual.is_sequential());
        assert!(!Pattern::Random {
            region_bytes: 2 << 30
        }
        .is_sequential());
    }

    #[test]
    fn mixed_spec_paper_defaults() {
        let m = MixedSpec::paper(DeviceClass::Pmem, 4, 18);
        assert_eq!(m.access_size, 4096);
        assert_eq!(m.pinning, Pinning::NumaRegion);
        assert_eq!(m.total_threads(), 22);
    }
}
