//! The machine: sockets, NUMA nodes, iMCs, channels, DIMMs, cores, UPI.
//!
//! The default topology is the paper's benchmark server (§2.3, Figure 1):
//! a dual-socket Intel Xeon Gold 5220S system.
//!
//! * 2 sockets, connected by one UPI link (~40 GB/s raw per direction).
//! * 18 physical cores per socket, 2-way hyperthreading → 72 logical cores.
//! * 2 integrated memory controllers (iMCs) per socket, 3 channels each.
//! * One 128 GB Optane DIMM **and** one 16 GB DRAM DIMM per channel →
//!   6 PMEM + 6 DRAM DIMMs per socket, 1.5 TB PMEM + 186 GB DRAM total.
//! * 4 NUMA nodes: each is 9 physical cores + 1 iMC (3 channels). Two nodes
//!   form a *NUMA region* (one socket); intra-region distances are nearly
//!   identical, inter-region access crosses the UPI.
//!
//! PMEM data is interleaved across the 6 DIMMs of a socket in 4 KB stripes
//! (Figure 2), which [`InterleaveMap`] models; that map is what makes access
//! size interact with thread-to-DIMM distribution throughout the paper.

/// Identifier of a CPU socket (= NUMA *region* in the paper's terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub u8);

impl SocketId {
    /// The other socket in a dual-socket system.
    pub fn peer(self) -> SocketId {
        SocketId(1 - self.0)
    }
}

/// Identifier of a NUMA node (half a socket: 9 cores + 1 iMC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NumaNodeId(pub u8);

impl NumaNodeId {
    /// The socket this node belongs to.
    pub fn socket(self, nodes_per_socket: u8) -> SocketId {
        SocketId(self.0 / nodes_per_socket)
    }
}

/// Identifier of a logical core. Logical cores `0..cores` are the first
/// hyperthread of each physical core; `cores..2*cores` are the siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub u16);

/// Identifier of a memory channel within a socket (0..6 on the paper system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u8);

/// Identifier of a DIMM, global across the system. On the paper system the
/// PMEM DIMMs are `#0..#5` on socket 0 and `#6..#11` on socket 1 (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimmId(pub u8);

/// Which iMC of a socket a channel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImcId(pub u8);

/// Static description of the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Number of CPU sockets.
    pub sockets: u8,
    /// NUMA nodes per socket (2 on Xeon Gold 5220S with sub-NUMA clustering).
    pub numa_nodes_per_socket: u8,
    /// Physical cores per socket.
    pub cores_per_socket: u16,
    /// Hyperthreads per physical core.
    pub smt: u8,
    /// iMCs per socket.
    pub imcs_per_socket: u8,
    /// Memory channels per iMC.
    pub channels_per_imc: u8,
    /// Capacity of one Optane DIMM in bytes (128 GB on the paper system).
    pub pmem_dimm_capacity: u64,
    /// Capacity of one DRAM DIMM in bytes (16 GB on the paper system).
    pub dram_dimm_capacity: u64,
    /// PMEM interleave stripe size across the DIMMs of a socket (4 KB).
    pub interleave_bytes: u64,
}

impl Machine {
    /// The paper's benchmark server (§2.3).
    pub fn paper_default() -> Self {
        Machine {
            sockets: 2,
            numa_nodes_per_socket: 2,
            cores_per_socket: 18,
            smt: 2,
            imcs_per_socket: 2,
            channels_per_imc: 3,
            pmem_dimm_capacity: 128 << 30,
            dram_dimm_capacity: 16 << 30,
            interleave_bytes: 4096,
        }
    }

    /// Channels (= PMEM DIMMs = DRAM DIMMs) per socket.
    pub fn channels_per_socket(&self) -> u8 {
        self.imcs_per_socket * self.channels_per_imc
    }

    /// PMEM DIMMs in the whole system.
    pub fn total_pmem_dimms(&self) -> u8 {
        self.sockets * self.channels_per_socket()
    }

    /// Total PMEM capacity in bytes (1.5 TB on the paper system).
    pub fn total_pmem_capacity(&self) -> u64 {
        self.total_pmem_dimms() as u64 * self.pmem_dimm_capacity
    }

    /// Total DRAM capacity in bytes (186 GB — the paper rounds 192 GiB of
    /// raw DIMM capacity to the ~186 GB usable figure; we report raw).
    pub fn total_dram_capacity(&self) -> u64 {
        self.sockets as u64 * self.channels_per_socket() as u64 * self.dram_dimm_capacity
    }

    /// PMEM capacity of one socket's interleave set.
    pub fn socket_pmem_capacity(&self) -> u64 {
        self.channels_per_socket() as u64 * self.pmem_dimm_capacity
    }

    /// Logical cores per socket.
    pub fn logical_cores_per_socket(&self) -> u16 {
        self.cores_per_socket * self.smt as u16
    }

    /// Logical cores in the whole system.
    pub fn total_logical_cores(&self) -> u16 {
        self.sockets as u16 * self.logical_cores_per_socket()
    }

    /// Physical cores in the whole system.
    pub fn total_physical_cores(&self) -> u16 {
        self.sockets as u16 * self.cores_per_socket
    }

    /// Physical cores per NUMA node.
    pub fn cores_per_numa_node(&self) -> u16 {
        self.cores_per_socket / self.numa_nodes_per_socket as u16
    }

    /// The socket a logical core belongs to. Cores are numbered socket-major:
    /// physical threads `0..18` on socket 0, `18..36` on socket 1, then the
    /// hyperthread siblings `36..54` (socket 0) and `54..72` (socket 1) —
    /// mirroring Linux's enumeration on the paper machine.
    pub fn socket_of_core(&self, core: CoreId) -> SocketId {
        let phys_total = self.total_physical_cores();
        let idx = core.0 % phys_total;
        SocketId((idx / self.cores_per_socket) as u8)
    }

    /// Whether the logical core is a hyperthread sibling (second thread of a
    /// physical core).
    pub fn is_hyperthread(&self, core: CoreId) -> bool {
        core.0 >= self.total_physical_cores()
    }

    /// The physical core index (within the system) of a logical core.
    pub fn physical_of(&self, core: CoreId) -> u16 {
        core.0 % self.total_physical_cores()
    }

    /// The interleave map of one socket's PMEM interleave set.
    pub fn interleave_map(&self) -> InterleaveMap {
        InterleaveMap {
            dimms: self.channels_per_socket(),
            stripe: self.interleave_bytes,
        }
    }
}

/// The 4 KB striping of a socket-wide PMEM interleave set across its DIMMs
/// (paper Figure 2): byte `b` lives on DIMM `(b / 4096) % 6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleaveMap {
    /// Number of DIMMs in the interleave set.
    pub dimms: u8,
    /// Stripe size in bytes.
    pub stripe: u64,
}

impl InterleaveMap {
    /// The DIMM (index within the socket) holding byte offset `offset`.
    #[inline]
    pub fn dimm_of(&self, offset: u64) -> u8 {
        ((offset / self.stripe) % self.dimms as u64) as u8
    }

    /// Number of *distinct* DIMMs touched by a contiguous access
    /// `[offset, offset + len)`.
    pub fn dimms_touched(&self, offset: u64, len: u64) -> u8 {
        if len == 0 {
            return 0;
        }
        let first = offset / self.stripe;
        let last = (offset + len - 1) / self.stripe;
        let stripes = last - first + 1;
        stripes.min(self.dimms as u64) as u8
    }

    /// Expected number of distinct DIMMs kept busy by `streams` independent
    /// sequential streams, each with `window` bytes in flight, at uniformly
    /// random stripe phases (balls-into-bins coverage). This is what makes
    /// *individual* access insensitive to access size (paper §3.1): each
    /// stream's in-flight window slides over all DIMMs regardless of the
    /// per-call access size.
    pub fn expected_coverage(&self, streams: u32, window: u64) -> f64 {
        if streams == 0 || window == 0 {
            return 0.0;
        }
        let d = self.dimms as f64;
        // Each stream covers ceil(window/stripe) consecutive stripes; with
        // random phases the per-DIMM miss probability multiplies out.
        let stripes_per_stream = (window as f64 / self.stripe as f64).max(1.0);
        let balls = streams as f64 * stripes_per_stream;
        d * (1.0 - (1.0 - 1.0 / d).powf(balls))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Machine {
        Machine::paper_default()
    }

    #[test]
    fn paper_capacities() {
        let m = m();
        assert_eq!(m.total_pmem_dimms(), 12);
        assert_eq!(m.total_pmem_capacity(), 1536 << 30); // 1.5 TB
        assert_eq!(m.total_dram_capacity(), 192 << 30);
        assert_eq!(m.socket_pmem_capacity(), 768 << 30);
    }

    #[test]
    fn paper_core_counts() {
        let m = m();
        assert_eq!(m.total_physical_cores(), 36);
        assert_eq!(m.total_logical_cores(), 72);
        assert_eq!(m.logical_cores_per_socket(), 36);
        assert_eq!(m.cores_per_numa_node(), 9);
    }

    #[test]
    fn socket_of_core_is_socket_major_with_siblings_last() {
        let m = m();
        assert_eq!(m.socket_of_core(CoreId(0)), SocketId(0));
        assert_eq!(m.socket_of_core(CoreId(17)), SocketId(0));
        assert_eq!(m.socket_of_core(CoreId(18)), SocketId(1));
        assert_eq!(m.socket_of_core(CoreId(35)), SocketId(1));
        // Hyperthread siblings map back to the same sockets.
        assert_eq!(m.socket_of_core(CoreId(36)), SocketId(0));
        assert_eq!(m.socket_of_core(CoreId(54)), SocketId(1));
        assert!(!m.is_hyperthread(CoreId(35)));
        assert!(m.is_hyperthread(CoreId(36)));
        assert_eq!(m.physical_of(CoreId(36)), 0);
    }

    #[test]
    fn socket_peer() {
        assert_eq!(SocketId(0).peer(), SocketId(1));
        assert_eq!(SocketId(1).peer(), SocketId(0));
    }

    #[test]
    fn interleave_matches_figure_2() {
        // Figure 2: 4 KB stripes across DIMMs #0..#5; 24 KB wraps around.
        let il = m().interleave_map();
        assert_eq!(il.dimm_of(0), 0);
        assert_eq!(il.dimm_of(4095), 0);
        assert_eq!(il.dimm_of(4096), 1);
        assert_eq!(il.dimm_of(5 * 4096), 5);
        assert_eq!(il.dimm_of(6 * 4096), 0); // wraps
    }

    #[test]
    fn dimms_touched_clamps_at_set_size() {
        let il = m().interleave_map();
        assert_eq!(il.dimms_touched(0, 64), 1);
        assert_eq!(il.dimms_touched(0, 4096), 1);
        assert_eq!(il.dimms_touched(0, 4097), 2);
        assert_eq!(il.dimms_touched(0, 1 << 20), 6);
        assert_eq!(il.dimms_touched(4090, 10), 2); // straddles a stripe
        assert_eq!(il.dimms_touched(0, 0), 0);
    }

    #[test]
    fn coverage_grows_with_streams_and_saturates() {
        let il = m().interleave_map();
        let one = il.expected_coverage(1, 4096);
        let four = il.expected_coverage(4, 4096);
        let eighteen = il.expected_coverage(18, 4096);
        assert!(one < four && four < eighteen);
        assert!(eighteen <= 6.0);
        assert!(eighteen > 5.5, "18 streams should nearly cover all 6 DIMMs");
        assert_eq!(il.expected_coverage(0, 4096), 0.0);
    }

    #[test]
    fn larger_windows_increase_coverage() {
        let il = m().interleave_map();
        assert!(il.expected_coverage(2, 16 * 4096) > il.expected_coverage(2, 4096));
    }
}
