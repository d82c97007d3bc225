//! Thread-to-core assignment: the paper's three pinning strategies
//! (§3.3, §4.3) and a small OS-scheduler model for the unpinned case.
//!
//! * `None` — the scheduler freely places (and migrates) threads across all
//!   sockets. Roughly half the threads end up far from the target PMEM and
//!   the coherence mapping churns, which is why unpinned reads peak at only
//!   ~9 GB/s and unpinned writes at ~7 GB/s.
//! * `NumaRegion` — threads are confined to the NUMA region (socket) near
//!   the memory, but above 18 threads the scheduler still has to multiplex
//!   more software threads than physical cores and may split them across the
//!   region's two NUMA *nodes*, costing a few percent.
//! * `Cores` — threads are pinned to explicit cores, physical cores first,
//!   hyperthread siblings after 18; the paper's best case.

use crate::topology::{CoreId, Machine, SocketId};

/// The three pinning strategies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pinning {
    /// No pinning at all; the OS scheduler decides.
    None,
    /// `numactl`-style binding to the NUMA region near the memory.
    NumaRegion,
    /// Explicit pinning to individual cores (physical first).
    Cores,
}

impl Pinning {
    /// Human-readable label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Pinning::None => "None",
            Pinning::NumaRegion => "NUMA",
            Pinning::Cores => "Cores",
        }
    }
}

/// Where the assigned threads ended up, as seen by the bandwidth model.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadLayout {
    /// Explicit core for each thread (only for `Pinning::Cores`).
    pub cores: Option<Vec<CoreId>>,
    /// Fraction of the threads executing on the socket near the target
    /// memory, in steady state.
    pub near_fraction: f64,
    /// Number of threads running as hyperthread siblings (sharing L2 with
    /// another benchmark thread on the same physical core).
    pub hyperthreads: u32,
    /// Whether the scheduler keeps migrating threads (churns the coherence
    /// mapping — the unpinned case).
    pub migrating: bool,
    /// Scheduling-efficiency multiplier (1.0 = no overhead).
    pub sched_efficiency: f64,
}

/// Deterministic model of thread placement for a given pinning strategy.
///
/// `target` is the socket whose memory the workload accesses; `threads` is
/// the per-workload thread count (per socket for dual-socket placements —
/// call once per socket).
pub fn layout(
    machine: &Machine,
    pinning: Pinning,
    target: SocketId,
    threads: u32,
    oversub_eff: f64,
) -> ThreadLayout {
    let phys = machine.cores_per_socket as u32;
    match pinning {
        Pinning::Cores => {
            let mut cores = Vec::with_capacity(threads as usize);
            let base = target.0 as u16 * machine.cores_per_socket;
            for t in 0..threads {
                let core = if t < phys {
                    // Physical cores of the target socket first.
                    CoreId(base + t as u16)
                } else {
                    // Then hyperthread siblings (logical ids after all
                    // physical cores).
                    CoreId(machine.total_physical_cores() + base + (t - phys) as u16)
                };
                cores.push(core);
            }
            ThreadLayout {
                cores: Some(cores),
                near_fraction: 1.0,
                hyperthreads: threads.saturating_sub(phys),
                migrating: false,
                sched_efficiency: 1.0,
            }
        }
        Pinning::NumaRegion => {
            // Bound to the right region, but software threads beyond the
            // physical core count require multiplexing, and intra-region
            // placement may straddle the two NUMA nodes.
            let oversubscribed = threads > phys;
            ThreadLayout {
                cores: None,
                near_fraction: 1.0,
                hyperthreads: threads.saturating_sub(phys),
                migrating: false,
                sched_efficiency: if oversubscribed { oversub_eff } else { 1.0 },
            }
        }
        Pinning::None => {
            // The scheduler spreads runnable threads over *all* sockets; in
            // steady state roughly a proportional share sits near the target
            // memory, and threads keep migrating between sockets.
            let near = 1.0 / machine.sockets as f64;
            ThreadLayout {
                cores: None,
                near_fraction: near,
                hyperthreads: threads.saturating_sub(phys * machine.sockets as u32),
                migrating: true,
                sched_efficiency: 1.0,
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn m() -> Machine {
        Machine::paper_default()
    }

    #[test]
    fn cores_pinning_fills_physical_before_siblings() {
        let l = layout(&m(), Pinning::Cores, SocketId(0), 20, 0.97);
        let cores = l.cores.unwrap();
        assert_eq!(cores.len(), 20);
        // First 18 are physical cores 0..18 of socket 0.
        assert_eq!(cores[0], CoreId(0));
        assert_eq!(cores[17], CoreId(17));
        // 19th/20th are hyperthread siblings (ids 36, 37).
        assert_eq!(cores[18], CoreId(36));
        assert_eq!(cores[19], CoreId(37));
        assert_eq!(l.hyperthreads, 2);
        assert!((l.near_fraction - 1.0).abs() < f64::EPSILON);
        assert!(!l.migrating);
    }

    #[test]
    fn cores_pinning_targets_requested_socket() {
        let l = layout(&m(), Pinning::Cores, SocketId(1), 2, 0.97);
        let cores = l.cores.unwrap();
        assert_eq!(cores[0], CoreId(18));
        assert_eq!(m().socket_of_core(cores[0]), SocketId(1));
    }

    #[test]
    fn numa_region_pinning_has_overhead_only_when_oversubscribed() {
        let ok = layout(&m(), Pinning::NumaRegion, SocketId(0), 18, 0.97);
        assert!((ok.sched_efficiency - 1.0).abs() < f64::EPSILON);
        let over = layout(&m(), Pinning::NumaRegion, SocketId(0), 24, 0.97);
        assert!((over.sched_efficiency - 0.97).abs() < f64::EPSILON);
        assert_eq!(over.hyperthreads, 6);
    }

    #[test]
    fn no_pinning_spreads_threads_and_migrates() {
        let l = layout(&m(), Pinning::None, SocketId(0), 8, 0.97);
        assert!((l.near_fraction - 0.5).abs() < f64::EPSILON);
        assert!(l.migrating);
        assert_eq!(l.hyperthreads, 0); // 8 threads over 36 physical cores
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(Pinning::None.label(), "None");
        assert_eq!(Pinning::NumaRegion.label(), "NUMA");
        assert_eq!(Pinning::Cores.label(), "Cores");
    }
}
