//! The closed-form steady-state bandwidth model.
//!
//! Every curve in the paper's Figures 3–13 is the composition of a small set
//! of mechanisms. This module implements each mechanism as a function of the
//! [`crate::params::SystemParams`] calibration constants and
//! composes them per workload:
//!
//! 1. **Per-thread issue rate** — a core sustains only a bounded number of
//!    outstanding cache-line transfers, so few threads cannot saturate the
//!    DIMMs (reads need ≥16 threads, writes only ~4).
//! 2. **DIMM coverage** — the 4 KB interleave map decides how many of the
//!    six DIMMs the in-flight window of all threads keeps busy. Grouped
//!    small accesses pile onto one DIMM; individual streams cover all six.
//! 3. **CPU prefetcher** — helps sequential reads, collapses at 1–2 KB
//!    grouped strides, and pollutes the shared L2 of hyperthread pairs.
//! 4. **Write-combining buffer** — merges 64 B stores into 256 B XPLines;
//!    too much in-flight write footprint forces partial flushes and write
//!    amplification (the Figure 8 "boomerang").
//! 5. **UPI** — far traffic is capped by ~30 GB/s payload per direction and
//!    pays the coherence-remapping warm-up on first touch.
//! 6. **Mixed interference** — reads and writes share iMC/media capacity in
//!    utilization units with an efficiency that sinks as writers are added.
//!
//! The submodules hold the per-operation composition; this module exposes
//! [`BandwidthModel`].

mod mixed;
mod random;
mod read;
mod write;

pub use mixed::MixedEvaluation;

use crate::bandwidth::Bandwidth;
use crate::coherence::MappingState;
use crate::params::{DeviceClass, SystemParams};
use crate::sched::{self, ThreadLayout};
use crate::topology::SocketId;
use crate::workload::{AccessKind, MixedSpec, Pattern, Placement, WorkloadSpec};

/// Closed-form bandwidth model over a parameter set.
#[derive(Debug, Clone, Default)]
pub struct BandwidthModel {
    params: SystemParams,
}

/// How warm the coherence mapping is for each socket participating in a
/// far access. Produced by the stateful [`Simulation`](crate::Simulation)
/// wrapper; `Warm` everywhere when evaluating statelessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceView {
    /// Mapping state for socket 0's accesses.
    pub socket0: MappingState,
    /// Mapping state for socket 1's accesses.
    pub socket1: MappingState,
}

impl CoherenceView {
    /// Everything warm — steady-state behaviour.
    pub const WARM: CoherenceView = CoherenceView {
        socket0: MappingState::Warm,
        socket1: MappingState::Warm,
    };

    /// Everything cold — first touch from both sockets.
    pub const COLD: CoherenceView = CoherenceView {
        socket0: MappingState::Cold,
        socket1: MappingState::Cold,
    };

    /// State for a given socket.
    pub fn for_socket(&self, s: SocketId) -> MappingState {
        if s.0 == 0 {
            self.socket0
        } else {
            self.socket1
        }
    }
}

impl BandwidthModel {
    /// Model over the given parameters.
    pub fn new(params: SystemParams) -> Self {
        BandwidthModel { params }
    }

    /// Model over the paper-default parameters.
    pub fn paper_default() -> Self {
        Self::new(SystemParams::paper_default())
    }

    /// Access the parameter set.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Steady-state bandwidth of a single-kind workload (read-only or
    /// write-only). `coherence` supplies warm/cold mapping states for far
    /// access; pass [`CoherenceView::WARM`] for steady state.
    pub fn bandwidth(&self, spec: &WorkloadSpec, coherence: CoherenceView) -> Bandwidth {
        // Single-socket machines have no second socket to place on: every
        // placement degenerates to near access.
        if self.params.machine.sockets < 2 && spec.placement != Placement::NEAR {
            let near = WorkloadSpec {
                placement: Placement::NEAR,
                ..spec.clone()
            };
            return self.bandwidth(&near, coherence);
        }
        match spec.placement {
            Placement::Single { cpu, mem } => {
                self.single_socket(spec, cpu, mem, coherence.for_socket(cpu))
            }
            Placement::BothNear => {
                // Linear speedup: both sockets independently hit their near
                // memory; no UPI traffic at all (§3.5 case iii). PMEM scales
                // fully (2×40 ≈ 80 GB/s); DRAM shows a small dual-socket
                // efficiency loss (paper measured 185, not 200 GB/s).
                let s0 = self.single_socket(spec, SocketId(0), SocketId(0), MappingState::Warm);
                let s1 = self.single_socket(spec, SocketId(1), SocketId(1), MappingState::Warm);
                let eff = if spec.device == DeviceClass::Dram {
                    0.925
                } else {
                    1.0
                };
                (s0 + s1).scale(eff)
            }
            Placement::BothFar => self.both_far(spec, coherence),
            Placement::Contended => self.contended(spec, coherence),
        }
    }

    /// Concurrent read/write bandwidth on the same socket and DIMMs
    /// (Figure 11).
    pub fn mixed(&self, spec: &MixedSpec) -> MixedEvaluation {
        mixed::evaluate(&self.params, spec)
    }

    fn single_socket(
        &self,
        spec: &WorkloadSpec,
        cpu: SocketId,
        mem: SocketId,
        mapping: MappingState,
    ) -> Bandwidth {
        let layout = sched::layout(
            &self.params.machine,
            spec.pinning,
            mem,
            spec.threads,
            self.params.cpu.numa_region_oversub_eff,
        );
        let far = cpu != mem;
        match (spec.kind, &spec.pattern) {
            (AccessKind::Read, Pattern::Random { region_bytes }) => {
                random::read(&self.params, spec, *region_bytes, &layout)
            }
            (AccessKind::Write, Pattern::Random { region_bytes }) => {
                random::write(&self.params, spec, *region_bytes, &layout)
            }
            (AccessKind::Read, _) => read::sequential(&self.params, spec, &layout, far, mapping),
            (AccessKind::Write, _) => write::sequential(&self.params, spec, &layout, far, mapping),
        }
    }

    /// Both sockets access their far memory: every byte crosses the UPI in
    /// one direction or the other, so both directions saturate and total
    /// bandwidth flattens well below 2× near (§3.5 case iv, §4.5 case v).
    fn both_far(&self, spec: &WorkloadSpec, coherence: CoherenceView) -> Bandwidth {
        let s0 = self.single_socket(
            spec,
            SocketId(0),
            SocketId(1),
            coherence.for_socket(SocketId(0)),
        );
        let s1 = self.single_socket(
            spec,
            SocketId(1),
            SocketId(0),
            coherence.for_socket(SocketId(1)),
        );
        let raw = s0 + s1;
        match spec.kind {
            AccessKind::Read => {
                // Bidirectional traffic costs extra arbitration; the paper
                // measured ~50 GB/s PMEM / ~60 GB/s DRAM against a naive
                // 2×33 = 66 GB/s.
                let per_dir = match spec.device {
                    DeviceClass::Dram => Bandwidth::from_gib_s(30.0),
                    _ => Bandwidth::from_gib_s(25.0),
                };
                raw.min(per_dir.scale(2.0))
            }
            AccessKind::Write => {
                // Far writes are latency- not UPI-bandwidth-bound; two far
                // writers scale to ~2× single far with a small discount.
                raw.scale(0.93)
            }
        }
    }

    /// Socket 0 near + socket 1 far on the *same* memory: coherence
    /// ping-pong plus RPQ/WPQ pollution. PMEM collapses; DRAM roughly
    /// matches its both-far performance (§3.5 case v, §4.5 case iii).
    fn contended(&self, spec: &WorkloadSpec, _coherence: CoherenceView) -> Bandwidth {
        let near = self.single_socket(spec, SocketId(0), SocketId(0), MappingState::Warm);
        let far = self.single_socket(spec, SocketId(1), SocketId(0), MappingState::Warm);
        let sum = near + far;
        match (spec.device, spec.kind) {
            (DeviceClass::Pmem, AccessKind::Read) => {
                // "yields a very low bandwidth on PMEM": the coherence
                // writes turn the workload into a mixed read/write stream
                // and interrupt the 256 B buffer locality.
                sum.min(Bandwidth::from_gib_s(12.0))
                    .scale(contention_ramp(spec.threads))
            }
            (DeviceClass::Pmem, AccessKind::Write) => {
                // Figure 10 case iii peaks around 8 GB/s — worse than near-
                // only writing.
                sum.min(Bandwidth::from_gib_s(8.0))
                    .scale(contention_ramp(spec.threads))
            }
            (_, AccessKind::Read) => {
                // DRAM: "nearly achieving the performance of only far access
                // on both sockets" (~60 GB/s).
                sum.min(Bandwidth::from_gib_s(60.0))
            }
            (_, AccessKind::Write) => sum.min(Bandwidth::from_gib_s(30.0)),
        }
    }
}

/// Contended caps ramp in with thread count so 1-thread cases stay sane.
fn contention_ramp(threads: u32) -> f64 {
    (threads as f64 / 4.0).clamp(0.25, 1.0)
}

/// Effective demanded bandwidth of `threads` threads each able to issue
/// `per_thread`, where threads beyond the physical core count contribute at
/// `ht_weight` (hyperthread siblings share a port-limited physical core).
pub(crate) fn thread_demand(
    per_thread: Bandwidth,
    threads: u32,
    physical_cores: u32,
    ht_weight: f64,
) -> Bandwidth {
    let phys = threads.min(physical_cores) as f64;
    let ht = threads.saturating_sub(physical_cores) as f64;
    per_thread.scale(phys + ht * ht_weight)
}

/// Layout-aware demand: `thread_demand` against the machine's physical core
/// count. Scheduling overhead is applied to the *achieved* bandwidth by the
/// per-operation models (it costs even when the device is saturated).
pub(crate) fn layout_demand(
    params: &SystemParams,
    per_thread: Bandwidth,
    threads: u32,
    _layout: &ThreadLayout,
    ht_weight: f64,
) -> Bandwidth {
    let phys = params.machine.cores_per_socket as u32;
    thread_demand(per_thread, threads, phys, ht_weight)
}

/// Estimated internal write amplification for far (cross-UPI) PMEM writes —
/// the ntstore read-modify-write effect of §4.4 (up to ~10×).
pub fn far_write_amplification_estimate(params: &SystemParams, threads: u32) -> f64 {
    write::far_write_amplification(params, threads)
}

/// Estimated internal write amplification for near PMEM writes (partial
/// XPLine flushes under buffer pressure).
pub fn near_write_amplification_estimate(params: &SystemParams, spec: &WorkloadSpec) -> f64 {
    write::near_write_amplification(params, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn model() -> BandwidthModel {
        BandwidthModel::paper_default()
    }

    #[test]
    fn near_read_peak_is_about_40() {
        let spec = WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18);
        let bw = model().bandwidth(&spec, CoherenceView::WARM).gib_s();
        assert!((37.0..43.0).contains(&bw), "near read peak {bw}");
    }

    #[test]
    fn both_near_reads_scale_linearly() {
        // §3.5: "a linear speedup with the number of sockets, resulting in a
        // bandwidth of ~80 GB/s (PMEM)".
        let one = WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18);
        let two = one.clone().placement(Placement::BothNear);
        let m = model();
        let b1 = m.bandwidth(&one, CoherenceView::WARM).gib_s();
        let b2 = m.bandwidth(&two, CoherenceView::WARM).gib_s();
        assert!((b2 / b1 - 2.0).abs() < 0.05, "speedup {b1} -> {b2}");
        assert!((75.0..86.0).contains(&b2));
    }

    #[test]
    fn both_far_reads_flatten_at_upi() {
        // §3.5: far access from both sockets peaks at only ~50 GB/s on PMEM
        // and ~60 GB/s on DRAM.
        let m = model();
        let pmem =
            WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18).placement(Placement::BothFar);
        let dram =
            WorkloadSpec::seq_read(DeviceClass::Dram, 4096, 18).placement(Placement::BothFar);
        let p = m.bandwidth(&pmem, CoherenceView::WARM).gib_s();
        let d = m.bandwidth(&dram, CoherenceView::WARM).gib_s();
        assert!((45.0..55.0).contains(&p), "pmem both-far {p}");
        assert!((55.0..66.0).contains(&d), "dram both-far {d}");
    }

    #[test]
    fn contended_pmem_reads_collapse_but_dram_does_not() {
        let m = model();
        let pmem =
            WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18).placement(Placement::Contended);
        let dram =
            WorkloadSpec::seq_read(DeviceClass::Dram, 4096, 18).placement(Placement::Contended);
        let p = m.bandwidth(&pmem, CoherenceView::WARM).gib_s();
        let d = m.bandwidth(&dram, CoherenceView::WARM).gib_s();
        assert!(p < 15.0, "contended PMEM reads should collapse: {p}");
        assert!(d > 45.0, "contended DRAM reads stay near both-far: {d}");
    }

    #[test]
    fn contended_pmem_writes_peak_near_8() {
        let m = model();
        let spec =
            WorkloadSpec::seq_write(DeviceClass::Pmem, 4096, 18).placement(Placement::Contended);
        let b = m.bandwidth(&spec, CoherenceView::WARM).gib_s();
        assert!((5.0..9.0).contains(&b), "contended writes {b}");
    }

    #[test]
    fn thread_demand_counts_hyperthreads_at_reduced_weight() {
        let d = thread_demand(Bandwidth::from_gib_s(1.0), 20, 18, 0.5);
        assert!((d.gib_s() - 19.0).abs() < 1e-9);
    }

    #[test]
    fn single_socket_machines_degrade_every_placement_to_near() {
        let mut params = SystemParams::paper_default();
        params.machine.sockets = 1;
        let m = BandwidthModel::new(params);
        let near = m
            .bandwidth(
                &WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18),
                CoherenceView::WARM,
            )
            .gib_s();
        for placement in [
            Placement::FAR,
            Placement::BothNear,
            Placement::BothFar,
            Placement::Contended,
        ] {
            let b = m
                .bandwidth(
                    &WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18).placement(placement),
                    CoherenceView::WARM,
                )
                .gib_s();
            assert!((b - near).abs() < 1e-9, "{placement:?} {b} vs near {near}");
        }
    }
}
