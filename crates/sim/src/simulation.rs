//! Stateful simulation wrapper: couples the analytic [`BandwidthModel`] with
//! the [`CoherenceDirectory`] so repeated runs reproduce the paper's far-read
//! warm-up behaviour, and derives per-run statistics (the VTune stand-ins).

use crate::analytic::{BandwidthModel, CoherenceView, MixedEvaluation};
use crate::bandwidth::Bandwidth;
use crate::coherence::{CoherenceDirectory, MappingState, RegionId};
use crate::params::{DeviceClass, SystemParams};
use crate::stats::SimStats;
use crate::topology::{Machine, SocketId};
use crate::workload::{AccessKind, MixedSpec, Pattern, Placement, WorkloadSpec};

/// Result of evaluating one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Aggregate achieved bandwidth across all threads and sockets.
    pub total_bandwidth: Bandwidth,
    /// Simulated wall-clock time to move the spec's `total_bytes`.
    pub elapsed_seconds: f64,
    /// Derived device counters.
    pub stats: SimStats,
}

/// A stateful simulation of the paper's dual-socket server.
///
/// Holds the coherence directory so that, e.g., the first far read of a
/// socket's PMEM runs cold (~8 GB/s) and later runs warm (~33 GB/s), exactly
/// as in Figure 5. Use [`Simulation::evaluate_steady`] for the stateless
/// steady-state number.
#[derive(Debug, Clone)]
pub struct Simulation {
    model: BandwidthModel,
    directory: CoherenceDirectory,
    /// One default memory region per socket's interleave set.
    socket_regions: [RegionId; 2],
}

impl Simulation {
    /// Simulation of the given machine with paper-default device parameters.
    pub fn new(machine: Machine) -> Self {
        let params = SystemParams {
            machine,
            ..SystemParams::paper_default()
        };
        Self::with_params(params)
    }

    /// Simulation with explicit parameters.
    pub fn with_params(params: SystemParams) -> Self {
        let mut directory = CoherenceDirectory::new();
        let r0 = directory.new_region();
        let r1 = directory.new_region();
        // Each socket's own cores are always warm for their near memory.
        directory.prewarm(r0, SocketId(0));
        directory.prewarm(r1, SocketId(1));
        Simulation {
            model: BandwidthModel::new(params),
            directory,
            socket_regions: [r0, r1],
        }
    }

    /// Paper-default simulation.
    pub fn paper_default() -> Self {
        Self::new(Machine::paper_default())
    }

    /// The parameter set in use.
    pub fn params(&self) -> &SystemParams {
        self.model.params()
    }

    /// The underlying analytic model.
    pub fn model(&self) -> &BandwidthModel {
        &self.model
    }

    /// The default region id of a socket's PMEM interleave set.
    pub fn socket_region(&self, socket: SocketId) -> RegionId {
        self.socket_regions[socket.0 as usize]
    }

    /// Pre-touch `mem` socket's region from `cpu` socket with a single
    /// thread, establishing the coherence mapping without a cold run.
    pub fn prewarm(&mut self, cpu: SocketId, mem: SocketId) {
        let region = self.socket_region(mem);
        self.directory.prewarm(region, cpu);
    }

    /// Forget all cross-socket mappings (e.g. between benchmark series).
    pub fn reset_coherence(&mut self) {
        let mut directory = CoherenceDirectory::new();
        let r0 = directory.new_region();
        let r1 = directory.new_region();
        directory.prewarm(r0, SocketId(0));
        directory.prewarm(r1, SocketId(1));
        self.directory = directory;
        self.socket_regions = [r0, r1];
    }

    /// Evaluate a workload *statefully*: far accesses consult and update the
    /// coherence directory, so the first far run is cold and later runs are
    /// warm.
    pub fn evaluate(&mut self, spec: &WorkloadSpec) -> Evaluation {
        let view = self.touch_for(spec);
        self.finish(spec, view)
    }

    /// Evaluate the steady-state (all mappings warm) without mutating state.
    pub fn evaluate_steady(&self, spec: &WorkloadSpec) -> Evaluation {
        self.finish(spec, CoherenceView::WARM)
    }

    /// Evaluate a mixed read/write workload (Figure 11).
    pub fn evaluate_mixed(&self, spec: &MixedSpec) -> MixedEvaluation {
        self.model.mixed(spec)
    }

    /// Evaluate a mixed workload on a socket degraded per an injected fault
    /// state: the healthy Figure-11 surface is computed first, then each
    /// direction is scaled by the fault's remaining-bandwidth share (DIMM
    /// dropout and queue stalls hit both directions; thermal write
    /// throttling only the WPQ drain rate).
    pub fn evaluate_mixed_degraded(
        &self,
        spec: &MixedSpec,
        fault: &crate::faults::SocketFaultState,
    ) -> MixedEvaluation {
        let healthy = self.model.mixed(spec);
        MixedEvaluation {
            read: healthy.read.degrade(fault.read_scale),
            write: healthy.write.degrade(fault.write_scale),
        }
    }

    /// Update the directory for the sockets this spec makes cross, and
    /// return the view that applied *during* this run.
    fn touch_for(&mut self, spec: &WorkloadSpec) -> CoherenceView {
        let mut view = CoherenceView::WARM;
        match spec.placement {
            Placement::Single { cpu, mem } if cpu != mem => {
                let state = self.directory.touch(self.socket_region(mem), cpu);
                if cpu.0 == 0 {
                    view.socket0 = state;
                } else {
                    view.socket1 = state;
                }
            }
            Placement::BothFar => {
                view.socket0 = self
                    .directory
                    .touch(self.socket_region(SocketId(1)), SocketId(0));
                view.socket1 = self
                    .directory
                    .touch(self.socket_region(SocketId(0)), SocketId(1));
            }
            Placement::Contended => {
                view.socket1 = self
                    .directory
                    .touch(self.socket_region(SocketId(0)), SocketId(1));
            }
            _ => {}
        }
        view
    }

    fn finish(&self, spec: &WorkloadSpec, view: CoherenceView) -> Evaluation {
        let bw = self.model.bandwidth(spec, view);
        let elapsed = bw.time_for_bytes(spec.total_bytes);
        let stats = self.derive_stats(spec, view);
        Evaluation {
            total_bandwidth: bw,
            elapsed_seconds: elapsed,
            stats,
        }
    }

    /// Derive device counters from the workload shape — the simulator-native
    /// equivalent of the paper's VTune observations.
    fn derive_stats(&self, spec: &WorkloadSpec, view: CoherenceView) -> SimStats {
        let params = self.model.params();
        let mut stats = SimStats::default();
        let app = spec.total_bytes;
        let xp = params.optane.xpline_bytes;
        let pmem = spec.device == DeviceClass::Pmem;

        match spec.kind {
            AccessKind::Read => {
                stats.app_read_bytes = app;
                let ampl = if pmem && spec.access_size < xp {
                    match spec.pattern {
                        // Sequential sub-XPLine reads are served from the
                        // controller's 256 B buffer — no amplification.
                        Pattern::SequentialGrouped | Pattern::SequentialIndividual => {
                            stats.read_buffer_hits = app / spec.access_size.max(1) - app / xp;
                            1.0
                        }
                        Pattern::Random { .. } => xp as f64 / spec.access_size as f64,
                    }
                } else {
                    1.0
                };
                stats.media_read_bytes = (app as f64 * ampl) as u64;
            }
            AccessKind::Write => {
                stats.app_write_bytes = app;
                let ampl = if !pmem {
                    1.0
                } else if spec.placement.crosses_upi() {
                    crate::analytic::far_write_amplification_estimate(params, spec.threads)
                } else {
                    crate::analytic::near_write_amplification_estimate(params, spec)
                };
                stats.media_write_bytes = (app as f64 * ampl) as u64;
                if ampl > 1.05 {
                    let lines = app / xp.max(1);
                    let partial = ((ampl - 1.0) / ampl * lines as f64) as u64;
                    stats.partial_flushes = partial;
                    stats.full_flushes = lines - partial.min(lines);
                } else {
                    stats.full_flushes = app / xp.max(1);
                }
            }
        }

        if spec.placement.crosses_upi() {
            // Raw UPI traffic includes the ~25 % metadata share.
            let payload = match spec.placement {
                Placement::Single { .. } | Placement::Contended => app,
                _ => app * 2,
            };
            stats.upi_bytes = (payload as f64 / (1.0 - params.upi.metadata_fraction)) as u64;
        }

        let cold = |s: MappingState| s == MappingState::Cold;
        if cold(view.socket0) || cold(view.socket1) {
            stats.remap_events = 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn far_read(threads: u32) -> WorkloadSpec {
        WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, threads).placement(Placement::FAR)
    }

    #[test]
    fn first_far_run_is_cold_second_is_warm() {
        // Figure 5: Far ≈8 GB/s, 2nd Far ≈33 GB/s.
        let mut sim = Simulation::paper_default();
        let first = sim.evaluate(&far_read(18));
        let second = sim.evaluate(&far_read(18));
        let b1 = first.total_bandwidth.gib_s();
        let b2 = second.total_bandwidth.gib_s();
        assert!((5.0..9.5).contains(&b1), "cold far {b1}");
        assert!((30.0..35.0).contains(&b2), "warm far {b2}");
        assert_eq!(first.stats.remap_events, 1);
        assert_eq!(second.stats.remap_events, 0);
    }

    #[test]
    fn single_thread_pretouch_eliminates_warmup() {
        let mut sim = Simulation::paper_default();
        sim.prewarm(SocketId(0), SocketId(1));
        let first = sim.evaluate(&far_read(18));
        assert!(first.total_bandwidth.gib_s() > 30.0);
    }

    #[test]
    fn reset_coherence_makes_far_cold_again() {
        let mut sim = Simulation::paper_default();
        sim.evaluate(&far_read(18));
        sim.reset_coherence();
        let again = sim.evaluate(&far_read(18));
        assert!(again.total_bandwidth.gib_s() < 9.5);
    }

    #[test]
    fn near_reads_never_pay_warmup() {
        let mut sim = Simulation::paper_default();
        let spec = WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18);
        let e = sim.evaluate(&spec);
        assert!(e.total_bandwidth.gib_s() > 35.0);
        assert_eq!(e.stats.remap_events, 0);
    }

    #[test]
    fn elapsed_time_matches_bandwidth() {
        let sim = Simulation::paper_default();
        let spec = WorkloadSpec::seq_read(DeviceClass::Pmem, 4096, 18).total_bytes(70 << 30);
        let e = sim.evaluate_steady(&spec);
        let expected = (70u64 << 30) as f64 / e.total_bandwidth.bytes_per_sec();
        assert!((e.elapsed_seconds - expected).abs() < 1e-9);
        // 70 GB at ~40 GB/s ≈ 1.7 s.
        assert!(
            (1.5..2.1).contains(&e.elapsed_seconds),
            "{}",
            e.elapsed_seconds
        );
    }

    #[test]
    fn far_write_stats_show_amplification() {
        let sim = Simulation::paper_default();
        let spec = WorkloadSpec::seq_write(DeviceClass::Pmem, 4096, 18).placement(Placement::FAR);
        let e = sim.evaluate_steady(&spec);
        assert!(
            e.stats.write_amplification() > 5.0,
            "far write amplification {}",
            e.stats.write_amplification()
        );
        assert!(e.stats.upi_bytes > spec.total_bytes);
    }

    #[test]
    fn near_large_write_with_few_threads_has_no_amplification() {
        let sim = Simulation::paper_default();
        let spec = WorkloadSpec::seq_write(DeviceClass::Pmem, 4096, 4);
        let e = sim.evaluate_steady(&spec);
        assert!(e.stats.write_amplification() < 1.2);
        assert_eq!(e.stats.upi_bytes, 0);
    }

    #[test]
    fn random_small_reads_amplify() {
        let sim = Simulation::paper_default();
        let spec = WorkloadSpec::random(DeviceClass::Pmem, AccessKind::Read, 64, 18, 2 << 30);
        let e = sim.evaluate_steady(&spec);
        assert!((e.stats.read_amplification() - 4.0).abs() < 0.1);
    }

    #[test]
    fn sequential_small_reads_hit_the_controller_buffer() {
        let sim = Simulation::paper_default();
        let spec = WorkloadSpec::seq_read(DeviceClass::Pmem, 64, 18);
        let e = sim.evaluate_steady(&spec);
        assert!(e.stats.read_amplification() < 1.01);
        assert!(e.stats.read_buffer_hits > 0);
    }

    #[test]
    fn mixed_evaluation_is_reachable_through_simulation() {
        let sim = Simulation::paper_default();
        let e = sim.evaluate_mixed(&MixedSpec::paper(DeviceClass::Pmem, 1, 30));
        assert!(e.read.gib_s() > e.write.gib_s());
    }
}
