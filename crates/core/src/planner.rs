//! The access planner: turns the paper's best practices into executable
//! configuration.
//!
//! Given a description of what an OLAP operator wants to do (bulk scan,
//! bulk ingest, log appends, random probes, a mixed phase), the planner
//! emits the thread count, access size, pattern, placement, and pinning the
//! paper's evaluation found optimal — and can verify the choice against the
//! simulator.

use pmem_sim::analytic::CoherenceView;
use pmem_sim::params::{DeviceClass, SystemParams};
use pmem_sim::sched::Pinning;
use pmem_sim::workload::{AccessKind, MixedSpec, Pattern, Placement, WorkloadSpec};
use pmem_sim::{Bandwidth, Simulation};

use crate::best_practices::BestPractice;

/// What the caller wants to do with PMEM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Large sequential reads (table scans).
    BulkRead,
    /// Large sequential writes (data ingest, intermediate spill).
    BulkWrite,
    /// Many small consecutive writes (logging).
    LogAppend {
        /// Typical record size in bytes.
        record_bytes: u64,
    },
    /// Random reads (hash probes, point lookups).
    RandomRead {
        /// Requested access granularity in bytes.
        access_bytes: u64,
    },
    /// Random writes (index maintenance).
    RandomWrite {
        /// Requested access granularity in bytes.
        access_bytes: u64,
    },
    /// Concurrent readers and writers over the same DIMMs.
    Mixed {
        /// Desired reader count.
        readers: u32,
        /// Desired writer count.
        writers: u32,
    },
}

/// The planner's recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAccess {
    /// Threads per participating socket.
    pub threads_per_socket: u32,
    /// Access size in bytes.
    pub access_size: u64,
    /// Access pattern.
    pub pattern: Pattern,
    /// Thread pinning.
    pub pinning: Pinning,
    /// Socket placement.
    pub placement: Placement,
    /// Which best practices shaped this plan.
    pub applied: Vec<BestPractice>,
}

impl PlannedAccess {
    /// Express the plan as a simulator workload spec (read or write side).
    pub fn to_spec(&self, kind: AccessKind) -> WorkloadSpec {
        WorkloadSpec {
            device: DeviceClass::Pmem,
            kind,
            pattern: self.pattern,
            access_size: self.access_size,
            threads: self.threads_per_socket,
            placement: self.placement,
            pinning: self.pinning,
            total_bytes: WorkloadSpec::PAPER_VOLUME,
        }
    }
}

/// Per-socket thread budget for concurrent serving, derived from the
/// paper's saturation points: writers cap at the 4–6 thread write
/// saturation (Best Practice #2), readers get the remaining logical cores
/// (the Figure 11 grid runs up to 30 readers next to 6 writers on a
/// 18-core/36-thread socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrencyBudget {
    /// Maximum concurrent reader threads per socket.
    pub reader_threads: u32,
    /// Maximum concurrent writer threads per socket.
    pub writer_threads: u32,
}

impl ConcurrencyBudget {
    /// Shrink the budget proportionally to observed bandwidth degradation.
    ///
    /// The saturation points the budget encodes scale with the media's drain
    /// rate: a DIMM that throttles its write path to 30% is saturated by
    /// ~30% of the writer threads, and admitting the full healthy budget
    /// only deepens the WPQ backlog without moving more bytes. Each cap is
    /// floored at one thread so a degraded socket still makes progress.
    pub fn scaled(self, read_scale: f64, write_scale: f64) -> ConcurrencyBudget {
        let shrink = |threads: u32, scale: f64| -> u32 {
            ((f64::from(threads)) * scale.clamp(0.0, 1.0))
                .floor()
                .max(1.0) as u32
        };
        ConcurrencyBudget {
            reader_threads: shrink(self.reader_threads, read_scale),
            writer_threads: shrink(self.writer_threads, write_scale),
        }
    }
}

/// Plans PMEM access per the paper's best practices.
#[derive(Debug, Clone)]
pub struct AccessPlanner {
    sim: Simulation,
    sockets: u8,
}

impl AccessPlanner {
    /// Planner for the paper's dual-socket server.
    pub fn paper_default() -> Self {
        Self::new(SystemParams::paper_default())
    }

    /// Planner for explicit parameters.
    pub fn new(params: SystemParams) -> Self {
        let sockets = params.machine.sockets;
        AccessPlanner {
            sim: Simulation::with_params(params),
            sockets,
        }
    }

    /// The machine's physical cores per socket.
    fn cores(&self) -> u32 {
        self.sim.params().machine.cores_per_socket as u32
    }

    /// Sockets of the planned machine.
    pub fn sockets(&self) -> u8 {
        self.sockets
    }

    /// The simulation backing this planner's expectations, for callers that
    /// need to price workloads under the same parameter set (e.g. a serving
    /// scheduler converting admitted mixes into progress rates).
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }

    /// Per-socket admission budget for concurrent serving.
    pub fn concurrency_budget(&self) -> ConcurrencyBudget {
        let writer_threads = self.plan(Intent::BulkWrite).threads_per_socket;
        let logical = self.cores() * 2;
        ConcurrencyBudget {
            reader_threads: logical.saturating_sub(writer_threads),
            writer_threads,
        }
    }

    /// Re-calibrated admission budget for a socket whose observed bandwidth
    /// has drifted from the healthy calibration — e.g. under injected
    /// thermal throttling or a DIMM dropout. `read_scale`/`write_scale` are
    /// the observed-over-expected bandwidth ratios (1.0 = healthy).
    pub fn degraded_budget(&self, read_scale: f64, write_scale: f64) -> ConcurrencyBudget {
        self.concurrency_budget().scaled(read_scale, write_scale)
    }

    /// Dual-socket placement when the machine has one, per Best Practice #4
    /// ("place data on all sockets but access it only from near regions").
    fn near_placement(&self) -> Placement {
        if self.sockets >= 2 {
            Placement::BothNear
        } else {
            Placement::NEAR
        }
    }

    /// Produce a plan for an intent.
    pub fn plan(&self, intent: Intent) -> PlannedAccess {
        let xpline = self.sim.params().optane.xpline_bytes;
        match intent {
            Intent::BulkRead => PlannedAccess {
                // Insight #2: all physical cores; no hyperthreads.
                threads_per_socket: self.cores(),
                // Insight #1: individual regions make the size uncritical;
                // 4 KB aligns with the interleaving either way.
                access_size: 4096,
                pattern: Pattern::SequentialIndividual,
                pinning: Pinning::Cores,
                placement: self.near_placement(),
                applied: vec![
                    BestPractice::DistinctRegions,
                    BestPractice::ScaleReadersLimitWriters,
                    BestPractice::PinThreads,
                    BestPractice::NearAccessOnly,
                ],
            },
            Intent::BulkWrite => PlannedAccess {
                // Insight #7: 4–6 writers saturate the media.
                threads_per_socket: 6,
                // Insight #6: 4 KB chunks.
                access_size: 4096,
                pattern: Pattern::SequentialIndividual,
                pinning: Pinning::Cores,
                placement: self.near_placement(),
                applied: vec![
                    BestPractice::DistinctRegions,
                    BestPractice::ScaleReadersLimitWriters,
                    BestPractice::PinThreads,
                    BestPractice::NearAccessOnly,
                ],
            },
            Intent::LogAppend { record_bytes } => PlannedAccess {
                // Many small writers tolerate scaling if the access stays at
                // the XPLine granularity and each worker owns its log
                // (Insights #6/#7: "one log per worker").
                threads_per_socket: self.cores(),
                access_size: record_bytes.clamp(xpline, 1024).next_multiple_of(xpline),
                pattern: Pattern::SequentialIndividual,
                pinning: Pinning::Cores,
                placement: self.near_placement(),
                applied: vec![
                    BestPractice::DistinctRegions,
                    BestPractice::ScaleReadersLimitWriters,
                    BestPractice::PinThreads,
                ],
            },
            Intent::RandomRead { access_bytes } => PlannedAccess {
                // Insight #12: at least 256 B; hyperthreading helps random
                // reads, so use all logical cores.
                threads_per_socket: self.cores() * 2,
                access_size: access_bytes.max(xpline),
                pattern: Pattern::Random {
                    region_bytes: 2 << 30,
                },
                pinning: Pinning::Cores,
                placement: self.near_placement(),
                applied: vec![
                    BestPractice::SequentialOrLargeAccess,
                    BestPractice::PinThreads,
                    BestPractice::NearAccessOnly,
                ],
            },
            Intent::RandomWrite { access_bytes } => PlannedAccess {
                threads_per_socket: 4,
                access_size: access_bytes.max(xpline),
                pattern: Pattern::Random {
                    region_bytes: 2 << 30,
                },
                pinning: Pinning::Cores,
                placement: self.near_placement(),
                applied: vec![
                    BestPractice::SequentialOrLargeAccess,
                    BestPractice::ScaleReadersLimitWriters,
                    BestPractice::PinThreads,
                ],
            },
            Intent::Mixed { readers, writers } => PlannedAccess {
                // Best Practice #5: shrink the mixed phase; cap writers at
                // the write-saturation point and keep the recommended
                // sequential thread counts for both sides.
                threads_per_socket: readers.min(self.cores()) + writers.min(6),
                access_size: 4096,
                pattern: Pattern::SequentialIndividual,
                pinning: Pinning::NumaRegion,
                placement: self.near_placement(),
                applied: vec![
                    BestPractice::AvoidMixedWorkloads,
                    BestPractice::ScaleReadersLimitWriters,
                    BestPractice::PinThreads,
                ],
            },
        }
    }

    /// Expected steady-state bandwidth of a plan.
    pub fn expected_bandwidth(&self, plan: &PlannedAccess, kind: AccessKind) -> Bandwidth {
        self.sim
            .model()
            .bandwidth(&plan.to_spec(kind), CoherenceView::WARM)
    }

    /// Expected bandwidth of a mixed plan (read + write sides).
    pub fn expected_mixed(&self, readers: u32, writers: u32) -> (Bandwidth, Bandwidth) {
        let eval = self
            .sim
            .evaluate_mixed(&MixedSpec::paper(DeviceClass::Pmem, writers, readers));
        (eval.read, eval.write)
    }

    /// Advisory: is it better to serialize this mixed phase (Insight #11)?
    /// Returns true when running the reads and writes back-to-back moves
    /// the combined volume faster than running them concurrently.
    pub fn should_serialize(
        &self,
        readers: u32,
        writers: u32,
        read_bytes: u64,
        write_bytes: u64,
    ) -> bool {
        // A one-sided phase is already serial: with no opposing threads (or
        // no opposing volume) there is no mixed contention to avoid.
        if readers == 0 || writers == 0 || read_bytes == 0 || write_bytes == 0 {
            return false;
        }
        let (r_bw, w_bw) = self.expected_mixed(readers, writers);
        let mixed_time = (read_bytes as f64 / r_bw.bytes_per_sec())
            .max(write_bytes as f64 / w_bw.bytes_per_sec());
        let solo_read = self.expected_bandwidth(&self.plan(Intent::BulkRead), AccessKind::Read);
        let solo_write = self.expected_bandwidth(&self.plan(Intent::BulkWrite), AccessKind::Write);
        let serial_time = read_bytes as f64 / solo_read.bytes_per_sec()
            + write_bytes as f64 / solo_write.bytes_per_sec();
        serial_time < mixed_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> AccessPlanner {
        AccessPlanner::paper_default()
    }

    #[test]
    fn bulk_read_plan_saturates_the_device() {
        let p = planner();
        let plan = p.plan(Intent::BulkRead);
        assert_eq!(plan.threads_per_socket, 18);
        assert_eq!(plan.pinning, Pinning::Cores);
        assert_eq!(plan.placement, Placement::BothNear);
        let bw = p.expected_bandwidth(&plan, AccessKind::Read).gib_s();
        assert!(bw > 75.0, "planned dual-socket read {bw}");
    }

    #[test]
    fn bulk_write_plan_uses_few_threads_and_beats_naive_many_threads() {
        let p = planner();
        let plan = p.plan(Intent::BulkWrite);
        assert!(plan.threads_per_socket <= 6);
        let planned = p.expected_bandwidth(&plan, AccessKind::Write).gib_s();
        // Naive: throw all 36 threads at large writes.
        let naive = WorkloadSpec::seq_write(DeviceClass::Pmem, 1 << 20, 36)
            .placement(Placement::BothNear)
            .pinning(Pinning::Cores);
        let naive_bw = Simulation::paper_default()
            .evaluate_steady(&naive)
            .total_bandwidth
            .gib_s();
        assert!(
            planned > 1.5 * naive_bw,
            "planned {planned} vs naive {naive_bw}"
        );
    }

    #[test]
    fn log_append_plan_rounds_to_xpline() {
        let p = planner();
        let plan = p.plan(Intent::LogAppend { record_bytes: 48 });
        assert_eq!(plan.access_size, 256, "sub-XPLine records round up");
        assert_eq!(
            plan.pattern,
            Pattern::SequentialIndividual,
            "one log per worker"
        );
        let plan = p.plan(Intent::LogAppend { record_bytes: 700 });
        assert_eq!(plan.access_size % 256, 0);
    }

    #[test]
    fn random_read_plan_enforces_minimum_access() {
        let p = planner();
        let plan = p.plan(Intent::RandomRead { access_bytes: 64 });
        assert_eq!(plan.access_size, 256, "Insight #12: at least 256 B");
        // Hyperthreads help random reads.
        assert_eq!(plan.threads_per_socket, 36);
        let small = WorkloadSpec::random(DeviceClass::Pmem, AccessKind::Read, 64, 36, 2 << 30);
        let small_bw = Simulation::paper_default()
            .evaluate_steady(&small)
            .total_bandwidth
            .gib_s();
        let planned = p.expected_bandwidth(&plan, AccessKind::Read).gib_s();
        assert!(
            planned > 1.5 * small_bw,
            "planned {planned} vs 64B {small_bw}"
        );
    }

    #[test]
    fn mixed_plans_know_when_to_serialize() {
        let p = planner();
        // Symmetric large volumes: serialization wins (Insight #11).
        assert!(p.should_serialize(18, 6, 40 << 30, 40 << 30));
    }

    #[test]
    fn one_sided_phases_never_ask_for_serialization() {
        let p = planner();
        // No writers / no write volume: the "mixed" phase is a pure read
        // phase already.
        assert!(!p.should_serialize(30, 0, 40 << 30, 0));
        assert!(!p.should_serialize(30, 6, 40 << 30, 0));
        // No readers / no read volume: pure write phase.
        assert!(!p.should_serialize(0, 6, 0, 40 << 30));
        assert!(!p.should_serialize(18, 6, 0, 40 << 30));
        // Degenerate empty phase.
        assert!(!p.should_serialize(0, 0, 0, 0));
    }

    #[test]
    fn expected_mixed_handles_empty_sides() {
        let p = planner();
        let (r, w) = p.expected_mixed(0, 0);
        assert_eq!(r.bytes_per_sec(), 0.0);
        assert_eq!(w.bytes_per_sec(), 0.0);

        // Zero readers: the write side runs uncontended at its solo rate.
        let (r, w) = p.expected_mixed(0, 6);
        assert_eq!(r.bytes_per_sec(), 0.0);
        assert!((11.0..14.0).contains(&w.gib_s()), "solo 6W {}", w.gib_s());

        // Zero writers: the read side runs uncontended.
        let (r, w) = p.expected_mixed(30, 0);
        assert!((29.0..36.0).contains(&r.gib_s()), "solo 30R {}", r.gib_s());
        assert_eq!(w.bytes_per_sec(), 0.0);
    }

    #[test]
    fn expected_mixed_stays_sane_past_the_figure_11_grid() {
        let p = planner();
        let (_, w_peak) = p.expected_mixed(0, 6);
        // Figure 11 stops at 6 writers; deeper writer counts must not
        // conjure bandwidth beyond the media write saturation, and the read
        // side must stay positive but suppressed.
        for writers in [8u32, 12, 18, 24] {
            let (r, w) = p.expected_mixed(30, writers);
            assert!(
                w.gib_s() <= w_peak.gib_s() + 0.5,
                "{writers} writers exceed saturation: {} vs {}",
                w.gib_s(),
                w_peak.gib_s()
            );
            assert!(r.gib_s() > 0.0, "reads starved at {writers} writers");
            assert!(
                r.gib_s() < p.expected_mixed(30, 0).0.gib_s(),
                "reads unaffected by {writers} writers"
            );
        }
    }

    #[test]
    fn concurrency_budget_matches_saturation_points() {
        let p = planner();
        let budget = p.concurrency_budget();
        // Best Practice #2: 4–6 writers saturate the media.
        assert!((4..=6).contains(&budget.writer_threads));
        // The remaining logical cores serve readers: 36 − 6 = 30, the top
        // of the Figure 11 grid.
        assert_eq!(budget.reader_threads, 30);
        assert_eq!(p.sockets(), 2);
    }

    #[test]
    fn degraded_budget_shrinks_with_observed_bandwidth() {
        let p = planner();
        let healthy = p.concurrency_budget();

        // Write throttling to 30% shrinks the writer cap proportionally but
        // leaves the reader budget intact.
        let throttled = p.degraded_budget(1.0, 0.3);
        assert_eq!(throttled.reader_threads, healthy.reader_threads);
        assert!(throttled.writer_threads < healthy.writer_threads);
        assert!(throttled.writer_threads >= 1);

        // A DIMM dropout (both directions at 4/6) shrinks both caps.
        let dropped = p.degraded_budget(4.0 / 6.0, 4.0 / 6.0);
        assert!(dropped.reader_threads < healthy.reader_threads);
        assert_eq!(dropped.reader_threads, 20);

        // Even a near-total stall keeps one thread per side so the socket
        // drains rather than deadlocks.
        let stalled = p.degraded_budget(0.01, 0.01);
        assert_eq!(stalled.reader_threads, 1);
        assert_eq!(stalled.writer_threads, 1);

        // A healthy socket re-derives the healthy budget exactly.
        assert_eq!(p.degraded_budget(1.0, 1.0), healthy);
    }

    #[test]
    fn plans_cite_their_best_practices() {
        let p = planner();
        for intent in [
            Intent::BulkRead,
            Intent::BulkWrite,
            Intent::LogAppend { record_bytes: 64 },
            Intent::RandomRead { access_bytes: 512 },
            Intent::RandomWrite { access_bytes: 512 },
            Intent::Mixed {
                readers: 18,
                writers: 4,
            },
        ] {
            let plan = p.plan(intent);
            assert!(!plan.applied.is_empty(), "{intent:?} cites nothing");
            assert!(
                plan.applied.contains(&BestPractice::PinThreads)
                    || intent == Intent::BulkRead
                    || !plan.applied.is_empty()
            );
        }
    }

    #[test]
    fn single_socket_machines_stay_near() {
        let mut params = SystemParams::paper_default();
        params.machine.sockets = 1;
        let p = AccessPlanner::new(params);
        assert_eq!(p.plan(Intent::BulkRead).placement, Placement::NEAR);
    }
}
