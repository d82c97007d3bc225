//! The gray-failure plane: fail-slow machines, graded demotion, and
//! hedged scatter-gather.
//!
//! A blackout is easy: nothing answers, any detector fires, the router
//! fails over. The expensive failure in a real PMEM fleet is the
//! machine that *keeps answering* — at a tenth of its service rate.
//! Every scatter-gather query waits for its slowest partial, so one
//! 10×-slow machine out of eight drags the entire fleet's tail; the
//! per-machine backlog compounds; and nothing binary ever trips. This
//! module runs that experiment end to end, deterministically:
//!
//! 1. **Fault.** A seeded [`FailSlowWindow`] (optionally plus seeded
//!    interconnect jitter, [`LinkPlan`]) degrades one machine's service
//!    rate — alive, answering, slow.
//! 2. **Detection and ingest.** The cluster's shared detector step
//!    replays each faulted shard's probe and completion streams into a
//!    [`HealthTimeline`] (the accrual detector, [`crate::detector`]), and
//!    the shared fleet run ([`crate::cluster`]) routes ingest by those
//!    timelines. A suspected shard is *demoted*, not written off — it
//!    keeps serving at reduced router weight while new ingest arrivals
//!    rebalance to its replica host (each paying the priced, possibly
//!    degraded interconnect), and it re-earns full weight when its score
//!    clears. Only the query plane below is this module's own.
//! 3. **Hedging.** The query plane fans Q1.1 out every
//!    [`QUERY_INTERVAL`] seconds. A shard the detector has
//!    demoted gets a *tied* hedge (primary and ring-replica backup
//!    fired together); a healthy-looking straggler gets a *reactive*
//!    hedge once it outlives the hedge quantile of observed partial
//!    latencies. First result wins, the loser is cancelled on arrival
//!    of the cancel message, and exactly one partial per key range is
//!    ever summed — the aggregate must equal the committed ground truth
//!    on every query, hedged or not.
//!
//! Service times integrate piecewise over the fault plan (a scan that
//! straddles the fault onset slows mid-flight), each machine serves its
//! own partition and its hosted replicas on separate scan lanes
//! (matching the socket-0/socket-1 placement in
//! [`crate::machine::ShardMachine`]), and every draw is seeded — the
//! whole run replays bit for bit.

use std::collections::VecDeque;

use pmem_olap::planner::AccessPlanner;
use pmem_serve::Percentiles;
use pmem_sim::faults::FaultPlan;
use pmem_sim::fleet::{FailSlowWindow, FleetFaultPlans, LinkPlan};
use pmem_sim::rng::splitmix64;
use pmem_sim::topology::Machine;
use pmem_store::Result;

use crate::cluster::{Cluster, INTERCONNECT};
use crate::detector::{HealthState, HealthTimeline, HEDGE_QUANTILE, HEDGE_SCALE, HEDGE_WINDOW};
use crate::machine::ShardMachine;
use crate::report::GrayReport;

/// Sub-seed salt for the interconnect jitter stream, so link draws are
/// independent of every other consumer of the cluster seed.
const LINK_JITTER_SALT: u64 = 0x6c69_6e6b_6a69_7474;

/// Virtual seconds between scatter-gather queries.
pub const QUERY_INTERVAL: f64 = 0.001;

/// Per-query completion deadline as a multiple of the healthy fan-out
/// estimate; deadline-met queries are the goodput.
pub const QUERY_DEADLINE_SCALE: f64 = 4.0;

/// Seeded interconnect-jitter windows over the horizon.
const LINK_WINDOWS: u32 = 2;

/// Range a jitter window's latency multiplier is drawn from.
const LINK_LATENCY_JITTER: (f64, f64) = (1.5, 3.0);

/// Range a jitter window's bandwidth multiplier is drawn from.
const LINK_BANDWIDTH_JITTER: (f64, f64) = (0.4, 0.9);

/// The jittered interconnect the gray and rejoin experiments run over:
/// [`LINK_WINDOWS`] degradation windows over `horizon`, drawn from `seed`.
pub(crate) fn jittered_link(seed: u64, horizon: f64) -> LinkPlan {
    LinkPlan::generate(
        seed,
        horizon,
        LINK_WINDOWS,
        LINK_LATENCY_JITTER,
        LINK_BANDWIDTH_JITTER,
    )
}

/// Shape of one gray-failure experiment, layered on a built
/// [`Cluster`]: the injected fault, the query-plane phase, and the
/// hedging switch. Detector behavior comes from the cluster's
/// [`crate::detector::DetectorConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayConfig {
    /// The fail-slow window to inject, or `None` for the healthy
    /// reference run.
    pub fail_slow: Option<FailSlowWindow>,
    /// Whether scatter-gather hedging is armed (the no-hedge baseline
    /// turns this off).
    pub hedging: bool,
    /// Issue offset of the first query (de-phases the query grid from
    /// the probe grid).
    pub query_offset: f64,
}

impl GrayConfig {
    /// The acceptance-suite shape: queries de-phased 0.4 ms off the
    /// probe grid, hedging on, no fault yet.
    pub fn demo() -> Self {
        GrayConfig {
            fail_slow: None,
            hedging: true,
            query_offset: 0.0004,
        }
    }

    /// Schedule machine `victim` to serve at `factor` of its rate over
    /// `[at, until)`.
    pub fn with_fail_slow(mut self, victim: u32, at: f64, until: f64, factor: f64) -> Self {
        self.fail_slow = Some(FailSlowWindow {
            machine: victim as usize,
            at,
            until,
            factor,
        });
        self
    }

    /// The no-hedge baseline.
    pub fn without_hedging(mut self) -> Self {
        self.hedging = false;
        self
    }

    /// The same experiment with the fault removed (the healthy
    /// reference the gates compare against).
    pub fn healthy(mut self) -> Self {
        self.fail_slow = None;
        self
    }
}

/// Piecewise-integrated finish time of a scan of `bytes` virtual bytes
/// starting at `start` on a machine whose service rate is `bw` scaled
/// by `plan`'s fault state: the scan slows mid-flight when a fault
/// window opens and speeds back up when it clears.
fn scan_finish(plan: &FaultPlan, machine: &Machine, start: f64, bytes: f64, bw: f64) -> f64 {
    let mut t = start;
    let mut remaining = bytes;
    loop {
        let rate = (bw * plan.state_at(machine, t).service_scale()).max(1e-3);
        let finish = t + remaining / rate;
        match plan.next_transition_after(t) {
            Some(boundary) if boundary < finish => {
                remaining -= (boundary - t) * rate;
                t = boundary;
            }
            _ => return finish,
        }
    }
}

/// Nearest-rank quantile over the observed-latency window, or `fallback`
/// while the window is still filling.
fn hedge_quantile(window: &VecDeque<f64>, quantile: f64, fallback: f64) -> f64 {
    if window.len() < 16 {
        return fallback;
    }
    let mut sorted: Vec<f64> = window.iter().copied().collect();
    sorted.sort_by(f64::total_cmp);
    let rank =
        ((quantile.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// FIFO scan-lane occupancy after a request that may have been
/// cancelled: if the cancel arrived before the request started, the
/// lane never saw it; otherwise the request holds the lane until the
/// cancel lands (or until it finished on its own, whichever is first).
fn lane_after_cancel(before: f64, start: f64, finish: f64, cancel_at: f64) -> f64 {
    if cancel_at <= start {
        before
    } else {
        finish.min(cancel_at).max(before)
    }
}

impl Cluster {
    /// Run one gray-failure experiment: detector-routed ingest plus the
    /// hedged scatter-gather query plane. See the module docs for the
    /// moving parts; every stream is seeded and the run replays bit for
    /// bit from `(ClusterConfig, GrayConfig)`.
    pub fn run_gray(&mut self, gray: &GrayConfig) -> Result<GrayReport> {
        let cfg = self.cfg;
        let planner = AccessPlanner::paper_default();
        let machine = Machine::paper_default();
        let shards = cfg.shards as usize;
        let link = jittered_link(splitmix64(cfg.seed ^ LINK_JITTER_SALT), cfg.horizon);

        let mut fleet = FleetFaultPlans::healthy(shards);
        if let Some(w) = gray.fail_slow {
            fleet = fleet.with_fail_slow(w.machine, w.at, w.until, w.factor);
        }
        let plans: Vec<FaultPlan> = (0..shards).map(|s| fleet.plan(s)).collect();

        // The ingest plane is the shared fleet run: the oracle only ever
        // learns about blackouts, so under a pure fail-slow fault it keeps
        // every timeline healthy — that blindness is the baseline. The
        // accrual detector demotes the victim, and the run rebalances its
        // arrivals to the replica host by the graded weight.
        let timelines = self.detect(&fleet, &link, &planner)?;
        let ingest = self.simulate(&fleet, &link, &timelines, &planner)?;

        // Query-plane pricing: each shard's partial scan in virtual
        // bytes, served at the planner's projected scan bandwidth.
        let scan_bw = Self::machine_scan_bw(&planner).max(1.0);
        let max_scan = self
            .machines
            .iter()
            .map(|m| m.virtual_scan_bytes() as f64 / scan_bw)
            .fold(0.0_f64, f64::max);
        let healthy_rtt = 2.0 * INTERCONNECT.latency_seconds;

        // The query plane. Partial *values* are computed once per
        // source — the columnar data is static over the run (ingest is
        // priced in the virtual plane) — and the race decides which
        // copy's value is summed.
        let q11_primary: Vec<i64> = self
            .machines
            .iter()
            .map(|m| ShardMachine::q11_partial(&m.fact))
            .collect();
        let replica_host: Vec<Option<u32>> = (0..shards)
            .map(|s| {
                self.map
                    .replica_of(s as u32)
                    .filter(|_| cfg.replicate)
                    .filter(|peer| self.machines[*peer as usize].replica_of(s as u32).is_some())
            })
            .collect();
        let q11_replica: Vec<Option<i64>> = (0..shards)
            .map(|s| {
                replica_host[s].and_then(|peer| {
                    self.machines[peer as usize]
                        .replica_of(s as u32)
                        .map(ShardMachine::q11_partial)
                })
            })
            .collect();
        let total_vbytes: f64 = self
            .machines
            .iter()
            .map(|m| m.virtual_scan_bytes() as f64)
            .sum();
        let fanout_estimate = healthy_rtt + max_scan;
        let query_deadline = QUERY_DEADLINE_SCALE * fanout_estimate;

        let mut own_lane = vec![0.0_f64; shards];
        let mut replica_lane = vec![0.0_f64; shards];
        let mut observed: VecDeque<f64> = VecDeque::with_capacity(HEDGE_WINDOW);
        let mut latencies = Vec::new();
        let mut queries = 0u64;
        let mut queries_met = 0u64;
        let mut good_bytes = 0.0_f64;
        let mut hedges_fired = 0u64;
        let mut hedges_tied = 0u64;
        let mut hedge_wins = 0u64;
        let mut hedges_cancelled = 0u64;
        let mut replica_partials = 0u64;
        let mut mismatched = 0u64;
        let mut counted_partials = 0u64;
        let mut transfer_seconds = 0.0_f64;

        let mut q_t = gray.query_offset.max(0.0);
        while q_t < cfg.horizon {
            queries += 1;
            let mut aggregate = 0i64;
            let mut completion = q_t;
            for s in 0..shards {
                let one_way = |t: f64| INTERCONNECT.latency_seconds_at(t, &link);
                // Primary request to the owner, scanned on its own-fact
                // lane (socket 0).
                let arrive = q_t + one_way(q_t);
                let before = own_lane[s];
                let start = arrive.max(before);
                let finish = scan_finish(
                    &plans[s],
                    &machine,
                    start,
                    self.machines[s].virtual_scan_bytes() as f64,
                    scan_bw,
                );
                let primary_resp = finish + one_way(finish);
                transfer_seconds += 2.0 * one_way(q_t);

                // Hedge decision: tied when the detector has the shard
                // off full weight at issue time, reactive when a
                // healthy-looking primary outlives the hedge quantile.
                let mut backup = None;
                if gray.hedging {
                    if let (Some(host), Some(partial)) = (replica_host[s], q11_replica[s]) {
                        let tied = timelines[s].state_at(q_t) != HealthState::Healthy;
                        let hedge_at = if tied {
                            q_t
                        } else {
                            q_t + HEDGE_SCALE
                                * hedge_quantile(&observed, HEDGE_QUANTILE, fanout_estimate)
                        };
                        if tied || primary_resp > hedge_at {
                            let host = host as usize;
                            let b_arrive = hedge_at + one_way(hedge_at);
                            let b_before = replica_lane[host];
                            let b_start = b_arrive.max(b_before);
                            // The hosted replica scans on the host's
                            // replica lane (socket 1), at the host's rate.
                            let b_finish = scan_finish(
                                &plans[host],
                                &machine,
                                b_start,
                                self.machines[s].virtual_scan_bytes() as f64,
                                scan_bw,
                            );
                            let b_resp = b_finish + one_way(b_finish);
                            transfer_seconds += 2.0 * one_way(hedge_at);
                            hedges_fired += 1;
                            if tied {
                                hedges_tied += 1;
                            }
                            backup = Some((host, partial, b_before, b_start, b_finish, b_resp));
                        }
                    }
                }

                // The race: first response wins, the router cancels the
                // loser, exactly one partial is summed.
                let winner_resp = match backup {
                    None => {
                        own_lane[s] = finish;
                        aggregate += q11_primary[s];
                        counted_partials += 1;
                        primary_resp
                    }
                    Some((host, partial, b_before, b_start, b_finish, b_resp)) => {
                        hedges_cancelled += 1;
                        if b_resp < primary_resp {
                            hedge_wins += 1;
                            replica_partials += 1;
                            aggregate += partial;
                            counted_partials += 1;
                            let cancel_at = b_resp + one_way(b_resp);
                            transfer_seconds += one_way(b_resp);
                            own_lane[s] = lane_after_cancel(before, start, finish, cancel_at);
                            replica_lane[host] = b_finish;
                            b_resp
                        } else {
                            aggregate += q11_primary[s];
                            counted_partials += 1;
                            let cancel_at = primary_resp + one_way(primary_resp);
                            transfer_seconds += one_way(primary_resp);
                            own_lane[s] = finish;
                            replica_lane[host] =
                                lane_after_cancel(b_before, b_start, b_finish, cancel_at);
                            primary_resp
                        }
                    }
                };
                completion = completion.max(winner_resp);
                if observed.len() == HEDGE_WINDOW {
                    observed.pop_front();
                }
                observed.push_back((winner_resp - q_t).max(0.0));
            }
            let latency = (completion - q_t).max(0.0);
            latencies.push(latency);
            if latency <= query_deadline {
                queries_met += 1;
                good_bytes += total_vbytes;
            }
            if aggregate != self.reference {
                mismatched += 1;
            }
            q_t += QUERY_INTERVAL;
        }

        // The victim's router weight at the end of the run, and the lowest
        // it served at.
        let victim_timeline = gray.fail_slow.and_then(|w| timelines.get(w.machine));
        let weight_at = |t| victim_timeline.map_or(1.0, |tl| tl.weight_at(t));
        let victim_weight_end = weight_at(cfg.horizon);
        let victim_weight_min = victim_timeline
            .map_or(&[][..], HealthTimeline::transitions)
            .iter()
            .map(|(t, _)| weight_at(*t))
            .fold(victim_weight_end, f64::min);

        Ok(GrayReport {
            shards: cfg.shards,
            fault: gray.fail_slow,
            mode: cfg.detector.mode,
            hedging: gray.hedging,
            horizon: cfg.horizon,
            suspected_at: victim_timeline.and_then(HealthTimeline::suspected_at),
            dead_at: victim_timeline.and_then(HealthTimeline::dead_at),
            cleared_at: victim_timeline.and_then(HealthTimeline::cleared_at),
            victim_weight_min,
            victim_weight_end,
            rebalanced_jobs: ingest.rerouted_jobs,
            ingest_goodput_bytes_per_sec: ingest.goodput_bytes_per_sec,
            ingest_e2e: ingest.e2e,
            per_shard: ingest.per_shard,
            queries,
            queries_met,
            query_deadline,
            query_goodput_bytes_per_sec: good_bytes / cfg.horizon.max(1e-9),
            query_latency: Percentiles::of(&latencies),
            query_latency_max: latencies.iter().fold(0.0_f64, |a, &b| a.max(b)),
            hedges_fired,
            hedges_tied,
            hedge_wins,
            hedges_cancelled,
            replica_partials,
            mismatched_queries: mismatched,
            double_counted: counted_partials.saturating_sub(queries * cfg.shards as u64),
            reference: self.reference,
            query_transfer_seconds: transfer_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_finish_integrates_piecewise_over_the_fault_window() {
        let machine = Machine::paper_default();
        let bw = 1e9; // 1 GB/s for round numbers
        let healthy = FaultPlan::none();
        // 10 MB at 1 GB/s = 10 ms.
        let done = scan_finish(&healthy, &machine, 0.0, 10e6, bw);
        assert!((done - 0.01).abs() < 1e-12);

        // A 10x fail-slow window opening 5 ms in: half the bytes scan at
        // full rate, the rest at a tenth — 5 ms + 50 ms.
        let plan = FaultPlan::from_events(vec![pmem_sim::faults::FaultEvent {
            start: 0.005,
            end: 1.0,
            kind: pmem_sim::faults::FaultKind::FailSlow { factor: 0.1 },
        }]);
        let straddle = scan_finish(&plan, &machine, 0.0, 10e6, bw);
        assert!((straddle - 0.055).abs() < 1e-9, "got {straddle}");
        // Entirely inside the window: 10x the healthy time.
        let inside = scan_finish(&plan, &machine, 0.01, 10e6, bw);
        assert!((inside - 0.11).abs() < 1e-9);
        // A scan that outlives the window speeds back up at the close.
        let recover = FaultPlan::from_events(vec![pmem_sim::faults::FaultEvent {
            start: 0.0,
            end: 0.01,
            kind: pmem_sim::faults::FaultKind::FailSlow { factor: 0.1 },
        }]);
        let out = scan_finish(&recover, &machine, 0.0, 10e6, bw);
        // 1 ms of work done slow in the first 10 ms, 9 ms of work after.
        assert!((out - 0.019).abs() < 1e-9, "got {out}");
    }

    #[test]
    fn hedge_quantile_falls_back_until_the_window_fills() {
        let mut window = VecDeque::new();
        assert_eq!(hedge_quantile(&window, 0.95, 0.5), 0.5);
        for i in 0..64 {
            window.push_back(i as f64 / 100.0);
        }
        let q = hedge_quantile(&window, 0.95, 0.5);
        assert!((q - 0.60).abs() < 0.02, "p95 of 0..0.63: {q}");
        assert_eq!(hedge_quantile(&window, 1.0, 0.5), 0.63);
    }

    #[test]
    fn cancelled_losers_release_their_lane() {
        // Cancel lands before the loser starts: the lane never saw it.
        assert_eq!(lane_after_cancel(1.0, 2.0, 5.0, 1.5), 1.0);
        // Cancel lands mid-service: the lane frees at the cancel.
        assert_eq!(lane_after_cancel(1.0, 2.0, 5.0, 3.0), 3.0);
        // Cancel lands after the loser finished anyway.
        assert_eq!(lane_after_cancel(1.0, 2.0, 5.0, 9.0), 5.0);
    }
}
