//! Fleet-level modeling: per-machine fault plans and inter-machine
//! transfer pricing for a cluster of simulated PMEM boxes.
//!
//! The single-machine model ([`crate::analytic`], [`crate::faults`])
//! calibrates one dual-socket Optane server. Scale-out serving shards
//! data across N such machines, which introduces two things the
//! single-box model cannot express:
//!
//! * **Independent failure domains.** Each machine degrades on its own
//!   timeline. [`FleetFaultPlans`] derives one [`FaultPlan`] per machine
//!   from a single fleet seed (splitmix64 sub-seeding, the same scheme
//!   the arrival processes use), so a cluster experiment replays
//!   exactly from one number. A whole-machine *blackout* — the failure
//!   unit motivated by the DIMM-loss caveats in the early Optane
//!   evaluations — is composed from existing fault kinds: every channel
//!   of both sockets drops out, the residual channel is write-throttled
//!   to a trickle, and the iMC queues stall for the window. Bandwidth
//!   never reaches exactly zero (the simulator keeps completion times
//!   finite), but the machine is effectively dead to its deadline-
//!   carrying work.
//! * **A priced interconnect.** Replication, failover re-routing and
//!   re-replication move bytes between machines over a network that is
//!   an order of magnitude slower than the local memory bus.
//!   [`Interconnect`] prices a transfer with a latency + bandwidth
//!   model so cluster reports charge remote repairs honestly.

use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultScheduleConfig};
use crate::topology::SocketId;

/// Write-throttle factor applied to a blacked-out socket: the WPQ drain
/// trickles but never fully stops, keeping simulated times finite.
pub const BLACKOUT_THROTTLE: f64 = 1e-3;

use crate::rng::{splitmix64, SplitMix64};

/// Derive machine `m`'s seed from the fleet seed. Deterministic, and
/// distinct machines get uncorrelated streams.
pub fn machine_seed(fleet_seed: u64, machine: usize) -> u64 {
    splitmix64(fleet_seed ^ splitmix64(machine as u64 ^ 0xf1ee_7000_0000_0000))
}

/// Latency + bandwidth pricing for the network between machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Sustained point-to-point bandwidth in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Per-transfer latency floor in seconds (propagation + stack).
    pub latency_seconds: f64,
}

impl Interconnect {
    /// A 100 GbE datacenter link: ~12.5 GB/s sustained, ~10 µs latency.
    /// An order of magnitude below even a degraded socket's PMEM
    /// bandwidth, which is why replication traffic must be priced.
    pub const fn paper_default() -> Self {
        Interconnect {
            bandwidth_bytes_per_sec: 12.5e9,
            latency_seconds: 10e-6,
        }
    }

    /// Seconds to move `bytes` from one machine to another over a
    /// healthy link.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.transfer_seconds_at(bytes, 0.0, &LinkPlan::none())
    }

    /// Seconds to move `bytes` at virtual time `t` under `plan`'s link
    /// degradation: active windows inflate the latency floor and shrink
    /// the usable bandwidth. With the empty plan this is exactly
    /// [`Self::transfer_seconds`].
    pub fn transfer_seconds_at(&self, bytes: u64, t: f64, plan: &LinkPlan) -> f64 {
        let (latency_scale, bandwidth_scale) = plan.scales_at(t);
        self.latency_seconds * latency_scale
            + bytes as f64 / (self.bandwidth_bytes_per_sec * bandwidth_scale).max(1.0)
    }

    /// One-way message latency at time `t` under `plan` (tiny payloads:
    /// requests, partial aggregates, cancels — the bandwidth term is
    /// noise for these, the jittered floor is not).
    pub fn latency_seconds_at(&self, t: f64, plan: &LinkPlan) -> f64 {
        let (latency_scale, _) = plan.scales_at(t);
        self.latency_seconds * latency_scale
    }
}

/// One link-degradation window: while active, the interconnect's latency
/// floor is multiplied by `latency_scale` (≥ 1 for degradation) and its
/// bandwidth by `bandwidth_scale` (≤ 1). Overlapping windows compound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEvent {
    /// Virtual time the degradation begins.
    pub start: f64,
    /// Virtual time the link recovers (half-open window).
    pub end: f64,
    /// Multiplier on the latency floor while active.
    pub latency_scale: f64,
    /// Multiplier on the sustained bandwidth while active.
    pub bandwidth_scale: f64,
}

impl LinkEvent {
    /// Whether the window covers time `t`.
    pub fn active_at(&self, t: f64) -> bool {
        self.start <= t && t < self.end
    }
}

/// A seeded, deterministic schedule of interconnect jitter — the
/// `LinkDegrade` fault plane. The same `(seed, config)` always prices
/// the same transfer the same way, so hedged scatter-gather runs that
/// cross a flaky link replay bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkPlan {
    events: Vec<LinkEvent>,
}

impl LinkPlan {
    /// A healthy link forever.
    pub fn none() -> Self {
        LinkPlan { events: Vec::new() }
    }

    /// Build a plan from explicit windows (sorted by start time).
    pub fn from_events(mut events: Vec<LinkEvent>) -> Self {
        events.sort_by(|a, b| a.start.total_cmp(&b.start));
        LinkPlan { events }
    }

    /// Draw `windows` degradation windows over `[0, horizon)` from a
    /// splitmix64 stream: latency scale uniform in `latency_scale`,
    /// bandwidth scale uniform in `bandwidth_scale`, window length
    /// 10–30% of the horizon. Identical arguments replay identically.
    pub fn generate(
        seed: u64,
        horizon: f64,
        windows: u32,
        latency_scale: (f64, f64),
        bandwidth_scale: (f64, f64),
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let horizon = horizon.max(1e-6);
        let mut draw = |(lo, hi): (f64, f64)| {
            if hi > lo {
                lo + (hi - lo) * rng.next_f64()
            } else {
                lo
            }
        };
        let mut events = Vec::with_capacity(windows as usize);
        for _ in 0..windows {
            let latency_scale = draw(latency_scale);
            let bandwidth_scale = draw(bandwidth_scale);
            let start = draw((0.0, horizon * 0.9));
            let len = draw((horizon * 0.1, horizon * 0.3));
            events.push(LinkEvent {
                start,
                end: (start + len).min(horizon),
                latency_scale,
                bandwidth_scale,
            });
        }
        Self::from_events(events)
    }

    /// Whether the plan degrades nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled windows, sorted by start time.
    pub fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    /// The `(latency_scale, bandwidth_scale)` product of the windows
    /// active at `t`. Latency never improves below the healthy floor
    /// and bandwidth never collapses to exactly zero (transfers stay
    /// finite), mirroring the blackout-throttle convention.
    pub fn scales_at(&self, t: f64) -> (f64, f64) {
        let mut latency = 1.0;
        let mut bandwidth = 1.0;
        for event in &self.events {
            if event.active_at(t) {
                latency *= event.latency_scale.max(0.0);
                bandwidth *= event.bandwidth_scale.max(0.0);
            }
        }
        (latency.max(1.0), bandwidth.clamp(1e-6, 1.0))
    }
}

/// The blackout window of a lost machine, if the fleet schedules one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blackout {
    /// Machine index that goes dark.
    pub machine: usize,
    /// Virtual time the machine drops.
    pub at: f64,
    /// Virtual time the window closes (usually past the run horizon:
    /// the machine stays dead for the whole experiment).
    pub until: f64,
}

/// The fail-slow window of a gray-degraded machine, if one is scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailSlowWindow {
    /// Machine index that degrades.
    pub machine: usize,
    /// Virtual time the degradation begins.
    pub at: f64,
    /// Virtual time the machine recovers (half-open window).
    pub until: f64,
    /// Remaining fraction of the machine's service rate.
    pub factor: f64,
}

/// One seeded [`FaultPlan`] per machine of a simulated fleet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetFaultPlans {
    plans: Vec<FaultPlan>,
    blackout: Option<Blackout>,
    fail_slow: Option<FailSlowWindow>,
}

impl FleetFaultPlans {
    /// A healthy fleet: every machine gets the empty plan.
    pub fn healthy(machines: usize) -> Self {
        FleetFaultPlans {
            plans: vec![FaultPlan::none(); machines],
            blackout: None,
            fail_slow: None,
        }
    }

    /// Seed-derived background fault schedules: machine `m` runs
    /// `FaultPlan::generate(machine_seed(seed, m), config)`. Identical
    /// `(seed, machines, config)` triples produce identical fleets.
    pub fn generate(seed: u64, machines: usize, config: &FaultScheduleConfig) -> Self {
        FleetFaultPlans {
            plans: (0..machines)
                .map(|m| FaultPlan::generate(machine_seed(seed, m), config))
                .collect(),
            blackout: None,
            fail_slow: None,
        }
    }

    /// Overlay a whole-machine blackout on machine `victim` over
    /// `[at, until)`: both sockets lose every interleaved channel the
    /// dropout clamp allows, the surviving channel is throttled to
    /// [`BLACKOUT_THROTTLE`], and the iMC queues stall. The machine's
    /// effective bandwidth collapses by >10³ — dead for any deadline-
    /// carrying job — while virtual time still advances.
    pub fn with_lost_machine(mut self, victim: usize, at: f64, until: f64) -> Self {
        if let Some(plan) = self.plans.get_mut(victim) {
            let mut events = plan.events().to_vec();
            events.extend(blackout_events(at, until));
            *plan = FaultPlan::from_events(events);
            self.blackout = Some(Blackout {
                machine: victim,
                at,
                until,
            });
        }
        self
    }

    /// Overlay a sustained fail-slow window on machine `victim` over
    /// `[at, until)`: the whole machine serves at `factor` of its rate —
    /// alive, answering, and slow. Unlike a blackout nothing binary ever
    /// trips; only latency-sensitive detection can see it. Composable
    /// with [`Self::with_lost_machine`] on a different (or the same)
    /// machine.
    pub fn with_fail_slow(mut self, victim: usize, at: f64, until: f64, factor: f64) -> Self {
        if let Some(plan) = self.plans.get_mut(victim) {
            let mut events = plan.events().to_vec();
            events.push(FaultEvent {
                start: at,
                end: until,
                kind: FaultKind::FailSlow { factor },
            });
            *plan = FaultPlan::from_events(events);
            self.fail_slow = Some(FailSlowWindow {
                machine: victim,
                at,
                until,
                factor,
            });
        }
        self
    }

    /// Overlay one extra fault event on machine `victim`'s plan — the
    /// composition hook the chaos scheduler uses to stack power losses
    /// and media errors onto blackout/fail-slow fleets. A no-op for
    /// out-of-range machines, like the other overlays.
    pub fn with_machine_event(mut self, victim: usize, event: FaultEvent) -> Self {
        if let Some(plan) = self.plans.get_mut(victim) {
            let mut events = plan.events().to_vec();
            events.push(event);
            *plan = FaultPlan::from_events(events);
        }
        self
    }

    /// Machine `m`'s plan. Out-of-range machines are healthy.
    pub fn plan(&self, machine: usize) -> FaultPlan {
        self.plans.get(machine).cloned().unwrap_or_default()
    }

    /// Number of machines in the fleet.
    pub fn machines(&self) -> usize {
        self.plans.len()
    }

    /// The scheduled blackout, if [`Self::with_lost_machine`] installed one.
    pub fn blackout(&self) -> Option<Blackout> {
        self.blackout
    }

    /// The scheduled fail-slow window, if [`Self::with_fail_slow`]
    /// installed one.
    pub fn fail_slow(&self) -> Option<FailSlowWindow> {
        self.fail_slow
    }
}

/// The event stack that kills one whole machine over `[at, until)`.
pub fn blackout_events(at: f64, until: f64) -> Vec<FaultEvent> {
    let mut events = Vec::with_capacity(6);
    for socket in [SocketId(0), SocketId(1)] {
        events.push(FaultEvent {
            start: at,
            end: until,
            kind: FaultKind::DimmDropout { socket, dimms: 255 },
        });
        events.push(FaultEvent {
            start: at,
            end: until,
            kind: FaultKind::WriteThrottle {
                socket,
                factor: BLACKOUT_THROTTLE,
            },
        });
        events.push(FaultEvent {
            start: at,
            end: until,
            kind: FaultKind::QueueStall { socket },
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::STALL_SCALE;
    use crate::topology::Machine;

    #[test]
    fn machine_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..16).map(|m| machine_seed(7, m)).collect();
        let b: Vec<u64> = (0..16).map(|m| machine_seed(7, m)).collect();
        assert_eq!(a, b, "same fleet seed, same per-machine seeds");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "machines get distinct seeds");
        assert_ne!(machine_seed(7, 0), machine_seed(8, 0), "seed matters");
    }

    #[test]
    fn generated_fleet_is_reproducible_and_per_machine_distinct() {
        let cfg = FaultScheduleConfig::over(1.0);
        let a = FleetFaultPlans::generate(42, 4, &cfg);
        let b = FleetFaultPlans::generate(42, 4, &cfg);
        for m in 0..4 {
            assert_eq!(a.plan(m), b.plan(m), "machine {m} replays exactly");
        }
        assert_ne!(a.plan(0), a.plan(1), "machines fail independently");
    }

    #[test]
    fn blackout_stack_constants_are_pinned() {
        // The blackout stack is built in exactly one place
        // (`blackout_events`); `with_lost_machine` and every test and
        // rejoin window must route through it. Pin the constants so a
        // drift in either direction (stack composition or rejoin window
        // interpretation) fails loudly here.
        assert_eq!(BLACKOUT_THROTTLE, 1e-3, "pinned: >10^3 collapse");
        let stack = blackout_events(0.2, 1.0);
        assert_eq!(stack.len(), 6, "3 kinds x 2 sockets");
        for socket in [SocketId(0), SocketId(1)] {
            let expect = [
                FaultKind::DimmDropout { socket, dimms: 255 },
                FaultKind::WriteThrottle {
                    socket,
                    factor: BLACKOUT_THROTTLE,
                },
                FaultKind::QueueStall { socket },
            ];
            for kind in expect {
                assert!(
                    stack
                        .iter()
                        .any(|e| e.start == 0.2 && e.end == 1.0 && e.kind == kind),
                    "stack carries {kind:?} over the exact window"
                );
            }
        }
        // `with_lost_machine` is the same stack, event for event: the
        // overlaid plan equals `from_events(blackout_events(..))`.
        let fleet = FleetFaultPlans::healthy(2).with_lost_machine(1, 0.2, 1.0);
        assert_eq!(fleet.plan(1), FaultPlan::from_events(stack));
    }

    #[test]
    fn extra_machine_events_compose_with_the_blackout_stack() {
        let fleet = FleetFaultPlans::healthy(2)
            .with_lost_machine(0, 0.2, 0.4)
            .with_machine_event(
                0,
                FaultEvent {
                    start: 0.25,
                    end: 0.25,
                    kind: FaultKind::PowerLoss {
                        socket: SocketId(0),
                    },
                },
            );
        assert_eq!(fleet.plan(0).power_losses_in(0.0, 1.0).len(), 1);
        let machine = Machine::paper_default();
        assert!(fleet.plan(0).state_at(&machine, 0.3).is_degraded());
        // Out-of-range machines stay healthy, like the other overlays.
        let noop = FleetFaultPlans::healthy(1).with_machine_event(
            5,
            FaultEvent {
                start: 0.1,
                end: 0.1,
                kind: FaultKind::PowerLoss {
                    socket: SocketId(0),
                },
            },
        );
        assert!(noop.plan(5).is_empty());
    }

    #[test]
    fn blackout_collapses_both_sockets_for_the_window() {
        let fleet = FleetFaultPlans::healthy(3).with_lost_machine(1, 0.2, 1.0);
        let machine = Machine::paper_default();
        let dead = fleet.plan(1);
        for socket in [SocketId(0), SocketId(1)] {
            let s = dead.state_at(&machine, 0.5).socket(socket);
            // Dropout leaves 1/channels, the stall multiplies STALL_SCALE
            // on top, and writes also carry the throttle factor.
            assert!(
                s.read_scale <= STALL_SCALE / 2.0,
                "reads dead: {}",
                s.read_scale
            );
            assert!(
                s.write_scale <= BLACKOUT_THROTTLE,
                "writes dead: {}",
                s.write_scale
            );
            assert!(
                s.read_scale > 0.0 && s.write_scale > 0.0,
                "never exactly zero"
            );
        }
        // Before the window and on healthy peers nothing degrades.
        assert!(!dead.state_at(&machine, 0.1).is_degraded());
        assert!(!fleet.plan(0).state_at(&machine, 0.5).is_degraded());
        assert_eq!(
            fleet.blackout(),
            Some(Blackout {
                machine: 1,
                at: 0.2,
                until: 1.0
            })
        );
    }

    #[test]
    fn interconnect_prices_latency_plus_bytes() {
        let net = Interconnect::paper_default();
        let small = net.transfer_seconds(0);
        assert!((small - 10e-6).abs() < 1e-12, "latency floor");
        let gib = net.transfer_seconds(1 << 30);
        assert!(
            gib > 0.08 && gib < 0.09,
            "1 GiB over 100 GbE ~ 86 ms: {gib}"
        );
        assert!(
            net.transfer_seconds(2 << 30) > 2.0 * gib - 10e-6,
            "bytes dominate large transfers"
        );
    }

    #[test]
    fn out_of_range_machines_are_healthy() {
        let fleet = FleetFaultPlans::healthy(2);
        assert!(fleet.plan(9).is_empty());
        assert_eq!(fleet.machines(), 2);
        assert_eq!(
            fleet.clone().with_fail_slow(9, 0.0, 1.0, 0.1).fail_slow(),
            None,
            "fail-slow on a machine that is not there is a no-op"
        );
    }

    #[test]
    fn fail_slow_degrades_one_machine_and_composes_with_blackout() {
        let fleet = FleetFaultPlans::healthy(4)
            .with_fail_slow(2, 0.1, 0.5, 0.1)
            .with_lost_machine(1, 0.3, 1.0);
        let machine = Machine::paper_default();
        let gray = fleet.plan(2);
        let state = gray.state_at(&machine, 0.2);
        assert!((state.service_scale() - 0.1).abs() < 1e-12, "10x slower");
        assert!(
            state.service_scale() > BLACKOUT_THROTTLE * 10.0,
            "gray is alive — orders of magnitude above a blackout"
        );
        assert!(!gray.state_at(&machine, 0.6).is_degraded(), "recovers");
        // The blackout on machine 1 coexists with the gray window on 2.
        let dead = fleet.plan(1).state_at(&machine, 0.5);
        assert!(dead.service_scale() < STALL_SCALE);
        assert!(!fleet.plan(0).state_at(&machine, 0.2).is_degraded());
        assert_eq!(
            fleet.fail_slow(),
            Some(FailSlowWindow {
                machine: 2,
                at: 0.1,
                until: 0.5,
                factor: 0.1
            })
        );
        assert!(fleet.blackout().is_some());
    }

    #[test]
    fn fail_slow_stacks_onto_a_blackout_of_the_same_machine() {
        // A machine can fail slow *and then* die: the windows multiply
        // where they overlap, and the record-keeping keeps both.
        let fleet = FleetFaultPlans::healthy(2)
            .with_fail_slow(0, 0.1, 1.0, 0.5)
            .with_lost_machine(0, 0.5, 1.0);
        let machine = Machine::paper_default();
        let plan = fleet.plan(0);
        assert!((plan.state_at(&machine, 0.2).service_scale() - 0.5).abs() < 1e-12);
        let both = plan.state_at(&machine, 0.7).service_scale();
        let dead_only = FleetFaultPlans::healthy(2)
            .with_lost_machine(0, 0.5, 1.0)
            .plan(0)
            .state_at(&machine, 0.7)
            .service_scale();
        assert!((both - dead_only * 0.5).abs() < 1e-15, "scales multiply");
    }

    #[test]
    fn transfer_seconds_zero_bytes_is_exactly_the_latency_floor() {
        let net = Interconnect::paper_default();
        assert_eq!(
            net.transfer_seconds(0).to_bits(),
            net.latency_seconds.to_bits(),
            "zero bytes pay latency and nothing else"
        );
        // The degraded-link path agrees on a healthy plan, bit for bit.
        assert_eq!(
            net.transfer_seconds_at(0, 0.5, &LinkPlan::none()).to_bits(),
            net.transfer_seconds(0).to_bits()
        );
        assert_eq!(
            net.latency_seconds_at(0.5, &LinkPlan::none()).to_bits(),
            net.latency_seconds.to_bits()
        );
    }

    #[test]
    fn degraded_link_inflates_latency_and_shrinks_bandwidth() {
        let net = Interconnect::paper_default();
        let plan = LinkPlan::from_events(vec![LinkEvent {
            start: 0.1,
            end: 0.4,
            latency_scale: 5.0,
            bandwidth_scale: 0.25,
        }]);
        let bytes = 1u64 << 30;
        let healthy = net.transfer_seconds_at(bytes, 0.05, &plan);
        assert_eq!(
            healthy.to_bits(),
            net.transfer_seconds(bytes).to_bits(),
            "outside the window the plan prices nothing"
        );
        let degraded = net.transfer_seconds_at(bytes, 0.2, &plan);
        let expect =
            net.latency_seconds * 5.0 + bytes as f64 / (net.bandwidth_bytes_per_sec * 0.25);
        assert!((degraded - expect).abs() < 1e-12);
        assert!(degraded > 3.9 * healthy, "a quartered link ~4x slower");
        assert!((net.latency_seconds_at(0.2, &plan) - 5.0 * net.latency_seconds).abs() < 1e-15);
        // Half-open window: recovery instant prices healthy again.
        assert_eq!(
            net.transfer_seconds_at(bytes, 0.4, &plan).to_bits(),
            net.transfer_seconds(bytes).to_bits()
        );
    }

    #[test]
    fn degraded_link_extremes_stay_finite_and_bounded() {
        let net = Interconnect::paper_default();
        // A pathological plan: bandwidth scaled to zero, latency scaled
        // below one, both at once. Scales clamp — bandwidth to a floor
        // that keeps transfers finite, latency to never beat healthy.
        let broken = LinkPlan::from_events(vec![LinkEvent {
            start: 0.0,
            end: 1.0,
            latency_scale: 0.01,
            bandwidth_scale: 0.0,
        }]);
        let (latency_scale, bandwidth_scale) = broken.scales_at(0.5);
        assert_eq!(latency_scale, 1.0, "latency never improves under faults");
        assert_eq!(bandwidth_scale, 1e-6, "bandwidth floor keeps time finite");
        let t = net.transfer_seconds_at(64 << 20, 0.5, &broken);
        assert!(t.is_finite() && t > 0.0);
        // Overlapping windows compound, and still clamp.
        let stacked = LinkPlan::from_events(vec![
            LinkEvent {
                start: 0.0,
                end: 1.0,
                latency_scale: 4.0,
                bandwidth_scale: 0.1,
            },
            LinkEvent {
                start: 0.0,
                end: 1.0,
                latency_scale: 3.0,
                bandwidth_scale: 0.001,
            },
        ]);
        let (latency_scale, bandwidth_scale) = stacked.scales_at(0.5);
        assert!((latency_scale - 12.0).abs() < 1e-12);
        assert!((bandwidth_scale - 1e-4).abs() < 1e-16);
        assert!(net.transfer_seconds_at(u64::MAX, 0.5, &stacked).is_finite());
        // Zero bytes under an extreme plan still pays only (scaled) latency.
        let zero = net.transfer_seconds_at(0, 0.5, &stacked);
        assert!((zero - 12.0 * net.latency_seconds).abs() < 1e-15);
    }

    #[test]
    fn link_plans_replay_from_their_seed() {
        let gen = || LinkPlan::generate(9, 0.2, 3, (1.5, 6.0), (0.2, 0.9));
        let a = gen();
        assert_eq!(a, gen(), "same seed, same jitter");
        assert_eq!(a.events().len(), 3);
        for e in a.events() {
            assert!(e.start >= 0.0 && e.end <= 0.2 && e.end > e.start);
            assert!((1.5..6.0).contains(&e.latency_scale));
            assert!((0.2..0.9).contains(&e.bandwidth_scale));
        }
        assert_ne!(
            a,
            LinkPlan::generate(10, 0.2, 3, (1.5, 6.0), (0.2, 0.9)),
            "seed matters"
        );
        assert!(LinkPlan::none().is_empty());
        assert_eq!(LinkPlan::none().scales_at(0.1), (1.0, 1.0));
    }
}
