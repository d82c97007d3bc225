//! Deterministic fault injection for the simulated machine.
//!
//! The paper's bandwidth model assumes a healthy server, but the mechanisms
//! it calibrates — per-DIMM write-combining buffers, RPQ/WPQ queues, UPI
//! capacity — are exactly what degrades in production. Optane DIMMs
//! thermally throttle their write path, a DIMM can drop out of the
//! interleave set, the UPI link loses lanes, and queues stall for bursts at
//! a time (the early-evaluation studies report all four). This module
//! expresses those degradations as a *seeded, deterministic* schedule so
//! resilience experiments are exactly reproducible: the same seed always
//! yields the same fault timeline.
//!
//! A [`FaultPlan`] is a list of timed [`FaultEvent`]s. Consumers fold the
//! events active at a virtual time `t` into a [`MachineFaultState`] — a pair
//! of per-socket read/write bandwidth scale factors plus a UPI capacity
//! scale — via [`FaultPlan::state_at`], and chop their simulation steps at
//! [`FaultPlan::next_transition_after`] so rates stay piecewise-constant.
//! Power-loss events are instantaneous and surfaced separately through
//! [`FaultPlan::power_losses_in`]; the storage layer maps them onto
//! `Region::crash`. Media errors — Optane's third failure class, an
//! uncorrectable error poisoning a 256 B XPLine-aligned range — are likewise
//! instantaneous and surfaced through [`FaultPlan::media_errors_in`]; the
//! storage layer maps them onto `Region::inject_poison` and the scrubber
//! repairs them from durable checkpoints.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::topology::{Machine, SocketId};

/// Bandwidth scale applied to a socket while one of its iMC queues is
/// stalled: the queue drains almost nothing, but forward progress never
/// fully stops (retries trickle through), which keeps simulated completion
/// times finite.
pub const STALL_SCALE: f64 = 0.05;

/// Media (poison) granularity of an Optane DIMM: one 256 B XPLine. Injected
/// media errors are aligned to this boundary, matching the device's
/// error-reporting granularity.
pub const XPLINE_BYTES: u64 = 256;

/// One kind of injected hardware degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Thermal write throttling on one socket's DIMMs: the WPQ drain rate —
    /// and with it the achievable write bandwidth — is scaled by `factor`.
    WriteThrottle {
        /// Socket whose DIMMs throttle.
        socket: SocketId,
        /// WPQ drain-rate scale in `(0, 1)`.
        factor: f64,
    },
    /// `dimms` DIMMs of one socket's interleave set stop serving traffic.
    /// Both read and write bandwidth shrink with the lost channel share.
    DimmDropout {
        /// Socket losing DIMMs.
        socket: SocketId,
        /// Number of DIMMs lost (clamped below the socket's channel count).
        dimms: u8,
    },
    /// The UPI link degrades (lane failure / retraining): cross-socket
    /// capacity is scaled by `factor`.
    UpiDegrade {
        /// Remaining fraction of UPI capacity in `(0, 1)`.
        factor: f64,
    },
    /// A transient RPQ/WPQ stall burst on one socket: both directions drop
    /// to [`STALL_SCALE`] for the duration.
    QueueStall {
        /// Socket whose iMC queues stall.
        socket: SocketId,
    },
    /// A sustained machine-wide service-rate degradation ("fail-slow"):
    /// every socket's read *and* write bandwidth is scaled by `factor`
    /// for the window. This is the gray-failure unit — thermal
    /// throttling, a misbehaving firmware background task, a saturated
    /// CPU — where the machine keeps answering, just 10× slower, and
    /// nothing binary (heartbeats, connects) ever trips. Composable
    /// with the blackout event stack in [`crate::fleet`].
    FailSlow {
        /// Remaining fraction of the machine's service rate in `(0, 1)`.
        factor: f64,
    },
    /// An instantaneous power-loss event on one socket. Carries no duration;
    /// the storage layer replays it as `Region::crash` (unfenced lines are
    /// lost) and the serving layer fails the jobs running there.
    PowerLoss {
        /// Socket that loses power.
        socket: SocketId,
    },
    /// An instantaneous uncorrectable media error on one socket: `lines`
    /// consecutive 256 B XPLines starting at byte `offset` (relative to the
    /// socket's poisoned address space) become poisoned. Like power loss it
    /// carries no duration and never alters bandwidth rates; the storage
    /// layer maps it onto `Region::inject_poison` and consumers see
    /// `StoreError::Poisoned` until a scrub/repair pass rewrites the lines.
    MediaError {
        /// Socket whose DIMM takes the media error.
        socket: SocketId,
        /// Byte offset of the first poisoned XPLine ([`XPLINE_BYTES`]-aligned).
        offset: u64,
        /// Number of consecutive XPLines poisoned.
        lines: u32,
    },
}

impl FaultKind {
    /// The socket this fault degrades, if it is socket-local.
    pub fn socket(&self) -> Option<SocketId> {
        match *self {
            FaultKind::WriteThrottle { socket, .. }
            | FaultKind::DimmDropout { socket, .. }
            | FaultKind::QueueStall { socket }
            | FaultKind::PowerLoss { socket }
            | FaultKind::MediaError { socket, .. } => Some(socket),
            FaultKind::UpiDegrade { .. } | FaultKind::FailSlow { .. } => None,
        }
    }
}

/// A fault with its active window `[start, end)` in virtual seconds.
/// Power-loss events are instantaneous: `end == start`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time the fault begins.
    pub start: f64,
    /// Virtual time the fault clears (equal to `start` for power loss).
    pub end: f64,
    /// What degrades.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the fault's window covers time `t`.
    pub fn active_at(&self, t: f64) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether this is an instantaneous power-loss event.
    pub fn is_power_loss(&self) -> bool {
        matches!(self.kind, FaultKind::PowerLoss { .. })
    }

    /// Whether this is an instantaneous media-error (poison) event.
    pub fn is_media_error(&self) -> bool {
        matches!(self.kind, FaultKind::MediaError { .. })
    }
}

/// Bandwidth scale factors for one socket at a point in virtual time.
/// `1.0` is healthy; multiple active faults multiply together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketFaultState {
    /// Scale on the socket's achievable read bandwidth.
    pub read_scale: f64,
    /// Scale on the socket's achievable write bandwidth (WPQ drain rate).
    pub write_scale: f64,
}

impl SocketFaultState {
    /// A healthy socket: both scales at 1.0.
    pub const HEALTHY: SocketFaultState = SocketFaultState {
        read_scale: 1.0,
        write_scale: 1.0,
    };

    /// Whether any meaningful degradation applies.
    pub fn is_degraded(&self) -> bool {
        self.read_scale < 0.999 || self.write_scale < 0.999
    }

    fn apply(&mut self, kind: &FaultKind, machine: &Machine) {
        match *kind {
            FaultKind::WriteThrottle { factor, .. } => {
                self.write_scale *= factor.clamp(0.0, 1.0);
            }
            FaultKind::DimmDropout { dimms, .. } => {
                let channels = machine.channels_per_socket().max(1);
                let lost = dimms.min(channels - 1);
                let share = f64::from(channels - lost) / f64::from(channels);
                self.read_scale *= share;
                self.write_scale *= share;
            }
            FaultKind::QueueStall { .. } => {
                self.read_scale *= STALL_SCALE;
                self.write_scale *= STALL_SCALE;
            }
            FaultKind::UpiDegrade { .. }
            | FaultKind::FailSlow { .. }
            | FaultKind::PowerLoss { .. }
            | FaultKind::MediaError { .. } => {}
        }
    }
}

impl Default for SocketFaultState {
    fn default() -> Self {
        SocketFaultState::HEALTHY
    }
}

/// The machine-wide fault state at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineFaultState {
    /// Per-socket degradation (index = `SocketId.0`).
    pub sockets: [SocketFaultState; 2],
    /// Remaining fraction of UPI capacity (1.0 = healthy link).
    pub upi_scale: f64,
}

impl MachineFaultState {
    /// A fully healthy machine.
    pub const HEALTHY: MachineFaultState = MachineFaultState {
        sockets: [SocketFaultState::HEALTHY, SocketFaultState::HEALTHY],
        upi_scale: 1.0,
    };

    /// The fault state of one socket.
    pub fn socket(&self, socket: SocketId) -> SocketFaultState {
        self.sockets[socket.0 as usize % 2]
    }

    /// Whether anything on the machine is degraded.
    pub fn is_degraded(&self) -> bool {
        self.upi_scale < 0.999 || self.sockets.iter().any(|s| s.is_degraded())
    }

    /// Mean read-path scale across both sockets — the service rate a
    /// scan (or a health probe pricing one) sees on this machine, since
    /// the query plane reads partitions resident on either socket.
    pub fn service_scale(&self) -> f64 {
        (self.sockets[0].read_scale + self.sockets[1].read_scale) / 2.0
    }
}

impl Default for MachineFaultState {
    fn default() -> Self {
        MachineFaultState::HEALTHY
    }
}

/// Shape of a generated fault schedule: how many of each fault kind to
/// draw and over what horizon. All draws come from one seeded generator,
/// so a `(seed, config)` pair fully determines the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScheduleConfig {
    /// Virtual-time horizon the faults are scattered over, in seconds.
    pub horizon: f64,
    /// Concentrate socket-local faults on this socket instead of drawing
    /// the victim uniformly. Useful for experiments that contrast a
    /// degraded socket against a healthy peer.
    pub victim: Option<SocketId>,
    /// Number of thermal write-throttling windows.
    pub write_throttles: u32,
    /// Range the throttle factor is drawn from.
    pub throttle_factor: (f64, f64),
    /// Number of transient queue-stall bursts.
    pub stall_bursts: u32,
    /// Number of instantaneous power-loss events.
    pub power_losses: u32,
    /// Number of instantaneous media-error (poison) events. Defaults to 0
    /// so schedules generated before media errors existed keep their exact
    /// timelines; integrity experiments opt in explicitly.
    pub media_errors: u32,
    /// Number of sustained machine-wide fail-slow windows. Defaults to 0
    /// so schedules generated before the gray-failure plane existed keep
    /// their exact timelines; gray experiments opt in explicitly.
    pub fail_slows: u32,
}

/// DIMM-dropout windows per generated schedule (1–2 DIMMs each).
const DIMM_DROPOUTS: u32 = 1;

/// UPI degradation windows per generated schedule.
const UPI_DEGRADES: u32 = 1;

/// Range the UPI capacity factor is drawn from.
const UPI_FACTOR: (f64, f64) = (0.3, 0.7);

/// Range a stall burst's duration is drawn from, in seconds.
const STALL_DURATION: (f64, f64) = (0.01, 0.05);

/// Byte span of the per-socket address space media-error offsets are
/// drawn from. Consumers reduce the offset modulo their region length,
/// so this only needs to be large enough to spread draws out.
const MEDIA_SPAN: u64 = 64 << 20;

/// Maximum number of consecutive XPLines one media error poisons (drawn
/// uniformly from `1..=MEDIA_LINES_MAX`).
const MEDIA_LINES_MAX: u32 = 4;

/// Range the fail-slow service-rate factor is drawn from.
const FAIL_SLOW_FACTOR: (f64, f64) = (0.05, 0.25);

impl FaultScheduleConfig {
    /// A moderately hostile default over the given horizon: a couple of
    /// throttle windows, one dropout, one UPI degradation, a few stall
    /// bursts, and one power loss.
    pub fn over(horizon: f64) -> Self {
        FaultScheduleConfig {
            horizon,
            victim: None,
            write_throttles: 2,
            throttle_factor: (0.1, 0.4),
            stall_bursts: 3,
            power_losses: 1,
            media_errors: 0,
            fail_slows: 0,
        }
    }

    /// The hostile default plus `count` media errors — the opt-in used by
    /// integrity experiments.
    pub fn with_media_errors(horizon: f64, count: u32) -> Self {
        FaultScheduleConfig {
            media_errors: count,
            ..FaultScheduleConfig::over(horizon)
        }
    }

    /// The hostile default plus `count` fail-slow windows — the opt-in
    /// used by gray-failure experiments.
    pub fn with_fail_slows(horizon: f64, count: u32) -> Self {
        FaultScheduleConfig {
            fail_slows: count,
            ..FaultScheduleConfig::over(horizon)
        }
    }
}

impl Default for FaultScheduleConfig {
    fn default() -> Self {
        FaultScheduleConfig::over(1.0)
    }
}

/// A deterministic schedule of fault events over virtual time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a healthy machine forever.
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Build a plan from explicit events (sorted by start time).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.start.total_cmp(&b.start));
        FaultPlan { events }
    }

    /// Generate a schedule from a seed. Identical `(seed, config)` pairs
    /// produce identical plans — the seed drives a [`SmallRng`] and every
    /// draw happens in a fixed order.
    pub fn generate(seed: u64, config: &FaultScheduleConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let horizon = config.horizon.max(1e-6);
        let mut events = Vec::new();

        let victim = |rng: &mut SmallRng| {
            config
                .victim
                .unwrap_or_else(|| SocketId(if rng.gen_bool(0.5) { 0 } else { 1 }))
        };
        let range = |rng: &mut SmallRng, (lo, hi): (f64, f64)| {
            if hi > lo {
                rng.gen_range(lo..hi)
            } else {
                lo
            }
        };

        for _ in 0..config.write_throttles {
            let socket = victim(&mut rng);
            let factor = range(&mut rng, config.throttle_factor);
            let start = rng.gen_range(0.0..horizon * 0.5);
            let len = rng.gen_range(horizon * 0.2..horizon * 0.6);
            events.push(FaultEvent {
                start,
                end: (start + len).min(horizon),
                kind: FaultKind::WriteThrottle { socket, factor },
            });
        }
        for _ in 0..DIMM_DROPOUTS {
            let socket = victim(&mut rng);
            let dimms = if rng.gen_bool(0.7) { 1 } else { 2 };
            let start = rng.gen_range(0.0..horizon * 0.7);
            let len = rng.gen_range(horizon * 0.1..horizon * 0.3);
            events.push(FaultEvent {
                start,
                end: (start + len).min(horizon),
                kind: FaultKind::DimmDropout { socket, dimms },
            });
        }
        for _ in 0..UPI_DEGRADES {
            let factor = range(&mut rng, UPI_FACTOR);
            let start = rng.gen_range(0.0..horizon * 0.7);
            let len = rng.gen_range(horizon * 0.1..horizon * 0.4);
            events.push(FaultEvent {
                start,
                end: (start + len).min(horizon),
                kind: FaultKind::UpiDegrade { factor },
            });
        }
        for _ in 0..config.stall_bursts {
            let socket = victim(&mut rng);
            let start = rng.gen_range(0.0..horizon * 0.9);
            let len = range(&mut rng, STALL_DURATION);
            events.push(FaultEvent {
                start,
                end: (start + len).min(horizon),
                kind: FaultKind::QueueStall { socket },
            });
        }
        for _ in 0..config.power_losses {
            let socket = victim(&mut rng);
            let at = rng.gen_range(horizon * 0.1..horizon * 0.9);
            events.push(FaultEvent {
                start: at,
                end: at,
                kind: FaultKind::PowerLoss { socket },
            });
        }
        // Media errors draw last so pre-existing schedules (media_errors == 0)
        // keep byte-identical event streams for a given seed.
        let span_lines = (MEDIA_SPAN / XPLINE_BYTES).max(1);
        for _ in 0..config.media_errors {
            let socket = victim(&mut rng);
            let offset = rng.gen_range(0..span_lines) * XPLINE_BYTES;
            let lines = rng.gen_range(1..=MEDIA_LINES_MAX);
            let at = rng.gen_range(horizon * 0.1..horizon * 0.9);
            events.push(FaultEvent {
                start: at,
                end: at,
                kind: FaultKind::MediaError {
                    socket,
                    offset,
                    lines,
                },
            });
        }

        // Fail-slow windows draw after media errors for the same reason
        // media errors draw after everything else: appending keeps the
        // non-fail-slow prefix of a seed's event stream byte-identical
        // when a config opts in.
        for _ in 0..config.fail_slows {
            let factor = range(&mut rng, FAIL_SLOW_FACTOR);
            let start = rng.gen_range(0.0..horizon * 0.7);
            let len = rng.gen_range(horizon * 0.2..horizon * 0.6);
            events.push(FaultEvent {
                start,
                end: (start + len).min(horizon),
                kind: FaultKind::FailSlow { factor },
            });
        }

        Self::from_events(events)
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, sorted by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Fold the events active at time `t` into a machine-wide fault state.
    /// The `machine` supplies the channel count that prices DIMM dropouts.
    pub fn state_at(&self, machine: &Machine, t: f64) -> MachineFaultState {
        let mut state = MachineFaultState::HEALTHY;
        for event in &self.events {
            if !event.active_at(t) {
                continue;
            }
            if let FaultKind::UpiDegrade { factor } = event.kind {
                state.upi_scale *= factor.clamp(0.0, 1.0);
            } else if let FaultKind::FailSlow { factor } = event.kind {
                let f = factor.clamp(0.0, 1.0);
                for socket in &mut state.sockets {
                    socket.read_scale *= f;
                    socket.write_scale *= f;
                }
            } else if let Some(socket) = event.kind.socket() {
                state.sockets[socket.0 as usize % 2].apply(&event.kind, machine);
            }
        }
        state
    }

    /// The earliest event boundary (start or end) strictly after `t`, if
    /// any. Simulation loops chop their steps here so rates stay
    /// piecewise-constant within a step.
    pub fn next_transition_after(&self, t: f64) -> Option<f64> {
        self.events
            .iter()
            .flat_map(|e| [e.start, e.end])
            .filter(|&b| b > t)
            .min_by(f64::total_cmp)
    }

    /// Power-loss events with `after < time <= until`, in time order.
    pub fn power_losses_in(&self, after: f64, until: f64) -> Vec<(f64, SocketId)> {
        let mut losses: Vec<(f64, SocketId)> = self
            .events
            .iter()
            .filter(|e| e.is_power_loss() && e.start > after && e.start <= until)
            .filter_map(|e| e.kind.socket().map(|s| (e.start, s)))
            .collect();
        losses.sort_by(|a, b| a.0.total_cmp(&b.0));
        losses
    }

    /// Media-error events with `after < time <= until`, in time order.
    pub fn media_errors_in(&self, after: f64, until: f64) -> Vec<MediaHit> {
        let mut hits: Vec<MediaHit> = self
            .events
            .iter()
            .filter(|e| e.start > after && e.start <= until)
            .filter_map(|e| match e.kind {
                FaultKind::MediaError {
                    socket,
                    offset,
                    lines,
                } => Some(MediaHit {
                    at: e.start,
                    socket,
                    offset,
                    lines,
                }),
                _ => None,
            })
            .collect();
        hits.sort_by(|a, b| a.at.total_cmp(&b.at));
        hits
    }
}

/// One materialized media-error event, as surfaced by
/// [`FaultPlan::media_errors_in`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaHit {
    /// Virtual time the poison lands.
    pub at: f64,
    /// Socket whose DIMM takes the error.
    pub socket: SocketId,
    /// Byte offset of the first poisoned XPLine.
    pub offset: u64,
    /// Number of consecutive XPLines poisoned.
    pub lines: u32,
}

impl MediaHit {
    /// Total poisoned span in bytes.
    pub fn len(&self) -> u64 {
        u64::from(self.lines.max(1)) * XPLINE_BYTES
    }

    /// Whether the hit poisons nothing (never true for generated plans).
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::paper_default()
    }

    #[test]
    fn identical_seeds_reproduce_identical_timelines() {
        let cfg = FaultScheduleConfig::over(2.0);
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultScheduleConfig::over(2.0);
        assert_ne!(FaultPlan::generate(1, &cfg), FaultPlan::generate(2, &cfg));
    }

    #[test]
    fn empty_plan_is_always_healthy() {
        let plan = FaultPlan::none();
        let state = plan.state_at(&machine(), 0.5);
        assert_eq!(state, MachineFaultState::HEALTHY);
        assert!(!state.is_degraded());
        assert_eq!(plan.next_transition_after(0.0), None);
        assert!(plan.power_losses_in(0.0, 100.0).is_empty());
    }

    #[test]
    fn write_throttle_scales_only_writes() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            start: 1.0,
            end: 2.0,
            kind: FaultKind::WriteThrottle {
                socket: SocketId(0),
                factor: 0.25,
            },
        }]);
        let m = machine();
        assert!(!plan.state_at(&m, 0.5).is_degraded(), "before the window");
        let during = plan.state_at(&m, 1.5);
        let s0 = during.socket(SocketId(0));
        assert!((s0.write_scale - 0.25).abs() < 1e-12);
        assert!((s0.read_scale - 1.0).abs() < 1e-12);
        assert!(!during.socket(SocketId(1)).is_degraded(), "peer is healthy");
        assert!(!plan.state_at(&m, 2.0).is_degraded(), "window is half-open");
    }

    #[test]
    fn dimm_dropout_prices_the_lost_channel_share() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            start: 0.0,
            end: 1.0,
            kind: FaultKind::DimmDropout {
                socket: SocketId(1),
                dimms: 2,
            },
        }]);
        let s1 = plan.state_at(&machine(), 0.5).socket(SocketId(1));
        // 6 channels per socket, 2 lost -> 4/6 of the bandwidth remains.
        assert!((s1.read_scale - 4.0 / 6.0).abs() < 1e-12);
        assert!((s1.write_scale - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn dropout_never_zeroes_a_socket() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            start: 0.0,
            end: 1.0,
            kind: FaultKind::DimmDropout {
                socket: SocketId(0),
                dimms: 200,
            },
        }]);
        let s0 = plan.state_at(&machine(), 0.5).socket(SocketId(0));
        assert!(s0.read_scale > 0.0, "at least one channel survives");
    }

    #[test]
    fn queue_stall_collapses_both_directions() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            start: 0.0,
            end: 0.1,
            kind: FaultKind::QueueStall {
                socket: SocketId(0),
            },
        }]);
        let s0 = plan.state_at(&machine(), 0.05).socket(SocketId(0));
        assert!((s0.read_scale - STALL_SCALE).abs() < 1e-12);
        assert!((s0.write_scale - STALL_SCALE).abs() < 1e-12);
    }

    #[test]
    fn concurrent_faults_multiply() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                start: 0.0,
                end: 1.0,
                kind: FaultKind::WriteThrottle {
                    socket: SocketId(0),
                    factor: 0.5,
                },
            },
            FaultEvent {
                start: 0.0,
                end: 1.0,
                kind: FaultKind::DimmDropout {
                    socket: SocketId(0),
                    dimms: 3,
                },
            },
        ]);
        let s0 = plan.state_at(&machine(), 0.5).socket(SocketId(0));
        assert!((s0.write_scale - 0.5 * 0.5).abs() < 1e-12);
        assert!((s0.read_scale - 0.5).abs() < 1e-12);
    }

    #[test]
    fn upi_degrade_is_machine_wide() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            start: 0.0,
            end: 1.0,
            kind: FaultKind::UpiDegrade { factor: 0.4 },
        }]);
        let state = plan.state_at(&machine(), 0.5);
        assert!((state.upi_scale - 0.4).abs() < 1e-12);
        assert!(state.is_degraded());
        assert!(!state.socket(SocketId(0)).is_degraded());
    }

    #[test]
    fn transitions_come_back_in_order() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                start: 0.5,
                end: 1.5,
                kind: FaultKind::QueueStall {
                    socket: SocketId(0),
                },
            },
            FaultEvent {
                start: 1.0,
                end: 2.0,
                kind: FaultKind::UpiDegrade { factor: 0.5 },
            },
        ]);
        assert_eq!(plan.next_transition_after(0.0), Some(0.5));
        assert_eq!(plan.next_transition_after(0.5), Some(1.0));
        assert_eq!(plan.next_transition_after(1.0), Some(1.5));
        assert_eq!(plan.next_transition_after(1.5), Some(2.0));
        assert_eq!(plan.next_transition_after(2.0), None);
    }

    #[test]
    fn power_losses_report_in_half_open_windows() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                start: 0.3,
                end: 0.3,
                kind: FaultKind::PowerLoss {
                    socket: SocketId(1),
                },
            },
            FaultEvent {
                start: 0.7,
                end: 0.7,
                kind: FaultKind::PowerLoss {
                    socket: SocketId(0),
                },
            },
        ]);
        assert_eq!(
            plan.power_losses_in(0.0, 0.5),
            vec![(0.3, SocketId(1))],
            "only the first loss falls in (0, 0.5]"
        );
        assert_eq!(plan.power_losses_in(0.3, 1.0), vec![(0.7, SocketId(0))]);
        assert!(plan.power_losses_in(0.7, 1.0).is_empty());
        // Power losses never alter the rate state.
        assert!(!plan.state_at(&machine(), 0.3).is_degraded());
    }

    #[test]
    fn victim_config_concentrates_socket_faults() {
        let cfg = FaultScheduleConfig {
            victim: Some(SocketId(0)),
            ..FaultScheduleConfig::over(2.0)
        };
        let plan = FaultPlan::generate(7, &cfg);
        for event in plan.events() {
            if let Some(socket) = event.kind.socket() {
                assert_eq!(socket, SocketId(0));
            }
        }
    }

    #[test]
    fn media_errors_are_opt_in_and_deterministic() {
        let horizon = 2.0;
        // Default config draws zero media events, so plans generated before
        // the fault kind existed keep their exact timelines.
        let base = FaultPlan::generate(42, &FaultScheduleConfig::over(horizon));
        assert!(base.media_errors_in(0.0, horizon).is_empty());

        let cfg = FaultScheduleConfig::with_media_errors(horizon, 5);
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        assert_eq!(a, b, "same seed, same poison timeline");
        assert_eq!(a.media_errors_in(0.0, horizon).len(), 5);

        // Media draws are appended after every pre-existing draw, so the
        // non-media prefix of the event stream is unchanged by opting in.
        let strip = |plan: &FaultPlan| {
            plan.events()
                .iter()
                .filter(|e| !e.is_media_error())
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a), strip(&base));
    }

    #[test]
    fn media_hits_are_aligned_instantaneous_and_rate_neutral() {
        let cfg = FaultScheduleConfig::with_media_errors(1.0, 8);
        let plan = FaultPlan::generate(7, &cfg);
        let m = machine();
        // Media events never alter the rate state: stripping them from the
        // plan leaves state_at unchanged at every hit instant.
        let stripped = FaultPlan::from_events(
            plan.events()
                .iter()
                .filter(|e| !e.is_media_error())
                .copied()
                .collect(),
        );
        for hit in plan.media_errors_in(0.0, 1.0) {
            assert_eq!(hit.offset % XPLINE_BYTES, 0, "XPLine aligned");
            assert!(hit.lines >= 1 && hit.lines <= MEDIA_LINES_MAX);
            assert!(hit.offset < MEDIA_SPAN);
            assert_eq!(hit.len(), u64::from(hit.lines) * XPLINE_BYTES);
            assert_eq!(plan.state_at(&m, hit.at), stripped.state_at(&m, hit.at));
        }
        // Half-open window semantics match power losses.
        let all = plan.media_errors_in(0.0, 1.0);
        let first = all[0];
        assert!(plan.media_errors_in(first.at, 1.0).len() < all.len());
        for pair in all.windows(2) {
            assert!(pair[0].at <= pair[1].at, "time ordered");
        }
    }

    #[test]
    fn media_error_event_is_never_rate_active() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            start: 0.5,
            end: 0.5,
            kind: FaultKind::MediaError {
                socket: SocketId(1),
                offset: 4096,
                lines: 2,
            },
        }]);
        assert!(!plan.state_at(&machine(), 0.5).is_degraded());
        assert_eq!(
            plan.media_errors_in(0.0, 1.0),
            vec![MediaHit {
                at: 0.5,
                socket: SocketId(1),
                offset: 4096,
                lines: 2,
            }]
        );
        assert!(plan.media_errors_in(0.5, 1.0).is_empty(), "half-open");
        assert!(plan.power_losses_in(0.0, 1.0).is_empty());
    }

    #[test]
    fn fail_slow_scales_both_sockets_both_directions() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            start: 0.2,
            end: 0.8,
            kind: FaultKind::FailSlow { factor: 0.1 },
        }]);
        let m = machine();
        assert!(!plan.state_at(&m, 0.1).is_degraded(), "before the window");
        let during = plan.state_at(&m, 0.5);
        for socket in [SocketId(0), SocketId(1)] {
            let s = during.socket(socket);
            assert!((s.read_scale - 0.1).abs() < 1e-12, "reads slow 10x");
            assert!((s.write_scale - 0.1).abs() < 1e-12, "writes slow 10x");
        }
        assert!((during.service_scale() - 0.1).abs() < 1e-12);
        assert!((during.upi_scale - 1.0).abs() < 1e-12, "link untouched");
        // The machine is degraded but *alive*: never anywhere near the
        // blackout collapse, which is what makes the failure gray.
        assert!(during.service_scale() > 0.05);
        assert!(!plan.state_at(&m, 0.8).is_degraded(), "window is half-open");
        assert_eq!(FaultKind::FailSlow { factor: 0.1 }.socket(), None);
    }

    #[test]
    fn fail_slow_composes_with_socket_faults() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                start: 0.0,
                end: 1.0,
                kind: FaultKind::FailSlow { factor: 0.5 },
            },
            FaultEvent {
                start: 0.0,
                end: 1.0,
                kind: FaultKind::WriteThrottle {
                    socket: SocketId(0),
                    factor: 0.5,
                },
            },
        ]);
        let state = plan.state_at(&machine(), 0.5);
        let s0 = state.socket(SocketId(0));
        assert!((s0.write_scale - 0.25).abs() < 1e-12, "factors multiply");
        assert!((s0.read_scale - 0.5).abs() < 1e-12);
        assert!((state.service_scale() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fail_slows_are_opt_in_and_deterministic() {
        let horizon = 2.0;
        // Default config draws zero fail-slow windows, so plans generated
        // before the kind existed keep their exact timelines.
        let base = FaultPlan::generate(42, &FaultScheduleConfig::over(horizon));
        assert!(!base
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::FailSlow { .. })));

        let cfg = FaultScheduleConfig::with_fail_slows(horizon, 3);
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        assert_eq!(a, b, "same seed, same gray timeline");
        let slows: Vec<_> = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::FailSlow { .. }))
            .collect();
        assert_eq!(slows.len(), 3);
        for e in &slows {
            assert!(e.end > e.start, "fail-slow is sustained, never a point");
            if let FaultKind::FailSlow { factor } = e.kind {
                assert!((0.05..0.25).contains(&factor));
            }
        }
        // Fail-slow draws are appended after every pre-existing draw, so
        // the rest of the event stream is unchanged by opting in.
        let strip = |plan: &FaultPlan| {
            plan.events()
                .iter()
                .filter(|e| !matches!(e.kind, FaultKind::FailSlow { .. }))
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a), strip(&base));
    }

    #[test]
    fn generated_events_respect_the_horizon() {
        let cfg = FaultScheduleConfig::over(3.0);
        let plan = FaultPlan::generate(99, &cfg);
        for event in plan.events() {
            assert!(event.start >= 0.0 && event.start <= 3.0);
            assert!(event.end >= event.start && event.end <= 3.0);
        }
        // Sorted by start.
        for pair in plan.events().windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
    }
}
