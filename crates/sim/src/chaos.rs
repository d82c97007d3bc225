//! Compositional chaos schedules: seeded random stacks of *multiple*
//! fault kinds across a fleet, plus deterministic shrinking of failing
//! schedules to minimal reproducers.
//!
//! Every fault test elsewhere in the workspace exercises one hand-picked
//! schedule. Real PMEM fleets fail in *combinations* — a media error
//! lands while a machine is catching up from its replica, a power loss
//! interrupts a rejoin, link jitter stretches a hash exchange — and the
//! bugs live in the interactions. This module generates those
//! combinations from a seed:
//!
//! * [`ChaosSchedule::generate`] draws 1..=N events over a fleet, each
//!   one of five compositional fault kinds ([`ChaosFault`]): media
//!   poison, power loss, fail-slow, link jitter, and a blackout with a
//!   *rejoin* (a finite `[at, until)` window — the machine comes back
//!   and must re-earn its shard).
//! * The consumer (the cluster's chaos runner) applies a schedule to a
//!   full serve/cluster stack and checks its standing invariants.
//! * [`shrink`] delta-debugs a failing schedule against a caller-supplied
//!   predicate: greedily drop events while the failure reproduces, to a
//!   fixpoint. Same schedule + same deterministic predicate → the same
//!   minimal reproducer, every run.
//!
//! Nothing serializes a schedule: its seed and the deterministic shrink
//! reproduce it, and a minimal reproducer is reported through its `Debug`
//! form.

use crate::rng::SplitMix64;
use crate::topology::SocketId;

/// One compositional fault, relative to the machine named by its
/// [`ChaosEvent`]. Durations and instants are virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosFault {
    /// An uncorrectable media error: one scrub block of one column of
    /// the machine's columnar shard is poisoned at `at`. `column` and
    /// `block` are drawn large and reduced modulo the actual geometry by
    /// the consumer (the generator does not know shard sizes).
    MediaPoison {
        /// Column index (mod the stored column count).
        column: u32,
        /// Scrub-block index (mod the column's block count).
        block: u64,
        /// Virtual time the error lands.
        at: f64,
    },
    /// An instantaneous power loss on one socket of the machine.
    PowerLoss {
        /// Socket that loses power.
        socket: SocketId,
        /// Virtual time of the loss.
        at: f64,
    },
    /// The machine serves at `factor` of its rate over `[at, until)` —
    /// alive, answering, slow.
    FailSlow {
        /// Window start.
        at: f64,
        /// Window end.
        until: f64,
        /// Remaining service fraction in `(0, 1)`.
        factor: f64,
    },
    /// Fleet-wide interconnect jitter over `[at, until)` (the machine
    /// field of the event is ignored — links are shared).
    LinkJitter {
        /// Window start.
        at: f64,
        /// Window end.
        until: f64,
        /// Latency multiplier (≥ 1).
        latency_scale: f64,
        /// Bandwidth multiplier in `(0, 1]`.
        bandwidth_scale: f64,
    },
    /// A whole-machine blackout over `[at, until)` with `until` inside
    /// the horizon: the machine *comes back* and runs the rejoin
    /// protocol (scrub, anti-entropy catch-up, probe-earned weight).
    BlackoutRejoin {
        /// Window start.
        at: f64,
        /// Window end — the rejoin instant.
        until: f64,
    },
}

/// One scheduled fault: which machine, what happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// Target machine index.
    pub machine: usize,
    /// The fault.
    pub fault: ChaosFault,
}

/// Shape of the schedule generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Machines in the fleet events are drawn over.
    pub machines: usize,
    /// Virtual horizon fault instants are drawn inside.
    pub horizon: f64,
    /// Maximum events per schedule (at least 1 is always drawn).
    pub max_events: usize,
}

impl ChaosConfig {
    /// The acceptance-suite shape: events over `machines` machines and
    /// `horizon` seconds, up to 5 stacked faults per schedule.
    pub fn demo(machines: usize, horizon: f64) -> Self {
        ChaosConfig {
            machines: machines.max(1),
            horizon: horizon.max(1e-3),
            max_events: 5,
        }
    }
}

/// A seeded stack of compositional faults over one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The seed the schedule was drawn from (identification only —
    /// shrunk schedules keep their parent's seed).
    pub seed: u64,
    /// The horizon the instants were drawn inside.
    pub horizon: f64,
    events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Draw a schedule from `seed`: 1..=`max_events` events, kinds and
    /// parameters from one splitmix64 stream. At most one
    /// [`ChaosFault::BlackoutRejoin`] is drawn per schedule (one rejoin
    /// protocol per run; later draws of the kind degrade to fail-slow,
    /// keeping the event count and draw order stable). Same `(seed,
    /// config)` → identical schedule, field for field.
    pub fn generate(seed: u64, config: &ChaosConfig) -> Self {
        let mut rng = SplitMix64::new(seed);
        let horizon = config.horizon;
        let count = 1 + (rng.next_u64() as usize) % config.max_events.max(1);
        let mut have_blackout = false;
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let machine = (rng.next_u64() as usize) % config.machines.max(1);
            // Fault instants live in the middle of the horizon so there
            // is always traffic before (to damage) and after (to check).
            let at = (0.15 + 0.45 * rng.next_f64()) * horizon;
            let span = (0.1 + 0.25 * rng.next_f64()) * horizon;
            let kind = rng.next_u64() % 5;
            let fault = match kind {
                0 => ChaosFault::MediaPoison {
                    column: (rng.next_u64() % 64) as u32,
                    block: rng.next_u64() % 4096,
                    at,
                },
                1 => ChaosFault::PowerLoss {
                    socket: SocketId((rng.next_u64() % 2) as u8),
                    at,
                },
                2 => ChaosFault::FailSlow {
                    at,
                    until: (at + span).min(horizon),
                    factor: 0.05 + 0.3 * rng.next_f64(),
                },
                3 => ChaosFault::LinkJitter {
                    at,
                    until: (at + span).min(horizon),
                    latency_scale: 1.5 + 4.0 * rng.next_f64(),
                    bandwidth_scale: 0.2 + 0.7 * rng.next_f64(),
                },
                _ if !have_blackout => {
                    have_blackout = true;
                    ChaosFault::BlackoutRejoin {
                        at,
                        until: (at + span).min(0.9 * horizon),
                    }
                }
                // A second blackout degrades to fail-slow: one rejoin
                // protocol per run, but the stacked-fault pressure stays.
                _ => ChaosFault::FailSlow {
                    at,
                    until: (at + span).min(horizon),
                    factor: 0.05,
                },
            };
            events.push(ChaosEvent { machine, fault });
        }
        ChaosSchedule {
            seed,
            horizon,
            events,
        }
    }

    /// A hand-built schedule (regression corpus entries, tests).
    pub fn from_events(seed: u64, horizon: f64, events: Vec<ChaosEvent>) -> Self {
        ChaosSchedule {
            seed,
            horizon,
            events,
        }
    }

    /// The scheduled events.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule with event `index` removed (shrinking step).
    pub fn without(&self, index: usize) -> Self {
        let mut events = self.events.clone();
        if index < events.len() {
            events.remove(index);
        }
        ChaosSchedule {
            seed: self.seed,
            horizon: self.horizon,
            events,
        }
    }

    /// The first scheduled blackout/rejoin window, if any.
    pub fn blackout_rejoin(&self) -> Option<(usize, f64, f64)> {
        self.events.iter().find_map(|e| match e.fault {
            ChaosFault::BlackoutRejoin { at, until } => Some((e.machine, at, until)),
            _ => None,
        })
    }
}

/// Greedy delta-debugging: repeatedly try removing each event of
/// `failing`; keep any removal after which `still_fails` still returns
/// `true`; iterate to a fixpoint. The result is 1-minimal — removing any
/// single remaining event makes the failure vanish. Deterministic for a
/// deterministic predicate, and never returns an empty schedule (the
/// last failing event stays).
pub fn shrink(
    failing: &ChaosSchedule,
    mut still_fails: impl FnMut(&ChaosSchedule) -> bool,
) -> ChaosSchedule {
    let mut current = failing.clone();
    loop {
        let mut progressed = false;
        let mut index = 0;
        while index < current.len() && current.len() > 1 {
            let candidate = current.without(index);
            if still_fails(&candidate) {
                current = candidate;
                progressed = true;
                // Same index now names the next event; re-test it.
            } else {
                index += 1;
            }
        }
        if !progressed {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_replay_from_their_seed() {
        let cfg = ChaosConfig::demo(8, 0.2);
        for seed in 0..64u64 {
            let a = ChaosSchedule::generate(seed, &cfg);
            let b = ChaosSchedule::generate(seed, &cfg);
            assert_eq!(a, b, "seed {seed} replays");
            assert!(!a.is_empty() && a.len() <= cfg.max_events);
            for e in a.events() {
                assert!(e.machine < cfg.machines);
            }
        }
        assert_ne!(
            ChaosSchedule::generate(1, &cfg),
            ChaosSchedule::generate(2, &cfg),
            "seed matters"
        );
    }

    #[test]
    fn at_most_one_blackout_rejoin_and_windows_stay_inside_horizon() {
        let cfg = ChaosConfig::demo(4, 0.2);
        for seed in 0..256u64 {
            let s = ChaosSchedule::generate(seed, &cfg);
            let mut blackouts = 0;
            for e in s.events() {
                match e.fault {
                    ChaosFault::BlackoutRejoin { at, until } => {
                        blackouts += 1;
                        assert!(at > 0.0 && until <= 0.9 * cfg.horizon && until >= at);
                    }
                    ChaosFault::FailSlow { at, until, factor } => {
                        assert!(at > 0.0 && until <= cfg.horizon && until >= at);
                        assert!(factor > 0.0 && factor < 1.0);
                    }
                    ChaosFault::LinkJitter {
                        at,
                        until,
                        latency_scale,
                        bandwidth_scale,
                    } => {
                        assert!(at > 0.0 && until <= cfg.horizon && until >= at);
                        assert!(latency_scale >= 1.0 && (0.0..=1.0).contains(&bandwidth_scale));
                    }
                    ChaosFault::MediaPoison { at, .. } | ChaosFault::PowerLoss { at, .. } => {
                        assert!(at > 0.0 && at < cfg.horizon);
                    }
                }
            }
            assert!(blackouts <= 1, "seed {seed} drew {blackouts} blackouts");
        }
    }

    #[test]
    fn shrink_finds_the_minimal_failing_subset() {
        let cfg = ChaosConfig {
            machines: 4,
            horizon: 0.2,
            max_events: 8,
        };
        // Find a generated schedule that carries both a blackout and a
        // poison — the "bug" fires only when both are present.
        let schedule = (0..512u64)
            .map(|s| ChaosSchedule::generate(s, &cfg))
            .find(|s| {
                s.blackout_rejoin().is_some()
                    && s.events()
                        .iter()
                        .any(|e| matches!(e.fault, ChaosFault::MediaPoison { .. }))
            })
            .expect("some seed stacks both kinds");
        let fails = |s: &ChaosSchedule| {
            s.blackout_rejoin().is_some()
                && s.events()
                    .iter()
                    .any(|e| matches!(e.fault, ChaosFault::MediaPoison { .. }))
        };
        let minimal = shrink(&schedule, fails);
        assert_eq!(minimal.len(), 2, "exactly the two interacting events");
        assert!(fails(&minimal));
        // 1-minimality: removing either remaining event kills the repro.
        for i in 0..minimal.len() {
            assert!(!fails(&minimal.without(i)));
        }
        // Deterministic: shrinking again reproduces the same schedule.
        assert_eq!(shrink(&schedule, fails), minimal);
    }

    #[test]
    fn shrink_never_returns_empty_and_respects_a_stubborn_predicate() {
        let cfg = ChaosConfig::demo(2, 0.1);
        let s = ChaosSchedule::generate(9, &cfg);
        let all = shrink(&s, |_| true);
        assert_eq!(all.len(), 1, "always-failing shrinks to one event");
        let none = shrink(&s, |c| c.len() == s.len());
        assert_eq!(none, s, "nothing removable, schedule unchanged");
    }
}
