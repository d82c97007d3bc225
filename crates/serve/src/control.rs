//! Closed-loop knob tuning: a deterministic epoch-based AIMD controller
//! over the overload/fairness knobs.
//!
//! PR 5 ships hand-tuned knobs ([`OverloadPolicy::surge`],
//! [`FairnessPolicy::weighted`]) that were picked by staring at the
//! overload experiments. This module closes the loop instead: starting
//! from deliberately wrong knobs, [`auto_tune`] replays a seeded
//! open-loop surge for a fixed number of *epochs*, reads the per-class
//! outcome of each epoch from the [`ServeReport`] — windowed p99s via
//! [`ServeReport::class_windows`], deadline-met fractions via
//! [`ClassReport::met_fraction`] — and moves the knobs by
//! **additive-increase / multiplicative-decrease**:
//!
//! * any defended class violating its [`ClassTarget`](crate::ClassTarget) (windowed p99 over
//!   the objective, or met fraction under the gate) → cut the knobs
//!   multiplicatively: halve the ingress queue cap and the retry
//!   fraction, trip brownout earlier, shrink tenant bursts, pull the
//!   rate headroom toward 1.0;
//! * a clean epoch → grow them additively, one small step each, so
//!   goodput is re-earned without giving the tail away.
//!
//! Everything is seeded and replayable: epoch `e` runs the plan derived
//! from `splitmix64(seed ^ splitmix64(e))`, the controller itself draws
//! no randomness, and identical inputs reproduce the identical
//! [`TuneOutcome::trajectory`]. The returned knobs are the
//! best-*scoring* epoch's (violation-free goodput first), not merely the
//! last — AIMD oscillates around the cliff by design.
//!
//! [`OverloadPolicy::surge`]: crate::overload::OverloadPolicy::surge
//! [`FairnessPolicy::weighted`]: crate::fairness::FairnessPolicy::weighted

use pmem_sim::rng::splitmix64;
use pmem_ssb::SsbStore;
use pmem_store::Result;

use crate::job::OpenLoopPlan;
use crate::report::{ClassReport, ServeReport};
use crate::scheduler::{QueryServer, ServeConfig};
use crate::slo::{SloClass, SloPolicy};

/// The knob vector the controller moves. One value per lever the
/// overload ladder exposes; [`Knobs::apply`] writes them into a
/// [`ServeConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Per-tenant bounded-ingress queue cap ([`crate::overload::OverloadPolicy::queue_cap`]).
    pub queue_cap: u32,
    /// Retry budget as a fraction of fresh in-flight units
    /// ([`crate::overload::OverloadPolicy::retry_fraction`]).
    pub retry_fraction: f64,
    /// Waiting-line depth that trips brownout
    /// ([`crate::overload::BrownoutConfig::queue_high`]).
    pub brownout_queue_high: usize,
    /// Tenant token-bucket burst depth in seconds of fair-share rate
    /// ([`crate::fairness::FairnessPolicy::burst_seconds`]).
    pub burst_seconds: f64,
    /// Token refill headroom over the fair share
    /// ([`crate::fairness::FairnessPolicy::rate_headroom`]).
    pub rate_headroom: f64,
}

/// Upper clamps for the additive-increase side.
const CAP_MAX: u32 = 128;
const RETRY_MAX: f64 = 1.0;
const QUEUE_HIGH_MAX: usize = 64;
const BURST_MAX: f64 = 0.2;
const HEADROOM_MAX: f64 = 1.5;

impl Knobs {
    /// The hand-tuned values the overload experiments shipped with —
    /// what the controller is graded against.
    pub fn hand() -> Self {
        Knobs {
            queue_cap: 8,
            retry_fraction: 0.25,
            brownout_queue_high: 12,
            burst_seconds: 0.050,
            rate_headroom: 1.05,
        }
    }

    /// Deliberately wrong starting point: queues deep enough to hide a
    /// tail, a retry budget past any storm, brownout that never trips,
    /// bursts that let one tenant buy the machine. The controller must
    /// walk these down on its own.
    pub fn naive() -> Self {
        Knobs {
            queue_cap: 64,
            retry_fraction: 2.0,
            brownout_queue_high: 256,
            burst_seconds: 0.4,
            rate_headroom: 1.6,
        }
    }

    /// Write the knob vector into a configuration's overload and
    /// fairness policies, where it has them (its other policy fields —
    /// breakers, resilience, SLO classes — pass through).
    pub fn apply(&self, mut config: ServeConfig) -> ServeConfig {
        if let Some(overload) = config.overload.as_mut() {
            overload.queue_cap = self.queue_cap;
            overload.retry_fraction = self.retry_fraction;
            overload.brownout.queue_high = self.brownout_queue_high;
        }
        if let Some(fairness) = config.fairness.as_mut() {
            fairness.burst_seconds = self.burst_seconds;
            fairness.rate_headroom = self.rate_headroom;
        }
        config
    }

    /// Multiplicative decrease: a defended class violated its target, so
    /// every lever backs off sharply toward its protective floor.
    fn decrease(&self) -> Self {
        Knobs {
            queue_cap: (self.queue_cap / 2).max(2),
            retry_fraction: (self.retry_fraction * 0.5).max(0.05),
            brownout_queue_high: (self.brownout_queue_high / 2).max(4),
            burst_seconds: (self.burst_seconds * 0.5).max(0.010),
            rate_headroom: 1.0 + (self.rate_headroom - 1.0).max(0.0) * 0.5,
        }
    }

    /// Additive increase: a clean epoch buys one small step of goodput
    /// back on every lever, clamped at the ceilings.
    fn increase(&self) -> Self {
        Knobs {
            queue_cap: (self.queue_cap + 1).min(CAP_MAX),
            retry_fraction: (self.retry_fraction + 0.05).min(RETRY_MAX.max(self.retry_fraction)),
            brownout_queue_high: (self.brownout_queue_high + 1)
                .min(QUEUE_HIGH_MAX.max(self.brownout_queue_high)),
            burst_seconds: (self.burst_seconds + 0.005).min(BURST_MAX.max(self.burst_seconds)),
            rate_headroom: (self.rate_headroom + 0.01).min(HEADROOM_MAX.max(self.rate_headroom)),
        }
    }

    /// One AIMD step from an epoch's violation count.
    pub fn step(&self, violations: u32) -> Self {
        if violations > 0 {
            self.decrease()
        } else {
            self.increase()
        }
    }
}

/// Controller run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Number of tuning epochs (each replays one seeded surge).
    pub epochs: usize,
    /// Master seed; epoch `e` derives `splitmix64(seed ^ splitmix64(e))`.
    pub seed: u64,
    /// Starting knob vector (use [`Knobs::naive`] to prove convergence).
    pub initial: Knobs,
    /// Windows per epoch the p99 objective is checked over (the worst
    /// window must hold, not just the whole-run aggregate).
    pub windows: usize,
}

impl ControllerConfig {
    /// Twelve epochs from the naive knobs.
    pub fn paper(seed: u64) -> Self {
        ControllerConfig {
            epochs: 12,
            seed,
            initial: Knobs::naive(),
            windows: 4,
        }
    }
}

/// One epoch of the controller trajectory: what ran, what was observed,
/// and where the knobs moved next. The full vector is the replayable
/// audit trail determinism tests compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochObservation {
    /// Epoch index.
    pub epoch: usize,
    /// Seed the epoch's open-loop plan was derived from.
    pub plan_seed: u64,
    /// Knobs in force during the epoch.
    pub knobs: Knobs,
    /// Goodput (completed bytes / makespan) the epoch achieved.
    pub goodput_bytes_per_sec: f64,
    /// Defended-class target violations observed (0 = clean epoch).
    pub violations: u32,
    /// Epoch score: goodput when clean, negative when violated.
    pub score: f64,
}

/// What [`auto_tune`] converged to.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// Best-scoring epoch's knobs — the vector to serve with.
    pub best: Knobs,
    /// Knobs after the final AIMD step (where the walk ended).
    pub last: Knobs,
    /// Per-epoch audit trail, one entry per epoch in order.
    pub trajectory: Vec<EpochObservation>,
}

/// Count defended-class target violations in one epoch's report: a class
/// violates when its worst windowed p99 exceeds the objective, or its
/// deadline-met fraction falls under the gate. Classes with no target
/// (and empty windows — typed, not zero) never violate.
pub fn violations(report: &ServeReport, slo: &SloPolicy, windows: usize) -> u32 {
    let mut count = 0;
    for class in SloClass::ALL {
        let target = slo.target_of(class);
        let section: Option<&ClassReport> = report.class_report(class);
        if let Some(objective) = target.p99_objective {
            let worst = report
                .class_windows(class, windows)
                .into_iter()
                .flatten()
                .map(|p| p.p99)
                .fold(0.0f64, f64::max);
            if worst > objective + 1e-9 {
                count += 1;
                continue;
            }
        }
        if target.met_fraction > 0.0 {
            if let Some(met) = section.and_then(|s| s.met_fraction()) {
                if met + 1e-9 < target.met_fraction {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Run the closed loop: for each epoch, apply the current knobs to
/// `base`, replay the seeded plan `plan_for(epoch_seed)` on `store`,
/// score the report against `base`'s SLO policy, and take one AIMD step.
/// Deterministic end to end — same inputs, same trajectory.
pub fn auto_tune(
    store: &SsbStore,
    base: &ServeConfig,
    mut plan_for: impl FnMut(u64) -> OpenLoopPlan,
    cfg: ControllerConfig,
) -> Result<TuneOutcome> {
    let mut knobs = cfg.initial;
    let mut trajectory = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs.max(1) {
        let plan_seed = splitmix64(cfg.seed ^ splitmix64(epoch as u64));
        let config = knobs
            .apply(base.clone())
            .with_open_loop(plan_for(plan_seed));
        let mut server = QueryServer::new(store, config);
        let report = server.run()?;
        let v = base
            .slo
            .as_ref()
            .map_or(0, |slo| violations(&report, slo, cfg.windows.max(1)));
        let goodput = report.goodput_bytes_per_sec();
        let score = if v == 0 { goodput } else { -f64::from(v) };
        trajectory.push(EpochObservation {
            epoch,
            plan_seed,
            knobs,
            goodput_bytes_per_sec: goodput,
            violations: v,
            score,
        });
        knobs = knobs.step(v);
    }
    let best = trajectory
        .iter()
        .fold(None::<EpochObservation>, |acc, &o| match acc {
            Some(b) if b.score >= o.score => Some(b),
            _ => Some(o),
        })
        .map(|o| o.knobs)
        .unwrap_or(cfg.initial);
    Ok(TuneOutcome {
        best,
        last: knobs,
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_olap::planner::AccessPlanner;

    #[test]
    fn hand_knobs_match_the_shipped_policies() {
        let planner = AccessPlanner::paper_default();
        let shipped = ServeConfig::surge(&planner);
        let applied = Knobs::hand().apply(ServeConfig::surge(&planner));
        assert_eq!(applied.overload, shipped.overload);
        assert_eq!(applied.fairness, shipped.fairness);
    }

    #[test]
    fn naive_knobs_are_looser_than_hand_on_every_lever() {
        let (h, n) = (Knobs::hand(), Knobs::naive());
        assert!(n.queue_cap > h.queue_cap);
        assert!(n.retry_fraction > h.retry_fraction);
        assert!(n.brownout_queue_high > h.brownout_queue_high);
        assert!(n.burst_seconds > h.burst_seconds);
        assert!(n.rate_headroom > h.rate_headroom);
    }

    #[test]
    fn aimd_decrease_is_sharp_increase_is_gentle() {
        let k = Knobs::naive();
        let down = k.step(3);
        assert_eq!(down.queue_cap, 32);
        assert!((down.retry_fraction - 1.0).abs() < 1e-12);
        assert_eq!(down.brownout_queue_high, 128);
        assert!((down.burst_seconds - 0.2).abs() < 1e-12);
        assert!((down.rate_headroom - 1.3).abs() < 1e-12);
        let up = Knobs::hand().step(0);
        assert_eq!(up.queue_cap, 9);
        assert!((up.retry_fraction - 0.30).abs() < 1e-12);
        assert_eq!(up.brownout_queue_high, 13);
        assert!((up.burst_seconds - 0.055).abs() < 1e-12);
        assert!((up.rate_headroom - 1.06).abs() < 1e-12);
    }

    #[test]
    fn aimd_respects_floors_and_ceilings() {
        // Repeated violation epochs bottom out at the protective floors.
        let mut k = Knobs::naive();
        for _ in 0..32 {
            k = k.step(1);
        }
        assert_eq!(k.queue_cap, 2);
        assert!((k.retry_fraction - 0.05).abs() < 1e-12);
        assert_eq!(k.brownout_queue_high, 4);
        assert!((k.burst_seconds - 0.010).abs() < 1e-12);
        assert!(k.rate_headroom >= 1.0 && k.rate_headroom < 1.001);
        // Repeated clean epochs top out at the ceilings.
        for _ in 0..512 {
            k = k.step(0);
        }
        assert_eq!(k.queue_cap, CAP_MAX);
        assert!((k.retry_fraction - RETRY_MAX).abs() < 1e-9);
        assert_eq!(k.brownout_queue_high, QUEUE_HIGH_MAX);
        assert!((k.burst_seconds - BURST_MAX).abs() < 1e-9);
        assert!((k.rate_headroom - HEADROOM_MAX).abs() < 1e-9);
    }

    #[test]
    fn aimd_walk_is_a_pure_function_of_the_violation_sequence() {
        let seq = [0u32, 0, 2, 0, 1, 0, 0, 3, 0];
        let walk = |mut k: Knobs| -> Vec<Knobs> {
            seq.iter()
                .map(|&v| {
                    k = k.step(v);
                    k
                })
                .collect()
        };
        assert_eq!(walk(Knobs::naive()), walk(Knobs::naive()));
    }
}
