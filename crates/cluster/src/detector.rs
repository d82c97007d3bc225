//! Deterministic accrual-style gray-failure detection.
//!
//! PR 7's router had an oracle: a hard-coded detection delay after which
//! a *dead* machine's arrivals re-route. Real fleets do not get told —
//! and worse, PMEM machines fail *slow* before they fail dead (thermal
//! write throttling, firmware background tasks, asymmetric bandwidth
//! collapse under contention), a mode a binary alive/dead check never
//! sees. This module replaces the oracle with a per-shard health score
//! in the spirit of the φ accrual failure detector, adapted to the
//! repo's replayed virtual clock so every verdict is bit-for-bit
//! reproducible from the seed:
//!
//! * **Signals.** The router observes two streams per shard: periodic
//!   health probes (a fixed-cost sample scan, priced directly off the
//!   shard's [`pmem_sim::faults::FaultPlan`] service scale and the
//!   interconnect) and the
//!   shard's *completion stream* — per-job latency and deadline
//!   outcomes from the serve plane.
//! * **Score.** The windowed median probe inflation (observed latency ÷
//!   healthy baseline) is the primary score; a deadline-miss fraction
//!   over the recent completion window is a fast secondary trigger.
//! * **Thresholds.** `suspect → demote` at [`SUSPECT_INFLATION`],
//!   `dead` at [`DEAD_INFLATION`]; a suspected shard keeps serving at
//!   [`DEMOTED_WEIGHT`] router weight (graded demotion, not a
//!   write-off) and re-earns full weight when its probe score clears
//!   below [`CLEAR_INFLATION`].
//!   Once a shard is suspected its completion stream is frozen out of
//!   the score: the backlog the fault built (and the demotion itself)
//!   confound it, so health is re-earned through probes alone. Death is
//!   terminal — a machine that inflates probes 50× is indistinguishable
//!   from gone, and the blackout plane already models replacement.
//!
//! The outcome of a replay is a [`HealthTimeline`]: the shard's state
//! transitions over virtual time, which the router consults for routing
//! weights, tied hedges, and failover instants. Every cluster run goes
//! through one detector step that builds a timeline per shard; a rejoin
//! then extends its victim's timeline past the death verdict (see
//! [`crate::cluster`]).

use std::collections::VecDeque;

/// How the router decides a shard's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorMode {
    /// The PR-7 oracle: a fixed delay after a *blackout* the router is
    /// simply told about. Fail-slow machines are never noticed — this
    /// is the demonstrably-blind baseline the gray suite contrasts.
    Oracle,
    /// The accrual detector: probe + completion scoring over the
    /// virtual clock, graded demotion, probe-earned recovery.
    Accrual,
}

/// Virtual seconds between health probes.
pub const PROBE_INTERVAL: f64 = 0.001;
/// Probes in the windowed median score.
pub const PROBE_WINDOW: usize = 3;
/// Median probe inflation at which a shard becomes `Suspect`.
pub const SUSPECT_INFLATION: f64 = 3.0;
/// Median probe inflation at which a shard is declared `Dead`.
pub const DEAD_INFLATION: f64 = 50.0;
/// Median probe inflation a `Suspect` shard must clear to re-earn full
/// weight.
pub const CLEAR_INFLATION: f64 = 1.5;
/// Minimum probes observed *while suspected* before the score may clear
/// — a deterministic demotion dwell that stops flapping.
pub const CLEAR_PROBES: u32 = 3;
/// Deadline-miss fraction over a full completion window that suspects a
/// shard even while its probes still look healthy.
pub const MISS_SUSPECT: f64 = 0.95;
/// Completion outcomes in the miss-fraction window.
pub const TERMINAL_WINDOW: usize = 16;
/// Router weight of a `Suspect` shard (graded demotion: it keeps
/// serving, most new arrivals rebalance to its replica).
pub const DEMOTED_WEIGHT: f64 = 0.1;
/// Quantile of observed scatter-gather partial latencies past which a
/// straggler triggers a reactive backup request.
pub const HEDGE_QUANTILE: f64 = 0.95;
/// Multiplier on that quantile before the hedge fires.
pub const HEDGE_SCALE: f64 = 1.5;
/// Observed-latency window the hedge quantile is computed over.
pub const HEDGE_WINDOW: usize = 64;

/// How the router detects failures. Lives in `ClusterConfig` so
/// experiments can sweep the oracle's detection latency;
/// [`Self::oracle`] reproduces the PR-7 behavior byte for byte. The
/// accrual detector's tuning is the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Scoring mode.
    pub mode: DetectorMode,
    /// Oracle-mode detection delay in virtual seconds after a blackout
    /// (the old hard-coded `DETECT_DELAY`).
    pub oracle_delay: f64,
}

impl DetectorConfig {
    /// The PR-7 oracle, byte for byte: fixed 5 ms blackout detection,
    /// no gray-failure awareness. The gray plane hedges under either
    /// mode, but nothing ever becomes `Suspect`.
    pub fn oracle() -> Self {
        DetectorConfig {
            mode: DetectorMode::Oracle,
            ..DetectorConfig::accrual()
        }
    }

    /// The accrual detector: 1 ms probes, median-of-3 scoring, suspect
    /// at 3× inflation, dead at 50×, clear below 1.5×, 10% demoted
    /// weight.
    pub fn accrual() -> Self {
        DetectorConfig {
            mode: DetectorMode::Accrual,
            oracle_delay: 0.005,
        }
    }
}

/// A shard's health as the detector sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Full router weight.
    Healthy,
    /// Demoted: serving at reduced weight, tied hedges fire against it.
    Suspect,
    /// Written off: zero weight, traffic fails over.
    Dead,
}

/// One completion-stream observation: a job's terminal outcome as the
/// router sees it (ingress sheds carry no service signal and are
/// filtered out upstream, same as the cluster breaker's replay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Virtual completion time.
    pub at: f64,
    /// End-to-end latency (completion − arrival).
    pub latency: f64,
    /// Whether the job missed its deadline.
    pub miss: bool,
}

/// A shard's health-state transitions over one replayed run.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthTimeline {
    /// `(at, state)` pairs in time order, starting `(0, Healthy)`.
    transitions: Vec<(f64, HealthState)>,
}

impl HealthTimeline {
    /// A shard the detector never flagged.
    pub fn healthy() -> Self {
        HealthTimeline {
            transitions: vec![(0.0, HealthState::Healthy)],
        }
    }

    /// Replay the detector over one shard's observable streams and
    /// return its health timeline. `probe_latency` prices a health
    /// probe issued at virtual time `t` (round trip + sample scan at
    /// the shard's current service rate); `baseline` is the same
    /// probe's healthy cost, so `probe_latency(t) / baseline` is the
    /// inflation the score windows. `terminals` is the shard's
    /// completion stream. Fully deterministic: same inputs, same
    /// timeline, bit for bit.
    pub fn replay(
        horizon: f64,
        baseline: f64,
        probe_latency: impl Fn(f64) -> f64,
        terminals: &[Observation],
    ) -> Self {
        Self::replay_from(
            0.0,
            HealthState::Healthy,
            horizon,
            baseline,
            probe_latency,
            terminals,
        )
    }

    /// [`Self::replay`] generalized to a mid-run start: the detector
    /// begins at virtual time `start` in state `initial` and probes
    /// forward from there. This is the rejoin path — a machine back
    /// from a blackout re-enters the fleet `Suspect` and must re-earn
    /// full weight through [`CLEAR_PROBES`] clean probes, exactly like a
    /// demoted gray machine. `replay` is `replay_from(0, Healthy,
    /// ..)`, byte for byte. Completion outcomes before `start` are
    /// ignored (they predate the detector's view of this incarnation).
    pub fn replay_from(
        start: f64,
        initial: HealthState,
        horizon: f64,
        baseline: f64,
        probe_latency: impl Fn(f64) -> f64,
        terminals: &[Observation],
    ) -> Self {
        let baseline = baseline.max(1e-12);
        let mut terms: Vec<Observation> = terminals
            .iter()
            .copied()
            .filter(|o| o.at >= start)
            .collect();
        terms.sort_by(|a, b| a.at.total_cmp(&b.at));

        let mut transitions = vec![(start, initial)];
        let mut state = initial;
        let mut probes: VecDeque<f64> = VecDeque::with_capacity(PROBE_WINDOW);
        let mut misses: VecDeque<bool> = VecDeque::with_capacity(TERMINAL_WINDOW);
        // Frozen after the first suspicion: see the module docs.
        let mut terminals_live = state == HealthState::Healthy;
        let mut probes_since_suspect = 0u32;

        let median = |window: &VecDeque<f64>| -> f64 {
            let mut sorted: Vec<f64> = window.iter().copied().collect();
            sorted.sort_by(f64::total_cmp);
            sorted[sorted.len() / 2]
        };

        let mut ti = 0usize;
        let probe_count = ((horizon - start).max(0.0) / PROBE_INTERVAL).floor() as u64;
        for k in 1..=probe_count {
            let t = start + k as f64 * PROBE_INTERVAL;
            // Completion outcomes that landed since the last probe are
            // scored first, at their own timestamps.
            while ti < terms.len() && terms[ti].at <= t {
                let term = terms[ti];
                ti += 1;
                if !terminals_live || state != HealthState::Healthy {
                    continue;
                }
                if misses.len() == TERMINAL_WINDOW {
                    misses.pop_front();
                }
                misses.push_back(term.miss);
                if misses.len() == TERMINAL_WINDOW {
                    let frac = misses.iter().filter(|m| **m).count() as f64 / misses.len() as f64;
                    if frac >= MISS_SUSPECT {
                        state = HealthState::Suspect;
                        terminals_live = false;
                        probes_since_suspect = 0;
                        transitions.push((term.at, state));
                    }
                }
            }

            if probes.len() == PROBE_WINDOW {
                probes.pop_front();
            }
            probes.push_back(probe_latency(t) / baseline);
            if state == HealthState::Suspect {
                probes_since_suspect += 1;
            }
            if probes.len() < PROBE_WINDOW {
                continue;
            }
            let score = median(&probes);
            match state {
                HealthState::Healthy => {
                    if score >= DEAD_INFLATION {
                        state = HealthState::Dead;
                    } else if score >= SUSPECT_INFLATION {
                        state = HealthState::Suspect;
                        terminals_live = false;
                        probes_since_suspect = 0;
                    }
                    if state != HealthState::Healthy {
                        transitions.push((t, state));
                    }
                }
                HealthState::Suspect => {
                    if score >= DEAD_INFLATION {
                        state = HealthState::Dead;
                        transitions.push((t, state));
                    } else if probes_since_suspect >= CLEAR_PROBES && score <= CLEAR_INFLATION {
                        state = HealthState::Healthy;
                        transitions.push((t, state));
                    }
                }
                HealthState::Dead => {}
            }
        }
        HealthTimeline { transitions }
    }

    /// The transitions, `(at, state)` in time order.
    pub fn transitions(&self) -> &[(f64, HealthState)] {
        &self.transitions
    }

    /// Continue the timeline with `later` transitions — a machine back
    /// from a blackout re-entering the detector after its death verdict.
    /// A transition earlier than the last one recorded is clamped to it,
    /// so the timeline stays in time order.
    pub(crate) fn extend(&mut self, later: &[(f64, HealthState)]) {
        for &(at, state) in later {
            let floor = self.transitions.last().map_or(at, |(t, _)| *t);
            self.transitions.push((at.max(floor), state));
        }
    }

    /// Whether the timeline ends `Dead`: the router writes the shard off
    /// (a timeline that leaves `Dead` is a rejoin).
    pub(crate) fn written_off(&self) -> bool {
        self.transitions
            .last()
            .is_some_and(|(_, s)| *s == HealthState::Dead)
    }

    /// The shard's state at virtual time `t`.
    pub fn state_at(&self, t: f64) -> HealthState {
        self.transitions
            .iter()
            .take_while(|(at, _)| *at <= t)
            .last()
            .map(|(_, s)| *s)
            .unwrap_or(HealthState::Healthy)
    }

    /// The shard's router weight at `t` ([`DEMOTED_WEIGHT`] while
    /// suspected).
    pub fn weight_at(&self, t: f64) -> f64 {
        match self.state_at(t) {
            HealthState::Healthy => 1.0,
            HealthState::Suspect => DEMOTED_WEIGHT,
            HealthState::Dead => 0.0,
        }
    }

    /// Whether the detector ever took the shard off full weight.
    pub fn ever_degraded(&self) -> bool {
        self.transitions
            .iter()
            .any(|(_, s)| *s != HealthState::Healthy)
    }

    /// First time the shard became `Suspect`, if ever.
    pub fn suspected_at(&self) -> Option<f64> {
        self.transitions
            .iter()
            .find(|(_, s)| *s == HealthState::Suspect)
            .map(|(at, _)| *at)
    }

    /// Time the shard was declared `Dead`, if ever.
    pub fn dead_at(&self) -> Option<f64> {
        self.transitions
            .iter()
            .find(|(_, s)| *s == HealthState::Dead)
            .map(|(at, _)| *at)
    }

    /// Last time the shard re-earned full weight after a suspicion.
    pub fn cleared_at(&self) -> Option<f64> {
        self.transitions
            .iter()
            .skip(1)
            .filter(|(_, s)| *s == HealthState::Healthy)
            .map(|(at, _)| *at)
            .next_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: f64 = 3.2e-4;

    /// Probe pricing for a machine that serves at `scale(t)` of its
    /// healthy rate: the probe's scan dilates, its round trip does not.
    fn probe(scale: impl Fn(f64) -> f64) -> impl Fn(f64) -> f64 {
        move |t| 2.0e-5 + (BASE - 2.0e-5) / scale(t).max(1e-9)
    }

    #[test]
    fn healthy_stream_never_transitions() {
        let tl = HealthTimeline::replay(0.2, BASE, probe(|_| 1.0), &[]);
        assert_eq!(tl.transitions(), &[(0.0, HealthState::Healthy)]);
        assert!(!tl.ever_degraded());
        assert_eq!(tl.weight_at(0.1), 1.0);
        assert_eq!(tl.suspected_at(), None);
        assert_eq!(tl.cleared_at(), None);
    }

    #[test]
    fn fail_slow_suspects_demotes_and_recovers() {
        // 10x service degradation over [0.04, 0.16): gray, never dead.
        let scale = |t: f64| if (0.04..0.16).contains(&t) { 0.1 } else { 1.0 };
        let tl = HealthTimeline::replay(0.2, BASE, probe(scale), &[]);
        let suspected = tl.suspected_at().expect("fail-slow must be noticed");
        assert!(
            suspected > 0.04 && suspected < 0.045,
            "suspected within a few probes of onset: {suspected}"
        );
        assert_eq!(tl.dead_at(), None, "10x slow is demoted, never killed");
        assert_eq!(tl.state_at(0.1), HealthState::Suspect);
        assert!((tl.weight_at(0.1) - DEMOTED_WEIGHT).abs() < 1e-12);
        let cleared = tl.cleared_at().expect("weight re-earned");
        assert!(
            cleared > 0.16 && cleared < 0.165,
            "cleared within a few probes of recovery: {cleared}"
        );
        assert_eq!(tl.state_at(0.19), HealthState::Healthy);
        assert_eq!(tl.weight_at(0.19), 1.0);
    }

    #[test]
    fn blackout_inflation_is_declared_dead_and_stays_dead() {
        let scale = |t: f64| if t >= 0.05 { 1e-3 } else { 1.0 };
        let tl = HealthTimeline::replay(0.2, BASE, probe(scale), &[]);
        let dead = tl.dead_at().expect("a 1000x-inflated machine is dead");
        assert!(dead > 0.05 && dead < 0.055, "dead fast: {dead}");
        assert!(
            dead < 0.05 + DetectorConfig::accrual().oracle_delay,
            "accrual beats the 5 ms oracle it replaces"
        );
        assert_eq!(tl.state_at(0.19), HealthState::Dead, "death is terminal");
        assert_eq!(tl.weight_at(0.19), 0.0);
    }

    #[test]
    fn deadline_miss_burst_suspects_even_with_healthy_probes() {
        // A full window of misses lands early; probes never inflate.
        let terminals: Vec<Observation> = (0..TERMINAL_WINDOW)
            .map(|i| Observation {
                at: 0.05 + i as f64 * 1e-4,
                latency: 0.3,
                miss: true,
            })
            .collect();
        let tl = HealthTimeline::replay(0.2, BASE, probe(|_| 1.0), &terminals);
        let suspected = tl.suspected_at().expect("miss burst suspects");
        assert!(suspected < 0.055);
        // With probes healthy the demotion dwell is the floor: the shard
        // re-earns weight after `clear_probes` clean probes.
        let cleared = tl.cleared_at().expect("healthy probes clear it");
        assert!(cleared > suspected);
        assert!(cleared <= suspected + (CLEAR_PROBES as f64 + 1.0) * PROBE_INTERVAL);
    }

    #[test]
    fn median_scoring_shrugs_off_a_single_probe_spike() {
        // One probe at 100x (a transient stall) inside a healthy stream:
        // the median-of-3 window never crosses the suspect threshold.
        let spike_at = 0.1;
        let scale = move |t: f64| {
            if (t - spike_at).abs() < 1e-9 {
                0.01
            } else {
                1.0
            }
        };
        let tl = HealthTimeline::replay(0.2, BASE, probe(scale), &[]);
        assert!(!tl.ever_degraded(), "one outlier is not a gray failure");
    }

    #[test]
    fn sub_threshold_misses_never_suspect() {
        // Alternating hit/miss stays far below the MISS_SUSPECT fraction.
        let terminals: Vec<Observation> = (0..64)
            .map(|i| Observation {
                at: 0.01 + i as f64 * 2e-3,
                latency: 0.1,
                miss: i % 2 == 0,
            })
            .collect();
        let tl = HealthTimeline::replay(0.2, BASE, probe(|_| 1.0), &terminals);
        assert!(!tl.ever_degraded());
    }

    #[test]
    fn replay_is_deterministic() {
        let scale = |t: f64| if (0.04..0.12).contains(&t) { 0.2 } else { 1.0 };
        let terminals = vec![
            Observation {
                at: 0.06,
                latency: 0.3,
                miss: true,
            };
            8
        ];
        let run = || HealthTimeline::replay(0.2, BASE, probe(scale), &terminals);
        assert_eq!(run(), run());
    }

    #[test]
    fn rejoin_starts_suspect_and_earns_weight_back_through_probes() {
        // A machine back from a blackout re-enters at 0.1 `Suspect` with
        // its hardware healthy again: the dwell is the only barrier.
        let tl =
            HealthTimeline::replay_from(0.1, HealthState::Suspect, 0.2, BASE, probe(|_| 1.0), &[]);
        assert_eq!(tl.transitions()[0], (0.1, HealthState::Suspect));
        assert_eq!(tl.state_at(0.1), HealthState::Suspect);
        let cleared = tl.cleared_at().expect("clean probes re-earn weight");
        assert!(
            cleared > 0.1 && cleared <= 0.1 + (CLEAR_PROBES as f64 + 1.0) * PROBE_INTERVAL,
            "cleared after the dwell: {cleared}"
        );
        assert_eq!(tl.state_at(0.19), HealthState::Healthy);

        // Still-degraded hardware keeps the rejoiner demoted.
        let slow =
            HealthTimeline::replay_from(0.1, HealthState::Suspect, 0.2, BASE, probe(|_| 0.1), &[]);
        assert_eq!(slow.cleared_at(), None, "10x slow stays demoted");
        assert_eq!(slow.state_at(0.19), HealthState::Suspect);
    }

    #[test]
    fn replay_is_replay_from_time_zero_healthy() {
        let scale = |t: f64| if (0.04..0.16).contains(&t) { 0.1 } else { 1.0 };
        let a = HealthTimeline::replay(0.2, BASE, probe(scale), &[]);
        let b =
            HealthTimeline::replay_from(0.0, HealthState::Healthy, 0.2, BASE, probe(scale), &[]);
        assert_eq!(a, b, "delegation is byte-identical");
    }

    #[test]
    fn oracle_config_carries_the_old_detect_delay() {
        let c = DetectorConfig::oracle();
        assert_eq!(c.mode, DetectorMode::Oracle);
        assert!((c.oracle_delay - 0.005).abs() < 1e-15, "PR-7 value");
        assert_eq!(DetectorConfig::accrual().mode, DetectorMode::Accrual);
    }
}
