//! Overload control: what keeps an open-loop surge from collapsing the
//! server into a metastable mess.
//!
//! The paper's own measurements show why uncontrolled overload is fatal
//! on this hardware: bandwidth *collapses* past the thread/write
//! saturation knee rather than flattening, so every extra admitted job
//! past capacity makes all jobs slower. Four mechanisms bound the damage,
//! applied in escalating order (the "brownout ladder"):
//!
//! 1. **Bounded admission queues** — each tenant's waiting line is capped
//!    at [`OverloadPolicy::queue_cap`] units; arrivals beyond it are
//!    refused at ingress with [`ShedReason::QueueFull`] before any queue
//!    space or device time is spent.
//! 2. **Retry budget** — cancelled jobs may only retry while the number
//!    of in-flight retries stays under a fraction of the fresh in-flight
//!    work ([`OverloadPolicy::retry_fraction`]); beyond that, retries are
//!    shed typed as [`ShedReason::RetryBudget`]. This is what stops the
//!    PR-2 backoff machinery from amplifying a surge into a retry storm.
//! 3. **Circuit breakers** — one per socket, tripping on a sustained
//!    deadline-miss rate ([`BreakerConfig`]): an Open breaker stops
//!    admission to its socket (unpinned work re-routes, never onto a
//!    socket under media repair) for [`BREAKER_COOLDOWN`], then Half-Open
//!    lets a single probe through before re-admitting the world.
//! 4. **Brownout** — before shedding anything already queued, degrade
//!    batch *quality*: double the shared-scan coalescing window under
//!    offered-load pressure and tighten the reader budget to 70% (via
//!    the same scaling as [`AccessPlanner::degraded_budget`]) while the
//!    waiting line is deep, trading per-query latency for surviving
//!    throughput.
//!
//! [`ShedReason::QueueFull`]: crate::admission::ShedReason::QueueFull
//! [`ShedReason::RetryBudget`]: crate::admission::ShedReason::RetryBudget
//! [`AccessPlanner::degraded_budget`]:
//!     pmem_olap::planner::AccessPlanner::degraded_budget

use std::collections::VecDeque;

/// Seconds an Open breaker blocks its socket before half-opening.
pub const BREAKER_COOLDOWN: f64 = 0.050;

/// Per-socket circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Deadline outcomes remembered per socket (sliding window).
    pub window: usize,
    /// Samples required before the breaker may trip.
    pub min_samples: usize,
    /// Miss fraction within the window at/above which the breaker trips.
    pub trip_miss_fraction: f64,
}

impl BreakerConfig {
    /// Trip when half of the last 16 deadline-carrying jobs missed.
    pub fn default_on() -> Self {
        BreakerConfig {
            window: 16,
            min_samples: 8,
            trip_miss_fraction: 0.5,
        }
    }
}

/// The classic three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: admission proceeds, outcomes are recorded.
    Closed,
    /// Tripped: the socket admits nothing until the cooldown elapses.
    Open,
    /// Cooled down: exactly one probe unit may run; its outcome decides
    /// between re-opening and closing.
    HalfOpen,
}

/// One deadline-miss circuit breaker. The scheduler runs one per
/// socket; the cluster router reuses the same state machine per shard,
/// so the type and its transitions are public.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    open_until: f64,
    recent: VecDeque<bool>, // true = deadline miss
    pub(crate) trips: u32,
}

impl CircuitBreaker {
    /// A closed breaker with the given tripping policy.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            open_until: 0.0,
            recent: VecDeque::new(),
            trips: 0,
        }
    }

    /// Advance virtual time: an Open breaker half-opens once its cooldown
    /// elapses.
    pub fn poll(&mut self, now: f64) {
        if self.state == BreakerState::Open && now >= self.open_until - 1e-12 {
            self.state = BreakerState::HalfOpen;
        }
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// When the current Open window lifts (None unless Open).
    pub fn next_transition(&self) -> Option<f64> {
        (self.state == BreakerState::Open).then_some(self.open_until)
    }

    /// Times the breaker tripped open (re-opens from Half-Open included).
    pub fn trips(&self) -> u32 {
        self.trips
    }

    fn trip(&mut self, now: f64) {
        self.state = BreakerState::Open;
        self.open_until = now + BREAKER_COOLDOWN;
        self.recent.clear();
        self.trips += 1;
    }

    /// Record one deadline outcome on this socket. In Half-Open state the
    /// outcome is the probe's verdict: a miss re-opens, a success closes.
    /// In Closed state a sustained miss rate trips the breaker.
    pub fn record(&mut self, miss: bool, now: f64) {
        match self.state {
            BreakerState::Open => {} // stragglers draining; ignore
            BreakerState::HalfOpen => {
                if miss {
                    self.trip(now);
                } else {
                    self.state = BreakerState::Closed;
                }
            }
            BreakerState::Closed => {
                self.recent.push_back(miss);
                while self.recent.len() > self.cfg.window.max(1) {
                    self.recent.pop_front();
                }
                let misses = self.recent.iter().filter(|&&m| m).count();
                if self.recent.len() >= self.cfg.min_samples.max(1)
                    && misses as f64 >= self.cfg.trip_miss_fraction * self.recent.len() as f64
                {
                    self.trip(now);
                }
            }
        }
    }
}

/// Brownout tuning: quality degradation before shedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Waiting units at/above which the reader budget tightens.
    pub queue_high: usize,
}

impl BrownoutConfig {
    /// Tighten the reader budget once 12 units queue.
    pub fn default_on() -> Self {
        BrownoutConfig { queue_high: 12 }
    }
}

/// The overload-control policy one server runs under. Construct via
/// [`OverloadPolicy::surge`] and override fields as needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Per-tenant bound on waiting units; arrivals beyond it are refused
    /// at ingress. Zero = unbounded.
    pub queue_cap: u32,
    /// In-flight retries may be at most this fraction of the fresh
    /// (never-retried) in-flight work…
    pub retry_fraction: f64,
    /// …but never fewer than this many, so a lone failure can always
    /// retry on an otherwise idle machine.
    pub retry_floor: u32,
    /// Per-socket deadline-miss circuit breakers.
    pub breaker: BreakerConfig,
    /// Quality degradation before shedding.
    pub brownout: BrownoutConfig,
}

impl OverloadPolicy {
    /// The surge experiments' defaults: queues capped at 8 units per
    /// tenant, retries held under a quarter of fresh work, breakers and
    /// brownout on.
    pub fn surge() -> Self {
        OverloadPolicy {
            queue_cap: 8,
            retry_fraction: 0.25,
            retry_floor: 2,
            breaker: BreakerConfig::default_on(),
            brownout: BrownoutConfig::default_on(),
        }
    }

    /// Most in-flight retries allowed alongside `fresh` fresh units.
    pub fn retry_allowance(&self, fresh: u32) -> u32 {
        let frac = (self.retry_fraction * f64::from(fresh)).floor();
        let frac = if frac.is_finite() && frac >= 0.0 {
            frac.min(f64::from(u32::MAX)) as u32
        } else {
            u32::MAX
        };
        frac.max(self.retry_floor)
    }
}

/// Live retry-budget accounting: how many units are currently in a retry
/// cycle, and how many retries the budget refused.
#[derive(Debug, Default)]
pub(crate) struct RetryLedger {
    outstanding: u32,
    pub(crate) denied: u32,
}

impl RetryLedger {
    /// Ask to move one fresh unit into its first retry. Returns false —
    /// and counts the denial — when the budget is exhausted.
    pub(crate) fn try_start(&mut self, policy: &OverloadPolicy, fresh: u32) -> bool {
        if self.outstanding < policy.retry_allowance(fresh) {
            self.outstanding += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// A retrying unit left the system (completed, failed, or shed).
    pub(crate) fn release(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Units currently holding a retry slot. Invariant: every terminal
    /// path releases its slot, so this drains to zero by loop exit.
    pub(crate) fn outstanding(&self) -> u32 {
        self.outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_on_sustained_misses_and_half_open_probes() {
        let mut b = CircuitBreaker::new(BreakerConfig::default_on());
        assert_eq!(b.state(), BreakerState::Closed);
        // Successes never trip it.
        for _ in 0..32 {
            b.record(false, 0.0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Eight straight misses cross min_samples at 100% miss rate.
        for i in 0..8 {
            b.record(true, 0.001 * f64::from(i));
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
        let lift = b
            .next_transition()
            .expect("open breakers expose a lift time");
        // Before the cooldown: still open. After: half-open.
        b.poll(lift - 1e-6);
        assert_eq!(b.state(), BreakerState::Open);
        b.poll(lift);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe re-opens (and counts a fresh trip)…
        b.record(true, lift);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2);
        // …a successful probe closes.
        b.poll(b.next_transition().expect("open"));
        b.record(false, 1.0);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.next_transition().is_none());
    }

    #[test]
    fn breaker_window_slides_old_outcomes_out() {
        let cfg = BreakerConfig {
            window: 4,
            min_samples: 4,
            trip_miss_fraction: 0.75,
        };
        let mut b = CircuitBreaker::new(cfg);
        // Two misses, then enough successes to push them out of the window.
        b.record(true, 0.0);
        b.record(true, 0.0);
        for _ in 0..4 {
            b.record(false, 0.0);
        }
        // Window now holds 4 successes; two more misses are only 50%.
        b.record(true, 0.0);
        b.record(true, 0.0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn retry_allowance_scales_with_fresh_work_above_the_floor() {
        let policy = OverloadPolicy::surge();
        assert_eq!(policy.retry_allowance(0), policy.retry_floor);
        assert_eq!(policy.retry_allowance(4), 2, "floor dominates at 4 fresh");
        assert_eq!(policy.retry_allowance(40), 10, "0.25 × 40");
    }

    #[test]
    fn retry_ledger_denies_past_the_allowance_and_releases() {
        let policy = OverloadPolicy::surge();
        let mut ledger = RetryLedger::default();
        // Floor of 2 with no fresh work: two starts pass, the third is denied.
        assert!(ledger.try_start(&policy, 0));
        assert!(ledger.try_start(&policy, 0));
        assert!(!ledger.try_start(&policy, 0));
        assert_eq!(ledger.denied, 1);
        // Releasing one frees one slot.
        ledger.release();
        assert!(ledger.try_start(&policy, 0));
        assert!(!ledger.try_start(&policy, 0));
        assert_eq!(ledger.denied, 2);
    }
}
