//! Resilience policy: how the server degrades gracefully instead of
//! collapsing when the machine misbehaves.
//!
//! With no resilience policy (`ServeConfig::resilience` is `None`) the
//! scheduler under an injected [`pmem_sim::faults::FaultPlan`] simply
//! grinds: jobs on a throttled socket run at the throttled rate, power
//! loss resets their progress, deadlines are recorded but never acted on,
//! and the queue grows without bound. With a policy the scheduler:
//!
//! * routes arriving jobs away from sockets the fault state marks
//!   degraded (unless explicitly pinned);
//! * re-plans the per-socket admission budget when observed bandwidth
//!   drifts more than 10% — a throttled socket is saturated by
//!   proportionally fewer threads, so admitting the healthy budget only
//!   deepens its queues;
//! * cancels jobs that blow their deadline and retries them — with
//!   exponential backoff and a fresh working deadline — up to
//!   [`ResiliencePolicy::max_retries`] times, after which they fail;
//! * retries jobs whose socket lost power (progress is gone either way;
//!   the retry lands after backoff, usually on a healthier socket);
//! * sheds queued jobs whose deadline is unreachable even at the healthy
//!   solo rate, with a typed `Overloaded`/`Degraded` verdict, instead of
//!   queueing them into certain failure;
//! * quarantines a socket when an uncorrectable media error lands on it,
//!   repairs the poisoned range from sealed checksums + the durable
//!   mirror (the [`pmem_ssb::integrity`] machinery), and re-admits the
//!   cancelled jobs once the repair completes — instead of letting scans
//!   consume poison and die.

/// First retry delay in virtual seconds.
pub const BACKOFF_BASE: f64 = 0.005;

/// Multiplier applied to the delay for each further retry.
pub const BACKOFF_FACTOR: f64 = 2.0;

/// Ceiling on the un-jittered delay: exponential growth stops here
/// instead of growing without bound.
pub const BACKOFF_MAX: f64 = 0.080;

/// Knobs for graceful degradation. Construct via
/// [`ResiliencePolicy::paper`] and override fields as needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Maximum retries per job after a failure or deadline blow.
    pub max_retries: u32,
    /// Jitter fraction in `[0, 1)`: a seeded draw shortens each delay by
    /// up to this fraction so retries cancelled by the same event don't
    /// re-arrive as a synchronized herd.
    pub backoff_jitter: f64,
    /// Shed queued jobs whose deadline is unreachable even at the healthy
    /// solo rate, instead of queueing them into certain failure.
    pub shed_hopeless: bool,
    /// Virtual seconds one media-error repair occupies the socket
    /// (scrub + rebuild of the poisoned blocks from the mirror).
    pub media_repair_seconds: f64,
}

impl ResiliencePolicy {
    /// The defaults the resilience experiments use: three retries starting
    /// at 5 ms and doubling, hopeless jobs shed, 5 ms media repairs.
    pub fn paper() -> Self {
        ResiliencePolicy {
            max_retries: 3,
            backoff_jitter: 0.2,
            shed_hopeless: true,
            media_repair_seconds: 0.005,
        }
    }

    /// The backoff delay before retry number `retry` (1-based): the base
    /// delay grows exponentially with each attempt, capped at
    /// [`BACKOFF_MAX`].
    pub fn backoff_before(&self, retry: u32) -> f64 {
        if retry == 0 {
            return 0.0;
        }
        (BACKOFF_BASE * BACKOFF_FACTOR.powi(retry as i32 - 1)).min(BACKOFF_MAX)
    }

    /// The capped delay with deterministic jitter applied: `salt` (e.g. the
    /// job's index) seeds a draw that shortens the delay by up to
    /// [`ResiliencePolicy::backoff_jitter`] of itself. Identical salts and
    /// retry counts always reproduce the same delay.
    pub fn jittered_backoff_before(&self, retry: u32, salt: u64) -> f64 {
        let base = self.backoff_before(retry);
        if self.backoff_jitter <= 0.0 || base <= 0.0 {
            return base;
        }
        let mixed = splitmix64(salt ^ (u64::from(retry) << 32).wrapping_add(0x5E17_EC0DE));
        let unit = (mixed >> 11) as f64 / (1u64 << 53) as f64; // in [0, 1)
        base * (1.0 - self.backoff_jitter.min(0.999) * unit)
    }
}

// The workspace-wide splitmix64 lives in `pmem_sim::rng`; re-exported
// here because per-job jitter and per-tenant sub-seeds derive from it.
pub(crate) use pmem_sim::rng::splitmix64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = ResiliencePolicy::paper();
        assert_eq!(p.backoff_before(0), 0.0);
        assert!((p.backoff_before(1) - 0.005).abs() < 1e-12);
        assert!((p.backoff_before(2) - 0.010).abs() < 1e-12);
        assert!((p.backoff_before(3) - 0.020).abs() < 1e-12);
    }

    #[test]
    fn backoff_is_capped_at_backoff_max() {
        let mut p = ResiliencePolicy::paper();
        p.max_retries = 20;
        // Un-capped, retry 10 would be 0.005 * 2^9 = 2.56 s.
        assert!((p.backoff_before(10) - BACKOFF_MAX).abs() < 1e-12);
        assert!((p.backoff_before(20) - BACKOFF_MAX).abs() < 1e-12);
        // The cap also bounds the jittered delay.
        for salt in 0..64 {
            assert!(p.jittered_backoff_before(15, salt) <= BACKOFF_MAX + 1e-15);
        }
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_desynchronizing() {
        let p = ResiliencePolicy::paper();
        let base = p.backoff_before(2);
        let a = p.jittered_backoff_before(2, 17);
        assert_eq!(a, p.jittered_backoff_before(2, 17), "same salt, same delay");
        assert!(a > base * (1.0 - p.backoff_jitter) - 1e-15 && a <= base);
        // Different salts must actually spread the herd apart.
        let delays: Vec<f64> = (0..16).map(|s| p.jittered_backoff_before(2, s)).collect();
        let distinct = delays
            .iter()
            .filter(|&&d| (d - delays[0]).abs() > 1e-12)
            .count();
        assert!(distinct > 8, "only {distinct} of 16 salts moved the delay");
    }

    #[test]
    fn zero_jitter_reproduces_the_plain_backoff() {
        let mut p = ResiliencePolicy::paper();
        p.backoff_jitter = 0.0;
        assert_eq!(p.jittered_backoff_before(3, 99), p.backoff_before(3));
    }
}
