//! Weighted-fair tenant admission: per-tenant, per-side token buckets
//! sized from the planner's saturation budgets.
//!
//! One greedy tenant offering unbounded load would otherwise monopolize
//! the admission queue — FIFO order serves whoever arrives fastest, which
//! under overload is exactly the tenant causing the overload. The fix is
//! classic weighted fair queueing in byte-space: every tenant owns a
//! token bucket per device side whose **refill rate** is its weighted
//! share of the machine's saturation bandwidth for that side (what
//! [`AccessPlanner::expected_mixed`] projects at the admission caps,
//! summed over sockets), and whose **burst capacity** is a configurable
//! number of seconds of that rate. Admission spends tokens equal to the
//! unit's byte demand; an empty bucket queues the unit as
//! [`crate::admission::QueueReason::TenantThrottle`] until the bucket
//! refills. Units demanding more than one full burst are charged a full
//! burst instead, so a single oversized job can always eventually pass.
//!
//! [`AccessPlanner::expected_mixed`]:
//!     pmem_olap::planner::AccessPlanner::expected_mixed

use std::collections::HashMap;

use pmem_olap::planner::AccessPlanner;

use crate::job::Side;

/// Floor applied to configured weights so a mis-configured zero weight
/// degrades to "tiny share" instead of "starved forever".
const MIN_WEIGHT: f64 = 1e-6;

/// Tenant fairness knobs. Construct via [`FairnessPolicy::weighted`] and
/// override fields as needed. Without a policy no buckets exist and
/// admission order is plain FIFO-with-bypass.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessPolicy {
    /// Burst capacity in seconds of a tenant's fair-share rate.
    pub burst_seconds: f64,
    /// Multiplier on every bucket's refill rate: 1.0 hands out exactly
    /// the projected saturation bandwidth; slightly above 1.0 trades a
    /// little isolation for keeping the device busy when projections run
    /// conservative.
    pub rate_headroom: f64,
    /// Explicit `(tenant, weight)` pairs. Tenants not listed weigh 1.0.
    /// An open-loop plan's tenant weights are folded in automatically.
    pub weights: Vec<(u32, f64)>,
}

impl FairnessPolicy {
    /// Weighted-fair sharing with a 50 ms burst allowance and equal
    /// weights until configured otherwise.
    pub fn weighted() -> Self {
        FairnessPolicy {
            burst_seconds: 0.050,
            rate_headroom: 1.05,
            weights: Vec::new(),
        }
    }

    /// Set (or override) one tenant's weight.
    pub fn weight(mut self, tenant: u32, weight: f64) -> Self {
        self.weights.retain(|(t, _)| *t != tenant);
        self.weights.push((tenant, weight.max(MIN_WEIGHT)));
        self
    }

    /// The weight for a tenant (1.0 when unlisted).
    pub fn weight_of(&self, tenant: u32) -> f64 {
        self.weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(1.0, |(_, w)| w.max(MIN_WEIGHT))
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    level: f64,
    rate: f64,
    capacity: f64,
}

/// The live per-tenant token-bucket state one serving run carries.
#[derive(Debug)]
pub(crate) struct TenantBuckets {
    buckets: HashMap<(u32, Side), Bucket>,
}

/// Byte tolerance when deciding a bucket holds "enough" tokens, so float
/// drift in refills can never wedge an exactly-priced unit.
const READY_EPSILON: f64 = 0.5;

impl TenantBuckets {
    /// Buckets for every tenant that appears in the workload. Side
    /// capacity is what the planner projects the whole machine serves at
    /// the admission caps; each tenant's refill rate is its weighted
    /// share of that.
    pub(crate) fn new(policy: &FairnessPolicy, planner: &AccessPlanner, tenants: &[u32]) -> Self {
        let budget = planner.concurrency_budget();
        let (read_bw, _) = planner.expected_mixed(budget.reader_threads, 0);
        let (_, write_bw) = planner.expected_mixed(0, budget.writer_threads);
        let sockets = f64::from(planner.sockets().max(1));
        let machine_rate = |side: Side| {
            sockets
                * policy.rate_headroom.max(0.1)
                * match side {
                    Side::Read => read_bw.bytes_per_sec(),
                    Side::Write => write_bw.bytes_per_sec(),
                }
        };
        let total_weight: f64 = tenants.iter().map(|&t| policy.weight_of(t)).sum();
        let total_weight = total_weight.max(MIN_WEIGHT);
        let mut buckets = HashMap::new();
        for &tenant in tenants {
            let share = policy.weight_of(tenant) / total_weight;
            for side in [Side::Read, Side::Write] {
                let rate = (share * machine_rate(side)).max(1.0);
                let capacity = (rate * policy.burst_seconds.max(1e-3)).max(1.0);
                buckets.insert(
                    (tenant, side),
                    Bucket {
                        level: capacity, // full at time zero
                        rate,
                        capacity,
                    },
                );
            }
        }
        TenantBuckets { buckets }
    }

    /// What a demand of `bytes` actually costs: at most one full burst,
    /// so oversized units cannot deadlock against their own bucket.
    fn cost(bucket: &Bucket, bytes: u64) -> f64 {
        (bytes as f64).min(bucket.capacity)
    }

    /// Do all of the unit's member tenants hold enough tokens? Untracked
    /// tenants are never throttled.
    pub(crate) fn ready(&self, charges: &[(u32, u64)], side: Side) -> bool {
        charges
            .iter()
            .all(|&(tenant, bytes)| match self.buckets.get(&(tenant, side)) {
                None => true,
                Some(b) => b.level + READY_EPSILON >= Self::cost(b, bytes),
            })
    }

    /// Spend the tokens for an admitted unit (floors at zero).
    pub(crate) fn charge(&mut self, charges: &[(u32, u64)], side: Side) {
        for &(tenant, bytes) in charges {
            if let Some(b) = self.buckets.get_mut(&(tenant, side)) {
                let cost = Self::cost(b, bytes);
                b.level = (b.level - cost).max(0.0);
            }
        }
    }

    /// Seconds until every member tenant's bucket holds enough tokens
    /// (zero when already ready).
    pub(crate) fn seconds_until_ready(&self, charges: &[(u32, u64)], side: Side) -> f64 {
        charges
            .iter()
            .filter_map(|&(tenant, bytes)| {
                let b = self.buckets.get(&(tenant, side))?;
                let need = Self::cost(b, bytes) - READY_EPSILON;
                let deficit = need - b.level;
                (deficit > 0.0).then(|| deficit / b.rate + 1e-9)
            })
            .fold(0.0f64, f64::max)
    }

    /// Advance virtual time: refill every bucket up to its capacity.
    pub(crate) fn refill(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        for b in self.buckets.values_mut() {
            b.level = (b.level + b.rate * dt).min(b.capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> AccessPlanner {
        AccessPlanner::paper_default()
    }

    #[test]
    fn weights_default_to_one_and_clamp_nonsense() {
        let policy = FairnessPolicy::weighted().weight(3, 4.0).weight(9, -2.0);
        assert_eq!(policy.weight_of(3), 4.0);
        assert_eq!(policy.weight_of(0), 1.0, "unlisted tenants weigh 1");
        assert!(policy.weight_of(9) > 0.0, "negative weights clamp positive");
        // Re-weighting replaces, not appends.
        let policy = policy.weight(3, 2.0);
        assert_eq!(policy.weight_of(3), 2.0);
        assert_eq!(policy.weights.iter().filter(|(t, _)| *t == 3).count(), 1);
    }

    #[test]
    fn rates_split_by_weight_and_refill_caps_at_capacity() {
        let p = planner();
        let policy = FairnessPolicy::weighted().weight(1, 3.0).weight(2, 1.0);
        let mut buckets = TenantBuckets::new(&policy, &p, &[1, 2]);
        let heavy = buckets.buckets[&(1, Side::Write)];
        let light = buckets.buckets[&(2, Side::Write)];
        let ratio = heavy.rate / light.rate;
        assert!(
            (ratio - 3.0).abs() < 1e-6,
            "rate ratio {ratio} != weight ratio"
        );
        // Buckets start full; draining then refilling can't exceed capacity.
        buckets.charge(&[(1, u64::MAX)], Side::Write);
        assert!(buckets.buckets[&(1, Side::Write)].level < 1.0);
        buckets.refill(1e9);
        let b = buckets.buckets[&(1, Side::Write)];
        assert!((b.level - b.capacity).abs() < 1e-6);
    }

    #[test]
    fn empty_buckets_throttle_and_report_a_finite_wait() {
        let p = planner();
        let policy = FairnessPolicy::weighted();
        let mut buckets = TenantBuckets::new(&policy, &p, &[7]);
        let demand = [(7u32, 64 << 20)];
        assert!(buckets.ready(&demand, Side::Write), "full bucket admits");
        // Drain it, then the same demand throttles with a finite refill time.
        buckets.charge(&[(7, u64::MAX)], Side::Write);
        buckets.charge(&[(7, u64::MAX)], Side::Write);
        assert!(!buckets.ready(&demand, Side::Write));
        let wait = buckets.seconds_until_ready(&demand, Side::Write);
        assert!(wait > 0.0 && wait.is_finite(), "wait {wait}");
        buckets.refill(wait);
        assert!(
            buckets.ready(&demand, Side::Write),
            "refilled after {wait}s"
        );
    }

    #[test]
    fn oversized_demands_cost_at_most_one_burst() {
        let p = planner();
        let policy = FairnessPolicy::weighted();
        let buckets = TenantBuckets::new(&policy, &p, &[0]);
        // A demand far beyond the burst capacity is still admissible from
        // a full bucket — it must not deadlock forever.
        assert!(buckets.ready(&[(0, u64::MAX)], Side::Read));
        // Untracked tenants pass through untouched.
        assert!(buckets.ready(&[(42, u64::MAX)], Side::Read));
        assert_eq!(
            buckets.seconds_until_ready(&[(42, 1 << 30)], Side::Read),
            0.0
        );
    }
}
