//! DRAM hot-tier policy and the analytic hit-rate model the virtual
//! plane prices reads with.
//!
//! The real buffer pool ([`pmem_buffer::BufferPool`]) caches 4 KB frames
//! of PMEM-resident columns behind optimistic lock coupling. The serving
//! plane cannot replay every frame access inside its discrete-event loop,
//! so it prices the tier analytically with the *same* admission machinery
//! the pool runs: per-socket working sets ranked by heat density through
//! [`AdmissionPlan::plan_with_partial`], the partially cached socket's
//! hit rate from the Zipfian page-popularity mass
//! ([`pmem_buffer::zipf_top_mass`]), and a compulsory-miss discount — every
//! resident byte must be fetched from PMEM once before it can hit.
//!
//! Under brownout the tier shrinks before anything is shed: admission is
//! re-planned against `dram_budget * brownout_shrink`, trading hit rate
//! for headroom while the waiting line runs deep.

use std::collections::HashMap;

use pmem_buffer::{zipf_top_mass, AdmissionPlan, HeatObject};

/// Page granularity of the analytic model — the pool's frame size.
const PAGE: u64 = pmem_buffer::FRAME_BYTES;

/// Zipf exponent of the page-popularity model pricing partial
/// admissions.
const ZIPF_THETA: f64 = 0.99;

/// DRAM hot-tier configuration for the serving plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotTierPolicy {
    /// DRAM bytes the tier may hold across all sockets.
    pub dram_budget: u64,
    /// Fraction of the budget kept while browned out (memory pressure
    /// shrinks the hot tier before load is shed).
    pub brownout_shrink: f64,
}

impl HotTierPolicy {
    /// A tier holding up to `bytes` of DRAM, half of it while browned
    /// out. [`ServeConfig::with_hot_tier`] leaves a zero-byte tier off.
    ///
    /// [`ServeConfig::with_hot_tier`]: crate::ServeConfig::with_hot_tier
    pub fn with_budget(bytes: u64) -> Self {
        HotTierPolicy {
            dram_budget: bytes,
            brownout_shrink: 0.5,
        }
    }

    /// Override the brownout shrink fraction (clamped to `[0, 1]`).
    pub fn shrink(mut self, fraction: f64) -> Self {
        self.brownout_shrink = fraction.clamp(0.0, 1.0);
        self
    }

    /// The budget in force while browned out.
    pub fn shrunken_budget(&self) -> u64 {
        (self.dram_budget as f64 * self.brownout_shrink.clamp(0.0, 1.0)) as u64
    }
}

/// One socket's cacheable working set and the read demand against it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketDemand {
    /// The socket.
    pub socket: u8,
    /// Distinct resident bytes reads on this socket touch (fact partition
    /// plus the largest single query's auxiliary working set).
    pub footprint_bytes: u64,
    /// Total read bytes offered against the socket this run.
    pub demand_bytes: u64,
}

/// Per-socket steady-state hit rates under one budget.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierAssignment {
    /// Hit rate by socket (absent sockets hit nothing).
    pub hit_by_socket: HashMap<u8, f64>,
    /// DRAM bytes the plan occupies (full and partial admissions).
    pub admitted_bytes: u64,
}

impl TierAssignment {
    /// The hit rate reads on `socket` see.
    pub fn hit(&self, socket: u8) -> f64 {
        self.hit_by_socket.get(&socket).copied().unwrap_or(0.0)
    }
}

/// Plan the tier under `budget` bytes: the same heat-density greedy the
/// buffer pool runs decides which sockets' working sets earn residency;
/// hit rates come from the Zipfian page mass of the cached fraction,
/// discounted by the compulsory misses that first fetch each byte.
pub fn assign(demands: &[SocketDemand], budget: u64) -> TierAssignment {
    let objects: Vec<HeatObject> = demands
        .iter()
        .map(|d| HeatObject {
            id: u64::from(d.socket),
            bytes: d.footprint_bytes.max(1),
            heat_bytes: d.demand_bytes as f64,
        })
        .collect();
    let plan = AdmissionPlan::plan_with_partial(&objects, budget);
    let mut out = TierAssignment {
        admitted_bytes: plan.admitted_bytes,
        ..TierAssignment::default()
    };
    if let Some(p) = plan.partial {
        out.admitted_bytes += p.bytes;
    }
    for d in demands {
        let id = u64::from(d.socket);
        let cached = if plan.is_admitted(id) {
            d.footprint_bytes
        } else {
            match plan.partial {
                Some(p) if p.id == id => p.bytes,
                _ => 0,
            }
        };
        let total_pages = d.footprint_bytes.div_ceil(PAGE).max(1);
        let cached_pages = cached / PAGE;
        let mass = zipf_top_mass(cached_pages, total_pages, ZIPF_THETA);
        // Compulsory misses: each of the footprint's bytes rides PMEM once
        // before it can hit, so the warm fraction of the demand bounds the
        // achievable hit rate.
        let warm = if d.demand_bytes > d.footprint_bytes {
            1.0 - d.footprint_bytes as f64 / d.demand_bytes as f64
        } else {
            0.0
        };
        out.hit_by_socket.insert(d.socket, mass * warm);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(socket: u8, footprint: u64, demand: u64) -> SocketDemand {
        SocketDemand {
            socket,
            footprint_bytes: footprint,
            demand_bytes: demand,
        }
    }

    #[test]
    fn policy_builders_round_trip() {
        let planner = pmem_olap::planner::AccessPlanner::paper_default();
        let config = |tier| crate::ServeConfig::scheduled(&planner).with_hot_tier(tier);
        assert_eq!(config(HotTierPolicy::with_budget(0)).hot_tier, None);
        let on = HotTierPolicy::with_budget(1 << 20).shrink(0.25);
        assert_eq!(config(on).hot_tier, Some(on));
        assert_eq!(on.shrunken_budget(), 1 << 18);
    }

    #[test]
    fn admitted_bytes_stay_within_the_budget() {
        // The dense socket does not fit whole; the smaller, colder one
        // does. The dense one caches only what the smaller one leaves.
        let d = [
            demand(0, 100 << 20, 1000 << 20),
            demand(1, 10 << 20, 50 << 20),
        ];
        let budget = 50 << 20;
        let a = assign(&d, budget);
        assert!(
            a.admitted_bytes <= budget,
            "{} > {budget}",
            a.admitted_bytes
        );
        assert_eq!(a.admitted_bytes, budget);
        let whole = assign(&d[1..], budget);
        assert_eq!(a.hit(1), whole.hit(1), "the small socket is cached whole");
    }

    #[test]
    fn full_admission_hits_at_the_warm_fraction() {
        let d = [demand(0, 1 << 20, 10 << 20)];
        let a = assign(&d, 1 << 20);
        assert_eq!(a.admitted_bytes, 1 << 20);
        // Fully cached: mass = 1, hit = warm fraction = 0.9.
        assert!((a.hit(0) - 0.9).abs() < 1e-12, "hit {}", a.hit(0));
        assert_eq!(a.hit(1), 0.0, "unknown socket hits nothing");
    }

    #[test]
    fn partial_budget_hits_more_than_zipf_uniform_share() {
        let d = [demand(0, 64 << 20, 640 << 20)];
        let a = assign(&d, 16 << 20);
        // A quarter of the pages under theta ~ 1 carries well over a
        // quarter of the accesses.
        let hit = a.hit(0);
        assert!(hit > 0.25 * 0.9, "hit {hit}");
        assert!(hit < 0.9, "partial cannot beat the warm bound: {hit}");
    }

    #[test]
    fn hit_rate_is_monotone_in_budget() {
        let d = [
            demand(0, 64 << 20, 512 << 20),
            demand(1, 64 << 20, 256 << 20),
        ];
        let mut prev = -1.0;
        for scale in [0u64, 16, 32, 64, 128] {
            let a = assign(&d, scale << 20);
            let blended = a.hit(0) + a.hit(1);
            assert!(
                blended >= prev - 1e-12,
                "budget {scale} MiB: {blended} < {prev}"
            );
            prev = blended;
        }
    }

    #[test]
    fn hotter_socket_wins_the_budget() {
        // Same footprint, 4x the demand: socket 1 is denser and takes the
        // whole budget; socket 0 gets at most the partial leftovers.
        let d = [
            demand(0, 32 << 20, 64 << 20),
            demand(1, 32 << 20, 256 << 20),
        ];
        let a = assign(&d, 32 << 20);
        assert!(a.hit(1) > a.hit(0), "{} vs {}", a.hit(1), a.hit(0));
    }

    #[test]
    fn cold_run_never_hits() {
        // Demand no larger than the footprint: every access is a compulsory
        // miss regardless of budget.
        let d = [demand(0, 8 << 20, 8 << 20)];
        let a = assign(&d, 64 << 20);
        assert_eq!(a.hit(0), 0.0);
    }
}
