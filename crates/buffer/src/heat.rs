//! Heat-driven admission: which objects earn DRAM residency.
//!
//! The pool does not cache whatever happens to be touched — admission is a
//! *planned* decision, driven by per-object read traffic (heat). The
//! greedy policy ranks objects by heat per byte (the marginal benefit of a
//! DRAM byte), then admits densest-first while the budget lasts. An object
//! that does not fit is skipped and the scan continues with smaller,
//! colder candidates. The sort is stable, so objects of equal density are
//! considered in input order. A partial admission, where asked for, gets
//! only what the whole admissions leave.

/// One cacheable object (a column, a partition, an index) with its
/// observed read heat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatObject {
    /// Caller-assigned identity (column index, socket×class code, …).
    pub id: u64,
    /// Resident size in bytes.
    pub bytes: u64,
    /// Read bytes observed against the object over the measurement window.
    pub heat_bytes: f64,
}

impl HeatObject {
    /// Heat per resident byte — the admission ranking key.
    pub fn density(&self) -> f64 {
        self.heat_bytes / self.bytes.max(1) as f64
    }
}

/// Partial admission of the next-densest object that did not fully fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialAdmission {
    /// The object granted the leftover budget.
    pub id: u64,
    /// Bytes of it that are resident.
    pub bytes: u64,
}

/// The outcome of an admission pass over a heat profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdmissionPlan {
    /// Ids of fully admitted objects, densest first.
    pub admitted: Vec<u64>,
    /// Bytes consumed by fully admitted objects.
    pub admitted_bytes: u64,
    /// Leftover-budget partial admission, if any (page-granular tiers
    /// can cache a prefix of an object; whole-object callers ignore it).
    pub partial: Option<PartialAdmission>,
}

impl AdmissionPlan {
    /// Whole-object greedy admission under `budget` bytes: sort by heat
    /// density (stable, descending), admit while it fits, skip what does
    /// not. Cold objects (zero heat) are never admitted.
    pub fn plan(objects: &[HeatObject], budget: u64) -> Self {
        Self::plan_inner(objects, budget, false)
    }

    /// Like [`AdmissionPlan::plan`], but the densest object that did not
    /// fully fit is granted what the whole admissions leave of the budget
    /// as a partial admission.
    pub fn plan_with_partial(objects: &[HeatObject], budget: u64) -> Self {
        Self::plan_inner(objects, budget, true)
    }

    fn plan_inner(objects: &[HeatObject], budget: u64, partial: bool) -> Self {
        let mut scored: Vec<&HeatObject> = objects.iter().collect();
        // Stable descending sort: objects of equal density keep their
        // input order.
        scored.sort_by(|a, b| b.density().total_cmp(&a.density()));
        let mut plan = AdmissionPlan::default();
        let mut densest_miss = None;
        for o in scored {
            if o.density() <= 0.0 {
                continue;
            }
            if plan.admitted_bytes + o.bytes <= budget {
                plan.admitted_bytes += o.bytes;
                plan.admitted.push(o.id);
            } else if densest_miss.is_none() {
                densest_miss = Some(o.id);
            }
        }
        // The partial comes after the whole pass: a smaller object that
        // fits after a miss is admitted whole, and the partial gets only
        // what is left.
        let leftover = budget - plan.admitted_bytes;
        plan.partial =
            densest_miss
                .filter(|_| partial && leftover > 0)
                .map(|id| PartialAdmission {
                    id,
                    bytes: leftover,
                });
        plan
    }

    /// Is `id` fully admitted?
    pub fn is_admitted(&self, id: u64) -> bool {
        self.admitted.contains(&id)
    }
}

/// Fraction of Zipfian access mass landing on the `top` most popular of
/// `total` pages: `H(top, theta) / H(total, theta)` with the generalized
/// harmonic number. This is the expected hit rate of a tier that caches
/// the hottest `top` pages of an object whose page popularity is
/// Zipf-distributed with exponent `theta`.
///
/// Exact summation is used up to 64 Ki pages; beyond that the harmonic
/// number is continued with the integral approximation
/// `H(n) ≈ H(m) + (n^(1-θ) - m^(1-θ)) / (1-θ)` (natural log for θ = 1),
/// which keeps the function cheap and strictly monotone in `top`.
pub fn zipf_top_mass(top: u64, total: u64, theta: f64) -> f64 {
    if total == 0 || top == 0 {
        return 0.0;
    }
    let top = top.min(total);
    harmonic(top, theta) / harmonic(total, theta)
}

const EXACT_HARMONIC_TERMS: u64 = 1 << 16;

fn harmonic(n: u64, theta: f64) -> f64 {
    let exact_n = n.min(EXACT_HARMONIC_TERMS);
    let mut h = 0.0;
    for i in 1..=exact_n {
        h += (i as f64).powf(-theta);
    }
    if n > exact_n {
        let (a, b) = (exact_n as f64, n as f64);
        if (theta - 1.0).abs() < 1e-9 {
            h += (b / a).ln();
        } else {
            h += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn obj(id: u64, bytes: u64, heat: f64) -> HeatObject {
        HeatObject {
            id,
            bytes,
            heat_bytes: heat,
        }
    }

    #[test]
    fn admits_densest_first() {
        let objects = [obj(0, 100, 50.0), obj(1, 100, 500.0), obj(2, 100, 5.0)];
        let plan = AdmissionPlan::plan(&objects, 200);
        assert_eq!(plan.admitted, vec![1, 0]);
        assert_eq!(plan.admitted_bytes, 200);
        assert!(plan.is_admitted(1));
        assert!(!plan.is_admitted(2));
    }

    #[test]
    fn skips_oversized_and_continues() {
        // The hottest object does not fit; the plan moves on to colder
        // candidates rather than stopping.
        let objects = [obj(0, 1000, 9000.0), obj(1, 50, 100.0), obj(2, 60, 60.0)];
        let plan = AdmissionPlan::plan(&objects, 120);
        assert_eq!(plan.admitted, vec![1, 2]);
        assert_eq!(plan.admitted_bytes, 110);
    }

    #[test]
    fn cold_objects_never_admitted() {
        let objects = [obj(0, 10, 0.0), obj(1, 10, 1.0)];
        let plan = AdmissionPlan::plan(&objects, 1000);
        assert_eq!(plan.admitted, vec![1]);
    }

    #[test]
    fn partial_grants_leftover_to_next_densest() {
        let objects = [obj(0, 100, 500.0), obj(1, 100, 400.0)];
        let plan = AdmissionPlan::plan_with_partial(&objects, 150);
        assert_eq!(plan.admitted, vec![0]);
        let p = plan.partial.unwrap();
        assert_eq!(p.id, 1);
        assert_eq!(p.bytes, 50);
    }

    #[test]
    fn equal_densities_keep_input_order() {
        // Four objects of one density, listed out of id and size order:
        // admission takes them in input order until the budget runs out,
        // and the leftover goes to the first of them that did not fit.
        let objects = [
            obj(3, 100, 200.0),
            obj(1, 50, 100.0),
            obj(2, 100, 200.0),
            obj(0, 50, 100.0),
        ];
        let plan = AdmissionPlan::plan(&objects, 170);
        assert_eq!(plan.admitted, vec![3, 1]);
        assert_eq!(plan.admitted_bytes, 150);
        assert_eq!(plan.partial, None);
        let plan = AdmissionPlan::plan_with_partial(&objects, 170);
        assert_eq!(plan.admitted, vec![3, 1]);
        assert_eq!(plan.partial, Some(PartialAdmission { id: 2, bytes: 20 }));

        // The same objects in reverse: the order follows the input.
        let reversed: Vec<HeatObject> = objects.iter().rev().copied().collect();
        let plan = AdmissionPlan::plan_with_partial(&reversed, 170);
        assert_eq!(plan.admitted, vec![0, 2]);
        assert_eq!(plan.admitted_bytes, 150);
        assert_eq!(plan.partial, Some(PartialAdmission { id: 1, bytes: 20 }));
    }

    #[test]
    fn partial_gets_what_later_whole_admissions_leave() {
        // Four objects of one density: the third misses, the fourth still
        // fits whole, and the partial gets the 30 B left after both.
        let objects = [
            obj(0, 100, 200.0),
            obj(1, 50, 100.0),
            obj(2, 100, 200.0),
            obj(3, 50, 100.0),
        ];
        let plan = AdmissionPlan::plan_with_partial(&objects, 230);
        assert_eq!(plan.admitted, vec![0, 1, 3]);
        assert_eq!(plan.admitted_bytes, 200);
        assert_eq!(plan.partial, Some(PartialAdmission { id: 2, bytes: 30 }));
    }

    #[test]
    fn zipf_mass_bounds_and_monotonicity() {
        assert_eq!(zipf_top_mass(0, 100, 0.99), 0.0);
        assert!((zipf_top_mass(100, 100, 0.99) - 1.0).abs() < 1e-12);
        let quarter = zipf_top_mass(25, 100, 0.99);
        let half = zipf_top_mass(50, 100, 0.99);
        assert!(quarter < half && half < 1.0);
        // Skew concentrates mass: 25% of pages carry well over 25% of
        // accesses under theta ~ 1.
        assert!(quarter > 0.45, "quarter mass {quarter}");
    }

    #[test]
    fn zipf_mass_large_n_is_sane() {
        let m = zipf_top_mass(1 << 18, 1 << 20, 0.99);
        assert!(m > 0.5 && m < 1.0, "mass {m}");
        // Approximated tail must stay monotone.
        assert!(zipf_top_mass(1 << 19, 1 << 20, 0.99) > m);
    }
}
