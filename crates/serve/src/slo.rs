//! SLO classes: deadline-aware service tiers for the serve layer.
//!
//! PR 5's overload ladder treats every job identically — the waiting
//! queue is FIFO-with-bypass, the per-tenant queue cap refuses whoever
//! arrives past it, and brownout tightens the reader budget for
//! everyone. Real OLAP serving is tiered: dashboards need bounded p99,
//! scheduled reports tolerate some slack, and backfill traffic is pure
//! best-effort. A [`SloClass`] on each job buys exactly that:
//!
//! * the waiting queue orders **earliest-deadline-first within class
//!   bands** — every `Interactive` unit is considered before any
//!   `Standard` one, EDF inside each band;
//! * the ingress queue cap **evicts the lowest class first** — when a
//!   tenant's line is full and a higher-class unit arrives, the worst
//!   queued unit of that tenant is shed in its place;
//! * brownout **shields the high classes** — the tightened reader
//!   budget and the shrunken hot tier only degrade unshielded classes,
//!   so quality loss is consumed by best-effort headroom before it
//!   touches anything latency-sensitive.
//!
//! Each class carries a [`ClassTarget`]: a default relative deadline
//! (applied to jobs that do not set their own) and the p99 objective /
//! deadline-met fraction the closed-loop controller
//! ([`crate::control`]) defends when it tunes the overload knobs.

/// Service class of a job or tenant. Declaration order is priority
/// order: `Interactive` outranks `Standard` outranks `BestEffort`
/// (derived `Ord` — lower compares first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SloClass {
    /// Latency-sensitive traffic: first admission band, shielded from
    /// brownout, never chosen as an ingress-eviction victim by lower
    /// classes.
    Interactive,
    /// The default tier: ahead of best-effort, but browns out with it.
    #[default]
    Standard,
    /// Absorbs the damage: last admission band, first eviction victim,
    /// fully browned out. Overload sheds land here by construction.
    BestEffort,
}

impl SloClass {
    /// All classes in priority order.
    pub const ALL: [SloClass; 3] = [
        SloClass::Interactive,
        SloClass::Standard,
        SloClass::BestEffort,
    ];

    /// Priority rank: 0 is the highest class.
    pub fn rank(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::BestEffort => 2,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::BestEffort => "best-effort",
        }
    }
}

/// Per-class objectives: what the class promises and what the
/// controller defends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassTarget {
    /// Default relative deadline (seconds after arrival) applied to
    /// jobs of this class that do not set their own. `None` leaves
    /// deadline-less jobs best-effort.
    pub deadline: Option<f64>,
    /// End-to-end p99 objective in seconds over the class's *completed*
    /// jobs. `None` means the controller does not defend this class.
    pub p99_objective: Option<f64>,
    /// Fraction of the class's deadline-carrying jobs that must meet
    /// their deadline for the class to count as healthy.
    pub met_fraction: f64,
}

impl ClassTarget {
    /// No promises: no default deadline, nothing defended.
    pub fn none() -> Self {
        ClassTarget {
            deadline: None,
            p99_objective: None,
            met_fraction: 0.0,
        }
    }

    /// A deadline target with a p99 objective and a met-fraction gate.
    pub fn new(deadline: f64, p99_objective: f64, met_fraction: f64) -> Self {
        ClassTarget {
            deadline: (deadline > 0.0).then_some(deadline),
            p99_objective: (p99_objective > 0.0).then_some(p99_objective),
            met_fraction: met_fraction.clamp(0.0, 1.0),
        }
    }
}

/// The SLO-class policy one server runs under. Construct via
/// [`SloPolicy::default_on`] and override per-class targets with
/// [`SloPolicy::target`]. Without a policy classes are recorded but
/// change nothing: admission stays FIFO-with-bypass and brownout applies
/// to everyone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Per-class targets, indexed by [`SloClass::rank`].
    pub targets: [ClassTarget; 3],
    /// Classes at or above this one (rank-wise) are shielded from
    /// brownout quality loss and from ingress eviction by lower
    /// classes.
    pub shield: SloClass,
}

impl SloPolicy {
    /// Classes on with placeholder targets: interactive promises a
    /// 100 ms deadline / 150 ms p99, standard 300 ms / 500 ms,
    /// best-effort promises nothing. Experiments override these with
    /// targets derived from the planner's measured drain times.
    pub fn default_on() -> Self {
        SloPolicy {
            targets: [
                ClassTarget::new(0.100, 0.150, 0.95),
                ClassTarget::new(0.300, 0.500, 0.50),
                ClassTarget::none(),
            ],
            shield: SloClass::Interactive,
        }
    }

    /// Override one class's target.
    pub fn target(mut self, class: SloClass, target: ClassTarget) -> Self {
        self.targets[class.rank()] = target;
        self
    }

    /// The target for `class`.
    pub fn target_of(&self, class: SloClass) -> ClassTarget {
        self.targets[class.rank()]
    }

    /// Is `class` shielded from brownout and ingress eviction?
    pub fn shielded(&self, class: SloClass) -> bool {
        class <= self.shield
    }

    /// The effective relative deadline for a job of `class` that set
    /// `explicit` itself: the explicit deadline wins; otherwise the
    /// class default applies.
    pub fn effective_deadline(&self, class: SloClass, explicit: Option<f64>) -> Option<f64> {
        explicit.or(self.target_of(class).deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_is_priority_order() {
        assert!(SloClass::Interactive < SloClass::Standard);
        assert!(SloClass::Standard < SloClass::BestEffort);
        assert_eq!(SloClass::default(), SloClass::Standard);
        for (i, c) in SloClass::ALL.iter().enumerate() {
            assert_eq!(c.rank(), i);
        }
        assert_eq!(SloClass::BestEffort.label(), "best-effort");
    }

    #[test]
    fn disabled_policy_changes_nothing() {
        let planner = pmem_olap::planner::AccessPlanner::paper_default();
        let off = crate::ServeConfig::scheduled(&planner);
        assert!(!off.shielded(SloClass::Interactive));
        // Explicit deadlines pass through; class defaults never apply.
        assert_eq!(
            off.effective_deadline(SloClass::Interactive, Some(0.2)),
            Some(0.2)
        );
        assert_eq!(off.effective_deadline(SloClass::Interactive, None), None);
    }

    #[test]
    fn class_defaults_fill_missing_deadlines_only() {
        let p = SloPolicy::default_on();
        assert_eq!(
            p.effective_deadline(SloClass::Interactive, None),
            Some(0.100),
            "class default applies when the spec set none"
        );
        assert_eq!(
            p.effective_deadline(SloClass::Interactive, Some(0.033)),
            Some(0.033),
            "explicit deadlines always win"
        );
        assert_eq!(
            p.effective_deadline(SloClass::BestEffort, None),
            None,
            "best-effort promises nothing"
        );
    }

    #[test]
    fn shield_covers_classes_at_or_above() {
        let p = SloPolicy::default_on();
        assert!(p.shielded(SloClass::Interactive));
        assert!(!p.shielded(SloClass::Standard));
        assert!(!p.shielded(SloClass::BestEffort));
        let wide = SloPolicy {
            shield: SloClass::Standard,
            ..p
        };
        assert!(wide.shielded(SloClass::Standard));
        assert!(!wide.shielded(SloClass::BestEffort));
    }

    #[test]
    fn targets_override_per_class_and_clamp() {
        let p =
            SloPolicy::default_on().target(SloClass::BestEffort, ClassTarget::new(0.5, 1.0, 2.0));
        let t = p.target_of(SloClass::BestEffort);
        assert_eq!(t.deadline, Some(0.5));
        assert_eq!(t.p99_objective, Some(1.0));
        assert_eq!(t.met_fraction, 1.0, "met fraction clamps to [0, 1]");
        let none = ClassTarget::new(-1.0, 0.0, 0.5);
        assert_eq!(none.deadline, None);
        assert_eq!(none.p99_objective, None);
    }
}
