//! The paper's 12 insights and 7 best practices as a typed catalogue.
//!
//! Each entry carries the paper section it comes from, the experiment in
//! this repository that reproduces the underlying measurement, and the
//! machine-readable recommendation the [`planner`](crate::planner) applies.

use std::fmt;

/// The 12 numbered insights of the paper (§3–§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Insight {
    /// #1: Read data from individual memory regions or in consecutive 4 KB
    /// chunks to benefit from prefetching and an even thread-to-DIMM
    /// distribution. (§3.1, Figure 3)
    ReadIndividualOr4K,
    /// #2: Use all available cores for maximum read bandwidth and avoid
    /// hyperthreaded reads. (§3.2, Figure 3)
    ReadWithAllCores,
    /// #3: Pin threads to avoid far-memory access. (§3.3, Figure 4)
    PinReadThreads,
    /// #4: Threads should only read data on their near socket PMEM; change
    /// address-space-to-NUMA assignments as rarely as possible. (§3.4,
    /// Figure 5)
    ReadNearOnly,
    /// #5: Stripe data into independent, evenly distributed sets across the
    /// PMEM of all sockets; sockets read only near PMEM. (§3.5, Figure 6)
    StripeAcrossSockets,
    /// #6: Write in 4 KB chunks, or 256 B if smaller consecutive writes are
    /// necessary. (§4.1, Figure 7)
    Write4KOr256B,
    /// #7: Use 4–6 threads to write in large blocks, or keep accesses small
    /// when scaling the thread count. (§4.2, Figure 8)
    WriteFewThreads,
    /// #8: Pin write threads to individual cores given full system control,
    /// otherwise to NUMA regions. (§4.3, Figure 9)
    PinWriteThreads,
    /// #9: Threads should only write data to their near PMEM. (§4.4,
    /// Figure 10)
    WriteNearOnly,
    /// #10: Avoid contending cross-socket writes. (§4.5, Figure 10)
    AvoidContendedWrites,
    /// #11: Serialize PMEM access when possible — mixed read/write loads
    /// never exceed the read-only maximum. (§5.1, Figure 11)
    SerializeMixedAccess,
    /// #12: Access PMEM sequentially, or use the largest possible access
    /// (at least 256 B) for random workloads. (§5.2, Figures 12–13)
    PreferSequential,
}

impl Insight {
    /// All insights in paper order.
    pub const ALL: [Insight; 12] = [
        Insight::ReadIndividualOr4K,
        Insight::ReadWithAllCores,
        Insight::PinReadThreads,
        Insight::ReadNearOnly,
        Insight::StripeAcrossSockets,
        Insight::Write4KOr256B,
        Insight::WriteFewThreads,
        Insight::PinWriteThreads,
        Insight::WriteNearOnly,
        Insight::AvoidContendedWrites,
        Insight::SerializeMixedAccess,
        Insight::PreferSequential,
    ];

    /// Insight number as printed in the paper.
    pub fn number(self) -> u8 {
        Insight::ALL
            .iter()
            .position(|i| *i == self)
            .expect("listed") as u8
            + 1
    }

    /// The id of the `repro` figure reproducing the measurement behind
    /// this insight (also the stem of its `--csv` file).
    pub fn experiment(self) -> &'static str {
        match self {
            Insight::ReadIndividualOr4K => "fig3b",
            Insight::ReadWithAllCores => "fig3a",
            Insight::PinReadThreads => "fig4",
            Insight::ReadNearOnly => "fig5",
            Insight::StripeAcrossSockets => "fig6a",
            Insight::Write4KOr256B => "fig7a",
            Insight::WriteFewThreads => "fig8a",
            Insight::PinWriteThreads => "fig9",
            Insight::WriteNearOnly => "fig10",
            Insight::AvoidContendedWrites => "fig10",
            Insight::SerializeMixedAccess => "fig11",
            Insight::PreferSequential => "fig12a",
        }
    }
}

impl fmt::Display for Insight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Insight #{}", self.number())
    }
}

/// The 7 condensed best practices of §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BestPractice {
    /// (1) Read and write to PMEM in distinct memory regions.
    DistinctRegions,
    /// (2) Scale up reader threads; limit writers to 4–6 per socket.
    ScaleReadersLimitWriters,
    /// (3) Pin threads (explicitly) within their NUMA regions.
    PinThreads,
    /// (4) Place data on all sockets but access it only from near NUMA
    /// regions.
    NearAccessOnly,
    /// (5) Avoid large mixed read-write workloads when possible.
    AvoidMixedWorkloads,
    /// (6) Access PMEM sequentially, or with the largest possible access
    /// for random workloads.
    SequentialOrLargeAccess,
    /// (7) Use PMEM in devdax mode for maximum performance.
    UseDevDax,
}

impl BestPractice {
    /// All best practices in §7 order.
    pub const ALL: [BestPractice; 7] = [
        BestPractice::DistinctRegions,
        BestPractice::ScaleReadersLimitWriters,
        BestPractice::PinThreads,
        BestPractice::NearAccessOnly,
        BestPractice::AvoidMixedWorkloads,
        BestPractice::SequentialOrLargeAccess,
        BestPractice::UseDevDax,
    ];

    /// Best-practice number as printed in §7.
    pub fn number(self) -> u8 {
        BestPractice::ALL
            .iter()
            .position(|b| *b == self)
            .expect("listed") as u8
            + 1
    }

    /// The insights this practice condenses (§7 lists them explicitly).
    pub fn insights(self) -> &'static [Insight] {
        match self {
            BestPractice::DistinctRegions => &[Insight::ReadIndividualOr4K, Insight::Write4KOr256B],
            BestPractice::ScaleReadersLimitWriters => {
                &[Insight::ReadWithAllCores, Insight::WriteFewThreads]
            }
            BestPractice::PinThreads => &[Insight::PinReadThreads, Insight::PinWriteThreads],
            BestPractice::NearAccessOnly => &[
                Insight::ReadNearOnly,
                Insight::StripeAcrossSockets,
                Insight::WriteNearOnly,
                Insight::AvoidContendedWrites,
            ],
            BestPractice::AvoidMixedWorkloads => &[Insight::SerializeMixedAccess],
            BestPractice::SequentialOrLargeAccess => &[Insight::PreferSequential],
            BestPractice::UseDevDax => &[],
        }
    }

    /// One-line statement (§7 wording, condensed).
    pub fn statement(self) -> &'static str {
        match self {
            BestPractice::DistinctRegions => "Read and write to PMEM in distinct memory regions",
            BestPractice::ScaleReadersLimitWriters => {
                "Scale up reader threads but limit writers to 4-6 per socket"
            }
            BestPractice::PinThreads => "Pin threads (explicitly) within their NUMA regions",
            BestPractice::NearAccessOnly => {
                "Place data on all sockets but access it only from near NUMA regions"
            }
            BestPractice::AvoidMixedWorkloads => "Avoid large mixed read-write workloads",
            BestPractice::SequentialOrLargeAccess => {
                "Access PMEM sequentially or use the largest possible random access"
            }
            BestPractice::UseDevDax => "Use PMEM in devdax mode for maximum performance",
        }
    }
}

impl fmt::Display for BestPractice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Best Practice #{}: {}", self.number(), self.statement())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbering_matches_the_paper() {
        assert_eq!(Insight::ReadIndividualOr4K.number(), 1);
        assert_eq!(Insight::PreferSequential.number(), 12);
        assert_eq!(BestPractice::DistinctRegions.number(), 1);
        assert_eq!(BestPractice::UseDevDax.number(), 7);
    }

    #[test]
    fn every_insight_maps_to_exactly_one_best_practice_except_devdax() {
        for insight in Insight::ALL {
            let owners: Vec<_> = BestPractice::ALL
                .iter()
                .filter(|bp| bp.insights().contains(&insight))
                .collect();
            assert_eq!(owners.len(), 1, "{insight} owned by {owners:?}");
        }
        assert!(BestPractice::UseDevDax.insights().is_empty());
    }

    #[test]
    fn every_insight_names_a_reproducing_experiment() {
        let figures =
            pmem_membench::experiments::all_figures(&mut pmem_sim::Simulation::paper_default());
        for insight in Insight::ALL {
            assert!(
                figures.iter().any(|f| f.id == insight.experiment()),
                "{insight} names {}, which no figure has",
                insight.experiment()
            );
        }
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(format!("{}", Insight::ReadWithAllCores), "Insight #2");
        let text = format!("{}", BestPractice::PinThreads);
        assert!(text.contains("#3") && text.contains("Pin threads"));
    }
}
