//! Acceptance tests for the compositional chaos fuzzer: seeded
//! multi-fault schedules over the full serve/cluster stack, standing
//! invariants checked on every run, failures shrunk to minimal
//! reproducers.
//!
//! The planted regression the fuzzer must rediscover: anti-entropy
//! catch-up with verification disabled claims `clean` without evidence,
//! so a blackout victim whose media was damaged *mid catch-up* is handed
//! its key range back while still serving unverifiable blocks.

#![allow(clippy::unwrap_used)]

use pmem_crashmc::chaos::{build_cluster, fuzz_cluster, run_one, shrink_failure, ChaosFuzzConfig};
use pmem_sim::chaos::ChaosFault;

#[test]
fn clean_campaign_upholds_every_invariant() {
    // ≥ 100 seeded multi-fault schedules with verification on: zero
    // invariant violations.
    let cfg = ChaosFuzzConfig::smoke(11, 100);
    let outcome = fuzz_cluster(&cfg).expect("campaign runs");
    println!(
        "{} schedules, {} events, {} rejoin arcs, healthy p99 {:.4}s",
        outcome.schedules_run, outcome.events_run, outcome.rejoin_arcs, outcome.healthy_p99
    );
    for f in &outcome.failures {
        println!("iteration {} violated: {:?}", f.iteration, f.violations);
    }
    assert_eq!(outcome.schedules_run, 100);
    assert!(
        outcome.events_run >= 100,
        "schedules carry at least one event each"
    );
    assert!(
        outcome.rejoin_arcs > 0,
        "the campaign exercised blackout/rejoin arcs"
    );
    assert!(
        outcome.clean(),
        "verified stack must uphold every invariant: {:?}",
        outcome.failures
    );
}

#[test]
fn fuzzer_rediscovers_the_planted_regression_and_shrinks_it() {
    // Identical campaign with anti-entropy verification disabled: the
    // fuzzer must find schedules where an unverified catch-up hands
    // damaged blocks back.
    let cfg = ChaosFuzzConfig::smoke(11, 100).without_verification();
    let outcome = fuzz_cluster(&cfg).expect("campaign runs");
    assert!(
        !outcome.clean(),
        "the planted regression must be rediscovered within 100 schedules"
    );
    let failure = &outcome.failures[0];
    println!(
        "first failure: iteration {}, {} events, violations {:?}",
        failure.iteration,
        failure.schedule.len(),
        failure.violations
    );
    assert!(
        failure
            .violations
            .iter()
            .any(|v| v.contains("unverified") || v.contains("committed-data")),
        "the failure is the hand-back/data invariant, got {:?}",
        failure.violations
    );

    // Delta-debug the failing schedule to a minimal reproducer.
    let (minimal, violations) = shrink_failure(&cfg, failure).expect("shrink runs");
    println!(
        "shrunk {} events → {}: {:?} (violations {:?})",
        failure.schedule.len(),
        minimal.len(),
        minimal.events(),
        violations
    );
    assert!(
        !violations.is_empty(),
        "the shrunk schedule still reproduces the failure"
    );
    assert!(
        minimal.len() <= 3,
        "minimal reproducer has ≤ 3 fault events, got {}",
        minimal.len()
    );
    // The regression's shape: a blackout/rejoin arc plus media damage on
    // the same machine (poison landing mid catch-up is exactly the
    // window the disabled verification pass was for).
    let blackout_machine = minimal.events().iter().find_map(|e| match e.fault {
        ChaosFault::BlackoutRejoin { .. } => Some(e.machine % cfg.shards as usize),
        _ => None,
    });
    let poison_machines: Vec<usize> = minimal
        .events()
        .iter()
        .filter_map(|e| match e.fault {
            ChaosFault::MediaPoison { .. } => Some(e.machine % cfg.shards as usize),
            _ => None,
        })
        .collect();
    let blackout_machine = blackout_machine.expect("reproducer keeps the blackout/rejoin");
    assert!(
        poison_machines.contains(&blackout_machine),
        "reproducer pairs media poison with the blackout victim"
    );

    // With verification restored, the exact same minimal schedule is
    // harmless: the catch-all scrub re-fetches the damaged blocks.
    let fixed = ChaosFuzzConfig {
        verify_catch_up: true,
        ..cfg
    };
    let report = run_one(&fixed, &minimal).expect("fixed run");
    assert!(
        report.violations(outcome.healthy_p99).is_empty(),
        "verification closes the reproducer: {report}"
    );
}

#[test]
fn chaos_campaign_hands_the_fleet_back_as_built() {
    // One built cluster absorbs a whole campaign, so every schedule must
    // leave it as it was built: exactly the ring replicas (a written-off
    // victim's re-replicated copy dropped), clean media, and every
    // replica namespace back at its post-build usage.
    let cfg = ChaosFuzzConfig::smoke(11, 100);
    let mut cluster = build_cluster(&cfg).unwrap();
    let map = cluster.map();
    let built: Vec<u64> = cluster
        .machines()
        .iter()
        .map(|m| m.replica_ns().used())
        .collect();
    for i in 0..cfg.schedules {
        cluster
            .run_chaos(&cfg.schedule(i), cfg.verify_catch_up)
            .unwrap();
        for (s, machine) in cluster.machines().iter().enumerate() {
            let sources: Vec<u32> = machine.replicas.iter().map(|(src, _)| *src).collect();
            assert_eq!(
                sources.len(),
                1,
                "schedule {i}: machine {s} hosts {sources:?}"
            );
            assert_eq!(
                map.replica_of(sources[0]),
                Some(s as u32),
                "schedule {i}: machine {s} must host its ring predecessor's replica"
            );
            let clean = |fact: &pmem_ssb::columnar::ColumnarFact| {
                fact.scrub().iter().all(|(_, r)| r.is_clean())
            };
            assert!(clean(&machine.fact), "schedule {i}: machine {s} is dirty");
            assert!(
                clean(&machine.replicas[0].1),
                "schedule {i}: machine {s}'s replica is dirty"
            );
            assert_eq!(
                machine.replica_ns().used(),
                built[s],
                "schedule {i}: machine {s}'s replica namespace drifted"
            );
        }
    }
}

#[test]
fn campaigns_are_seed_deterministic() {
    let cfg = ChaosFuzzConfig::smoke(23, 25).without_verification();
    let a = fuzz_cluster(&cfg).expect("campaign runs");
    let b = fuzz_cluster(&cfg).expect("campaign runs");
    assert_eq!(a.healthy_p99.to_bits(), b.healthy_p99.to_bits());
    assert_eq!(a.events_run, b.events_run);
    assert_eq!(a.rejoin_arcs, b.rejoin_arcs);
    assert_eq!(a.failures.len(), b.failures.len());
    for (fa, fb) in a.failures.iter().zip(&b.failures) {
        assert_eq!(fa.iteration, fb.iteration);
        assert_eq!(fa.schedule, fb.schedule);
        assert_eq!(fa.violations, fb.violations);
    }
    // The shrink replays bit for bit too.
    if let Some(f) = a.failures.first() {
        let (ma, va) = shrink_failure(&cfg, f).expect("shrink");
        let (mb, vb) = shrink_failure(&cfg, f).expect("shrink");
        assert_eq!(ma, mb);
        assert_eq!(va, vb);
    }
}

mod poison_during_catch_up {
    //! Satellite property: media poison injected *during* anti-entropy
    //! catch-up — after the hash exchange, before the blocks land —
    //! never lets an unverified block be handed back. The verified
    //! protocol either repairs it (re-fetch) or refuses
    //! (`is_fully_caught_up() == false`); it never claims success while
    //! the shard is dirty.

    use pmem_sim::topology::SocketId;
    use pmem_ssb::columnar::{Column, ColumnarFact};
    use pmem_ssb::datagen::generate;
    use pmem_store::Namespace;
    use proptest::prelude::*;

    fn fact_pair() -> (ColumnarFact, ColumnarFact) {
        let data = generate(0.001, 47);
        let ns = Namespace::devdax(SocketId(0), (data.lineorder.len() as u64) * 64 + (4 << 20));
        let fact = ColumnarFact::load(&ns, &data).expect("columnar load");
        let replica_ns =
            Namespace::devdax(SocketId(1), (data.lineorder.len() as u64) * 64 + (8 << 20));
        let replica = fact.replicate_to(&replica_ns).expect("replicate");
        (fact, replica)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn verified_catch_up_never_claims_clean_while_dirty(
            column in 0usize..9,
            offset_step in 0u64..64,
            len in 1u64..256,
        ) {
            let (mut fact, replica) = fact_pair();
            let column = Column::ALL[column];
            let bytes = fact.column_bytes(column).max(1);
            let offset = (offset_step * (bytes / 64).max(1)).min(bytes - 1);

            // The mid-catch-up window: hashes exchanged first, poison
            // lands second, blocks applied third.
            let diff = fact.diff_blocks(&replica).expect("diff");
            fact.inject_poison(column, offset, len);
            let report = fact.apply_diff(&replica, &diff, true).expect("apply");

            let actually_clean = fact.scrub().iter().all(|(_, r)| r.is_clean());
            if report.is_fully_caught_up() {
                // Claimed success ⇒ the shard really is clean and the
                // damage was re-fetched.
                prop_assert!(actually_clean, "claimed clean while dirty");
                prop_assert!(
                    report.refetched_blocks > 0,
                    "mid-catch-up damage must have been re-fetched"
                );
            } else {
                // Refusal ⇒ the report says so honestly.
                prop_assert!(!report.clean || report.unrepairable > 0);
            }
            // Either way: never `clean` claimed while the media is dirty.
            prop_assert!(!report.clean || actually_clean);
        }
    }
}
