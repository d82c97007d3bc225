//! Acceptance suite for the media-error tentpole (`pmem-scrub`): seeded
//! media-error injection, checksummed reads, and self-healing repair
//! across the storage stack.
//!
//! The contrast this suite pins down: with real poisoned XPLines landed in
//! the fact shards, an **unprotected** engine either fails its queries
//! with a typed [`StoreError::Poisoned`] or would silently return corrupt
//! results — while the **protected** path (sealed checksums + durable
//! mirror + scrub/repair) completes ≥ 95 % of the same workload with
//! byte-exact results. Determinism rides along: one seed fully determines
//! the poison timeline, the scrub reports, and the serve counters.

use pmem_serve::{JobOutcome, JobSpec, QueryServer, ResiliencePolicy, ServeConfig, ServeHealth};
use pmem_sim::faults::{FaultEvent, FaultKind, FaultPlan, FaultScheduleConfig, XPLINE_BYTES};
use pmem_sim::topology::SocketId;
use pmem_ssb::datagen::{generate, SsbData};
use pmem_ssb::integrity::{apply_media_plan, repair_region, StoreIntegrity};
use pmem_ssb::reference::reference_query;
use pmem_ssb::{run_query, EngineMode, QueryId, SsbStore, StorageDevice};
use pmem_store::scrub::{BlockChecksums, SCRUB_BLOCK};
use pmem_store::{AccessHint, Namespace, StoreError};

/// One seed determines everything: data, poison timeline, repair outcome.
const MEDIA_SEED: u64 = 0x5eed;
const SF: f64 = 0.003;
const HORIZON: f64 = 1.0;

fn dataset() -> SsbData {
    generate(SF, 21)
}

fn load(data: &SsbData) -> SsbStore {
    SsbStore::load(data, SF, EngineMode::Aware, StorageDevice::PmemDevdax).expect("store loads")
}

fn media_plan() -> FaultPlan {
    FaultPlan::generate(
        MEDIA_SEED,
        &FaultScheduleConfig::with_media_errors(HORIZON, 6),
    )
}

#[test]
fn unprotected_queries_fail_on_poisoned_media_with_a_typed_error() {
    let data = dataset();
    let mut store = load(&data);
    let landed = apply_media_plan(&mut store, &media_plan(), 0.0, HORIZON);
    assert!(!landed.is_empty(), "the seeded plan must land real poison");

    let mut failures = 0usize;
    for &query in &QueryId::ALL {
        match run_query(&store, query, 4) {
            Err(StoreError::Poisoned { .. }) => failures += 1,
            Err(other) => panic!("{}: wrong error kind {other}", query.name()),
            Ok(outcome) => {
                // A query that slipped past the poison must still be right
                // — silent corruption is the one unacceptable outcome.
                assert_eq!(
                    outcome.rows,
                    reference_query(&data, query),
                    "{}: corrupt result returned without an error",
                    query.name()
                );
            }
        }
    }
    assert!(
        failures > 0,
        "poison inside the fact shards must fail at least one unprotected scan"
    );
}

#[test]
fn protected_path_repairs_and_completes_at_least_95_percent_correctly() {
    let data = dataset();
    let mut store = load(&data);
    // Seal while known-good: per-block checksums + durable mirror.
    let integ = StoreIntegrity::seal(&store).expect("seal");
    let landed = apply_media_plan(&mut store, &media_plan(), 0.0, HORIZON);
    assert!(!landed.is_empty());
    assert!(!integ.is_clean(&store), "scrub must see the poison");

    let total = QueryId::ALL.len();
    let mut correct = 0usize;
    for &query in &QueryId::ALL {
        let outcome = match run_query(&store, query, 4) {
            Ok(o) => Some(o),
            Err(StoreError::Poisoned { .. }) => {
                // The serve path on a poisoned read: quarantine, repair
                // from the mirror, retry the query.
                let repair = integ.repair(&mut store).expect("mirror is clean");
                assert!(repair.is_fully_repaired());
                run_query(&store, query, 4).ok()
            }
            Err(other) => panic!("{}: unexpected error {other}", query.name()),
        };
        if outcome.is_some_and(|o| o.rows == reference_query(&data, query)) {
            correct += 1;
        }
    }
    assert!(
        correct as f64 >= 0.95 * total as f64,
        "protected path must complete >=95% correctly, got {correct}/{total}"
    );
    assert_eq!(correct, total, "repair restores byte-exact data: all pass");
    assert!(integ.is_clean(&store), "nothing left poisoned after repair");
}

#[test]
fn one_seed_determines_poison_timeline_scrub_reports_and_lines() {
    let config = FaultScheduleConfig::with_media_errors(HORIZON, 6);
    let plan_a = FaultPlan::generate(MEDIA_SEED, &config);
    let plan_b = FaultPlan::generate(MEDIA_SEED, &config);
    assert_eq!(plan_a, plan_b, "same seed, same fault plan");
    assert_eq!(
        plan_a.media_errors_in(0.0, HORIZON),
        plan_b.media_errors_in(0.0, HORIZON)
    );

    let data = dataset();
    let mut store_a = load(&data);
    let mut store_b = load(&data);
    let integ_a = StoreIntegrity::seal(&store_a).expect("seal");
    let integ_b = StoreIntegrity::seal(&store_b).expect("seal");
    assert_eq!(
        apply_media_plan(&mut store_a, &plan_a, 0.0, HORIZON),
        apply_media_plan(&mut store_b, &plan_b, 0.0, HORIZON),
        "identical poison placement"
    );
    for (sa, sb) in store_a.shards.iter().zip(store_b.shards.iter()) {
        assert_eq!(sa.fact.poisoned_lines(), sb.fact.poisoned_lines());
    }
    let scrub_a = integ_a.scrub(&store_a);
    let scrub_b = integ_b.scrub(&store_b);
    assert_eq!(scrub_a.len(), scrub_b.len());
    for ((socket_a, ra), (socket_b, rb)) in scrub_a.iter().zip(scrub_b.iter()) {
        assert_eq!(socket_a, socket_b);
        assert_eq!(ra, rb, "scrub reports are seed-deterministic");
    }
}

/// One media error while a pinned write and a query hold socket 0.
fn serve_jobs() -> [JobSpec; 3] {
    [
        JobSpec::ingest(64 << 20).threads(2).socket(SocketId(0)),
        JobSpec::query(QueryId::Q1_1).threads(4).socket(SocketId(0)),
        JobSpec::query(QueryId::Q2_1).threads(4).socket(SocketId(1)),
    ]
}

fn serve_media_plan() -> FaultPlan {
    FaultPlan::from_events(vec![FaultEvent {
        start: 0.0005,
        end: 0.0005,
        kind: FaultKind::MediaError {
            socket: SocketId(0),
            offset: 64 * XPLINE_BYTES,
            lines: 4,
        },
    }])
}

#[test]
fn serve_counters_are_deterministic_and_protection_beats_the_baseline() {
    let store = SsbStore::generate_and_load(0.005, 99, EngineMode::Aware, StorageDevice::PmemFsdax)
        .expect("store loads");
    let planner = pmem_olap::planner::AccessPlanner::paper_default();

    let run_with = |resilience: Option<ResiliencePolicy>| {
        let config = ServeConfig {
            resilience,
            ..ServeConfig::scheduled(&planner).with_faults(serve_media_plan())
        };
        let mut server = QueryServer::new(&store, config);
        server.submit_all(serve_jobs());
        server.run().expect("run")
    };

    // Baseline: the media error kills what was running on socket 0.
    let baseline = run_with(None);
    assert!(baseline
        .jobs
        .iter()
        .any(|j| j.outcome == JobOutcome::Failed));
    assert_eq!(baseline.quarantined, 0);
    assert_eq!(baseline.repaired, 0);

    // Protected: quarantine + repair + retry; everything completes.
    let protected = run_with(Some(ResiliencePolicy::paper()));
    assert!(protected.jobs.iter().all(|j| j.outcome.is_completed()));
    assert_eq!(protected.repaired, 1);
    assert!(protected.quarantined >= 1);
    assert_eq!(protected.health, ServeHealth::Degraded);

    // Determinism: the same configuration replays to the same counters.
    let replay = run_with(Some(ResiliencePolicy::paper()));
    assert_eq!(replay.quarantined, protected.quarantined);
    assert_eq!(replay.repaired, protected.repaired);
    assert_eq!(replay.power_loss_events, protected.power_loss_events);
    assert_eq!(
        replay
            .jobs
            .iter()
            .map(|j| (j.socket, j.retries, j.outcome.label()))
            .collect::<Vec<_>>(),
        protected
            .jobs
            .iter()
            .map(|j| (j.socket, j.retries, j.outcome.label()))
            .collect::<Vec<_>>()
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    const REGION_BYTES: u64 = 64 * 1024;

    /// A deterministic pattern region plus a pristine mirror copy.
    fn build_pair() -> (pmem_store::Region, pmem_store::Region, Vec<u8>) {
        let ns = Namespace::devdax(SocketId(0), 4 << 20);
        let bytes: Vec<u8> = (0..REGION_BYTES)
            .map(|i| (i.wrapping_mul(131).wrapping_add(i >> 8) & 0xFF) as u8)
            .collect();
        let mut region = ns.alloc_region(REGION_BYTES).expect("alloc");
        let mut mirror = ns.alloc_region(REGION_BYTES).expect("alloc");
        region
            .try_ntstore(0, &bytes, AccessHint::Sequential)
            .expect("fill");
        mirror
            .try_ntstore(0, &bytes, AccessHint::Sequential)
            .expect("fill");
        region.sfence();
        mirror.sfence();
        (region, mirror, bytes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Scrub→repair round-trips any poison placement back to the
        /// original bytes, touches only bad blocks, and is idempotent.
        #[test]
        fn scrub_repair_roundtrip_is_exact_and_idempotent(
            poisons in prop::collection::vec(
                (0u64..REGION_BYTES, 1u64..2048),
                1..6,
            )
        ) {
            let (mut region, mirror, original) = build_pair();
            let checks = BlockChecksums::seal_bytes(&original, SCRUB_BLOCK);

            let mut landed = 0u64;
            for &(offset, len) in &poisons {
                landed += region.inject_poison(offset, len);
            }
            prop_assert!(landed > 0);

            let bad = checks.scrub(&region).bad_blocks();
            prop_assert!(!bad.is_empty(), "scrub must find every poison");

            let repair = repair_region(&mut region, &checks, &mirror, &bad)
                .expect("mirror is clean");
            prop_assert!(repair.is_fully_repaired());
            prop_assert_eq!(repair.blocks_repaired, bad.len() as u64);

            // Never modifies checksum-valid data: the whole region is
            // byte-identical to the pre-poison original, and only the bad
            // blocks were rewritten.
            prop_assert_eq!(region.untracked_slice(), &original[..]);
            let rewritten: u64 = bad
                .iter()
                .map(|&b| checks.block_range(b).1)
                .sum();
            prop_assert_eq!(repair.bytes_rewritten, rewritten);
            prop_assert!(checks.scrub(&region).is_clean());

            // Idempotent: a second pass has nothing to do.
            let again = checks.scrub(&region).bad_blocks();
            prop_assert!(again.is_empty());
            let noop = repair_region(&mut region, &checks, &mirror, &again)
                .expect("empty repair");
            prop_assert_eq!(noop.blocks_repaired, 0);
            prop_assert_eq!(noop.bytes_rewritten, 0);
        }

        /// Repair from a poisoned mirror refuses with the typed error and
        /// leaves the live region untouched.
        #[test]
        fn poisoned_mirror_is_refused(
            offset in 0u64..REGION_BYTES,
            len in 1u64..1024,
        ) {
            let (mut region, mut mirror, _) = build_pair();
            let checks = BlockChecksums::seal_bytes(region.untracked_slice(), SCRUB_BLOCK);
            region.inject_poison(offset, len);
            mirror.inject_poison(offset, len);
            let before = region.poisoned_lines();
            let bad = checks.scrub(&region).bad_blocks();
            let result = repair_region(&mut region, &checks, &mirror, &bad);
            prop_assert!(matches!(result, Err(StoreError::Poisoned { .. })));
            prop_assert_eq!(region.poisoned_lines(), before);
        }
    }
}
