//! Acceptance tests for the gray-failure tentpole: one of eight
//! machines keeps answering at a tenth of its service rate — alive
//! enough that no binary breaker ever trips — while the scatter-gather
//! query plane fans Q1.1 out across the fleet at its surge cadence.
//! The accrual detector must suspect (never kill) the victim, demote it
//! to a graded router weight, hedge its partials to the ring replica,
//! and hand the weight back when the fault clears; with that plane
//! armed the fleet must hold ≥ 85% of healthy query goodput and a p99
//! within 1.5× of healthy, with zero data loss and zero double-counted
//! partials — while the oracle/no-hedge baseline demonstrably misses
//! both gates. Every run must replay bit for bit from its seed.

use pmem_cluster::detector::DEMOTED_WEIGHT;
use pmem_cluster::{Cluster, ClusterConfig, DetectorConfig, DetectorMode, GrayConfig};
use pmem_serve::ShardRole;
use proptest::prelude::*;

/// The master seed: identical seeds must reproduce identical reports.
const SEED: u64 = 7;
/// The victim machine of the acceptance fault.
const VICTIM: u32 = 3;
/// Fail-slow window: [40 ms, 160 ms) of the 200 ms horizon — 60% of the
/// offered window served at `FACTOR` of the victim's rate.
const FAULT_AT: f64 = 0.04;
const FAULT_UNTIL: f64 = 0.16;
/// 10× service-time inflation: slow enough to drag every fan-out, fast
/// enough that the machine is unmistakably alive.
const FACTOR: f64 = 0.1;

fn accrual_fleet(shards: u32) -> Cluster {
    Cluster::build(ClusterConfig::demo(shards, SEED).with_detector(DetectorConfig::accrual()))
        .expect("cluster builds")
}

fn fault() -> GrayConfig {
    GrayConfig::demo().with_fail_slow(VICTIM, FAULT_AT, FAULT_UNTIL, FACTOR)
}

#[test]
fn hedged_accrual_plane_holds_goodput_and_tail_where_the_oracle_baseline_collapses() {
    let mut cluster = accrual_fleet(8);
    let healthy = cluster.run_gray(&fault().healthy()).expect("healthy run");
    let hedged = cluster.run_gray(&fault()).expect("hedged run");
    println!("healthy:\n{healthy}");
    println!("hedged accrual:\n{hedged}");

    // The gray gate: detector + hedging hold the query plane.
    assert!(healthy.query_goodput_bytes_per_sec > 0.0);
    assert!(
        hedged.goodput_vs(&healthy) >= 0.85,
        "hedged goodput fell to {:.1}% of healthy",
        100.0 * hedged.goodput_vs(&healthy)
    );
    assert!(
        hedged.p99_vs(&healthy) <= 1.5,
        "hedged p99 stretched to {:.2}x healthy",
        hedged.p99_vs(&healthy)
    );

    // Zero committed-data loss, zero double counting: every query's
    // aggregate matched the ground truth, and exactly one partial per
    // key range was summed even across hedge races.
    assert!(hedged.data_intact());
    assert_eq!(hedged.mismatched_queries, 0);
    assert_eq!(hedged.double_counted, 0);

    // The detector worked the fault, not the machine's obituary: it
    // suspected the victim shortly after onset, never declared a merely
    // slow machine dead, and hedges actually carried the demoted range.
    let suspected = hedged.suspected_at.expect("victim suspected");
    assert!(
        suspected > FAULT_AT && suspected < FAULT_AT + 0.005,
        "suspected at {suspected:.3}s"
    );
    assert_eq!(hedged.dead_at, None, "fail-slow must never read as dead");
    assert!(hedged.hedges_fired > 0);
    assert!(hedged.hedges_tied > 0, "demoted shard gets tied hedges");
    assert!(hedged.hedge_wins > 0, "backups beat the slow primary");
    assert!(hedged.replica_partials > 0);
    assert_eq!(
        hedged.hedges_cancelled, hedged.hedges_fired,
        "every race has exactly one loser, cancelled — never also counted"
    );

    // The baseline the detector replaces: blackout oracle (blind to
    // fail-slow) and no hedging. It must demonstrably miss BOTH gates.
    cluster.set_detector(DetectorConfig::oracle());
    let baseline = cluster
        .run_gray(&fault().without_hedging())
        .expect("baseline run");
    println!("oracle no-hedge baseline:\n{baseline}");
    assert_eq!(baseline.suspected_at, None, "the oracle never sees it");
    assert_eq!(baseline.hedges_fired, 0);
    assert!(
        baseline.goodput_vs(&healthy) < 0.85,
        "baseline goodput held {:.1}% — the contrast must bite",
        100.0 * baseline.goodput_vs(&healthy)
    );
    assert!(
        baseline.p99_vs(&healthy) > 1.5,
        "baseline p99 only {:.2}x healthy",
        baseline.p99_vs(&healthy)
    );
    // Slow, not lossy: the baseline still answers correctly — the gray
    // failure is a latency/goodput catastrophe, not a data one.
    assert!(baseline.data_intact());
}

#[test]
fn suspected_machine_is_demoted_gradedly_and_reearns_full_weight() {
    let mut cluster = accrual_fleet(8);
    let hedged = cluster.run_gray(&fault()).expect("hedged run");

    // Graded demotion: the victim kept serving at the demoted weight —
    // never zero — and new ingest arrivals rebalanced to the ring peer,
    // paying the interconnect.
    assert!(hedged.victim_weight_min > 0.0, "demotion is not exile");
    assert!((hedged.victim_weight_min - DEMOTED_WEIGHT).abs() < 1e-12);
    assert!(hedged.rebalanced_jobs > 0, "ingest moved off the victim");
    let victim_fanout = hedged.per_shard[VICTIM as usize]
        .fanout
        .as_ref()
        .expect("victim fan-out attached");
    assert_eq!(victim_fanout.role, ShardRole::Demoted);
    assert!(
        victim_fanout.routed_jobs > victim_fanout.rebalanced_jobs,
        "the demoted shard kept part of its load"
    );
    let peer = cluster.map().replica_of(VICTIM).expect("ring peer") as usize;
    let peer_fanout = hedged.per_shard[peer]
        .fanout
        .as_ref()
        .expect("peer fan-out");
    assert_eq!(peer_fanout.role, ShardRole::Failover);
    assert_eq!(peer_fanout.rerouted_jobs, hedged.rebalanced_jobs);
    assert!(
        peer_fanout.transfer_seconds > 0.0,
        "rebalances price the wire"
    );

    // Recovery: once the window closes the probes clear the score and
    // the victim finishes the run at full router weight.
    let cleared = hedged.cleared_at.expect("victim re-earned its weight");
    assert!(
        cleared > FAULT_UNTIL && cleared < hedged.horizon,
        "cleared at {cleared:.3}s"
    );
    assert_eq!(
        hedged.victim_weight_end.to_bits(),
        1.0f64.to_bits(),
        "full weight restored by end of run"
    );
}

#[test]
fn reactive_hedges_cover_the_detector_blind_window() {
    let mut cluster = accrual_fleet(8);
    let hedged = cluster.run_gray(&fault()).expect("hedged run");
    // Queries issued between fault onset and first suspicion see a
    // healthy-looking timeline; their straggling primaries must still be
    // hedged reactively at the observed latency quantile.
    assert!(
        hedged.hedges_fired > hedged.hedges_tied,
        "at least one reactive hedge fired in the blind window"
    );
    // And the healthy fleet fires none at all: the quantile trigger must
    // not hedge ordinary latency noise.
    let healthy = cluster.run_gray(&fault().healthy()).expect("healthy run");
    assert_eq!(healthy.hedges_fired, 0, "no hedging tax when healthy");
    assert_eq!(healthy.queries_met, healthy.queries);
}

#[test]
fn accrual_detector_beats_the_oracle_on_a_true_blackout() {
    // The detector also subsumes the blackout path: with the accrual
    // mode on, `run_with_lost_shard` fails over when the health score
    // hits the dead threshold — with no oracle whisper — and it must be
    // at least as fast as the old fixed 5 ms DETECT_DELAY was.
    let at = 0.05;
    let mut cluster = accrual_fleet(4);
    let lost = cluster.run_with_lost_shard(1, at).expect("failover run");
    let detected = lost.failover_at.expect("failover timestamped");
    assert!(detected > at, "no clairvoyance");
    assert!(
        detected < at + DetectorConfig::accrual().oracle_delay,
        "accrual detection at {detected:.4}s is no faster than the oracle"
    );
    assert!(lost.rerouted_jobs > 0);
    assert!(lost.data_intact());

    // Same fault under the oracle: detection pinned at exactly the
    // configured delay (the old DETECT_DELAY constant, now owned by
    // DetectorConfig).
    let mut oracle = Cluster::build(ClusterConfig::demo(4, SEED)).expect("cluster builds");
    assert_eq!(oracle.config().detector.mode, DetectorMode::Oracle);
    assert_eq!(oracle.config().detector.oracle_delay, 0.005);
    let lost = oracle.run_with_lost_shard(1, at).expect("failover run");
    assert_eq!(
        lost.failover_at.expect("failover timestamped").to_bits(),
        (at + 0.005).to_bits()
    );
}

#[test]
fn slower_oracles_reroute_no_more_jobs() {
    // The config-owned delay actually steers the router: the longer the
    // oracle sleeps, the fewer post-detection arrivals can move.
    let mut rerouted = Vec::new();
    for delay in [0.005, 0.02, 0.08] {
        let det = DetectorConfig {
            oracle_delay: delay,
            ..DetectorConfig::oracle()
        };
        let mut cluster =
            Cluster::build(ClusterConfig::demo(4, SEED).with_detector(det)).expect("builds");
        let lost = cluster.run_with_lost_shard(1, 0.05).expect("failover run");
        assert_eq!(
            lost.failover_at.expect("timestamped").to_bits(),
            (0.05 + delay).to_bits()
        );
        rerouted.push(lost.rerouted_jobs);
    }
    assert!(
        rerouted.windows(2).all(|w| w[0] >= w[1]),
        "rerouted jobs must be non-increasing in detection delay: {rerouted:?}"
    );
    assert!(
        rerouted[0] > rerouted[2],
        "the sweep actually moved routing"
    );
}

#[test]
fn gray_runs_are_seed_deterministic() {
    let run = || {
        let mut cluster = accrual_fleet(8);
        cluster.run_gray(&fault()).expect("hedged run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.queries_met, b.queries_met);
    assert_eq!(a.hedges_fired, b.hedges_fired);
    assert_eq!(a.hedges_tied, b.hedges_tied);
    assert_eq!(a.hedge_wins, b.hedge_wins);
    assert_eq!(a.hedges_cancelled, b.hedges_cancelled);
    assert_eq!(a.replica_partials, b.replica_partials);
    assert_eq!(a.rebalanced_jobs, b.rebalanced_jobs);
    assert_eq!(a.suspected_at, b.suspected_at);
    assert_eq!(a.cleared_at, b.cleared_at);
    assert_eq!(a.reference, b.reference);
    assert_eq!(
        a.query_goodput_bytes_per_sec.to_bits(),
        b.query_goodput_bytes_per_sec.to_bits()
    );
    assert_eq!(a.query_latency.p99.to_bits(), b.query_latency.p99.to_bits());
    assert_eq!(a.query_latency_max.to_bits(), b.query_latency_max.to_bits());
    assert_eq!(
        a.ingest_goodput_bytes_per_sec.to_bits(),
        b.ingest_goodput_bytes_per_sec.to_bits()
    );
    assert_eq!(
        a.query_transfer_seconds.to_bits(),
        b.query_transfer_seconds.to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: across random victims, fault windows, severities and
    /// query phases, hedged scatter-gather answers are byte-identical
    /// to the unhedged healthy run's — the same committed ground truth,
    /// on every query, with every race resolving to exactly one counted
    /// partial and exactly one cancelled loser.
    #[test]
    fn hedged_answers_are_byte_identical_to_the_healthy_run(
        seed in 0u64..1_000,
        victim in 0u32..4,
        at_milli in 10u32..120,
        len_milli in 10u32..80,
        factor_milli in 50u32..600,
        offset_micro in 0u32..900,
    ) {
        let cfg = ClusterConfig::demo(4, seed).with_detector(DetectorConfig::accrual());
        let mut cluster = Cluster::build(cfg).expect("cluster builds");
        let at = f64::from(at_milli) / 1000.0;
        let gray = GrayConfig {
            query_offset: f64::from(offset_micro) / 1e6,
            ..GrayConfig::demo()
        }
        .with_fail_slow(
            victim,
            at,
            at + f64::from(len_milli) / 1000.0,
            f64::from(factor_milli) / 1000.0,
        );
        let healthy = cluster
            .run_gray(&gray.healthy().without_hedging())
            .expect("healthy run");
        let hedged = cluster.run_gray(&gray).expect("hedged run");

        // Same ground truth, zero mismatches on either side: every
        // hedged aggregate is byte-identical to the unhedged one.
        prop_assert_eq!(hedged.reference, healthy.reference);
        prop_assert_eq!(healthy.mismatched_queries, 0);
        prop_assert_eq!(hedged.mismatched_queries, 0);
        prop_assert_eq!(hedged.double_counted, 0);
        prop_assert!(hedged.data_intact());
        // Race bookkeeping: one loser per hedge, no orphans.
        prop_assert_eq!(hedged.hedges_cancelled, hedged.hedges_fired);
        prop_assert!(hedged.hedge_wins <= hedged.hedges_fired);
        prop_assert!(hedged.replica_partials == hedged.hedge_wins);
        // A fail-slow machine is never declared dead, whatever the dose.
        prop_assert_eq!(hedged.dead_at, None);
    }
}
