//! Acceptance tests for the sharded-serving tentpole: SSB facts are
//! hash-partitioned across N simulated machines, each partition is
//! replicated to its ring successor, and a seeded whole-machine blackout
//! at 2× per-shard load must not dent fleet goodput below 85% of the
//! healthy fleet, must keep the tail bounded, and must lose zero
//! committed data — while the replication-off baseline demonstrably
//! loses the dead shard's rows, and every counter must be
//! seed-deterministic.
//!
//! Like the overload suite, the serving workload is ingest-only so the
//! whole fleet prices in the virtual plane and the suite stays cheap.

use pmem_cluster::{Cluster, ClusterConfig, ShardMachine};
use pmem_serve::{ShardRole, SloClass, SloPolicy};
use pmem_ssb::columnar::Column;

/// The master seed: identical seeds must reproduce identical reports.
const SEED: u64 = 7;
/// Blackout instant, ~25% into the 0.2 s demo horizon: the victim gets a
/// healthy head start, then the fleet absorbs the loss for the remaining
/// three quarters of the offered window.
const BLACKOUT_AT: f64 = 0.05;

fn fleet(shards: u32) -> Cluster {
    Cluster::build(ClusterConfig::demo(shards, SEED)).expect("cluster builds")
}

#[test]
fn lost_shard_keeps_goodput_tail_and_committed_data() {
    let mut cluster = fleet(8);
    let healthy = cluster.run_healthy().expect("healthy run");
    let victim = 3;
    let lost = cluster
        .run_with_lost_shard(victim, BLACKOUT_AT)
        .expect("failover run");
    println!("healthy:\n{healthy}");
    println!("lost:\n{lost}");

    // Robustness gate: the fleet keeps ≥ 85% of healthy goodput with one
    // of eight machines dark for ~90% of the run.
    assert!(healthy.goodput_bytes_per_sec > 0.0);
    assert!(
        lost.goodput_bytes_per_sec >= 0.85 * healthy.goodput_bytes_per_sec,
        "goodput under failover {:.2} GiB/s < 85% of healthy {:.2} GiB/s",
        lost.goodput_gib_s(),
        healthy.goodput_gib_s()
    );

    // Bounded tail: completed work must not hide behind a stretched p99.
    assert!(
        lost.e2e.p99 <= (2.0 * healthy.e2e.p99).max(0.3),
        "failover p99 {:.3}s vs healthy {:.3}s",
        lost.e2e.p99,
        healthy.e2e.p99
    );

    // Failover actually happened: post-detection arrivals moved to the
    // replica host and paid the interconnect.
    assert_eq!(lost.lost_shard, Some(victim));
    assert!(
        lost.rerouted_jobs > 0,
        "router re-routed the dead key range"
    );
    let peer = cluster.map().replica_of(victim).expect("ring peer");
    let peer_fanout = lost.per_shard[peer as usize]
        .fanout
        .as_ref()
        .expect("fan-out outcome attached");
    assert_eq!(peer_fanout.role, ShardRole::Failover);
    assert_eq!(peer_fanout.rerouted_jobs, lost.rerouted_jobs);
    assert!(
        peer_fanout.transfer_seconds > 0.0,
        "reroutes price the wire"
    );
    for (s, report) in lost.per_shard.iter().enumerate() {
        let fanout = report.fanout.as_ref().expect("every shard reports fan-out");
        assert_eq!(fanout.shard, s as u32);
        if s as u32 != peer {
            assert_eq!(fanout.role, ShardRole::Primary);
        }
    }

    // The cluster-level breaker isolated the dead shard.
    assert!(
        lost.outcomes[victim as usize].breaker_trips >= 1,
        "victim's breaker must trip after the blackout"
    );

    // Zero committed-data loss: the scatter-gather aggregate over the
    // survivors (serving the dead range from its replica) equals the
    // committed ground truth.
    assert!(
        lost.data_intact(),
        "aggregate {} != committed {}",
        lost.query.aggregate,
        lost.reference
    );
    assert_eq!(lost.query.lost_rows, 0);
    assert!(
        lost.query.replica_served_rows > 0,
        "replica served the dead range"
    );
    assert_eq!(
        lost.query.replica_served_rows,
        cluster.machines()[victim as usize].rows
    );

    // Background re-replication restored two-copy redundancy.
    assert!(lost.rereplicated_bytes > 0);
    let restored = lost.redundancy_restored_at.expect("redundancy restored");
    assert!(restored > lost.failover_at.expect("failover timestamped"));
}

#[test]
fn replication_off_baseline_loses_committed_data() {
    let mut cluster =
        Cluster::build(ClusterConfig::demo(4, SEED).without_replication()).expect("cluster builds");
    let victim = 1;
    assert!(
        cluster.machines()[victim as usize].committed != 0,
        "victim partition must hold committed revenue for the contrast to bite"
    );
    let lost = cluster
        .run_with_lost_shard(victim, BLACKOUT_AT)
        .expect("baseline run");
    assert!(
        !lost.data_intact(),
        "without replication the loss must show"
    );
    assert_eq!(
        lost.query.lost_rows,
        cluster.machines()[victim as usize].rows
    );
    assert!(lost.query.lost_rows > 0);
    assert_ne!(lost.query.aggregate, lost.reference);
    assert_eq!(lost.query.replica_served_rows, 0);
    assert_eq!(lost.rerouted_jobs, 0, "no replica, nowhere to re-route");
    assert_eq!(lost.rereplicated_bytes, 0);
}

#[test]
fn poisoned_shard_repairs_from_its_remote_replica() {
    let mut cluster = fleet(4);
    let victim = 2usize;
    let before = ShardMachine::q11_partial(&cluster.machines()[victim].fact);
    assert_eq!(before, cluster.machines()[victim].committed);

    let poisoned = {
        let fact = &mut cluster.machines_mut()[victim].fact;
        fact.inject_poison(Column::Revenue, 0, 16)
            + fact.inject_poison(Column::ExtendedPrice, 4096, 300)
            + fact.inject_poison(Column::Discount, 128, 8)
    };
    assert!(poisoned > 0, "poison landed");

    let repair = cluster
        .repair_shard_from_replica(victim as u32)
        .expect("repair runs");
    assert!(repair.blocks_repaired > 0);
    assert!(
        repair.is_fully_repaired(),
        "every block rebuilt from the peer"
    );

    // Byte-exact: the rebuilt partition answers exactly as before.
    let fact = &cluster.machines()[victim].fact;
    assert!(fact.scrub().iter().all(|(_, r)| r.is_clean()));
    assert_eq!(ShardMachine::q11_partial(fact), before);
}

#[test]
fn slo_classes_propagate_through_failover_rerouting() {
    // With the SLO policy on, each shard's steady tenant is Interactive
    // and its bursty tenant BestEffort. Losing a shard re-routes its
    // post-detection arrivals to the replica host, and the class must
    // travel with the job: the failover host's report carries both
    // tiers, and no job is left at the default class.
    let cfg = ClusterConfig::demo(2, SEED).with_slo(SloPolicy::default_on());
    let mut cluster = Cluster::build(cfg).expect("cluster builds");
    let lost = cluster
        .run_with_lost_shard(0, BLACKOUT_AT)
        .expect("failover run");
    assert!(lost.rerouted_jobs > 0, "failover actually re-routed work");
    let host = lost
        .per_shard
        .iter()
        .find(|r| {
            r.fanout
                .as_ref()
                .is_some_and(|f| f.role == ShardRole::Failover)
        })
        .expect("a replica host served the victim's range");
    assert!(
        host.class_report(SloClass::Interactive).is_some(),
        "the victim's interactive tenant landed on the host"
    );
    assert!(host.class_report(SloClass::BestEffort).is_some());
    assert!(
        host.jobs.iter().all(|j| j.class != SloClass::Standard),
        "every tenant was class-tagged; nothing fell back to default"
    );
    // Class-aware shedding holds on the overloaded failover host too:
    // best-effort absorbs at least as many sheds as the latency tier.
    let sheds = |class| host.class_report(class).map(|c| c.shed).unwrap_or_default();
    assert!(
        sheds(SloClass::BestEffort) >= sheds(SloClass::Interactive),
        "best-effort must absorb the shed load before interactive"
    );
}

#[test]
fn repeated_failovers_return_every_replaced_replica_byte() {
    // Each failover re-replicates the victim's partition onto the next
    // survivor. A second identical failover replaces that copy, and the
    // replaced copy must give its bytes back: every replica namespace
    // ends exactly where the first run left it.
    let mut cluster = fleet(4);
    let used =
        |c: &Cluster| -> Vec<u64> { c.machines().iter().map(|m| m.replica_ns().used()).collect() };
    let first = cluster
        .run_with_lost_shard(1, BLACKOUT_AT)
        .expect("first failover");
    assert!(first.rereplicated_bytes > 0, "the failover re-replicated");
    let after_first = used(&cluster);
    cluster
        .run_with_lost_shard(1, BLACKOUT_AT)
        .expect("second failover");
    assert_eq!(
        used(&cluster),
        after_first,
        "a replaced replica leaked its namespace bytes"
    );
}

#[test]
fn cluster_runs_are_seed_deterministic() {
    let run = || {
        let mut cluster = fleet(4);
        cluster
            .run_with_lost_shard(1, BLACKOUT_AT)
            .expect("failover run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.rerouted_jobs, b.rerouted_jobs);
    assert_eq!(a.shard_breaker_trips, b.shard_breaker_trips);
    assert_eq!(a.outcomes, b.outcomes, "per-shard counters match exactly");
    assert_eq!(a.query.partials, b.query.partials);
    assert_eq!(a.query.aggregate, b.query.aggregate);
    assert_eq!(a.rereplicated_bytes, b.rereplicated_bytes);
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(
        a.goodput_bytes_per_sec.to_bits(),
        b.goodput_bytes_per_sec.to_bits()
    );
    assert_eq!(a.e2e.p99.to_bits(), b.e2e.p99.to_bits());
    assert_eq!(a.redundancy_restored_at, b.redundancy_restored_at);
}
