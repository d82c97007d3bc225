//! Acceptance tests for the recovery-plane tentpole: a machine that
//! blacks out mid-run *comes back* — it scrubs its shard against the
//! sealed checksums, catches up divergence from the ring replica via
//! incremental anti-entropy (hash exchange + divergent blocks only,
//! shipped bytes ≪ shard bytes), re-earns traffic through the accrual
//! detector's probe path, takes its key range back, and the extra
//! replica re-replication made is garbage-collected. Fleet goodput over
//! the post-recovery tail must return to ≥ 95% of healthy while the
//! no-rejoin baseline demonstrably stays pinned at the degraded level,
//! with zero committed-data loss and bit-for-bit seed determinism.

use pmem_cluster::recovery::{BLACKOUT_AT, BLACKOUT_UNTIL};
use pmem_cluster::{Cluster, ClusterConfig, DetectorConfig, RecoveryConfig};
use pmem_serve::ShardRole;
use pmem_sim::chaos::{ChaosEvent, ChaosFault, ChaosSchedule};

/// The master seed: identical seeds must reproduce identical reports.
const SEED: u64 = 7;

fn fleet(shards: u32) -> Cluster {
    Cluster::build(ClusterConfig::demo(shards, SEED)).expect("cluster builds")
}

#[test]
fn rejoined_machine_catches_up_and_restores_fleet_goodput() {
    let mut cluster = fleet(8);
    cluster.set_detector(DetectorConfig::accrual());
    let victim = 3u32;
    let rcfg = RecoveryConfig::demo(victim);

    let healthy = cluster.run_healthy().expect("healthy run");
    // The no-rejoin baseline: same blackout instant, but the window
    // never closes — the victim is written off for good. (Run before
    // the rejoin so the final cluster state below is the rejoin's.)
    let pinned = cluster
        .run_with_lost_shard(victim, BLACKOUT_AT)
        .expect("no-rejoin baseline");
    let rejoin = cluster.run_rejoin(&rcfg).expect("rejoin run");
    println!("healthy goodput {:.2} GiB/s", healthy.goodput_gib_s());
    println!("rejoin:\n{rejoin}");
    println!("pinned:\n{pinned}");

    // The arc ran end to end: detection, damage, scrub, catch-up,
    // probe-earned weight, hand-back.
    assert!(rejoin.detect_at > BLACKOUT_AT);
    assert!(
        rejoin.detect_at < BLACKOUT_AT + cluster.config().detector.oracle_delay,
        "accrual detection {:.4}s beats the oracle delay it replaced",
        rejoin.detect_at
    );
    assert!(rejoin.poisoned_lines > 0, "the blackout left media damage");
    assert!(
        rejoin.scrub_bad_blocks > 0,
        "the rejoin scrub found the damage"
    );
    assert!(rejoin.caught_up, "verified catch-up succeeded");
    let full_weight_at = rejoin.full_weight_at.expect("full weight re-earned");
    assert!(
        full_weight_at > rejoin.ready_at && rejoin.ready_at > BLACKOUT_UNTIL,
        "suspect → demoted → full weight is a staged hand-back"
    );
    assert!(
        rejoin.time_to_full_weight().expect("rejoined") < 0.02,
        "weight back within a few probe dwells of the rejoin"
    );

    // Anti-entropy shipped *only* the divergent blocks — never the
    // whole shard (the full-copy alternative is the denominator). The
    // demo shard is a miniature (a few dozen 4 KiB blocks), so the
    // honest "≪" at this scale is structural: shipped blocks == the
    // scrub's damaged blocks, a small fraction of the blocks examined,
    // and a fraction of the shard's bytes.
    assert!(rejoin.catch_up.blocks_shipped > 0);
    assert_eq!(
        rejoin.catch_up.blocks_shipped, rejoin.scrub_bad_blocks,
        "exactly the divergent blocks ship — no more"
    );
    assert!(
        rejoin.catch_up.blocks_shipped * 4 <= rejoin.catch_up.blocks_examined,
        "shipped {} of {} examined blocks — not an incremental catch-up",
        rejoin.catch_up.blocks_shipped,
        rejoin.catch_up.blocks_examined
    );
    assert!(
        rejoin.catch_up.bytes_shipped < rejoin.full_shard_bytes / 3,
        "shipped {} B must be ≪ the {} B shard",
        rejoin.catch_up.bytes_shipped,
        rejoin.full_shard_bytes
    );
    assert!(
        rejoin.catch_up.hash_bytes_exchanged < rejoin.full_shard_bytes / 50,
        "the hash exchange is cheap"
    );
    assert_eq!(rejoin.catch_up.unrepairable, 0);
    assert!(rejoin.catch_up.clean, "end state verified clean");

    // Roles: the victim came back as `Rejoining`, its ring peer absorbed
    // the blackout span as `Failover`.
    let victim_fanout = rejoin.per_shard[victim as usize]
        .fanout
        .as_ref()
        .expect("victim fan-out");
    assert_eq!(victim_fanout.role, ShardRole::Rejoining);
    assert!(
        (victim_fanout.router_weight - 1.0).abs() < 1e-12,
        "full weight by end of run"
    );
    let peer = cluster.map().replica_of(victim).expect("ring peer");
    assert_eq!(
        rejoin.per_shard[peer as usize]
            .fanout
            .as_ref()
            .expect("peer fan-out")
            .role,
        ShardRole::Failover
    );
    assert!(rejoin.rerouted_jobs > 0, "the blackout span failed over");
    assert!(
        rejoin.handed_back_jobs > 0,
        "post-recovery arrivals came back to the victim"
    );

    // The replica-served range was handed back and the extra replica
    // GC'd: redundancy is back to exactly two copies.
    assert!(
        rejoin.rereplicated_bytes > 0,
        "re-replication ran at detect"
    );
    assert_eq!(
        rejoin.replica_gc_bytes, rejoin.rereplicated_bytes,
        "the extra copy was garbage-collected after the verified hand-back"
    );
    let third = cluster
        .machines()
        .iter()
        .enumerate()
        .filter(|(s, m)| *s != peer as usize && m.replica_of(victim).is_some())
        .count();
    assert_eq!(third, 0, "only the steady ring replica remains");

    // Goodput over the post-recovery tail returns to ≥ 95% of healthy —
    // while the written-off baseline stays pinned at the degraded level.
    let tail = (full_weight_at, cluster.config().horizon);
    let healthy_tail = healthy.goodput_in_window(tail.0, tail.1);
    let rejoin_tail = rejoin.goodput_in_window(tail.0, tail.1);
    let pinned_tail = pinned.goodput_in_window(tail.0, tail.1);
    println!(
        "tail ({:.3}, {:.3}]s goodput: healthy {:.3e}, rejoin {:.3e} ({:.1}%), pinned {:.3e} ({:.1}%)",
        tail.0,
        tail.1,
        healthy_tail,
        rejoin_tail,
        100.0 * rejoin_tail / healthy_tail,
        pinned_tail,
        100.0 * pinned_tail / healthy_tail,
    );
    assert!(
        rejoin_tail >= 0.95 * healthy_tail,
        "rejoined fleet tail goodput {rejoin_tail:.3e} < 95% of healthy {healthy_tail:.3e}"
    );
    assert!(
        pinned_tail < 0.95 * healthy_tail,
        "the no-rejoin baseline must demonstrably stay degraded"
    );
    assert!(
        rejoin_tail > pinned_tail,
        "rejoining must beat writing the machine off"
    );

    // Zero committed-data loss: the rejoined primary serves its own
    // range again and the aggregate matches the committed ground truth.
    assert!(
        rejoin.data_intact(),
        "aggregate {} != committed {}",
        rejoin.query.aggregate,
        rejoin.reference
    );
    assert_eq!(
        rejoin.query.replica_served_rows, 0,
        "no range is replica-served after the hand-back"
    );
}

#[test]
fn unverifiable_catch_up_is_never_handed_back() {
    // Poison the victim's shard AND the same region of its hosted
    // replica before the rejoin: the catch-up sees the divergence but
    // cannot source verified bytes for it, so it must refuse the
    // hand-back and leave the range failed over.
    let mut cluster = fleet(4);
    let victim = 1u32;
    let peer = cluster.map().replica_of(victim).expect("ring peer");
    {
        use pmem_ssb::columnar::Column;
        let machines = cluster.machines_mut();
        machines[victim as usize]
            .fact
            .inject_poison(Column::Revenue, 0, 64);
        let replica = machines[peer as usize]
            .replicas
            .iter_mut()
            .find(|(s, _)| *s == victim)
            .map(|(_, f)| f)
            .expect("hosted replica");
        replica.inject_poison(Column::Revenue, 0, 64);
    }
    let rejoin = cluster
        .run_rejoin(&RecoveryConfig::demo(victim))
        .expect("rejoin run");
    println!("{rejoin}");
    assert!(
        !rejoin.caught_up,
        "a catch-up that cannot verify must refuse"
    );
    assert!(rejoin.catch_up.unrepairable > 0);
    assert_eq!(rejoin.full_weight_at, None, "no weight hand-back");
    assert_eq!(rejoin.handed_back_jobs, 0);
    assert_eq!(rejoin.replica_gc_bytes, 0, "the extra replica stays");
    // The fleet still loses nothing: the (clean part of the) replica
    // keeps serving... but this replica is damaged too, so the honest
    // verdict is a visible loss, never a silently-served garbage range.
    assert!(
        !rejoin.data_intact(),
        "a damaged primary AND damaged replica must surface, not serve garbage"
    );
}

#[test]
fn oracle_mode_hands_back_after_its_fixed_delay() {
    let mut cluster = fleet(8);
    let rejoin = cluster
        .run_rejoin(&RecoveryConfig::demo(5))
        .expect("rejoin run");
    assert!(rejoin.caught_up);
    let fw = rejoin.full_weight_at.expect("oracle hands back too");
    let expected = rejoin.ready_at + cluster.config().detector.oracle_delay;
    assert!(
        (fw - expected).abs() < 1e-12,
        "oracle full weight {fw} != ready + delay {expected}"
    );
    assert!(rejoin.data_intact());
}

#[test]
fn rejoin_runs_are_seed_deterministic() {
    let run = || {
        let mut cluster = fleet(8);
        cluster.set_detector(DetectorConfig::accrual());
        cluster
            .run_rejoin(&RecoveryConfig::demo(3))
            .expect("rejoin run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.detect_at.to_bits(), b.detect_at.to_bits());
    assert_eq!(a.poisoned_lines, b.poisoned_lines);
    assert_eq!(a.scrub_bad_blocks, b.scrub_bad_blocks);
    assert_eq!(a.catch_up, b.catch_up, "anti-entropy replays bit for bit");
    assert_eq!(a.ready_at.to_bits(), b.ready_at.to_bits());
    assert_eq!(
        a.full_weight_at.map(f64::to_bits),
        b.full_weight_at.map(f64::to_bits)
    );
    assert_eq!(a.rerouted_jobs, b.rerouted_jobs);
    assert_eq!(a.handed_back_jobs, b.handed_back_jobs);
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.query.partials, b.query.partials);
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(
        a.goodput_bytes_per_sec.to_bits(),
        b.goodput_bytes_per_sec.to_bits()
    );
    assert_eq!(a.e2e.p99.to_bits(), b.e2e.p99.to_bits());
}

#[test]
fn chaos_restore_drops_a_written_off_shards_extra_copy() {
    // Under the accrual detector a machine serving at 0.5% of its rate
    // is declared dead, failed over, written off and re-replicated. The
    // chaos restore must drop that extra copy and return its bytes: the
    // cluster leaves the run with exactly its ring replicas.
    let cfg = ClusterConfig::demo(3, SEED).with_detector(DetectorConfig::accrual());
    let mut cluster = Cluster::build(cfg).expect("cluster builds");
    let used =
        |c: &Cluster| -> Vec<u64> { c.machines().iter().map(|m| m.replica_ns().used()).collect() };
    let built = used(&cluster);
    let crawl = ChaosFault::FailSlow {
        at: 0.02,
        until: cfg.horizon,
        factor: 0.005,
    };
    let schedule = ChaosSchedule::from_events(
        1,
        cfg.horizon,
        vec![ChaosEvent {
            machine: 1,
            fault: crawl,
        }],
    );
    let report = cluster.run_chaos(&schedule, true).expect("chaos run");
    assert_eq!(report.lost_shard, Some(1), "the crawling machine is dead");
    assert!(report.rereplicated_bytes > 0, "its range was re-replicated");
    assert_eq!(
        report.replica_gc_bytes, 0,
        "a written-off shard is not GC'd"
    );
    assert!(report.data_intact(), "its replica answered for it");

    assert_eq!(used(&cluster), built, "the extra copy returned its bytes");
    for (s, machine) in cluster.machines().iter().enumerate() {
        let sources: Vec<u32> = machine.replicas.iter().map(|(src, _)| *src).collect();
        assert_eq!(
            sources,
            vec![(s as u32 + 2) % 3],
            "machine {s} hosts {sources:?}"
        );
    }
}
