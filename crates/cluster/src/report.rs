//! Cluster-wide accounting: fleet goodput, merged percentiles, failover
//! and re-replication outcomes, and the committed-data ledger.

use pmem_serve::{Percentiles, ServeReport};
use pmem_sim::fleet::FailSlowWindow;
use pmem_ssb::columnar::AntiEntropyReport;

use crate::detector::DetectorMode;

/// One shard's router-side summary (the full [`ServeReport`] rides in
/// [`ClusterReport::per_shard`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: u32,
    /// Arrivals of the key range this shard owns, before any re-routing.
    pub routed: u64,
    /// Jobs moved here from a dead or demoted peer.
    pub rerouted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Completed bytes (the shard's goodput contribution).
    pub bytes_completed: u64,
    /// Cluster-level breaker trips observed for this shard.
    pub breaker_trips: u32,
}

/// One scatter-gather query: per-shard partials and their sum, plus the
/// rows that had no surviving source (replication off + lost shard).
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterGather {
    /// Per-shard Q1.1 partials, indexed by shard.
    pub partials: Vec<i64>,
    /// Sum of the partials — the answer the router returns.
    pub aggregate: i64,
    /// Rows unreachable on any survivor (0 when replication holds).
    pub lost_rows: u64,
    /// Rows served from a peer replica instead of their dead primary.
    pub replica_served_rows: u64,
    /// Interconnect seconds the fan-out paid (request + partial returns).
    pub transfer_seconds: f64,
}

/// The outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Shards in the fleet.
    pub shards: u32,
    /// Whether peer replication was enabled.
    pub replicated: bool,
    /// Per-shard serve reports, fan-out outcomes filled in.
    pub per_shard: Vec<ServeReport>,
    /// Router-side per-shard summaries.
    pub outcomes: Vec<ShardOutcome>,
    /// Longest shard makespan (the fleet finishes when its slowest
    /// member does).
    pub makespan: f64,
    /// Bytes completed inside the offered window `[0, horizon]` divided
    /// by the horizon, bytes/s. Post-window drain is excluded for every
    /// run alike, so fleets with different end-of-run queue depths
    /// compare cleanly; the latency percentiles cover the tails.
    pub goodput_bytes_per_sec: f64,
    /// End-to-end latency percentiles over every completed job fleet-wide.
    pub e2e: Percentiles,
    /// Jobs routed across the fleet (reroutes not double-counted).
    pub jobs: u64,
    /// Jobs completed fleet-wide.
    pub completed: u64,
    /// Jobs shed fleet-wide.
    pub shed: u64,
    /// Jobs the router moved off their home shard to its replica host
    /// (failover off a dead shard, or rebalancing off a demoted one).
    pub rerouted_jobs: u64,
    /// Jobs a shard kept after its death verdict because its timeline
    /// came back (demoted-span keeps plus post-full-weight hand-backs).
    pub handed_back_jobs: u64,
    /// Cluster-level per-shard breaker trips, summed.
    pub shard_breaker_trips: u32,
    /// The shard the detector declared dead, if any.
    pub lost_shard: Option<u32>,
    /// Virtual time the router detected the loss and re-routed.
    pub failover_at: Option<f64>,
    /// The scrub-guarded scatter-gather verification query the router
    /// ran after the run (Q1.1 partial aggregation over every key range;
    /// a written-off shard's range is read from its replica).
    pub query: ScatterGather,
    /// Ground-truth committed aggregate (from the generated rows).
    pub reference: i64,
    /// Bytes copied to restore redundancy after the loss.
    pub rereplicated_bytes: u64,
    /// Virtual time redundancy was restored (failover + transfer).
    pub redundancy_restored_at: Option<f64>,
    /// Bytes of the re-replicated copy garbage-collected after the dead
    /// shard came back and took its range back.
    pub replica_gc_bytes: u64,
}

impl ClusterReport {
    /// Zero committed-data loss: every key range was served by some
    /// survivor and the scatter-gather aggregate equals the committed
    /// ground truth.
    pub fn data_intact(&self) -> bool {
        self.query.lost_rows == 0 && self.query.aggregate == self.reference
    }

    /// Completed-bytes goodput in GiB/s.
    pub fn goodput_gib_s(&self) -> f64 {
        self.goodput_bytes_per_sec / (1u64 << 30) as f64
    }

    /// Goodput over the sub-window `(from, until]` only — the recovery
    /// gates compare fleets over the *post-rejoin* tail, where a rejoined
    /// fleet is back to strength and a written-off one stays pinned.
    pub fn goodput_in_window(&self, from: f64, until: f64) -> f64 {
        let bytes: u64 = self
            .per_shard
            .iter()
            .flat_map(|r| r.jobs.iter())
            .filter(|j| j.outcome.is_completed() && j.finished_at > from && j.finished_at <= until)
            .map(|j| j.bytes)
            .sum();
        bytes as f64 / (until - from).max(1e-9)
    }
}

/// The outcome of one gray-failure run: an ingest plane routed by the
/// detector's graded weights, plus a stream of scatter-gather queries
/// with (optional) hedging — the plane where a fail-slow machine either
/// drags the whole fleet's tail or does not.
#[derive(Debug, Clone)]
pub struct GrayReport {
    /// Shards in the fleet.
    pub shards: u32,
    /// The injected fail-slow window, if the run scheduled one.
    pub fault: Option<FailSlowWindow>,
    /// Detector mode the run routed under.
    pub mode: DetectorMode,
    /// Whether scatter-gather hedging was armed.
    pub hedging: bool,
    /// Offered window the goodput is measured over.
    pub horizon: f64,
    /// When the detector first suspected the victim, if ever.
    pub suspected_at: Option<f64>,
    /// When the detector declared the victim dead, if ever (a fail-slow
    /// machine must never be).
    pub dead_at: Option<f64>,
    /// When the victim re-earned full router weight, if it did.
    pub cleared_at: Option<f64>,
    /// Lowest router weight the victim served at.
    pub victim_weight_min: f64,
    /// The victim's router weight at the end of the run.
    pub victim_weight_end: f64,
    /// Ingest jobs the router moved off demoted shards.
    pub rebalanced_jobs: u64,
    /// Ingest goodput over the window (completed bytes / horizon).
    pub ingest_goodput_bytes_per_sec: f64,
    /// Ingest end-to-end latency percentiles (completed jobs).
    pub ingest_e2e: Percentiles,
    /// Per-shard ingest serve reports, fan-out outcomes attached.
    pub per_shard: Vec<ServeReport>,
    /// Scatter-gather queries issued.
    pub queries: u64,
    /// Queries whose full fan-out completed within the query deadline.
    pub queries_met: u64,
    /// The per-query completion deadline the goodput gates on.
    pub query_deadline: f64,
    /// Query-plane goodput: virtual bytes scanned by deadline-met
    /// queries, over the horizon.
    pub query_goodput_bytes_per_sec: f64,
    /// Query completion-latency percentiles (all queries).
    pub query_latency: Percentiles,
    /// Slowest query of the run.
    pub query_latency_max: f64,
    /// Backup requests fired (tied + reactive).
    pub hedges_fired: u64,
    /// Hedges fired at issue because the detector had the primary
    /// demoted (the rest fired reactively at the hedge quantile).
    pub hedges_tied: u64,
    /// Hedges whose backup beat the primary.
    pub hedge_wins: u64,
    /// Loser requests cancelled (must equal `hedges_fired`: every race
    /// has exactly one loser, counted or cancelled — never both).
    pub hedges_cancelled: u64,
    /// Partials served from a ring replica instead of the primary.
    pub replica_partials: u64,
    /// Queries whose aggregate differed from the committed ground truth
    /// (0 = zero data loss, zero double count).
    pub mismatched_queries: u64,
    /// Partials counted beyond exactly-one-per-key-range, summed over
    /// all queries. Structural invariant: 0.
    pub double_counted: u64,
    /// Committed ground-truth aggregate every query must reproduce.
    pub reference: i64,
    /// Interconnect seconds the query fan-outs and hedges paid.
    pub query_transfer_seconds: f64,
}

impl GrayReport {
    /// Zero committed-data loss and zero double counting: every query's
    /// aggregate matched the committed ground truth exactly.
    pub fn data_intact(&self) -> bool {
        self.mismatched_queries == 0 && self.double_counted == 0
    }

    /// Query-plane goodput as a fraction of `healthy`'s.
    pub fn goodput_vs(&self, healthy: &GrayReport) -> f64 {
        self.query_goodput_bytes_per_sec / healthy.query_goodput_bytes_per_sec.max(1e-9)
    }

    /// Query p99 as a multiple of `healthy`'s.
    pub fn p99_vs(&self, healthy: &GrayReport) -> f64 {
        self.query_latency.p99 / healthy.query_latency.p99.max(1e-12)
    }
}

impl std::fmt::Display for GrayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "gray report: {} shards, {:?} detector, hedging {}{}",
            self.shards,
            self.mode,
            if self.hedging { "on" } else { "off" },
            match self.fault {
                Some(w) => format!(
                    ", machine {} at {:.0}% rate over [{:.3}, {:.3})s",
                    w.machine,
                    w.factor * 100.0,
                    w.at,
                    w.until
                ),
                None => ", healthy fleet".to_string(),
            },
        )?;
        writeln!(
            f,
            "  queries: {}/{} met {:.1} ms deadline, goodput {:.2} GiB/s, p50/p95/p99 {:.2}/{:.2}/{:.2} ms (max {:.2})",
            self.queries_met,
            self.queries,
            self.query_deadline * 1e3,
            self.query_goodput_bytes_per_sec / (1u64 << 30) as f64,
            self.query_latency.p50 * 1e3,
            self.query_latency.p95 * 1e3,
            self.query_latency.p99 * 1e3,
            self.query_latency_max * 1e3,
        )?;
        writeln!(
            f,
            "  hedges: {} fired ({} tied), {} won, {} cancelled, {} replica partials; {} mismatched, {} double-counted",
            self.hedges_fired,
            self.hedges_tied,
            self.hedge_wins,
            self.hedges_cancelled,
            self.replica_partials,
            self.mismatched_queries,
            self.double_counted,
        )?;
        writeln!(
            f,
            "  detector: suspected {}, dead {}, cleared {}; victim weight min {:.2} end {:.2}; {} ingest jobs rebalanced",
            match self.suspected_at {
                Some(t) => format!("{t:.3}s"),
                None => "never".to_string(),
            },
            match self.dead_at {
                Some(t) => format!("{t:.3}s"),
                None => "never".to_string(),
            },
            match self.cleared_at {
                Some(t) => format!("{t:.3}s"),
                None => "never".to_string(),
            },
            self.victim_weight_min,
            self.victim_weight_end,
            self.rebalanced_jobs,
        )?;
        writeln!(
            f,
            "  ingest: goodput {:.2} GiB/s, e2e p99 {:.3}s",
            self.ingest_goodput_bytes_per_sec / (1u64 << 30) as f64,
            self.ingest_e2e.p99,
        )
    }
}

/// The outcome of one rejoin experiment ([`crate::recovery`]): the
/// recovery-plane accounting of the blackout → scrub → anti-entropy →
/// hand-back arc, viewed over the fleet run it drove (every
/// [`ClusterReport`] field and method reads through `Deref`).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The fleet run: per-shard serve reports (the victim is
    /// `Rejoining`), rollup, re-replication + GC, and the guarded
    /// verification query.
    pub fleet: ClusterReport,
    /// The machine that blacked out and rejoined.
    pub victim: u32,
    /// Detector mode the run routed under.
    pub mode: DetectorMode,
    /// Whether the catch-up verified landed blocks (off = the planted
    /// regression).
    pub verified: bool,
    /// Blackout window open.
    pub blackout_at: f64,
    /// Blackout window close — the rejoin instant.
    pub blackout_until: f64,
    /// When the router detected the loss and failed over.
    pub detect_at: f64,
    /// XPLines of media damage the blackout left on the victim's shard.
    pub poisoned_lines: u64,
    /// Blocks the rejoin scrub found bad.
    pub scrub_bad_blocks: u64,
    /// Virtual seconds the local scrub took.
    pub scrub_seconds: f64,
    /// The anti-entropy catch-up's own accounting (hash bytes, shipped
    /// blocks/bytes, refetches, verification verdict).
    pub catch_up: AntiEntropyReport,
    /// Total bytes of the victim's shard (the denominator for the
    /// shipped-bytes ≪ full-shard assertion).
    pub full_shard_bytes: u64,
    /// Virtual seconds the hash exchange + block shipping took over the
    /// (jittered) interconnect.
    pub catch_up_seconds: f64,
    /// When the victim finished scrub + catch-up and offered itself back.
    pub ready_at: f64,
    /// Whether the catch-up verified fully — the hand-back precondition.
    pub caught_up: bool,
    /// When the victim re-earned full router weight (probe-cleared), if
    /// it did within the replayed window. `None` = never handed back.
    pub full_weight_at: Option<f64>,
}

impl std::ops::Deref for RecoveryReport {
    type Target = ClusterReport;

    fn deref(&self) -> &ClusterReport {
        &self.fleet
    }
}

impl RecoveryReport {
    /// Seconds from the rejoin instant to full router weight, if the
    /// shard got there.
    pub fn time_to_full_weight(&self) -> Option<f64> {
        self.full_weight_at.map(|t| t - self.blackout_until)
    }

    /// Shipped bytes as a fraction of the full shard — the anti-entropy
    /// protocol's reason to exist is keeping this ≪ 1.
    pub fn shipped_fraction(&self) -> f64 {
        self.catch_up.bytes_shipped as f64 / self.full_shard_bytes.max(1) as f64
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "recovery report: {} shards, victim {} dark [{:.3}, {:.3})s, {:?} detector, verification {}",
            self.shards,
            self.victim,
            self.blackout_at,
            self.blackout_until,
            self.mode,
            if self.verified { "on" } else { "OFF" },
        )?;
        writeln!(
            f,
            "  rejoin: detected {:.3}s; scrub {:.1} ms found {} bad blocks ({} poisoned lines); catch-up shipped {}/{} blocks ({:.1} KiB of {:.1} MiB shard, {:.2}% ) in {:.1} ms, {} refetched, {} unrepairable",
            self.detect_at,
            self.scrub_seconds * 1e3,
            self.scrub_bad_blocks,
            self.poisoned_lines,
            self.catch_up.blocks_shipped,
            self.catch_up.blocks_examined,
            self.catch_up.bytes_shipped as f64 / 1024.0,
            self.full_shard_bytes as f64 / (1 << 20) as f64,
            self.shipped_fraction() * 100.0,
            self.catch_up_seconds * 1e3,
            self.catch_up.refetched_blocks,
            self.catch_up.unrepairable,
        )?;
        writeln!(
            f,
            "  hand-back: {}; ready {:.3}s, full weight {}, {} jobs rerouted, {} handed back; re-replicated {:.1} MiB, GC'd {:.1} MiB",
            if self.caught_up {
                "verified caught up"
            } else {
                "REFUSED (stays failed over)"
            },
            self.ready_at,
            match self.full_weight_at {
                Some(t) => format!("{t:.3}s"),
                None => "never".to_string(),
            },
            self.rerouted_jobs,
            self.handed_back_jobs,
            self.rereplicated_bytes as f64 / (1 << 20) as f64,
            self.replica_gc_bytes as f64 / (1 << 20) as f64,
        )?;
        writeln!(
            f,
            "  fleet: {} jobs ({} done, {} shed), goodput {:.2} GiB/s, e2e p50/p99 {:.3}/{:.3}s, makespan {:.3}s, data {}",
            self.jobs,
            self.completed,
            self.shed,
            self.goodput_gib_s(),
            self.e2e.p50,
            self.e2e.p99,
            self.makespan,
            if self.data_intact() {
                "intact".to_string()
            } else {
                format!(
                    "LOST (aggregate {} != reference {}, {} rows unreachable)",
                    self.query.aggregate, self.reference, self.query.lost_rows
                )
            },
        )
    }
}

/// The outcome of one chaos schedule ([`crate::recovery`]'s
/// `run_chaos`): the standing-invariant accounting of a stacked
/// multi-fault schedule, viewed over the fleet run it drove (every
/// [`ClusterReport`] field and method reads through `Deref`).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The fleet run: jobs, completions, sheds, latency, and the guarded
    /// verification query.
    pub fleet: ClusterReport,
    /// Seed of the schedule that ran.
    pub seed: u64,
    /// Events in the schedule.
    pub events: usize,
    /// The blackout/rejoin window, if the schedule stacked one:
    /// `(machine, at, until)`.
    pub blackout: Option<(usize, f64, f64)>,
    /// Whether the blackout victim verified its catch-up and took its
    /// range back.
    pub rejoined: bool,
    /// The victim's anti-entropy accounting, if a catch-up ran.
    pub catch_up: Option<AntiEntropyReport>,
    /// Checksum-invalid blocks left on *serving* primaries at the end of
    /// the run. Invariant: 0 — an unverified block must never be handed
    /// back.
    pub handed_back_dirty_blocks: u64,
    /// Longest fault window in the schedule (bounds legitimate latency
    /// inflation).
    pub worst_window: f64,
    /// Per-job deadline the cluster ran under.
    pub deadline: f64,
    /// Submitted jobs minus terminal records. Invariant: 0 — the ledger
    /// drains, nothing is silently dropped.
    pub ledger_outstanding: i64,
    /// Partials the verification query counted. Invariant: exactly one
    /// per key range.
    pub partials_counted: u64,
}

impl std::ops::Deref for ChaosReport {
    type Target = ClusterReport;

    fn deref(&self) -> &ClusterReport {
        &self.fleet
    }
}

impl ChaosReport {
    /// Check the standing invariants against a healthy-fleet p99
    /// baseline; one human-readable line per violation, empty = clean.
    pub fn violations(&self, healthy_p99: f64) -> Vec<String> {
        let mut v = Vec::new();
        if self.query.lost_rows > 0 || self.query.aggregate != self.reference {
            v.push(format!(
                "committed-data loss: aggregate {} != reference {} ({} rows unreachable)",
                self.query.aggregate, self.reference, self.query.lost_rows
            ));
        }
        if self.handed_back_dirty_blocks > 0 {
            v.push(format!(
                "{} unverified blocks handed back to serving primaries",
                self.handed_back_dirty_blocks
            ));
        }
        if self.partials_counted != u64::from(self.shards) {
            v.push(format!(
                "partial count {} != one per key range ({})",
                self.partials_counted, self.shards
            ));
        }
        if self.ledger_outstanding != 0 {
            v.push(format!(
                "ledger failed to drain: {} submitted jobs missing a terminal record",
                self.ledger_outstanding
            ));
        }
        // Bounded p99 inflation: stacked fault windows legitimately park
        // jobs for their span plus queueing slack; anything past that is
        // an unexplained stall.
        let bound = self.worst_window + self.deadline + 5.0 * healthy_p99.max(1e-6);
        if self.e2e.p99 > bound {
            v.push(format!(
                "p99 {:.4}s above the fault-window bound {:.4}s",
                self.e2e.p99, bound
            ));
        }
        v
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos report: seed {}, {} events, {} shards{}",
            self.seed,
            self.events,
            self.shards,
            match self.blackout {
                Some((m, at, until)) => format!(
                    ", machine {m} dark [{at:.3}, {until:.3})s ({})",
                    if self.rejoined {
                        "rejoined"
                    } else {
                        "written off"
                    }
                ),
                None => String::new(),
            },
        )?;
        writeln!(
            f,
            "  {} jobs ({} done, {} shed, ledger {:+}), e2e p99 {:.4}s; {} dirty handed back, {} partials, aggregate {}",
            self.jobs,
            self.completed,
            self.shed,
            self.ledger_outstanding,
            self.e2e.p99,
            self.handed_back_dirty_blocks,
            self.partials_counted,
            if self.query.aggregate == self.reference {
                "matches".to_string()
            } else {
                format!("{} != {}", self.query.aggregate, self.reference)
            },
        )
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cluster report: {} shards{}, {} jobs ({} done, {} shed, {} rerouted), makespan {:.3}s",
            self.shards,
            if self.replicated {
                ""
            } else {
                " (replication off)"
            },
            self.jobs,
            self.completed,
            self.shed,
            self.rerouted_jobs,
            self.makespan,
        )?;
        writeln!(
            f,
            "  goodput {:.2} GiB/s, e2e p50/p95/p99 {:.3}/{:.3}/{:.3}s, {} shard breaker trips",
            self.goodput_gib_s(),
            self.e2e.p50,
            self.e2e.p95,
            self.e2e.p99,
            self.shard_breaker_trips,
        )?;
        if let Some(lost) = self.lost_shard {
            writeln!(
                f,
                "  lost shard {} at {:.3}s; data {}; re-replicated {:.1} MiB{}",
                lost,
                self.failover_at.unwrap_or_default(),
                if self.data_intact() {
                    "intact".to_string()
                } else {
                    format!("LOST ({} rows unreachable)", self.query.lost_rows)
                },
                self.rereplicated_bytes as f64 / (1 << 20) as f64,
                match self.redundancy_restored_at {
                    Some(t) => format!(", redundancy restored at {t:.3}s"),
                    None => String::new(),
                },
            )?;
        }
        for o in &self.outcomes {
            writeln!(
                f,
                "  shard {}: {} routed + {} rerouted, {} done, {:.1} MiB good, {} trips",
                o.shard,
                o.routed,
                o.rerouted,
                o.completed,
                o.bytes_completed as f64 / (1 << 20) as f64,
                o.breaker_trips,
            )?;
        }
        Ok(())
    }
}
