//! The recovery plane: a blacked-out machine rejoins the fleet.
//!
//! Every loss in the cluster layer used to be terminal — detection wrote
//! the victim off and its shard lived on a replica forever, permanently
//! halving headroom. Real PMEM blackouts (DIMM dropout + thermal
//! throttle + queue stall) are mostly *windows*: power is restored, the
//! DIMMs re-train, and the machine is back — with stale or damaged
//! media. This module runs that full arc, deterministically:
//!
//! 1. **Blackout.** The victim goes dark over a finite `[at, until)`
//!    window ([`pmem_sim::fleet::FleetFaultPlans::with_lost_machine`]);
//!    the cluster's shared detector step (oracle delay or accrual
//!    replay) declares it dead, and the shared fleet run
//!    ([`crate::cluster`]) fails its arrivals over to the replica host.
//! 2. **Rejoin + scrub.** At `until` the machine re-attaches and
//!    validates its local shard against its sealed
//!    [`pmem_store::scrub::BlockChecksums`]. The blackout leaves seeded
//!    media poison behind (uncorrectable errors are exactly what DIMM
//!    power events produce), so the scrub finds real damage.
//! 3. **Anti-entropy catch-up.** The rejoiner exchanges per-block
//!    content hashes with the replica host over the priced (and
//!    jittered) interconnect and ships *only* the divergent blocks via
//!    verified copies ([`pmem_ssb::columnar::ColumnarFact::catch_up_from_replica`]).
//!    Shipped bytes ≪ shard bytes is the point of the protocol.
//! 4. **Probe-earned weight.** The caught-up shard's health timeline
//!    continues past its death verdict: it re-enters the accrual
//!    detector `Suspect` and re-earns full router weight through clean
//!    probes ([`HealthTimeline::replay_from`]); the oracle just waits its
//!    fixed delay. The fleet run routes by that timeline — demoted
//!    weight first, full weight at the cleared verdict — and because the
//!    timeline left `Dead` it hands the range back and garbage-collects
//!    the extra replica re-replication made.
//!
//! A machine that cannot verify its catch-up (bad replica source,
//! verification refusals) is **never** handed back — its timeline stays
//! `Dead` and the fleet run writes it off, exactly like the
//! terminal-loss path.
//!
//! The second half of the module is the chaos runner
//! ([`Cluster::run_chaos`]): it applies a compositional
//! [`ChaosSchedule`] — media poison + power loss + fail-slow + link
//! jitter + blackout/rejoin, stacked — to the full serve/cluster stack
//! through the same detector step and fleet run, so the fuzzer searches
//! the code the scenario gates pin. It checks the standing invariants
//! (zero committed-data loss, one partial per key range, the retry
//! ledger drains, bounded p99), then restores the fleet: dirty shards
//! are repaired from their ring replicas and a written-off victim's
//! re-replicated copy is dropped. The `pmem-crashmc` fuzz client drives
//! it over hundreds of seeded schedules and delta-debugs any failure to
//! a minimal reproducer.

use pmem_olap::planner::AccessPlanner;
use pmem_sim::chaos::{ChaosFault, ChaosSchedule};
use pmem_sim::faults::{FaultEvent, FaultKind};
use pmem_sim::fleet::{machine_seed, FleetFaultPlans, LinkEvent, LinkPlan};
use pmem_sim::rng::{splitmix64, SplitMix64};
use pmem_ssb::columnar::{AntiEntropyReport, Column, ColumnarFact};
use pmem_store::scrub::SCRUB_BLOCK;
use pmem_store::Result;

use crate::cluster::{Cluster, DEADLINE, INTERCONNECT};
use crate::detector::{DetectorMode, HealthState, HealthTimeline, PROBE_INTERVAL};
use crate::gray::jittered_link;
use crate::machine::scrubs_clean;
use crate::report::{ChaosReport, RecoveryReport};

/// Sub-seed salt for the rejoin experiment's link-jitter stream,
/// distinct from the gray plane's so the two suites draw independent
/// weather.
const REJOIN_LINK_SALT: u64 = 0x7265_6a6f_696e; // "rejoin"

/// Sub-seed salt for the media damage a blackout leaves behind.
const POISON_SALT: u64 = 0x706f_6973_6f6e; // "poison"

/// Virtual time the rejoin experiment's blackout opens.
pub const BLACKOUT_AT: f64 = 0.05;

/// Virtual time the blacked-out machine comes back (the rejoin instant).
pub const BLACKOUT_UNTIL: f64 = 0.10;

/// Seeded media-poison sites the blackout leaves on the victim's shard
/// (each one damages ~1 scrub block).
pub const POISON_SITES: u32 = 3;

/// Shape of one rejoin experiment, layered on a built [`Cluster`]: the
/// victim blacks out over [`BLACKOUT_AT`]..[`BLACKOUT_UNTIL`] of the
/// horizon and comes back with [`POISON_SITES`] seeded media errors on
/// its shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// The machine that blacks out and rejoins.
    pub victim: u32,
    /// Whether the anti-entropy catch-up verifies landed blocks and
    /// scrubs before claiming success. Turning this off is the planted
    /// regression the chaos fuzzer exists to rediscover.
    pub verify_catch_up: bool,
}

impl RecoveryConfig {
    /// The acceptance-suite shape with a verified catch-up.
    pub fn demo(victim: u32) -> Self {
        RecoveryConfig {
            victim,
            verify_catch_up: true,
        }
    }

    /// The regression shape: catch-up ships blocks but never verifies.
    pub fn without_verification(mut self) -> Self {
        self.verify_catch_up = false;
        self
    }
}

/// Inject `sites` seeded uncorrectable media errors into `fact`, each at
/// a column/offset drawn from `seed`. Returns newly poisoned XPLines.
fn inject_seeded_poison(fact: &mut ColumnarFact, seed: u64, sites: u32) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let mut lines = 0;
    for _ in 0..sites {
        let column = Column::ALL[(rng.next_u64() as usize) % Column::ALL.len()];
        let bytes = fact.column_bytes(column).max(1);
        let offset = rng.next_u64() % bytes;
        lines += fact.inject_poison(column, offset, 32);
    }
    lines
}

/// Inject one chaos-scheduled media error: `column`/`block` are reduced
/// modulo the shard's actual geometry (the schedule generator does not
/// know shard sizes).
fn inject_poison_at(fact: &mut ColumnarFact, column: u32, block: u64) {
    let column = Column::ALL[(column as usize) % Column::ALL.len()];
    let bytes = fact.column_bytes(column).max(1);
    let blocks = bytes.div_ceil(SCRUB_BLOCK).max(1);
    let offset = ((block % blocks) * SCRUB_BLOCK).min(bytes - 1);
    fact.inject_poison(column, offset, 32);
}

impl Cluster {
    /// Run the full rejoin arc: blackout → failover → scrub →
    /// anti-entropy catch-up → probe-earned weight → range hand-back +
    /// replica GC. See the module docs. Every stream is seeded; the run
    /// replays bit for bit from `(ClusterConfig, RecoveryConfig)`.
    pub fn run_rejoin(&mut self, rcfg: &RecoveryConfig) -> Result<RecoveryReport> {
        let cfg = self.cfg;
        let det = cfg.detector;
        let planner = AccessPlanner::paper_default();
        let shards = cfg.shards as usize;
        let victim = rcfg.victim % cfg.shards;
        let v = victim as usize;
        let (at, until) = (BLACKOUT_AT, BLACKOUT_UNTIL);
        let link = jittered_link(splitmix64(cfg.seed ^ REJOIN_LINK_SALT), cfg.horizon);

        // The blackout is a *window*: the machine comes back at `until`.
        // Detection cannot know that, so it reaches the same death
        // verdict the terminal-loss path would.
        let fleet = FleetFaultPlans::healthy(shards).with_lost_machine(v, at, until);
        let mut timelines = self.detect(&fleet, &link, &planner)?;
        let detect_at = timelines[v].dead_at().unwrap_or(at + det.oracle_delay);

        // The blackout leaves seeded media damage on the victim's shard.
        let poisoned_lines = inject_seeded_poison(
            &mut self.machines[v].fact,
            splitmix64(machine_seed(cfg.seed, v) ^ POISON_SALT),
            POISON_SITES,
        );

        // Rejoin step 1: scrub the local shard against its sealed
        // checksums, priced at the machine's scan bandwidth over the
        // shard's virtual bytes.
        let scan_bw = Self::machine_scan_bw(&planner).max(1.0);
        let virtual_bytes = self.machines[v].virtual_scan_bytes();
        let scrub_bad_blocks: u64 = self.machines[v]
            .fact
            .scrub()
            .iter()
            .map(|(_, r)| r.bad_blocks().len() as u64)
            .sum();
        let scrub_seconds = virtual_bytes as f64 / scan_bw;

        // Rejoin step 2: incremental anti-entropy from the replica host.
        // Hash exchange + divergent blocks only, over the jittered link.
        let full_shard_bytes = self.machines[v].fact.total_bytes();
        let verify = rcfg.verify_catch_up;
        let catch_up = self.with_replica(victim, |m, replica| {
            m.fact.catch_up_from_replica(replica, verify)
        })?;
        // Wire pricing in the virtual plane: each real shard byte stands
        // in for `BYTES_PER_ROW / row_bytes` wire bytes, like every other
        // transfer in the demo-scale cluster.
        let vscale = virtual_bytes as f64 / full_shard_bytes.max(1) as f64;
        let wire_bytes =
            ((catch_up.hash_bytes_exchanged + catch_up.bytes_shipped) as f64 * vscale) as u64;
        let scrub_done = until + scrub_seconds;
        let catch_up_seconds = INTERCONNECT.transfer_seconds_at(wire_bytes, scrub_done, &link);
        let ready_at = scrub_done + catch_up_seconds;
        let caught_up = catch_up.is_fully_caught_up();

        // Rejoin step 3: earn the traffic back. The rejoined shard
        // re-enters the detector `Suspect` and must clear the probe
        // dwell; the oracle just waits its fixed delay. A shard that
        // could not verify its catch-up is never handed back: its
        // timeline stays `Dead` and the fleet run writes it off.
        let full_weight_at = if !caught_up {
            None
        } else if det.mode == DetectorMode::Oracle {
            let back_at = ready_at + det.oracle_delay;
            timelines[v].extend(&[(back_at, HealthState::Healthy)]);
            Some(back_at)
        } else {
            let plan = fleet.plan(v);
            let (baseline, probe) = self.probe_pricing(v, &plan, &link, &planner);
            let back = HealthTimeline::replay_from(
                ready_at,
                HealthState::Suspect,
                cfg.horizon.max(ready_at + 10.0 * PROBE_INTERVAL),
                baseline,
                probe,
                &[],
            );
            timelines[v].extend(back.transitions());
            back.cleared_at()
        };

        let run = self.simulate(&fleet, &link, &timelines, &planner)?;
        Ok(RecoveryReport {
            fleet: run,
            victim,
            mode: det.mode,
            verified: verify,
            blackout_at: at,
            blackout_until: until,
            detect_at,
            poisoned_lines,
            scrub_bad_blocks,
            scrub_seconds,
            catch_up,
            full_shard_bytes,
            catch_up_seconds,
            ready_at,
            caught_up,
            full_weight_at,
        })
    }

    /// Run one compositional chaos schedule over the full serve/cluster
    /// stack and account the standing invariants. `verify` gates the
    /// anti-entropy verification pass — `false` is the planted
    /// regression (`clean` asserted without evidence) the fuzzer must
    /// rediscover.
    ///
    /// The schedule's faults go through the same detector step and fleet
    /// run as every other scenario; this runner adds only the media plane
    /// (poison and catch-up, before the run) and the restore after it.
    /// The cluster is restored to a clean state with exactly its ring
    /// replicas before returning, so one built cluster serves an entire
    /// fuzz campaign.
    pub fn run_chaos(&mut self, schedule: &ChaosSchedule, verify: bool) -> Result<ChaosReport> {
        let cfg = self.cfg;
        let planner = AccessPlanner::paper_default();
        let shards = cfg.shards as usize;

        // Partition the schedule into the planes it touches.
        let blackout = schedule
            .blackout_rejoin()
            .map(|(m, b_at, b_until)| (m % shards, b_at, b_until));
        let mut fleet = FleetFaultPlans::healthy(shards);
        if let Some((m, b_at, b_until)) = blackout {
            fleet = fleet.with_lost_machine(m, b_at, b_until);
        }
        let mut link_events = Vec::new();
        let mut poisons: Vec<(usize, u32, u64)> = Vec::new();
        let mut worst_window = blackout
            .map(|(_, b_at, b_until)| b_until - b_at)
            .unwrap_or(0.0);
        for e in schedule.events() {
            let m = e.machine % shards.max(1);
            match e.fault {
                ChaosFault::MediaPoison { column, block, .. } => poisons.push((m, column, block)),
                ChaosFault::PowerLoss { socket, at } => {
                    fleet = fleet.with_machine_event(
                        m,
                        FaultEvent {
                            start: at,
                            end: at,
                            kind: FaultKind::PowerLoss { socket },
                        },
                    );
                }
                ChaosFault::FailSlow { at, until, factor } => {
                    worst_window = worst_window.max(until - at);
                    fleet = fleet.with_fail_slow(m, at, until, factor);
                }
                ChaosFault::LinkJitter {
                    at,
                    until,
                    latency_scale,
                    bandwidth_scale,
                } => {
                    link_events.push(LinkEvent {
                        start: at,
                        end: until,
                        latency_scale,
                        bandwidth_scale,
                    });
                }
                ChaosFault::BlackoutRejoin { .. } => {}
            }
        }
        let link = LinkPlan::from_events(link_events);

        // Media plane: poison lands, anti-entropy catches up. Poison on
        // the blackout victim lands *mid catch-up* — after the hash
        // exchange, before verification — the window the verify pass's
        // catch-all scrub exists for. Poison elsewhere is found by the
        // hash exchange itself.
        let victim = blackout.map(|(m, _, _)| m);
        let mut catch_up: Option<AntiEntropyReport> = None;
        let mut damaged: Vec<usize> = poisons.iter().map(|p| p.0).collect();
        damaged.sort_unstable();
        damaged.dedup();
        for &m in &damaged {
            let m32 = m as u32;
            let has_replica = cfg.replicate
                && self
                    .map
                    .replica_of(m32)
                    .is_some_and(|peer| self.machines[peer as usize].replica_of(m32).is_some());
            let diff = if victim == Some(m) && has_replica {
                Some(self.with_replica(m32, |machine, replica| machine.fact.diff_blocks(replica))?)
            } else {
                None
            };
            for &(_, column, block) in poisons.iter().filter(|p| p.0 == m) {
                inject_poison_at(&mut self.machines[m].fact, column, block);
            }
            if let Some(diff) = diff {
                catch_up = Some(self.with_replica(m32, |machine, replica| {
                    machine.fact.apply_diff(replica, &diff, verify)
                })?);
            } else if victim != Some(m) && has_replica {
                self.with_replica(m32, |machine, replica| {
                    machine.fact.catch_up_from_replica(replica, verify)
                })?;
            }
        }
        // A blackout victim with no media damage still runs the rejoin
        // catch-up (an empty diff, nothing shipped).
        if let Some(m) = victim {
            if catch_up.is_none() && cfg.replicate && self.map.replica_of(m as u32).is_some() {
                catch_up = Some(self.with_replica(m as u32, |machine, replica| {
                    machine.fact.catch_up_from_replica(replica, verify)
                })?);
            }
        }
        let rejoined = blackout.is_some()
            && catch_up
                .as_ref()
                .is_some_and(AntiEntropyReport::is_fully_caught_up);

        // Serve plane: the shared fleet run. A victim whose catch-up
        // verified takes its range back at the rejoin instant (or at
        // detection, if the window closed before the router noticed).
        let mut timelines = self.detect(&fleet, &link, &planner)?;
        if let (Some((m, _, b_until)), true) = (blackout, rejoined) {
            timelines[m].extend(&[(b_until, HealthState::Healthy)]);
        }
        let run = self.simulate(&fleet, &link, &timelines, &planner)?;
        // Ledger conservation: every submitted job must reach a terminal
        // record — completed or shed, never silently gone.
        let terminal: u64 = run.per_shard.iter().map(|r| r.jobs.len() as u64).sum();
        let ledger_outstanding = run.jobs as i64 - terminal as i64;

        // Invariant accounting happens *before* the restore: dirty
        // blocks on any serving primary (a rejoined victim included) are
        // a hand-back violation, and the guarded scatter-gather turned
        // them into an aggregate mismatch.
        let mut handed_back_dirty_blocks = 0u64;
        for (s, machine) in self.machines.iter().enumerate() {
            if victim != Some(s) || rejoined {
                handed_back_dirty_blocks += machine
                    .fact
                    .scrub()
                    .iter()
                    .map(|(_, r)| r.bad_blocks().len() as u64)
                    .sum::<u64>();
            }
        }
        let partials_counted = run.query.partials.len() as u64;

        // Restore the fleet for the next schedule: force a *verified*
        // repair on anything still dirty, and drop every replica that is
        // not a ring replica (a written-off victim's re-replicated copy),
        // so one built cluster can absorb an entire fuzz campaign.
        for m in 0..shards {
            if !scrubs_clean(&self.machines[m].fact) {
                self.with_replica(m as u32, |machine, replica| {
                    machine.fact.repair_from_replica(replica).map(|_| ())
                })?;
            }
            let strays: Vec<u32> = self.machines[m]
                .replicas
                .iter()
                .map(|(source, _)| *source)
                .filter(|source| self.map.replica_of(*source) != Some(m as u32))
                .collect();
            for source in strays {
                self.machines[m].drop_replica(source);
            }
        }

        Ok(ChaosReport {
            fleet: run,
            seed: schedule.seed,
            events: schedule.len(),
            blackout,
            rejoined,
            catch_up,
            handed_back_dirty_blocks,
            worst_window,
            deadline: DEADLINE,
            ledger_outstanding,
            partials_counted,
        })
    }
}
