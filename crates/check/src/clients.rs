//! Checking drivers for the storage stack's recovery paths.
//!
//! Each driver runs a traced workload against one client, then asks the
//! [`CrashChecker`] to enumerate the reachable crash states and verifies the
//! client's recovery invariants on every one:
//!
//! * **no lost committed data** — operations marked before the crash epoch
//!   must be observable after recovery,
//! * **no resurrected uncommitted data** — recovery must surface only data
//!   the workload actually wrote (torn/unpublished writes are dropped, not
//!   repaired into existence),
//! * **recovery idempotence** — crashing again immediately after recovery
//!   and recovering again must reach the same state (recovery durably
//!   persists its own repairs).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pmem_dash::hash::{bucket_index, hash64};
use pmem_dash::segment::{Segment, SegmentInner, SegmentInsert, BUCKETS};
use pmem_ssb::checkpoint::CheckpointStore;
use pmem_ssb::columnar::ColTuple;
use pmem_store::{PersistenceTrace, WorkerLog};

use crate::checker::{materialize, CheckReport, CrashChecker};

/// Default trace capacity for the drivers: generous for the workloads here,
/// and overflow is loud (the checker refuses truncated traces).
pub const TRACE_CAPACITY: usize = 1 << 20;

fn log_payload(i: u64) -> Vec<u8> {
    // Lengths sweep 16..~216 bytes so payload epochs span one to four WPQ
    // lines — the subset space stays exhaustive but non-trivial.
    format!(
        "log-record-{i:04}-{}",
        "x".repeat(((i * 37) % 200) as usize)
    )
    .into_bytes()
}

/// Trace `appends` worker-log appends and model-check recovery from every
/// reachable crash state. Mark `i` commits append `i`.
pub fn check_worker_log(checker: &CrashChecker, appends: u64) -> CheckReport {
    let ns = pmem_store::Namespace::devdax(pmem_sim::topology::SocketId(0), 16 << 20);
    let mut log = WorkerLog::create(&ns, appends.max(1) * 2).expect("devdax namespace");
    let trace = PersistenceTrace::shared(TRACE_CAPACITY);
    log.region().attach_persist_trace(Arc::clone(&trace));
    for i in 0..appends {
        log.append(&log_payload(i)).expect("log sized for workload");
        trace.mark(i);
    }
    log.region().detach_persist_trace();
    let region_len = log.region().len();

    checker.check_trace(&trace, region_len, |state| {
        let region = materialize(state.image);
        let recovered = WorkerLog::open(region).map_err(|e| format!("open failed: {e}"))?;
        // Mark `i` is recorded after append `i`'s publishing fence, so a
        // durable mark proves the append it names was fully fenced first.
        let durable = state.durable_marks.len() as u64;
        // No lost committed data: every append marked before the crash
        // epoch must be back, intact, at its index.
        if recovered.len() < durable {
            return Err(format!(
                "lost committed appends: {} recovered < {durable} committed",
                recovered.len()
            ));
        }
        // No resurrected data: nothing beyond what the workload ever
        // attempted, and every surfaced record must be byte-exact.
        if recovered.len() > appends {
            return Err(format!(
                "resurrected appends: {} recovered > {appends} ever attempted",
                recovered.len()
            ));
        }
        for i in 0..recovered.len() {
            let got = recovered
                .read(i)
                .ok_or_else(|| format!("slot {i} unreadable"))?;
            if got != log_payload(i) {
                return Err(format!("slot {i} corrupted after recovery"));
            }
        }
        // Idempotence: crash straight after recovery; the durable prefix
        // and sealed frontier must be unchanged.
        let mut reopened =
            WorkerLog::open(materialize(state.image)).map_err(|e| format!("open failed: {e}"))?;
        let first = reopened.len();
        let again = reopened.crash_and_recover();
        if again != first {
            return Err(format!(
                "recovery not idempotent: {first} records, then {again} after re-crash"
            ));
        }
        Ok(())
    })
}

/// One operation of the Dash segment workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DashOp {
    /// Insert or update `key` with `value`.
    Insert(u64, u64),
    /// Remove `key`.
    Remove(u64),
}

fn apply_dash(ops: &[DashOp]) -> BTreeMap<u64, u64> {
    let mut map = BTreeMap::new();
    for op in ops {
        match *op {
            DashOp::Insert(k, v) => {
                map.insert(k, v);
            }
            DashOp::Remove(k) => {
                map.remove(&k);
            }
        }
    }
    map
}

/// A workload guaranteed to exercise the displacement window at
/// `dash::segment`'s publish-copy-then-clear-original move: a key homed in
/// bucket 6 is planted first, bucket pair 5/6 is filled with colliders, and
/// one more collider forces the planted key to be displaced into bucket 7.
/// Ordinary inserts, an in-place update, and removes ride along so all
/// three operation kinds are checked.
pub fn dash_workload() -> Vec<DashOp> {
    let planted = (0u64..)
        .find(|&k| bucket_index(hash64(k), BUCKETS) == 6)
        .expect("some key homes in bucket 6");
    let colliders: Vec<u64> = (0u64..)
        .filter(|&k| k != planted && bucket_index(hash64(k), BUCKETS) == 5)
        .take(2 * pmem_dash::bucket::SLOTS)
        .collect();
    let ordinary: Vec<u64> = (0u64..)
        .filter(|&k| k != planted && !(5..=7).contains(&bucket_index(hash64(k), BUCKETS)))
        .take(6)
        .collect();
    let mut ops = Vec::new();
    ops.push(DashOp::Insert(planted, planted.wrapping_mul(10)));
    for &k in &colliders {
        ops.push(DashOp::Insert(k, k.wrapping_mul(10)));
    }
    for &k in &ordinary {
        ops.push(DashOp::Insert(k, k.wrapping_mul(10)));
    }
    // In-place update and removes (one collider, one ordinary key).
    ops.push(DashOp::Insert(ordinary[0], 777));
    ops.push(DashOp::Remove(colliders[0]));
    ops.push(DashOp::Remove(ordinary[1]));
    ops
}

/// Run the Dash segment workload under tracing and model-check recovery
/// from every reachable crash state. With `repair` unset, recovery skips
/// the duplicate sweep — the checker then demonstrably flags the
/// displacement-window duplicate (a removed key that stays visible).
pub fn check_dash_segment(checker: &CrashChecker, repair: bool) -> CheckReport {
    let ns = pmem_store::Namespace::devdax(pmem_sim::topology::SocketId(0), 4 << 20);
    let seg = Segment::new(&ns, 0).expect("devdax namespace");
    let ops = dash_workload();
    let trace = PersistenceTrace::shared(TRACE_CAPACITY);
    let region_len;
    {
        let mut inner = seg.write();
        let tally = &mut ns.tally();
        inner.region.attach_persist_trace(Arc::clone(&trace));
        for (seq, op) in ops.iter().enumerate() {
            match *op {
                DashOp::Insert(k, v) => {
                    let r = inner.insert(hash64(k), k, v, tally);
                    assert_ne!(r, SegmentInsert::NeedsSplit, "workload fits one segment");
                }
                DashOp::Remove(k) => {
                    inner.remove(hash64(k), k, tally);
                }
            }
            trace.mark(seq as u64);
        }
        inner.region.detach_persist_trace();
        region_len = inner.region.len();
    }
    // Every key the workload ever wrote, with every value it ever bound —
    // the "explainable data" set for the resurrection check.
    let mut ever: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for op in &ops {
        if let DashOp::Insert(k, v) = *op {
            ever.entry(k).or_default().insert(v);
        }
    }

    checker.check_trace(&trace, region_len, |state| {
        let (mut inner, _) = SegmentInner::recover(materialize(state.image), 0, repair);
        let tracker = Arc::clone(inner.region.tracker());
        let tally = &mut tracker.tally();
        let durable = state.durable_marks.len();
        let committed = apply_dash(&ops[..durable]);
        let later = &ops[durable..];

        // No lost committed data: a key the committed prefix leaves live
        // must answer with its committed value — or with the effect of an
        // uncommitted later operation that may have partially persisted.
        for (&k, &v) in &committed {
            let mut allowed: BTreeSet<u64> = BTreeSet::new();
            allowed.insert(v);
            let mut none_ok = false;
            for op in later {
                match *op {
                    DashOp::Insert(k2, v2) if k2 == k => {
                        allowed.insert(v2);
                    }
                    DashOp::Remove(k2) if k2 == k => none_ok = true,
                    _ => {}
                }
            }
            match inner.get(hash64(k), k, tally) {
                Some(v2) if allowed.contains(&v2) => {}
                None if none_ok => {}
                other => {
                    return Err(format!(
                        "committed key {k}: recovered {other:?}, allowed {allowed:?}"
                    ))
                }
            }
        }
        // No resurrected deletions: a key whose last committed operation
        // removed it may only reappear through an uncommitted later insert.
        for op in &ops[..durable] {
            if let DashOp::Remove(k) = *op {
                if committed.contains_key(&k) {
                    continue; // re-inserted later in the committed prefix
                }
                let reinserted: BTreeSet<u64> = later
                    .iter()
                    .filter_map(|op| match *op {
                        DashOp::Insert(k2, v2) if k2 == k => Some(v2),
                        _ => None,
                    })
                    .collect();
                match inner.get(hash64(k), k, tally) {
                    None => {}
                    Some(v2) if reinserted.contains(&v2) => {}
                    Some(v2) => {
                        return Err(format!(
                            "committed removal of key {k} undone: recovered {v2}"
                        ))
                    }
                }
            }
        }
        // No resurrected unknown data: everything live must be a key/value
        // the workload actually wrote at some point.
        for (k, v) in inner.records(tally) {
            if !ever.get(&k).is_some_and(|vals| vals.contains(&v)) {
                return Err(format!("resurrected record ({k}, {v}) never written"));
            }
        }
        // Removal finality: removing any live key must make it invisible.
        // An interrupted displacement breaks exactly this — the stale
        // duplicate answers lookups for a key the caller just deleted.
        let live: Vec<u64> = inner.records(tally).iter().map(|(k, _)| *k).collect();
        for k in live {
            let h = hash64(k);
            if inner.remove(h, k, tally).is_some() && inner.get(h, k, tally).is_some() {
                return Err(format!(
                    "key {k} resurrected after removal (stale duplicate copy)"
                ));
            }
        }
        // Idempotence: recovery's repairs must be durable — crashing right
        // after recovery must change nothing.
        let (mut second, _) = SegmentInner::recover(materialize(state.image), 0, repair);
        let tracker = Arc::clone(second.region.tracker());
        let tally = &mut tracker.tally();
        let before = second.records(tally);
        second.region.crash();
        second.recount();
        if second.records(tally) != before {
            return Err("recovery repairs were not durably persisted".to_string());
        }
        Ok(())
    })
}

fn checkpoint_tuple(i: u64) -> ColTuple {
    ColTuple {
        orderdate: 19940101 + i as u32,
        partkey: i as u32 * 3 + 1,
        suppkey: i as u32 * 5 + 1,
        custkey: i as u32 * 7 + 1,
        quantity: (i % 50) as u8,
        discount: (i % 11) as u8,
        extendedprice: i as u32 * 11 + 1,
        revenue: i as u32 * 13 + 1,
        supplycost: i as u32 * 17 + 1,
    }
}

/// Rows appended per checkpoint batch (5 × 32 B spans three to four WPQ
/// lines per data epoch).
pub const CHECKPOINT_BATCH: u64 = 5;

/// Trace `batches` checkpoint appends against the SSB columnar checkpoint
/// and model-check recovery from every reachable crash state. Mark `b`
/// commits batch `b`.
pub fn check_ssb_checkpoint(checker: &CrashChecker, batches: u64) -> CheckReport {
    let ns = pmem_store::Namespace::devdax(pmem_sim::topology::SocketId(0), 16 << 20);
    let mut store =
        CheckpointStore::create(&ns, batches * CHECKPOINT_BATCH).expect("devdax namespace");
    let trace = PersistenceTrace::shared(TRACE_CAPACITY);
    store.region().attach_persist_trace(Arc::clone(&trace));
    let expected: Vec<ColTuple> = (0..batches * CHECKPOINT_BATCH)
        .map(checkpoint_tuple)
        .collect();
    for b in 0..batches {
        let start = (b * CHECKPOINT_BATCH) as usize;
        store
            .append(&expected[start..start + CHECKPOINT_BATCH as usize])
            .expect("store sized for workload");
        trace.mark(b);
    }
    store.region().detach_persist_trace();
    let region_len = store.region().len();

    checker.check_trace(&trace, region_len, |state| {
        let (recovered, report) = CheckpointStore::open(materialize(state.image))
            .map_err(|e| format!("open failed: {e}"))?;
        let durable = state.durable_marks.len() as u64;
        // Batch atomicity: recovery lands exactly on a batch boundary, at
        // or beyond every committed batch, never beyond what was attempted.
        if report.rows % CHECKPOINT_BATCH != 0 {
            return Err(format!(
                "recovered {} rows — not a batch boundary",
                report.rows
            ));
        }
        let recovered_batches = report.rows / CHECKPOINT_BATCH;
        if recovered_batches < durable {
            return Err(format!(
                "lost committed batches: {recovered_batches} recovered < {durable} committed"
            ));
        }
        if recovered_batches > batches {
            return Err(format!(
                "resurrected batches: {recovered_batches} recovered > {batches} attempted"
            ));
        }
        // Content must be byte-exact for the recovered prefix.
        let back = recovered.read_all();
        if back[..] != expected[..report.rows as usize] {
            return Err(format!(
                "recovered rows corrupted (first {} rows)",
                report.rows
            ));
        }
        // Idempotence: recovery already sealed and truncated; a second
        // crash+recovery finds nothing left to repair.
        let (mut again, _) = CheckpointStore::open(materialize(state.image))
            .map_err(|e| format!("open failed: {e}"))?;
        let second = again.crash_and_recover();
        if second.rows != report.rows
            || second.torn_bytes_zeroed != 0
            || second.invalid_manifests_sealed != 0
        {
            return Err(format!(
                "recovery not a fixpoint: first {report:?}, second {second:?}"
            ));
        }
        Ok(())
    })
}

/// Model-check the media-repair invariant across crash states: **repair
/// never alters checksum-valid committed data**.
///
/// For every reachable crash state of the checkpoint workload: recover the
/// checkpoint, copy its surviving bytes into a working region, seal
/// per-block checksums and a pristine mirror, land a deterministic media
/// error (derived from the state's durable mark count, so every state
/// poisons a different spot), then run the shared
/// [`pmem_ssb::integrity::repair_region`] path and verify that repair (a)
/// restores the region byte-for-byte, (b) scrubs clean afterwards, and (c)
/// is a no-op the second time — i.e. it only ever rewrites poisoned or
/// mismatched blocks and leaves checksum-valid data untouched.
pub fn check_media_repair(checker: &CrashChecker, batches: u64) -> CheckReport {
    use pmem_ssb::integrity::repair_region;
    use pmem_store::scrub::{BlockChecksums, SCRUB_BLOCK};
    use pmem_store::{AccessHint, XPLINE};

    let ns = pmem_store::Namespace::devdax(pmem_sim::topology::SocketId(0), 16 << 20);
    let mut store =
        CheckpointStore::create(&ns, batches * CHECKPOINT_BATCH).expect("devdax namespace");
    let trace = PersistenceTrace::shared(TRACE_CAPACITY);
    store.region().attach_persist_trace(Arc::clone(&trace));
    let expected: Vec<ColTuple> = (0..batches * CHECKPOINT_BATCH)
        .map(checkpoint_tuple)
        .collect();
    for b in 0..batches {
        let start = (b * CHECKPOINT_BATCH) as usize;
        store
            .append(&expected[start..start + CHECKPOINT_BATCH as usize])
            .expect("store sized for workload");
        trace.mark(b);
    }
    store.region().detach_persist_trace();
    let region_len = store.region().len();

    checker.check_trace(&trace, region_len, |state| {
        let (recovered, _) = CheckpointStore::open(materialize(state.image))
            .map_err(|e| format!("open failed: {e}"))?;
        let committed = recovered.region().untracked_slice().to_vec();
        if committed.is_empty() {
            return Ok(());
        }
        let len = committed.len() as u64;
        let scratch = pmem_store::Namespace::devdax(pmem_sim::topology::SocketId(0), 16 << 20);
        let mut work = scratch
            .alloc_region(len)
            .map_err(|e| format!("alloc: {e}"))?;
        let mut mirror = scratch
            .alloc_region(len)
            .map_err(|e| format!("alloc: {e}"))?;
        work.try_ntstore(0, &committed, AccessHint::Sequential)
            .map_err(|e| format!("copy: {e}"))?;
        mirror
            .try_ntstore(0, &committed, AccessHint::Sequential)
            .map_err(|e| format!("copy: {e}"))?;
        work.sfence();
        mirror.sfence();
        let checks = BlockChecksums::seal_bytes(&committed, SCRUB_BLOCK);

        // A different deterministic poison placement per crash state.
        let durable = state.durable_marks.len() as u64;
        let lines = len.div_ceil(XPLINE);
        let offset = (durable.wrapping_mul(37) + 13) % lines * XPLINE;
        let span = XPLINE * (1 + durable % 3);
        if work.inject_poison(offset, span) == 0 {
            return Err(format!("poison at {offset} did not land"));
        }

        let bad = checks.scrub(&work).bad_blocks();
        if bad.is_empty() {
            return Err("scrub missed the injected poison".to_string());
        }
        let repair = repair_region(&mut work, &checks, &mirror, &bad)
            .map_err(|e| format!("repair failed: {e}"))?;
        if !repair.is_fully_repaired() {
            return Err(format!("unrepairable blocks: {}", repair.unrepairable));
        }
        // Repair must restore the committed bytes exactly — in particular
        // it must not have altered any block that was checksum-valid.
        if work.untracked_slice() != &committed[..] {
            return Err("repair altered checksum-valid committed data".to_string());
        }
        if !checks.scrub(&work).is_clean() {
            return Err("region not clean after repair".to_string());
        }
        // Idempotence: a second pass finds nothing to rewrite.
        let again = checks.scrub(&work).bad_blocks();
        if !again.is_empty() {
            return Err(format!("second scrub still dirty: {again:?}"));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // unwrap in tests is fine

    use super::*;

    #[test]
    fn worker_log_recovery_passes_the_model_checker() {
        let report = check_worker_log(&CrashChecker::new(), 6);
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(report.states_explored >= 6 * 4, "{}", report.summary());
        assert!(report.sampled_epochs().is_empty());
    }

    #[test]
    fn dash_workload_exercises_a_displacement() {
        // The workload must actually reach the publish/clear window it is
        // designed to pin — verify the planted key ends up displaced.
        let ns = pmem_store::Namespace::devdax(pmem_sim::topology::SocketId(0), 4 << 20);
        let seg = Segment::new(&ns, 0).unwrap();
        let mut inner = seg.write();
        let tally = &mut ns.tally();
        let planted = (0u64..)
            .find(|&k| bucket_index(hash64(k), BUCKETS) == 6)
            .unwrap();
        for op in dash_workload() {
            match op {
                DashOp::Insert(k, v) => {
                    inner.insert(hash64(k), k, v, tally);
                }
                DashOp::Remove(k) => {
                    inner.remove(hash64(k), k, tally);
                }
            }
        }
        // Displaced out of its home bucket, still reachable, no duplicate.
        let snap =
            pmem_dash::bucket::load(&inner.region, 6 * pmem_dash::bucket::BUCKET_BYTES, tally);
        assert!(
            snap.live().all(|(_, k, _)| k != planted),
            "planted key must have been displaced out of bucket 6"
        );
        assert_eq!(
            inner.get(hash64(planted), planted, tally),
            Some(planted.wrapping_mul(10))
        );
        assert!(inner.raw_duplicates().is_empty());
    }

    #[test]
    fn dash_recovery_with_repair_passes_the_model_checker() {
        let report = check_dash_segment(&CrashChecker::new(), true);
        assert!(report.passed(), "{:#?}", report.violations);
    }

    #[test]
    fn checkpoint_recovery_passes_the_model_checker() {
        let report = check_ssb_checkpoint(&CrashChecker::new(), 4);
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(report.states_explored >= 4 * 4, "{}", report.summary());
    }

    #[test]
    fn media_repair_never_alters_committed_data_in_any_crash_state() {
        let report = check_media_repair(&CrashChecker::new(), 4);
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(report.states_explored >= 4 * 4, "{}", report.summary());
    }
}
