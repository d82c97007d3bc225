//! Store-wide media integrity: sealed checksums, a durable mirror, and
//! self-healing repair for the row-format fact table.
//!
//! [`crate::columnar`] already scrubs and repairs the columnar layout from
//! a [`crate::checkpoint::CheckpointStore`]. This module does the same for
//! the engine's primary 128 B row shards ([`SsbStore`]): at seal time every
//! shard's fact region gets per-block FNV checksums plus a byte-identical
//! durable mirror on PMEM; a scrub pass verifies the live region against
//! the sealed sums, and a repair pass rewrites poisoned or mismatched
//! blocks from the mirror (full-XPLine `ntstore`s clear the poison, exactly
//! like a device remap after a fresh write).
//!
//! [`apply_media_plan`] bridges the simulator's fault timeline into real
//! poisoned bytes: each [`MediaHit`] drawn by the seeded
//! [`FaultPlan`] lands on the shard of its
//! socket, at a deterministic XPLine-aligned offset within the fact
//! region.

use std::sync::Arc;

use pmem_sim::faults::{FaultPlan, MediaHit};
use pmem_sim::topology::SocketId;
use pmem_store::scrub::{fnv64, BlockChecksums, ScrubReport, FNV_OFFSET, SCRUB_BLOCK};
use pmem_store::{AccessHint, Namespace, Region, Result, StoreError, XPLINE};

use crate::storage::SsbStore;

/// One shard's integrity state: sealed checksums over the live fact region
/// and a durable mirror to rebuild from.
#[derive(Debug)]
struct ShardIntegrity {
    socket: SocketId,
    /// Per-block FNV sums sealed over the fact region at seal time.
    checks: BlockChecksums,
    /// Byte-identical durable copy of the fact region.
    mirror: Region,
    /// Whole-mirror FNV manifest — the mirror proves itself before it is
    /// trusted as a rebuild source.
    mirror_sum: u64,
}

/// Sealed integrity metadata for every shard of an [`SsbStore`].
#[derive(Debug)]
pub struct StoreIntegrity {
    shards: Vec<ShardIntegrity>,
}

/// What one [`StoreIntegrity::repair`] pass did, summed over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityRepair {
    /// Blocks rebuilt from the mirror and re-verified against the seal.
    pub blocks_repaired: u64,
    /// Bytes of `ntstore` traffic the rebuild cost.
    pub bytes_rewritten: u64,
    /// Blocks that could not be restored to a checksum-valid state.
    pub unrepairable: u64,
}

impl IntegrityRepair {
    /// Whether every bad block was restored.
    pub fn is_fully_repaired(&self) -> bool {
        self.unrepairable == 0
    }

    pub(crate) fn absorb(&mut self, other: IntegrityRepair) {
        self.blocks_repaired += other.blocks_repaired;
        self.bytes_rewritten += other.bytes_rewritten;
        self.unrepairable += other.unrepairable;
    }
}

impl StoreIntegrity {
    /// Seal checksums over every shard's fact region and capture a durable
    /// mirror of each on the same socket's PMEM (fsdax, so the mirror is
    /// persistent even when the store itself runs on DRAM).
    ///
    /// Call right after load, while the store is known-good.
    pub fn seal(store: &SsbStore) -> Result<StoreIntegrity> {
        let mut shards = Vec::with_capacity(store.shards.len());
        for shard in &store.shards {
            let bytes = shard.fact.untracked_slice();
            let checks = BlockChecksums::seal_bytes(bytes, SCRUB_BLOCK);
            let mut mirror = Namespace::fsdax(shard.socket, shard.fact.len() + (1 << 20))
                .alloc_region(shard.fact.len())?;
            if !bytes.is_empty() {
                mirror.try_ntstore(0, bytes, AccessHint::Sequential)?;
                mirror.sfence();
            }
            shards.push(ShardIntegrity {
                socket: shard.socket,
                checks,
                mirror,
                mirror_sum: fnv64(FNV_OFFSET, bytes),
            });
        }
        Ok(StoreIntegrity { shards })
    }

    /// Scrub every shard's fact region against its sealed checksums.
    pub fn scrub(&self, store: &SsbStore) -> Vec<(SocketId, ScrubReport)> {
        self.shards
            .iter()
            .zip(store.shards.iter())
            .map(|(integ, shard)| (integ.socket, integ.checks.scrub(&shard.fact)))
            .collect()
    }

    /// Whether every shard currently verifies clean.
    pub fn is_clean(&self, store: &SsbStore) -> bool {
        self.scrub(store).iter().all(|(_, r)| r.is_clean())
    }

    /// Rebuild every poisoned or checksum-mismatched fact block from the
    /// durable mirror. The mirror is validated against its own manifest
    /// first; a poisoned or corrupt mirror fails with
    /// [`StoreError::Poisoned`] and the live region is left untouched.
    ///
    /// Requires exclusive ownership of the shard regions — no scan may be
    /// in flight (the scheduler quarantines the socket before calling).
    pub fn repair(&self, store: &mut SsbStore) -> Result<IntegrityRepair> {
        let mut total = IntegrityRepair::default();
        for (integ, shard) in self.shards.iter().zip(store.shards.iter_mut()) {
            let bad = integ.checks.scrub(&shard.fact).bad_blocks();
            if bad.is_empty() {
                continue;
            }
            integ.validate_mirror()?;
            let region = Arc::get_mut(&mut shard.fact).expect("no scan in flight during repair");
            total.absorb(repair_region(region, &integ.checks, &integ.mirror, &bad)?);
        }
        Ok(total)
    }
}

impl ShardIntegrity {
    fn validate_mirror(&self) -> Result<()> {
        let len = self.mirror.len();
        let mut sum = FNV_OFFSET;
        let mut off = 0;
        while off < len {
            let n = SCRUB_BLOCK.min(len - off);
            sum = fnv64(sum, self.mirror.try_read(off, n, AccessHint::Sequential)?);
            off += n;
        }
        if sum != self.mirror_sum {
            // The mirror no longer matches its manifest: silent corruption
            // in the rebuild source is as disqualifying as poison.
            return Err(StoreError::Poisoned { offset: 0, len });
        }
        Ok(())
    }
}

/// Rebuild `bad` blocks of `region` from `source` (a byte-identical copy),
/// verifying each rewritten block against the sealed `checks`. Shared by
/// the store repair path and the crash-model invariant client.
pub fn repair_region(
    region: &mut Region,
    checks: &BlockChecksums,
    source: &Region,
    bad: &[u64],
) -> Result<IntegrityRepair> {
    let mut repair = IntegrityRepair::default();
    for &block in bad {
        let (offset, len) = checks.block_range(block);
        let good = source.try_read(offset, len, AccessHint::Sequential)?;
        region.try_ntstore(offset, good, AccessHint::Sequential)?;
        repair.bytes_rewritten += len;
        if checks.verify_block(region, block)? {
            repair.blocks_repaired += 1;
        } else {
            repair.unrepairable += 1;
        }
    }
    region.sfence();
    Ok(repair)
}

/// One media hit as landed on a store: which shard took it and where.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedMedia {
    /// Simulated time of the hit.
    pub at: f64,
    /// Socket (== shard) the poison landed on.
    pub socket: SocketId,
    /// XPLine-aligned byte offset within the shard's fact region.
    pub offset: u64,
    /// Bytes poisoned.
    pub len: u64,
}

/// Land every media error the plan draws in `(after, until]` onto the
/// store's fact shards as real poisoned XPLines.
///
/// The hit's raw offset is folded into the shard's fact region
/// (`offset % len`, aligned down to an XPLine) so any seeded draw maps to
/// a valid deterministic location. Hits on sockets the store has no shard
/// for (Unaware mode runs a single socket) are skipped. Requires exclusive
/// ownership of the shard regions.
pub fn apply_media_plan(
    store: &mut SsbStore,
    plan: &FaultPlan,
    after: f64,
    until: f64,
) -> Vec<AppliedMedia> {
    let hits = plan.media_errors_in(after, until);
    let mut applied = Vec::with_capacity(hits.len());
    for hit in hits {
        if let Some(landed) = apply_media_hit(store, &hit) {
            applied.push(landed);
        }
    }
    applied
}

/// Land a single media hit; returns `None` when the store has no shard on
/// the hit's socket or the shard is empty.
pub fn apply_media_hit(store: &mut SsbStore, hit: &MediaHit) -> Option<AppliedMedia> {
    let shard = store.shards.iter_mut().find(|s| s.socket == hit.socket)?;
    let cap = shard.fact.len();
    if cap == 0 {
        return None;
    }
    let offset = (hit.offset % cap) / XPLINE * XPLINE;
    let len = hit.len().min(cap - offset);
    let region = Arc::get_mut(&mut shard.fact).expect("no scan in flight during media injection");
    if region.inject_poison(offset, len) == 0 {
        return None;
    }
    Some(AppliedMedia {
        at: hit.at,
        socket: hit.socket,
        offset,
        len,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::storage::{EngineMode, StorageDevice};
    use pmem_sim::faults::FaultScheduleConfig;

    fn store() -> SsbStore {
        SsbStore::generate_and_load(0.002, 11, EngineMode::Aware, StorageDevice::PmemDevdax)
            .unwrap()
    }

    #[test]
    fn seal_then_scrub_is_clean() {
        let store = store();
        let integ = StoreIntegrity::seal(&store).unwrap();
        assert!(integ.is_clean(&store));
        for ((_, report), shard) in integ.scrub(&store).iter().zip(store.shards.iter()) {
            assert!(report.blocks > 0);
            assert_eq!(report.bytes_scanned, shard.fact.len());
        }
    }

    #[test]
    fn poison_is_found_and_repaired_from_the_mirror() {
        let mut store = store();
        let integ = StoreIntegrity::seal(&store).unwrap();
        let before: Vec<u8> = store.shards[0].fact.untracked_slice().to_vec();

        Arc::get_mut(&mut store.shards[0].fact)
            .unwrap()
            .inject_poison(8192, 700);
        assert!(!integ.is_clean(&store));

        let repair = integ.repair(&mut store).unwrap();
        assert!(repair.is_fully_repaired());
        assert!(repair.blocks_repaired >= 1);
        assert!(integ.is_clean(&store));
        assert_eq!(store.shards[0].fact.untracked_slice(), &before[..]);

        // Idempotent: nothing left to do.
        assert_eq!(
            integ.repair(&mut store).unwrap(),
            IntegrityRepair::default()
        );
    }

    #[test]
    fn poisoned_mirror_refuses_to_repair() {
        let mut store = store();
        let mut integ = StoreIntegrity::seal(&store).unwrap();
        Arc::get_mut(&mut store.shards[0].fact)
            .unwrap()
            .inject_poison(0, 16);
        integ.shards[0].mirror.inject_poison(0, 16);
        assert!(matches!(
            integ.repair(&mut store),
            Err(StoreError::Poisoned { .. })
        ));
        // Live region untouched — still poisoned, awaiting a good source.
        assert!(!integ.is_clean(&store));
    }

    #[test]
    fn media_plan_lands_deterministic_aligned_hits() {
        let config = FaultScheduleConfig::with_media_errors(10.0, 4);
        let plan = FaultPlan::generate(2024, &config);
        let hits = plan.media_errors_in(0.0, 10.0);
        assert_eq!(hits.len(), 4);

        let mut a = store();
        let mut b = store();
        let landed_a = apply_media_plan(&mut a, &plan, 0.0, 10.0);
        let landed_b = apply_media_plan(&mut b, &plan, 0.0, 10.0);
        assert_eq!(landed_a, landed_b, "same seed, same poison placement");
        assert!(!landed_a.is_empty());
        for m in &landed_a {
            assert_eq!(m.offset % XPLINE, 0, "XPLine aligned");
            let shard = a.shards.iter().find(|s| s.socket == m.socket).unwrap();
            assert!(shard.fact.is_poisoned(m.offset, m.len));
        }
    }

    #[test]
    fn unaware_store_skips_hits_on_absent_sockets() {
        let config = FaultScheduleConfig::with_media_errors(10.0, 6);
        let plan = FaultPlan::generate(7, &config);
        let mut store =
            SsbStore::generate_and_load(0.002, 11, EngineMode::Unaware, StorageDevice::PmemFsdax)
                .unwrap();
        let landed = apply_media_plan(&mut store, &plan, 0.0, 10.0);
        for m in &landed {
            assert_eq!(m.socket, SocketId(0), "only socket 0 exists");
        }
        let skipped = plan
            .media_errors_in(0.0, 10.0)
            .iter()
            .filter(|h| h.socket != SocketId(0))
            .count();
        assert_eq!(landed.len() + skipped, 6);
    }
}
