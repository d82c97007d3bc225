//! A durable, crash-consistent checkpoint for columnar `lineorder` data.
//!
//! [`ColumnarFact`](crate::columnar::ColumnarFact) is rebuilt from the generator on every start; this
//! module adds the missing durability story: tuples are checkpointed into a
//! single PMEM region with an A/B manifest, and [`CheckpointStore::open`]
//! recovers the durable prefix after a crash.
//!
//! Layout of the backing region:
//!
//! ```text
//! 0..64      manifest slot A ─┐ one 64 B cache line each, so manifest
//! 64..128    manifest slot B ─┘ publication is a single-line ntstore
//! 128..256   reserved
//! 256..      tuple data, 32 B per encoded ColTuple
//! ```
//!
//! A manifest names a sequence number, a row count, and an FNV-64 checksum
//! over exactly those rows' bytes, plus a self-checksum over its own
//! header. Appends follow the store stack's publication ordering: data is
//! ntstored and fenced *first*, then the manifest is ntstored to the
//! alternate slot and fenced. A crash between the two leaves the old
//! manifest in charge; the half-written batch beyond its row count is a
//! torn tail that recovery zeroes (durably), never surfaces.
//!
//! Recovery picks the highest-sequence manifest whose checksums hold,
//! durably seals any slot that fails validation, and truncates the torn
//! tail — all with fenced writes, so recovering twice (or crashing
//! immediately after recovery) reaches the same state.

use pmem_store::scrub::fnv64;
use pmem_store::{AccessHint, Namespace, Region, Result, StoreError};

use crate::columnar::ColTuple;

/// Bytes per encoded tuple (30 B of fields, padded to 32).
pub const TUPLE_BYTES: u64 = 32;
/// Byte offset of the tuple data area.
pub const DATA_OFF: u64 = 256;
/// Bytes per manifest slot (one cache line).
const MANIFEST_SLOT: u64 = 64;
/// Manifest magic ("SSBCKPT\1").
const MAGIC: u64 = 0x0153_5342_434B_5054;
/// Bytes of the manifest header covered by the self-checksum.
const MANIFEST_HDR: usize = 32;

/// FNV-64 offset basis (the running-checksum seed) — shared with the store
/// layer's scrubber so every integrity check in the stack speaks one hash.
const FNV_INIT: u64 = pmem_store::scrub::FNV_OFFSET;

/// Encode a tuple into its 32 B slot image.
pub fn encode_tuple(t: &ColTuple) -> [u8; TUPLE_BYTES as usize] {
    let mut buf = [0u8; TUPLE_BYTES as usize];
    buf[0..4].copy_from_slice(&t.orderdate.to_le_bytes());
    buf[4..8].copy_from_slice(&t.partkey.to_le_bytes());
    buf[8..12].copy_from_slice(&t.suppkey.to_le_bytes());
    buf[12..16].copy_from_slice(&t.custkey.to_le_bytes());
    buf[16] = t.quantity;
    buf[17] = t.discount;
    buf[18..22].copy_from_slice(&t.extendedprice.to_le_bytes());
    buf[22..26].copy_from_slice(&t.revenue.to_le_bytes());
    buf[26..30].copy_from_slice(&t.supplycost.to_le_bytes());
    buf
}

/// Decode a 32 B slot image back into a tuple.
pub fn decode_tuple(bytes: &[u8]) -> ColTuple {
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    ColTuple {
        orderdate: u32_at(0),
        partkey: u32_at(4),
        suppkey: u32_at(8),
        custkey: u32_at(12),
        quantity: bytes[16],
        discount: bytes[17],
        extendedprice: u32_at(18),
        revenue: u32_at(22),
        supplycost: u32_at(26),
    }
}

#[derive(Debug, Clone, Copy)]
struct Manifest {
    seq: u64,
    rows: u64,
    data_checksum: u64,
}

/// What [`CheckpointStore::open`] (or a crash-recovery pass) found and
/// repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRecovery {
    /// Durable rows recovered.
    pub rows: u64,
    /// Sequence number of the winning manifest (0 = none).
    pub seq: u64,
    /// Torn-tail bytes durably zeroed beyond the recovered rows.
    pub torn_bytes_zeroed: u64,
    /// Manifest slots that failed validation and were durably sealed.
    pub invalid_manifests_sealed: u32,
}

/// A crash-consistent columnar checkpoint over one PMEM region.
#[derive(Debug)]
pub struct CheckpointStore {
    region: Region,
    rows: u64,
    seq: u64,
    checksum: u64,
}

impl CheckpointStore {
    /// Create an empty checkpoint with room for `capacity_rows` tuples.
    pub fn create(ns: &Namespace, capacity_rows: u64) -> Result<Self> {
        if !ns.is_persistent() {
            return Err(StoreError::NotPersistent);
        }
        let region = ns.alloc_region(DATA_OFF + capacity_rows.max(1) * TUPLE_BYTES)?;
        Ok(CheckpointStore {
            region,
            rows: 0,
            seq: 0,
            checksum: FNV_INIT,
        })
    }

    /// Open an existing checkpoint region (e.g. remapped after a crash) and
    /// recover the durable prefix.
    pub fn open(region: Region) -> Result<(Self, CheckpointRecovery)> {
        if !region.is_persistent() {
            return Err(StoreError::NotPersistent);
        }
        let mut store = CheckpointStore {
            region,
            rows: 0,
            seq: 0,
            checksum: FNV_INIT,
        };
        let report = store.recover();
        Ok((store, report))
    }

    /// The backing region (for attaching persistence traces).
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Give up the backing region (e.g. to re-[`CheckpointStore::open`] it,
    /// modelling a restart, or to inject faults in crash tests).
    pub fn into_region(self) -> Region {
        self.region
    }

    /// Durable rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Row capacity of the region.
    pub fn capacity_rows(&self) -> u64 {
        (self.region.len() - DATA_OFF) / TUPLE_BYTES
    }

    /// Append a batch of tuples and publish them atomically: data first
    /// (ntstore + sfence), then the manifest naming the new row count
    /// (ntstore to the alternate slot + sfence).
    pub fn append(&mut self, tuples: &[ColTuple]) -> Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        if self.rows + tuples.len() as u64 > self.capacity_rows() {
            return Err(StoreError::OutOfSpace {
                requested: tuples.len() as u64 * TUPLE_BYTES,
                available: (self.capacity_rows() - self.rows) * TUPLE_BYTES,
            });
        }
        let mut buf = Vec::with_capacity(tuples.len() * TUPLE_BYTES as usize);
        for t in tuples {
            buf.extend_from_slice(&encode_tuple(t));
        }
        self.region.try_ntstore(
            DATA_OFF + self.rows * TUPLE_BYTES,
            &buf,
            AccessHint::Sequential,
        )?;
        self.region.sfence();

        self.rows += tuples.len() as u64;
        self.checksum = fnv64(self.checksum, &buf);
        self.seq += 1;
        let manifest = self.encode_manifest();
        self.region.try_ntstore(
            (self.seq % 2) * MANIFEST_SLOT,
            &manifest,
            AccessHint::Random,
        )?;
        self.region.sfence();
        Ok(())
    }

    /// Read every durable tuple back.
    pub fn read_all(&self) -> Vec<ColTuple> {
        (0..self.rows)
            .map(|i| {
                decode_tuple(self.region.read(
                    DATA_OFF + i * TUPLE_BYTES,
                    TUPLE_BYTES,
                    AccessHint::Sequential,
                ))
            })
            .collect()
    }

    /// Simulate a power loss, then recover.
    pub fn crash_and_recover(&mut self) -> CheckpointRecovery {
        self.region.crash();
        self.recover()
    }

    fn encode_manifest(&self) -> [u8; MANIFEST_SLOT as usize] {
        let mut buf = [0u8; MANIFEST_SLOT as usize];
        buf[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&self.seq.to_le_bytes());
        buf[16..24].copy_from_slice(&self.rows.to_le_bytes());
        buf[24..32].copy_from_slice(&self.checksum.to_le_bytes());
        let self_sum = fnv64(FNV_INIT, &buf[..MANIFEST_HDR]);
        buf[32..40].copy_from_slice(&self_sum.to_le_bytes());
        buf
    }

    /// Parse a slot. `Ok(None)` = slot empty (all zero), `Err(())` = slot
    /// holds bytes that fail validation.
    fn parse_manifest(&self, slot: u64) -> std::result::Result<Option<Manifest>, ()> {
        let bytes = self
            .region
            .read(slot * MANIFEST_SLOT, MANIFEST_SLOT, AccessHint::Random);
        if bytes.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        if u64_at(0) != MAGIC {
            return Err(());
        }
        let self_sum = fnv64(FNV_INIT, &bytes[..MANIFEST_HDR]);
        if u64_at(32) != self_sum {
            return Err(());
        }
        let m = Manifest {
            seq: u64_at(8),
            rows: u64_at(16),
            data_checksum: u64_at(24),
        };
        if m.rows > self.capacity_rows() || m.seq == 0 {
            return Err(());
        }
        Ok(Some(m))
    }

    fn data_checksum(&self, rows: u64) -> u64 {
        if rows == 0 {
            return FNV_INIT;
        }
        fnv64(
            FNV_INIT,
            self.region
                .read(DATA_OFF, rows * TUPLE_BYTES, AccessHint::Sequential),
        )
    }

    /// Recovery proper: pick the best valid manifest, durably seal invalid
    /// slots, durably zero the torn tail. Every repair is fenced, so
    /// recovery is a fixpoint — running it again (or crashing right after
    /// it) changes nothing.
    fn recover(&mut self) -> CheckpointRecovery {
        let mut best: Option<Manifest> = None;
        let mut invalid_manifests_sealed = 0u32;
        let mut repaired = false;
        for slot in 0..2u64 {
            let parsed = self.parse_manifest(slot);
            let valid = match parsed {
                Ok(None) => true,
                Ok(Some(m)) => {
                    if self.data_checksum(m.rows) == m.data_checksum {
                        if best.is_none_or(|b| m.seq > b.seq) {
                            best = Some(m);
                        }
                        true
                    } else {
                        false
                    }
                }
                Err(()) => false,
            };
            if !valid {
                self.region
                    .try_ntstore(
                        slot * MANIFEST_SLOT,
                        &[0u8; MANIFEST_SLOT as usize],
                        AccessHint::Random,
                    )
                    .expect("manifest slot in bounds");
                invalid_manifests_sealed += 1;
                repaired = true;
            }
        }

        self.rows = best.map_or(0, |m| m.rows);
        self.seq = best.map_or(0, |m| m.seq);
        self.checksum = best.map_or(FNV_INIT, |m| m.data_checksum);

        // Truncate the torn tail: any non-zero byte beyond the durable rows
        // is a half-written batch the old manifest never covered.
        let mut torn_bytes_zeroed = 0u64;
        let tail_start = DATA_OFF + self.rows * TUPLE_BYTES;
        let tail_len = self.region.len() - tail_start;
        if tail_len > 0 {
            const CHUNK: u64 = 4096;
            let zeros = [0u8; CHUNK as usize];
            let mut off = tail_start;
            while off < tail_start + tail_len {
                let n = CHUNK.min(tail_start + tail_len - off);
                let dirty = self
                    .region
                    .read(off, n, AccessHint::Sequential)
                    .iter()
                    .any(|&b| b != 0);
                if dirty {
                    self.region
                        .try_ntstore(off, &zeros[..n as usize], AccessHint::Sequential)
                        .expect("tail in bounds");
                    torn_bytes_zeroed += n;
                    repaired = true;
                }
                off += n;
            }
        }
        if repaired {
            self.region.sfence();
        }
        CheckpointRecovery {
            rows: self.rows,
            seq: self.seq,
            torn_bytes_zeroed,
            invalid_manifests_sealed,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use pmem_sim::topology::SocketId;

    fn tuple(i: u64) -> ColTuple {
        ColTuple {
            orderdate: 19930101 + i as u32,
            partkey: i as u32 * 3,
            suppkey: i as u32 * 5,
            custkey: i as u32 * 7,
            quantity: (i % 50) as u8,
            discount: (i % 10) as u8,
            extendedprice: i as u32 * 11,
            revenue: i as u32 * 13,
            supplycost: i as u32 * 17,
        }
    }

    fn store(capacity: u64) -> CheckpointStore {
        let ns = Namespace::devdax(SocketId(0), 16 << 20);
        CheckpointStore::create(&ns, capacity).unwrap()
    }

    #[test]
    fn tuple_encoding_round_trips() {
        for i in [0, 1, 7, 1000] {
            let t = tuple(i);
            assert_eq!(decode_tuple(&encode_tuple(&t)), t);
        }
    }

    #[test]
    fn append_read_and_survive_a_clean_crash() {
        let mut s = store(64);
        let batch: Vec<ColTuple> = (0..10).map(tuple).collect();
        s.append(&batch).unwrap();
        s.append(&(10..16).map(tuple).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.rows(), 16);
        let report = s.crash_and_recover();
        assert_eq!(report.rows, 16);
        assert_eq!(report.seq, 2);
        assert_eq!(report.torn_bytes_zeroed, 0);
        assert_eq!(report.invalid_manifests_sealed, 0);
        let back = s.read_all();
        assert_eq!(back.len(), 16);
        for (i, t) in back.iter().enumerate() {
            assert_eq!(*t, tuple(i as u64));
        }
    }

    #[test]
    fn unpublished_batch_is_truncated_as_a_torn_tail() {
        let mut s = store(64);
        s.append(&(0..4).map(tuple).collect::<Vec<_>>()).unwrap();
        // Half an append: data fenced, manifest never written (the crash
        // window between the two publication fences).
        let stray: Vec<u8> = (4..8).flat_map(|i| encode_tuple(&tuple(i))).collect();
        s.region
            .try_ntstore(DATA_OFF + 4 * TUPLE_BYTES, &stray, AccessHint::Sequential)
            .unwrap();
        s.region.sfence();
        let report = s.crash_and_recover();
        assert_eq!(report.rows, 4, "unpublished rows must not surface");
        assert!(report.torn_bytes_zeroed > 0, "tail must be truncated");
        assert_eq!(s.read_all().len(), 4);
        // The zeroing was durable: a second pass finds a clean tail.
        let again = s.crash_and_recover();
        assert_eq!(again.rows, 4);
        assert_eq!(again.torn_bytes_zeroed, 0, "recovery is a fixpoint");
    }

    #[test]
    fn corrupted_manifest_slot_is_sealed_and_the_other_wins() {
        let mut s = store(64);
        s.append(&(0..3).map(tuple).collect::<Vec<_>>()).unwrap(); // seq 1 → slot 1
        s.append(&(3..5).map(tuple).collect::<Vec<_>>()).unwrap(); // seq 2 → slot 0
                                                                   // Corrupt slot 1 (the older manifest) with garbage.
        s.region
            .try_ntstore(MANIFEST_SLOT, &[0xABu8; 16], AccessHint::Random)
            .unwrap();
        s.region.sfence();
        let report = s.crash_and_recover();
        assert_eq!(report.rows, 5, "newest intact manifest must win");
        assert_eq!(report.invalid_manifests_sealed, 1);
        // Sealing was durable.
        assert_eq!(s.crash_and_recover().invalid_manifests_sealed, 0);
    }

    #[test]
    fn recovery_on_an_empty_region_is_empty() {
        let ns = Namespace::devdax(SocketId(0), 1 << 20);
        let region = ns.alloc_region(DATA_OFF + 4 * TUPLE_BYTES).unwrap();
        let (s, report) = CheckpointStore::open(region).unwrap();
        assert_eq!(report.rows, 0);
        assert_eq!(report.seq, 0);
        assert!(s.read_all().is_empty());
    }

    #[test]
    fn open_rejects_volatile_regions() {
        let ns = Namespace::dram(SocketId(0), 1 << 20);
        let region = ns.alloc_region(DATA_OFF + TUPLE_BYTES).unwrap();
        assert!(CheckpointStore::open(region).is_err());
        assert!(CheckpointStore::create(&ns, 4).is_err());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut s = store(4);
        assert!(s.append(&(0..4).map(tuple).collect::<Vec<_>>()).is_ok());
        assert!(matches!(
            s.append(&[tuple(9)]),
            Err(StoreError::OutOfSpace { .. })
        ));
    }
}
