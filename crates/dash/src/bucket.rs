//! Bucket layout and operations.
//!
//! A bucket is exactly 256 bytes — one Optane XPLine — so probing a bucket
//! costs a single media access:
//!
//! ```text
//! offset  0..14   fingerprints, one byte per slot (0 = empty)
//! offset 14..16   reserved
//! offset 16..240  14 records × 16 B (key u64 LE, value u64 LE)
//! offset 240..256 padding
//! ```
//!
//! Crash consistency: on insert the record bytes are written and persisted
//! *first*; only then is the fingerprint (the visibility bit) written and
//! persisted. A crash between the two leaves the slot empty — never a
//! half-visible record.
//!
//! A [`load`] keeps the raw 256 B its one read returned and decodes a slot
//! only when asked: a lookup matches the 14 fingerprint bytes in one
//! 128-bit word operation and decodes just the records whose fingerprint
//! matches, and the occupancy and free-slot checks read the fingerprints
//! alone. Every access counts into the caller's [`Tally`].

use pmem_store::{AccessHint, Region, Tally};

/// Bytes per bucket (= Optane XPLine).
pub const BUCKET_BYTES: u64 = 256;
/// Record slots per bucket.
pub const SLOTS: usize = 14;
/// Byte offset of the record area.
const REC_OFF: u64 = 16;
/// Bytes per record.
const REC_SIZE: u64 = 16;

/// The low 7 bits of every byte of a fingerprint word.
const LOW7: u128 = u128::from_le_bytes([0x7F; 16]);
/// The high bit of each of the [`SLOTS`] fingerprint bytes: the reserved
/// bytes 14..16 are never slots.
const SLOT_HIGH: u128 = u128::from_le_bytes([0x80; 16]) >> (8 * (16 - SLOTS));

/// The high bit of each slot byte of `word` that is zero, and no other
/// bit. Exact: `(x & 0x7F) + 0x7F` sets a byte's high bit iff its low 7
/// bits are nonzero and never carries out of the byte, so a byte keeps
/// its high bit clear only when all 8 of its bits are.
#[inline]
fn zero_slots(word: u128) -> u128 {
    !(((word & LOW7) + LOW7) | word) & SLOT_HIGH
}

/// The slots a [`zero_slots`]-style mask marks, lowest first.
#[inline]
fn slots_of(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let slot = (mask != 0).then(|| mask.trailing_zeros() as usize / 8)?;
        mask &= mask - 1;
        Some(slot)
    })
}

/// Outcome of trying to place a record in one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketInsert {
    /// Inserted into a free slot.
    Inserted,
    /// Key existed; value updated in place.
    Updated,
    /// No free slot.
    Full,
}

/// One bucket as a single 256 B read returned it. Slots are decoded on
/// demand, so a probe decodes only the records whose fingerprint matches.
#[derive(Debug, Clone, Copy)]
pub struct BucketSnapshot<'r> {
    bytes: &'r [u8; BUCKET_BYTES as usize],
}

impl BucketSnapshot<'_> {
    /// The fingerprint of each slot (0 = empty).
    pub fn fps(&self) -> &[u8] {
        &self.bytes[..SLOTS]
    }

    fn word(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8 bytes"))
    }

    /// Bytes 0..16, the fingerprints and the reserved bytes, as one word
    /// (byte `i` in bits `8i..8i + 8`).
    #[inline]
    fn fp_word(&self) -> u128 {
        u128::from_le_bytes(self.bytes[..16].try_into().expect("16 bytes"))
    }

    /// The `(key, value)` record of `slot` (meaningful only where its
    /// fingerprint is nonzero).
    pub fn record(&self, slot: usize) -> (u64, u64) {
        let base = (REC_OFF + slot as u64 * REC_SIZE) as usize;
        (self.word(base), self.word(base + 8))
    }

    /// Number of occupied slots.
    #[inline]
    pub fn occupancy(&self) -> usize {
        SLOTS - zero_slots(self.fp_word()).count_ones() as usize
    }

    /// The first slot, lowest first, whose fingerprint is `fp` and whose
    /// key compares equal. Only slots whose fingerprint matches are
    /// decoded.
    #[inline]
    pub fn find(&self, fp: u8, key: u64) -> Option<usize> {
        let matches = zero_slots(self.fp_word() ^ u128::from_le_bytes([fp; 16]));
        slots_of(matches).find(|&slot| self.record(slot).0 == key)
    }

    /// First empty slot.
    #[inline]
    pub fn free_slot(&self) -> Option<usize> {
        slots_of(zero_slots(self.fp_word())).next()
    }

    /// Iterate live `(slot, key, value)` triples, lowest slot first.
    pub fn live(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        slots_of(!zero_slots(self.fp_word()) & SLOT_HIGH).map(|slot| {
            let (key, value) = self.record(slot);
            (slot, key, value)
        })
    }
}

/// Read a whole bucket with one 256 B access (the PMEM-friendly probe).
#[inline]
pub fn load<'r>(region: &'r Region, bucket_off: u64, tally: &mut Tally<'_>) -> BucketSnapshot<'r> {
    let bytes = region.read_tallied(bucket_off, BUCKET_BYTES, AccessHint::Random, tally);
    BucketSnapshot {
        bytes: bytes.try_into().expect("one bucket"),
    }
}

/// Write + persist the record of `slot`, then its fingerprint — the
/// crash-consistent publication order.
pub fn publish(
    region: &mut Region,
    bucket_off: u64,
    slot: usize,
    fp: u8,
    key: u64,
    value: u64,
    tally: &mut Tally<'_>,
) {
    debug_assert!(slot < SLOTS);
    debug_assert_ne!(fp, 0);
    let rec_off = bucket_off + REC_OFF + slot as u64 * REC_SIZE;
    let mut rec = [0u8; 16];
    rec[..8].copy_from_slice(&key.to_le_bytes());
    rec[8..].copy_from_slice(&value.to_le_bytes());
    region
        .try_ntstore_tallied(rec_off, &rec, AccessHint::Random, tally)
        .expect("record in bounds");
    region.sfence_tallied(tally);
    region
        .try_ntstore_tallied(bucket_off + slot as u64, &[fp], AccessHint::Random, tally)
        .expect("fingerprint in bounds");
    region.sfence_tallied(tally);
}

/// Update the value of an existing slot in place (record overwrite is a
/// single ≤8-byte atomic-enough ntstore; the fingerprint stays valid).
pub fn update_value(
    region: &mut Region,
    bucket_off: u64,
    slot: usize,
    value: u64,
    tally: &mut Tally<'_>,
) {
    let val_off = bucket_off + REC_OFF + slot as u64 * REC_SIZE + 8;
    region
        .try_ntstore_tallied(val_off, &value.to_le_bytes(), AccessHint::Random, tally)
        .expect("value in bounds");
    region.sfence_tallied(tally);
}

/// Clear a slot (persisted fingerprint zero = tombstone-free removal).
pub fn clear_slot(region: &mut Region, bucket_off: u64, slot: usize, tally: &mut Tally<'_>) {
    region
        .try_ntstore_tallied(bucket_off + slot as u64, &[0u8], AccessHint::Random, tally)
        .expect("fingerprint in bounds");
    region.sfence_tallied(tally);
}

/// Insert or update `key` within this bucket only.
pub fn insert(
    region: &mut Region,
    bucket_off: u64,
    fp: u8,
    key: u64,
    value: u64,
    tally: &mut Tally<'_>,
) -> BucketInsert {
    let (found, free) = {
        let snap = load(region, bucket_off, tally);
        (snap.find(fp, key), snap.free_slot())
    };
    if let Some(slot) = found {
        update_value(region, bucket_off, slot, value, tally);
        return BucketInsert::Updated;
    }
    match free {
        Some(slot) => {
            publish(region, bucket_off, slot, fp, key, value, tally);
            BucketInsert::Inserted
        }
        None => BucketInsert::Full,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use pmem_sim::topology::SocketId;
    use pmem_store::Namespace;

    fn region() -> (Namespace, Region) {
        let ns = Namespace::devdax(SocketId(0), 1 << 20);
        let region = ns.alloc_region(BUCKET_BYTES * 4).unwrap();
        (ns, region)
    }

    #[test]
    fn publish_then_load_round_trips() {
        let (ns, mut r) = region();
        let t = &mut ns.tally();
        publish(&mut r, 0, 3, 0xAB, 111, 222, t);
        let snap = load(&r, 0, t);
        assert_eq!(snap.fps()[3], 0xAB);
        assert_eq!(snap.record(3), (111, 222));
        assert_eq!(snap.occupancy(), 1);
        assert_eq!(snap.find(0xAB, 111), Some(3));
        assert_eq!(snap.find(0xAB, 999), None);
        assert_eq!(snap.find(0xAC, 111), None);
    }

    #[test]
    fn insert_fills_update_and_reports_full() {
        let (ns, mut r) = region();
        let t = &mut ns.tally();
        for k in 0..SLOTS as u64 {
            assert_eq!(insert(&mut r, 256, 7, k, k * 10, t), BucketInsert::Inserted);
        }
        assert_eq!(insert(&mut r, 256, 7, 3, 999, t), BucketInsert::Updated);
        assert_eq!(load(&r, 256, t).record(3).1, 999);
        assert_eq!(insert(&mut r, 256, 7, 10_000, 0, t), BucketInsert::Full);
        assert_eq!(load(&r, 256, t).occupancy(), SLOTS);
    }

    #[test]
    fn clear_slot_frees_space() {
        let (ns, mut r) = region();
        let t = &mut ns.tally();
        publish(&mut r, 0, 0, 5, 1, 2, t);
        clear_slot(&mut r, 0, 0, t);
        let snap = load(&r, 0, t);
        assert_eq!(snap.occupancy(), 0);
        assert_eq!(snap.free_slot(), Some(0));
    }

    #[test]
    fn crash_between_record_and_fingerprint_hides_the_record() {
        // Simulate the torn insert by doing the steps manually.
        let (ns, mut r) = region();
        let rec_off = 16;
        r.ntstore(rec_off, &42u64.to_le_bytes());
        r.sfence(); // record persisted …
        r.ntstore(0, &[0x99u8]); // … fingerprint written but NOT fenced
        r.crash();
        let snap = load(&r, 0, &mut ns.tally());
        assert_eq!(snap.occupancy(), 0, "unfenced fingerprint must not survive");
    }

    #[test]
    fn published_records_survive_crashes() {
        let (ns, mut r) = region();
        let t = &mut ns.tally();
        publish(&mut r, 0, 1, 9, 77, 88, t);
        r.crash();
        let snap = load(&r, 0, t);
        assert_eq!(snap.find(9, 77), Some(1));
        assert_eq!(snap.record(1).1, 88);
    }

    #[test]
    fn live_iterates_only_occupied_slots() {
        let (ns, mut r) = region();
        let t = &mut ns.tally();
        publish(&mut r, 0, 0, 1, 10, 100, t);
        publish(&mut r, 0, 5, 2, 20, 200, t);
        let snap = load(&r, 0, t);
        let live: Vec<_> = snap.live().collect();
        assert_eq!(live, vec![(0, 10, 100), (5, 20, 200)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// The word-wide match answers exactly what the byte-at-a-time
        /// scan answers. Each slot is empty, holds `fp` with `key`, holds
        /// `fp` with another key, or keeps its random byte; the reserved
        /// bytes 14..16 hold `fp | 1` and the padding holds `key`, so a
        /// match that read them as slots would answer differently.
        #[test]
        fn word_match_equals_the_byte_scan(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 256..257),
            kinds in proptest::collection::vec(0u8..4, SLOTS..SLOTS + 1),
            fp in proptest::prelude::any::<u8>(),
            key in proptest::prelude::any::<u64>(),
        ) {
            let mut bytes: [u8; BUCKET_BYTES as usize] = raw.try_into().unwrap();
            let rec = |slot: usize| (REC_OFF + slot as u64 * REC_SIZE) as usize;
            for (slot, kind) in kinds.into_iter().enumerate() {
                match kind {
                    0 => bytes[slot] = 0,
                    1 => {
                        bytes[slot] = fp;
                        bytes[rec(slot)..rec(slot) + 8].copy_from_slice(&key.to_le_bytes());
                    }
                    2 => bytes[slot] = fp,
                    _ => {}
                }
            }
            bytes[SLOTS..16].fill(fp | 1);
            for at in [rec(SLOTS), rec(SLOTS) + 8] {
                bytes[at..at + 8].copy_from_slice(&key.to_le_bytes());
            }
            // The linear definitions, over the 14 fingerprint bytes only.
            let fps = &bytes[..SLOTS];
            let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let key_of = |slot: usize| word(rec(slot));
            let find = (0..SLOTS).find(|&slot| fps[slot] == fp && key_of(slot) == key);
            let occupancy = fps.iter().filter(|&&b| b != 0).count();
            let free_slot = fps.iter().position(|&b| b == 0);
            let live: Vec<_> = (0..SLOTS)
                .filter(|&slot| fps[slot] != 0)
                .map(|slot| (slot, key_of(slot), word(rec(slot) + 8)))
                .collect();

            let snap = BucketSnapshot { bytes: &bytes };
            proptest::prop_assert_eq!(snap.find(fp, key), find);
            proptest::prop_assert_eq!(snap.occupancy(), occupancy);
            proptest::prop_assert_eq!(snap.free_slot(), free_slot);
            proptest::prop_assert_eq!(snap.live().collect::<Vec<_>>(), live);
        }
    }

    #[test]
    fn bucket_probe_costs_one_random_256b_read() {
        let (ns, r) = region();
        let before = r.tracker().snapshot();
        let _ = load(&r, 0, &mut ns.tally());
        let delta = r.tracker().snapshot().since(&before);
        assert_eq!(delta.read_ops, 1);
        assert_eq!(delta.rand_read_bytes, 256);
    }
}
