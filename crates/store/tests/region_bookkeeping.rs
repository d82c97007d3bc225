//! `Region`'s per-line bookkeeping against a reference model, and the
//! lock-free counters under concurrent access.
//!
//! The reference model keeps dirty, pending and poisoned lines in one
//! `HashSet` entry per line, the way `Region` once did, and applies every
//! operation line by line. Random operation sequences must leave both
//! with the same bytes, the same poison, and the same answers — including
//! the number of lines each crash loses.
//!
//! A twin region takes every operation through the tallied methods, with
//! one `Tally` held across the sequence. Once that tally drops, the twin
//! must equal the one-access region in everything: bytes, lines, poison,
//! crash counts, the persistence trace and the tracker snapshot.
//!
//! A region recycled from a namespace's image pool must likewise equal a
//! fresh one through the same operations, whatever the pooled images
//! were left holding.

#![allow(clippy::unwrap_used)] // unwrap in tests is fine

use std::collections::HashSet;
use std::sync::{Arc, Barrier};

use pmem_sim::topology::SocketId;
use pmem_store::namespace::{POOL_IMAGES, POOL_MIN_BYTES};
use pmem_store::{AccessHint, Namespace, PersistenceTrace, Region, StoreError, Tally, XPLINE};
use proptest::prelude::*;

const LINE: u64 = 64;
const S0: SocketId = SocketId(0);

/// The line-by-line reference. Lines at or past the region's end are
/// never dirty or pending.
struct Model {
    data: Vec<u8>,
    shadow: Vec<u8>,
    dirty: HashSet<u64>,
    pending: HashSet<u64>,
    poisoned: HashSet<u64>,
    persistent: bool,
}

impl Model {
    fn new(len: u64, persistent: bool) -> Self {
        Model {
            data: vec![0; len as usize],
            shadow: vec![0; len as usize],
            dirty: HashSet::new(),
            pending: HashSet::new(),
            poisoned: HashSet::new(),
            persistent,
        }
    }

    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// The in-range cache lines an access of `len` bytes at `offset` names
    /// (a zero-length access names the line holding `offset`).
    fn lines(&self, offset: u64, len: u64) -> impl Iterator<Item = u64> {
        let end = self.len().div_ceil(LINE);
        let last = offset.saturating_add(len.max(1) - 1) / LINE;
        (offset / LINE..=last).take_while(move |&line| line < end)
    }

    fn copy_line(dst: &mut [u8], src: &[u8], line: u64) {
        let start = (line * LINE) as usize;
        let stop = (start + LINE as usize).min(src.len());
        dst[start..stop].copy_from_slice(&src[start..stop]);
    }

    fn store(&mut self, offset: u64, bytes: &[u8], nt: bool) -> bool {
        let len = bytes.len() as u64;
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            return false;
        }
        self.data[offset as usize..(offset + len) as usize].copy_from_slice(bytes);
        for line in self.lines(offset, len).collect::<Vec<_>>() {
            if nt {
                self.dirty.remove(&line);
                self.pending.insert(line);
            } else {
                self.pending.remove(&line);
                self.dirty.insert(line);
            }
        }
        if len > 0 {
            for x in offset / XPLINE..=(offset + len - 1) / XPLINE {
                let stop = ((x + 1) * XPLINE).min(self.len());
                if offset <= x * XPLINE && stop <= offset + len {
                    self.poisoned.remove(&x);
                }
            }
        }
        true
    }

    fn clwb(&mut self, offset: u64, len: u64) {
        for line in self.lines(offset, len).collect::<Vec<_>>() {
            if self.dirty.remove(&line) {
                self.pending.insert(line);
            }
        }
    }

    fn sfence(&mut self) {
        if self.persistent {
            for line in self.pending.drain() {
                Self::copy_line(&mut self.shadow, &self.data, line);
            }
        }
    }

    fn is_persisted(&self, offset: u64, len: u64) -> bool {
        self.persistent
            && self
                .lines(offset, len)
                .all(|line| !self.dirty.contains(&line) && !self.pending.contains(&line))
    }

    fn crash(&mut self) -> u64 {
        let lost: Vec<u64> = if self.persistent {
            self.dirty.drain().chain(self.pending.drain()).collect()
        } else {
            self.dirty.clear();
            self.pending.clear();
            (0..self.len().div_ceil(LINE)).collect()
        };
        for &line in &lost {
            Self::copy_line(&mut self.data, &self.shadow, line);
        }
        lost.len() as u64
    }

    /// Poison the XPLines covering the range (clamped to the region),
    /// adopting the bytes the region scrambled them to.
    fn inject_poison(&mut self, offset: u64, len: u64, scrambled: &[u8]) -> u64 {
        if len == 0 || offset >= self.len() {
            return 0;
        }
        let end = offset.saturating_add(len).min(self.len());
        let mut fresh = 0;
        for x in offset / XPLINE..=(end - 1) / XPLINE {
            fresh += u64::from(self.poisoned.insert(x));
            let start = (x * XPLINE) as usize;
            let stop = (start + XPLINE as usize).min(self.data.len());
            self.data[start..stop].copy_from_slice(&scrambled[start..stop]);
            self.shadow[start..stop].copy_from_slice(&scrambled[start..stop]);
        }
        fresh
    }

    fn clear_poison(&mut self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = offset.saturating_add(len);
        (offset / XPLINE..=(end - 1) / XPLINE)
            .filter(|x| self.poisoned.remove(x))
            .count() as u64
    }

    fn try_read(&self, offset: u64, len: u64) -> Result<&[u8], StoreError> {
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            return Err(StoreError::OutOfBounds {
                offset,
                len,
                capacity: self.len(),
            });
        }
        if len > 0 {
            let hit =
                (offset / XPLINE..=(offset + len - 1) / XPLINE).find(|x| self.poisoned.contains(x));
            if let Some(x) = hit {
                let run = (x..).take_while(|l| self.poisoned.contains(l)).count() as u64;
                return Err(StoreError::Poisoned {
                    offset: x * XPLINE,
                    len: run * XPLINE,
                });
            }
        }
        Ok(&self.data[offset as usize..(offset + len) as usize])
    }

    fn poisoned_lines(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = self.poisoned.iter().map(|x| x * XPLINE).collect();
        lines.sort_unstable();
        lines
    }
}

/// One operation, its offset and length still raw: they are resolved
/// against the region's length when applied.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    offset_pick: u8,
    raw_offset: u64,
    len_pick: u8,
    raw_len: u64,
    fill: u8,
}

fn op() -> impl Strategy<Value = Op> {
    (
        (0u8..10, 0u8..5, 0u64..40_000),
        (0u8..6, 0u64..5_000, any::<u8>()),
    )
        .prop_map(
            |((kind, offset_pick, raw_offset), (len_pick, raw_len, fill))| Op {
                kind,
                offset_pick,
                raw_offset,
                len_pick,
                raw_len,
                fill,
            },
        )
}

/// Region sizes: empty, sub-line, unaligned, one word of lines, and
/// unaligned and aligned multi-word sizes.
const LENS: [u64; 6] = [0, 40, 300, 4096, 8292, 3 * 64 * LINE];

impl Op {
    fn offset(&self, region_len: u64) -> u64 {
        match self.offset_pick {
            0 => self.raw_offset % (region_len + 130),
            1 => region_len,
            // Straddles a boundary between two 64-line words.
            2 => {
                ((self.raw_offset % 3 + 1) * 64 * LINE).saturating_sub(100) + self.raw_offset % 200
            }
            // An XPLine start, the region's short tail line included.
            3 => self.raw_offset % (region_len / XPLINE + 2) * XPLINE,
            _ => self.raw_offset,
        }
    }

    fn len(&self, region_len: u64, offset: u64) -> u64 {
        match self.len_pick {
            0 => 0,
            1 => self.raw_len % 300,
            2 => self.raw_len,
            3 => (self.raw_len % 8 + 1) * XPLINE,
            // Exactly to the region's end.
            4 => region_len.saturating_sub(offset),
            _ => self.raw_len * LINE,
        }
    }
}

/// Apply `op` to the region, to the model, and through `tally` to the
/// twin region.
fn apply(
    region: &mut Region,
    twin: &mut Region,
    tally: &mut Tally<'_>,
    model: &mut Model,
    op: Op,
) -> Result<(), TestCaseError> {
    let offset = op.offset(model.len());
    let len = op.len(model.len(), offset);
    match op.kind {
        0..=2 => {
            let bytes = vec![op.fill; len as usize];
            let nt = op.kind != 0;
            let (ok, twin_ok) = if nt {
                (
                    region.try_ntstore(offset, &bytes, AccessHint::Auto),
                    twin.try_ntstore_tallied(offset, &bytes, AccessHint::Auto, tally),
                )
            } else {
                (
                    region.try_write(offset, &bytes, AccessHint::Auto),
                    twin.try_write_tallied(offset, &bytes, AccessHint::Auto, tally),
                )
            };
            prop_assert_eq!(&ok, &twin_ok);
            prop_assert_eq!(
                ok.is_ok(),
                model.store(offset, &bytes, nt),
                "store {:?}",
                op
            );
        }
        3 => {
            region.clwb(offset, len);
            twin.clwb(offset, len);
            model.clwb(offset, len);
        }
        4 => {
            region.sfence();
            twin.sfence_tallied(tally);
            model.sfence();
        }
        5 => {
            let lost = region.crash();
            prop_assert_eq!(lost, twin.crash());
            prop_assert_eq!(lost, model.crash(), "crash-lost lines");
        }
        6 => prop_assert_eq!(
            region.is_persisted(offset, len),
            model.is_persisted(offset, len),
            "is_persisted({}, {})",
            offset,
            len
        ),
        7 => {
            let fresh = region.inject_poison(offset, len);
            prop_assert_eq!(fresh, twin.inject_poison(offset, len));
            let scrambled = region.untracked_slice().to_vec();
            prop_assert_eq!(fresh, model.inject_poison(offset, len, &scrambled));
        }
        8 => {
            let cleared = region.clear_poison(offset, len);
            prop_assert_eq!(cleared, twin.clear_poison(offset, len));
            prop_assert_eq!(cleared, model.clear_poison(offset, len));
        }
        _ => {
            let got = region.try_read(offset, len, AccessHint::Auto);
            prop_assert_eq!(
                &got,
                &twin.try_read_tallied(offset, len, AccessHint::Auto, tally)
            );
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{:?}", model.try_read(offset, len))
            );
        }
    }
    prop_assert!(
        region.untracked_slice() == model.data,
        "bytes differ after {:?}",
        op
    );
    prop_assert!(twin.untracked_slice() == model.data, "twin bytes differ");
    prop_assert_eq!(region.poisoned_lines(), model.poisoned_lines());
    prop_assert_eq!(twin.poisoned_lines(), model.poisoned_lines());
    Ok(())
}

/// Whether each cache line of the region would survive a crash now.
fn line_state(region: &Region) -> Vec<bool> {
    (0..region.len().div_ceil(LINE))
        .map(|line| region.is_persisted(line * LINE, LINE))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitset_bookkeeping_matches_the_per_line_model(
        shape in (0usize..LENS.len(), 0u8..3),
        ops in prop::collection::vec(op(), 1..80),
    ) {
        let (len, mode) = (LENS[shape.0], shape.1);
        // Persistent (devdax, fsdax) and volatile (Memory Mode) regions.
        let namespace = || match mode {
            0 => Namespace::devdax(S0, 1 << 20),
            1 => Namespace::fsdax(S0, 1 << 20),
            _ => Namespace::memory_mode(S0, 1 << 20),
        };
        let (ns, twin_ns) = (namespace(), namespace());
        let traced = |ns: &Namespace| {
            let region = ns.alloc_region(len).unwrap();
            let persists = PersistenceTrace::shared(256);
            region.attach_persist_trace(Arc::clone(&persists));
            (region, persists)
        };
        let (mut region, persists) = traced(&ns);
        let (mut twin, twin_persists) = traced(&twin_ns);
        let mut model = Model::new(len, ns.is_persistent());
        let mut tally = twin_ns.tally();
        for &op in &ops {
            apply(&mut region, &mut twin, &mut tally, &mut model, op)?;
            prop_assert_eq!(line_state(&twin), line_state(&region), "lines after {:?}", op);
        }
        drop(tally);
        prop_assert_eq!(twin_ns.tracker().snapshot(), ns.tracker().snapshot());
        prop_assert_eq!(twin_persists.take(), persists.take());
        // A closing crash shows the persisted images agree as well.
        let lost = region.crash();
        prop_assert_eq!(lost, model.crash());
        prop_assert_eq!(lost, twin.crash());
        prop_assert!(region.untracked_slice() == model.data);
        prop_assert!(twin.untracked_slice() == model.data);
    }
}

/// What one operation returned, for comparing two regions that took it.
#[derive(Debug, PartialEq)]
enum Answer {
    Stored(Result<(), StoreError>),
    Done,
    Lost(u64),
    Persisted(bool),
    Lines(u64),
    Read(Result<Vec<u8>, StoreError>),
}

/// Apply `op` to one region through the one-access methods.
fn answer(region: &mut Region, op: Op) -> Answer {
    let offset = op.offset(region.len());
    let len = op.len(region.len(), offset);
    match op.kind {
        0 => {
            Answer::Stored(region.try_write(offset, &vec![op.fill; len as usize], AccessHint::Auto))
        }
        1 | 2 => Answer::Stored(region.try_ntstore(
            offset,
            &vec![op.fill; len as usize],
            AccessHint::Auto,
        )),
        3 => {
            region.clwb(offset, len);
            Answer::Done
        }
        4 => {
            region.sfence();
            Answer::Done
        }
        5 => Answer::Lost(region.crash()),
        6 => Answer::Persisted(region.is_persisted(offset, len)),
        7 => Answer::Lines(region.inject_poison(offset, len)),
        8 => Answer::Lines(region.clear_poison(offset, len)),
        _ => Answer::Read(
            region
                .try_read(offset, len, AccessHint::Auto)
                .map(<[u8]>::to_vec),
        ),
    }
}

/// Sizes of recycled regions: the pooling threshold, unaligned above it,
/// and one fsdax page and a partial line.
const POOLED_LENS: [u64; 3] = [POOL_MIN_BYTES, POOL_MIN_BYTES + 300, (2 << 20) + 40];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_recycled_region_is_indistinguishable_from_a_fresh_one(
        shape in (0usize..POOLED_LENS.len(), 0u8..4),
        dirt in prop::collection::vec(op(), 1..24),
        ops in prop::collection::vec(op(), 1..60),
    ) {
        let (len, mode) = (POOLED_LENS[shape.0], shape.1);
        let namespace = || match mode {
            0 => Namespace::devdax(S0, 64 << 20),
            1 => Namespace::fsdax(S0, 64 << 20),
            2 => Namespace::memory_mode(S0, 64 << 20),
            _ => Namespace::dram(S0, 64 << 20),
        };
        let (pooled_ns, fresh_ns) = (namespace(), namespace());
        // Fill the pool with images of two larger sizes, traced and left
        // dirty, pending, poisoned and partly fenced.
        let old_persists = PersistenceTrace::shared(1 << 12);
        let olds: Vec<Region> = [len + 4096, 2 * len]
            .map(|old_len| {
                let mut old = pooled_ns.alloc_region(old_len).unwrap();
                old.ntstore(0, &vec![0xA5; old_len as usize]);
                old.sfence();
                old.attach_persist_trace(Arc::clone(&old_persists));
                for &op in &dirt {
                    answer(&mut old, op);
                }
                old.write(old_len / 3, &[0x5A; 700]);
                old.ntstore(old_len / 2, &[0x3C; 900]);
                old.inject_poison(old_len - 1000, 10);
                old
            })
            .into();
        drop(olds);
        prop_assert_eq!(pooled_ns.pooled_images(), POOL_IMAGES);
        let fresh0 = pooled_ns.fresh_images();
        let used0 = pooled_ns.used();
        old_persists.take();

        let mut region = pooled_ns.alloc_region(len).unwrap();
        let mut twin = fresh_ns.alloc_region(len).unwrap();
        prop_assert_eq!(pooled_ns.pooled_images(), POOL_IMAGES - 1, "taken from the pool");
        prop_assert_eq!(pooled_ns.fresh_images(), fresh0);
        prop_assert_eq!(fresh_ns.fresh_images(), 1);
        prop_assert_eq!(pooled_ns.used() - used0, fresh_ns.used());
        pooled_ns.tracker().reset();
        // The recycled region starts with no trace attached: its first
        // accesses reach none of the old ones' sinks.
        prop_assert_eq!(answer(&mut region, ops[0]), answer(&mut twin, ops[0]));
        prop_assert!(old_persists.take().is_empty());
        let (persists, twin_persists) = (PersistenceTrace::shared(1 << 12), PersistenceTrace::shared(1 << 12));
        region.attach_persist_trace(Arc::clone(&persists));
        twin.attach_persist_trace(Arc::clone(&twin_persists));
        for &op in &ops[1..] {
            prop_assert_eq!(answer(&mut region, op), answer(&mut twin, op), "{:?}", op);
            prop_assert!(region.untracked_slice() == twin.untracked_slice(), "bytes after {:?}", op);
            prop_assert_eq!(region.poisoned_lines(), twin.poisoned_lines());
        }
        prop_assert_eq!(line_state(&region), line_state(&twin));
        prop_assert_eq!(pooled_ns.tracker().snapshot(), fresh_ns.tracker().snapshot());
        prop_assert_eq!(persists.take(), twin_persists.take());
        // Crash results, then the whole persisted images: overwrite every
        // byte through the cache and lose it.
        prop_assert_eq!(region.crash(), twin.crash());
        prop_assert!(region.untracked_slice() == twin.untracked_slice());
        for r in [&mut region, &mut twin] {
            r.detach_persist_trace();
            r.try_write(0, &vec![0xEE; len as usize], AccessHint::Random).unwrap();
        }
        prop_assert_eq!(region.crash(), twin.crash());
        prop_assert!(region.untracked_slice() == twin.untracked_slice(), "persisted images");
        prop_assert_eq!(pooled_ns.tracker().snapshot(), fresh_ns.tracker().snapshot());
    }
}

#[test]
fn concurrent_accesses_count_exactly_once_joined() {
    // More threads than the tracker has stripes, so some share one.
    const THREADS: u64 = 20;
    const READS: u64 = 20_000;
    let ns = Namespace::devdax(S0, 64 << 20);
    let shared = ns.alloc_region(1 << 16).unwrap();
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (ns, shared, barrier) = (&ns, &shared, &barrier);
            s.spawn(move || {
                let mut own = ns.alloc_region(1 << 12).unwrap();
                barrier.wait();
                let hint = if t % 2 == 0 {
                    AccessHint::Sequential
                } else {
                    AccessHint::Random
                };
                for i in 0..READS {
                    shared.read((i % 1024) * 64, 64, hint);
                }
                own.try_ntstore(0, &[t as u8; 256], AccessHint::Sequential)
                    .unwrap();
                own.sfence();
            });
        }
    });
    let snap = ns.tracker().snapshot();
    assert_eq!(snap.read_ops, THREADS * READS);
    assert_eq!(snap.seq_read_bytes, THREADS / 2 * READS * 64);
    assert_eq!(snap.rand_read_bytes, THREADS / 2 * READS * 64);
    assert_eq!(snap.write_ops, THREADS);
    assert_eq!(snap.seq_write_bytes, THREADS * 256);
    assert_eq!(snap.sfences, THREADS);
    ns.tracker().reset();
    assert_eq!(ns.tracker().snapshot(), Default::default());
}

#[test]
fn concurrent_first_touch_of_one_page_faults_once() {
    const THREADS: usize = 8;
    let ns = Namespace::fsdax(S0, 1 << 30);
    for round in 0..20u64 {
        let before = ns.tracker().snapshot().page_faults;
        // Two 2 MB pages: every thread touches both, in opposite orders.
        let region = ns.alloc_region(4 << 20).unwrap();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let (region, barrier) = (&region, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let pages = [0, 2 << 20];
                    let (a, b) = if t % 2 == 0 { (0, 1) } else { (1, 0) };
                    region.read(pages[a] + t * 64, 64, AccessHint::Random);
                    region.read(pages[b] + t * 64, 64, AccessHint::Random);
                });
            }
        });
        let faults = ns.tracker().snapshot().page_faults - before;
        assert_eq!(faults, 2, "round {round}: one fault per page");
    }
}
