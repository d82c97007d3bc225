//! A deliberately PMEM-*unaware* chained hash table.
//!
//! This is the contrast structure for the paper's Hyrise experiment (§6.1):
//! a textbook bucket-array + linked-list hash map that is perfectly
//! reasonable on DRAM and pathological on PMEM. Every probe chases 24-byte
//! nodes at random offsets — far below Optane's 256 B granularity, so each
//! hop is an amplified random read. The paper found exactly this pattern
//! ("hash-operations take over 90 % of the execution time") responsible for
//! Hyrise's 5.3× PMEM slowdown.
//!
//! It is also persistence-unaware: plain stores, no flushes — on PMEM it
//! would not recover from a crash, just like a volatile structure `mmap`ed
//! onto App Direct memory.
//!
//! A table with one owner fills through [`ChainedTable::insert_owned`],
//! which takes no lock; it and the shared [`KvIndex::insert`] run the one
//! insert body. A table that takes no more writes can be
//! [sealed](ChainedTable::seal) into a [`SealedChainedTable`], which walks
//! the same chains without the table lock. Lookups and inserts,
//! node-region grows and rehashes included, count into the caller's
//! [`Tally`], as Dash's do. The bucket array and the node storage are
//! regions, which hold their namespace bytes until they drop: a grow or
//! rehash returns the replaced region's. Nodes are taken from the front of
//! the node storage in order, and a removed node goes on the table's free
//! list, which later inserts take from first.

use parking_lot::RwLock;
use pmem_store::{AccessHint, Namespace, Region, Result, Tally};

use crate::hash::hash64;
use crate::KvIndex;

/// Node layout: key (8) | value (8) | next (8, offset+1, 0 = nil).
const NODE_SIZE: u64 = 24;
/// Grow the bucket array when chains average above this length.
const MAX_LOAD: usize = 3;

struct Inner {
    heads: Region,
    nodes: Region,
    /// Offset of the first node of `nodes` never handed out.
    next_node: u64,
    bucket_count: u64,
    free_head: u64, // offset+1 of first freed node, 0 = none
    /// Live records.
    len: usize,
}

/// The PMEM-unaware chained hash table.
pub struct ChainedTable {
    ns: Namespace,
    inner: RwLock<Inner>,
}

/// A [`ChainedTable`] after its last write: the same buckets and nodes out
/// of the table lock. A probe takes no lock and reads exactly the nodes
/// [`ChainedTable::get`] reads.
pub struct SealedChainedTable {
    /// On the heap, as a sealed Dash table's segments are, so both sealed
    /// kinds are a few words wide.
    inner: Box<Inner>,
}

impl SealedChainedTable {
    /// Point lookup, counted into `tally` (a tally of the namespace the
    /// table was built in).
    #[inline]
    pub fn get(&self, key: u64, tally: &mut Tally<'_>) -> Option<u64> {
        self.inner.get(key, tally)
    }

    /// Bytes the table holds in its namespace: its bucket array and its
    /// nodes. The arrays a rehash or a node growth replaced have already
    /// given theirs back.
    pub fn bytes(&self) -> u64 {
        self.inner.heads.len() + self.inner.nodes.len()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }
}

impl ChainedTable {
    /// Table sized for ~1k records (grows by rehashing).
    pub fn new(ns: &Namespace) -> Result<Self> {
        Self::with_capacity(ns, 1024)
    }

    /// Table pre-sized for `records` entries. When the node storage does
    /// not fit, the bucket array drops, and its bytes go back, before the
    /// error returns.
    pub fn with_capacity(ns: &Namespace, records: usize) -> Result<Self> {
        let bucket_count = (records.max(16) as u64 / 2).next_power_of_two();
        let heads = ns.alloc_region(bucket_count * 8)?;
        let node_bytes = (records.max(16) as u64 * 2) * NODE_SIZE;
        let nodes = ns.alloc_region(node_bytes)?;
        Ok(ChainedTable {
            ns: ns.clone(),
            inner: RwLock::new(Inner {
                heads,
                nodes,
                next_node: 0,
                bucket_count,
                free_head: 0,
                len: 0,
            }),
        })
    }

    /// Number of buckets (diagnostic).
    pub fn bucket_count(&self) -> u64 {
        self.inner.read().bucket_count
    }

    /// Consume the table into its read-only form. The regions, and so the
    /// namespace bytes they hold, move over unchanged.
    pub fn seal(self) -> SealedChainedTable {
        SealedChainedTable {
            inner: Box::new(self.inner.into_inner()),
        }
    }

    /// Single-owner insert or update, counted into `tally`: exactly what
    /// [`KvIndex::insert_tallied`] writes and counts, without its lock.
    pub fn insert_owned(&mut self, key: u64, value: u64, tally: &mut Tally<'_>) -> Result<()> {
        self.inner.get_mut().insert(&self.ns, key, value, tally)
    }

    /// Simulate a power loss (chaos-testing hook). This table never
    /// flushes, so everything written since creation is lost — the
    /// PMEM-unaware failure mode.
    pub fn simulate_crash(&self) -> u64 {
        let mut inner = self.inner.write();
        let lost = inner.heads.crash() + inner.nodes.crash();
        inner.len = 0;
        lost
    }
}

impl Inner {
    fn bucket_of(&self, key: u64) -> u64 {
        hash64(key) & (self.bucket_count - 1)
    }

    fn head(&self, bucket: u64, t: &mut Tally<'_>) -> u64 {
        let bytes = self
            .heads
            .read_tallied(bucket * 8, 8, AccessHint::Random, t);
        u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }

    fn set_head(&mut self, bucket: u64, link: u64, t: &mut Tally<'_>) {
        self.heads
            .try_write_tallied(bucket * 8, &link.to_le_bytes(), AccessHint::Random, t)
            .expect("head in bounds");
    }

    /// The one lookup body of the live and the sealed table: walk the
    /// key's chain, one random node read per hop.
    fn get(&self, key: u64, t: &mut Tally<'_>) -> Option<u64> {
        let mut link = self.head(self.bucket_of(key), t);
        while link != 0 {
            let (k, v, next) = self.node(link, t);
            if k == key {
                return Some(v);
            }
            link = next;
        }
        None
    }

    fn node(&self, link: u64, t: &mut Tally<'_>) -> (u64, u64, u64) {
        debug_assert_ne!(link, 0);
        let off = link - 1;
        // One pointer-chasing hop: a 24 B random read, the PMEM-hostile
        // pattern this structure exists to demonstrate.
        let bytes = self
            .nodes
            .read_tallied(off, NODE_SIZE, AccessHint::Random, t);
        (
            u64::from_le_bytes(bytes[0..8].try_into().expect("8")),
            u64::from_le_bytes(bytes[8..16].try_into().expect("8")),
            u64::from_le_bytes(bytes[16..24].try_into().expect("8")),
        )
    }

    fn write_node(&mut self, link: u64, key: u64, value: u64, next: u64, t: &mut Tally<'_>) {
        let off = link - 1;
        let mut buf = [0u8; NODE_SIZE as usize];
        buf[0..8].copy_from_slice(&key.to_le_bytes());
        buf[8..16].copy_from_slice(&value.to_le_bytes());
        buf[16..24].copy_from_slice(&next.to_le_bytes());
        self.nodes
            .try_write_tallied(off, &buf, AccessHint::Random, t)
            .expect("node in bounds");
    }

    fn set_node_value(&mut self, link: u64, value: u64, t: &mut Tally<'_>) {
        self.nodes
            .try_write_tallied(link - 1 + 8, &value.to_le_bytes(), AccessHint::Random, t)
            .expect("node in bounds");
    }

    fn set_node_next(&mut self, link: u64, next: u64, t: &mut Tally<'_>) {
        self.nodes
            .try_write_tallied(link - 1 + 16, &next.to_le_bytes(), AccessHint::Random, t)
            .expect("node in bounds");
    }

    /// The one insert body of the shared and the owned table: update the
    /// key's node if its chain holds one, else link a new node in at the
    /// chain's head, and rehash once chains average above `MAX_LOAD`.
    fn insert(&mut self, ns: &Namespace, key: u64, value: u64, t: &mut Tally<'_>) -> Result<()> {
        let bucket = self.bucket_of(key);
        let head = self.head(bucket, t);
        // Walk the chain looking for the key.
        let mut link = head;
        while link != 0 {
            let (k, _, next) = self.node(link, t);
            if k == key {
                self.set_node_value(link, value, t);
                return Ok(());
            }
            link = next;
        }
        let node = self.alloc_node(ns, t)?;
        self.write_node(node, key, value, head, t);
        self.set_head(bucket, node, t);
        self.len += 1;
        if self.len > self.bucket_count as usize * MAX_LOAD {
            self.rehash(ns, t)?;
        }
        Ok(())
    }

    /// A node's link: a freed node if there is one, else the next node of
    /// the storage, which doubles first when that node would not fit.
    fn alloc_node(&mut self, ns: &Namespace, t: &mut Tally<'_>) -> Result<u64> {
        if self.free_head != 0 {
            let link = self.free_head;
            let (_, _, next) = self.node(link, t);
            self.free_head = next;
            return Ok(link);
        }
        if self.next_node + NODE_SIZE > self.nodes.len() {
            self.grow_nodes(ns, t)?;
        }
        let link = self.next_node + 1;
        self.next_node += NODE_SIZE;
        Ok(link)
    }

    /// Double the node storage, copying existing nodes so offsets stay
    /// valid (accounted as the sequential copy a real rehash performs).
    fn grow_nodes(&mut self, ns: &Namespace, t: &mut Tally<'_>) -> Result<()> {
        let old_len = self.nodes.len();
        let new_len = old_len * 2;
        let mut new_nodes = ns.alloc_region(new_len)?;
        let bytes = self
            .nodes
            .read_tallied(0, old_len, AccessHint::Sequential, t)
            .to_vec();
        new_nodes.try_write_tallied(0, &bytes, AccessHint::Sequential, t)?;
        self.nodes = new_nodes;
        Ok(())
    }

    fn rehash(&mut self, ns: &Namespace, t: &mut Tally<'_>) -> Result<()> {
        let new_count = self.bucket_count * 2;
        let new_heads = ns.alloc_region(new_count * 8)?;
        let old_heads = std::mem::replace(&mut self.heads, new_heads);
        let old_count = self.bucket_count;
        self.bucket_count = new_count;
        for b in 0..old_count {
            let bytes = old_heads.read_tallied(b * 8, 8, AccessHint::Sequential, t);
            let mut link = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
            while link != 0 {
                let (key, _, next) = self.node(link, t);
                let nb = self.bucket_of(key);
                let nh = self.head(nb, t);
                self.set_node_next(link, nh, t);
                self.set_head(nb, link, t);
                link = next;
            }
        }
        Ok(())
    }
}

impl KvIndex for ChainedTable {
    fn insert(&self, key: u64, value: u64) -> Result<()> {
        self.insert_tallied(key, value, &mut self.ns.tally())
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.get_tallied(key, &mut self.ns.tally())
    }

    fn insert_tallied(&self, key: u64, value: u64, t: &mut Tally<'_>) -> Result<()> {
        self.inner.write().insert(&self.ns, key, value, t)
    }

    fn get_tallied(&self, key: u64, t: &mut Tally<'_>) -> Option<u64> {
        self.inner.read().get(key, t)
    }

    fn remove(&self, key: u64) -> Option<u64> {
        let t = &mut self.ns.tally();
        let mut inner = self.inner.write();
        let bucket = inner.bucket_of(key);
        let mut prev = 0u64;
        let mut link = inner.head(bucket, t);
        while link != 0 {
            let (k, v, next) = inner.node(link, t);
            if k == key {
                if prev == 0 {
                    inner.set_head(bucket, next, t);
                } else {
                    inner.set_node_next(prev, next, t);
                }
                // Push onto the free list.
                let free = inner.free_head;
                inner.set_node_next(link, free, t);
                inner.free_head = link;
                inner.len -= 1;
                return Some(v);
            }
            prev = link;
            link = next;
        }
        None
    }

    fn len(&self) -> usize {
        self.inner.read().len
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use pmem_sim::topology::SocketId;

    fn ns(mib: u64) -> Namespace {
        Namespace::devdax(SocketId(0), mib << 20)
    }

    #[test]
    fn a_table_that_does_not_fit_returns_its_bucket_array() {
        // 1,000 records: 512 buckets (4 KiB) and 2,000 nodes (48,000 B).
        let ns = Namespace::devdax(SocketId(0), 4096 + 47_999);
        assert!(matches!(
            ChainedTable::with_capacity(&ns, 1000),
            Err(pmem_store::StoreError::OutOfSpace {
                requested: 48_000,
                ..
            })
        ));
        assert_eq!(ns.used(), 0);
        let ns = Namespace::devdax(SocketId(0), 4096 + 48_000);
        let table = ChainedTable::with_capacity(&ns, 1000).unwrap();
        assert_eq!((ns.used(), table.bucket_count()), (4096 + 48_000, 512));
    }

    #[test]
    fn basic_crud() {
        let ns = ns(8);
        let t = ChainedTable::new(&ns).unwrap();
        t.insert(1, 10).unwrap();
        t.insert(2, 20).unwrap();
        assert_eq!(t.get(1), Some(10));
        assert_eq!(t.get(2), Some(20));
        assert_eq!(t.get(99), None);
        t.insert(1, 11).unwrap();
        assert_eq!(t.get(1), Some(11));
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(2), Some(20));
        assert_eq!(t.get(2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_by_rehash_and_keeps_everything() {
        let ns = ns(64);
        let t = ChainedTable::with_capacity(&ns, 64).unwrap();
        let before = t.bucket_count();
        for k in 0..20_000u64 {
            t.insert(k, k * 7).unwrap();
        }
        assert!(t.bucket_count() > before, "should have rehashed");
        for k in 0..20_000u64 {
            assert_eq!(t.get(k), Some(k * 7), "key {k}");
        }
        assert_eq!(t.seal().bytes(), ns.used());
    }

    #[test]
    fn removal_in_middle_of_chain_and_node_reuse() {
        let ns = ns(8);
        let t = ChainedTable::with_capacity(&ns, 16).unwrap();
        // Few buckets → long chains guaranteed.
        for k in 0..30u64 {
            t.insert(k, k).unwrap();
        }
        for k in (0..30u64).step_by(2) {
            assert_eq!(t.remove(k), Some(k));
        }
        for k in 0..30u64 {
            assert_eq!(t.get(k), (k % 2 == 1).then_some(k), "key {k}");
        }
        // Freed nodes are reused: inserts succeed without growing the node
        // storage.
        for k in 100..115u64 {
            t.insert(k, k).unwrap();
        }
        for k in 100..115u64 {
            assert_eq!(t.get(k), Some(k));
        }
    }

    #[test]
    fn probes_generate_small_random_reads() {
        // The accounting signature that makes this table slow on PMEM.
        let ns = ns(8);
        let t = ChainedTable::with_capacity(&ns, 1024).unwrap();
        for k in 0..1024u64 {
            t.insert(k, k).unwrap();
        }
        let before = ns.tracker().snapshot();
        for k in 0..1024u64 {
            t.get(k);
        }
        let delta = ns.tracker().snapshot().since(&before);
        assert_eq!(delta.seq_read_bytes, 0, "probes must be random reads");
        let mean = delta.rand_read_bytes as f64 / delta.read_ops as f64;
        assert!(
            mean < 32.0,
            "mean probe granule should be sub-cacheline, got {mean}"
        );
    }

    #[test]
    fn sealed_lookup_reads_what_the_live_get_reads() {
        // Three tables built alike on namespaces of their own: one through
        // `KvIndex::insert`, one through `insert_owned` and the last through
        // one tally, then sealed. 45 records from a 16-record hint cross a
        // rehash (8 → 16 buckets, at the 25th) and a node-region grow (at
        // the 33rd), and leave some chain of 3 or more.
        enum Fill {
            Shared,
            Owned,
            Tallied,
        }
        let build = |fill: Fill| {
            let ns = Namespace::fsdax(SocketId(0), 8 << 20);
            let mut t = ChainedTable::with_capacity(&ns, 16).unwrap();
            let nodes = t.inner.read().nodes.len();
            let mut tally = ns.tally();
            for k in 0..45u64 {
                match fill {
                    Fill::Shared => t.insert(k * 2, k).unwrap(),
                    Fill::Owned => t.insert_owned(k * 2, k, &mut tally).unwrap(),
                    Fill::Tallied => t.insert_tallied(k * 2, k, &mut tally).unwrap(),
                }
            }
            drop(tally);
            assert_eq!(t.bucket_count(), 16);
            assert!(t.inner.read().nodes.len() > nodes, "node region grew");
            (ns, t)
        };
        let bytes = |t: &ChainedTable| {
            let inner = t.inner.read();
            let heads = inner.heads.untracked_slice().to_vec();
            (heads, inner.nodes.untracked_slice().to_vec())
        };
        let (live_ns, live) = build(Fill::Shared);
        let (owned_ns, owned) = build(Fill::Owned);
        let (sealed_ns, table) = build(Fill::Tallied);
        assert_eq!(owned_ns.tracker().snapshot(), live_ns.tracker().snapshot());
        assert_eq!(bytes(&owned), bytes(&live));
        assert_eq!(sealed_ns.tracker().snapshot(), live_ns.tracker().snapshot());
        assert_eq!(bytes(&table), bytes(&live));
        let sealed = table.seal();
        assert_eq!(sealed.len(), live.len());
        let mut longest_walk = 0;
        // Even keys hit, odd keys miss.
        for key in 0..90u64 {
            let (live0, sealed0) = (live_ns.tracker().snapshot(), sealed_ns.tracker().snapshot());
            let mut tally = sealed_ns.tally();
            assert_eq!(sealed.get(key, &mut tally), live.get(key), "key {key}");
            drop(tally);
            let delta = live_ns.tracker().snapshot().since(&live0);
            assert_eq!(
                sealed_ns.tracker().snapshot().since(&sealed0),
                delta,
                "key {key}"
            );
            // One head read, then one read per node visited.
            longest_walk = longest_walk.max(delta.read_ops - 1);
        }
        assert!(longest_walk >= 3, "longest chain walked: {longest_walk}");
    }

    #[test]
    fn unaware_table_loses_data_on_crash() {
        // Contrast with Dash's crash-consistent publication order.
        let ns = ns(8);
        let t = ChainedTable::new(&ns).unwrap();
        t.insert(5, 50).unwrap();
        {
            let mut inner = t.inner.write();
            inner.heads.crash();
            inner.nodes.crash();
        }
        assert_eq!(t.get(5), None, "plain stores must not survive a crash");
    }
}
