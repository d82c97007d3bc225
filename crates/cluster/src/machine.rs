//! One simulated machine of the cluster: its own store + serve stack,
//! its columnar partition, and the peer replicas it hosts.

use pmem_sim::topology::SocketId;
use pmem_ssb::columnar::{Column, ColumnarFact};
use pmem_ssb::datagen::SsbData;
use pmem_ssb::queries::QueryId;
use pmem_ssb::{EngineMode, SsbStore, StorageDevice};
use pmem_store::{Namespace, Result};

/// Virtual bytes each row stands in for on the query plane, in scrub
/// pricing and in catch-up transfers. The demo data set is a miniature
/// (sf ≈ 0.002), so each row stands in for 4 KiB of the paper-scale
/// table — that keeps per-shard service times large enough to be
/// visible over the 10 µs interconnect, which is what the hedging
/// experiments are about.
pub const BYTES_PER_ROW: u64 = 4 << 10;

/// One shard's machine: a full `pmem-sim` + store stack of its own. The
/// row-format [`SsbStore`] backs the serving plane (admission, pricing);
/// the [`ColumnarFact`] is the scatter-gather scan target, checksummed
/// and replicated to the shard's ring successor.
#[derive(Debug)]
pub struct ShardMachine {
    /// Shard index this machine owns.
    pub shard: u32,
    /// Row-format store serving this machine's query/ingest plane.
    pub store: SsbStore,
    /// This shard's columnar partition (checksummed, scannable).
    pub fact: ColumnarFact,
    /// Namespace hosting replicas of peer shards' partitions.
    replica_ns: Namespace,
    /// Peer replicas hosted here: `(source shard, copy)`.
    pub replicas: Vec<(u32, ColumnarFact)>,
    /// Rows of the owned partition.
    pub rows: u64,
    /// Ground-truth Q1.1 partial over the owned partition, computed from
    /// the generated rows at load time — the committed data the cluster
    /// must never lose.
    pub committed: i64,
}

/// Whether every block of `fact` verifies against its sealed checksums.
pub(crate) fn scrubs_clean(fact: &ColumnarFact) -> bool {
    fact.scrub().iter().all(|(_, r)| r.is_clean())
}

/// The Q1.1 predicate/aggregate over one projected tuple — the
/// committed-data witness the failover tests compare against.
fn q11_term(orderdate: u32, discount: u8, quantity: u8, extendedprice: u32) -> i64 {
    if (19930101..19940101).contains(&orderdate) && (1..=3).contains(&discount) && quantity < 25 {
        extendedprice as i64 * discount as i64
    } else {
        0
    }
}

impl ShardMachine {
    /// Build shard `shard`'s machine from its partition. `replica_bytes`
    /// sizes the namespace that will host peer replicas (the cluster
    /// passes the largest partition's footprint plus slack).
    pub fn build(shard: u32, part: &SsbData, sf: f64, replica_bytes: u64) -> Result<Self> {
        let store = SsbStore::load(part, sf, EngineMode::Aware, StorageDevice::PmemFsdax)?;
        let rows = part.lineorder.len() as u64;
        // Own columnar namespace: 30 B/row across 9 column regions + slack.
        let fact_ns = Namespace::devdax(SocketId(0), rows.max(1) * 64 + (4 << 20));
        let fact = ColumnarFact::load(&fact_ns, part)?;
        let committed = part
            .lineorder
            .iter()
            .map(|r| q11_term(r.orderdate, r.discount, r.quantity, r.extendedprice))
            .sum();
        Ok(ShardMachine {
            shard,
            store,
            fact,
            replica_ns: Namespace::devdax(SocketId(1), replica_bytes),
            replicas: Vec::new(),
            rows,
            committed,
        })
    }

    /// The namespace peer replicas land in.
    pub fn replica_ns(&self) -> &Namespace {
        &self.replica_ns
    }

    /// Install (or refresh) the hosted replica of `source`'s partition.
    /// `copy` must have been replicated into [`Self::replica_ns`]; a
    /// refresh drops the copy it replaces, which returns its bytes.
    pub fn host_replica(&mut self, source: u32, copy: ColumnarFact) {
        self.drop_replica(source);
        self.replicas.push((source, copy));
    }

    /// Garbage-collect the hosted replica of `source` (the rejoin
    /// hand-back path: once the owner's shard is verified caught up, the
    /// extra copy re-replication made is redundant). Returns the bytes
    /// freed to [`Self::replica_ns`], or `None` if no such replica was
    /// hosted.
    pub fn drop_replica(&mut self, source: u32) -> Option<u64> {
        let index = self.replicas.iter().position(|(s, _)| *s == source)?;
        let (_, copy) = self.replicas.remove(index);
        // The copy's regions return their bytes as it drops.
        Some(copy.total_bytes())
    }

    /// The hosted replica of shard `source`, if this machine carries one.
    pub fn replica_of(&self, source: u32) -> Option<&ColumnarFact> {
        self.replicas
            .iter()
            .find(|(s, _)| *s == source)
            .map(|(_, f)| f)
    }

    /// Bytes one Q1.1 partial scan over this machine's partition is
    /// priced at on the query plane, [`BYTES_PER_ROW`] per row.
    pub fn virtual_scan_bytes(&self) -> u64 {
        self.rows.max(1) * BYTES_PER_ROW
    }

    /// Q1.1 partial aggregate over a columnar partition (4 threads; the
    /// per-thread partials sum associatively, so the result is
    /// scheduling-independent).
    pub fn q11_partial(fact: &ColumnarFact) -> i64 {
        fact.scan(
            Column::for_query(QueryId::Q1_1),
            4,
            || 0i64,
            |acc, t| *acc += q11_term(t.orderdate, t.discount, t.quantity, t.extendedprice),
        )
        .into_iter()
        .sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::partition::ShardMap;
    use pmem_ssb::datagen::generate;

    #[test]
    fn machine_partial_matches_committed_ground_truth() {
        let data = generate(0.002, 31);
        let parts = ShardMap::new(2).partition(&data);
        let m = ShardMachine::build(0, &parts[0], 0.002, 32 << 20).unwrap();
        assert_eq!(m.rows, parts[0].lineorder.len() as u64);
        assert_eq!(ShardMachine::q11_partial(&m.fact), m.committed);
        assert!(m.committed != 0, "predicate selects something at this sf");
    }

    #[test]
    fn hosted_replicas_replace_by_source() {
        let data = generate(0.001, 3);
        let parts = ShardMap::new(2).partition(&data);
        let mut host = ShardMachine::build(1, &parts[1], 0.001, 64 << 20).unwrap();
        let src = ShardMachine::build(0, &parts[0], 0.001, 32 << 20).unwrap();
        let copy1 = src.fact.replicate_to(host.replica_ns()).unwrap();
        let copy2 = src.fact.replicate_to(host.replica_ns()).unwrap();
        host.host_replica(0, copy1);
        host.host_replica(0, copy2);
        assert_eq!(host.replicas.len(), 1, "refresh replaces, never duplicates");
        assert!(host.replica_of(0).is_some());
        assert!(host.replica_of(1).is_none());

        let freed = host.drop_replica(0).expect("replica hosted");
        assert!(freed > 0, "GC reports the bytes it freed");
        assert!(host.replica_of(0).is_none(), "copy gone");
        assert_eq!(host.drop_replica(0), None, "double GC is a no-op");
    }

    #[test]
    fn replaced_and_dropped_replicas_return_their_namespace_bytes() {
        let data = generate(0.001, 5);
        let parts = ShardMap::new(2).partition(&data);
        let mut host = ShardMachine::build(1, &parts[1], 0.001, 64 << 20).unwrap();
        let src = ShardMachine::build(0, &parts[0], 0.001, 32 << 20).unwrap();
        let start = host.replica_ns().used();

        let copy = src.fact.replicate_to(host.replica_ns()).unwrap();
        let bytes = copy.total_bytes();
        host.host_replica(0, copy);
        assert_eq!(host.replica_ns().used(), start + bytes);

        // A refresh replaces the copy and releases the old one.
        let refresh = src.fact.replicate_to(host.replica_ns()).unwrap();
        host.host_replica(0, refresh);
        assert_eq!(host.replica_ns().used(), start + bytes);

        assert_eq!(host.drop_replica(0), Some(bytes));
        assert_eq!(host.replica_ns().used(), start, "GC returns every byte");
    }
}
