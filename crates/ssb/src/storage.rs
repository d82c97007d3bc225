//! Loading the generated SSB data into (simulated) device storage.
//!
//! The two execution modes mirror the paper's §6:
//!
//! * **Aware** (handcrafted, §6.2): the fact table is striped across the
//!   PMEM of both sockets, the small dimension tables are *replicated* on
//!   both sockets "to avoid far random access", and join indexes are built
//!   per socket — so every thread touches only near memory.
//! * **Unaware** (Hyrise-like, §6.1): everything lives on a single socket,
//!   there is no replication, and indexes are the PMEM-unaware chained
//!   table.
//!
//! Ingestion itself follows the write best practices: sequential
//! non-temporal stores in large chunks, fenced at the end of each table.

use std::sync::Arc;

use pmem_sim::topology::SocketId;
use pmem_store::{AccessHint, Namespace, Region, Result};

use crate::datagen::{cardinalities, Cardinalities, SsbData};
use crate::hyrise::{StageBuffers, INTERMEDIATE_ROW};
use crate::schema::{DateDim, GeoDim, Lineorder, PartDim, DIM_ROW, LINEORDER_ROW};

/// Execution mode (paper §6.1 vs §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// PMEM-aware handcrafted engine: dual-socket striping, replicated
    /// dimensions, Dash join indexes, pinned threads.
    Aware,
    /// PMEM-unaware engine (Hyrise stand-in): single socket, chained-hash
    /// join indexes, no NUMA awareness.
    Unaware,
}

/// Which device backs the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageDevice {
    /// App Direct PMEM via devdax.
    PmemDevdax,
    /// App Direct PMEM via fsdax (the paper's SSB runs use fsdax because
    /// Dash requires a filesystem interface, §6.2).
    PmemFsdax,
    /// DRAM (the contrast configuration).
    Dram,
}

impl StorageDevice {
    fn namespace(self, socket: SocketId, capacity: u64) -> Namespace {
        match self {
            StorageDevice::PmemDevdax => Namespace::devdax(socket, capacity),
            StorageDevice::PmemFsdax => Namespace::fsdax(socket, capacity),
            StorageDevice::Dram => Namespace::dram(socket, capacity),
        }
    }

    /// Device class for the timing model.
    pub fn device_class(self) -> pmem_sim::params::DeviceClass {
        match self {
            StorageDevice::Dram => pmem_sim::params::DeviceClass::Dram,
            _ => pmem_sim::params::DeviceClass::Pmem,
        }
    }
}

/// One socket's share of the database.
#[derive(Debug)]
pub struct SocketShard {
    /// The socket.
    pub socket: SocketId,
    /// Namespace holding the fact partition (tracked separately so scans
    /// are distinguishable from probes).
    pub fact_ns: Namespace,
    /// Namespace holding dimension tables.
    pub dim_ns: Namespace,
    /// Namespace join indexes are built in.
    pub index_ns: Namespace,
    /// Namespace for intermediates (aggregation state spill etc.).
    pub intermediate_ns: Namespace,
    /// Fact rows of this partition.
    pub fact_rows: u64,
    /// This partition of `lineorder`.
    pub fact: Arc<Region>,
    /// Replicated `date` table.
    pub dates: Arc<Region>,
    /// Replicated `customer` table.
    pub customers: Arc<Region>,
    /// Replicated `supplier` table.
    pub suppliers: Arc<Region>,
    /// Replicated `part` table.
    pub parts: Arc<Region>,
}

/// The loaded database.
#[derive(Debug)]
pub struct SsbStore {
    /// Execution mode it was loaded for.
    pub mode: EngineMode,
    /// Backing device.
    pub device: StorageDevice,
    /// One shard per participating socket (2 for Aware, 1 for Unaware).
    pub shards: Vec<SocketShard>,
    /// Cardinalities of the loaded data.
    pub card: Cardinalities,
    /// Scale factor.
    pub sf: f64,
    /// The unaware engine's stage buffers, reused from query to query.
    pub(crate) stage_buffers: StageBuffers,
}

/// Bytes of one spilled result row: the group key and its aggregate.
pub(crate) const RESULT_ROW: u64 = 16;

/// Capacity of each partition's intermediate namespace, from the
/// cardinalities alone. The unaware engine materializes up to one
/// [`INTERMEDIATE_ROW`] tuple per fact row per stage. A stage's output is
/// encoded while its input is read, so room is kept for two
/// partition-sized intermediates, although the engine drops the input
/// before the output lands; the query result, at most one [`RESULT_ROW`]
/// per fact row, spills beside them. Plus the same 1 MiB of slack the
/// fact and dimension namespaces get.
pub(crate) fn intermediate_capacity(card: &Cardinalities, partitions: u64) -> u64 {
    let rows = card.lineorder.div_ceil(partitions.max(1));
    rows * (2 * INTERMEDIATE_ROW + RESULT_ROW) + (1 << 20)
}

/// Rows per ingest chunk (512 × 128 B = 64 KB writes — well above the 4 KB
/// best-practice minimum, and writers are few).
const INGEST_CHUNK_ROWS: usize = 512;

/// Load `rows` into a fresh region of `row` bytes per row, sized for at
/// least `min_rows` rows: each chunk of [`INGEST_CHUNK_ROWS`] rows is
/// encoded into one buffer and lands as one sequential ntstore, and one
/// fence ends the load.
fn load_table<T>(
    ns: &Namespace,
    rows: &[T],
    row: u64,
    min_rows: u64,
    encode: impl Fn(&T, &mut [u8]),
) -> Result<Arc<Region>> {
    let mut region = ns.alloc_region((rows.len() as u64).max(min_rows) * row)?;
    let mut buf = vec![0u8; INGEST_CHUNK_ROWS * row as usize];
    for (chunk_idx, chunk) in rows.chunks(INGEST_CHUNK_ROWS).enumerate() {
        for (r, bytes) in chunk.iter().zip(buf.chunks_exact_mut(row as usize)) {
            encode(r, bytes);
        }
        let offset = chunk_idx as u64 * (INGEST_CHUNK_ROWS as u64 * row);
        region.try_ntstore(
            offset,
            &buf[..chunk.len() * row as usize],
            AccessHint::Sequential,
        )?;
    }
    region.sfence();
    Ok(Arc::new(region))
}

impl SsbStore {
    /// Load `data` for the given mode and device.
    pub fn load(data: &SsbData, sf: f64, mode: EngineMode, device: StorageDevice) -> Result<Self> {
        let sockets: &[SocketId] = match mode {
            EngineMode::Aware => &[SocketId(0), SocketId(1)],
            EngineMode::Unaware => &[SocketId(0)],
        };
        let partitions = sockets.len();
        let rows_per_partition = data.lineorder.len().div_ceil(partitions);

        let dim_bytes: u64 =
            (data.dates.len() + data.customers.len() + data.suppliers.len() + data.parts.len())
                as u64
                * DIM_ROW;

        let mut shards = Vec::with_capacity(partitions);
        for (p, &socket) in sockets.iter().enumerate() {
            let start = p * rows_per_partition;
            let end = ((p + 1) * rows_per_partition).min(data.lineorder.len());
            let part_rows = &data.lineorder[start..end];

            let fact_ns =
                device.namespace(socket, part_rows.len() as u64 * LINEORDER_ROW + (1 << 20));
            let dim_ns = device.namespace(socket, dim_bytes * 2 + (1 << 20));
            // Index namespace: join indexes over the dimensions, generously
            // sized (Dash segments have slack).
            let index_ns = device.namespace(socket, (dim_bytes * 24).max(64 << 20));
            let intermediate_ns = device.namespace(
                socket,
                intermediate_capacity(&cardinalities(sf), partitions as u64),
            );

            // A dimension region holds at least one row; a fact region
            // may be empty.
            let fact = load_table(&fact_ns, part_rows, LINEORDER_ROW, 0, Lineorder::encode)?;
            let dates = load_table(&dim_ns, &data.dates, DIM_ROW, 1, DateDim::encode)?;
            let customers = load_table(&dim_ns, &data.customers, DIM_ROW, 1, GeoDim::encode)?;
            let suppliers = load_table(&dim_ns, &data.suppliers, DIM_ROW, 1, GeoDim::encode)?;
            let parts = load_table(&dim_ns, &data.parts, DIM_ROW, 1, PartDim::encode)?;

            shards.push(SocketShard {
                socket,
                fact_ns,
                dim_ns,
                index_ns,
                intermediate_ns,
                fact_rows: part_rows.len() as u64,
                fact,
                dates,
                customers,
                suppliers,
                parts,
            });
        }

        Ok(SsbStore {
            mode,
            device,
            shards,
            card: cardinalities(sf),
            sf,
            stage_buffers: StageBuffers::default(),
        })
    }

    /// Convenience: generate + load in one step.
    pub fn generate_and_load(
        sf: f64,
        seed: u64,
        mode: EngineMode,
        device: StorageDevice,
    ) -> Result<Self> {
        let data = crate::datagen::generate(sf, seed);
        Self::load(&data, sf, mode, device)
    }

    /// Total fact rows across shards.
    pub fn fact_rows(&self) -> u64 {
        self.shards.iter().map(|s| s.fact_rows).sum()
    }

    /// Reset every tracker, so the store-wide counts start from zero
    /// (e.g. after the load). A query's reported traffic is its own and
    /// does not depend on the trackers.
    pub fn reset_trackers(&self) {
        for shard in &self.shards {
            shard.fact_ns.tracker().reset();
            shard.dim_ns.tracker().reset();
            shard.index_ns.tracker().reset();
            shard.intermediate_ns.tracker().reset();
        }
    }

    /// Bytes of fact data ingested (for the ingest experiment).
    pub fn fact_bytes(&self) -> u64 {
        self.fact_rows() * LINEORDER_ROW
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::schema::Lineorder;

    fn tiny() -> SsbStore {
        SsbStore::generate_and_load(0.002, 11, EngineMode::Aware, StorageDevice::PmemDevdax)
            .unwrap()
    }

    #[test]
    fn aware_mode_stripes_across_two_sockets() {
        let store = tiny();
        assert_eq!(store.shards.len(), 2);
        assert_eq!(store.shards[0].socket, SocketId(0));
        assert_eq!(store.shards[1].socket, SocketId(1));
        let total: u64 = store.fact_rows();
        assert_eq!(total, store.card.lineorder);
        // Partitions are balanced within one chunk.
        let diff = store.shards[0]
            .fact_rows
            .abs_diff(store.shards[1].fact_rows);
        assert!(diff <= 1, "unbalanced partitions: {diff}");
    }

    #[test]
    fn unaware_mode_uses_one_socket() {
        let store =
            SsbStore::generate_and_load(0.002, 11, EngineMode::Unaware, StorageDevice::PmemFsdax)
                .unwrap();
        assert_eq!(store.shards.len(), 1);
        assert_eq!(store.fact_rows(), store.card.lineorder);
    }

    #[test]
    fn loaded_rows_decode_back() {
        let data = crate::datagen::generate(0.002, 11);
        let store =
            SsbStore::load(&data, 0.002, EngineMode::Aware, StorageDevice::PmemDevdax).unwrap();
        // First row of shard 0 is the first generated row.
        let bytes = store.shards[0]
            .fact
            .read(0, LINEORDER_ROW, AccessHint::Sequential);
        assert_eq!(Lineorder::decode(bytes), data.lineorder[0]);
        // First row of shard 1 is the row at the partition boundary.
        let boundary = store.shards[0].fact_rows as usize;
        let bytes = store.shards[1]
            .fact
            .read(0, LINEORDER_ROW, AccessHint::Sequential);
        assert_eq!(Lineorder::decode(bytes), data.lineorder[boundary]);
    }

    #[test]
    fn dimensions_are_replicated_per_shard() {
        let store = tiny();
        for shard in &store.shards {
            assert_eq!(shard.dates.len(), 2557 * DIM_ROW);
            assert_eq!(shard.parts.len(), store.card.part as u64 * DIM_ROW);
        }
    }

    #[test]
    fn ingest_is_sequential_and_persisted() {
        let store = tiny();
        for shard in &store.shards {
            let snap = shard.fact_ns.tracker().snapshot();
            assert_eq!(snap.rand_write_bytes, 0, "ingest must be sequential");
            assert_eq!(snap.seq_write_bytes, shard.fact_rows * LINEORDER_ROW);
            assert!(snap.sfences >= 1);
            assert!(shard.fact.is_persisted(0, shard.fact.len()));
        }
    }

    #[test]
    fn reset_trackers_clears_ingest_traffic() {
        let store = tiny();
        store.reset_trackers();
        for shard in &store.shards {
            assert_eq!(shard.fact_ns.tracker().snapshot().write_bytes(), 0);
        }
    }

    #[test]
    fn intermediate_namespace_covers_the_unaware_peak_at_every_rung() {
        for sf in [0.01, 0.05, 0.1, 0.2, 0.5, 1.0] {
            let card = cardinalities(sf);
            // Stage 0 of a query without a row filter (Q2.1) materializes
            // every fact row, and room is kept for the next stage's output
            // beside it; result groups never outnumber fact rows.
            let intermediate = card.lineorder * INTERMEDIATE_ROW;
            let spill = card.lineorder * RESULT_ROW;
            let capacity = intermediate_capacity(&card, 1);
            assert!(
                capacity >= 2 * intermediate + spill,
                "sf {sf}: {capacity} B < {} B",
                2 * intermediate + spill
            );
            // Aware partitions hold half the rows each and only spill.
            assert!(intermediate_capacity(&card, 2) >= spill, "sf {sf}");
        }
        // The 64 MiB the namespace used to get is short from SF 0.2 on.
        assert!(cardinalities(0.2).lineorder * INTERMEDIATE_ROW > 64 << 20);
    }

    #[test]
    fn dram_store_is_not_persistent() {
        let store =
            SsbStore::generate_and_load(0.002, 11, EngineMode::Aware, StorageDevice::Dram).unwrap();
        assert!(!store.shards[0].fact.is_persistent());
    }
}
