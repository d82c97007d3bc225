//! Columnar fact-table storage — the "future system design" the paper's
//! introduction motivates.
//!
//! The handcrafted engine (like the paper's) stores 128 B rows and streams
//! whole rows even when a query touches four fields. A column store reads
//! only the referenced columns: Q1.1 touches 10 bytes per tuple instead of
//! 128 — a 12.8× reduction in scan traffic that matters far more on PMEM's
//! 40 GB/s than on DRAM's 185 GB/s. This module provides a columnar layout
//! for `lineorder`, a column-projected parallel scan, and the per-query
//! scan-byte comparison.

use std::convert::Infallible;
use std::sync::Arc;

use pmem_store::scrub::{BlockChecksums, ScrubReport, SCRUB_BLOCK};
use pmem_store::{AccessHint, Namespace, Region, Result, StoreError};

use crate::datagen::SsbData;
use crate::engine::par_chunks;
use crate::integrity::{repair_region, IntegrityRepair};
use crate::queries::QueryId;
use crate::schema::LINEORDER_ROW;

/// Rows per scan chunk: 16 KB per `u32` column, and 4 KB-aligned byte
/// offsets in every column.
const CHUNK: u64 = 4096;

/// The `lineorder` columns the SSB queries reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Column {
    /// Order date key (u32).
    OrderDate,
    /// Part foreign key (u32).
    PartKey,
    /// Supplier foreign key (u32).
    SuppKey,
    /// Customer foreign key (u32).
    CustKey,
    /// Quantity (u8).
    Quantity,
    /// Discount (u8).
    Discount,
    /// Extended price (u32).
    ExtendedPrice,
    /// Revenue (u32).
    Revenue,
    /// Supply cost (u32).
    SupplyCost,
}

impl Column {
    /// All stored columns.
    pub const ALL: [Column; 9] = [
        Column::OrderDate,
        Column::PartKey,
        Column::SuppKey,
        Column::CustKey,
        Column::Quantity,
        Column::Discount,
        Column::ExtendedPrice,
        Column::Revenue,
        Column::SupplyCost,
    ];

    /// Bytes per value.
    pub fn width(self) -> u64 {
        match self {
            Column::Quantity | Column::Discount => 1,
            _ => 4,
        }
    }

    /// Stable identity of the column as a buffer-pool heat object (its
    /// position in [`Column::ALL`]).
    pub fn object_id(self) -> u64 {
        Column::ALL
            .iter()
            .position(|&c| c == self)
            .unwrap_or_default() as u64
    }

    /// Columns referenced by a query (scan side only).
    pub fn for_query(query: QueryId) -> &'static [Column] {
        use Column::*;
        match query {
            QueryId::Q1_1 | QueryId::Q1_2 | QueryId::Q1_3 => {
                &[OrderDate, Quantity, Discount, ExtendedPrice]
            }
            QueryId::Q2_1 | QueryId::Q2_2 | QueryId::Q2_3 => {
                &[OrderDate, PartKey, SuppKey, Revenue]
            }
            QueryId::Q3_1 | QueryId::Q3_2 | QueryId::Q3_3 | QueryId::Q3_4 => {
                &[OrderDate, CustKey, SuppKey, Revenue]
            }
            QueryId::Q4_1 | QueryId::Q4_2 | QueryId::Q4_3 => {
                &[OrderDate, PartKey, SuppKey, CustKey, Revenue, SupplyCost]
            }
        }
    }

    /// Bytes per tuple for a column set.
    pub fn tuple_bytes(columns: &[Column]) -> u64 {
        columns.iter().map(|c| c.width()).sum()
    }
}

/// One tuple's projected values (unreferenced columns are zero).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ColTuple {
    /// Order date key.
    pub orderdate: u32,
    /// Part key.
    pub partkey: u32,
    /// Supplier key.
    pub suppkey: u32,
    /// Customer key.
    pub custkey: u32,
    /// Quantity.
    pub quantity: u8,
    /// Discount.
    pub discount: u8,
    /// Extended price.
    pub extendedprice: u32,
    /// Revenue.
    pub revenue: u32,
    /// Supply cost.
    pub supplycost: u32,
}

/// A columnar `lineorder` partition: one region per column, with per-block
/// FNV checksums sealed at load time so chunks can be verified and — when a
/// media error poisons them — rebuilt from a replica
/// ([`ColumnarFact::repair_from_replica`]).
#[derive(Debug)]
pub struct ColumnarFact {
    rows: u64,
    columns: Vec<(Column, Arc<Region>)>,
    /// Per-column block checksums, parallel to `columns`.
    checks: Vec<BlockChecksums>,
}

impl ColumnarFact {
    /// Load all columns of `data` into `ns`, sealing per-block checksums
    /// over each column as it lands (from the staging buffer, so sealing
    /// adds no device reads). On any error the column regions already
    /// allocated in `ns` drop and return their bytes, so `ns.used()` is
    /// what it was before the call.
    pub fn load(ns: &Namespace, data: &SsbData) -> Result<Self> {
        let rows = data.lineorder.len() as u64;
        let mut columns = Vec::with_capacity(Column::ALL.len());
        let mut checks = Vec::with_capacity(Column::ALL.len());
        for column in Column::ALL {
            let width = column.width();
            let mut region = ns.alloc_region(rows.max(1) * width)?;
            let mut buf = Vec::with_capacity((rows * width) as usize);
            for lo in &data.lineorder {
                match column {
                    Column::OrderDate => buf.extend_from_slice(&lo.orderdate.to_le_bytes()),
                    Column::PartKey => buf.extend_from_slice(&lo.partkey.to_le_bytes()),
                    Column::SuppKey => buf.extend_from_slice(&lo.suppkey.to_le_bytes()),
                    Column::CustKey => buf.extend_from_slice(&lo.custkey.to_le_bytes()),
                    Column::Quantity => buf.push(lo.quantity),
                    Column::Discount => buf.push(lo.discount),
                    Column::ExtendedPrice => buf.extend_from_slice(&lo.extendedprice.to_le_bytes()),
                    Column::Revenue => buf.extend_from_slice(&lo.revenue.to_le_bytes()),
                    Column::SupplyCost => buf.extend_from_slice(&lo.supplycost.to_le_bytes()),
                }
            }
            if !buf.is_empty() {
                region.try_ntstore(0, &buf, AccessHint::Sequential)?;
                region.sfence();
            }
            checks.push(BlockChecksums::seal_bytes(
                region.untracked_slice(),
                SCRUB_BLOCK,
            ));
            columns.push((column, Arc::new(region)));
        }
        Ok(ColumnarFact {
            rows,
            columns,
            checks,
        })
    }

    /// Stored rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Inject an uncorrectable media error into one column's region (test /
    /// fault-plan hook). Requires exclusive ownership of the region — no
    /// scan may be in flight. Returns the number of newly poisoned XPLines.
    pub fn inject_poison(&mut self, column: Column, offset: u64, len: u64) -> u64 {
        let region = self
            .columns
            .iter_mut()
            .find(|(c, _)| *c == column)
            .map(|(_, r)| r)
            .expect("column stored");
        Arc::get_mut(region)
            .expect("no scan in flight during poison injection")
            .inject_poison(offset, len)
    }

    /// Scrub every column against its sealed checksums, returning one
    /// report per column (in [`Column::ALL`] order).
    pub fn scrub(&self) -> Vec<(Column, ScrubReport)> {
        self.columns
            .iter()
            .zip(self.checks.iter())
            .map(|((column, region), checks)| (*column, checks.scrub(region)))
            .collect()
    }

    /// Copy every column into `ns`, producing an independent replica of
    /// this partition (the peer-shard copy the cluster keeps). The copy
    /// goes through tracked reads and `ntstore` writes, so replication
    /// traffic is priced on both namespaces, and the replica seals its
    /// own checksums over the landed bytes.
    ///
    /// Fails with [`StoreError::Poisoned`] if any source column holds a
    /// poisoned or checksum-mismatched block — a dirty table must be
    /// repaired before it may serve as a replication source. On any error
    /// the column regions already allocated in `ns` drop and return their
    /// bytes, so `ns.used()` is what it was before the call.
    pub fn replicate_to(&self, ns: &Namespace) -> Result<ColumnarFact> {
        let mut columns = Vec::with_capacity(self.columns.len());
        let mut checks = Vec::with_capacity(self.columns.len());
        for ((column, region), check) in self.columns.iter().zip(self.checks.iter()) {
            if !check.scrub(region).is_clean() {
                return Err(StoreError::Poisoned { offset: 0, len: 0 });
            }
            let len = region.len();
            let bytes = region.try_read(0, len, AccessHint::Sequential)?.to_vec();
            let mut copy = ns.alloc_region(len)?;
            if !bytes.is_empty() {
                copy.try_ntstore(0, &bytes, AccessHint::Sequential)?;
                copy.sfence();
            }
            checks.push(BlockChecksums::seal_bytes(
                copy.untracked_slice(),
                SCRUB_BLOCK,
            ));
            columns.push((*column, Arc::new(copy)));
        }
        Ok(ColumnarFact {
            rows: self.rows,
            columns,
            checks,
        })
    }

    /// Rebuild every poisoned or checksum-mismatched block from a *remote
    /// replica* of the same partition. The replica is scrubbed first; a dirty replica is refused with [`StoreError::Poisoned`]
    /// before anything is rewritten (this table stays untouched, awaiting
    /// a good source). Each bad block's byte range is read from the
    /// replica's matching column with checked reads, rewritten here with
    /// `ntstore` (clearing the poison), and verified against this table's
    /// sealed checksum — so a repaired block is byte-exact by
    /// construction, and a divergent replica shows up as `unrepairable`
    /// rather than silent corruption.
    ///
    /// Fails with [`StoreError::OutOfBounds`] if the replica holds fewer
    /// rows than this table.
    pub fn repair_from_replica(&mut self, replica: &ColumnarFact) -> Result<IntegrityRepair> {
        if replica.rows() < self.rows {
            return Err(StoreError::OutOfBounds {
                offset: 0,
                len: self.rows,
                capacity: replica.rows(),
            });
        }
        if replica.scrub().iter().any(|(_, r)| !r.is_clean()) {
            // The rebuild source itself is dirty: refuse loudly.
            return Err(StoreError::Poisoned { offset: 0, len: 0 });
        }
        let mut repair = IntegrityRepair::default();
        for ((column, region), checks) in self.columns.iter_mut().zip(self.checks.iter()) {
            let bad = checks.scrub(region).bad_blocks();
            if bad.is_empty() {
                continue;
            }
            let region = Arc::get_mut(region).expect("no scan in flight during repair");
            repair.absorb(repair_region(
                region,
                checks,
                replica.region(*column),
                &bad,
            )?);
        }
        Ok(repair)
    }

    /// Anti-entropy hash exchange: recompute this table's per-block
    /// content hashes from its *current* bytes and compare them against
    /// the replica's sealed checksums, block by block. A block diverges
    /// when it no longer reads (`Poisoned`) or its hash disagrees with
    /// the replica's sum. Only the hash tables cross the wire (8 bytes
    /// per [`SCRUB_BLOCK`] both ways, see [`BlockDiff::hash_bytes`]) —
    /// the data itself ships later, and only for the divergent blocks
    /// ([`ColumnarFact::apply_diff`]).
    ///
    /// Fails with [`StoreError::OutOfBounds`] if the replica holds fewer
    /// rows than this table.
    pub fn diff_blocks(&self, replica: &ColumnarFact) -> Result<BlockDiff> {
        if replica.rows() < self.rows {
            return Err(StoreError::OutOfBounds {
                offset: 0,
                len: self.rows,
                capacity: replica.rows(),
            });
        }
        let mut diff = BlockDiff::default();
        for (((column, region), checks), theirs) in self
            .columns
            .iter()
            .zip(self.checks.iter())
            .zip(replica.checks.iter())
        {
            let mut divergent = Vec::new();
            for block in 0..checks.blocks() {
                diff.blocks_examined += 1;
                // Both sides ship their 8-byte sum for this block.
                diff.hash_bytes += 16;
                let (offset, n) = checks.block_range(block);
                let diverges = match region.try_read(offset, n, AccessHint::Sequential) {
                    Err(_) => true, // unreadable here — must be re-shipped
                    Ok(bytes) => {
                        pmem_store::scrub::fnv64(pmem_store::scrub::FNV_OFFSET, bytes)
                            != theirs.block_sum(block)
                    }
                };
                if diverges {
                    divergent.push(block);
                }
            }
            if !divergent.is_empty() {
                diff.per_column.push((*column, divergent));
            }
        }
        Ok(diff)
    }

    /// Ship the divergent blocks of `diff` from `replica` into this
    /// table: each block is read from the replica with checked reads and
    /// rewritten here with `ntstore` (clearing poison), the
    /// [`ColumnarFact::repair_from_replica`]-style verified copy. A
    /// replica block that cannot be read is *refused* — counted
    /// `unrepairable`, this table's block left untouched — never written
    /// blind.
    ///
    /// With `verify` on, every landed block is checked against this
    /// table's sealed checksum, and a final scrub pass re-fetches any
    /// block that went bad *after* the diff was computed (media errors
    /// land mid-catch-up too); [`AntiEntropyReport::clean`] then reports
    /// the verified end state. With `verify` off the copy is trusted
    /// blindly — `clean` claims success without evidence, which is
    /// exactly the regression the chaos fuzzer exists to catch.
    pub fn apply_diff(
        &mut self,
        replica: &ColumnarFact,
        diff: &BlockDiff,
        verify: bool,
    ) -> Result<AntiEntropyReport> {
        if replica.rows() < self.rows {
            return Err(StoreError::OutOfBounds {
                offset: 0,
                len: self.rows,
                capacity: replica.rows(),
            });
        }
        let mut report = AntiEntropyReport {
            blocks_examined: diff.blocks_examined,
            hash_bytes_exchanged: diff.hash_bytes,
            ..AntiEntropyReport::default()
        };
        for (column, blocks) in &diff.per_column {
            self.ship_blocks(replica, *column, blocks, verify, &mut report)?;
        }
        if verify {
            // Catch-all pass: blocks that diverged after the hash
            // exchange (or failed their landing check) are re-fetched.
            for pass in 0..2 {
                let bad: Vec<(Column, Vec<u64>)> = self
                    .columns
                    .iter()
                    .zip(self.checks.iter())
                    .map(|((c, region), checks)| (*c, checks.scrub(region).bad_blocks()))
                    .filter(|(_, bad)| !bad.is_empty())
                    .collect();
                if bad.is_empty() {
                    break;
                }
                if pass == 1 {
                    // Still dirty after a re-fetch: the replica cannot
                    // supply good bytes. Refuse to claim success.
                    break;
                }
                for (column, blocks) in &bad {
                    report.refetched_blocks += blocks.len() as u64;
                    self.ship_blocks(replica, *column, blocks, true, &mut report)?;
                }
            }
            report.clean = self
                .columns
                .iter()
                .zip(self.checks.iter())
                .all(|((_, region), checks)| checks.scrub(region).is_clean());
        } else {
            // Verification disabled: the protocol asserts cleanliness it
            // never checked.
            report.clean = true;
        }
        Ok(report)
    }

    /// One-shot incremental anti-entropy: hash exchange, then verified
    /// shipping of only the divergent blocks. See
    /// [`ColumnarFact::diff_blocks`] / [`ColumnarFact::apply_diff`].
    pub fn catch_up_from_replica(
        &mut self,
        replica: &ColumnarFact,
        verify: bool,
    ) -> Result<AntiEntropyReport> {
        let diff = self.diff_blocks(replica)?;
        self.apply_diff(replica, &diff, verify)
    }

    fn ship_blocks(
        &mut self,
        replica: &ColumnarFact,
        column: Column,
        blocks: &[u64],
        verify: bool,
        report: &mut AntiEntropyReport,
    ) -> Result<()> {
        let source = replica.region(column).clone();
        let (region, checks) = self
            .columns
            .iter_mut()
            .zip(self.checks.iter())
            .find(|((c, _), _)| *c == column)
            .map(|((_, r), checks)| (r, checks))
            .expect("column stored");
        let region = Arc::get_mut(region).expect("no scan in flight during catch-up");
        for &block in blocks {
            let (offset, n) = checks.block_range(block);
            let good = match source.try_read(offset, n, AccessHint::Sequential) {
                Ok(bytes) => bytes,
                Err(_) => {
                    // The replica's copy of this block is itself bad:
                    // refuse rather than launder unverifiable bytes.
                    report.unrepairable += 1;
                    continue;
                }
            };
            region.try_ntstore(offset, good, AccessHint::Sequential)?;
            report.blocks_shipped += 1;
            report.bytes_shipped += n;
            if verify && !checks.verify_block(region, block).unwrap_or(false) {
                report.unrepairable += 1;
            }
        }
        region.sfence();
        Ok(())
    }

    /// FNV-1a content hash over every column's bytes (untracked — a
    /// fingerprint for byte-exactness assertions, not device traffic).
    pub fn content_hash(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (_, region) in &self.columns {
            for &byte in region.untracked_slice() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Total bytes across all column regions.
    pub fn total_bytes(&self) -> u64 {
        self.columns.iter().map(|(_, r)| r.len()).sum()
    }

    fn region(&self, column: Column) -> &Arc<Region> {
        &self
            .columns
            .iter()
            .find(|(c, _)| *c == column)
            .expect("column stored")
            .1
    }

    /// Parallel projected scan: stream only `projection`, assembling
    /// [`ColTuple`]s chunk by chunk. Each worker counts its reads into a
    /// tally of its own, which lands in the namespace tracker before the
    /// scan returns. Returns the per-thread accumulators.
    pub fn scan<A, F>(
        &self,
        projection: &[Column],
        threads: u32,
        make_acc: impl Fn() -> A + Sync,
        visit: F,
    ) -> Vec<A>
    where
        A: Send,
        F: Fn(&mut A, &ColTuple) + Sync,
    {
        // Every column region reports into the tracker of the namespace
        // they were loaded into.
        let tracker = self.columns[0].1.tracker();
        let workers = par_chunks::<_, Infallible>(
            self.rows.div_ceil(CHUNK),
            threads,
            || (make_acc(), Vec::new(), tracker.tally()),
            |(acc, tuples, reads), chunk| {
                let (start, n) = self.chunk_rows(chunk, tuples);
                for &column in projection {
                    let width = column.width();
                    let bytes = self.region(column).read_tallied(
                        start * width,
                        n * width,
                        AccessHint::Sequential,
                        reads,
                    );
                    fill_column(column, bytes, tuples);
                }
                for t in tuples.iter() {
                    visit(acc, t);
                }
                Ok(())
            },
        );
        let workers = workers.unwrap_or_else(|never| match never {});
        workers.into_iter().map(|(acc, ..)| acc).collect()
    }

    /// The first row and the row count of scan chunk `chunk`, with
    /// `tuples` reset to that many default tuples.
    fn chunk_rows(&self, chunk: u64, tuples: &mut Vec<ColTuple>) -> (u64, u64) {
        let start = chunk * CHUNK;
        let n = CHUNK.min(self.rows - start);
        tuples.clear();
        tuples.resize(n as usize, ColTuple::default());
        (start, n)
    }

    /// Bytes one column occupies.
    pub fn column_bytes(&self, column: Column) -> u64 {
        self.rows * column.width()
    }

    /// Like [`ColumnarFact::scan`], but every 4 KB column page is routed
    /// through the DRAM hot tier: hits read the buffer frame (DRAM
    /// traffic), misses stream from the PMEM column region and may fill a
    /// frame. Before scanning, the projection's heat is reported to the
    /// pool and admission is replanned, so repeated scans of hot columns
    /// migrate into DRAM while cold columns keep streaming from PMEM.
    ///
    /// Chunk byte offsets are 4 KB-aligned by construction (4096-row
    /// chunks × 1- or 4-byte columns), so one buffer page never spans a
    /// chunk boundary and concurrent workers share frames cleanly.
    pub fn scan_buffered<A, F>(
        &self,
        pool: &pmem_buffer::BufferPool,
        projection: &[Column],
        threads: u32,
        make_acc: impl Fn() -> A + Sync,
        visit: F,
    ) -> Result<Vec<A>>
    where
        A: Send,
        F: Fn(&mut A, &ColTuple) + Sync,
    {
        for &column in projection {
            let bytes = self.column_bytes(column);
            pool.observe(column.object_id(), bytes, bytes);
        }
        pool.replan();
        let workers = par_chunks(
            self.rows.div_ceil(CHUNK),
            threads,
            || (make_acc(), Vec::new(), Vec::new()),
            |(acc, tuples, buf), chunk| {
                let (start, n) = self.chunk_rows(chunk, tuples);
                for &column in projection {
                    let width = column.width();
                    let region = self.region(column);
                    let mut off = start * width;
                    let end = off + n * width;
                    buf.clear();
                    while off < end {
                        let page_len = (end - off).min(pmem_buffer::FRAME_BYTES);
                        pool.read_through(
                            pmem_buffer::PageKey {
                                object: column.object_id(),
                                page: off / pmem_buffer::FRAME_BYTES,
                            },
                            region,
                            off,
                            page_len,
                            buf,
                        )?;
                        off += page_len;
                    }
                    fill_column(column, buf, tuples);
                }
                for t in tuples.iter() {
                    visit(acc, t);
                }
                Ok(())
            },
        )?;
        Ok(workers.into_iter().map(|(acc, _, _)| acc).collect())
    }
}

/// The outcome of an anti-entropy hash exchange
/// ([`ColumnarFact::diff_blocks`]): which blocks of which columns
/// diverge between a rejoining table and its replica, plus the wire
/// cost of finding out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockDiff {
    /// Divergent blocks per column, in [`Column::ALL`] order; columns
    /// with no divergence are omitted.
    pub per_column: Vec<(Column, Vec<u64>)>,
    /// Blocks compared across all columns.
    pub blocks_examined: u64,
    /// Bytes of checksums exchanged (8 per block each way).
    pub hash_bytes: u64,
}

impl BlockDiff {
    /// Total divergent blocks across all columns.
    pub fn divergent_blocks(&self) -> u64 {
        self.per_column.iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// Whether the two copies agreed everywhere.
    pub fn is_empty(&self) -> bool {
        self.per_column.is_empty()
    }
}

/// The outcome of an incremental anti-entropy catch-up
/// ([`ColumnarFact::apply_diff`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AntiEntropyReport {
    /// Blocks compared during the hash exchange.
    pub blocks_examined: u64,
    /// Checksum bytes exchanged to find the divergence.
    pub hash_bytes_exchanged: u64,
    /// Divergent blocks shipped from the replica.
    pub blocks_shipped: u64,
    /// Data bytes shipped (the incremental transfer the protocol exists
    /// to keep small).
    pub bytes_shipped: u64,
    /// Blocks the final verification pass had to fetch a second time
    /// (they went bad after the hash exchange).
    pub refetched_blocks: u64,
    /// Blocks that could not be restored to a checksum-valid state (a
    /// bad replica source, or a landing check that kept failing).
    pub unrepairable: u64,
    /// Whether the table ended the catch-up clean. Verified by a final
    /// scrub when verification is on; *asserted without evidence* when
    /// verification is off.
    pub clean: bool,
}

impl AntiEntropyReport {
    /// Whether the catch-up may hand the shard back: nothing
    /// unrepairable and the end state (claims to be) clean.
    pub fn is_fully_caught_up(&self) -> bool {
        self.unrepairable == 0 && self.clean
    }
}

fn fill_column(column: Column, bytes: &[u8], tuples: &mut [ColTuple]) {
    let width = column.width() as usize;
    for (i, t) in tuples.iter_mut().enumerate() {
        let chunk = &bytes[i * width..(i + 1) * width];
        let u32v = || u32::from_le_bytes(chunk.try_into().expect("4"));
        match column {
            Column::OrderDate => t.orderdate = u32v(),
            Column::PartKey => t.partkey = u32v(),
            Column::SuppKey => t.suppkey = u32v(),
            Column::CustKey => t.custkey = u32v(),
            Column::Quantity => t.quantity = chunk[0],
            Column::Discount => t.discount = chunk[0],
            Column::ExtendedPrice => t.extendedprice = u32v(),
            Column::Revenue => t.revenue = u32v(),
            Column::SupplyCost => t.supplycost = u32v(),
        }
    }
}

/// Scan-byte comparison of the row format against a column store, per
/// query — the quantitative case for columnar PMEM scans.
#[derive(Debug, Clone, Copy)]
pub struct ScanComparison {
    /// Which query.
    pub query: QueryId,
    /// Bytes per tuple in the 128 B row format.
    pub row_bytes: u64,
    /// Bytes per tuple in the columnar projection.
    pub column_bytes: u64,
}

impl ScanComparison {
    /// Row/column scan-traffic ratio (the columnar speed-up bound for
    /// scan-dominated queries).
    pub fn reduction(&self) -> f64 {
        self.row_bytes as f64 / self.column_bytes as f64
    }
}

/// Per-query scan comparison for all 13 queries.
pub fn scan_comparisons() -> Vec<ScanComparison> {
    QueryId::ALL
        .iter()
        .map(|&query| ScanComparison {
            query,
            row_bytes: LINEORDER_ROW,
            column_bytes: Column::tuple_bytes(Column::for_query(query)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::datagen::generate;
    use pmem_sim::topology::SocketId;
    use pmem_store::TrackerSnapshot;

    fn setup() -> (SsbData, ColumnarFact, Namespace) {
        let data = generate(0.003, 77);
        let ns = Namespace::devdax(SocketId(0), 64 << 20);
        let fact = ColumnarFact::load(&ns, &data).unwrap();
        (data, fact, ns)
    }

    #[test]
    fn projected_scan_reconstructs_column_values() {
        let (data, fact, _ns) = setup();
        assert_eq!(fact.rows(), data.lineorder.len() as u64);
        let sums = fact.scan(
            &[Column::Revenue, Column::Quantity],
            4,
            || (0u64, 0u64),
            |acc, t| {
                acc.0 += t.revenue as u64;
                acc.1 += t.quantity as u64;
            },
        );
        let (rev, qty) = sums.into_iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        assert_eq!(
            rev,
            data.lineorder.iter().map(|l| l.revenue as u64).sum::<u64>()
        );
        assert_eq!(
            qty,
            data.lineorder
                .iter()
                .map(|l| l.quantity as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn q1_1_on_columnar_matches_the_reference() {
        let (data, fact, _ns) = setup();
        let partials = fact.scan(
            Column::for_query(QueryId::Q1_1),
            4,
            || 0i64,
            |acc, t| {
                if (19930101..19940101).contains(&t.orderdate)
                    && (1..=3).contains(&t.discount)
                    && t.quantity < 25
                {
                    *acc += t.extendedprice as i64 * t.discount as i64;
                }
            },
        );
        let total: i64 = partials.iter().sum();
        let reference = crate::reference::reference_query(&data, QueryId::Q1_1);
        assert_eq!(total, reference[0].1);
    }

    #[test]
    fn projected_scan_reads_only_the_projection() {
        let (_data, fact, ns) = setup();
        ns.tracker().reset();
        let projection = Column::for_query(QueryId::Q1_1);
        let _ = fact.scan(projection, 2, || (), |_, _| {});
        let snap = ns.tracker().snapshot();
        let expected = fact.rows() * Column::tuple_bytes(projection);
        assert_eq!(snap.seq_read_bytes, expected, "exactly the projection");
        assert_eq!(snap.rand_read_bytes, 0);
        // 10 B per tuple instead of 128.
        assert_eq!(Column::tuple_bytes(projection), 10);
    }

    #[test]
    fn a_scan_counts_exactly_its_projection() {
        let (_data, fact, ns) = setup();
        let chunks = fact.rows().div_ceil(4096);
        assert!(chunks > 4, "more chunks than workers");
        // Each column alone, then a query's six.
        let projections: Vec<Vec<Column>> = Column::ALL
            .iter()
            .map(|&column| vec![column])
            .chain([Column::for_query(QueryId::Q4_1).to_vec()])
            .collect();
        for threads in [1, 4] {
            for projection in &projections {
                let before = ns.tracker().snapshot();
                let _ = fact.scan(projection, threads, || (), |_, _| {});
                let delta = ns.tracker().snapshot().since(&before);
                // One sequential read per column per chunk; no random
                // bytes, no writes.
                let expected = TrackerSnapshot {
                    seq_read_bytes: projection.iter().map(|c| fact.rows() * c.width()).sum(),
                    read_ops: projection.len() as u64 * chunks,
                    ..TrackerSnapshot::default()
                };
                assert_eq!(delta, expected, "{threads} threads, {projection:?}");
            }
        }
    }

    #[test]
    fn scan_comparisons_show_large_reductions() {
        let comps = scan_comparisons();
        assert_eq!(comps.len(), 13);
        for c in &comps {
            assert!(
                c.reduction() >= 5.0,
                "{}: only {:.1}x",
                c.query.name(),
                c.reduction()
            );
            assert!(c.column_bytes <= 24);
        }
        // QF1 is the most column-frugal flight.
        let q11 = comps.iter().find(|c| c.query == QueryId::Q1_1).unwrap();
        assert!((q11.reduction() - 128.0 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn load_seals_clean_checksums_for_every_column() {
        let (_data, fact, _ns) = setup();
        for (column, report) in fact.scrub() {
            assert!(report.is_clean(), "{column:?} dirty at load");
            assert!(report.blocks > 0);
        }
    }

    /// Q1.1 aggregate; the per-worker partials depend on thread scheduling,
    /// so only the sum is comparable across runs.
    fn run_q11(fact: &ColumnarFact) -> i64 {
        fact.scan(
            Column::for_query(QueryId::Q1_1),
            4,
            || 0i64,
            |acc, t| {
                if (19930101..19940101).contains(&t.orderdate)
                    && (1..=3).contains(&t.discount)
                    && t.quantity < 25
                {
                    *acc += t.extendedprice as i64 * t.discount as i64;
                }
            },
        )
        .into_iter()
        .sum()
    }

    #[test]
    fn replicate_to_is_byte_exact_and_priced() {
        let (_data, fact, _ns) = setup();
        let peer = Namespace::devdax(SocketId(1), 64 << 20);
        peer.tracker().reset();
        let replica = fact.replicate_to(&peer).unwrap();
        assert_eq!(replica.rows(), fact.rows());
        assert_eq!(replica.content_hash(), fact.content_hash(), "byte-exact");
        assert_eq!(run_q11(&replica), run_q11(&fact));
        for (column, report) in replica.scrub() {
            assert!(report.is_clean(), "{column:?} dirty after replication");
        }
        // Replication traffic lands on the replica's namespace.
        let snap = peer.tracker().snapshot();
        assert!(snap.write_bytes() >= fact.total_bytes());
    }

    #[test]
    fn poisoned_blocks_are_rebuilt_from_the_replica() {
        let (_data, mut fact, _ns) = setup();
        let peer = Namespace::devdax(SocketId(1), 64 << 20);
        let replica = fact.replicate_to(&peer).unwrap();
        let before = run_q11(&fact);
        let hash_before = fact.content_hash();

        fact.inject_poison(Column::Revenue, 4096, 16);
        fact.inject_poison(Column::ExtendedPrice, 8192, 300);
        fact.inject_poison(Column::Quantity, 0, 16);
        let dirty: u64 = fact
            .scrub()
            .iter()
            .map(|(_, r)| r.poisoned.len() as u64)
            .sum();
        assert!(dirty >= 3, "poison landed");

        let repair = fact.repair_from_replica(&replica).unwrap();
        assert!(repair.is_fully_repaired());
        assert!(repair.blocks_repaired >= 3);
        for (_, report) in fact.scrub() {
            assert!(report.is_clean());
        }
        assert_eq!(fact.content_hash(), hash_before, "byte-exact rebuild");
        assert_eq!(run_q11(&fact), before);

        // Idempotent: a clean table has nothing left to repair.
        let again = fact.repair_from_replica(&replica).unwrap();
        assert_eq!(again, IntegrityRepair::default());
    }

    #[test]
    fn replica_repair_refuses_a_poisoned_replica() {
        let (_data, mut fact, _ns) = setup();
        let peer = Namespace::devdax(SocketId(1), 64 << 20);
        let mut replica = fact.replicate_to(&peer).unwrap();
        fact.inject_poison(Column::Revenue, 0, 16);
        // The replica takes its own media error: it cannot serve as a
        // rebuild source, and the table must stay untouched.
        replica.inject_poison(Column::Revenue, 0, 1);
        assert!(matches!(
            fact.repair_from_replica(&replica),
            Err(StoreError::Poisoned { .. })
        ));
        assert!(fact.scrub().iter().any(|(_, r)| !r.poisoned.is_empty()));
        // A dirty table likewise refuses to be a replication source.
        let other = Namespace::devdax(SocketId(0), 64 << 20);
        assert!(matches!(
            fact.replicate_to(&other),
            Err(StoreError::Poisoned { .. })
        ));
    }

    #[test]
    fn failed_replication_returns_every_byte_it_allocated() {
        let (_data, fact, _ns) = setup();
        // A namespace one byte short, 100 bytes of it already held, fails
        // on the last column's allocation after every other column landed.
        let short = Namespace::devdax(SocketId(1), fact.total_bytes() - 1);
        let _other = short.alloc_region(100).unwrap();
        let used0 = short.used();
        assert!(matches!(
            fact.replicate_to(&short),
            Err(StoreError::OutOfSpace { .. })
        ));
        assert_eq!(short.used(), used0);

        // A copy that fits lands, holding exactly the table's bytes.
        let fits = Namespace::devdax(SocketId(1), fact.total_bytes());
        let replica = fact.replicate_to(&fits).unwrap();
        assert_eq!(fits.used(), replica.total_bytes());

        // A dirty column after clean ones: the clean copies go back too.
        let (_data, mut fact, _ns) = setup();
        fact.inject_poison(Column::SupplyCost, 0, 1);
        let peer = Namespace::devdax(SocketId(1), 64 << 20);
        assert!(matches!(
            fact.replicate_to(&peer),
            Err(StoreError::Poisoned { .. })
        ));
        assert_eq!(peer.used(), 0);
    }

    #[test]
    fn a_failed_load_returns_every_byte_it_allocated() {
        let (data, fact, _ns) = setup();
        // One byte short of all nine columns, 100 bytes of it already
        // held: the last column's allocation fails after eight landed.
        let short = Namespace::devdax(SocketId(1), 100 + fact.total_bytes() - 1);
        let _other = short.alloc_region(100).unwrap();
        let used0 = short.used();
        assert!(matches!(
            ColumnarFact::load(&short, &data),
            Err(StoreError::OutOfSpace { .. })
        ));
        assert_eq!(short.used(), used0);
        // Exactly enough room loads, holding exactly the table's bytes.
        let fits = Namespace::devdax(SocketId(1), fact.total_bytes());
        let loaded = ColumnarFact::load(&fits, &data).unwrap();
        assert_eq!(fits.used(), loaded.total_bytes());
    }

    #[test]
    fn replica_repair_requires_enough_rows() {
        let (_data, mut fact, _ns) = setup();
        let small = generate(0.001, 5);
        let peer = Namespace::devdax(SocketId(1), 64 << 20);
        let short = ColumnarFact::load(&peer, &small).unwrap();
        assert!(short.rows() < fact.rows());
        assert!(matches!(
            fact.repair_from_replica(&short),
            Err(StoreError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn column_widths_are_consistent() {
        assert_eq!(Column::Quantity.width(), 1);
        assert_eq!(Column::Revenue.width(), 4);
        assert_eq!(Column::tuple_bytes(&Column::ALL), 30);
    }

    #[test]
    fn anti_entropy_ships_only_divergent_blocks() {
        let (_data, mut fact, _ns) = setup();
        let peer = Namespace::devdax(SocketId(1), 64 << 20);
        let replica = fact.replicate_to(&peer).unwrap();
        let hash_before = fact.content_hash();

        // Identical copies diverge nowhere, and a no-op catch-up ships
        // nothing.
        let clean = fact.diff_blocks(&replica).unwrap();
        assert!(clean.is_empty());
        assert_eq!(clean.divergent_blocks(), 0);
        let noop = fact.apply_diff(&replica, &clean, true).unwrap();
        assert_eq!(noop.bytes_shipped, 0);
        assert!(noop.is_fully_caught_up());

        // Two media errors in different columns: the diff names exactly
        // those blocks, and the shipped bytes are a tiny fraction of the
        // table.
        fact.inject_poison(Column::Revenue, 4096, 16);
        fact.inject_poison(Column::OrderDate, 0, 16);
        let diff = fact.diff_blocks(&replica).unwrap();
        assert_eq!(diff.divergent_blocks(), 2);
        assert_eq!(diff.hash_bytes, 16 * diff.blocks_examined);
        let report = fact.apply_diff(&replica, &diff, true).unwrap();
        assert_eq!(report.blocks_shipped, 2);
        assert!(report.is_fully_caught_up() && report.clean);
        assert!(
            report.bytes_shipped <= 2 * SCRUB_BLOCK,
            "incremental, not a full copy: {} bytes",
            report.bytes_shipped
        );
        assert!(report.bytes_shipped * 10 < fact.total_bytes());
        assert_eq!(fact.content_hash(), hash_before, "byte-exact catch-up");
        for (_, r) in fact.scrub() {
            assert!(r.is_clean());
        }
    }

    #[test]
    fn poison_landing_mid_catch_up_is_refetched_or_refused_never_served() {
        let (_data, mut fact, _ns) = setup();
        let peer = Namespace::devdax(SocketId(1), 64 << 20);
        let replica = fact.replicate_to(&peer).unwrap();
        fact.inject_poison(Column::Revenue, 4096, 16);
        let diff = fact.diff_blocks(&replica).unwrap();
        // A second media error lands *after* the hash exchange: the diff
        // does not name it.
        fact.inject_poison(Column::Quantity, 0, 8);

        // Verified catch-up: the final scrub pass finds the late block
        // and re-fetches it — the table still ends byte-exact.
        let report = fact.apply_diff(&replica, &diff, true).unwrap();
        assert!(report.refetched_blocks >= 1, "late poison re-fetched");
        assert!(report.is_fully_caught_up());
        assert_eq!(fact.content_hash(), replica.content_hash());

        // Unverified catch-up (the planted regression): the same late
        // poison is silently handed back — the report *claims* clean
        // while the table is dirty.
        fact.inject_poison(Column::Revenue, 8192, 16);
        let diff = fact.diff_blocks(&replica).unwrap();
        fact.inject_poison(Column::Quantity, 4096, 8);
        let blind = fact.apply_diff(&replica, &diff, false).unwrap();
        assert!(blind.clean && blind.is_fully_caught_up(), "blind trust");
        assert!(
            fact.scrub().iter().any(|(_, r)| !r.is_clean()),
            "…but the shard is dirty: the bug verification exists to stop"
        );
        // Clean up with a verified pass and confirm byte-exactness again.
        let repair = fact.catch_up_from_replica(&replica, true).unwrap();
        assert!(repair.is_fully_caught_up());
        assert_eq!(fact.content_hash(), replica.content_hash());
    }

    #[test]
    fn catch_up_refuses_a_bad_replica_block() {
        let (_data, mut fact, _ns) = setup();
        let peer = Namespace::devdax(SocketId(1), 64 << 20);
        let mut replica = fact.replicate_to(&peer).unwrap();
        fact.inject_poison(Column::Revenue, 4096, 16);
        // The replica's copy of the very block we need is itself bad.
        replica.inject_poison(Column::Revenue, 4096, 1);
        let report = fact.catch_up_from_replica(&replica, true).unwrap();
        assert!(report.unrepairable >= 1, "bad source refused");
        assert!(!report.is_fully_caught_up(), "hand-back must be refused");
        // Unlike `repair_from_replica` (whole-source scrub up front),
        // anti-entropy refuses per block — but never serves the bad one.
        assert!(fact.scrub().iter().any(|(_, r)| !r.is_clean()));
    }

    #[test]
    fn diff_requires_enough_rows() {
        let (_data, fact, _ns) = setup();
        let small = generate(0.001, 5);
        let peer = Namespace::devdax(SocketId(1), 64 << 20);
        let short = ColumnarFact::load(&peer, &small).unwrap();
        assert!(matches!(
            fact.diff_blocks(&short),
            Err(StoreError::OutOfBounds { .. })
        ));
    }
}
