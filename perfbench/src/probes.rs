//! Direct calls into `pmem-store` and `pmem-dash`, timed in isolation.

use std::hint::black_box;
use std::time::Instant;

use pmem_dash::{ChainedTable, DashTable, KvIndex};
use pmem_sim::topology::SocketId;
use pmem_ssb::datagen::cardinalities;
use pmem_store::{AccessHint, Namespace};

use crate::ctx::Ctx;
use crate::metrics::median;
use crate::ssb_sweep;

/// The load's ingest chunk: 512 rows of 128 B.
const CHUNK: u64 = 64 << 10;
/// Bytes each store pass streams.
const REGION: u64 = 32 << 20;
/// Passes per probe; the first pays the fsdax page faults, the median
/// ignores it.
const PASSES: usize = 5;
const MIB: f64 = (1u64 << 20) as f64;

/// `store.ntstore_mib_s` and `store.read_mib_s`: 64 KiB `try_ntstore`s
/// over a region followed by one `sfence`, as `SsbStore::load` writes,
/// then 64 KiB `try_read`s over it, each chunk summed as a scan would.
pub fn store(ctx: &mut Ctx) {
    let ns = Namespace::fsdax(SocketId(0), REGION + (1 << 20));
    let mut region = match ns.alloc_region(REGION) {
        Ok(r) => r,
        Err(e) => {
            ctx.check_run("store probe runs", false, || e.to_string());
            return;
        }
    };
    let chunk: Vec<u8> = (0..CHUNK).map(|i| (i % 251) as u8).collect();
    let expected_sum: u64 = chunk.iter().map(|&b| u64::from(b)).sum();
    let (mut write, mut read) = (Vec::new(), Vec::new());
    let mut ok = true;
    for _ in 0..PASSES {
        let start = Instant::now();
        for offset in (0..REGION).step_by(CHUNK as usize) {
            ok &= region
                .try_ntstore(offset, &chunk, AccessHint::Sequential)
                .is_ok();
        }
        region.sfence();
        write.push(REGION as f64 / MIB / start.elapsed().as_secs_f64());

        let start = Instant::now();
        let mut sum = 0u64;
        for offset in (0..REGION).step_by(CHUNK as usize) {
            match region.try_read(offset, CHUNK, AccessHint::Sequential) {
                Ok(bytes) => sum += bytes.iter().map(|&b| u64::from(b)).sum::<u64>(),
                Err(_) => ok = false,
            }
        }
        read.push(REGION as f64 / MIB / start.elapsed().as_secs_f64());
        ok &= black_box(sum) == expected_sum * (REGION / CHUNK);
    }
    ctx.check_run("store probe reads back what it wrote", ok, || {
        "a chunk failed or read back different bytes".into()
    });
    ctx.set("store.ntstore_mib_s", median(&write));
    ctx.set("store.read_mib_s", median(&read));
}

/// Insert then look up `keys` keys; nanoseconds per insert and per get,
/// and whether every get returned what was inserted.
fn time_index(index: &dyn KvIndex, keys: u64) -> (f64, f64, bool) {
    let value = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let start = Instant::now();
    let mut ok = true;
    for k in 1..=keys {
        ok &= index.insert(k, value(k)).is_ok();
    }
    let insert = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for k in 1..=keys {
        ok &= black_box(index.get(k)) == Some(value(k));
    }
    let get = start.elapsed().as_secs_f64();
    let per = 1e9 / keys as f64;
    (insert * per, get * per, ok)
}

/// `dash.*`: Dash and the chained table at the key count of ssb-sweep's
/// largest dimension (`part`), median of [`PASSES`] fresh tables each.
pub fn dash(ctx: &mut Ctx) {
    let keys = u64::from(cardinalities(ssb_sweep::SF).part);
    let mut samples = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut ok = true;
    for _ in 0..PASSES {
        let ns = Namespace::fsdax(SocketId(0), 256 << 20);
        let (dash, chained) = match (
            DashTable::with_capacity(&ns, keys as usize),
            ChainedTable::with_capacity(&ns, keys as usize),
        ) {
            (Ok(d), Ok(c)) => (d, c),
            _ => {
                ctx.check_run("dash probe runs", false, || {
                    "table allocation failed".into()
                });
                return;
            }
        };
        for (i, index) in [&dash as &dyn KvIndex, &chained].into_iter().enumerate() {
            let (insert, get, found) = time_index(index, keys);
            samples[2 * i].push(insert);
            samples[2 * i + 1].push(get);
            ok &= found;
        }
    }
    ctx.check_run("dash probe gets what it inserted", ok, || {
        "a lookup missed or returned another value".into()
    });
    for (name, s) in [
        "dash.insert_ns",
        "dash.get_ns",
        "dash.chained_insert_ns",
        "dash.chained_get_ns",
    ]
    .into_iter()
    .zip(&samples)
    {
        ctx.set(name, median(s));
    }
}
