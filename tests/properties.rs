//! Property-based tests over the core data structures and models.

use std::collections::HashMap;

use proptest::prelude::*;

use pmem_olap::dash::{ChainedTable, DashTable, KvIndex};
use pmem_olap::sim::analytic::{BandwidthModel, CoherenceView};
use pmem_olap::sim::params::DeviceClass;
use pmem_olap::sim::topology::SocketId;
use pmem_olap::sim::workload::{AccessKind, Pattern, WorkloadSpec};
use pmem_olap::store::{AccessHint, Namespace};

/// One operation against a key-value index.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..key_space, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..key_space).prop_map(Op::Remove),
        (0..key_space).prop_map(Op::Get),
    ]
}

fn check_index_against_model(index: &dyn KvIndex, ops: &[Op]) {
    let mut model: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                index.insert(*k, *v).expect("insert");
                model.insert(*k, *v);
            }
            Op::Remove(k) => {
                assert_eq!(index.remove(*k), model.remove(k), "remove({k})");
            }
            Op::Get(k) => {
                assert_eq!(index.get(*k), model.get(k).copied(), "get({k})");
            }
        }
        assert_eq!(index.len(), model.len());
    }
    for (k, v) in &model {
        assert_eq!(index.get(*k), Some(*v), "final get({k})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dash behaves exactly like a hash map under arbitrary op sequences.
    #[test]
    fn dash_matches_hashmap_model(ops in prop::collection::vec(op_strategy(512), 1..300)) {
        let ns = Namespace::devdax(SocketId(0), 64 << 20);
        let table = DashTable::new(&ns).expect("table");
        check_index_against_model(&table, &ops);
    }

    /// The chained table, despite its hostile layout, is also correct.
    #[test]
    fn chained_matches_hashmap_model(ops in prop::collection::vec(op_strategy(512), 1..300)) {
        let ns = Namespace::devdax(SocketId(0), 64 << 20);
        let table = ChainedTable::with_capacity(&ns, 64).expect("table");
        check_index_against_model(&table, &ops);
    }

    /// Dash survives a crash at any point: all published records intact.
    #[test]
    fn dash_crash_preserves_published_records(
        keys in prop::collection::btree_set(0u64..10_000, 1..500),
        crash_after in 0usize..500,
    ) {
        let ns = Namespace::devdax(SocketId(0), 128 << 20);
        let table = DashTable::new(&ns).expect("table");
        let keys: Vec<u64> = keys.into_iter().collect();
        let crash_at = crash_after.min(keys.len());
        for k in &keys[..crash_at] {
            table.insert(*k, k ^ 0xFF).expect("insert");
        }
        table.simulate_crash();
        prop_assert_eq!(table.recount(), crash_at);
        for k in &keys[..crash_at] {
            prop_assert_eq!(table.get(*k), Some(k ^ 0xFF));
        }
    }

    /// Region persistence model: after arbitrary store/flush interleavings
    /// and a crash, exactly the fenced bytes survive.
    #[test]
    fn region_crash_semantics_match_a_shadow_model(
        ops in prop::collection::vec(
            (0u64..8, any::<u8>(), 0u8..4),
            1..80,
        ),
    ) {
        const LINES: u64 = 8;
        let ns = Namespace::devdax(SocketId(0), 1 << 20);
        let mut region = ns.alloc_region(LINES * 64).expect("region");
        // Model: current visible bytes + persisted bytes per line.
        let mut visible = vec![0u8; (LINES * 64) as usize];
        let mut persisted = vec![0u8; (LINES * 64) as usize];
        let mut dirty = vec![false; LINES as usize]; // cached, unflushed
        let mut pending = vec![false; LINES as usize]; // awaiting sfence

        for (line, byte, action) in ops {
            let off = line * 64;
            match action {
                0 => {
                    // cached store of a full line
                    region.write(off, &[byte; 64]);
                    visible[off as usize..(off + 64) as usize].fill(byte);
                    dirty[line as usize] = true;
                    pending[line as usize] = false;
                }
                1 => {
                    // ntstore of a full line
                    region.ntstore(off, &[byte; 64]);
                    visible[off as usize..(off + 64) as usize].fill(byte);
                    dirty[line as usize] = false;
                    pending[line as usize] = true;
                }
                2 => {
                    // clwb the line
                    region.clwb(off, 64);
                    if dirty[line as usize] {
                        dirty[line as usize] = false;
                        pending[line as usize] = true;
                    }
                }
                _ => {
                    region.sfence();
                    for l in 0..LINES as usize {
                        if pending[l] {
                            pending[l] = false;
                            persisted[l * 64..(l + 1) * 64]
                                .copy_from_slice(&visible[l * 64..(l + 1) * 64]);
                        }
                    }
                }
            }
        }
        region.crash();
        for l in 0..LINES as usize {
            let expect = if dirty[l] || pending[l] {
                &persisted[l * 64..(l + 1) * 64]
            } else {
                // Neither dirty nor pending: visible == persisted.
                &visible[l * 64..(l + 1) * 64]
            };
            let got = region.read(l as u64 * 64, 64, AccessHint::Sequential);
            prop_assert_eq!(got, expect, "line {} after crash", l);
        }
    }

    /// Sub-cache-line stores, partial flushes, fences, and crashes at
    /// arbitrary interleavings: [`is_persisted`] must agree, line by
    /// line, with what a crash actually leaves on media — including the
    /// sub-64 B case where a small store taints its whole cache line and
    /// neighbouring never-written bytes report unpersisted with it.
    #[test]
    fn is_persisted_agrees_with_post_crash_contents(
        ops in prop::collection::vec(
            (0u64..512, 1u64..96, any::<u8>(), 0u8..5),
            1..120,
        ),
    ) {
        const LINES: usize = 8;
        const BYTES: u64 = LINES as u64 * 64;
        let ns = Namespace::devdax(SocketId(0), 1 << 20);
        let mut region = ns.alloc_region(BYTES).expect("region");
        let mut visible = vec![0u8; BYTES as usize];
        let mut persisted = vec![0u8; BYTES as usize];
        let mut dirty = [false; LINES];
        let mut pending = [false; LINES];

        for (raw_off, raw_len, byte, action) in ops {
            let off = raw_off % BYTES;
            let len = raw_len.min(BYTES - off);
            let first = (off / 64) as usize;
            let last = ((off + len - 1) / 64) as usize;
            match action {
                0 => {
                    // Cached store, usually smaller than a line.
                    region.write(off, &vec![byte; len as usize]);
                    visible[off as usize..(off + len) as usize].fill(byte);
                    for l in first..=last {
                        pending[l] = false;
                        dirty[l] = true;
                    }
                }
                1 => {
                    region.ntstore(off, &vec![byte; len as usize]);
                    visible[off as usize..(off + len) as usize].fill(byte);
                    for l in first..=last {
                        dirty[l] = false;
                        pending[l] = true;
                    }
                }
                2 => {
                    region.clwb(off, len);
                    for l in first..=last {
                        if dirty[l] {
                            dirty[l] = false;
                            pending[l] = true;
                        }
                    }
                }
                3 => {
                    region.sfence();
                    for l in 0..LINES {
                        if pending[l] {
                            pending[l] = false;
                            persisted[l * 64..(l + 1) * 64]
                                .copy_from_slice(&visible[l * 64..(l + 1) * 64]);
                        }
                    }
                }
                _ => {
                    // Mid-sequence power loss; the run then continues on
                    // whatever survived.
                    region.crash();
                    for l in 0..LINES {
                        if dirty[l] || pending[l] {
                            dirty[l] = false;
                            pending[l] = false;
                            visible[l * 64..(l + 1) * 64]
                                .copy_from_slice(&persisted[l * 64..(l + 1) * 64]);
                        }
                    }
                }
            }
            // The predicate agrees with the model per line…
            for l in 0..LINES {
                prop_assert_eq!(
                    region.is_persisted(l as u64 * 64, 64),
                    !dirty[l] && !pending[l],
                    "line {} disagrees after action {}", l, action
                );
            }
            // …and for the exact (possibly sub-line) range just touched.
            let range_clean = (first..=last).all(|l| !dirty[l] && !pending[l]);
            prop_assert_eq!(region.is_persisted(off, len), range_clean);
            // Visible contents always track the model.
            prop_assert_eq!(
                region.read(0, BYTES, AccessHint::Sequential),
                &visible[..]
            );
        }
        // Final crash: tainted lines revert to their persisted image,
        // clean lines keep their visible (== persisted) contents.
        region.crash();
        for l in 0..LINES {
            let expect = if dirty[l] || pending[l] {
                &persisted[l * 64..(l + 1) * 64]
            } else {
                &visible[l * 64..(l + 1) * 64]
            };
            let got = region.read(l as u64 * 64, 64, AccessHint::Sequential);
            prop_assert_eq!(got, expect, "line {} after the final crash", l);
        }
    }

    /// The bandwidth model is total, finite, and physically bounded over
    /// the whole configuration space.
    #[test]
    fn bandwidth_model_is_bounded(
        access_pow in 6u32..22,
        threads in 1u32..40,
        write in any::<bool>(),
        grouped in any::<bool>(),
        device_pick in 0u8..3,
    ) {
        let device = match device_pick {
            0 => DeviceClass::Pmem,
            1 => DeviceClass::Dram,
            _ => DeviceClass::Ssd,
        };
        let access = 1u64 << access_pow;
        let mut spec = if write {
            WorkloadSpec::seq_write(device, access, threads)
        } else {
            WorkloadSpec::seq_read(device, access, threads)
        };
        if grouped {
            spec = spec.pattern(Pattern::SequentialGrouped);
        }
        let bw = BandwidthModel::paper_default()
            .bandwidth(&spec, CoherenceView::WARM)
            .gib_s();
        prop_assert!(bw.is_finite() && bw > 0.0, "bw {bw}");
        let cap = match device {
            DeviceClass::Dram => 110.0,
            DeviceClass::Pmem => 45.0,
            DeviceClass::Ssd => 3.5,
        };
        prop_assert!(bw <= cap, "{device:?} {bw} exceeds physical cap");
    }

    /// Random access never beats sequential access at the same geometry.
    #[test]
    fn random_never_beats_sequential(
        access_pow in 6u32..13,
        threads in 1u32..37,
        write in any::<bool>(),
    ) {
        let device = DeviceClass::Pmem;
        let access = 1u64 << access_pow;
        let make = |pattern| {
            let mut s = if write {
                WorkloadSpec::seq_write(device, access, threads)
            } else {
                WorkloadSpec::seq_read(device, access, threads)
            };
            s = s.pattern(pattern);
            BandwidthModel::paper_default()
                .bandwidth(&s, CoherenceView::WARM)
                .gib_s()
        };
        let seq = make(Pattern::SequentialIndividual);
        let rand = make(Pattern::Random { region_bytes: 2 << 30 });
        prop_assert!(rand <= seq * 1.02, "random {rand} beats sequential {seq}");
    }

    /// Mixed workloads never exceed the read-only maximum (§5.1).
    #[test]
    fn mixed_total_bounded_by_read_peak(writers in 1u32..8, readers in 1u32..31) {
        let model = BandwidthModel::paper_default();
        let mixed = model.mixed(&pmem_olap::sim::workload::MixedSpec::paper(
            DeviceClass::Pmem,
            writers,
            readers,
        ));
        let total = mixed.total().gib_s();
        prop_assert!(total <= 41.0, "mixed total {total}");
    }

    /// The per-worker log is prefix-durable: after appends and a crash at
    /// an arbitrary point, recovery returns exactly the fenced prefix with
    /// intact payloads.
    #[test]
    fn worker_log_is_prefix_durable(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..200), 1..64),
    ) {
        let ns = Namespace::devdax(SocketId(0), 16 << 20);
        let mut log = pmem_olap::store::WorkerLog::create(&ns, 64).expect("log");
        for p in &payloads {
            log.append(p).expect("append");
        }
        let survivors = log.crash_and_recover();
        prop_assert_eq!(survivors, payloads.len() as u64);
        for (i, p) in payloads.iter().enumerate() {
            let record = log.read(i as u64);
            prop_assert_eq!(record.as_deref(), Some(p.as_slice()));
        }
        // Records appended after recovery chain on correctly.
        log.append(b"tail").expect("append");
        let tail = log.read(survivors);
        prop_assert_eq!(tail.as_deref(), Some(&b"tail"[..]));
    }

    /// Traffic patterns conserve volume for any thread/size combination.
    #[test]
    fn traffic_conserves_volume(
        threads in 1u32..9,
        access_pow in 6u32..13,
    ) {
        let ns = Namespace::devdax(SocketId(0), 64 << 20);
        let access = 1u64 << access_pow;
        let cfg = {
            let mut c = pmem_olap::membench::traffic::TrafficConfig::new(
                AccessKind::Read,
                Pattern::SequentialGrouped,
                access,
                threads,
            );
            c.volume = 1 << 20;
            c
        };
        let report = pmem_olap::membench::traffic::run_traffic(&ns, &cfg).expect("traffic");
        prop_assert_eq!(report.bytes, 1 << 20);
        prop_assert_eq!(
            report.checksum,
            pmem_olap::membench::traffic::expected_checksum(1 << 20)
        );
    }
}
