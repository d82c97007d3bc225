//! The discrete-event core: threads issue 64 B cache-line requests through
//! per-DIMM queues and media servers under virtual time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::analytic;
use crate::bandwidth::Bandwidth;
use crate::params::DeviceClass;
use crate::stats::SimStats;
use crate::workload::{AccessKind, Pattern};

use super::latency::LatencyStats;
use super::{DesConfig, DesResult};

/// Open 256 B lines the Optane controller's read buffer can hold. Must
/// comfortably exceed the thread count so interleaved sequential streams do
/// not evict each other's partially-consumed XPLines.
const READ_BUFFER_ENTRIES: usize = 64;

/// Per-page coherence remap cost a cold far run pays, in seconds.
const REMAP_COST: f64 = 390e-9;

/// Read pending-queue depth per DIMM.
const RPQ_DEPTH: u32 = 24;

/// Write pending-queue depth per DIMM.
const WPQ_DEPTH: u32 = 24;

/// Seed of the per-thread generators of the random pattern; runs are
/// deterministic.
const SEED: u64 = 0xD5_AA5E;

/// Virtual-time event key: `f64` seconds with a tie-breaking sequence number
/// so the heap ordering is total and deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EventKey {
    time: f64,
    seq: u64,
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A line completed at `dimm` for `thread`; `issued_at` for latency.
    Complete {
        thread: usize,
        dimm: usize,
        issued_at: f64,
        is_read: bool,
    },
    /// Re-try issuing for a thread that was blocked on a full queue.
    Wake { thread: usize },
}

struct ThreadState {
    /// Whether this thread issues reads (mixed runs have both kinds).
    is_reader: bool,
    /// Remaining 64 B lines in the current access.
    lines_left: u64,
    /// Next byte offset to issue.
    cursor: u64,
    /// Remaining accesses this thread may start (individual/random) —
    /// `u64::MAX` for grouped (bounded by the shared counter instead).
    accesses_left: u64,
    /// Outstanding requests (bounded by MLP for reads / in-flight cap for
    /// writes).
    outstanding: u32,
    blocked: bool,
    done: bool,
    rng: SmallRng,
}

struct DimmState {
    media_busy_until: f64,
    outstanding: u32,
    waiters: VecDeque<usize>,
    /// Tags of recently read 256 B XPLines (tiny LRU).
    read_buffer: VecDeque<u64>,
    /// Fill state of the currently open write-combining XPLine.
    open_xpline: u64,
    open_fill: u64,
}

pub(super) struct Engine<'a> {
    cfg: &'a DesConfig,
    now: f64,
    seq: u64,
    events: BinaryHeap<Reverse<(EventKey, usize)>>,
    payload: Vec<Event>,
    threads: Vec<ThreadState>,
    dimms: Vec<DimmState>,
    /// Shared chunk counter for the grouped pattern.
    grouped_next: u64,
    grouped_total: u64,
    upi_busy_until: f64,
    cold_pages_touched: std::collections::HashSet<u64>,
    stats: SimStats,
    read_latency: LatencyStats,
    bytes_done: u64,
    // Derived constants.
    /// Whether the workload's accesses cross the UPI.
    far: bool,
    line: u64,
    xpline: u64,
    media_read_time: f64,
    media_write_time: f64,
    buffer_hit_time: f64,
    base_latency: f64,
    write_eff: f64,
    read_in_flight_cap: u32,
    write_in_flight_cap: u32,
    per_thread_bytes: u64,
    region_bytes: u64,
}

impl<'a> Engine<'a> {
    pub(super) fn new(cfg: &'a DesConfig) -> Self {
        let p = &cfg.params;
        let spec = &cfg.spec;
        let dimm_count = p.machine.channels_per_socket() as usize;
        let line = p.cpu.cacheline_bytes;
        let xpline = p.optane.xpline_bytes;
        let dram = spec.device == DeviceClass::Dram;

        let (read_rate, write_rate) = if dram {
            (
                p.dram.socket_seq_read.bytes_per_sec() / dimm_count as f64,
                p.dram.socket_seq_write.bytes_per_sec() / dimm_count as f64,
            )
        } else {
            (
                p.optane.media_read_per_dimm.bytes_per_sec(),
                p.optane.media_write_per_dimm.bytes_per_sec(),
            )
        };
        // DRAM serves per 64 B column burst; Optane per 256 B XPLine.
        let media_unit = if dram { line } else { xpline };
        let media_read_time = media_unit as f64 / read_rate;
        let media_write_time = media_unit as f64 / write_rate;

        // The calibrated occupancy model of the analytic engine supplies the
        // write-combining efficiency; the DES turns it into per-flush media
        // time so queueing and ordering still play out event by event.
        let has_writers = spec.kind == AccessKind::Write || cfg.write_threads > 0;
        let write_eff = if dram || !has_writers {
            1.0
        } else {
            let wspec = crate::workload::WorkloadSpec {
                kind: AccessKind::Write,
                threads: if cfg.write_threads > 0 {
                    cfg.write_threads
                } else {
                    spec.threads
                },
                ..spec.clone()
            };
            1.0 / analytic::near_write_amplification_estimate(p, &wspec)
        };

        let base_latency = if dram {
            p.cpu.dram_read_latency
        } else {
            p.cpu.pmem_read_latency
        };

        let threads: Vec<ThreadState> = (0..spec.threads as usize)
            .map(|t| ThreadState {
                is_reader: if cfg.write_threads > 0 {
                    t as u32 >= cfg.write_threads
                } else {
                    spec.kind == AccessKind::Read
                },
                lines_left: 0,
                cursor: 0,
                accesses_left: 0,
                outstanding: 0,
                blocked: false,
                done: false,
                rng: SmallRng::seed_from_u64(SEED ^ (t as u64).wrapping_mul(0x9e37_79b9)),
            })
            .collect();
        let dimms = (0..dimm_count)
            .map(|_| DimmState {
                media_busy_until: 0.0,
                outstanding: 0,
                waiters: VecDeque::new(),
                read_buffer: VecDeque::with_capacity(READ_BUFFER_ENTRIES),
                open_xpline: u64::MAX,
                open_fill: 0,
            })
            .collect();

        let volume = cfg.volume_bytes.max(line);
        let per_thread_bytes =
            (volume / spec.threads.max(1) as u64).max(spec.access_size.max(line));
        let region_bytes = match spec.pattern {
            Pattern::Random { region_bytes } => region_bytes.max(spec.access_size),
            _ => volume,
        };

        Engine {
            cfg,
            now: 0.0,
            seq: 0,
            events: BinaryHeap::new(),
            payload: Vec::new(),
            threads,
            dimms,
            grouped_next: 0,
            grouped_total: volume / cfg.spec.access_size.max(line),
            upi_busy_until: 0.0,
            cold_pages_touched: std::collections::HashSet::new(),
            stats: SimStats::default(),
            read_latency: LatencyStats::default(),
            bytes_done: 0,
            far: spec.placement.crosses_upi(),
            line,
            xpline,
            media_read_time,
            media_write_time,
            buffer_hit_time: 2e-9,
            base_latency,
            write_eff,
            read_in_flight_cap: p.cpu.mlp,
            write_in_flight_cap: 48,
            per_thread_bytes,
            region_bytes,
        }
    }

    pub(super) fn run(mut self) -> DesResult {
        self.prime();
        for t in 0..self.threads.len() {
            self.issue(t);
        }
        while let Some(Reverse((key, idx))) = self.events.pop() {
            self.now = key.time;
            match self.payload[idx] {
                Event::Complete {
                    thread,
                    dimm,
                    issued_at,
                    is_read,
                } => self.on_complete(thread, dimm, issued_at, is_read),
                Event::Wake { thread } => {
                    self.threads[thread].blocked = false;
                    self.issue(thread);
                }
            }
        }
        let elapsed = self.now.max(f64::MIN_POSITIVE);
        DesResult {
            elapsed_seconds: elapsed,
            bandwidth: Bandwidth::from_bytes_per_sec(self.bytes_done as f64 / elapsed),
            read_bandwidth: Bandwidth::from_bytes_per_sec(
                self.stats.app_read_bytes as f64 / elapsed,
            ),
            write_bandwidth: Bandwidth::from_bytes_per_sec(
                self.stats.app_write_bytes as f64 / elapsed,
            ),
            stats: self.stats,
            read_latency: self.read_latency,
        }
    }

    /// Set up each thread's work budget.
    fn prime(&mut self) {
        let access = self.cfg.spec.access_size.max(self.line);
        for t in 0..self.threads.len() {
            let st = &mut self.threads[t];
            match self.cfg.spec.pattern {
                Pattern::SequentialGrouped => {
                    st.accesses_left = u64::MAX; // bounded by grouped_total
                }
                Pattern::SequentialIndividual | Pattern::Random { .. } => {
                    st.accesses_left = (self.per_thread_bytes / access).max(1);
                }
            }
        }
    }

    fn schedule(&mut self, time: f64, ev: Event) {
        let key = EventKey {
            time,
            seq: self.seq,
        };
        self.seq += 1;
        let idx = self.payload.len();
        self.payload.push(ev);
        self.events.push(Reverse((key, idx)));
    }

    /// Start the next access for `t` if the current one is exhausted.
    /// Returns false when the thread has no more work.
    fn next_access(&mut self, t: usize) -> bool {
        let access = self.cfg.spec.access_size.max(self.line);
        let threads = self.threads.len() as u64;
        let st = &mut self.threads[t];
        if st.lines_left > 0 {
            return true;
        }
        match self.cfg.spec.pattern {
            Pattern::SequentialGrouped => {
                if self.grouped_next >= self.grouped_total {
                    return false;
                }
                st.cursor = self.grouped_next * access;
                self.grouped_next += 1;
            }
            Pattern::SequentialIndividual => {
                if st.accesses_left == 0 {
                    return false;
                }
                let base = t as u64 * self.per_thread_bytes;
                let done = (self.per_thread_bytes / access) - st.accesses_left;
                st.cursor = base + done * access;
                st.accesses_left -= 1;
            }
            Pattern::Random { .. } => {
                if st.accesses_left == 0 {
                    return false;
                }
                let slots = (self.region_bytes / access).max(1);
                // Each thread samples its own slot; threads partition the
                // region implicitly via the shared interleave map.
                let slot = st.rng.gen_range(0..slots);
                st.cursor = slot * access;
                st.accesses_left -= 1;
                let _ = threads;
            }
        }
        st.lines_left = access / self.line;
        true
    }

    /// Issue as many lines as credits and queue depths allow.
    fn issue(&mut self, t: usize) {
        loop {
            if self.threads[t].done || self.threads[t].blocked {
                return;
            }
            let cap = if self.threads[t].is_reader {
                self.read_in_flight_cap
            } else {
                self.write_in_flight_cap
            };
            if self.threads[t].outstanding >= cap {
                return;
            }
            if !self.next_access(t) {
                if self.threads[t].outstanding == 0 {
                    self.threads[t].done = true;
                }
                return;
            }
            let addr = self.threads[t].cursor;
            let dimm = self.dimm_of(addr);
            let depth = if self.threads[t].is_reader {
                RPQ_DEPTH
            } else {
                WPQ_DEPTH
            };
            if self.dimms[dimm].outstanding >= depth {
                self.dimms[dimm].waiters.push_back(t);
                self.threads[t].blocked = true;
                return;
            }
            // Consume the line.
            self.threads[t].cursor += self.line;
            self.threads[t].lines_left -= 1;
            self.threads[t].outstanding += 1;
            self.dimms[dimm].outstanding += 1;
            let completion = self.service(t, dimm, addr);
            self.schedule(
                completion,
                Event::Complete {
                    thread: t,
                    dimm,
                    issued_at: self.now,
                    is_read: self.threads[t].is_reader,
                },
            );
        }
    }

    /// Compute the completion time of one line at `dimm` and account media
    /// work.
    fn service(&mut self, t: usize, dimm: usize, addr: u64) -> f64 {
        let is_read = self.threads[t].is_reader;
        let dram = self.cfg.spec.device == DeviceClass::Dram;
        let mut arrival = self.now;

        // Far traffic serializes over the UPI payload capacity and pays the
        // link latency; cold pages additionally pay the coherence remap.
        if self.far {
            let upi = &self.cfg.params.upi;
            let transfer = self.line as f64 / upi.payload_per_direction().bytes_per_sec();
            let mut occupancy = transfer;
            if self.cfg.cold_far {
                let page = addr / self.cfg.params.machine.interleave_bytes;
                if self.cold_pages_touched.insert(page) {
                    occupancy += REMAP_COST;
                    self.stats.remap_events += 1;
                }
            }
            let start = self.upi_busy_until.max(arrival);
            self.upi_busy_until = start + occupancy;
            arrival = start + occupancy + upi.extra_latency;
            self.stats.upi_bytes += (self.line as f64 / (1.0 - upi.metadata_fraction)) as u64;
        }

        let d = &mut self.dimms[dimm];
        let xp_tag = addr / self.xpline;
        if is_read {
            self.stats.app_read_bytes += self.line;
            self.bytes_done += self.line;
            let service = if dram {
                self.media_read_time
            } else if d.read_buffer.contains(&xp_tag) {
                self.stats.read_buffer_hits += 1;
                self.buffer_hit_time
            } else {
                // Fetch the full 256 B XPLine into the controller buffer.
                self.stats.media_read_bytes += self.xpline;
                if d.read_buffer.len() == READ_BUFFER_ENTRIES {
                    d.read_buffer.pop_front();
                }
                d.read_buffer.push_back(xp_tag);
                self.media_read_time
            };
            if dram {
                self.stats.media_read_bytes += self.line;
            }
            let start = d.media_busy_until.max(arrival);
            d.media_busy_until = start + service;
            start + service + self.base_latency
        } else {
            self.stats.app_write_bytes += self.line;
            self.bytes_done += self.line;
            let service = if dram {
                self.media_write_time
            } else if xp_tag == d.open_xpline && d.open_fill < self.xpline / self.line {
                // Merge into the open XPLine.
                d.open_fill += 1;
                if d.open_fill == self.xpline / self.line {
                    // Slot full: flush. The calibrated efficiency stretches
                    // the flush when buffer pressure forces extra partial
                    // flushes and read-modify-writes.
                    self.stats.media_write_bytes += self.xpline;
                    self.stats.full_flushes += 1;
                    self.media_write_time / self.write_eff
                } else {
                    self.buffer_hit_time
                }
            } else {
                // New XPLine: if the previous one was still partial it is
                // evicted as a read-modify-write.
                if d.open_xpline != u64::MAX && d.open_fill < self.xpline / self.line {
                    self.stats.partial_flushes += 1;
                    self.stats.media_write_bytes += self.xpline + self.xpline;
                }
                d.open_xpline = xp_tag;
                d.open_fill = 1;
                if self.xpline / self.line == 1 {
                    self.stats.media_write_bytes += self.xpline;
                    self.stats.full_flushes += 1;
                    self.media_write_time / self.write_eff
                } else {
                    self.buffer_hit_time
                }
            };
            let start = d.media_busy_until.max(arrival);
            d.media_busy_until = start + service;
            // Writes are posted: completion = WPQ slot release, which is
            // when the buffer/media has absorbed the line.
            start + service
        }
    }

    fn on_complete(&mut self, thread: usize, dimm: usize, issued_at: f64, is_read: bool) {
        if is_read {
            self.read_latency.record(self.now - issued_at);
        }
        self.threads[thread].outstanding -= 1;
        self.dimms[dimm].outstanding -= 1;
        // Wake one waiter of this DIMM, if any.
        if let Some(w) = self.dimms[dimm].waiters.pop_front() {
            self.schedule(self.now, Event::Wake { thread: w });
        }
        self.issue(thread);
        if self.threads[thread].outstanding == 0 && self.threads[thread].lines_left == 0 {
            // May have finished.
            self.issue(thread);
        }
    }

    #[inline]
    fn dimm_of(&self, addr: u64) -> usize {
        let il = self.cfg.params.machine.interleave_map();
        il.dimm_of(addr) as usize
    }
}
