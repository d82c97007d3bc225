//! Persistence-trace recording.
//!
//! A [`PersistenceTrace`] captures the *ordered* stream of persistence
//! events — stores with their data, `clwb`s, and `sfence`s — that a
//! checked run performed. It is the input of the `pmem-crashmc` crash-state
//! model checker: from the fence-delimited epochs of the stream, every
//! ADR-reachable crash state (any subset of the not-yet-accepted WPQ lines)
//! can be enumerated and recovery verified against each one. Clients mark
//! their own commit points with [`PersistenceTrace::mark`] so the checker
//! can tell *committed* data (must survive) from *in-flight* data (may
//! survive, must not corrupt).

use std::sync::Arc;

use parking_lot::Mutex;

/// One event of a persistence trace (see [`PersistenceTrace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistEvent {
    /// Regular (cached) store: volatile until `clwb`ed and fenced.
    Store {
        /// Byte offset within the region.
        offset: u64,
        /// The bytes written.
        data: Vec<u8>,
    },
    /// Non-temporal store: on the WPQ path, persistent at the next fence.
    NtStore {
        /// Byte offset within the region.
        offset: u64,
        /// The bytes written.
        data: Vec<u8>,
    },
    /// `clwb`: dirty cache lines covering the range move to the WPQ path.
    Clwb {
        /// Byte offset within the region.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Store fence: everything on the WPQ path is accepted (ADR) and
    /// therefore persistent. Delimits the checker's crash-state epochs.
    Sfence,
    /// Client-recorded commit point (e.g. "record `n` is now published").
    /// Marks at or after the crash epoch are *possibly* durable; marks
    /// before it are *guaranteed* durable.
    Mark(u64),
}

/// An ordered, shared persistence-event sink for checked runs.
///
/// A persistence trace must be complete to be meaningful: recording stops once `capacity` events are
/// reached and [`PersistenceTrace::truncated`] reports it, so a checker can
/// refuse to draw conclusions from a partial stream.
#[derive(Debug)]
pub struct PersistenceTrace {
    events: Mutex<Vec<PersistEvent>>,
    capacity: usize,
    truncated: Mutex<bool>,
}

impl PersistenceTrace {
    /// A trace keeping at most `capacity` events.
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(PersistenceTrace {
            events: Mutex::new(Vec::new()),
            capacity,
            truncated: Mutex::new(false),
        })
    }

    /// Record one event (sets the truncation flag when full).
    pub fn record(&self, event: PersistEvent) {
        let mut events = self.events.lock();
        if events.len() < self.capacity {
            events.push(event);
        } else {
            *self.truncated.lock() = true;
        }
    }

    /// Record a client commit point.
    pub fn mark(&self, id: u64) {
        self.record(PersistEvent::Mark(id));
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether events were dropped because the trace filled up.
    pub fn truncated(&self) -> bool {
        *self.truncated.lock()
    }

    /// Drain the recorded events.
    pub fn take(&self) -> Vec<PersistEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Copy the recorded events without draining.
    pub fn snapshot(&self) -> Vec<PersistEvent> {
        self.events.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistence_trace_keeps_order_and_flags_truncation() {
        let trace = PersistenceTrace::shared(3);
        trace.record(PersistEvent::NtStore {
            offset: 0,
            data: vec![1, 2],
        });
        trace.record(PersistEvent::Sfence);
        trace.mark(7);
        assert!(!trace.truncated());
        trace.record(PersistEvent::Sfence); // over capacity: dropped
        assert!(trace.truncated());
        let events = trace.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1], PersistEvent::Sfence);
        assert_eq!(events[2], PersistEvent::Mark(7));
        assert_eq!(trace.take().len(), 3);
        assert!(trace.is_empty());
    }
}
