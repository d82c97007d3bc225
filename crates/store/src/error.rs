//! Error type for store operations.

use std::fmt;

/// Errors raised by namespaces and regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An access reached past the end of a region.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Region capacity.
        capacity: u64,
    },
    /// The namespace has no room for the requested allocation.
    OutOfSpace {
        /// Requested bytes.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// Operation requires App Direct mode (e.g. persistence primitives in
    /// Memory Mode, which does not guarantee persistence).
    NotPersistent,
    /// The access touched a poisoned media range (an uncorrectable error on
    /// a 256 B XPLine). `offset`/`len` describe the first poisoned XPLine
    /// the access intersected; the data there is lost until rewritten from
    /// a durable copy.
    Poisoned {
        /// Byte offset of the first poisoned XPLine the access touched.
        offset: u64,
        /// Length of the poisoned span, in bytes (a multiple of the XPLine).
        len: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) out of bounds for region of {capacity} bytes"
            ),
            StoreError::OutOfSpace {
                requested,
                available,
            } => {
                write!(
                    f,
                    "allocation of {requested} bytes exceeds {available} available"
                )
            }
            StoreError::NotPersistent => {
                write!(f, "operation requires a persistent (App Direct) namespace")
            }
            StoreError::Poisoned { offset, len } => write!(
                f,
                "uncorrectable media error: poisoned XPLine range [{offset}, {offset}+{len})"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StoreError::OutOfBounds {
            offset: 10,
            len: 20,
            capacity: 16,
        };
        assert!(e.to_string().contains("out of bounds"));
        let e = StoreError::OutOfSpace {
            requested: 100,
            available: 1,
        };
        assert!(e.to_string().contains("exceeds"));
        assert!(StoreError::NotPersistent.to_string().contains("App Direct"));
        let e = StoreError::Poisoned {
            offset: 256,
            len: 512,
        };
        assert!(e.to_string().contains("poisoned"));
        assert!(e.to_string().contains("256"));
    }
}
