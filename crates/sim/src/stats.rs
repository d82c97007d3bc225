//! Simulator-native counters — the stand-in for the paper's VTune
//! measurements (UPI utilization, internal write amplification, per-DIMM
//! media traffic).

use std::fmt;

/// Counters accumulated while evaluating a workload.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimStats {
    /// Application-visible bytes read.
    pub app_read_bytes: u64,
    /// Application-visible bytes written.
    pub app_write_bytes: u64,
    /// Bytes actually read from media (≥ app bytes when the 256 B XPLine
    /// granularity causes read amplification).
    pub media_read_bytes: u64,
    /// Bytes actually written to media (≥ app bytes under write
    /// amplification — partial XPLine flushes, far-socket ntstore
    /// read-modify-write).
    pub media_write_bytes: u64,
    /// Bytes that crossed the UPI, including the ~25 % metadata share.
    pub upi_bytes: u64,
    /// 256 B read-buffer hits inside the Optane controller.
    pub read_buffer_hits: u64,
    /// 256 B lines flushed from the write-combining buffer while still
    /// partial (each one costs a read-modify-write on media).
    pub partial_flushes: u64,
    /// Full-line flushes from the write-combining buffer.
    pub full_flushes: u64,
    /// Coherence remapping (warm-up) events observed.
    pub remap_events: u64,
}

impl SimStats {
    /// Read amplification: media read bytes / app read bytes (1.0 = none).
    pub fn read_amplification(&self) -> f64 {
        if self.app_read_bytes == 0 {
            1.0
        } else {
            self.media_read_bytes as f64 / self.app_read_bytes as f64
        }
    }

    /// Write amplification: media write bytes / app write bytes. The paper
    /// observed up to ~10× for far-socket writes (§4.4).
    pub fn write_amplification(&self) -> f64 {
        if self.app_write_bytes == 0 {
            1.0
        } else {
            self.media_write_bytes as f64 / self.app_write_bytes as f64
        }
    }

    /// Merge a whole collection of counter sets (e.g. per-job partials from
    /// a concurrent serving run) into one aggregate.
    pub fn merged<'a, I>(parts: I) -> SimStats
    where
        I: IntoIterator<Item = &'a SimStats>,
    {
        let mut total = SimStats::default();
        for part in parts {
            total.merge(part);
        }
        total
    }

    /// Merge counters from another evaluation (e.g. per-socket partials).
    pub fn merge(&mut self, other: &SimStats) {
        self.app_read_bytes += other.app_read_bytes;
        self.app_write_bytes += other.app_write_bytes;
        self.media_read_bytes += other.media_read_bytes;
        self.media_write_bytes += other.media_write_bytes;
        self.upi_bytes += other.upi_bytes;
        self.read_buffer_hits += other.read_buffer_hits;
        self.partial_flushes += other.partial_flushes;
        self.full_flushes += other.full_flushes;
        self.remap_events += other.remap_events;
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "app r/w {}/{} MiB, media r/w {}/{} MiB (ampl {:.2}/{:.2}), upi {} MiB, remaps {}",
            self.app_read_bytes >> 20,
            self.app_write_bytes >> 20,
            self.media_read_bytes >> 20,
            self.media_write_bytes >> 20,
            self.read_amplification(),
            self.write_amplification(),
            self.upi_bytes >> 20,
            self.remap_events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_defaults_to_one() {
        let s = SimStats::default();
        assert_eq!(s.read_amplification(), 1.0);
        assert_eq!(s.write_amplification(), 1.0);
    }

    #[test]
    fn amplification_ratio() {
        let s = SimStats {
            app_write_bytes: 100,
            media_write_bytes: 1000,
            ..Default::default()
        };
        assert!((s.write_amplification() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn merged_folds_a_collection() {
        let parts = [
            SimStats {
                app_read_bytes: 10,
                media_read_bytes: 12,
                ..Default::default()
            },
            SimStats {
                app_read_bytes: 30,
                app_write_bytes: 5,
                ..Default::default()
            },
            SimStats::default(),
        ];
        let total = SimStats::merged(&parts);
        assert_eq!(total.app_read_bytes, 40);
        assert_eq!(total.app_write_bytes, 5);
        assert_eq!(total.media_read_bytes, 12);
        assert_eq!(
            SimStats::merged(std::iter::empty::<&SimStats>()),
            SimStats::default()
        );
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimStats {
            app_read_bytes: 10,
            upi_bytes: 5,
            ..Default::default()
        };
        let b = SimStats {
            app_read_bytes: 20,
            remap_events: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.app_read_bytes, 30);
        assert_eq!(a.upi_bytes, 5);
        assert_eq!(a.remap_events, 1);
    }

    #[test]
    fn display_is_humane() {
        let s = SimStats {
            app_read_bytes: 2 << 20,
            ..Default::default()
        };
        let text = format!("{s}");
        assert!(text.contains("app r/w 2/0 MiB"));
    }
}
