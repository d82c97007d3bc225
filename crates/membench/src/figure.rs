//! Figure data containers and text rendering.
//!
//! Each experiment produces a [`Figure`]: labelled series of (x, y) points
//! directly comparable to a plot in the paper. Figures render to CSV (for
//! plotting) and to aligned text tables (for the `repro` binary's output).

/// One labelled curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (matches the paper's legends, e.g. "18" threads or
    /// "2 Near").
    pub label: String,
    /// (x, y) points; x is access size / thread count per the figure.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build from an iterator of points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// Maximum y value (0.0 for an empty series).
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(0.0, f64::max)
    }

    /// x of the maximum y.
    pub fn peak_x(&self) -> f64 {
        self.points
            .iter()
            .fold(
                (0.0, f64::MIN),
                |best, p| if p.1 > best.1 { *p } else { best },
            )
            .0
    }

    /// y at a given x (exact match).
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.0 == x).map(|p| p.1)
    }
}

/// One reproduced figure (or half-figure, e.g. "Figure 3a").
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier, e.g. "fig3a".
    pub id: String,
    /// Human title, e.g. "Read bandwidth — grouped access".
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Construct an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as CSV: `x,<label1>,<label2>,...` — one row per distinct x.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        for x in xs {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                match s.at(x) {
                    Some(y) => out.push_str(&format!(",{y:.3}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as an aligned text table for terminal output.
    pub fn to_table(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();

        let mut out = format!("== {} ({}) ==\n", self.title, self.id);
        out.push_str(&format!("{:>12}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("{:>10}", s.label));
        }
        out.push('\n');
        for x in xs {
            if x >= 1024.0 && x.fract() == 0.0 && (x as u64).is_power_of_two() {
                out.push_str(&format!("{:>12}", format_bytes(x as u64)));
            } else {
                out.push_str(&format!("{x:>12}"));
            }
            for s in &self.series {
                match s.at(x) {
                    Some(y) => out.push_str(&format!("{y:>10.2}")),
                    None => out.push_str(&format!("{:>10}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Pretty-print power-of-two byte counts ("4K", "2M").
pub fn format_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn figure() -> Figure {
        let mut f = Figure::new("figX", "Test", "x", "GB/s");
        f.series
            .push(Series::new("a", vec![(1.0, 10.0), (2.0, 30.0)]));
        f.series.push(Series::new("b", vec![(1.0, 5.0)]));
        f
    }

    #[test]
    fn peak_and_at() {
        let f = figure();
        let a = f.series("a").unwrap();
        assert_eq!(a.peak(), 30.0);
        assert_eq!(a.peak_x(), 2.0);
        assert_eq!(a.at(1.0), Some(10.0));
        assert_eq!(a.at(9.0), None);
        assert!(f.series("zzz").is_none());
    }

    #[test]
    fn csv_includes_all_series_and_gaps() {
        let csv = figure().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10.000,5.000");
        assert_eq!(lines[2], "2,30.000,"); // series b has no point at x=2
    }

    #[test]
    fn table_renders_headers_and_dashes() {
        let t = figure().to_table();
        assert!(t.contains("== Test (figX) =="));
        assert!(t.contains("a"));
        assert!(t.contains("-"));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(64), "64");
        assert_eq!(format_bytes(4096), "4K");
        assert_eq!(format_bytes(2 << 20), "2M");
        assert_eq!(format_bytes(1000), "1000");
    }

    #[test]
    fn commas_in_labels_are_sanitized() {
        let mut f = Figure::new("f", "t", "x,axis", "y");
        f.series.push(Series::new("a,b", vec![(1.0, 1.0)]));
        let header = f.to_csv().lines().next().unwrap().to_string();
        assert_eq!(header, "x;axis,a;b");
    }
}
