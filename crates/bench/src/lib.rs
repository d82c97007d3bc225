//! The one writer behind every `BENCH_*.json` file `repro` writes.
//!
//! A BENCH file is one object with a field per line. Its values are
//! unsigned integers, floats at a fixed precision or in shortest form,
//! bools, `null`, inline objects, and arrays of inline objects printed
//! one per line. Every key is a literal and no value is a string, so
//! nothing needs escaping.

#![deny(clippy::unwrap_used)]

use std::fmt::Display;

/// Unsigned integers a BENCH field holds, printed exactly (a `u64`
/// seed may exceed `i64::MAX`).
pub trait Unsigned: Display {}
impl Unsigned for u32 {}
impl Unsigned for u64 {}
impl Unsigned for usize {}

/// Digits after the point of a [`Json::fixed`] float.
const DIGITS: usize = 6;

/// A JSON object under construction; fields print in insertion order.
///
/// ```
/// use pmem_bench::Json;
///
/// let body = Json::new()
///     .int("seed", u64::MAX)
///     .float("at_s", 0.05)
///     .object(
///         "run",
///         Json::new().fixed("p99_s", 0.25).fixed_or_null("dead_at_s", None),
///     )
///     .rows("curve", [Json::new().fixed_to("scale", 0.5, 2).bool("ok", true)]);
/// assert_eq!(
///     body.render(),
///     "{\n  \"seed\": 18446744073709551615,\n  \"at_s\": 0.05,\n  \
///      \"run\": {\"p99_s\": 0.250000, \"dead_at_s\": null},\n  \
///      \"curve\": [\n    {\"scale\": 0.50, \"ok\": true}\n  ]\n}\n"
/// );
/// ```
#[derive(Debug, Default)]
pub struct Json(Vec<(&'static str, String)>);

impl Json {
    /// An object with no fields yet.
    pub fn new() -> Self {
        Self::default()
    }

    fn field(mut self, key: &'static str, value: String) -> Self {
        self.0.push((key, value));
        self
    }

    /// An unsigned integer.
    pub fn int(self, key: &'static str, value: impl Unsigned) -> Self {
        self.field(key, value.to_string())
    }

    /// A float to six decimals.
    pub fn fixed(self, key: &'static str, value: f64) -> Self {
        self.fixed_to(key, value, DIGITS)
    }

    /// A float to `digits` decimals.
    pub fn fixed_to(self, key: &'static str, value: f64, digits: usize) -> Self {
        self.field(key, format!("{value:.digits$}"))
    }

    /// A float to six decimals, or `null` for `None`.
    pub fn fixed_or_null(self, key: &'static str, value: Option<f64>) -> Self {
        match value {
            Some(v) => self.fixed(key, v),
            None => self.field(key, "null".to_string()),
        }
    }

    /// A float in its shortest `Display` form (`0.05`, not `0.050000`).
    pub fn float(self, key: &'static str, value: f64) -> Self {
        self.field(key, value.to_string())
    }

    /// A bool.
    pub fn bool(self, key: &'static str, value: bool) -> Self {
        self.field(key, value.to_string())
    }

    /// A nested object, printed on one line.
    pub fn object(self, key: &'static str, value: Json) -> Self {
        self.field(key, value.inline())
    }

    /// An array of objects, one per line. Indented as a field of the
    /// top-level object, the only place a BENCH file holds an array.
    pub fn rows(self, key: &'static str, rows: impl IntoIterator<Item = Json>) -> Self {
        let lines: Vec<String> = rows
            .into_iter()
            .map(|row| format!("    {}", row.inline()))
            .collect();
        self.field(key, format!("[\n{}\n  ]", lines.join(",\n")))
    }

    /// The fields as `"key": value`, each after `indent`, joined by `sep`.
    fn fields(&self, indent: &str, sep: &str) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{indent}\"{k}\": {v}"))
            .collect();
        fields.join(sep)
    }

    fn inline(&self) -> String {
        format!("{{{}}}", self.fields("", ", "))
    }

    /// The object as a file body: one field per line, newline-terminated.
    pub fn render(&self) -> String {
        format!("{{\n{}\n}}\n", self.fields("  ", ",\n"))
    }

    /// Write the body to `name` in the working directory and print
    /// `  (json: NAME)`, or print why it was not written. Returns whether
    /// it was, so a section can fold a failed write into its gate.
    pub fn write(&self, name: &str) -> bool {
        match std::fs::write(name, self.render()) {
            Ok(()) => {
                println!("  (json: {name})");
                true
            }
            Err(e) => {
                eprintln!("  {name} not written: {e}");
                false
            }
        }
    }
}
