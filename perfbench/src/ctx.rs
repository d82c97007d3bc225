//! What one pass of a workload accumulates: op and set-up timings, check
//! verdicts, and metric values.

use std::collections::BTreeMap;

use crate::metrics;
use crate::trace::Tracer;

/// Failure details kept for printing; the counts keep going past it.
const KEPT_FAILURES: usize = 20;

/// One pass over a workload.
#[derive(Debug)]
pub struct Ctx {
    /// Times every call; records spans in the traced pass.
    pub tracer: Tracer,
    /// Host seconds of each op in the timed phase.
    pub ops: Vec<f64>,
    /// Host seconds of each set-up.
    pub setups: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error or failed an output check, plus failed
    /// whole-run checks.
    pub failed: u64,
    /// Per named check: (passed, failed).
    pub verdicts: BTreeMap<&'static str, (u64, u64)>,
    /// The first failures, for the printed report.
    pub failures: Vec<String>,
    /// Metric values by catalog name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Ctx {
    /// An empty pass; spans are recorded when `trace`.
    pub fn new(trace: bool) -> Self {
        Ctx {
            tracer: Tracer::new(trace),
            ops: Vec::new(),
            setups: Vec::new(),
            attempted: 0,
            failed: 0,
            verdicts: BTreeMap::new(),
            failures: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Run one op inside a span and record its host time.
    pub fn op<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.tracer.next_op();
        let (out, secs) = self.tracer.timed(span, f);
        self.tracer.end_op();
        self.ops.push(secs);
        self.attempted += 1;
        (out, secs)
    }

    /// Record a named check's verdict; returns `ok`. The detail is built
    /// only when the check fails.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let entry = self.verdicts.entry(name).or_insert((0, 0));
        if ok {
            entry.0 += 1;
        } else {
            entry.1 += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(format!("{name}: {}", detail()));
            }
        }
        ok
    }

    /// Count the op just run as failed unless `ok`.
    pub fn op_result(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    /// A check over the whole run: a failure counts as one failed op.
    pub fn check_run(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        let ok = self.check(name, ok, detail);
        self.op_result(ok);
    }

    /// Set a catalog metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            metrics::find(name).is_some(),
            "{name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// Fold another pass's checks in and adopt its values for every metric
    /// this pass has not measured itself.
    pub fn absorb(&mut self, other: Ctx) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, (pass, fail)) in other.verdicts {
            let entry = self.verdicts.entry(name).or_insert((0, 0));
            entry.0 += pass;
            entry.1 += fail;
        }
        for failure in other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(failure);
            }
        }
        for (name, value) in other.values {
            self.values.entry(name).or_insert(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_counts_one_failed_op_and_the_run_goes_on() {
        let mut ctx = Ctx::new(false);
        for i in 0..3u32 {
            let (v, _) = ctx.op("ssb.query.aware", || i);
            let ok = ctx.check("rows == reference", v != 1, || format!("op {v}"));
            ctx.op_result(ok);
        }
        assert_eq!((ctx.attempted, ctx.failed), (3, 1));
        assert_eq!(ctx.verdicts["rows == reference"], (2, 1));
        assert_eq!(ctx.failures, vec!["rows == reference: op 1".to_string()]);
        assert_eq!(ctx.ops.len(), 3);
    }

    #[test]
    fn absorb_keeps_measured_values() {
        let mut a = Ctx::new(false);
        a.set("ssb.datagen_s", 1.0);
        let mut b = Ctx::new(false);
        b.set("ssb.datagen_s", 2.0);
        b.set("ssb.load_s.unaware", 3.0);
        b.check_run("probe", false, || "boom".into());
        a.absorb(b);
        assert_eq!(a.values["ssb.datagen_s"], 1.0);
        assert_eq!(a.values["ssb.load_s.unaware"], 3.0);
        assert_eq!(a.failed, 1);
    }
}
