//! Result collection: metrics with units, operation counts, output checks,
//! and the one-line JSON verdict the benchmark ends with.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Everything one run produces. Human-readable lines go to stdout as they
/// are recorded; [`Report::json`] renders the closing verdict.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// At most this many individual failures are printed; the rest are counted.
const MAX_PRINTED_PROBLEMS: usize = 20;

impl Report {
    /// Record a metric and print it.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        println!("metric {name} = {value} {unit}");
        self.metrics.push(Metric { name, unit, value });
    }

    /// Print an informational value that is not one of the reported metrics.
    pub fn note(&self, name: &str, unit: &str, value: f64) {
        println!("  {name} = {value} {unit}");
    }

    /// Count one attempted operation that succeeded.
    pub fn op_ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one attempted operation that failed: a non-200 response, a
    /// 503, an I/O error or a failed output check.
    pub fn op_failed(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problem(why);
    }

    /// Record a failed output check that is not tied to one operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.problem(why());
        }
    }

    fn problem(&mut self, why: String) {
        if self.problems.len() < MAX_PRINTED_PROBLEMS {
            println!("CHECK FAILED: {why}");
        }
        self.problems.push(why);
    }

    /// Failed operations ÷ attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Check that the recorded metrics are exactly `expected`, in any order,
    /// with matching units and finite values.
    pub fn check_metric_set(&mut self, expected: &[(&str, &str)]) {
        for (name, unit) in expected {
            if !valid_name(name) || !valid_unit(unit) {
                self.problem(format!("malformed metric {name} ({unit})"));
            }
            match self.metrics.iter().find(|m| m.name == *name) {
                None => self.problem(format!("metric {name} was not measured")),
                Some(m) if m.unit != *unit => {
                    self.problem(format!("metric {name} has unit {}, expected {unit}", m.unit))
                }
                Some(m) if !m.value.is_finite() => {
                    self.problem(format!("metric {name} is not finite: {}", m.value))
                }
                Some(_) => {}
            }
        }
        for m in &self.metrics.clone() {
            if !expected.iter().any(|(name, _)| *name == m.name) {
                self.problem(format!("metric {} is not declared", m.name));
            }
        }
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The closing verdict line.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value has no JSON spelling; the metric-set check
            // has already marked the run incorrect.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A metric or workload name: starts with a letter or digit, at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_rules() {
        assert!(valid_name("cache.put_us"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn json_verdict_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.op_ok();
        r.metric("setup_s", "s", 0.25);
        r.check_metric_set(&[("setup_s", "s")]);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.op_failed("boom".into());
        assert!(!r.correct());
        assert_eq!(r.error_rate(), 0.5);
    }

    #[test]
    fn undeclared_or_missing_metrics_fail_the_run() {
        let mut r = Report::default();
        r.op_ok();
        r.metric("a", "s", 1.0);
        r.check_metric_set(&[("b", "s")]);
        assert!(!r.correct());
    }
}
