//! Metric values, the operation ledger behind `pass_rate`, and the
//! result line the benchmark prints last.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One emitted metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The measured value.
    pub value: f64,
    /// Deterministic: identical on every run with the same seed.
    pub exact: bool,
}

/// Collects metrics in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A host-time (or host-memory) measurement.
    pub fn host(&mut self, name: &str, unit: &'static str, better: Better, value: f64) {
        self.push(name, unit, better, value, false);
    }

    /// A deterministic model output or count.
    pub fn exact(&mut self, name: &str, unit: &'static str, better: Better, value: f64) {
        self.push(name, unit, better, value, true);
    }

    fn push(&mut self, name: &str, unit: &'static str, better: Better, value: f64, exact: bool) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            better,
            value,
            exact,
        });
    }
}

/// Attempted and failed operations. An operation is one simulated
/// cell or one probe; it fails when it panics,
/// fails an output check, or gives a different exact result on a
/// repeat.
#[derive(Default)]
pub struct Ledger {
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one operation and the output-check problems found in it.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }

    /// Passed ÷ attempted.
    pub fn pass_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Renders the result line: `correct`, `attempted`, `failed`, and
/// every metric with its unit. A non-finite value cannot be written
/// as JSON; it is written as 0 and makes the run incorrect.
pub fn result_line(ledger: &Ledger, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.failed == 0 && ledger.attempted > 0 && finite,
        ledger.attempted,
        ledger.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_strict_json_with_every_digit() {
        let mut ledger = Ledger::default();
        ledger.op("a", vec![]);
        let line = result_line(
            &ledger,
            &[Metric {
                name: "x".into(),
                unit: "s",
                better: Better::Lower,
                value: 0.1234567891234,
                exact: false,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"x\": {\"value\": 0.1234567891234, \"unit\": \"s\"}}}"
        );
        assert!(acic_bench::json::Json::parse(&line).is_ok());
    }

    #[test]
    fn failed_operation_makes_the_run_incorrect() {
        let mut ledger = Ledger::default();
        ledger.op("a", vec![]);
        ledger.op("b", vec!["broke".into()]);
        assert_eq!(ledger.pass_rate(), 0.5);
        assert!(result_line(&ledger, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn median_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
