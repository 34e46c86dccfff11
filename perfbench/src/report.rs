//! Failure accounting and the result line.

use std::fmt::Write as _;

/// Operations attempted and how many failed, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued to the program (messages, feedback operations,
    /// RONI candidates or offered org messages).
    pub attempted: u64,
    /// Operations that returned a typed error.
    pub errors: u64,
    /// Operations whose output failed a check.
    pub check_failures: u64,
}

impl Tally {
    /// Failed operations: typed errors plus output-check failures, never
    /// more than were attempted.
    pub fn failed(&self) -> u64 {
        (self.errors + self.check_failures).min(self.attempted)
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Whether every output check passed and nothing errored.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed() == 0
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics as an aligned `name value unit` table.
    pub fn table(&self) -> String {
        let width = self.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "{:<width$}  {:>16.4}  {}", m.name, m.value, m.unit);
        }
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed()
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Read a metric's value back out of a result line.
pub fn metric_from_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find(',')?;
    rest[..end].trim().parse().ok()
}

/// Read a metric's value out of the `# name value unit` comment lines of
/// a run's output (used by the traced run to read its untraced twin's
/// figures).
pub fn metric_from_comments(output: &str, name: &str) -> Option<f64> {
    output.lines().find_map(|l| {
        let mut words = l.strip_prefix("# ")?.split_whitespace();
        if words.next()? != name {
            return None;
        }
        words.next()?.parse().ok()
    })
}
