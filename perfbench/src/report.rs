//! The run's result: named metrics with units, printed as readable lines
//! followed by the one-line JSON object that ends standard output.

use std::fmt::Write as _;

/// Metrics and notes of one run, in the order they were recorded.
#[derive(Default)]
pub struct Report {
    /// Metrics that go into the final JSON object.
    metrics: Vec<(String, f64, &'static str)>,
    /// Figures printed but kept out of the JSON object: layers only some
    /// workloads have, the latency tail, and rates that can be 0.
    extra: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric of the JSON object.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a figure that is printed only.
    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extra.push((name.into(), value, unit));
    }

    /// Prints the per-round (or per-session) values a metric summarizes.
    pub fn rounds(&mut self, name: &str, values: &[f64]) {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        self.note(format!("{name} per round: {}", values.join(" ")));
    }

    /// Records a free-form line for the readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the readable lines, then the JSON object as the last line.
    ///
    /// # Errors
    ///
    /// Refuses (printing nothing) if a JSON metric is not a finite
    /// number, which would make the object invalid.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) -> Result<(), String> {
        if let Some((name, value, _)) = self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in self.metrics.iter().chain(&self.extra) {
            println!("{name:<40} {value:>16.4} {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }
}
