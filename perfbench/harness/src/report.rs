//! Result assembly: named metrics with units, the correctness gate's
//! counts, and the one-line JSON result.

use bfgts_bench::json::Json;
use std::collections::BTreeMap;

/// Metrics in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The correctness gate: operations attempted and failed, with a note
/// per failure.
#[derive(Debug, Default)]
pub struct Gate {
    /// Cell runs or requests attempted.
    pub attempted: u64,
    /// Those that panicked, failed their audit or diverged.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub notes: Vec<String>,
}

impl Gate {
    /// Records one attempted operation and whether it passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The correctness gate.
    pub gate: Gate,
    /// The metrics of the selected mode.
    pub metrics: Metrics,
    /// Human-readable context lines (sample counts, pass counts).
    pub info: Vec<String>,
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Prints the metric table and, as the last line, the JSON result.
pub fn print(outcome: &Outcome) {
    for line in &outcome.info {
        println!("{line}");
    }
    for note in outcome.gate.notes.iter().take(10) {
        println!("FAILED: {note}");
    }
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    println!(
        "attempted {} failed {}",
        outcome.gate.attempted, outcome.gate.failed
    );
    let metrics: BTreeMap<String, Json> = outcome
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Float(finite(*value))),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(outcome.gate.failed == 0)),
        ("attempted", Json::UInt(outcome.gate.attempted)),
        ("failed", Json::UInt(outcome.gate.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
}
