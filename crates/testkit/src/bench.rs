//! A minimal wall-clock micro-benchmark harness.
//!
//! The `harness = false` bench targets in `bfgts-bench` used criterion,
//! which the offline registry cannot supply. This module re-creates the
//! slice of criterion those benches need: named benchmark functions and
//! groups, automatic calibration of the iteration count, median-of-batches
//! timing, and the cargo integration flags (`--bench` is ignored, `--test`
//! runs every benchmark exactly once so `cargo test --benches` stays
//! fast, positional arguments filter benchmarks by substring).
//!
//! ```no_run
//! use bfgts_testkit::bench::Harness;
//! use std::hint::black_box;
//!
//! let mut h = Harness::from_args();
//! h.bench("sum_1k", || {
//!     black_box((0..1000u64).sum::<u64>());
//! });
//! h.finish();
//! ```

use std::time::{Duration, Instant};

/// Target wall-clock spent measuring one benchmark.
const MEASURE_TARGET: Duration = Duration::from_millis(300);
/// Number of timed batches; the median batch is reported.
const BATCHES: usize = 11;

/// The harness: parses cargo's bench/test arguments and runs benchmarks.
pub struct Harness {
    filters: Vec<String>,
    test_mode: bool,
    ran: usize,
}

impl Harness {
    /// Builds a harness from `std::env::args`.
    ///
    /// Recognised: `--test` (run each benchmark once, no timing), `--bench`
    /// and `--quiet`/`-q` (accepted and ignored, cargo passes them), any
    /// other `--flag` (ignored for forward compatibility with cargo's
    /// libtest pass-through), and positional substring filters.
    pub fn from_args() -> Self {
        let mut filters = Vec::new();
        let mut test_mode = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                s if s.starts_with('-') => {}
                s => filters.push(s.to_string()),
            }
        }
        Self {
            filters,
            test_mode,
            ran: 0,
        }
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }

    /// Runs one benchmark: calibrates an iteration count, times
    /// `BATCHES` batches and prints the median per-iteration time.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) {
        if !self.selected(name) {
            return;
        }
        self.ran += 1;
        if self.test_mode {
            f();
            println!("test {name} ... ok");
            return;
        }
        // Calibrate: find an iteration count taking ~1/BATCHES of the
        // measurement target.
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now(); // detlint: allow(D002) -- bench harness measures wall time by design; never feeds simulation state
            for _ in 0..iters {
                f();
            }
            let elapsed = t0.elapsed();
            if elapsed >= MEASURE_TARGET / BATCHES as u32 || iters >= 1 << 30 {
                break;
            }
            // Grow geometrically toward the target batch duration.
            let grow = if elapsed.is_zero() {
                16
            } else {
                ((MEASURE_TARGET / BATCHES as u32).as_nanos() / elapsed.as_nanos().max(1))
                    .clamp(2, 16) as u64
            };
            iters = iters.saturating_mul(grow);
        }
        let mut samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t0 = Instant::now(); // detlint: allow(D002) -- bench harness measures wall time by design; never feeds simulation state
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        let (lo, hi) = (samples[0], samples[samples.len() - 1]);
        println!(
            "bench {name:<44} {:>12}/iter (min {}, max {}, {iters} iters/batch)",
            fmt_ns(median),
            fmt_ns(lo),
            fmt_ns(hi),
        );
    }

    /// Prints the run summary. Call last.
    pub fn finish(self) {
        if self.test_mode {
            println!(
                "\ntest result: ok. {} passed; 0 failed (bench smoke mode)",
                self.ran
            );
        } else {
            println!("\n{} benchmark(s) measured", self.ran);
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(filters: &[&str], test_mode: bool) -> Harness {
        Harness {
            filters: filters.iter().map(|s| s.to_string()).collect(),
            test_mode,
            ran: 0,
        }
    }

    #[test]
    fn filters_select_by_substring() {
        let h = harness(&["bloom"], false);
        assert!(h.selected("bloom_insert/512"));
        assert!(!h.selected("predictor_lookup"));
        let all = harness(&[], false);
        assert!(all.selected("anything"));
    }

    #[test]
    fn test_mode_runs_once() {
        let mut h = harness(&[], true);
        let mut count = 0;
        h.bench("once", || count += 1);
        assert_eq!(count, 1);
        assert_eq!(h.ran, 1);
    }

    #[test]
    fn format_scales_units() {
        assert!(fmt_ns(12.3).ends_with("ns"));
        assert!(fmt_ns(12_300.0).ends_with("µs"));
        assert!(fmt_ns(12_300_000.0).ends_with("ms"));
    }
}
