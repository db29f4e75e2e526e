//! The harness's one wall-clock source. Every host-time metric and every
//! ledger span reads the clock through [`now`].

use std::time::{Duration, Instant};

/// The current host instant.
pub fn now() -> Instant {
    // detlint: allow(D002) -- benchmark harness host timing; no simulation state reads it
    Instant::now()
}

/// Runs `f` and returns its result plus the host time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = now();
    let out = f();
    (out, start.elapsed())
}

/// Whole nanoseconds of `d`, saturating at `u64::MAX`.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `d` in fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
