//! A minimal wall-clock benchmark harness with a Criterion-shaped API.
//!
//! The bench targets (`benches/*.rs`, `harness = false`) drive this via
//! [`crate::criterion_group!`]/[`crate::criterion_main!`], so a bench
//! function written against Criterion's `bench_function`/`iter` needs
//! only its import line changed.
//! Measurement is deliberately simple: warm up by doubling the iteration
//! count until the batch takes long enough to time reliably, then run
//! several scaled measurement batches and report the fastest batch's
//! mean time per iteration. The minimum is the robust estimator on a
//! shared machine — descheduling and co-tenant interference only ever
//! *add* wall-clock time, so the fastest batch is the closest observation
//! of the code's true cost, and on an idle machine it coincides with the
//! mean.
//!
//! CLI: a bare argument filters benchmarks by substring; `--test` runs
//! each benchmark body once without timing (smoke mode, what
//! `cargo test --benches` passes); other `--` flags are ignored.

use std::time::{Duration, Instant};

/// Warmup batch must take at least this long before we trust the timing.
const WARMUP_FLOOR: Duration = Duration::from_millis(5);
/// Target duration of one measurement batch.
const MEASURE_TARGET: Duration = Duration::from_millis(8);
/// Measurement batches per benchmark; the fastest one is reported.
const MEASURE_BATCHES: u32 = 6;

/// Times one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    per_iter_ns: f64,
    smoke: bool,
}

impl Bencher {
    /// Calls `f` repeatedly and records the mean wall-clock time per call.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        if self.smoke {
            std::hint::black_box(f());
            return;
        }
        let mut n: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..n {
                std::hint::black_box(f());
            }
            let elapsed = t0.elapsed();
            if elapsed >= WARMUP_FLOOR || n >= 1 << 24 {
                let scale = MEASURE_TARGET.as_nanos() as f64 / elapsed.as_nanos().max(1) as f64;
                let m = ((n as f64 * scale).ceil() as u64).clamp(1, 1 << 26);
                let mut best = f64::INFINITY;
                for _ in 0..MEASURE_BATCHES {
                    let t1 = Instant::now();
                    for _ in 0..m {
                        std::hint::black_box(f());
                    }
                    best = best.min(t1.elapsed().as_nanos() as f64 / m as f64);
                }
                self.per_iter_ns = best;
                return;
            }
            n *= 2;
        }
    }
}

/// The top-level harness: registers and runs benchmarks.
#[derive(Debug)]
pub struct Criterion {
    filter: Option<String>,
    smoke: bool,
    ran: usize,
    record: Option<std::fs::File>,
}

impl Criterion {
    /// Builds a harness from the process arguments.
    ///
    /// Pins the sweep executor to one job for the whole bench process:
    /// wall-clock numbers must measure the kernels, not how many cores
    /// the build machine happens to have.
    ///
    /// When `BLITZCOIN_BENCH_OUT` names a file, every measurement is also
    /// appended there as a machine-readable `name\tvalue\tunit` line —
    /// this is what `scripts/bench.sh` collects into `BENCH_*.json`.
    pub fn from_args() -> Self {
        blitzcoin_sim::exec::pin_jobs(1);
        let mut filter = None;
        let mut smoke = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => smoke = true,
                a if a.starts_with("--") => {}
                a => filter = Some(a.to_string()),
            }
        }
        let record = std::env::var_os("BLITZCOIN_BENCH_OUT").map(|p| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .expect("open BLITZCOIN_BENCH_OUT for appending")
        });
        Criterion {
            filter,
            smoke,
            ran: 0,
            record,
        }
    }

    fn record_line(&mut self, name: &str, value: f64, unit: &str) {
        if let Some(f) = &mut self.record {
            use std::io::Write as _;
            let _ = writeln!(f, "{name}\t{value}\t{unit}");
        }
    }

    /// Runs (or skips, if filtered out) one named benchmark. Returns the
    /// measured mean time per iteration in nanoseconds (0.0 when the
    /// benchmark was filtered out or ran in smoke mode), so callers can
    /// derive throughput metrics and report them via
    /// [`Criterion::report_metric`].
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, mut f: F) -> f64
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.to_string();
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return 0.0;
            }
        }
        let mut b = Bencher {
            per_iter_ns: 0.0,
            smoke: self.smoke,
        };
        f(&mut b);
        self.ran += 1;
        if self.smoke {
            println!("{name:<48} ok (smoke)");
        } else {
            println!("{name:<48} {:>14}/iter", format_ns(b.per_iter_ns));
            self.record_line(&name, b.per_iter_ns, "ns/iter");
        }
        b.per_iter_ns
    }

    /// Reports a derived metric (e.g. events/sec computed from a
    /// benchmark's time per iteration). No-op in smoke mode, where no
    /// timing exists to derive from.
    pub fn report_metric(&mut self, name: impl std::fmt::Display, value: f64, unit: &str) {
        if self.smoke {
            return;
        }
        let name = name.to_string();
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        println!("{name:<48} {value:>14.0} {unit}");
        self.record_line(&name, value, unit);
    }

    /// Prints the run summary.
    pub fn summary(&self) {
        println!(
            "\n{} benchmark{} run{}",
            self.ran,
            if self.ran == 1 { "" } else { "s" },
            if self.smoke { " (smoke mode)" } else { "" }
        );
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Bundles bench functions into a single group runner, mirroring
/// Criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::harness::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::from_args();
            $($group(&mut c);)+
            c.summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher {
            per_iter_ns: 0.0,
            smoke: false,
        };
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(1);
            acc
        });
        assert!(b.per_iter_ns > 0.0);
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut b = Bencher {
            per_iter_ns: 0.0,
            smoke: true,
        };
        let mut calls = 0;
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(b.per_iter_ns, 0.0);
    }

    #[test]
    fn format_units() {
        assert!(format_ns(12.3).contains("ns"));
        assert!(format_ns(12_300.0).contains("µs"));
        assert!(format_ns(12_300_000.0).contains("ms"));
        assert!(format_ns(2.0e9).contains(" s"));
    }
}
