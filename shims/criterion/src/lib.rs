//! Offline `criterion` shim: a minimal wall-clock benchmark harness with
//! the API subset this workspace's benches use (`bench_function`,
//! `benchmark_group` with `sample_size`/`throughput`, `criterion_group!`,
//! `criterion_main!`, `black_box`). Every sample is kept: a result prints
//! as the median time per iteration with its spread (median absolute
//! deviation) and the fastest sample, plus element/byte throughput at the
//! median when configured — enough to tell a delta from noise. There is
//! no further statistical analysis and no HTML report.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measured quantity per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Nanoseconds per call of each sample, in run order.
    sample_ns: Vec<f64>,
}

impl Bencher {
    /// Times `f` in `samples` batches, storing each batch's mean
    /// wall-clock nanoseconds per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and estimate a batch size targeting ~10 ms per sample.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(20));
        let batch = (Duration::from_millis(10).as_nanos() / once.as_nanos()).clamp(1, 100_000);

        self.sample_ns = (0..self.samples.max(1))
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
    }
}

/// Median of `values` (0 when empty); sorts in place.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn report(name: &str, mut samples: Vec<f64>, throughput: Option<Throughput>) {
    let ns = median(&mut samples);
    let min = samples.first().copied().unwrap_or(0.0);
    let mut deviations: Vec<f64> = samples.iter().map(|s| (s - ns).abs()).collect();
    let mad = median(&mut deviations);
    let time = format!(
        "{}/iter (MAD {}, min {}, n={})",
        fmt_ns(ns),
        fmt_ns(mad),
        fmt_ns(min),
        samples.len()
    );
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  thrpt: {:.0} elem/s", n as f64 * 1e9 / ns)
        }
        Some(Throughput::Bytes(n)) => {
            format!(
                "  thrpt: {:.2} MiB/s",
                n as f64 * 1e9 / ns / (1024.0 * 1024.0)
            )
        }
        None => String::new(),
    };
    println!("{name:<48} time: {time}{rate}");
}

/// Benchmark registry and runner.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: self.sample_size,
            sample_ns: Vec::new(),
        };
        f(&mut b);
        report(name, b.sample_ns, None);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            sample_size,
            throughput: None,
        }
    }
}

/// Named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: self.sample_size,
            sample_ns: Vec::new(),
        };
        f(&mut b);
        report(
            &format!("{}/{name}", self.name),
            b.sample_ns,
            self.throughput,
        );
        self
    }

    pub fn finish(&mut self) {}
}

/// Declares a benchmark group function running each registered bench.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($f(&mut c);)+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn bencher_measures_something() {
        let mut c = super::Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.throughput(super::Throughput::Elements(100));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(super::median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(super::median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(super::median(&mut []), 0.0);
    }
}
