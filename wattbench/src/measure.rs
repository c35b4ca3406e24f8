//! Shared measurement plumbing: the metric tables, output checks, order
//! statistics, and the host facts every result is reported with.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off. What
/// one unit of work is differs per workload; see the README.
pub(crate) const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput", "1/s"), ("latency_p50_ms", "ms")];

/// Per-layer metrics, reported by every workload with tracing on. A layer
/// the workload does not run reports 0.
pub(crate) const PER_LAYER: &[(&str, &str)] = &[
    ("env.cores", "count"),
    ("traced.throughput", "1/s"),
    ("routing.allocate_calls", "count"),
    ("routing.allocate_busy_s", "s"),
    ("routing.allocate_us_p50", "us"),
    ("routing.allocate_us_p99", "us"),
    ("routing.same_price_ratio", "ratio"),
    ("engine.ticks", "count"),
    ("engine.tick_busy_s", "s"),
    ("engine.tick_self_s", "s"),
    ("engine.report_ms", "ms"),
    ("engine.snapshot_bytes", "bytes"),
    ("hierarchy.sequential_s", "s"),
    ("hierarchy.sharded_s", "s"),
    ("hierarchy.self_s", "s"),
    ("hierarchy.shard_speedup", "ratio"),
    ("montecarlo.paths", "count"),
    ("montecarlo.path_ms", "ms"),
    ("optimizer.evaluations", "count"),
    ("sweep.artifact_hit_rate", "ratio"),
    ("sweep.billing_matrices", "count"),
    ("sweep.compiled_preferences", "count"),
    ("market.generate_ms", "ms"),
    ("market.table_build_ms", "ms"),
    ("workload.trace_gen_ms", "ms"),
    ("workload.topology_ms", "ms"),
    ("daemon.route_us_p50", "us"),
    ("daemon.route_us_p99", "us"),
    ("daemon.stats_us_p50", "us"),
    ("daemon.stats_us_p99", "us"),
    ("daemon.metrics_us_p50", "us"),
    ("daemon.metrics_us_p99", "us"),
    ("daemon.tick_lag_steps", "steps"),
    ("daemon.gen_late_ms_p99", "ms"),
    ("daemon.ladder_max_rps", "1/s"),
];

/// What one workload run found: checked operations, failures, metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed a check, got a non-`ok` reply, or hit an IO
    /// error or timeout.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one checked operation; a failed check is logged to stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("wattbench: check failed: {what}");
        }
    }

    /// Count `attempted` operations checked together, `failed` of them
    /// failing.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("wattbench: check failed {failed} of {attempted} times: {what}");
        }
    }

    /// Set a metric from the tables above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// The result line: one JSON object carrying every per-layer metric
    /// (`traced`) or every end-to-end one, each with its unit. Per-layer
    /// metrics a workload did not set are 0; a missing end-to-end metric is
    /// a bug in the workload.
    pub fn to_json(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Median of a non-empty sample.
pub(crate) fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a non-empty sample.
pub(crate) fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Run `build` `n` times, returning the last result and the median wall
/// time in seconds.
pub(crate) fn median_timed<T>(n: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(build()));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("n >= 1"), median(&times))
}

/// Set-up timings sampled across a run rather than back to back, so that
/// drift in the host's speed over the run averages out of `setup_s`.
#[derive(Debug, Default)]
pub(crate) struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Time one set-up.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let built = std::hint::black_box(build());
        self.0.push(t0.elapsed().as_secs_f64());
        built
    }

    /// Whether fewer than `n` set-ups have been timed.
    pub fn fewer_than(&self, n: usize) -> bool {
        self.0.len() < n
    }

    /// Median set-up time, seconds.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Worker threads the host offers; runners are pinned to this.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (VmHWM), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
