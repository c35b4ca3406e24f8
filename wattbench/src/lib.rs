//! `wattbench`: the end-to-end and per-layer benchmark of the wattroute
//! workspace. `src/main.rs` is the one command; each workload lives in a
//! module of its own. See `README.md` for the workloads, the metrics, and
//! which layer metric should move which end-to-end metric.

pub mod fleet;
pub mod measure;
pub mod serve;
pub mod study;
pub mod timed;
pub mod trace;

use measure::{median_timed, Outcome};
use std::sync::Arc;
use std::time::Instant;
use timed::{RoutingSink, RoutingStats, TimedPolicy};
use trace::Tracer;
use wattroute::hierarchy::HierarchicalReplay;
use wattroute::prelude::*;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// With tracing on, report per-layer metrics instead of end-to-end.
    pub traced: bool,
    /// Runner worker threads (the host's available parallelism).
    pub cores: usize,
}

/// Set-up repetitions; `setup_s` is their median.
pub(crate) const SETUP_REPEATS: usize = 11;

/// The price-conscious policy at the paper's preferred 1500 km threshold:
/// the optimized policy of every workload.
pub fn price_conscious() -> Box<dyn RoutingPolicy> {
    Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))
}

/// The Akamai-like baseline the Monte Carlo band compares against.
pub fn akamai_like() -> Box<dyn RoutingPolicy> {
    Box::new(AkamaiLikePolicy::default())
}

/// A shareable factory of `make()` policies, wrapped in a timing
/// [`TimedPolicy`] when a sink is given.
pub fn factory(
    make: fn() -> Box<dyn RoutingPolicy>,
    sink: Option<&RoutingSink>,
) -> PathPolicyFactory {
    match sink {
        None => Arc::new(make),
        Some(sink) => {
            let sink = sink.clone();
            Arc::new(move || Box::new(TimedPolicy::new(make(), &sink)))
        }
    }
}

/// Report the routing layer's metrics, per workload pass.
pub(crate) fn routing_metrics(out: &mut Outcome, stats: &RoutingStats, passes: f64) {
    let us: Vec<f64> = stats.durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.set("routing.allocate_calls", stats.calls as f64 / passes);
    out.set("routing.allocate_busy_s", stats.busy_s() / passes);
    if !us.is_empty() {
        out.set("routing.allocate_us_p50", measure::quantile(&us, 0.50));
        out.set("routing.allocate_us_p99", measure::quantile(&us, 0.99));
    }
    out.set("routing.same_price_ratio", stats.same_price_ratio());
}

/// Time the market and workload layers' set-up calls for a nine-cluster
/// scenario over `range`: trace generation, price generation, and the
/// price-table build.
pub(crate) fn setup_layer_metrics(out: &mut Outcome, seed: u64, range: HourRange) {
    let ms = |secs: f64| secs * 1e3;
    let (_, trace_s) = median_timed(SETUP_REPEATS, || {
        SyntheticWorkloadConfig { seed, ..Default::default() }.generate(range)
    });
    let (prices, gen_s) = median_timed(SETUP_REPEATS, || {
        PriceGenerator::nine_cluster_default(seed).realtime_hourly(range)
    });
    let hubs = ClusterSet::akamai_like_nine().hub_ids();
    let (_, table_s) = median_timed(SETUP_REPEATS, || PriceTable::build(&prices, &hubs, range, 0));
    out.set("workload.trace_gen_ms", ms(trace_s));
    out.set("market.generate_ms", ms(gen_s));
    out.set("market.table_build_ms", ms(table_s));
}

/// The engine layer, driven directly: replay `scenario` over `range`
/// through [`SimulationEngine::tick`] with a timed price-conscious policy,
/// one span per tick, then time `report` and size `snapshot` at the final
/// step. The replay's report must equal the batch `Scenario::execute`.
pub(crate) fn engine_probe(
    out: &mut Outcome,
    scenario: &Scenario,
    range: HourRange,
    tracer: &Arc<Tracer>,
) {
    let sink = RoutingSink::default();
    let table = PriceTable::build(
        &scenario.prices,
        &scenario.clusters.hub_ids(),
        range,
        scenario.config.reaction_delay_hours,
    );
    let mut engine =
        SimulationEngine::new(&scenario.clusters, &scenario.trace.states, scenario.config.clone())
            .with_clamped_lead_hours(table.clamped_lead_hours());
    let mut policy = TimedPolicy::new(price_conscious(), &sink).with_tracer(tracer);
    tracer.span("engine.replay", || {
        for (i, step) in scenario.trace.steps().iter().enumerate() {
            let hour = scenario.trace.step_hour(i);
            let prices = PriceSlice::new(
                hour,
                table.delayed_at(hour).expect("table covers the trace"),
                table.billing_at(hour).expect("table covers the trace"),
            );
            tracer.span("engine.tick", || {
                engine.tick(&mut policy, prices, DemandSlice::new(&step.us_demand));
            });
        }
    });
    let (ticks, busy, own) = tracer.totals("engine.tick");
    out.set("engine.ticks", ticks as f64);
    out.set("engine.tick_busy_s", busy.as_secs_f64());
    out.set("engine.tick_self_s", own.as_secs_f64());

    let (report, report_s) = median_timed(SETUP_REPEATS, || engine.report());
    out.set("engine.report_ms", report_s * 1e3);
    out.set("engine.snapshot_bytes", engine.snapshot().to_json_value().to_string().len() as f64);
    let batch = scenario.execute(price_conscious().as_mut(), RunOptions::new());
    out.check(report == batch, "engine tick replay equals Scenario::execute");
}

/// Per-path cost of a Monte Carlo band, ms: the band's wall time times the
/// workers that shared its paths, divided by the paths.
pub(crate) fn path_ms(band_s: f64, cores: usize, paths: usize) -> f64 {
    band_s * 1e3 * cores.min(paths) as f64 / paths as f64
}

/// Price paths a Monte Carlo probe draws on another workload's deployment.
const PROBE_PATHS: usize = 2;

/// The Monte Carlo layer probed on a workload that does not run it: one
/// band of [`PROBE_PATHS`] paths over the workload's own deployment and
/// trace.
pub(crate) fn montecarlo_probe(out: &mut Outcome, scenario: &Scenario, args: &RunArgs) {
    let model = MarketModel::calibrated().restricted_to(&scenario.clusters.hub_ids());
    let t0 = Instant::now();
    MonteCarlo::new(&scenario.clusters, &scenario.trace, model, scenario.config.clone(), args.seed)
        .with_paths(PROBE_PATHS)
        .with_threads(args.cores)
        .run();
    out.set("montecarlo.paths", PROBE_PATHS as f64);
    out.set("montecarlo.path_ms", path_ms(t0.elapsed().as_secs_f64(), args.cores, PROBE_PATHS));
}

/// The hierarchy layer's sequential `run`, timed: two replays inside
/// spans, whose routing calls become child spans, so self time is replay
/// minus routing. Each must equal `reference`; `sharded_s` comes from the
/// caller.
pub(crate) fn hierarchy_metrics(
    out: &mut Outcome,
    replay: &HierarchicalReplay<'_>,
    reference: &SimulationReport,
    sharded_s: f64,
    tracer: &Arc<Tracer>,
) {
    let sink = RoutingSink::default();
    let traced = || -> Box<dyn RoutingPolicy> {
        Box::new(TimedPolicy::new(price_conscious(), &sink).with_tracer(tracer))
    };
    for _ in 0..2 {
        let report = tracer.span("hierarchy.run", || replay.run(&traced));
        out.check(report == *reference, "timed hierarchy run equals the reference");
    }
    let (runs, total, own) = tracer.totals("hierarchy.run");
    let sequential_s = total.as_secs_f64() / runs as f64;
    out.set("hierarchy.sequential_s", sequential_s);
    out.set("hierarchy.sharded_s", sharded_s);
    out.set("hierarchy.self_s", own.as_secs_f64() / runs as f64);
    out.set("hierarchy.shard_speedup", sequential_s / sharded_s);
}

/// The hierarchy layer probed on a flat deployment: its one-region
/// embedding (one site per metro, no tier caps, an exact reservoir)
/// replayed over the workload's trace, which must equal the flat batch run.
pub(crate) fn hierarchy_probe(out: &mut Outcome, scenario: &Scenario, tracer: &Arc<Tracer>) {
    let (topology, topology_s) =
        median_timed(SETUP_REPEATS, || single_region_of(&scenario.clusters));
    out.set("workload.topology_ms", topology_s * 1e3);
    let replay = HierarchicalReplay::new(
        &topology,
        &scenario.trace,
        &scenario.prices,
        scenario.config.clone(),
    )
    .with_reservoir_capacity(scenario.trace.num_steps().max(2));
    let batch = scenario.execute(price_conscious().as_mut(), RunOptions::new());
    let t0 = Instant::now();
    let sharded = replay.run_sharded(&price_conscious);
    let sharded_s = t0.elapsed().as_secs_f64();
    out.check(sharded == batch, "one-region embedding equals the flat batch run");
    hierarchy_metrics(out, &replay, &batch, sharded_s, tracer);
}

/// Directory, relative to the working directory, for run artifacts: span
/// files and the daemon socket.
pub(crate) const OUT_DIR: &str = ".wattbench";

/// Write the traced run's spans to `.wattbench/trace-<workload>-<seed>.jsonl`.
pub(crate) fn write_trace(tracer: &Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{workload}-{seed}.jsonl"));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| tracer.write_jsonl(&path))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}
