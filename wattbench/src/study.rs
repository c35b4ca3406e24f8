//! `study-24d`: the analyst's savings study on the paper's §6.2 scenario.
//!
//! Nine clusters over the 24-day trace at the default one-step
//! reallocation. One study pass draws a Monte Carlo savings band
//! (price-conscious vs Akamai-like on seeded price paths) and runs a
//! greedy placement search over the same deployment and trace. Routing
//! dominates here, and most reallocations see the same delayed price row
//! as the one before, so this is the workload a price-keyed re-rank cache
//! should speed up.

use crate::measure::{median, peak_rss_mb, Outcome, SetupTimes};
use crate::timed::RoutingSink;
use crate::trace::{span_opt, Tracer};
use crate::{akamai_like, engine_probe, factory, hierarchy_probe, path_ms, price_conscious};
use crate::{routing_metrics, serve};
use crate::{setup_layer_metrics, RunArgs, SETUP_REPEATS};
use std::sync::Arc;
use std::time::Instant;
use wattroute::prelude::*;
use wattroute_optimizer::{
    CandidateSplit, DeploymentOptimizer, GreedyDescent, OptimizerReport, SearchBudget, SearchSpace,
};

/// Price paths per Monte Carlo band.
const PATHS: usize = 8;
/// Servers per placement unit of the search space.
const SERVERS_PER_UNIT: u32 = 400;
/// Candidate evaluations per placement search.
const EVALUATIONS: usize = 24;

struct Inputs {
    scenario: Scenario,
    model: MarketModel,
    space: SearchSpace,
    start: CandidateSplit,
}

fn setup(seed: u64) -> Inputs {
    let scenario = Scenario::akamai_24_day(seed);
    let model = MarketModel::calibrated().restricted_to(&scenario.clusters.hub_ids());
    let (space, start) = SearchSpace::from_deployment(&scenario.clusters, SERVERS_PER_UNIT);
    Inputs { scenario, model, space, start }
}

/// The outputs of one pass, as the JSON the check compares.
struct PassOutput {
    band: String,
    search: OptimizerReport,
    replays: usize,
    band_s: f64,
    /// `CompiledPreferences` builds during the placement search.
    search_compiles: usize,
}

fn pass(
    inputs: &Inputs,
    args: &RunArgs,
    sink: Option<&RoutingSink>,
    tracer: Option<&Tracer>,
) -> PassOutput {
    let Inputs { scenario, model, space, start } = inputs;
    let t0 = Instant::now();
    let band = span_opt(tracer, "montecarlo.run", || {
        MonteCarlo::new(
            &scenario.clusters,
            &scenario.trace,
            model.clone(),
            scenario.config.clone(),
            args.seed,
        )
        .with_paths(PATHS)
        .with_threads(args.cores)
        .with_policy_factory(factory(price_conscious, sink))
        .with_baseline_factory(factory(akamai_like, sink))
        .run()
    });
    let band_s = t0.elapsed().as_secs_f64();
    let builds = CompiledPreferences::build_count();
    let search = span_opt(tracer, "optimizer.run", || {
        DeploymentOptimizer::new(
            space.clone(),
            &scenario.trace,
            &scenario.prices,
            scenario.config.clone().with_overflow(OverflowMode::Reject),
        )
        .with_policy(factory(price_conscious, sink))
        .with_budget(SearchBudget { max_evaluations: EVALUATIONS, ..SearchBudget::default() })
        .with_threads(args.cores)
        .with_start(start.clone())
        .run(&mut GreedyDescent::default())
    });
    let search_compiles = CompiledPreferences::build_count() - builds;
    PassOutput {
        band: band.to_json(),
        replays: 2 * PATHS + search.evaluations,
        search,
        band_s,
        search_compiles,
    }
}

/// Run the workload, filling `out`.
pub fn run(args: &RunArgs, out: &mut Outcome) {
    let mut setups = SetupTimes::default();
    let inputs = setups.time(|| setup(args.seed));
    let sink = RoutingSink::default();
    let tracer = Arc::new(Tracer::default());
    let (timed_sink, timed_tracer) =
        if args.traced { (Some(&sink), Some(&*tracer)) } else { (None, None) };

    // Warm-up pass in the other tracing mode: its outputs are the reference
    // every timed pass must reproduce byte for byte.
    let reference = pass(&inputs, args, if args.traced { None } else { Some(&sink) }, None);
    let reference_search = reference.search.to_json();
    sink.take();

    let (mut pass_s, mut band_s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let t0 = Instant::now();
    while pass_s.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let p0 = Instant::now();
        let out_pass =
            span_opt(timed_tracer, "study.pass", || pass(&inputs, args, timed_sink, timed_tracer));
        let elapsed = p0.elapsed().as_secs_f64();
        pass_s.push(elapsed);
        band_s.push(out_pass.band_s);
        rates.push(out_pass.replays as f64 / elapsed);
        out.check(out_pass.band == reference.band, "Monte Carlo band equals the reference");
        out.check(
            out_pass.search.to_json() == reference_search,
            "optimizer report equals the reference",
        );
        last = Some(out_pass);
        if setups.fewer_than(SETUP_REPEATS) {
            setups.time(|| setup(args.seed));
        }
    }
    while setups.fewer_than(SETUP_REPEATS) {
        setups.time(|| setup(args.seed));
    }
    let throughput = median(&rates);

    if !args.traced {
        out.set("setup_s", setups.median());
        out.set("throughput", throughput);
        out.set("latency_p50_ms", median(&pass_s) * 1e3);
        out.set("peak_rss_mb", peak_rss_mb());
        return;
    }

    let passes = pass_s.len() as f64;
    out.set("traced.throughput", throughput);
    routing_metrics(out, &sink.take(), passes);
    out.set("montecarlo.paths", PATHS as f64);
    out.set("montecarlo.path_ms", path_ms(median(&band_s), args.cores, PATHS));

    let last = last.expect("at least one pass");
    let search = &last.search;
    out.set("optimizer.evaluations", search.evaluations as f64);
    out.set("sweep.artifact_hit_rate", search.cache.hit_rate().unwrap_or(0.0));
    out.set("sweep.billing_matrices", search.cache.hub_lists_compiled as f64);
    out.set("sweep.compiled_preferences", last.search_compiles as f64);

    engine_probe(out, &inputs.scenario, HourRange::akamai_24_days(), &tracer);
    hierarchy_probe(out, &inputs.scenario, &tracer);
    serve::probe(out, args.seed, |hours| serve::build_scenario(args.seed, hours).0);
    setup_layer_metrics(out, args.seed, HourRange::akamai_24_days());
    crate::write_trace(&tracer, "study-24d", args.seed);
}
