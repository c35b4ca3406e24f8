//! `fleet-1000`: a seeded 1000-site, six-region tree on the calibrated
//! market, reallocating every 12 steps (so every reallocation lands on a
//! fresh price hour), replayed through `HierarchicalReplay::run_sharded`
//! with the single-threaded `run` as reference and baseline. This stresses
//! the hierarchy's own accumulate and merge core and bypasses any
//! price-keyed re-rank cache.

use crate::measure::{median, median_timed, peak_rss_mb, Outcome, SetupTimes};
use crate::timed::{RoutingSink, TimedPolicy};
use crate::trace::Tracer;
use crate::{engine_probe, hierarchy_metrics, montecarlo_probe, serve};
use crate::{price_conscious, routing_metrics, RunArgs, SETUP_REPEATS};
use std::sync::Arc;
use std::time::Instant;
use wattroute::hierarchy::HierarchicalReplay;
use wattroute::prelude::*;
use wattroute_geo::topology::Topology;

/// Sites in the tree.
const SITES: usize = 1000;
/// Days of trace replayed per pass.
const DAYS: u64 = 60;
/// Hours of the flat-deployment window the off-path layers are probed on.
const PROBE_HOURS: u64 = 48;
/// Steps between reallocations.
const REALLOCATE_EVERY: usize = 12;

fn range() -> HourRange {
    let start = SimHour::from_date(2007, 1, 1);
    HourRange::new(start, start.plus_hours(DAYS * 24))
}

fn probe_range(hours: u64) -> HourRange {
    HourRange::new(range().start, range().start.plus_hours(hours))
}

/// The first `hours` of the workload's inputs with every site a cluster of
/// one flat deployment.
fn flat_scenario(topology: &Topology, seed: u64, hours: u64) -> Scenario {
    let range = probe_range(hours);
    Scenario {
        clusters: site_clusters(topology),
        trace: SyntheticWorkloadConfig { seed, ..SyntheticWorkloadConfig::default() }
            .generate(range),
        prices: PriceGenerator::new(MarketModel::calibrated(), seed).realtime_hourly(range),
        config: config(),
    }
}

fn build_topology(seed: u64) -> Topology {
    Topology::synthetic(seed, SITES).with_tier_slack(1.1)
}

fn build_trace(seed: u64) -> Trace {
    SyntheticWorkloadConfig { seed, ..SyntheticWorkloadConfig::default() }.generate(range())
}

fn build_prices(seed: u64) -> PriceSet {
    PriceGenerator::new(MarketModel::calibrated(), seed).realtime_hourly(range())
}

fn config() -> SimulationConfig {
    SimulationConfig::default().with_reallocation_interval(REALLOCATE_EVERY)
}

/// Run the workload, filling `out`.
pub fn run(args: &RunArgs, out: &mut Outcome) {
    let seed = args.seed;
    let setup = || (build_topology(seed), build_trace(seed), build_prices(seed));
    let mut setups = SetupTimes::default();
    let (topology, trace, prices) = setups.time(setup);
    let replay = HierarchicalReplay::new(&topology, &trace, &prices, config());
    let steps = trace.num_steps() as f64;

    let sink = RoutingSink::default();
    let plain = || price_conscious();
    let timed =
        || -> Box<dyn RoutingPolicy> { Box::new(TimedPolicy::new(price_conscious(), &sink)) };

    // The sequential replay is the reference every sharded replay must
    // equal; it also warms the allocator and page cache.
    let reference = replay.run(&plain);

    let mut pass_s = Vec::new();
    let t0 = Instant::now();
    while pass_s.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let p0 = Instant::now();
        let report =
            if args.traced { replay.run_sharded(&timed) } else { replay.run_sharded(&plain) };
        pass_s.push(p0.elapsed().as_secs_f64());
        out.check(report == reference, "run_sharded equals run");
        if setups.fewer_than(SETUP_REPEATS) {
            setups.time(setup);
        }
    }
    while setups.fewer_than(SETUP_REPEATS) {
        setups.time(setup);
    }
    let throughput = steps / median(&pass_s);

    if !args.traced {
        out.set("setup_s", setups.median());
        out.set("throughput", throughput);
        out.set("latency_p50_ms", median(&pass_s) * 1e3);
        out.set("peak_rss_mb", peak_rss_mb());
        return;
    }

    out.set("traced.throughput", throughput);
    routing_metrics(out, &sink.take(), pass_s.len() as f64);

    let tracer = Arc::new(Tracer::default());
    hierarchy_metrics(out, &replay, &reference, median(&pass_s), &tracer);

    // Layers off this workload's path, probed on a short window of the same
    // sites as one flat deployment.
    let flat = flat_scenario(&topology, seed, PROBE_HOURS);
    engine_probe(out, &flat, probe_range(PROBE_HOURS), &tracer);
    montecarlo_probe(out, &flat, args);
    serve::probe(out, seed, |hours| flat_scenario(&topology, seed, hours));

    let ms = 1e3;
    let (_, topology_s) = median_timed(SETUP_REPEATS, || build_topology(seed));
    let (_, trace_s) = median_timed(SETUP_REPEATS, || build_trace(seed));
    let (_, generate_s) = median_timed(SETUP_REPEATS, || build_prices(seed));
    let mut hubs: Vec<HubId> = (0..topology.num_sites()).map(|s| topology.site_hub(s)).collect();
    hubs.sort_unstable();
    hubs.dedup();
    let (_, table_s) =
        median_timed(SETUP_REPEATS, || PriceTable::build(&prices, &hubs, range(), 0));
    out.set("workload.topology_ms", topology_s * ms);
    out.set("workload.trace_gen_ms", trace_s * ms);
    out.set("market.generate_ms", generate_s * ms);
    out.set("market.table_build_ms", table_s * ms);
    crate::write_trace(&tracer, "fleet-1000", seed);
}
