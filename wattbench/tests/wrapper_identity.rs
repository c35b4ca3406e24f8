//! The traced run must measure the same program as the untraced run: for
//! each runner that takes policies through a public hook, output with the
//! timing wrapper is byte-identical to output without it, and the wrapper
//! triggers no extra `CompiledPreferences` builds.
//!
//! One test in a binary of its own: the build counter is process-global,
//! so no other test may compile geometry concurrently.

use wattbench::timed::{RoutingSink, TimedPolicy};
use wattbench::{akamai_like, factory, price_conscious};
use wattroute::hierarchy::HierarchicalReplay;
use wattroute::prelude::*;
use wattroute_geo::topology::Topology;
use wattroute_optimizer::{DeploymentOptimizer, GreedyDescent, SearchBudget, SearchSpace};

/// Run `drive` unwrapped and wrapped; both outputs and both build counts
/// must match, and the wrapper must have seen allocation calls.
fn assert_identical(runner: &str, drive: impl Fn(Option<&RoutingSink>) -> String) {
    let builds = CompiledPreferences::build_count();
    let plain = drive(None);
    let plain_builds = CompiledPreferences::build_count() - builds;

    let sink = RoutingSink::default();
    let builds = CompiledPreferences::build_count();
    let wrapped = drive(Some(&sink));
    let wrapped_builds = CompiledPreferences::build_count() - builds;

    assert_eq!(plain, wrapped, "{runner}: wrapped output differs");
    assert_eq!(plain_builds, wrapped_builds, "{runner}: wrapper changed the build count");
    assert!(sink.take().calls > 0, "{runner}: the wrapper saw no allocation calls");
}

#[test]
fn wrapped_policies_leave_every_runner_byte_identical() {
    let start = SimHour::from_date(2008, 12, 19);
    let range = HourRange::new(start, start.plus_hours(48));
    let scenario = Scenario::custom_window(7, range);

    assert_identical("SimulationEngine::tick", |sink| {
        let table = PriceTable::build(&scenario.prices, &scenario.clusters.hub_ids(), range, 0);
        let mut engine = SimulationEngine::new(
            &scenario.clusters,
            &scenario.trace.states,
            scenario.config.clone(),
        )
        .with_clamped_lead_hours(table.clamped_lead_hours());
        let mut policy: Box<dyn RoutingPolicy> = match sink {
            Some(sink) => Box::new(TimedPolicy::new(price_conscious(), sink)),
            None => price_conscious(),
        };
        for (i, step) in scenario.trace.steps().iter().enumerate() {
            let hour = scenario.trace.step_hour(i);
            let prices = PriceSlice::new(
                hour,
                table.delayed_at(hour).expect("covered"),
                table.billing_at(hour).expect("covered"),
            );
            engine.tick(policy.as_mut(), prices, DemandSlice::new(&step.us_demand));
        }
        engine.report().to_json()
    });

    assert_identical("MonteCarlo", |sink| {
        let model = MarketModel::calibrated().restricted_to(&scenario.clusters.hub_ids());
        MonteCarlo::new(&scenario.clusters, &scenario.trace, model, scenario.config.clone(), 3)
            .with_paths(4)
            .with_threads(2)
            .with_policy_factory(factory(price_conscious, sink))
            .with_baseline_factory(factory(akamai_like, sink))
            .run()
            .to_json()
    });

    let topology = Topology::synthetic(7, 60);
    let prices = PriceGenerator::new(MarketModel::calibrated(), 7).realtime_hourly(range);
    let config = SimulationConfig::default().with_reallocation_interval(12);
    let replay = HierarchicalReplay::new(&topology, &scenario.trace, &prices, config);
    for sharded in [false, true] {
        assert_identical("HierarchicalReplay", |sink| {
            let make = factory(price_conscious, sink);
            let make = || make();
            let report = if sharded { replay.run_sharded(&make) } else { replay.run(&make) };
            report.to_json()
        });
    }

    assert_identical("DeploymentOptimizer", |sink| {
        let (space, start_split) = SearchSpace::from_deployment(&scenario.clusters, 800);
        DeploymentOptimizer::new(
            space,
            &scenario.trace,
            &scenario.prices,
            scenario.config.clone().with_overflow(OverflowMode::Reject),
        )
        .with_policy(factory(price_conscious, sink))
        .with_budget(SearchBudget::smoke())
        .with_threads(2)
        .with_start(start_split)
        .run(&mut GreedyDescent::default())
        .to_json()
    });
}
