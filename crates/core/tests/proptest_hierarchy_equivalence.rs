//! Property-based guarantees for the hierarchical replay core.
//!
//! Three invariants, over random windows / seeds / reallocation intervals /
//! policies / tree shapes:
//!
//! 1. **Trivial embedding ≡ flat engine** — embedding a flat deployment as
//!    a one-region tree ([`single_region_of`]) and replaying it through
//!    [`HierarchicalReplay`] reproduces `Simulation::execute` **bit for
//!    bit**, struct-equal and byte-equal through the JSON encoding (the
//!    trivial embedding's report carries no `tiers`, so even the encoded
//!    text is identical).
//! 2. **Sharded ≡ sequential** — per-region worker threads change nothing:
//!    the merged report equals the sequential region loop's exactly, with
//!    exact per-site load reservoirs or decimating ones.
//! 3. **Tier conservation** — [`TierLoads`] aggregation and the report's
//!    tier rollup conserve hits, energy and cost at every tier, whatever
//!    the tree shape, policy, or constraint regime.

use proptest::prelude::*;
use wattroute::hierarchy::{HierarchicalReplay, DEFAULT_RESERVOIR_CAPACITY};
use wattroute::prelude::*;
use wattroute_geo::topology::Topology;
use wattroute_market::generator::PriceGenerator;
use wattroute_market::model::MarketModel;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_routing::policy::RoutingPolicy;
use wattroute_workload::hierarchy::{single_region_of, TierLoads};

fn window(days: u64) -> HourRange {
    let start = SimHour::from_date(2008, 12, 19);
    HourRange::new(start, start.plus_hours(days * 24))
}

fn policy_for(threshold: f64) -> Box<dyn RoutingPolicy> {
    if threshold < 0.0 {
        Box::new(AkamaiLikePolicy::default())
    } else {
        Box::new(PriceConsciousPolicy::with_distance_threshold(threshold))
    }
}

proptest! {
    #[test]
    fn trivial_hierarchy_replays_bit_identical_to_the_flat_engine(
        seed in 0u64..500,
        days in 1u64..4,
        delay in 0u64..12,
        realloc in prop::sample::select(vec![1usize, 5, 12]),
        // -1 encodes the Akamai-like baseline policy.
        threshold in prop::sample::select(vec![-1.0f64, 0.0, 1500.0, f64::INFINITY]),
    ) {
        let mut scenario = Scenario::custom_window(seed, window(days));
        scenario.config = scenario
            .config
            .with_reaction_delay(delay)
            .with_reallocation_interval(realloc);

        let flat = scenario.execute(&mut *policy_for(threshold), RunOptions::new());

        let topology = single_region_of(&scenario.clusters);
        let replay = HierarchicalReplay::new(
            &topology,
            &scenario.trace,
            &scenario.prices,
            scenario.config.clone(),
        );
        let tree = replay.run(&move || policy_for(threshold));

        prop_assert!(tree.tiers.is_none(), "trivial embedding must not report tiers");
        prop_assert_eq!(&tree, &flat, "tree replay != flat engine");
        prop_assert_eq!(tree.to_json_value().to_string(), flat.to_json_value().to_string());
    }

    #[test]
    fn sharded_replay_is_bit_identical_to_sequential(
        seed in 0u64..500,
        n_sites in 30usize..120,
        slack in prop::sample::select(vec![f64::INFINITY, 1.2, 0.8]),
        realloc in prop::sample::select(vec![1usize, 12]),
        threshold in prop::sample::select(vec![-1.0f64, 1500.0]),
        // Two days are 576 steps: capacities 2 and 64 decimate every
        // site's load reservoir, the default keeps it exact.
        reservoir in prop::sample::select(vec![2usize, 64, DEFAULT_RESERVOIR_CAPACITY]),
    ) {
        let mut topology = Topology::synthetic(seed, n_sites);
        if slack.is_finite() {
            topology = topology.with_tier_slack(slack);
        }
        let range = window(2);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), seed ^ 0xF00D)
            .realtime_hourly(range);
        let config = SimulationConfig::default().with_reallocation_interval(realloc);

        let replay = HierarchicalReplay::new(&topology, &trace, &prices, config)
            .with_reservoir_capacity(reservoir);
        let sequential = replay.run(&move || policy_for(threshold));
        let sharded = replay.run_sharded(&move || policy_for(threshold));

        prop_assert_eq!(&sequential, &sharded, "sharding changed the report");
        prop_assert_eq!(
            sequential.to_json_value().to_string(),
            sharded.to_json_value().to_string()
        );
    }

    #[test]
    fn tier_rollup_and_tier_loads_conserve_at_every_tier(
        seed in 0u64..500,
        n_sites in 30usize..100,
        slack in prop::sample::select(vec![f64::INFINITY, 1.5, 0.7]),
        threshold in prop::sample::select(vec![-1.0f64, 0.0, 1500.0]),
    ) {
        let mut topology = Topology::synthetic(seed, n_sites);
        if slack.is_finite() {
            topology = topology.with_tier_slack(slack);
        }
        let range = window(1);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), seed ^ 0xBEEF)
            .realtime_hourly(range);

        let replay =
            HierarchicalReplay::new(&topology, &trace, &prices, SimulationConfig::default());
        let report = replay.run(&move || policy_for(threshold));

        // TierLoads conservation over the reported per-site hit volumes.
        let site_hits: Vec<f64> = report.clusters.iter().map(|c| c.total_hits).collect();
        let loads = TierLoads::aggregate(&topology, &site_hits);
        prop_assert!(
            loads.max_conservation_error(&topology) < 1e-9,
            "TierLoads lost volume between tiers"
        );

        // The report's rollup (present for any non-trivial tree) conserves
        // hits, energy and cost from sites through metros to regions.
        let tiers = report.tiers.as_ref().expect("non-trivial tree reports tiers");
        let scale = |x: f64| x.abs().max(1.0);
        for (name, site_total, metro_total, region_total) in [
            (
                "hits",
                site_hits.iter().sum::<f64>(),
                tiers.metros.iter().map(|m| m.total_hits).sum::<f64>(),
                tiers.regions.iter().map(|r| r.total_hits).sum::<f64>(),
            ),
            (
                "energy",
                report.clusters.iter().map(|c| c.energy_mwh).sum::<f64>(),
                tiers.metros.iter().map(|m| m.energy_mwh).sum::<f64>(),
                tiers.regions.iter().map(|r| r.energy_mwh).sum::<f64>(),
            ),
            (
                "cost",
                report.clusters.iter().map(|c| c.cost_dollars).sum::<f64>(),
                tiers.metros.iter().map(|m| m.cost_dollars).sum::<f64>(),
                tiers.regions.iter().map(|r| r.cost_dollars).sum::<f64>(),
            ),
        ] {
            prop_assert!(
                (metro_total - site_total).abs() / scale(site_total) < 1e-9,
                "{} not conserved site→metro: {} vs {}", name, metro_total, site_total
            );
            prop_assert!(
                (region_total - site_total).abs() / scale(site_total) < 1e-9,
                "{} not conserved site→region: {} vs {}", name, region_total, site_total
            );
        }
        prop_assert_eq!(
            tiers.regions.iter().map(|r| r.sites).sum::<usize>(),
            topology.num_sites()
        );
    }
}
