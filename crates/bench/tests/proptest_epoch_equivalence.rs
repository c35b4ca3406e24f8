//! Property-based bit-identity for the epoch-cached tick accounting.
//!
//! The engine's hot path caches, per allocation epoch, everything that is
//! constant between reallocations (loads, utilization, Wh, the
//! served/overflow/rejected split, binding flags, distance samples) and the
//! policies overwrite one recycled [`Allocation`] through `allocate_into`
//! with reused preference scratch. This test pins the non-negotiable
//! contract of that optimisation: the final [`SimulationReport`] must be
//! **bit-identical** — struct-equal and byte-equal through the JSON
//! encoding — to the *legacy* path, [`legacy_replay`], which reimplements
//! the pre-epoch-cache engine exactly: a fresh `policy.allocate` per
//! reallocation and a full per-step recompute of `cluster_loads` /
//! `distance_samples` with per-step accounting. The same reference loop
//! is the `tick_report` and `tick_throughput` timing baseline.
//!
//! The matrix covers the built-in policies (price-conscious, nearest,
//! Akamai-like, joint price-distance) × constraint regimes (nominal
//! ceilings, binding ceilings, 95/5 caps with a tariff, both overflow
//! modes) × the batch driver and the (trivially embedded) sharded
//! hierarchical replay.

use proptest::prelude::*;
use wattroute::hierarchy::HierarchicalReplay;
use wattroute::prelude::*;
use wattroute_bench::tick::legacy_replay;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_routing::constraints::OverflowMode;
use wattroute_routing::extensions::JointCostPolicy;
use wattroute_routing::policy::RoutingPolicy;
use wattroute_workload::hierarchy::single_region_of;

fn window(days: u64) -> HourRange {
    let start = SimHour::from_date(2008, 12, 19);
    HourRange::new(start, start.plus_hours(days * 24))
}

fn policy_for(kind: usize) -> Box<dyn RoutingPolicy> {
    match kind {
        0 => Box::new(NearestClusterPolicy::new()),
        1 => Box::new(AkamaiLikePolicy::default()),
        2 => Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0)),
        3 => Box::new(PriceConsciousPolicy::unconstrained_distance()),
        _ => Box::new(JointCostPolicy::new(0.02)),
    }
}

proptest! {
    #[test]
    fn epoch_cached_reports_are_bit_identical_to_the_legacy_allocating_path(
        seed in 0u64..500,
        days in 1u64..3,
        delay in 0u64..24,
        realloc in prop::sample::select(vec![1usize, 6, 12]),
        policy_kind in 0usize..5,
        // 0: nominal ceilings · 1: binding ceilings + Reject ·
        // 2: 95/5 caps + tariff · 3: 95/5 caps + tariff + Reject
        regime in 0usize..4,
    ) {
        let mut scenario = Scenario::custom_window(seed, window(days));
        scenario.config = scenario
            .config
            .with_reaction_delay(delay)
            .with_reallocation_interval(realloc);
        match regime {
            1 => {
                // Shrink the deployment so capacity ceilings genuinely
                // bind and demand is turned away.
                scenario.clusters = scenario.clusters.scaled(0.05);
                scenario.config = scenario.config.with_overflow(OverflowMode::Reject);
            }
            2 | 3 => {
                let caps = scenario.bandwidth_caps_from_baseline();
                scenario.config = scenario
                    .config
                    .with_bandwidth_caps(caps)
                    .with_bandwidth_tariff(wattroute::constraints::BandwidthTariff::default_cdn());
                if regime == 3 {
                    scenario.config = scenario.config.with_overflow(OverflowMode::Reject);
                }
            }
            _ => {}
        }

        let legacy = legacy_replay(&scenario, &mut *policy_for(policy_kind));
        let batch = scenario.execute(&mut *policy_for(policy_kind), RunOptions::new());
        prop_assert_eq!(&legacy, &batch, "legacy allocating path != epoch-cached batch engine");
        prop_assert_eq!(
            legacy.to_json_value().to_string(),
            batch.to_json_value().to_string(),
            "JSON encodings differ"
        );

        // The sharded hierarchical replay rides the same `allocate_into`
        // hot path; through the trivial single-region embedding it must
        // reproduce the legacy report byte for byte as well.
        let topology = single_region_of(&scenario.clusters);
        let replay = HierarchicalReplay::new(
            &topology,
            &scenario.trace,
            &scenario.prices,
            scenario.config.clone(),
        );
        let sharded = replay.run_sharded(&move || policy_for(policy_kind));
        prop_assert!(sharded.tiers.is_none(), "trivial embedding must not report tiers");
        prop_assert_eq!(&legacy, &sharded, "legacy allocating path != sharded replay");
        prop_assert_eq!(
            legacy.to_json_value().to_string(),
            sharded.to_json_value().to_string(),
            "sharded JSON encoding differs"
        );
    }
}
