//! Steady-state tick-path workloads shared by the `tick_throughput`
//! criterion bench and the `tick_report` binary.
//!
//! Both consumers compare the same two replays over the same scenario:
//!
//! * [`legacy_replay`] — the pre-epoch-cache engine, reimplemented
//!   verbatim: a fresh `policy.allocate` per reallocation and a full
//!   per-step recompute of `cluster_loads` / `distance_samples` with
//!   per-step accounting. This is the reference loop the
//!   `proptest_epoch_equivalence` test pins bit-identity against; here
//!   it also serves as the timing baseline.
//! * [`cached_replay`] — the shipping engine, whose allocation-epoch
//!   cache folds everything constant between reallocations into
//!   precomputed per-cluster constants.
//!
//! The interesting regime is *steady state* — a reallocation interval
//! of several steps, where the cache actually amortises. At the default
//! interval of 1 every tick reallocates and the two paths converge.

use wattroute::prelude::*;
use wattroute::report::{cluster_labels, ClusterReport, DistanceHistogram, SimulationReport};
use wattroute_energy::cost::energy_cost_dollars;
use wattroute_energy::model::ClusterPowerModel;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_routing::allocation::Allocation;
use wattroute_routing::constraints::OverflowMode;
use wattroute_routing::policy::{RoutingContext, RoutingPolicy};
use wattroute_stats::{quantiles, OnlineStats};
use wattroute_workload::trace::STEP_SECONDS;

use crate::HARNESS_SEED;

/// The steady-state reallocation interval used by the tick benchmarks:
/// well past the acceptance criterion's "interval ≥ 6 steps" and equal
/// to the hierarchical-replay benchmarks' interval, so numbers line up
/// across benches.
pub const STEADY_REALLOC_INTERVAL: usize = 12;

/// The seeded scenario both tick benchmarks replay: the harness seed,
/// a window starting 2008-12-19 (the figure harnesses' anchor date),
/// and the steady-state reallocation interval.
pub fn steady_scenario(days: u64) -> Scenario {
    let start = SimHour::from_date(2008, 12, 19);
    let mut scenario =
        Scenario::custom_window(HARNESS_SEED, HourRange::new(start, start.plus_hours(days * 24)));
    scenario.config = scenario.config.with_reallocation_interval(STEADY_REALLOC_INTERVAL);
    scenario
}

/// The policy both tick benchmarks route with.
pub fn steady_policy() -> PriceConsciousPolicy {
    PriceConsciousPolicy::with_distance_threshold(1500.0)
}

/// The epoch-cached engine: just the batch driver.
pub fn cached_replay(scenario: &Scenario, policy: &mut dyn RoutingPolicy) -> SimulationReport {
    scenario.execute(policy, RunOptions::new())
}

/// The pre-epoch-cache engine, verbatim: one *freshly allocated*
/// `Allocation` per reallocation (the legacy `allocate` path), and a
/// full recompute of per-cluster loads and distance samples on
/// **every** step with the historical per-step accounting order. The
/// report is assembled exactly as `SimulationEngine::report` assembles
/// it, so the caller can assert the two paths still agree bit for bit
/// before trusting the timing comparison.
pub fn legacy_replay(scenario: &Scenario, policy: &mut dyn RoutingPolicy) -> SimulationReport {
    let clusters = &scenario.clusters;
    let trace = &scenario.trace;
    let config = &scenario.config;
    let sim = Simulation::new(clusters, trace, &scenario.prices, config.clone());
    let table = sim.price_table();

    let n_clusters = clusters.len();
    let step_hours = STEP_SECONDS as f64 / 3600.0;
    let constraints = &config.constraints;
    let tariff = config.bandwidth_tariff.as_ref();
    let accounted_caps = tariff.and(constraints.bandwidth_caps());
    let capacities: Vec<f64> =
        clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).collect();
    let power_models: Vec<ClusterPowerModel> = clusters
        .clusters()
        .iter()
        .map(|c| ClusterPowerModel::new(config.energy, c.servers))
        .collect();

    let mut cost = vec![0.0f64; n_clusters];
    let mut energy_wh = vec![0.0f64; n_clusters];
    let mut hits = vec![0.0f64; n_clusters];
    let mut overflow_hits = vec![0.0f64; n_clusters];
    let mut rejected_hits = vec![0.0f64; n_clusters];
    let mut binding_steps = vec![0usize; n_clusters];
    let mut load_series = vec![Vec::<f64>::new(); n_clusters];
    let mut util_stats = vec![OnlineStats::new(); n_clusters];
    let mut distances = DistanceHistogram::default_resolution();

    let mut cached: Option<Allocation> = None;
    let mut last_alloc_hour: Option<SimHour> = None;
    for (i, step) in trace.steps().iter().enumerate() {
        let hour = trace.step_hour(i);
        let reallocate = cached.is_none()
            || i % config.reallocate_every_steps == 0
            || Some(hour) != last_alloc_hour;
        if reallocate {
            let ctx = RoutingContext::new(
                clusters,
                &trace.states,
                &step.us_demand,
                table.delayed_at(hour).expect("table covers the trace"),
                hour,
            )
            .with_constraints(constraints);
            cached = Some(policy.allocate(&ctx));
            last_alloc_hour = Some(hour);
        }
        let allocation = cached.as_ref().expect("just populated");
        let loads = allocation.cluster_loads();
        let samples = allocation.distance_samples(clusters, &trace.states);
        let billing = table.billing_at(hour).expect("table covers the trace");

        for c in 0..n_clusters {
            let cluster = clusters.get(c).expect("index in range");
            let raw_utilization = cluster.utilization(loads[c]);
            let mut served = loads[c];
            if raw_utilization > 1.0 {
                let over = loads[c] - capacities[c];
                match constraints.overflow() {
                    OverflowMode::BillAtCapacity => {
                        overflow_hits[c] += over * STEP_SECONDS as f64;
                    }
                    OverflowMode::Reject => {
                        rejected_hits[c] += over * STEP_SECONDS as f64;
                        served = capacities[c];
                    }
                }
            }
            let utilization = raw_utilization.min(1.0);
            let watts = power_models[c].power_watts(utilization);
            let wh = watts * step_hours;
            energy_wh[c] += wh;
            cost[c] += energy_cost_dollars(wh, billing[c]);
            hits[c] += served * STEP_SECONDS as f64;
            util_stats[c].push(utilization);
            load_series[c].push(loads[c]);
            if let Some(caps) = accounted_caps {
                if caps[c].is_finite() && loads[c] > 0.0 && loads[c] >= caps[c] * (1.0 - 1e-9) {
                    binding_steps[c] += 1;
                }
            }
        }
        for (distance_km, weight) in samples {
            distances.add(distance_km, weight * STEP_SECONDS as f64);
        }
    }

    let n_steps = trace.num_steps();
    let labels = cluster_labels(clusters);
    let clusters_report = (0..n_clusters)
        .map(|c| {
            let p95 = quantiles::percentile(&load_series[c], 95.0).unwrap_or(0.0);
            ClusterReport {
                label: labels[c].clone(),
                cost_dollars: cost[c],
                energy_mwh: energy_wh[c] / 1.0e6,
                mean_utilization: util_stats[c].mean().unwrap_or(0.0),
                p95_hits_per_sec: p95,
                peak_hits_per_sec: load_series[c].iter().copied().fold(0.0, f64::max),
                total_hits: hits[c],
                overflow_hits: overflow_hits[c],
                rejected_hits: rejected_hits[c],
                bandwidth_cap_hits_per_sec: accounted_caps
                    .map(|caps| caps[c])
                    .filter(|cap| cap.is_finite()),
                bandwidth_binding_hours: binding_steps[c] as f64 * STEP_SECONDS as f64 / 3600.0,
                bandwidth_cost_dollars: tariff.map_or(0.0, |t| t.bill_dollars(p95, n_steps)),
            }
        })
        .collect::<Vec<_>>();

    SimulationReport {
        policy: policy.name().to_string(),
        steps: n_steps,
        reaction_delay_hours: config.reaction_delay_hours,
        bandwidth_constrained: constraints.is_bandwidth_constrained(),
        total_cost_dollars: cost.iter().sum(),
        total_energy_mwh: energy_wh.iter().sum::<f64>() / 1.0e6,
        total_overflow_hits: overflow_hits.iter().sum(),
        total_rejected_hits: rejected_hits.iter().sum(),
        total_bandwidth_binding_hours: clusters_report
            .iter()
            .map(|c| c.bandwidth_binding_hours)
            .sum(),
        total_bandwidth_cost_dollars: clusters_report
            .iter()
            .map(|c| c.bandwidth_cost_dollars)
            .sum(),
        delay_clamped_hours: table.clamped_lead_hours(),
        clusters: clusters_report,
        mean_distance_km: distances.mean_km().unwrap_or(0.0),
        p99_distance_km: distances.percentile_km(99.0).unwrap_or(0.0),
        distances,
        tiers: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_and_cached_replays_agree_on_the_steady_scenario() {
        let scenario = steady_scenario(1);
        let legacy = legacy_replay(&scenario, &mut steady_policy());
        let cached = cached_replay(&scenario, &mut steady_policy());
        assert_eq!(legacy, cached);
    }
}
