//! Hierarchical replay: tick a region → metro → site tree at CDN scale.
//!
//! [`HierarchicalReplay`] is the tree-native counterpart of the flat batch
//! [`Simulation`](crate::simulation::Simulation). It partitions a
//! [`Topology`]'s sites by region, runs each region as a *shard* — a
//! [`SimulationEngine`] over the region's sites, the client states it owns,
//! and its slice of the constraint set — and replays the whole trace
//! through every shard, either sequentially ([`HierarchicalReplay::run`])
//! or on scoped worker threads ([`HierarchicalReplay::run_sharded`]). A
//! deterministic merge then folds the shard reports, in region order, into
//! one [`SimulationReport`]: per-site [`ClusterReport`]s concatenate in
//! global site order, distance histograms merge bin-wise, and tier rollups
//! fold the sites' online utilization accumulators with
//! [`OnlineStats::merge`].
//!
//! Three equivalences are pinned by `tests/proptest_hierarchy_equivalence.rs`:
//!
//! 1. **Sharded ≡ sequential** — by construction: shards share nothing and
//!    the merge visits regions in index order either way.
//! 2. **Trivial embedding ≡ flat engine** — a one-region tree with one
//!    site per metro and no tier caps (see
//!    [`single_region_of`](wattroute_workload::hierarchy::single_region_of))
//!    replays bit-identical to [`Simulation`](crate::simulation::Simulation)
//!    over the same deployment, and its report carries `tiers: None`, so
//!    even the JSON matches byte for byte.
//! 3. **Conservation** — demand is owned by exactly one region
//!    ([`Topology::assign_states`]), so hits and energy sum across tiers.
//!
//! # Shards on the engine
//!
//! All per-site accounting — power models, the overflow/reject split,
//! binding-cap flags, dollars, the epoch cache — is the engine's; this
//! module only partitions, looks up each hour's price column per site,
//! gathers the demand of the states each region owns, and merges. A shard
//! never sees a state it does not own, so its per-epoch cost scales with
//! its own states, not the whole trace's. Dropping the other states
//! changes no bit: the pour skips zero demand and sorts states stably, and
//! in the engine's loads and distance samples those states only ever
//! contributed exact `+0.0` terms and skipped zero entries. A shard drives
//! its engine one allocation epoch per call (the engine re-routes at least
//! hourly, and billing prices only change hourly), so a 1000-site
//! multi-year replay costs one reallocation plus pure accumulating adds
//! per epoch, bit-identical to ticking every step. Shard engines bound
//! each site's load series to a reservoir (exact until the capacity,
//! decimated beyond), so memory stays flat however long the trace runs.

use crate::engine::{DemandSlice, EngineSnapshot, PriceSlice, SimulationEngine};
use crate::report::{
    ClusterReport, DistanceHistogram, SimulationReport, TierNodeReport, TierRollup,
};
use crate::simulation::{step_coverage, SimulationConfig};
use wattroute_geo::topology::Topology;
use wattroute_geo::{HubId, UsState};
use wattroute_market::price_table::PriceTable;
use wattroute_market::types::PriceSet;
use wattroute_routing::constraints::{ConstraintSet, TierCaps};
use wattroute_routing::policy::RoutingPolicy;
use wattroute_stats::OnlineStats;
use wattroute_workload::hierarchy::site_clusters;
use wattroute_workload::trace::Trace;
use wattroute_workload::ClusterSet;

/// A thread-safe factory producing one fresh policy instance per shard.
/// Each region routes with its own instance, so policies may carry mutable
/// caches without synchronisation.
pub type PolicyFactory<'f> = dyn Fn() -> Box<dyn RoutingPolicy> + Sync + 'f;

/// Default per-site load-series reservoir capacity: exact percentiles for
/// traces up to ~14 days of 5-minute steps, decimated (still deterministic)
/// beyond.
pub const DEFAULT_RESERVOIR_CAPACITY: usize = 4096;

/// One region's shard engine, finished: its report, plus the raw
/// watt-hours and utilization accumulators the report only carries in
/// rounded or summarised form. The rest of the engine's final state (its
/// load reservoirs above all) is dropped as soon as the shard ends.
struct ShardResult {
    report: SimulationReport,
    energy_wh: Vec<f64>,
    util_stats: Vec<OnlineStats>,
}

/// One region's shard inputs that no pass changes, fixed when the replay is
/// bound: the region's sites as a deployment, the client states it owns,
/// its price-column map, and its slice of the constraint set.
struct RegionPlan {
    /// The region's sites, in global site order.
    clusters: ClusterSet,
    /// The client states this region owns, in trace order.
    states: Vec<UsState>,
    /// Trace index of each owned state, aligned with `states`.
    state_idx: Vec<usize>,
    /// One price column per *distinct* hub (sites share metros). For a
    /// trivial embedding the distinct hubs are exactly the cluster-order
    /// hub ids, so the compiled table matches the flat simulation's byte
    /// for byte.
    distinct_hubs: Vec<HubId>,
    /// Site → column in `distinct_hubs`.
    hub_row: Vec<usize>,
    /// The region's slice of the global constraint set.
    constraints: ConstraintSet,
}

/// A hierarchical batch replay: topology + trace + prices + configuration.
///
/// See the [module docs](self) for the sharding and equivalence story.
pub struct HierarchicalReplay<'a> {
    topology: &'a Topology,
    trace: &'a Trace,
    prices: &'a PriceSet,
    config: SimulationConfig,
    reservoir_capacity: usize,
    /// Per region: its shard plan, `None` for a region without sites.
    regions: Vec<Option<RegionPlan>>,
}

impl<'a> HierarchicalReplay<'a> {
    /// Bind a replay. Positional constraint vectors in `config` must align
    /// with the topology's site order; if the topology carries tier caps
    /// and the configuration does not already hold a [`TierCaps`], they
    /// are lifted from the topology automatically.
    ///
    /// Every client state is owned by exactly one region
    /// ([`Topology::assign_states`]); each region's shard routes only the
    /// states it owns.
    ///
    /// # Panics
    /// Panics on an empty trace or on constraint vectors whose length does
    /// not match the site count.
    pub fn new(
        topology: &'a Topology,
        trace: &'a Trace,
        prices: &'a PriceSet,
        mut config: SimulationConfig,
    ) -> Self {
        assert!(trace.num_steps() > 0, "trace is empty");
        if config.constraints.tier_caps().is_none() {
            if let Some(tiers) = TierCaps::from_topology(topology) {
                config.constraints = config.constraints.with_tier_caps(tiers);
            }
        }
        config.constraints.validate(topology.num_sites());
        let owners = topology.assign_states(&trace.states);
        let sites = site_clusters(topology);
        let regions = (0..topology.num_regions())
            .map(|region| {
                let (s0, s1) = topology.region_sites(region);
                if s0 == s1 {
                    return None;
                }
                let state_idx: Vec<usize> =
                    (0..owners.len()).filter(|&j| owners[j] == region).collect();
                let mut distinct_hubs: Vec<HubId> = Vec::new();
                let hub_row = (s0..s1)
                    .map(|s| {
                        let hub = topology.site_hub(s);
                        distinct_hubs.iter().position(|&h| h == hub).unwrap_or_else(|| {
                            distinct_hubs.push(hub);
                            distinct_hubs.len() - 1
                        })
                    })
                    .collect();
                Some(RegionPlan {
                    clusters: ClusterSet::with_shared_hubs(sites.clusters()[s0..s1].to_vec()),
                    states: state_idx.iter().map(|&j| trace.states[j]).collect(),
                    state_idx,
                    distinct_hubs,
                    hub_row,
                    constraints: slice_constraints(&config.constraints, topology, region),
                })
            })
            .collect();
        Self {
            topology,
            trace,
            prices,
            config,
            reservoir_capacity: DEFAULT_RESERVOIR_CAPACITY,
            regions,
        }
    }

    /// Override the per-site load-series reservoir capacity (minimum 2).
    /// Percentiles are exact while a trace fits the capacity; longer traces
    /// are decimated deterministically.
    pub fn with_reservoir_capacity(mut self, capacity: usize) -> Self {
        self.reservoir_capacity = capacity;
        self
    }

    /// The configuration in force (tier caps already lifted).
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Replay every region sequentially and merge. Bit-identical to
    /// [`Self::run_sharded`].
    pub fn run(&self, make_policy: &PolicyFactory<'_>) -> SimulationReport {
        let shards: Vec<Option<ShardResult>> = self
            .regions
            .iter()
            .map(|plan| plan.as_ref().map(|plan| self.run_region(plan, make_policy)))
            .collect();
        self.merge(shards)
    }

    /// Replay regions on scoped worker threads (one per region) and merge
    /// deterministically. Shards share nothing, and the merge consumes
    /// results in region index order, so the report is bit-identical to
    /// [`Self::run`].
    pub fn run_sharded(&self, make_policy: &PolicyFactory<'_>) -> SimulationReport {
        let shards = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .regions
                .iter()
                .map(|plan| {
                    scope
                        .spawn(move || plan.as_ref().map(|plan| self.run_region(plan, make_policy)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
        });
        self.merge(shards)
    }

    /// Replay one region's shard — a [`SimulationEngine`] over the
    /// region's sites, the states it owns, and its constraint slice — over
    /// the whole trace, one allocation epoch per engine call.
    fn run_region(&self, plan: &RegionPlan, make_policy: &PolicyFactory<'_>) -> ShardResult {
        let _shard_span = wattroute_obs::span!("hierarchy.shard");
        let trace = self.trace;
        let table = PriceTable::build(
            self.prices,
            &plan.distinct_hubs,
            step_coverage(trace),
            self.config.reaction_delay_hours,
        );

        let config =
            SimulationConfig { constraints: plan.constraints.clone(), ..self.config.clone() };
        let mut engine = SimulationEngine::new(&plan.clusters, &plan.states, config)
            .with_clamped_lead_hours(table.clamped_lead_hours())
            .with_load_capacity(self.reservoir_capacity);
        let mut policy = make_policy();

        // Reused per-hour / per-epoch rows (no per-step allocation).
        let mut delayed_row = vec![0.0f64; plan.hub_row.len()];
        let mut billing_row = vec![0.0f64; plan.hub_row.len()];
        let mut owned_demand = vec![0.0f64; plan.states.len()];
        let n_steps = trace.num_steps();
        let mut i = 0;
        while i < n_steps {
            let hour = trace.step_hour(i);
            if i == 0 || trace.step_hour(i - 1) != hour {
                let delayed = table.delayed_at(hour).expect("table covers the trace");
                let billing = table.billing_at(hour).expect("table covers the trace");
                for (c, &row) in plan.hub_row.iter().enumerate() {
                    delayed_row[c] = delayed[row];
                    billing_row[c] = billing[row];
                }
            }
            // The policy sees only the states this region owns; it reads
            // demand only when it re-routes, at the epoch's first step.
            let demand = &trace.steps()[i].us_demand;
            for (d, &j) in owned_demand.iter_mut().zip(&plan.state_idx) {
                *d = demand[j];
            }
            let hour_end = (i..n_steps).find(|&j| trace.step_hour(j) != hour).unwrap_or(n_steps);
            i += engine.advance(
                policy.as_mut(),
                PriceSlice::new(hour, &delayed_row, &billing_row),
                DemandSlice::new(&owned_demand),
                hour_end - i,
            );
        }

        let report = engine.report();
        let EngineSnapshot { energy_wh, util_stats, .. } = engine.into_snapshot();
        ShardResult { report, energy_wh, util_stats }
    }

    /// Fold shard results, in region index order, into one report.
    fn merge(&self, shards: Vec<Option<ShardResult>>) -> SimulationReport {
        let _merge_span = wattroute_obs::span!("hierarchy.merge");
        let shards: Vec<ShardResult> = shards.into_iter().flatten().collect();
        let first = &shards.first().expect("a topology has sites").report;
        debug_assert!(
            shards.iter().all(|s| s.report.delay_clamped_hours == first.delay_clamped_hours),
            "shards compiled against the same price range must clamp identically"
        );

        // Region sites are contiguous in global site order, so concatenating
        // shard outputs in region order reconstructs the global order.
        let clusters: Vec<ClusterReport> =
            shards.iter().flat_map(|s| s.report.clusters.iter().cloned()).collect();
        let util_stats: Vec<OnlineStats> =
            shards.iter().flat_map(|s| s.util_stats.iter().copied()).collect();
        let mut distances = DistanceHistogram::default_resolution();
        for shard in &shards {
            distances.merge(&shard.report.distances);
        }

        let tiers = if self.topology.is_flat_embedding() {
            // The trivial embedding IS the flat world; its report must be
            // byte-identical to the flat engine's, which carries no tiers.
            None
        } else {
            Some(self.tier_rollup(&clusters, &util_stats))
        };

        SimulationReport {
            policy: first.policy.clone(),
            steps: self.trace.num_steps(),
            reaction_delay_hours: self.config.reaction_delay_hours,
            bandwidth_constrained: self.config.constraints.is_bandwidth_constrained(),
            total_cost_dollars: clusters.iter().map(|c| c.cost_dollars).sum(),
            // Sum raw watt-hours, divide once — the flat engine's exact
            // arithmetic (summing per-site MWh rounds differently).
            total_energy_mwh: shards.iter().flat_map(|s| &s.energy_wh).sum::<f64>() / 1.0e6,
            total_overflow_hits: clusters.iter().map(|c| c.overflow_hits).sum(),
            total_rejected_hits: clusters.iter().map(|c| c.rejected_hits).sum(),
            total_bandwidth_binding_hours: clusters.iter().map(|c| c.bandwidth_binding_hours).sum(),
            total_bandwidth_cost_dollars: clusters.iter().map(|c| c.bandwidth_cost_dollars).sum(),
            delay_clamped_hours: first.delay_clamped_hours,
            clusters,
            mean_distance_km: distances.mean_km().unwrap_or(0.0),
            p99_distance_km: distances.percentile_km(99.0).unwrap_or(0.0),
            distances,
            tiers,
        }
    }

    /// Sum the per-site reports over the tree's contiguous ranges, folding
    /// the sites' utilization accumulators with [`OnlineStats::merge`].
    fn tier_rollup(&self, sites: &[ClusterReport], util_stats: &[OnlineStats]) -> TierRollup {
        let topology = self.topology;
        let node = |label: &str, (a, b): (usize, usize), cap: f64| {
            let mut merged = OnlineStats::new();
            for stats in &util_stats[a..b] {
                merged.merge(stats);
            }
            TierNodeReport {
                label: label.to_string(),
                sites: b - a,
                cost_dollars: sites[a..b].iter().map(|c| c.cost_dollars).sum(),
                energy_mwh: sites[a..b].iter().map(|c| c.energy_mwh).sum(),
                total_hits: sites[a..b].iter().map(|c| c.total_hits).sum(),
                overflow_hits: sites[a..b].iter().map(|c| c.overflow_hits).sum(),
                rejected_hits: sites[a..b].iter().map(|c| c.rejected_hits).sum(),
                mean_utilization: merged.mean().unwrap_or(0.0),
                cap_hits_per_sec: cap.is_finite().then_some(cap),
            }
        };
        TierRollup {
            metros: (0..topology.num_metros())
                .map(|m| {
                    node(
                        &topology.metro_labels()[m],
                        topology.metro_sites(m),
                        topology.metro_cap_hits_per_sec(m),
                    )
                })
                .collect(),
            regions: (0..topology.num_regions())
                .map(|r| {
                    node(
                        &topology.region_labels()[r],
                        topology.region_sites(r),
                        topology.region_cap_hits_per_sec(r),
                    )
                })
                .collect(),
        }
    }
}

/// The region's slice of a global constraint set: positional vectors cut to
/// the region's site range, tier caps localised to the region's metros and
/// the region's own cap, overflow mode carried over.
fn slice_constraints(global: &ConstraintSet, topology: &Topology, region: usize) -> ConstraintSet {
    let (s0, s1) = topology.region_sites(region);
    let mut set = ConstraintSet::unconstrained().with_overflow(global.overflow());
    if let Some(caps) = global.bandwidth_caps() {
        set = set.with_bandwidth_caps(caps[s0..s1].to_vec());
    }
    if let Some(ceilings) = global.capacity_ceilings() {
        set = set.with_capacity_ceilings(ceilings[s0..s1].to_vec());
    }
    if global.tier_caps().is_some() {
        let (m0, m1) = topology.region_metros(region);
        let site_metro: Vec<usize> = (s0..s1).map(|s| topology.site_metro(s) - m0).collect();
        let site_region = vec![0usize; s1 - s0];
        let metro_caps: Vec<f64> = (m0..m1).map(|m| topology.metro_cap_hits_per_sec(m)).collect();
        let region_caps = vec![topology.region_cap_hits_per_sec(region)];
        set = set.with_tier_caps(TierCaps::new(site_metro, site_region, metro_caps, region_caps));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunOptions;
    use crate::simulation::Simulation;
    use wattroute_market::generator::PriceGenerator;
    use wattroute_market::model::MarketModel;
    use wattroute_market::time::{HourRange, SimHour};
    use wattroute_routing::price_conscious::PriceConsciousPolicy;
    use wattroute_workload::hierarchy::single_region_of;
    use wattroute_workload::SyntheticWorkloadConfig;

    fn short_range(hours: u64) -> HourRange {
        let start = SimHour::from_date(2008, 12, 19);
        HourRange::new(start, start.plus_hours(hours))
    }

    fn pc_factory() -> Box<dyn RoutingPolicy> {
        Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))
    }

    #[test]
    fn trivial_embedding_matches_flat_engine_bit_for_bit() {
        let clusters = ClusterSet::akamai_like_nine();
        let topology = single_region_of(&clusters);
        let range = short_range(48);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::nine_cluster_default(42).realtime_hourly(range);
        let config = SimulationConfig::default();

        let flat = Simulation::new(&clusters, &trace, &prices, config.clone())
            .execute(&mut *pc_factory(), RunOptions::new());
        let replay = HierarchicalReplay::new(&topology, &trace, &prices, config);
        let tree = replay.run(&pc_factory);
        assert_eq!(tree, flat, "trivial embedding must replay bit-identical");
        assert_eq!(tree.to_json(), flat.to_json(), "JSON must match byte for byte");
        assert!(tree.tiers.is_none());
    }

    #[test]
    fn sharded_matches_sequential_on_a_synthetic_tree() {
        let topology = Topology::synthetic(7, 60).with_tier_slack(0.9);
        let range = short_range(36);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), 9).realtime_hourly(range);
        let replay =
            HierarchicalReplay::new(&topology, &trace, &prices, SimulationConfig::default());
        let sequential = replay.run(&pc_factory);
        let sharded = replay.run_sharded(&pc_factory);
        assert_eq!(sequential, sharded);
        let tiers = sequential.tiers.as_ref().expect("synthetic tree reports tiers");
        assert_eq!(tiers.metros.len(), 29);
        assert_eq!(tiers.regions.len(), 6);
    }

    #[test]
    fn tier_rollup_conserves_cost_energy_and_hits() {
        let topology = Topology::synthetic(3, 45);
        let range = short_range(24);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), 4).realtime_hourly(range);
        let replay =
            HierarchicalReplay::new(&topology, &trace, &prices, SimulationConfig::default());
        let report = replay.run(&pc_factory);
        let tiers = report.tiers.as_ref().expect("tiers present");
        let site_cost: f64 = report.clusters.iter().map(|c| c.cost_dollars).sum();
        let metro_cost: f64 = tiers.metros.iter().map(|m| m.cost_dollars).sum();
        let region_cost: f64 = tiers.regions.iter().map(|r| r.cost_dollars).sum();
        assert!((metro_cost - site_cost).abs() / site_cost.max(1.0) < 1e-9);
        assert!((region_cost - site_cost).abs() / site_cost.max(1.0) < 1e-9);
        let site_hits: f64 = report.clusters.iter().map(|c| c.total_hits).sum();
        let region_hits: f64 = tiers.regions.iter().map(|r| r.total_hits).sum();
        assert!((region_hits - site_hits).abs() / site_hits.max(1.0) < 1e-9);
        assert_eq!(tiers.regions.iter().map(|r| r.sites).sum::<usize>(), 45);
    }

    #[test]
    fn a_region_that_owns_no_state_serves_nothing_and_idles() {
        // The second region's only metro shares Chicago's hub with the
        // first region, so it is never strictly nearer to any state:
        // `assign_states` gives every state to the first region, and the
        // second region's shard runs an engine over zero states.
        use wattroute_energy::model::ClusterPowerModel;
        use wattroute_geo::topology::TopologyBuilder;
        use wattroute_workload::trace::STEP_SECONDS;
        let mut b = TopologyBuilder::new();
        b.add_region("MAIN");
        for (metro, hub) in [
            ("NYC", HubId::NewYorkNy),
            ("CHI", HubId::ChicagoIl),
            ("DAL", HubId::DallasTx),
            ("SFO", HubId::PaloAltoCa),
        ] {
            b.add_metro(metro);
            b.add_site(format!("{metro}-0"), hub, 400, 200.0);
            b.add_site(format!("{metro}-1"), hub, 300, 200.0);
        }
        b.add_region("SHADOW");
        b.add_metro("CHI-B");
        b.add_site("CHI-B-0", HubId::ChicagoIl, 250, 200.0);
        b.add_site("CHI-B-1", HubId::ChicagoIl, 150, 200.0);
        let topology = b.build();
        let range = short_range(30);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        assert!(topology.assign_states(&trace.states).iter().all(|&r| r == 0));
        let prices = PriceGenerator::new(MarketModel::calibrated(), 11).realtime_hourly(range);
        // Re-route every step, so each step serves exactly its own demand.
        let config = SimulationConfig::default();
        let replay = HierarchicalReplay::new(&topology, &trace, &prices, config.clone());
        let shadow = replay.regions[1].as_ref().expect("the second region has sites");
        assert!(shadow.states.is_empty(), "its engine routes a zero-state allocation");

        let sequential = replay.run(&pc_factory);
        assert_eq!(sequential, replay.run_sharded(&pc_factory));
        assert_eq!(sequential.to_json(), replay.run_sharded(&pc_factory).to_json());

        // Every hit offered is served somewhere (no overflow rejects here).
        let offered: f64 = trace
            .steps()
            .iter()
            .map(|step| step.us_demand.iter().sum::<f64>() * STEP_SECONDS as f64)
            .sum();
        let served: f64 = sequential.clusters.iter().map(|c| c.total_hits).sum();
        assert!((served - offered).abs() <= 1e-9 * offered, "{served} vs {offered}");
        let tiers = sequential.tiers.as_ref().expect("a two-region tree reports tiers");
        assert_eq!(tiers.regions[1].total_hits, 0.0);

        let (s0, s1) = topology.region_sites(1);
        let step_hours = STEP_SECONDS as f64 / 3600.0;
        for site in s0..s1 {
            let report = &sequential.clusters[site];
            assert_eq!(report.total_hits, 0.0, "{}", report.label);
            assert_eq!(report.peak_hits_per_sec, 0.0, "{}", report.label);
            assert_eq!(report.mean_utilization, 0.0, "{}", report.label);
            let idle_watts =
                ClusterPowerModel::new(config.energy, topology.site_servers(site)).power_watts(0.0);
            let idle_mwh = idle_watts * step_hours * trace.num_steps() as f64 / 1.0e6;
            assert!(idle_mwh > 0.0);
            assert!(
                (report.energy_mwh - idle_mwh).abs() <= 1e-9 * idle_mwh,
                "{}: {} MWh vs idle {idle_mwh} MWh",
                report.label,
                report.energy_mwh
            );
        }
    }
}
