//! The paper's price-conscious request router (§6.1).
//!
//! > "Given a client, the price-conscious optimizer maps it to a cluster
//! > with the lowest price, only considering clusters within some maximum
//! > radial geographic distance. For clients that do not have any clusters
//! > within that maximum distance, the routing scheme finds the closest
//! > cluster and considers any other nearby clusters (< 50 km). If the
//! > selected cluster is nearing its capacity (or the 95/5 boundary), the
//! > optimizer iteratively finds another good cluster."
//!
//! Two parameters modulate its behaviour: a **distance threshold** (0 ⇒
//! optimal-distance routing, larger than the coast-to-coast distance ⇒
//! optimal-price routing) and a **price threshold** (differentials smaller
//! than $5/MWh are ignored, so ties go to the nearer cluster).

use crate::allocation::Allocation;
use crate::policy::{assign_by_preference_into, AssignWorkspace, RoutingContext, RoutingPolicy};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;
use wattroute_geo::distance::RankedHub;
use wattroute_geo::{distance, hubs, HubId, UsState};
use wattroute_market::differential::DEFAULT_PRICE_THRESHOLD;
use wattroute_workload::ClusterSet;

/// Configuration of the price-conscious optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriceConsciousConfig {
    /// Maximum radial client-to-cluster distance considered, in km.
    /// `0.0` degenerates to nearest-cluster routing; anything larger than
    /// the East-West coast distance (~4100 km) gives pure price routing.
    pub distance_threshold_km: f64,
    /// Price differentials smaller than this ($/MWh) are ignored; the
    /// nearer cluster wins such ties. The paper uses $5/MWh.
    pub price_threshold: f64,
}

impl Default for PriceConsciousConfig {
    fn default() -> Self {
        Self { distance_threshold_km: 1500.0, price_threshold: DEFAULT_PRICE_THRESHOLD }
    }
}

/// Distance-dependent candidate structure for one client state, derived
/// once per (compiled geometry, distance threshold) and reused across
/// reallocations. Prices change every routing decision; geography does not.
/// Entries are *hub runs* of the compiled geometry (see
/// [`CompiledPreferences`]), not single clusters.
#[derive(Debug, Clone)]
struct StateCandidates {
    /// Hub runs within the distance threshold (or the paper's nearest +
    /// 50 km fallback set), sorted by ascending distance.
    candidates: Vec<RankedHub>,
    /// The remaining hub runs, sorted by ascending distance — the
    /// last-resort overflow tail appended after the priced candidates.
    tail: Vec<usize>,
}

// Compile-count instrumentation lives on the `wattroute_obs` registry: the
// `routing.compiled_preferences.builds` counter tracks every
// [`CompiledPreferences::build`] call so tests can assert that sweeps share
// one compiled geometry per (deployment, state list) instead of letting
// every run recompile its own. Registry counters are always live, so those
// pins hold without enabling telemetry.

/// The expensive, threshold-*independent* half of the price-conscious
/// optimizer's geometry: for every client state, all clusters ranked by
/// ascending population-weighted distance.
///
/// The ranking is stored over *hub runs*: maximal ranges of consecutive
/// clusters placed at the same hub. Every cluster of a run sits at the same
/// distance from every state, so one distance per (state, run) is computed
/// and the runs are stable-sorted by it. Expanding each run into its
/// cluster indices reproduces the per-cluster stable sort exactly, because
/// runs are contiguous and equidistant runs keep their start order. A flat
/// deployment ([`ClusterSet::new`] forbids shared hubs) has one-cluster
/// runs; a hierarchical region has one run per metro.
///
/// Depends only on the deployment's hub list and the client state list —
/// not on the distance threshold and not on prices — so one compilation can
/// be shared read-only (behind an [`Arc`]) by every run of a scenario sweep
/// that routes the same deployment over the same trace, whatever their
/// thresholds, delays, or bandwidth caps. Per-threshold candidate splits
/// and per-step price rankings are derived from it cheaply (no distance
/// computation, no sorting).
#[derive(Debug, Clone)]
pub struct CompiledPreferences {
    hub_ids: Vec<HubId>,
    states: Vec<UsState>,
    /// Maximal ranges of consecutive clusters sharing a hub, in cluster
    /// order.
    runs: Vec<Range<usize>>,
    /// Per state: every hub run index with its distance, ascending.
    ranked: Vec<Vec<RankedHub>>,
    /// `ranked` expanded into cluster indices: `n_states × n_clusters`,
    /// state-major — the order the distance-only baselines pour in.
    nearest_first: Vec<usize>,
}

impl CompiledPreferences {
    /// Compile the ranked-distance geometry for a deployment and client
    /// state list.
    pub fn build(clusters: &ClusterSet, states: &[UsState]) -> Self {
        wattroute_obs::counter!("routing.compiled_preferences.builds").inc();
        let hub_ids = clusters.hub_ids();
        let mut runs: Vec<Range<usize>> = Vec::new();
        for (c, hub) in hub_ids.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if hub_ids[run.start] == *hub => run.end = c + 1,
                _ => runs.push(c..c + 1),
            }
        }
        let run_hubs: Vec<&wattroute_geo::Hub> =
            runs.iter().map(|run| hubs::hub(hub_ids[run.start])).collect();
        let ranked: Vec<Vec<RankedHub>> = states
            .iter()
            .map(|&state| distance::hubs_within_threshold(state, &run_hubs, f64::INFINITY))
            .collect();
        let mut nearest_first = Vec::with_capacity(states.len() * hub_ids.len());
        for state_runs in &ranked {
            for &(run, _) in state_runs {
                nearest_first.extend(runs[run].clone());
            }
        }
        Self { hub_ids, states: states.to_vec(), runs, ranked, nearest_first }
    }

    /// Whether this compilation was built for the context's deployment hub
    /// list and state list.
    pub fn matches(&self, ctx: &RoutingContext<'_>) -> bool {
        self.hub_ids.len() == ctx.clusters.len()
            && self.hub_ids.iter().zip(ctx.clusters.clusters()).all(|(&h, c)| h == c.hub)
            && self.states == ctx.states
    }

    /// The hub list this geometry was compiled for, in cluster order.
    pub fn hub_ids(&self) -> &[HubId] {
        &self.hub_ids
    }

    /// The client state list this geometry was compiled for.
    pub fn states(&self) -> &[UsState] {
        &self.states
    }

    /// Total number of [`CompiledPreferences::build`] calls in this
    /// process. Instrumentation for compile-count tests; only deltas
    /// measured in a dedicated process (a single-test integration binary)
    /// are meaningful, since any concurrently running code may compile too.
    /// Reads the `routing.compiled_preferences.builds` counter on the
    /// global [`wattroute_obs`] registry.
    pub fn build_count() -> usize {
        wattroute_obs::counter!("routing.compiled_preferences.builds").get() as usize
    }

    /// Ranked `(cluster range, distance)` pairs for one client state,
    /// ascending by distance: the state's hub runs in ranked order.
    pub(crate) fn ranked(
        &self,
        state_idx: usize,
    ) -> impl Iterator<Item = (Range<usize>, f64)> + '_ {
        self.ranked[state_idx].iter().map(|&(run, d)| (self.runs[run].clone(), d))
    }

    /// Every cluster index for one client state, nearest first: the ranked
    /// hub runs expanded. Equidistant clusters keep their deployment
    /// order — the same tie-break every in-crate distance sort uses, which
    /// is what lets the baselines ride this geometry bit-identically.
    pub(crate) fn nearest_first(&self, state_idx: usize) -> &[usize] {
        let n = self.hub_ids.len();
        &self.nearest_first[state_idx * n..(state_idx + 1) * n]
    }

    /// Derive the per-threshold candidate/tail split from the ranked
    /// geometry: candidates are the hub runs within `threshold_km` (with
    /// the paper's nearest + 50 km fallback when none are), the tail is
    /// every other run, both in ascending-distance order.
    fn threshold_split(&self, threshold_km: f64) -> Vec<StateCandidates> {
        self.ranked
            .iter()
            .map(|ranked| {
                let within: Vec<RankedHub> =
                    ranked.iter().copied().filter(|(_, d)| *d <= threshold_km).collect();
                let candidates = if !within.is_empty() || ranked.is_empty() {
                    within
                } else {
                    // Fallback: nearest cluster plus any within 50 km of it.
                    let nearest = ranked[0].1;
                    ranked.iter().copied().filter(|(_, d)| *d <= nearest + 50.0).collect()
                };
                let tail = ranked
                    .iter()
                    .filter(|(r, _)| !candidates.iter().any(|(c, _)| c == r))
                    .map(|(r, _)| *r)
                    .collect();
                StateCandidates { candidates, tail }
            })
            .collect()
    }
}

/// Make sure `slot` holds compiled geometry matching `ctx`, lazily
/// self-compiling (and counting an own-build) when it does not. The shared
/// entry point for every policy that rides [`CompiledPreferences`]; returns
/// `true` when a recompile happened so callers can invalidate anything they
/// derived from the previous geometry.
pub(crate) fn ensure_compiled(
    slot: &mut Option<Arc<CompiledPreferences>>,
    own_builds: &mut usize,
    ctx: &RoutingContext<'_>,
) -> bool {
    if slot.as_ref().is_some_and(|c| c.matches(ctx)) {
        return false;
    }
    *slot = Some(Arc::new(CompiledPreferences::build(ctx.clusters, ctx.states)));
    *own_builds += 1;
    true
}

/// A [`CompiledPreferences`] specialised to one distance threshold — the
/// cheap, per-policy half of the compilation.
#[derive(Debug, Clone)]
struct ThresholdSplit {
    distance_threshold_km: f64,
    per_state: Vec<StateCandidates>,
}

/// Reusable re-ranking scratch: the cheap-set/rest partition buffers the
/// per-state price ranking is built in, as `(price run, distance)` pairs.
/// Owned by the policy so steady-state reallocation allocates nothing.
#[derive(Debug, Clone, Default)]
struct RankScratch {
    cheap: Vec<RankedHub>,
    rest: Vec<RankedHub>,
}

/// The compiled hub runs re-split under one price row: maximal ranges of
/// consecutive clusters sharing a hub *and* a bitwise-equal price. Every
/// cluster of a price run has the same price and the same distance from
/// every state, so the ranking sorts price runs and expands them.
#[derive(Debug, Clone, Default)]
struct PriceRuns {
    /// Cluster ranges, in cluster order.
    runs: Vec<Range<usize>>,
    /// Per hub run: the range of `runs` it splits into.
    of_hub_run: Vec<Range<usize>>,
}

impl PriceRuns {
    /// Re-split `hub_runs` under `prices`, in O(n_clusters).
    fn split(&mut self, hub_runs: &[Range<usize>], prices: &[f64]) {
        self.runs.clear();
        self.of_hub_run.clear();
        for hub_run in hub_runs {
            let first = self.runs.len();
            let mut start = hub_run.start;
            for c in hub_run.start + 1..hub_run.end {
                if prices[c].to_bits() != prices[start].to_bits() {
                    self.runs.push(start..c);
                    start = c;
                }
            }
            self.runs.push(start..hub_run.end);
            self.of_hub_run.push(first..self.runs.len());
        }
    }
}

/// Per-state preference orders, valid for one price row under one
/// configuration. The paper's router ranks by delayed *hourly* prices, but
/// the engine re-routes every step, so most reallocations see the row the
/// previous one ranked: only the capacity pour (demand moves every step)
/// has to run again.
///
/// Slots fill lazily, when the pour asks for a state's order, so states
/// with no demand this row are never ranked. The key is exactly the
/// ranking's inputs besides the geometry — the price row and both
/// thresholds, compared bitwise — and the policy clears the cache whenever
/// it re-derives the threshold split, which every geometry change (a
/// recompile or an attach) forces. Each re-key also re-splits the price
/// runs the row ranks over.
#[derive(Debug, Clone, Default)]
struct RankCache {
    /// Bit patterns of the price row the slots were ranked under.
    prices: Vec<u64>,
    /// Bit patterns of `(distance_threshold_km, price_threshold)`.
    config: (u64, u64),
    /// Whether the key above is set; `false` until the first call and
    /// after [`Self::clear`].
    keyed: bool,
    /// The compiled hub runs split under the keyed price row.
    price_runs: PriceRuns,
    /// `n_states × n_clusters` preference orders, state-major.
    orders: Vec<usize>,
    /// Per state: whether its slot in `orders` holds the keyed ranking.
    filled: Vec<bool>,
}

impl RankCache {
    /// Forget every slot: the next call re-keys and re-ranks on demand.
    fn clear(&mut self) {
        self.keyed = false;
    }

    /// Make the cache valid for this call's price row and configuration,
    /// returning whether it already was (a hit).
    fn key(
        &mut self,
        config: &PriceConsciousConfig,
        prices: &[f64],
        compiled: &CompiledPreferences,
    ) -> bool {
        let config = (config.distance_threshold_km.to_bits(), config.price_threshold.to_bits());
        if self.keyed
            && self.config == config
            && self.prices.len() == prices.len()
            && self.prices.iter().zip(prices).all(|(a, b)| *a == b.to_bits())
        {
            return true;
        }
        self.prices.clear();
        self.prices.extend(prices.iter().map(|p| p.to_bits()));
        self.config = config;
        self.keyed = true;
        self.price_runs.split(&compiled.runs, prices);
        let n_states = compiled.states.len();
        self.orders.resize(n_states * prices.len(), 0);
        self.filled.clear();
        self.filled.resize(n_states, false);
        false
    }
}

/// The distance-constrained electricity price optimizer.
#[derive(Debug, Clone, Default)]
pub struct PriceConsciousPolicy {
    /// Tunable parameters.
    pub config: PriceConsciousConfig,
    /// Compiled ranked-distance geometry for the deployment and state list
    /// last routed over — either attached by a sweep (shared) or compiled
    /// lazily by this instance.
    compiled: Option<Arc<CompiledPreferences>>,
    /// Candidate/tail split derived from `compiled` for the current
    /// distance threshold.
    split: Option<ThresholdSplit>,
    /// How many times *this instance* compiled its own geometry (attached
    /// shared geometry does not count). Instrumentation for tests proving
    /// that shared preferences eliminate per-run recompiles.
    own_geometry_builds: usize,
    /// Pour-engine scratch reused across reallocations.
    workspace: AssignWorkspace,
    /// Price re-ranking scratch reused across states and reallocations.
    scratch: RankScratch,
    /// Preference orders ranked under the last price row seen.
    ranks: RankCache,
}

impl PriceConsciousPolicy {
    /// Create a policy with an explicit configuration.
    pub fn new(config: PriceConsciousConfig) -> Self {
        Self { config, ..Default::default() }
    }

    /// Create a policy with the given distance threshold and the default
    /// $5/MWh price threshold.
    pub fn with_distance_threshold(distance_threshold_km: f64) -> Self {
        Self::new(PriceConsciousConfig { distance_threshold_km, ..Default::default() })
    }

    /// "Optimal price" variant: no effective distance constraint.
    pub fn unconstrained_distance() -> Self {
        Self::with_distance_threshold(50_000.0)
    }

    /// Attach shared, pre-compiled ranked-distance geometry (typically from
    /// a scenario sweep's artifact cache). The policy routes with it as
    /// long as it matches the contexts it is handed; a mismatching context
    /// falls back to a lazy self-compile, so attaching can never change
    /// results — only avoid recompiles.
    pub fn with_shared_preferences(mut self, prefs: Arc<CompiledPreferences>) -> Self {
        self.attach_shared_preferences(&prefs);
        self
    }

    /// In-place form of [`Self::with_shared_preferences`].
    pub fn attach_shared_preferences(&mut self, prefs: &Arc<CompiledPreferences>) {
        self.compiled = Some(prefs.clone());
        self.split = None;
    }

    /// How many times this instance compiled its own geometry (a run fed
    /// shared preferences that match its contexts reports `0`).
    pub fn own_geometry_builds(&self) -> usize {
        self.own_geometry_builds
    }
}

/// Preference order for one client state, written into `out`: candidate
/// clusters within the distance threshold (with the paper's nearest + 50 km
/// fallback), sorted by price with sub-threshold differences broken by
/// distance, followed by the remaining clusters by distance (so capacity
/// overflow degrades gracefully rather than arbitrarily). The
/// distance-dependent parts come precomputed in `entry`; only the
/// price-dependent ranking happens per reallocation, over price runs rather
/// than single clusters, entirely in the caller's reused `scratch`/`out`
/// buffers.
fn preference_order_into(
    config: &PriceConsciousConfig,
    prices: &[f64],
    hub_runs: &[Range<usize>],
    price_runs: &PriceRuns,
    entry: &StateCandidates,
    scratch: &mut RankScratch,
    out: &mut Vec<usize>,
) {
    // Split candidates into those whose price is within the price
    // threshold of the cheapest candidate ("as good as the cheapest";
    // among these the nearest wins, because sub-threshold differentials
    // are ignored) and the remainder, ordered by price then distance.
    // Doing it in two stages, rather than with a price-or-distance
    // comparator, keeps the ordering a total order. A run's price is its
    // first cluster's: every cluster in it carries the same bits.
    let run_price = |p: usize| prices[price_runs.runs[p].start];
    let candidates = entry
        .candidates
        .iter()
        .flat_map(|&(r, d)| price_runs.of_hub_run[r].clone().map(move |p| (p, d)));
    let cheapest = candidates.clone().map(|(p, _)| run_price(p)).fold(f64::INFINITY, f64::min);
    scratch.cheap.clear();
    scratch.rest.clear();
    for (p, d) in candidates {
        if run_price(p) <= cheapest + config.price_threshold {
            scratch.cheap.push((p, d));
        } else {
            scratch.rest.push((p, d));
        }
    }
    // `candidates` is pre-sorted by distance (ties in cluster order), so
    // `cheap` (a stable partition of it) already is too; the stable sort
    // keeps equal-key runs in cluster order, as a per-cluster sort would.
    scratch.rest.sort_by(|(pa, da), (pb, db)| {
        run_price(*pa)
            .partial_cmp(&run_price(*pb))
            .expect("finite prices")
            .then(da.partial_cmp(db).expect("finite distances"))
    });

    for &(p, _) in scratch.cheap.iter().chain(&scratch.rest) {
        out.extend(price_runs.runs[p].clone());
    }
    // The out-of-threshold clusters, by distance, as a last resort for
    // overflow.
    for &r in &entry.tail {
        out.extend(hub_runs[r].clone());
    }
}

impl RoutingPolicy for PriceConsciousPolicy {
    fn name(&self) -> &str {
        "price-conscious"
    }

    fn allocate(&mut self, ctx: &RoutingContext<'_>) -> Allocation {
        let mut out = Allocation::zeros(ctx.clusters.len(), ctx.states.len());
        self.allocate_into(&mut out, ctx);
        out
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        if ensure_compiled(&mut self.compiled, &mut self.own_geometry_builds, ctx) {
            self.split = None;
        }
        let threshold = self.config.distance_threshold_km;
        if !self.split.as_ref().is_some_and(|s| s.distance_threshold_km == threshold) {
            let compiled = self.compiled.as_ref().expect("compiled above");
            self.split = Some(ThresholdSplit {
                distance_threshold_km: threshold,
                per_state: compiled.threshold_split(threshold),
            });
            self.ranks.clear();
        }
        let compiled = self.compiled.as_ref().expect("compiled above");
        let hit = self.ranks.key(&self.config, ctx.prices, compiled);
        if wattroute_obs::Telemetry::enabled() {
            if hit {
                wattroute_obs::counter!("routing.rank_cache.hits").inc();
            } else {
                wattroute_obs::counter!("routing.rank_cache.misses").inc();
            }
        }
        let Self { config, compiled, split, workspace, scratch, ranks, .. } = self;
        let hub_runs = &compiled.as_ref().expect("compiled above").runs;
        let split = split.as_ref().expect("derived above");
        let n_clusters = ctx.clusters.len();
        // The pour runs every call (demand moves every step); a state's
        // ranking runs at most once per price row.
        assign_by_preference_into(ctx, workspace, out, |state_idx, _, buf| {
            let slot = &mut ranks.orders[state_idx * n_clusters..(state_idx + 1) * n_clusters];
            if ranks.filled[state_idx] {
                buf.extend_from_slice(slot);
            } else {
                let entry = &split.per_state[state_idx];
                let price_runs = &ranks.price_runs;
                preference_order_into(
                    config, ctx.prices, hub_runs, price_runs, entry, scratch, buf,
                );
                slot.copy_from_slice(buf);
                ranks.filled[state_idx] = true;
            }
        });
    }

    fn attach_preferences(&mut self, prefs: &Arc<CompiledPreferences>) {
        self.attach_shared_preferences(prefs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_geo::HubId;
    use wattroute_market::time::SimHour;
    use wattroute_workload::ClusterSet;

    fn ctx<'a>(
        clusters: &'a ClusterSet,
        states: &'a [UsState],
        demand: &'a [f64],
        prices: &'a [f64],
    ) -> RoutingContext<'a> {
        RoutingContext::new(clusters, states, demand, prices, SimHour(0))
    }

    fn nine_prices(base: f64) -> Vec<f64> {
        vec![base; 9]
    }

    #[test]
    fn zero_threshold_degenerates_to_nearest() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        // Make Boston expensive: a nearest-distance scheme must still pick it.
        let mut prices = nine_prices(30.0);
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        prices[boston] = 500.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(0.0);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[boston][0], 1000.0);
    }

    #[test]
    fn unconstrained_threshold_chases_the_cheapest_hub() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let mut prices = nine_prices(80.0);
        let austin = clusters.index_of_hub(HubId::AustinTx).unwrap();
        prices[austin] = 20.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::unconstrained_distance();
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[austin][0], 1000.0);
        assert_eq!(policy.name(), "price-conscious");
    }

    #[test]
    fn distance_threshold_excludes_far_cheap_clusters() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let mut prices = nine_prices(80.0);
        // Palo Alto is nearly free, but ~4300km from Massachusetts clients.
        let pa = clusters.index_of_hub(HubId::PaloAltoCa).unwrap();
        prices[pa] = 1.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[pa][0], 0.0, "Palo Alto is beyond the 1500km threshold");
        assert!(a.serves_demand(&demand, 1e-9));
    }

    #[test]
    fn sub_threshold_differentials_prefer_the_nearer_cluster() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        let nyc = clusters.index_of_hub(HubId::NewYorkNy).unwrap();
        // NYC is $3 cheaper — below the $5 threshold, so Boston (nearer) wins.
        let mut prices = nine_prices(60.0);
        prices[boston] = 50.0;
        prices[nyc] = 47.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[boston][0], 1000.0);

        // Make the differential exceed the threshold and NYC wins.
        let mut prices2 = nine_prices(60.0);
        prices2[boston] = 50.0;
        prices2[nyc] = 40.0;
        let c2 = ctx(&clusters, &states, &demand, &prices2);
        let a2 = policy.allocate(&c2);
        assert_eq!(a2.matrix()[nyc][0], 1000.0);
    }

    #[test]
    fn capacity_pressure_spills_to_next_cheapest_candidate() {
        let clusters = ClusterSet::akamai_like_nine().scaled(0.01);
        let states = [UsState::NY];
        let nyc = clusters.index_of_hub(HubId::NewYorkNy).unwrap();
        let nj = clusters.index_of_hub(HubId::NewarkNj).unwrap();
        let cap = clusters.get(nyc).unwrap().capacity_hits_per_sec();
        let demand = [cap * 1.5];
        let mut prices = nine_prices(90.0);
        prices[nyc] = 20.0;
        prices[nj] = 30.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1000.0);
        let a = policy.allocate(&c);
        let loads = a.cluster_loads();
        assert!((loads[nyc] - cap).abs() < 1e-6, "cheapest candidate fills first");
        assert!(loads[nj] > 0.0, "overflow moves to the next cheapest nearby cluster");
        assert!(a.serves_demand(&demand, 1e-6));
    }

    #[test]
    fn bandwidth_caps_respected() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::CA];
        let demand = [100_000.0];
        let pa = clusters.index_of_hub(HubId::PaloAltoCa).unwrap();
        let la = clusters.index_of_hub(HubId::LosAngelesCa).unwrap();
        let mut prices = nine_prices(70.0);
        prices[pa] = 10.0;
        // Cap Palo Alto's 95/5 ceiling below the offered demand.
        let mut caps = vec![f64::INFINITY; 9];
        caps[pa] = 30_000.0;
        let c = ctx(&clusters, &states, &demand, &prices).with_bandwidth_caps(caps);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1000.0);
        let a = policy.allocate(&c);
        let loads = a.cluster_loads();
        assert!(loads[pa] <= 30_000.0 + 1e-6);
        assert!(loads[la] > 0.0, "the rest lands on the other in-threshold cluster");
    }

    #[test]
    fn remote_states_fall_back_to_nearest_cluster() {
        // Montana has no cluster within 1100 km in this deployment; the
        // fallback must still serve it from the nearest cluster.
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MT];
        let demand = [500.0];
        let prices = nine_prices(50.0);
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1100.0);
        let a = policy.allocate(&c);
        assert!(a.serves_demand(&demand, 1e-9));
    }

    #[test]
    fn mutating_the_threshold_recompiles_candidates() {
        // `config` is a public field; a changed threshold must invalidate
        // the compiled candidate sets, not silently reuse them.
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let mut prices = nine_prices(80.0);
        let austin = clusters.index_of_hub(HubId::AustinTx).unwrap();
        prices[austin] = 20.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(0.0);
        let near = policy.allocate(&c);
        assert_eq!(near.matrix()[austin][0], 0.0, "0 km threshold routes to the nearest cluster");
        policy.config.distance_threshold_km = 50_000.0;
        let far = policy.allocate(&c);
        assert_eq!(far.matrix()[austin][0], 1000.0, "the new threshold must take effect");
    }

    #[test]
    fn mutating_the_price_threshold_on_the_same_row_reranks() {
        // The rank cache is keyed on the configuration as well as the price
        // row: a changed price threshold must not reuse the cached orders.
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        let nyc = clusters.index_of_hub(HubId::NewYorkNy).unwrap();
        let mut prices = nine_prices(60.0);
        prices[boston] = 50.0;
        prices[nyc] = 47.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        assert_eq!(policy.allocate(&c).matrix()[boston][0], 1000.0, "$3 is below $5");
        policy.config.price_threshold = 1.0;
        assert_eq!(policy.allocate(&c).matrix()[nyc][0], 1000.0, "$3 is above $1");
    }

    #[test]
    fn a_new_deployment_on_the_same_price_row_reranks() {
        // The same price row over a reordered deployment recompiles the
        // geometry; orders ranked for the old cluster indices must go.
        let nine = ClusterSet::akamai_like_nine();
        let reversed = ClusterSet::new(nine.clusters().iter().rev().cloned().collect::<Vec<_>>());
        let states: Vec<UsState> = UsState::all().collect();
        let demand: Vec<f64> = (0..states.len()).map(|i| 100.0 + 37.0 * i as f64).collect();
        let prices: Vec<f64> = (0..9).map(|i| 30.0 + 11.0 * i as f64).collect();
        let mut policy = PriceConsciousPolicy::default();
        let _ = policy.allocate(&ctx(&nine, &states, &demand, &prices));
        let c = ctx(&reversed, &states, &demand, &prices);
        let cached = policy.allocate(&c);
        assert_eq!(policy.own_geometry_builds(), 2);
        assert_eq!(cached, PriceConsciousPolicy::default().allocate(&c));
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = PriceConsciousConfig::default();
        assert_eq!(cfg.price_threshold, 5.0);
        assert_eq!(cfg.distance_threshold_km, 1500.0);
    }

    #[test]
    fn shared_preferences_allocate_identically_without_recompiling() {
        let clusters = ClusterSet::akamai_like_nine();
        let states: Vec<UsState> = UsState::all().collect();
        let demand: Vec<f64> = (0..states.len()).map(|i| 100.0 + 37.0 * i as f64).collect();
        let prices: Vec<f64> = (0..9).map(|i| 30.0 + 11.0 * i as f64).collect();
        let shared = Arc::new(CompiledPreferences::build(&clusters, &states));

        for threshold in [0.0, 800.0, 1500.0, 50_000.0] {
            let c = ctx(&clusters, &states, &demand, &prices);
            let mut own = PriceConsciousPolicy::with_distance_threshold(threshold);
            let mut borrowed = PriceConsciousPolicy::with_distance_threshold(threshold)
                .with_shared_preferences(shared.clone());
            let a = own.allocate(&c);
            let b = borrowed.allocate(&c);
            assert_eq!(a.matrix(), b.matrix(), "threshold {threshold}");
            assert_eq!(own.own_geometry_builds(), 1);
            assert_eq!(borrowed.own_geometry_builds(), 0, "shared geometry must be reused");
        }
    }

    #[test]
    fn mismatching_shared_preferences_fall_back_to_self_compile() {
        let clusters = ClusterSet::akamai_like_nine();
        let other =
            ClusterSet::new(clusters.clusters().iter().take(3).cloned().collect::<Vec<_>>());
        let states = [UsState::MA];
        let demand = [1000.0];
        let prices = nine_prices(50.0);
        // Geometry compiled for a *different* deployment.
        let wrong = Arc::new(CompiledPreferences::build(&other, &states));
        assert_eq!(wrong.hub_ids().len(), 3);
        assert_eq!(wrong.states(), &states[..]);

        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy =
            PriceConsciousPolicy::with_distance_threshold(1500.0).with_shared_preferences(wrong);
        let a = policy.allocate(&c);
        assert_eq!(policy.own_geometry_builds(), 1, "mismatch must trigger a self-compile");
        let mut fresh = PriceConsciousPolicy::with_distance_threshold(1500.0);
        assert_eq!(a.matrix(), fresh.allocate(&c).matrix());
    }

    #[test]
    fn attach_preferences_trait_hook_reaches_the_policy() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::NY];
        let demand = [2000.0];
        let prices = nine_prices(60.0);
        let shared = Arc::new(CompiledPreferences::build(&clusters, &states));
        let mut policy: Box<dyn RoutingPolicy> =
            Box::new(PriceConsciousPolicy::with_distance_threshold(1000.0));
        policy.attach_preferences(&shared);
        let c = ctx(&clusters, &states, &demand, &prices);
        let _ = policy.allocate(&c);
        // And the default no-op implementation is callable on any policy.
        let mut baseline: Box<dyn RoutingPolicy> =
            Box::new(crate::baseline::NearestClusterPolicy::new());
        baseline.attach_preferences(&shared);
    }
}
