//! Property-based tests for the price-conscious optimizer's allocation
//! invariants: for arbitrary prices, demands, thresholds, and bandwidth
//! regimes, a feasible step (total demand within the deployment's effective
//! ceilings) is always served in full without overrunning any ceiling.

use proptest::prelude::*;
use wattroute_geo::distance::RankedHub;
use wattroute_geo::{distance, hubs, HubId, UsState};
use wattroute_market::time::SimHour;
use wattroute_routing::allocation::Allocation;
use wattroute_routing::baseline::{NearestClusterPolicy, StaticCheapestPolicy};
use wattroute_routing::constraints::{ConstraintSet, OverflowMode};
use wattroute_routing::policy::{assign_by_preference, RoutingContext, RoutingPolicy};
use wattroute_routing::price_conscious::{PriceConsciousConfig, PriceConsciousPolicy};
use wattroute_workload::{Cluster, ClusterSet};

const N_CLUSTERS: usize = 9;

fn states() -> Vec<UsState> {
    UsState::all().collect()
}

/// Per-cluster prices in a realistic $/MWh band (negative prices included —
/// RTOs do clear below zero).
fn prices() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-20.0f64..500.0, N_CLUSTERS..N_CLUSTERS + 1)
}

/// Raw per-state demand weights, later scaled to a feasible total.
fn demand_weights() -> impl Strategy<Value = Vec<f64>> {
    let n = states().len();
    prop::collection::vec(0.0f64..1.0, n..n + 1)
}

/// Per-state demand weights where roughly a third of the states offer
/// nothing — the shape a hierarchy shard routes (it zeroes every state it
/// does not own) and the case a lazily filled per-state cache must handle.
fn sparse_demand_weights() -> impl Strategy<Value = Vec<f64>> {
    let n = states().len();
    let weight = (0.0f64..1.0, 0.0f64..1.0).prop_map(|(u, w)| if u < 1.0 / 3.0 { 0.0 } else { w });
    prop::collection::vec(weight, n..n + 1)
}

/// One routing call of a long-lived policy: which pooled price row it
/// sees, its demand, and the configurations it is routed under in turn —
/// all on that same row, so a configuration change between calls that
/// share a price row is exercised every time more than one is drawn.
#[derive(Debug, Clone)]
struct Call {
    row: usize,
    weights: Vec<f64>,
    fill: f64,
    configs: Vec<PriceConsciousConfig>,
}

/// Distinct random price rows drawn per case; the pool adds one more.
const POOL_ROWS: usize = 3;

/// `POOL_ROWS` random price rows plus a copy of the first with one
/// cluster's price cut below every other, so a cache key that compares
/// anything less than the whole row would route that copy with stale
/// orders.
fn price_pool() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (prop::collection::vec(prices(), POOL_ROWS..POOL_ROWS + 1), 0..N_CLUSTERS, -60.0f64..-25.0)
        .prop_map(|(mut pool, cluster, cut)| {
            let mut variant = pool[0].clone();
            variant[cluster] = cut;
            pool.push(variant);
            pool
        })
}

fn call() -> impl Strategy<Value = Call> {
    let config = (
        prop::sample::select(vec![0.0, 800.0, 1500.0, 50_000.0]),
        prop::sample::select(vec![0.0, 5.0, 25.0]),
    )
        .prop_map(|(distance_threshold_km, price_threshold)| PriceConsciousConfig {
            distance_threshold_km,
            price_threshold,
        });
    (0..POOL_ROWS + 1, sparse_demand_weights(), 0.05f64..1.3, prop::collection::vec(config, 1..4))
        .prop_map(|(row, weights, fill, configs)| Call { row, weights, fill, configs })
}

/// Allocation entries as bit patterns, for bit-for-bit comparison.
fn bits(allocation: &Allocation) -> Vec<u64> {
    allocation.matrix().iter().flatten().map(|x| x.to_bits()).collect()
}

/// Scale raw weights so total demand is `fill` of the given total ceiling.
fn scale_demand(weights: &[f64], ceiling_total: f64, fill: f64) -> Vec<f64> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        return vec![0.0; weights.len()];
    }
    let scale = ceiling_total * fill / sum;
    weights.iter().map(|w| w * scale).collect()
}

/// Hubs a shared-hub deployment draws from: Newark sits within 50 km of
/// New York, so the nearest + 50 km fallback can pick up two hubs.
const HUB_POOL: [HubId; 6] = [
    HubId::BostonMa,
    HubId::NewYorkNy,
    HubId::NewarkNj,
    HubId::ChicagoIl,
    HubId::AustinTx,
    HubId::PaloAltoCa,
];

/// Most clusters a shared-hub deployment can hold (8 runs of up to 3).
const MAX_SHARED_CLUSTERS: usize = 24;

/// A deployment of 2–8 runs of 1–3 consecutive clusters at one pool hub.
/// Hubs repeat, both adjacently (merging into one longer run) and at
/// non-adjacent positions (distinct runs at exactly equal distance).
fn shared_hub_deployment() -> impl Strategy<Value = ClusterSet> {
    prop::collection::vec((0..HUB_POOL.len(), 1usize..4, 20u32..400), 2..9).prop_map(|runs| {
        let clusters = runs
            .iter()
            .flat_map(|&(hub, len, servers)| std::iter::repeat((HUB_POOL[hub], servers)).take(len))
            .enumerate()
            .map(|(i, (hub, servers))| Cluster {
                label: format!("S{i}"),
                hub,
                servers: servers + 7 * i as u32,
                hits_per_server_per_sec: 100.0,
                public: true,
            })
            .collect();
        ClusterSet::with_shared_hubs(clusters)
    })
}

/// One price row over a shared-hub deployment, as `(own, hub prices)`:
/// each cluster carries its hub's price (drawn from a small set, so
/// distinct hubs tie and differ by less than a price threshold) unless it
/// draws a price of its own, so clusters at one hub sometimes carry
/// different prices.
fn shared_hub_row() -> impl Strategy<Value = (Vec<Option<f64>>, Vec<f64>)> {
    let own = (0.0f64..1.0, -20.0f64..200.0).prop_map(|(u, price)| (u < 0.3).then_some(price));
    let hub_price = prop::sample::select(vec![20.0, 30.0, 33.0, 50.0, 80.0]);
    (
        prop::collection::vec(own, MAX_SHARED_CLUSTERS..MAX_SHARED_CLUSTERS + 1),
        prop::collection::vec(hub_price, HUB_POOL.len()..HUB_POOL.len() + 1),
    )
}

/// Resolve a drawn row against a deployment: a cluster without a price of
/// its own takes its hub's.
fn resolve_row(
    clusters: &ClusterSet,
    (own, hub_prices): &(Vec<Option<f64>>, Vec<f64>),
) -> Vec<f64> {
    clusters
        .clusters()
        .iter()
        .zip(own)
        .map(|(c, own)| {
            own.unwrap_or_else(|| {
                hub_prices[HUB_POOL.iter().position(|&h| h == c.hub).expect("pool hub")]
            })
        })
        .collect()
}

/// The price-conscious allocation as the per-site ranking computed it
/// before hub runs: every cluster ranked by its own distance, the
/// threshold split and the price ordering over single clusters. Kept
/// verbatim as the reference the run-ranked policy must reproduce.
fn per_site_reference(ctx: &RoutingContext<'_>, config: &PriceConsciousConfig) -> Allocation {
    let hub_refs: Vec<&wattroute_geo::Hub> =
        ctx.clusters.hub_ids().iter().map(|id| hubs::hub(*id)).collect();
    let prices = ctx.prices;
    assign_by_preference(ctx, |_, state| {
        let ranked = distance::hubs_within_threshold(state, &hub_refs, f64::INFINITY);
        let threshold_km = config.distance_threshold_km;
        let within: Vec<RankedHub> =
            ranked.iter().copied().filter(|(_, d)| *d <= threshold_km).collect();
        let candidates = if !within.is_empty() || ranked.is_empty() {
            within
        } else {
            let nearest = ranked[0].1;
            ranked.iter().copied().filter(|(_, d)| *d <= nearest + 50.0).collect()
        };
        let tail: Vec<usize> = ranked
            .iter()
            .filter(|(i, _)| !candidates.iter().any(|(c, _)| c == i))
            .map(|(i, _)| *i)
            .collect();
        let cheapest = candidates.iter().map(|(i, _)| prices[*i]).fold(f64::INFINITY, f64::min);
        let mut cheap = Vec::new();
        let mut rest = Vec::new();
        for &(i, d) in &candidates {
            if prices[i] <= cheapest + config.price_threshold {
                cheap.push((i, d));
            } else {
                rest.push((i, d));
            }
        }
        rest.sort_by(|(ia, da), (ib, db)| {
            prices[*ia]
                .partial_cmp(&prices[*ib])
                .expect("finite prices")
                .then(da.partial_cmp(db).expect("finite distances"))
        });
        let mut out: Vec<usize> = cheap.iter().chain(rest.iter()).map(|(i, _)| *i).collect();
        out.extend_from_slice(&tail);
        out
    })
}

proptest! {
    #[test]
    fn feasible_demand_is_fully_served_within_capacity(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
        fill in 0.05f64..0.95,
    ) {
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let total_cap: f64 =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).sum();
        let demand = scale_demand(&weights, total_cap, fill);

        let ctx = RoutingContext::new(&clusters, &states, &demand, &price_vec, SimHour(0));
        let mut policy = PriceConsciousPolicy::with_distance_threshold(threshold);
        let allocation = policy.allocate(&ctx);

        prop_assert!(
            allocation.serves_demand(&demand, 1e-6),
            "threshold {threshold}: allocation must serve all feasible demand"
        );
        let loads = allocation.cluster_loads();
        for (c, load) in loads.iter().enumerate() {
            let cap = clusters.get(c).unwrap().capacity_hits_per_sec();
            prop_assert!(
                *load <= cap * (1.0 + 1e-9) + 1e-6,
                "cluster {c} overloaded: {load} > {cap}"
            );
        }
    }

    #[test]
    fn feasible_demand_respects_bandwidth_caps(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
        cap_fracs in prop::collection::vec(0.3f64..1.2, N_CLUSTERS..N_CLUSTERS + 1),
        fill in 0.05f64..0.9,
    ) {
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let bw_caps: Vec<f64> = clusters
            .clusters()
            .iter()
            .zip(&cap_fracs)
            .map(|(c, frac)| c.capacity_hits_per_sec() * frac)
            .collect();
        // The effective ceiling per cluster is min(capacity, bandwidth cap).
        let effective: Vec<f64> = clusters
            .clusters()
            .iter()
            .zip(&bw_caps)
            .map(|(c, bw)| c.capacity_hits_per_sec().min(*bw))
            .collect();
        let demand = scale_demand(&weights, effective.iter().sum(), fill);

        let ctx = RoutingContext::new(&clusters, &states, &demand, &price_vec, SimHour(0))
            .with_bandwidth_caps(bw_caps);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(threshold);
        let allocation = policy.allocate(&ctx);

        prop_assert!(allocation.serves_demand(&demand, 1e-6));
        let loads = allocation.cluster_loads();
        for (c, load) in loads.iter().enumerate() {
            prop_assert!(
                *load <= effective[c] * (1.0 + 1e-9) + 1e-6,
                "cluster {c} exceeds its effective (capacity ∧ 95/5) ceiling: {load} > {}",
                effective[c]
            );
        }
    }

    #[test]
    fn any_derived_constraint_set_is_respected_by_every_policy(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
        ceiling_fracs in prop::collection::vec(0.5f64..1.5, N_CLUSTERS..N_CLUSTERS + 1),
        cap_fracs in prop::collection::vec(0.3f64..1.2, N_CLUSTERS..N_CLUSTERS + 1),
        overflow in prop::sample::select(
            vec![OverflowMode::BillAtCapacity, OverflowMode::Reject]
        ),
        fill in 0.05f64..0.9,
    ) {
        // A ConstraintSet of the general shape a calibration pass derives:
        // explicit capacity ceilings (possibly above nominal — routing
        // still clamps at nominal capacity), 95/5 bandwidth caps, and
        // either overflow mode. No feasible allocation may ever exceed any
        // cluster's effective (capacity ∧ ceiling ∧ bandwidth) cap, for
        // the baseline policies and the price-conscious optimizer alike.
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let nominal: Vec<f64> =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).collect();
        let ceilings: Vec<f64> =
            nominal.iter().zip(&ceiling_fracs).map(|(n, f)| n * f).collect();
        let bw_caps: Vec<f64> = nominal.iter().zip(&cap_fracs).map(|(n, f)| n * f).collect();
        let set = ConstraintSet::unconstrained()
            .with_capacity_ceilings(ceilings.clone())
            .with_bandwidth_caps(bw_caps.clone())
            .with_overflow(overflow);

        let effective: Vec<f64> = (0..N_CLUSTERS)
            .map(|c| set.effective_cap(c, nominal[c]))
            .collect();
        let demand = scale_demand(&weights, effective.iter().sum(), fill);
        let ctx = RoutingContext::new(&clusters, &states, &demand, &price_vec, SimHour(0))
            .with_constraints(&set);

        let mean_prices = price_vec.clone();
        let mut policies: Vec<Box<dyn RoutingPolicy>> = vec![
            Box::new(NearestClusterPolicy::new()),
            Box::new(StaticCheapestPolicy::new(mean_prices)),
            Box::new(PriceConsciousPolicy::with_distance_threshold(threshold)),
        ];
        for policy in &mut policies {
            let allocation = policy.allocate(&ctx);
            prop_assert!(
                allocation.serves_demand(&demand, 1e-6),
                "{}: feasible demand must be fully served",
                policy.name()
            );
            for (c, load) in allocation.cluster_loads().iter().enumerate() {
                prop_assert!(
                    *load <= effective[c] * (1.0 + 1e-9) + 1e-6,
                    "{}: cluster {c} exceeds its effective cap: {load} > {} (overflow {overflow:?})",
                    policy.name(),
                    effective[c]
                );
            }
        }
    }

    #[test]
    fn infeasible_demand_is_still_fully_served(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
        overfill in 1.1f64..5.0,
    ) {
        // The paper treats capacity as a soft planning constraint: requests
        // must land somewhere even when the deployment is over-subscribed
        // (the simulator's overflow accounting makes that visible).
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let total_cap: f64 =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).sum();
        let demand = scale_demand(&weights, total_cap, overfill);

        let ctx = RoutingContext::new(&clusters, &states, &demand, &price_vec, SimHour(0));
        let mut policy = PriceConsciousPolicy::with_distance_threshold(threshold);
        let allocation = policy.allocate(&ctx);
        prop_assert!(allocation.serves_demand(&demand, 1e-6));
    }

    #[test]
    fn repeat_allocations_with_compiled_candidates_are_deterministic(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
    ) {
        // The policy compiles per-(deployment, state list) candidate
        // structures on first use; a fresh policy must produce the same
        // allocation as a warmed one.
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let total_cap: f64 =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).sum();
        let demand = scale_demand(&weights, total_cap, 0.5);
        let ctx = RoutingContext::new(&clusters, &states, &demand, &price_vec, SimHour(0));

        let mut warmed = PriceConsciousPolicy::with_distance_threshold(threshold);
        let first = warmed.allocate(&ctx);
        let second = warmed.allocate(&ctx);
        let mut fresh = PriceConsciousPolicy::with_distance_threshold(threshold);
        let cold = fresh.allocate(&ctx);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }

    #[test]
    fn cached_rankings_match_a_fresh_policy_bit_for_bit(
        pool in price_pool(),
        calls in prop::collection::vec(call(), 1..16),
    ) {
        // One long-lived policy routes the whole sequence into one reused
        // allocation, as an engine drives it; every call must equal a
        // fresh policy's answer for that call alone.
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let total_cap: f64 =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).sum();
        let mut cached = PriceConsciousPolicy::default();
        let mut out = Allocation::default();
        for (i, call) in calls.iter().enumerate() {
            let demand = scale_demand(&call.weights, total_cap, call.fill);
            let ctx =
                RoutingContext::new(&clusters, &states, &demand, &pool[call.row], SimHour(0));
            for config in &call.configs {
                cached.config = *config;
                cached.allocate_into(&mut out, &ctx);
                let fresh = PriceConsciousPolicy::new(*config).allocate(&ctx);
                prop_assert_eq!(
                    bits(&out),
                    bits(&fresh),
                    "call {} on row {} under {:?}",
                    i,
                    call.row,
                    config
                );
            }
        }
    }

    #[test]
    fn run_ranking_matches_the_per_site_reference_bit_for_bit(
        clusters in shared_hub_deployment(),
        rows in prop::collection::vec(shared_hub_row(), 1..4),
        demand in (sparse_demand_weights(), 0.05f64..1.3),
        configs in prop::collection::vec(
            (
                prop::sample::select(vec![0.0, 1500.0, 50_000.0]),
                prop::sample::select(vec![0.0, 5.0, 25.0]),
            ),
            1..4,
        ),
    ) {
        // One long-lived policy routes every drawn row (and the first row
        // again, off its rank cache) under every drawn configuration into
        // one reused allocation; each answer must equal the per-site
        // reference for that call, bit for bit.
        let states = states();
        let total_cap: f64 =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).sum();
        let demand = scale_demand(&demand.0, total_cap, demand.1);
        let rows: Vec<Vec<f64>> = rows.iter().map(|row| resolve_row(&clusters, row)).collect();
        let mut policy = PriceConsciousPolicy::default();
        let mut out = Allocation::default();
        for (r, prices) in rows.iter().chain(rows.first()).enumerate() {
            let ctx = RoutingContext::new(&clusters, &states, &demand, prices, SimHour(0));
            for &(distance_threshold_km, price_threshold) in &configs {
                let config = PriceConsciousConfig { distance_threshold_km, price_threshold };
                policy.config = config;
                policy.allocate_into(&mut out, &ctx);
                let reference = per_site_reference(&ctx, &config);
                prop_assert_eq!(
                    bits(&out),
                    bits(&reference),
                    "row {} {:?} over hubs {:?}",
                    r,
                    config,
                    clusters.hub_ids()
                );
            }
        }
    }
}
