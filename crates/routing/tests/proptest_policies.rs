//! Property-based tests for the price-conscious optimizer's allocation
//! invariants: for arbitrary prices, demands, thresholds, and bandwidth
//! regimes, a feasible step (total demand within the deployment's effective
//! ceilings) is always served in full without overrunning any ceiling.

use proptest::prelude::*;
use wattroute_geo::UsState;
use wattroute_market::time::SimHour;
use wattroute_routing::allocation::Allocation;
use wattroute_routing::baseline::{NearestClusterPolicy, StaticCheapestPolicy};
use wattroute_routing::constraints::{ConstraintSet, OverflowMode};
use wattroute_routing::policy::{RoutingContext, RoutingPolicy};
use wattroute_routing::price_conscious::{PriceConsciousConfig, PriceConsciousPolicy};
use wattroute_workload::ClusterSet;

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
}
