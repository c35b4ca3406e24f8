//! The traced run's window into the `routing` layer: a forwarding
//! [`RoutingPolicy`] that times every allocation call.
//!
//! Every runner takes its policies through a public hook (a `&mut dyn
//! RoutingPolicy` or a factory of boxed policies), so wrapping the policy
//! is the one way to time `allocate_into` from outside the program. The
//! wrapper forwards all four trait methods unchanged; the identity test in
//! `tests/wrapper_identity.rs` pins that wrapped output is byte-identical.

use crate::trace::Tracer;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wattroute_routing::allocation::Allocation;
use wattroute_routing::policy::{RoutingContext, RoutingPolicy};
use wattroute_routing::price_conscious::CompiledPreferences;

/// Allocation calls seen by one or more [`TimedPolicy`] instances.
#[derive(Debug, Clone, Default)]
pub struct RoutingStats {
    /// Calls to `allocate` or `allocate_into`.
    pub calls: u64,
    /// Calls whose price row equals the previous call's on the same
    /// policy instance: the share a price-keyed re-rank cache could skip.
    pub same_price: u64,
    /// Per-call wall time, nanoseconds.
    pub durations_ns: Vec<u32>,
}

impl RoutingStats {
    fn merge(&mut self, other: RoutingStats) {
        self.calls += other.calls;
        self.same_price += other.same_price;
        self.durations_ns.extend(other.durations_ns);
    }

    /// Total time spent inside the policy, seconds.
    pub fn busy_s(&self) -> f64 {
        self.durations_ns.iter().map(|&d| d as f64).sum::<f64>() / 1e9
    }

    /// Share of calls that saw the previous call's price row again.
    pub fn same_price_ratio(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.same_price as f64 / self.calls as f64
        }
    }
}

/// Where wrapped policies deposit their statistics when dropped. Policies
/// are built per worker thread by the runners, so each instance keeps its
/// own statistics and merges them once, on drop.
#[derive(Debug, Clone, Default)]
pub struct RoutingSink(Arc<Mutex<RoutingStats>>);

impl RoutingSink {
    /// Take everything deposited so far, leaving the sink empty.
    pub fn take(&self) -> RoutingStats {
        std::mem::take(&mut *self.0.lock().expect("routing sink poisoned"))
    }
}

/// A forwarding policy that times each allocation. With a tracer attached,
/// calls made while the calling thread has an open span are also recorded
/// as `routing.allocate` child spans.
pub struct TimedPolicy {
    inner: Box<dyn RoutingPolicy>,
    sink: RoutingSink,
    tracer: Option<Arc<Tracer>>,
    local: RoutingStats,
    last_prices: Vec<f64>,
}

impl TimedPolicy {
    /// Wrap `inner`, depositing statistics into `sink` on drop.
    pub fn new(inner: Box<dyn RoutingPolicy>, sink: &RoutingSink) -> Self {
        Self {
            inner,
            sink: sink.clone(),
            tracer: None,
            local: RoutingStats::default(),
            last_prices: Vec::new(),
        }
    }

    /// Also record each call as a span under the thread's open span.
    pub fn with_tracer(mut self, tracer: &Arc<Tracer>) -> Self {
        self.tracer = Some(Arc::clone(tracer));
        self
    }

    fn timed<R>(
        &mut self,
        ctx: &RoutingContext<'_>,
        call: impl FnOnce(&mut dyn RoutingPolicy) -> R,
    ) -> R {
        if self.last_prices.as_slice() == ctx.prices {
            self.local.same_price += 1;
        } else {
            self.last_prices.clear();
            self.last_prices.extend_from_slice(ctx.prices);
        }
        let start = Instant::now();
        let result = call(self.inner.as_mut());
        let end = Instant::now();
        self.local.calls += 1;
        let ns = end.duration_since(start).as_nanos();
        self.local.durations_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        if let Some(tracer) = &self.tracer {
            tracer.child_of_current("routing.allocate", start, end);
        }
        result
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        if let Ok(mut stats) = self.sink.0.lock() {
            stats.merge(std::mem::take(&mut self.local));
        }
    }
}

impl RoutingPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate(&mut self, ctx: &RoutingContext<'_>) -> Allocation {
        self.timed(ctx, |p| p.allocate(ctx))
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        self.timed(ctx, |p| p.allocate_into(out, ctx))
    }

    fn attach_preferences(&mut self, prefs: &Arc<CompiledPreferences>) {
        self.inner.attach_preferences(prefs);
    }
}
