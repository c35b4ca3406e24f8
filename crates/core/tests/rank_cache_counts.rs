//! Exact-count test for the price-conscious policy's rank cache.
//!
//! This file intentionally holds a single `#[test]` so it runs as the only
//! code in its process: it flips the process-global telemetry flag and
//! reads process-global registry counters, so any concurrently running
//! test that routes would make exact assertions racy. Keep it that way —
//! add further rank-cache scenarios inside this one test, not as siblings.

use wattroute::prelude::*;
use wattroute::run::RunOptions;
use wattroute_obs::{counter, Telemetry};

/// One day of the §6.2 scenario at the default one-step reallocation: 288
/// policy calls over 24 hours. Each call counts exactly one rank-cache hit
/// or miss, a miss exactly when the delayed price row (or the
/// configuration) differs from the previous call's. Under the default
/// one-hour reaction delay the window's first two hours both see its first
/// price row (the delay clamps to the series start), so the day sees 23
/// distinct rows: 23 misses, and the other 265 calls reuse their rankings.
/// With telemetry off the counters stay put.
#[test]
fn one_day_replay_misses_once_per_price_row() {
    let start = HourRange::akamai_24_days().start;
    let scenario = Scenario::custom_window(7, HourRange::new(start, start.plus_hours(24)));
    assert_eq!(scenario.config.reallocate_every_steps, 1);
    let hits = || counter!("routing.rank_cache.hits").get();
    let misses = || counter!("routing.rank_cache.misses").get();
    let replay = || {
        let mut policy = PriceConsciousPolicy::default();
        scenario.execute(&mut policy, RunOptions::new())
    };

    let (hits_before, misses_before) = (hits(), misses());
    let off = replay();
    assert_eq!((hits(), misses()), (hits_before, misses_before), "counters are gated on telemetry");

    Telemetry::enable();
    let engine_misses_before = counter!("engine.alloc_cache.misses").get();
    let on = replay();
    let engine_calls = counter!("engine.alloc_cache.misses").get() - engine_misses_before;
    Telemetry::disable();

    assert_eq!(on, off, "the counters must not change the replay");
    let (day_hits, day_misses) = (hits() - hits_before, misses() - misses_before);
    assert_eq!(engine_calls, 288, "one policy call per 5-minute step");
    assert_eq!(day_hits + day_misses, engine_calls, "one hit or miss per policy call");
    assert_eq!(scenario.config.reaction_delay_hours, 1);
    assert_eq!(day_misses, 23, "one miss per distinct delayed price row");
    assert_eq!(day_hits, 265);
}
