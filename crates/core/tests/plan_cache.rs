//! The memoised plan cache at its cap. This suite runs in its own test
//! binary, so no other test shares the process-global cache while it is
//! filled.

use snapea::exec::{install_plan, plan_cache_len, WindowPlan, PLAN_CACHE_CAP};
use snapea_tensor::{im2col::ConvGeom, Shape4};
use std::sync::Arc;

/// Installs the plan of a 1×1 single-channel layer over an `h × w` input.
fn install(h: usize, w: usize) {
    let geom = ConvGeom::square(1, 1, 0);
    let plan = WindowPlan::build(Shape4::new(1, 1, h, w), geom, 1);
    install_plan(h, w, 1, geom, Arc::new(plan));
}

#[test]
fn reinstalling_a_cached_plan_at_the_cap_keeps_the_cache() {
    let keys: Vec<(usize, usize)> = (1..)
        .flat_map(|h| (1..=16).map(move |w| (h, w)))
        .take(PLAN_CACHE_CAP)
        .collect();
    for &(h, w) in &keys {
        install(h, w);
    }
    assert_eq!(plan_cache_len(), PLAN_CACHE_CAP, "cache filled to its cap");
    // A hit (what every CompiledModel::forward does) must not wipe it.
    install(keys[0].0, keys[0].1);
    assert_eq!(
        plan_cache_len(),
        PLAN_CACHE_CAP,
        "a hit left the cache intact"
    );
    // A new key at the cap still triggers the wholesale wipe.
    install(100, 100);
    assert_eq!(plan_cache_len(), 1, "a miss at the cap wipes, then inserts");
}
