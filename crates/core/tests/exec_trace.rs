//! The executor's trace wiring: every layer call opens an `exec/layer`
//! span and emits an `exec/layer` event (with its wall time and plan-cache
//! outcome), the `exec/layer_ms` latency histogram accumulates, and — only
//! under the `SNAPEA_TRACE_DETAIL` opt-in — each kernel walk over an image
//! group additionally records an `exec/kernel` span.
//!
//! This is one test function (not several) because the obs sink is a
//! process-wide global and the crate's other integration suites run in
//! their own binaries; a single test serialises sink installation without
//! needing a cross-crate lock.

use snapea::exec::{execute_conv, LayerConfig};
use snapea_nn::ops::Conv2d;
use snapea_obs::Json;
use snapea_tensor::{im2col::ConvGeom, init, Shape4};

#[test]
fn executor_emits_layer_spans_events_and_kernel_detail() {
    let mut rng = init::rng(9);
    let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
    let input = init::uniform4(Shape4::new(2, 3, 7, 7), 1.0, &mut rng).map(f32::abs);
    let cfg = LayerConfig::exact(&conv);

    let mem = snapea_obs::MemorySink::new();
    snapea_obs::sink::install(Box::new(mem.clone()));
    snapea_obs::set_detail_enabled(false);
    let baseline = execute_conv(&conv, &input, &cfg);
    snapea_obs::set_detail_enabled(true);
    let detailed = execute_conv(&conv, &input, &cfg);
    snapea_obs::set_detail_enabled(false);
    snapea_obs::sink::clear();

    // Tracing must never perturb results.
    assert_eq!(
        baseline.output.as_slice(),
        detailed.output.as_slice(),
        "detail tracing changed the layer output"
    );

    let events = mem.events();
    let spans_named = |name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("kind").and_then(Json::as_str) == Some("span")
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
            .count()
    };
    assert_eq!(spans_named("exec/layer"), 2, "one span per layer call");
    // Detail spans only for the opted-in call. The two 7×7 images (49
    // windows each) fit one 128-window tile, so they form one image group
    // walked once per kernel: 1 group × 4 kernels.
    assert_eq!(
        spans_named("exec/kernel"),
        4,
        "one span per (image group, kernel)"
    );

    let layer_events: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some("exec/layer"))
        .collect();
    assert_eq!(layer_events.len(), 2, "one exec/layer event per call");
    for e in &layer_events {
        let ms = e
            .get("elapsed_ms")
            .and_then(Json::as_f64)
            .expect("exec/layer carries its wall time");
        assert!(ms >= 0.0 && ms.is_finite());
        assert!(
            e.get("gather_cache_hit").is_some(),
            "plan-cache outcome is part of the event"
        );
    }

    // The latency histogram saw both calls (≥, not ==: other layer calls in
    // this process would also be charged — there are none today, but the
    // histogram is a process-global).
    let snap = snapea_obs::log_histogram("exec/layer_ms").snapshot();
    assert!(snap.count() >= 2, "exec/layer_ms recorded both calls");
}
