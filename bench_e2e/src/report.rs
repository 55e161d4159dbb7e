//! Turns a [`Recorder`] into the named metrics and the per-conv-layer
//! ledger.

use crate::modes::{LayerAcc, Mode, Probe};
use crate::run::Recorder;
use crate::stages::termination_rate;
use crate::stats::{median, quantile};
use snapea::exec::PredictionStats;
use snapea_accel::AccelConfig;
use snapea_obs::json::Json;

/// One named metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(r: &Recorder) -> Vec<Metric> {
    // Images over the fastest nominal milliseconds each one took.
    let rate = |mode: Mode| {
        let f = &r.mode_ms_per_image[mode.index()];
        ratio(f.len() as f64 * 1e3, f.sum())
    };
    let latency = r.latencies_ms(false);
    let executed: u64 = r.nets.iter().map(|n| n.sim.profile.total_ops()).sum();
    let full: u64 = r.nets.iter().map(|n| n.sim.profile.full_macs()).sum();
    let agree: usize = r.nets.iter().map(|n| n.quality.agree).sum();
    let scored: usize = r.nets.iter().map(|n| n.quality.images).sum();
    let cycles = |f: fn(&crate::run::NetOutcome) -> u64| r.nets.iter().map(f).sum::<u64>() as f64;
    let energy = |f: fn(&crate::run::NetOutcome) -> f64| r.nets.iter().map(f).sum::<f64>();
    vec![
        m("setup_s", median(&r.setup_s), "s"),
        m("latency_ms_p50", quantile(&latency, 0.5), "ms"),
        m("latency_ms_p90", quantile(&latency, 0.9), "ms"),
        m("images_per_s", rate(Mode::Predictive), "1/s"),
        m("dense_images_per_s", rate(Mode::Dense), "1/s"),
        m("exact_images_per_s", rate(Mode::Exact), "1/s"),
        m("optimize_s", r.optimize_s.sum(), "s"),
        m("cold_start_ms", r.cold_start_ms.sum(), "ms"),
        m("simulate_ms", r.simulate_ms.sum(), "ms"),
        m(
            "macs_eliminated_frac",
            1.0 - ratio(executed as f64, full as f64),
            "frac",
        ),
        m(
            "top1_agreement_pct",
            100.0 * ratio(agree as f64, scored as f64),
            "%",
        ),
        m(
            "sim_speedup_x",
            ratio(
                cycles(|n| n.sim.eyeriss.cycles),
                cycles(|n| n.sim.snapea.cycles),
            ),
            "x",
        ),
        m(
            "sim_energy_reduction_x",
            ratio(
                energy(|n| n.sim.eyeriss.total_pj()),
                energy(|n| n.sim.snapea.total_pj()),
            ),
            "x",
        ),
    ]
}

/// Sums the probe's layer accumulators matching `keep`.
fn layer_sum(p: &Probe, keep: impl Fn(Mode, &LayerAcc) -> bool) -> LayerAcc {
    let mut sum = LayerAcc::default();
    for (&(_, mode, _), acc) in &p.layers {
        if keep(mode, acc) {
            sum.ns += acc.ns;
            sum.calls += acc.calls;
            sum.executed += acc.executed;
            sum.full += acc.full;
        }
    }
    sum
}

/// Mean whole-forward milliseconds of `mode`.
fn forward_ms(p: &Probe, mode: Mode) -> f64 {
    ratio(
        p.forward_ns[mode.index()] as f64 * 1e-6,
        p.forwards[mode.index()] as f64,
    )
}

/// The per-layer metrics of a traced run.
pub fn per_layer(r: &Recorder) -> Vec<Metric> {
    let p = &r.probe;
    let per_forward =
        |mode: Mode, ns: u64| ratio(ns as f64 * 1e-6, p.forwards[mode.index()] as f64);
    let dense_convs = layer_sum(p, |mode, _| mode == Mode::Dense);
    let walked = |m: Mode| layer_sum(p, move |mode, a| mode == m && a.walked);
    let (walk_exact, walk_pred) = (walked(Mode::Exact), walked(Mode::Predictive));
    let d = &r.deltas;
    let traced_ops = r.traced_ops as f64;
    let lanes = d.get("exec/lane_windows") as f64;
    let scalars = d.get("exec/scalar_windows") as f64;
    let hits = d.get("exec/gather_cache_hits") as f64;
    let misses = d.get("exec/gather_cache_misses") as f64;
    // Algorithm 1 runs in traced set-ups (inference) or traced pipelines.
    let runs = r.traced_optimizer_runs as f64;
    let optimizer = |name: &str| ratio((d.get(name) + r.setup_deltas.get(name)) as f64, runs);
    let span_s = |name: &str| ratio(r.sink.span_ms(name) * 1e-3, runs);
    let probes = optimizer("optimizer/probes");
    let search_ms = (span_s("optimizer/local") + span_s("optimizer/global")) * 1e3;

    let layers = r.nets.iter().flat_map(|n| &n.layers);
    let (mut full, mut exact_ops, mut pred_ops) = (0u64, 0u64, 0u64);
    let (mut windows, mut early) = (0f64, 0f64);
    let mut stats = PredictionStats::default();
    for l in layers {
        full += l.profile.full_macs();
        pred_ops += l.profile.total_ops();
        exact_ops += l.exact.total_ops();
        let w = l.exact.ops_slice().len() as f64;
        windows += w;
        early += termination_rate(&l.exact) * w;
        stats.merge(&l.stats);
    }
    let q = r
        .nets
        .iter()
        .fold(crate::stages::Quality::default(), |mut q, n| {
            q.merge(n.quality);
            q
        });
    let sims = || r.nets.iter().map(|n| &n.sim);
    let snapea_cycles: u64 = sims().map(|s| s.snapea.cycles).sum();
    let snapea_macs: u64 = sims().map(|s| s.snapea.events.macs).sum();
    let untraced = median(&r.latencies_ms(false));

    vec![
        m(
            "tensor.dense_conv_ms",
            per_forward(Mode::Dense, dense_convs.ns),
            "ms",
        ),
        m(
            "tensor.dense_gmacs_per_s",
            ratio(dense_convs.full as f64, dense_convs.ns as f64),
            "GMAC/s",
        ),
        m(
            "tensor.par_tasks_per_op",
            ratio(d.get("par/tasks") as f64, traced_ops),
            "count",
        ),
        m(
            "tensor.par_invocations_per_op",
            ratio(d.get("par/invocations") as f64, traced_ops),
            "count",
        ),
        m(
            "nn.other_ops_ms",
            per_forward(
                Mode::Dense,
                p.forward_ns[Mode::Dense.index()].saturating_sub(dense_convs.ns),
            ),
            "ms",
        ),
        m("nn.train_epoch_s", median(&r.epoch_s), "s"),
        m(
            "exec.walk_ms.exact",
            per_forward(Mode::Exact, walk_exact.ns),
            "ms",
        ),
        m(
            "exec.walk_ms.predictive",
            per_forward(Mode::Predictive, walk_pred.ns),
            "ms",
        ),
        m(
            "exec.ns_per_executed_mac.exact",
            ratio(walk_exact.ns as f64, walk_exact.executed as f64),
            "ns",
        ),
        m(
            "exec.ns_per_executed_mac.predictive",
            ratio(walk_pred.ns as f64, walk_pred.executed as f64),
            "ns",
        ),
        m(
            "exec.executed_mac_frac.exact",
            ratio(exact_ops as f64, full as f64),
            "frac",
        ),
        m(
            "exec.executed_mac_frac.predictive",
            ratio(pred_ops as f64, full as f64),
            "frac",
        ),
        m("exec.sign_termination_rate", ratio(early, windows), "frac"),
        m("exec.tn_rate", stats.true_negative_rate(), "frac"),
        m("exec.fn_rate", stats.false_negative_rate(), "frac"),
        m(
            "exec.squashed_mass_frac",
            stats.squashed_mass_fraction(),
            "frac",
        ),
        m(
            "exec.lane_window_frac",
            ratio(lanes, lanes + scalars),
            "frac",
        ),
        m(
            "exec.plan_cache_hit_rate",
            ratio(hits, hits + misses),
            "frac",
        ),
        m(
            "exec.exact_vs_dense_x",
            ratio(forward_ms(p, Mode::Exact), forward_ms(p, Mode::Dense)),
            "x",
        ),
        m(
            "exec.predictive_vs_dense_x",
            ratio(forward_ms(p, Mode::Predictive), forward_ms(p, Mode::Dense)),
            "x",
        ),
        m(
            "exec.accuracy_loss_pp",
            100.0
                * ratio(
                    q.dense_correct as f64 - q.predictive_correct as f64,
                    q.images as f64,
                ),
            "pp",
        ),
        m(
            "artifact.per_call_setup_ms",
            ratio(p.setup_ns as f64 * 1e-6, p.setups as f64),
            "ms",
        ),
        m("artifact.compile_ms", median(&r.artifact_ms[0]), "ms"),
        m("artifact.to_bytes_ms", median(&r.artifact_ms[1]), "ms"),
        m("artifact.from_bytes_ms", median(&r.artifact_ms[2]), "ms"),
        m("artifact.first_forward_ms", median(&r.artifact_ms[3]), "ms"),
        m(
            "artifact.bytes",
            r.nets.iter().map(|n| n.bytes).sum::<usize>() as f64,
            "B",
        ),
        m("optimizer.profile_s", span_s("optimizer/profile"), "s"),
        m("optimizer.local_s", span_s("optimizer/local"), "s"),
        m("optimizer.global_s", span_s("optimizer/global"), "s"),
        m("optimizer.probes", probes, "count"),
        m("optimizer.ms_per_probe", ratio(search_ms, probes), "ms"),
        m(
            "optimizer.kernels_profiled",
            optimizer("optimizer/kernels_profiled"),
            "count",
        ),
        m(
            "optimizer.global_iterations",
            r.nets.iter().map(|n| n.global_iterations).sum::<usize>() as f64,
            "count",
        ),
        m(
            "optimizer.predictive_layer_frac",
            ratio(
                r.nets.iter().map(|n| n.predictive_layer_frac).sum(),
                r.nets.len() as f64,
            ),
            "frac",
        ),
        m("accel.workload_build_ms", median(&r.workload_ms), "ms"),
        m("accel.simulate_ms", median(&r.sim_only_ms), "ms"),
        m("accel.snapea_cycles", snapea_cycles as f64, "cycles"),
        m(
            "accel.eyeriss_cycles",
            sims().map(|s| s.eyeriss.cycles).sum::<u64>() as f64,
            "cycles",
        ),
        m(
            "accel.utilization",
            ratio(
                snapea_macs as f64,
                snapea_cycles as f64 * AccelConfig::snapea().total_macs() as f64,
            ),
            "frac",
        ),
        m(
            "accel.idle_lane_cycles",
            sims()
                .flat_map(|s| &s.snapea.per_layer)
                .map(|l| l.idle_lane_cycles)
                .sum::<u64>() as f64,
            "cycles",
        ),
        m(
            "accel.dram_words",
            sims().map(|s| s.snapea.events.dram_words).sum::<u64>() as f64,
            "words",
        ),
        m(
            "accel.index_accesses",
            sims().map(|s| s.snapea.events.index_accesses).sum::<u64>() as f64,
            "count",
        ),
        m(
            "obs.trace_overhead_pct",
            100.0 * ratio(median(&r.latencies_ms(true)) - untraced, untraced),
            "%",
        ),
    ]
}

/// The per-conv-layer ledger: one row per conv layer of every net, with
/// host ms per call in each mode, executed and dense MACs and termination
/// rates on the simulation batch, and simulated cycles.
pub fn ledger(workload: &str, seed: u64, r: &Recorder) -> Json {
    let mut rows = Vec::new();
    for (net_ix, n) in r.nets.iter().enumerate() {
        for (i, l) in n.layers.iter().enumerate() {
            let host_ms = |mode: Mode| {
                r.probe
                    .layers
                    .get(&(net_ix, mode, l.id))
                    .map_or(0.0, |a| ratio(a.ns as f64 * 1e-6, a.calls as f64))
            };
            let sim_cycles = |rep: &snapea_accel::SimReport| {
                rep.per_layer
                    .get(i)
                    .filter(|lr| lr.name == l.name)
                    .map_or(0, |lr| lr.cycles)
            };
            rows.push(Json::obj(vec![
                ("net", Json::from(n.workload.name())),
                ("layer", Json::from(l.name.as_str())),
                ("predictive", Json::from(l.predictive)),
                ("dense_ms", Json::from(host_ms(Mode::Dense))),
                ("exact_ms", Json::from(host_ms(Mode::Exact))),
                ("predictive_ms", Json::from(host_ms(Mode::Predictive))),
                ("dense_macs", Json::from(l.profile.full_macs())),
                ("executed_macs", Json::from(l.profile.total_ops())),
                ("exact_macs", Json::from(l.exact.total_ops())),
                ("termination_rate", Json::from(termination_rate(&l.profile))),
                (
                    "exact_termination_rate",
                    Json::from(termination_rate(&l.exact)),
                ),
                ("tn_rate", Json::from(l.stats.true_negative_rate())),
                ("fn_rate", Json::from(l.stats.false_negative_rate())),
                ("snapea_cycles", Json::from(sim_cycles(&n.sim.snapea))),
                ("eyeriss_cycles", Json::from(sim_cycles(&n.sim.eyeriss))),
            ]));
        }
    }
    Json::obj(vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("rows", Json::Arr(rows)),
    ])
}
