//! The multi-variable constrained optimizer of the paper's Algorithm 1.
//!
//! Finds per-kernel speculation parameters `(Th, N)` minimising total MAC
//! operations subject to `Accuracy_CNN − Accuracy_SnaPEA ≤ ε` (Eq. 2), in
//! three passes:
//!
//! 1. **Kernel Profiling** ([`profiling::profile_layer_kernels`]) — per
//!    kernel in isolation, grid over `(Th, N)`, keep acceptable candidates
//!    sorted by op count.
//! 2. **Local Optimization** — per layer in isolation, form `T`
//!    configurations (the `t`-th uses every kernel's `t`-th cheapest
//!    candidate), measure real network accuracy with only that layer
//!    speculating, keep configurations within `ε`.
//! 3. **Global Optimization** — start every layer at its cheapest acceptable
//!    configuration; while the combined accuracy loss exceeds `ε`, move the
//!    layer/configuration with the best merit `−Δerr/Δop` one step more
//!    conservative (the paper's `ADJUSTPARAM`), re-simulating after each
//!    adjustment.
//!
//! Every accuracy probe of the Local and Global passes re-evaluates only the
//! nodes its parameter change can reach ([`Graph::forward_from`]) and runs
//! each speculating layer with a [`LayerConfig`] built once, when its
//! configuration is first probed (DESIGN.md §4, "Algorithm 1 probe engine").
//!
//! The optimizer runs **offline** — exactly as in the paper, it adds no
//! runtime cost to inference.

pub mod profiling;

use crate::exec::{execute_conv, LayerConfig};
use crate::params::{KernelMode, LayerParams, NetworkParams};
use crate::spec_net::profile_network;
use profiling::{profile_layer_kernels, KernelTable};
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_nn::graph::{Graph, NodeId, Op};
use snapea_nn::loss::argmax_rows;
use snapea_nn::ops::Conv2d;
use snapea_tensor::Tensor4;
use std::collections::BTreeMap;

/// Hyper-parameters of the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Acceptable absolute accuracy loss ε (the paper's headline setting is
    /// 0.03).
    pub epsilon: f64,
    /// Grid of group counts `N` profiled per kernel.
    pub group_candidates: Vec<usize>,
    /// Quantiles of the negative-window speculative partial-sum distribution
    /// used as threshold candidates.
    pub threshold_quantiles: Vec<f64>,
    /// Number of per-layer configurations `T` evaluated by the Local
    /// Optimization pass.
    pub local_configs: usize,
    /// Scale applied to ε to form the Kernel Profiling surrogate budget.
    pub surrogate_scale: f64,
    /// Safety cap on Global Optimization iterations.
    pub max_global_iters: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.03,
            group_candidates: vec![1, 2, 4, 8],
            threshold_quantiles: vec![0.5, 0.75, 0.9, 0.97, 1.0],
            local_configs: 5,
            surrogate_scale: 8.0,
            max_global_iters: 512,
        }
    }
}

impl OptimizerConfig {
    /// Config with a different ε, other settings default.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }
}

/// One acceptable configuration of a layer (an entry of the paper's
/// `ParamL[l]`).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerOption {
    /// The per-kernel modes.
    pub params: LayerParams,
    /// Profiled op count of the layer under this configuration.
    pub ops: u64,
    /// Measured accuracy loss with only this layer speculating.
    pub err: f64,
    /// The executor configuration built from `params` when it was probed,
    /// reused by every Global-pass probe; `None` for the exact
    /// configuration, which runs dense.
    pub(crate) config: Option<LayerConfig>,
}

/// Work done by one pass's accuracy probes.
#[derive(Debug, Default, Clone, Copy)]
struct ProbeTally {
    /// Accuracy probes run.
    probes: u64,
    /// Graph nodes re-evaluated, summed over the probes.
    recomputed_nodes: u64,
}

/// What the three passes chose, before the final reporting profiles.
#[derive(Debug)]
struct Search {
    /// Acceptable configurations per eligible layer, cheapest first.
    options: BTreeMap<NodeId, Vec<LayerOption>>,
    /// Chosen option index per eligible layer.
    current: BTreeMap<NodeId, usize>,
    /// Global-pass iterations used.
    global_iterations: usize,
    /// Accuracy under the chosen options.
    final_accuracy: f64,
    /// Probes of the Local pass.
    local: ProbeTally,
    /// Probes of the Global pass.
    global: ProbeTally,
}

impl ProbeTally {
    fn record(&mut self, recomputed_nodes: usize) {
        self.probes += 1;
        self.recomputed_nodes += recomputed_nodes as u64;
        snapea_obs::counter("optimizer/probes").inc();
        snapea_obs::counter("optimizer/recomputed_nodes").add(recomputed_nodes as u64);
    }
}

/// Final decision for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDecision {
    /// Conv node id.
    pub layer: NodeId,
    /// Layer name.
    pub name: String,
    /// Whether the layer ended up speculating.
    pub predictive: bool,
    /// Ops under the final configuration (profiled on the optimization set).
    pub ops: u64,
    /// Ops under pure exact mode (same set).
    pub exact_ops: u64,
    /// Full dense MACs (same set).
    pub full_macs: u64,
}

/// Result of the optimization.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The chosen speculation parameters.
    pub params: NetworkParams,
    /// Accuracy of the unaltered network on the optimization set.
    pub baseline_accuracy: f64,
    /// Accuracy of the speculating network on the optimization set.
    pub final_accuracy: f64,
    /// Total conv MACs in pure exact mode.
    pub exact_ops: u64,
    /// Total conv MACs under the final parameters.
    pub final_ops: u64,
    /// Total conv MACs of the unaltered network.
    pub full_macs: u64,
    /// Per-layer breakdown.
    pub per_layer: Vec<LayerDecision>,
    /// Global-pass iterations used.
    pub global_iterations: usize,
}

impl OptimizeOutcome {
    /// Accuracy loss `baseline − final` (clamped at 0 from below for
    /// reporting).
    pub fn accuracy_loss(&self) -> f64 {
        self.baseline_accuracy - self.final_accuracy
    }

    /// Fraction of conv layers operating in predictive mode (paper
    /// Table IV's first column).
    pub fn predictive_layer_fraction(&self) -> f64 {
        if self.per_layer.is_empty() {
            return 0.0;
        }
        self.per_layer.iter().filter(|d| d.predictive).count() as f64 / self.per_layer.len() as f64
    }
}

/// The Algorithm-1 optimizer bound to a network and an optimization dataset.
#[derive(Debug)]
pub struct Optimizer<'a> {
    net: &'a Graph,
    data: &'a [LabeledImage],
    cfg: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    /// Binds the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn new(net: &'a Graph, data: &'a [LabeledImage], cfg: OptimizerConfig) -> Self {
        assert!(!data.is_empty(), "optimization dataset must be non-empty");
        Self { net, data, cfg }
    }

    fn accuracy_from_acts(&self, acts: &[Tensor4]) -> f64 {
        // lint:allow(P1) forward returns one activation per node and the graph is non-empty by construction
        let logits = acts.last().expect("non-empty graph").to_matrix();
        let preds = argmax_rows(&logits);
        preds
            .iter()
            .zip(self.data)
            .filter(|(p, d)| **p == d.label)
            .count() as f64
            / self.data.len() as f64
    }

    /// Runs all three passes and returns the outcome.
    pub fn run(&self) -> OptimizeOutcome {
        let _run_span = snapea_obs::span!("optimizer/run");
        let refs: Vec<&LabeledImage> = self.data.iter().collect();
        let batch = SynthShapes::batch_refs(&refs);
        let cached = self.net.forward(&batch);
        let baseline_accuracy = self.accuracy_from_acts(&cached);

        let Search {
            options,
            current,
            global_iterations,
            final_accuracy,
            local: local_tally,
            global: global_tally,
        } = self.search(&batch, &cached, baseline_accuracy);

        // Assemble final parameters.
        let mut params = NetworkParams::new();
        for (&l, opts) in &options {
            params.set(l, opts[current[&l]].params.clone());
        }

        // Final reporting profiles.
        let final_profile = profile_network(self.net, &params, &batch, false);
        let exact_profile = profile_network(self.net, &NetworkParams::new(), &batch, false);

        let per_layer = final_profile
            .layers
            .iter()
            .map(|(id, name, p)| {
                let exact_ops = exact_profile.layer(*id).map(|e| e.total_ops()).unwrap_or(0);
                LayerDecision {
                    layer: *id,
                    name: name.clone(),
                    predictive: params
                        .get(*id)
                        .map(|lp| lp.is_predictive())
                        .unwrap_or(false),
                    ops: p.total_ops(),
                    exact_ops,
                    full_macs: p.full_macs(),
                }
            })
            .collect();

        let outcome = OptimizeOutcome {
            params,
            baseline_accuracy,
            final_accuracy,
            exact_ops: exact_profile.total_ops(),
            final_ops: final_profile.total_ops(),
            full_macs: final_profile.full_macs(),
            per_layer,
            global_iterations,
        };
        if snapea_obs::enabled() {
            for d in &outcome.per_layer {
                snapea_obs::event!(
                    "optimizer/decision",
                    layer = d.name.clone(),
                    predictive = d.predictive,
                    ops = d.ops,
                    exact_ops = d.exact_ops,
                    full_macs = d.full_macs,
                );
            }
            snapea_obs::event!(
                "optimizer/global",
                iterations = outcome.global_iterations as u64,
                probes = global_tally.probes,
                recomputed_nodes = global_tally.recomputed_nodes,
                local_probes = local_tally.probes,
                local_recomputed_nodes = local_tally.recomputed_nodes,
                baseline_accuracy = outcome.baseline_accuracy,
                final_accuracy = outcome.final_accuracy,
                exact_ops = outcome.exact_ops,
                final_ops = outcome.final_ops,
                full_macs = outcome.full_macs,
            );
        }
        outcome
    }

    /// Algorithm 1's three passes over the unspeculated activations
    /// `cached` of `batch`, whose accuracy is `baseline`.
    fn search(&self, batch: &Tensor4, cached: &[Tensor4], baseline: f64) -> Search {
        // Eligible layers: conv nodes whose output feeds only ReLU.
        let eligible: Vec<(NodeId, &Conv2d)> = self
            .net
            .nodes()
            .iter()
            .enumerate()
            .filter_map(|(id, node)| match &node.op {
                Op::Conv(conv) if self.net.feeds_only_relu(id) => Some((id, conv)),
                _ => None,
            })
            .collect();

        // Pass 1: kernel profiling.
        let budget = self.cfg.epsilon * self.cfg.surrogate_scale;
        let mut tables: BTreeMap<NodeId, Vec<KernelTable>> = BTreeMap::new();
        {
            let _span = snapea_obs::span!("optimizer/profile");
            for &(l, conv) in &eligible {
                let input = &cached[self.net.node(l).inputs[0]];
                let layer_tables = profile_layer_kernels(
                    conv,
                    input,
                    &self.cfg.group_candidates,
                    &self.cfg.threshold_quantiles,
                    budget,
                );
                snapea_obs::counter("optimizer/kernels_profiled").add(layer_tables.len() as u64);
                if snapea_obs::enabled() {
                    let candidates: u64 = layer_tables.iter().map(|t| t.len() as u64).sum();
                    snapea_obs::event!(
                        "optimizer/profile",
                        layer = self.net.node(l).name.clone(),
                        kernels = layer_tables.len() as u64,
                        candidates = candidates,
                    );
                }
                tables.insert(l, layer_tables);
            }
        }

        // Pass 2: local optimization, on one scratch copy of the
        // unspeculated activations.
        let mut options: BTreeMap<NodeId, Vec<LayerOption>> = BTreeMap::new();
        let mut local = ProbeTally::default();
        {
            let _span = snapea_obs::span!("optimizer/local");
            let mut scratch = cached.to_vec();
            for &(l, conv) in &eligible {
                let before = local;
                let opts = self.local_options(
                    (l, conv),
                    &tables[&l],
                    batch,
                    (cached, &mut scratch),
                    baseline,
                    &mut local,
                );
                if snapea_obs::enabled() {
                    snapea_obs::event!(
                        "optimizer/local",
                        layer = self.net.node(l).name.clone(),
                        options = opts.len() as u64,
                        probes = local.probes - before.probes,
                        recomputed_nodes = local.recomputed_nodes - before.recomputed_nodes,
                    );
                }
                options.insert(l, opts);
            }
        }

        // Pass 3: global optimization.
        let mut global = ProbeTally::default();
        let (current, global_iterations, final_accuracy) = {
            let _span = snapea_obs::span!("optimizer/global");
            self.global_pass(&options, batch, baseline, &mut global)
        };
        Search {
            options,
            current,
            global_iterations,
            final_accuracy,
            local,
            global,
        }
    }

    /// The paper's `LOCALOPTIMIZATIONPASS` for one layer.
    ///
    /// Each probe recomputes `scratch` in place from `layer` on; `scratch`
    /// starts equal to `cached` (the unspeculated activations) and is
    /// restored to it before returning.
    fn local_options(
        &self,
        (layer, conv): (NodeId, &Conv2d),
        tables: &[KernelTable],
        batch: &Tensor4,
        (cached, scratch): (&[Tensor4], &mut [Tensor4]),
        baseline: f64,
        tally: &mut ProbeTally,
    ) -> Vec<LayerOption> {
        let mut opts: Vec<LayerOption> = Vec::new();
        let max_t = tables.iter().map(KernelTable::len).max().unwrap_or(1);
        let mut seen: Vec<LayerParams> = Vec::new();
        let mut probed = false;
        for t in 0..self.cfg.local_configs.min(max_t) {
            let modes: Vec<KernelMode> = tables.iter().map(|tab| tab.get_clamped(t).mode).collect();
            let ops: u64 = tables.iter().map(|tab| tab.get_clamped(t).ops).sum();
            let params = if modes.iter().any(KernelMode::is_speculative) {
                LayerParams::Predictive(modes)
            } else {
                LayerParams::Exact
            };
            if seen.contains(&params) {
                continue;
            }
            seen.push(params.clone());
            let (err, config) = if params.is_predictive() {
                let cfg = LayerConfig::from_params(conv, &params);
                let recomputed = self
                    .net
                    .forward_from(batch, scratch, layer, &mut |id, c, x| {
                        (id == layer).then(|| execute_conv(c, x, &cfg).output)
                    });
                tally.record(recomputed);
                probed = true;
                (baseline - self.accuracy_from_acts(scratch), Some(cfg))
            } else {
                (0.0, None)
            };
            if err <= self.cfg.epsilon {
                opts.push(LayerOption {
                    params,
                    ops,
                    err,
                    config,
                });
            }
        }
        if probed {
            for id in self.net.downstream(layer) {
                scratch[id] = cached[id].clone();
            }
        }
        // The exact configuration is always an acceptable fallback.
        if !opts.iter().any(|o| !o.params.is_predictive()) {
            let exact_ops: u64 = tables
                .iter()
                .map(|tab| {
                    tab.candidates()
                        .iter()
                        .find(|c| matches!(c.mode, KernelMode::Exact))
                        .map(|c| c.ops)
                        .unwrap_or(0)
                })
                .sum();
            opts.push(LayerOption {
                params: LayerParams::Exact,
                ops: exact_ops,
                err: 0.0,
                config: None,
            });
        }
        opts.sort_by_key(|o| o.ops);
        opts
    }

    /// The paper's `GLOBALOPTIMIZATIONPASS` + `ADJUSTPARAM`. Returns the
    /// chosen option per layer, the iterations used and the accuracy under
    /// the chosen options.
    ///
    /// One running activation vector follows `current`: after a move of
    /// layer `l` only the nodes reachable from `l` are recomputed, which is
    /// exact because no other layer's configuration changed.
    fn global_pass(
        &self,
        options: &BTreeMap<NodeId, Vec<LayerOption>>,
        batch: &Tensor4,
        baseline: f64,
        tally: &mut ProbeTally,
    ) -> (BTreeMap<NodeId, usize>, usize, f64) {
        let mut current: BTreeMap<NodeId, usize> = options.keys().map(|&l| (l, 0usize)).collect();
        let mut acts = self
            .net
            .forward_with(batch, &mut option_hook(options, &current));
        tally.record(acts.len());
        let mut err = baseline - self.accuracy_from_acts(&acts);
        let mut iters = 0usize;
        while err > self.cfg.epsilon && iters < self.cfg.max_global_iters {
            // ADJUSTPARAM: best merit −Δerr/Δop over every possible move.
            let mut best: Option<(NodeId, usize, f64)> = None;
            for (&l, opts) in options {
                let cur_t = current[&l];
                let cur_opt = &opts[cur_t];
                for (t, opt) in opts.iter().enumerate().skip(cur_t + 1) {
                    let d_err = opt.err - cur_opt.err;
                    let d_ops = (opt.ops.saturating_sub(cur_opt.ops)).max(1) as f64;
                    let merit = -d_err / d_ops;
                    if best.map(|(_, _, m)| merit > m).unwrap_or(true) {
                        best = Some((l, t, merit));
                    }
                }
            }
            let Some((l, t, _)) = best else {
                // Nothing left to adjust: fall back to all-exact.
                for (&l, opts) in options {
                    let exact_idx = opts
                        .iter()
                        .position(|o| !o.params.is_predictive())
                        .unwrap_or(opts.len() - 1);
                    current.insert(l, exact_idx);
                }
                acts = self
                    .net
                    .forward_with(batch, &mut option_hook(options, &current));
                iters += 1;
                break;
            };
            current.insert(l, t);
            let recomputed =
                self.net
                    .forward_from(batch, &mut acts, l, &mut option_hook(options, &current));
            tally.record(recomputed);
            err = baseline - self.accuracy_from_acts(&acts);
            iters += 1;
        }
        let accuracy = self.accuracy_from_acts(&acts);
        (current, iters, accuracy)
    }
}

/// Conv hook running every layer with the prebuilt configuration of its
/// current option; layers without one (exact or not eligible) run dense.
fn option_hook<'o>(
    options: &'o BTreeMap<NodeId, Vec<LayerOption>>,
    current: &'o BTreeMap<NodeId, usize>,
) -> impl FnMut(NodeId, &Conv2d, &Tensor4) -> Option<Tensor4> + 'o {
    move |id, conv, x| {
        let cfg = options.get(&id)?.get(*current.get(&id)?)?.config.as_ref()?;
        Some(execute_conv(conv, x, cfg).output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_nn::zoo;

    fn small_setup() -> (Graph, Vec<LabeledImage>) {
        let net = zoo::mini_alexnet(4);
        let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(16, 77);
        (net, data)
    }

    #[test]
    fn optimizer_respects_epsilon() {
        let (net, data) = small_setup();
        let cfg = OptimizerConfig {
            group_candidates: vec![1, 4],
            threshold_quantiles: vec![0.5],
            local_configs: 3,
            ..OptimizerConfig::with_epsilon(0.10)
        };
        let out = Optimizer::new(&net, &data, cfg).run();
        assert!(
            out.accuracy_loss() <= 0.10 + 1e-9,
            "loss {} exceeds epsilon",
            out.accuracy_loss()
        );
        assert!(
            out.final_ops <= out.exact_ops,
            "optimizer made things worse"
        );
        assert!(out.exact_ops < out.full_macs);
        assert_eq!(out.per_layer.len(), net.conv_ids().len());
    }

    #[test]
    fn zero_epsilon_keeps_exact_accuracy() {
        let (net, data) = small_setup();
        let cfg = OptimizerConfig {
            group_candidates: vec![2],
            threshold_quantiles: vec![0.5],
            local_configs: 2,
            ..OptimizerConfig::with_epsilon(0.0)
        };
        let out = Optimizer::new(&net, &data, cfg).run();
        assert!(out.accuracy_loss() <= 1e-9, "loss {}", out.accuracy_loss());
    }

    #[test]
    fn looser_epsilon_never_costs_more_ops() {
        let (net, data) = small_setup();
        let mk = |eps: f64| {
            let cfg = OptimizerConfig {
                group_candidates: vec![1, 4],
                threshold_quantiles: vec![0.5, 0.9],
                local_configs: 3,
                ..OptimizerConfig::with_epsilon(eps)
            };
            Optimizer::new(&net, &data, cfg).run()
        };
        let tight = mk(0.0);
        let loose = mk(0.25);
        assert!(
            loose.final_ops <= tight.final_ops,
            "loose {} > tight {}",
            loose.final_ops,
            tight.final_ops
        );
    }

    /// Every accuracy Algorithm 1 took from an incremental probe equals a
    /// from-scratch `SpecNet::forward` under the same parameters, bit for
    /// bit, and the search makes the same moves as one that re-simulates the
    /// whole network per probe.
    #[test]
    fn search_is_pinned_against_from_scratch_resimulation() {
        use crate::spec_net::SpecNet;
        let net = zoo::mini_googlenet(4);
        // Labels are the dense network's own predictions, so every flipped
        // prediction costs accuracy and the global pass has work to do.
        let mut data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(8, 5);
        let preds = argmax_rows(&net.logits(&SynthShapes::batch(&data)));
        for (d, p) in data.iter_mut().zip(preds) {
            d.label = p;
        }
        let cfg = OptimizerConfig {
            group_candidates: vec![1, 4],
            threshold_quantiles: vec![0.5, 0.9],
            local_configs: 3,
            ..OptimizerConfig::with_epsilon(0.2)
        };
        let opt = Optimizer::new(&net, &data, cfg);
        let batch = SynthShapes::batch(&data);
        let cached = net.forward(&batch);
        let baseline = opt.accuracy_from_acts(&cached);
        let search = opt.search(&batch, &cached, baseline);

        let resimulate = |params: &NetworkParams| {
            opt.accuracy_from_acts(&SpecNet::new(&net, params).forward(&batch))
        };
        for (&l, opts) in &search.options {
            let Op::Conv(conv) = &net.node(l).op else {
                panic!("option for non-conv node {l}");
            };
            for o in opts {
                let want = o
                    .params
                    .is_predictive()
                    .then(|| LayerConfig::from_params(conv, &o.params));
                assert_eq!(o.config, want, "layer {l}: stored config");
                let mut np = NetworkParams::new();
                np.set(l, o.params.clone());
                let err = baseline - resimulate(&np);
                assert_eq!(o.err.to_bits(), err.to_bits(), "layer {l}: option err");
            }
        }
        let mut params = NetworkParams::new();
        for (&l, opts) in &search.options {
            params.set(l, opts[search.current[&l]].params.clone());
        }
        let final_accuracy = resimulate(&params);
        assert_eq!(search.final_accuracy.to_bits(), final_accuracy.to_bits());
        assert!(baseline - final_accuracy <= 0.2);

        // The counts and outcome of the full-re-simulation search on this
        // setup.
        let out = opt.run();
        assert_eq!(out.final_ops, 11_442_332);
        assert_eq!(out.final_accuracy.to_bits(), final_accuracy.to_bits());
        assert_eq!(out.global_iterations, 17);
        assert_eq!(search.global_iterations, 17);
        assert_eq!(search.local.probes, 170);
        assert_eq!(search.global.probes, 18);
        // Incremental probes re-evaluate a fraction of the graph.
        let full = (net.len() as u64) * (search.local.probes + search.global.probes);
        assert!(search.local.recomputed_nodes + search.global.recomputed_nodes < full);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_dataset() {
        let net = zoo::mini_alexnet(4);
        let data: Vec<LabeledImage> = Vec::new();
        let _ = Optimizer::new(&net, &data, OptimizerConfig::default());
    }
}
