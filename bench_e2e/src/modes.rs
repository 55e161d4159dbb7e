//! The three ways a request runs through a net — dense, exact and
//! predictive — each with an optional probe that times every conv layer
//! through the `Graph::forward_with` hook.

use snapea::artifact::CompiledModel;
use snapea::exec::{execute_conv, LayerConfig};
use snapea::params::LayerParams;
use snapea_nn::graph::{Graph, NodeId};
use snapea_nn::loss::argmax_rows;
use snapea_nn::ops::Conv2d;
use snapea_obs::Stopwatch;
use snapea_tensor::Tensor4;
use std::collections::BTreeMap;

/// Execution mode of a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// `Graph::forward`: im2col + GEMM for every conv.
    Dense,
    /// Every ReLU-fed conv through the exact-mode executor (the Simulate
    /// path of `profile_network` with all-exact params).
    Exact,
    /// The compiled artifact: predictive layers through the executor,
    /// exact layers dense.
    Predictive,
}

impl Mode {
    /// All modes, in index order.
    pub const ALL: [Mode; 3] = [Mode::Dense, Mode::Exact, Mode::Predictive];

    /// Index into per-mode arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Host time and MACs of one conv layer, accumulated over calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerAcc {
    /// Nanoseconds inside the hook.
    pub ns: u64,
    /// Hook calls.
    pub calls: u64,
    /// MACs executed.
    pub executed: u64,
    /// MACs of the dense layer.
    pub full: u64,
    /// Whether the executor walked the layer (else it ran dense).
    pub walked: bool,
}

/// Per-layer timings gathered by probed forwards.
#[derive(Debug, Default)]
pub struct Probe {
    /// Per `(net, mode, conv node)`.
    pub layers: BTreeMap<(usize, Mode, NodeId), LayerAcc>,
    /// Whole-forward nanoseconds per mode.
    pub forward_ns: [u64; 3],
    /// Forwards per mode.
    pub forwards: [u64; 3],
    /// Nanoseconds in `install_plans` plus `configs`.
    pub setup_ns: u64,
    /// Calls of the pair.
    pub setups: u64,
}

/// A probe bound to the net it records for.
pub type Probed<'a> = Option<(&'a mut Probe, usize)>;

struct Hooked {
    out: Tensor4,
    executed: u64,
    full: u64,
    walked: bool,
}

fn dense_conv(conv: &Conv2d, x: &Tensor4) -> Hooked {
    let full = conv.full_macs(x.shape());
    Hooked {
        out: conv.forward(x),
        executed: full,
        full,
        walked: false,
    }
}

fn walk(conv: &Conv2d, x: &Tensor4, cfg: &LayerConfig) -> Hooked {
    let r = execute_conv(conv, x, cfg);
    Hooked {
        executed: r.profile.total_ops(),
        full: r.profile.full_macs(),
        out: r.output,
        walked: true,
    }
}

/// Runs `net` with `conv` deciding each conv node, timing it when probed.
fn hooked_forward(
    net: &Graph,
    x: &Tensor4,
    mode: Mode,
    probe: &mut Probed<'_>,
    conv: &mut dyn FnMut(NodeId, &Conv2d, &Tensor4) -> Hooked,
) -> (Vec<Tensor4>, u64, u64) {
    let (mut executed, mut full) = (0u64, 0u64);
    let t = Stopwatch::start();
    let acts = net.forward_with(x, &mut |id, c, input| {
        let t = probe.as_ref().map(|_| Stopwatch::start());
        let h = conv(id, c, input);
        if let (Some(t), Some((p, net_ix))) = (t, probe.as_mut()) {
            let acc = p.layers.entry((*net_ix, mode, id)).or_default();
            acc.ns += t.elapsed_ns();
            acc.calls += 1;
            acc.executed += h.executed;
            acc.full += h.full;
            acc.walked = h.walked;
        }
        executed += h.executed;
        full += h.full;
        Some(h.out)
    });
    if let Some((p, _)) = probe.as_mut() {
        p.forward_ns[mode.index()] += t.elapsed_ns();
        p.forwards[mode.index()] += 1;
    }
    (acts, executed, full)
}

/// Dense forward: `Graph::forward`, or its hook reconstruction when probed.
pub fn dense(net: &Graph, x: &Tensor4, mut probe: Probed<'_>) -> Vec<Tensor4> {
    if probe.is_none() {
        return net.forward(x);
    }
    hooked_forward(net, x, Mode::Dense, &mut probe, &mut |_, c, i| {
        dense_conv(c, i)
    })
    .0
}

/// Outcome of an exact-mode forward.
pub struct ExactRun {
    /// Every node's activation.
    pub acts: Vec<Tensor4>,
    /// Conv MACs executed.
    pub executed: u64,
    /// Conv MACs of the dense net.
    pub full: u64,
}

/// Exact-mode forward: the per-layer calls of `profile_network` with
/// all-exact params, keeping the activations for the top-1 check.
pub fn exact(net: &Graph, x: &Tensor4, mut probe: Probed<'_>) -> ExactRun {
    let (acts, executed, full) =
        hooked_forward(net, x, Mode::Exact, &mut probe, &mut |id, c, i| {
            if net.feeds_only_relu(id) {
                walk(c, i, &LayerConfig::from_params(c, &LayerParams::Exact))
            } else {
                dense_conv(c, i)
            }
        });
    ExactRun {
        acts,
        executed,
        full,
    }
}

/// Predictive forward: `CompiledModel::forward`, or, when probed, its
/// reconstruction from `install_plans`, `configs` and the conv hook.
pub fn predictive(model: &CompiledModel, x: &Tensor4, mut probe: Probed<'_>) -> Vec<Tensor4> {
    if probe.is_none() {
        return model.forward(x);
    }
    let t = Stopwatch::start();
    model.install_plans();
    let configs = model.configs();
    if let Some((p, _)) = probe.as_mut() {
        p.setup_ns += t.elapsed_ns();
        p.setups += 1;
    }
    let net = model.graph();
    hooked_forward(
        net,
        x,
        Mode::Predictive,
        &mut probe,
        &mut |id, c, i| match configs.get(&id) {
            Some(cfg) => walk(c, i, cfg),
            None => dense_conv(c, i),
        },
    )
    .0
}

/// Top-1 class of every image from a forward's activations.
pub fn top1(acts: &[Tensor4]) -> Vec<usize> {
    acts.last()
        .map(|logits| argmax_rows(&logits.to_matrix()))
        .unwrap_or_default()
}

/// Bit pattern of a forward's final output.
pub fn output_bits(acts: &[Tensor4]) -> Vec<u32> {
    acts.last()
        .map(|t| t.iter().map(|v| v.to_bits()).collect())
        .unwrap_or_default()
}

/// Whether two forwards agree bit for bit on every activation.
pub fn identical(a: &[Tensor4], b: &[Tensor4]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.iter()
                    .zip(y.iter())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}
