//! Untimed-by-the-loop stages shared by the workloads: the accelerator
//! simulation, the held-out quality pass and the per-layer statistics pass.

use crate::fixture::batch;
use crate::host::{Reference, Timed};
use crate::modes::top1;
use snapea::artifact::CompiledModel;
use snapea::exec::{execute_conv, execute_conv_stats, LayerConfig, LayerProfile, PredictionStats};
use snapea::params::{LayerParams, NetworkParams};
use snapea::spec_net::{profile_network, NetworkProfile};
use snapea_accel::workload::network_workload;
use snapea_accel::{simulate, AccelConfig, EnergyModel, SimReport};
use snapea_nn::data::LabeledImage;
use snapea_nn::graph::{Graph, NodeId};
use snapea_tensor::Tensor4;

/// One pass from speculation params to both simulated reports.
pub struct SimRun {
    /// Whole stage, milliseconds.
    pub wall_ms: f64,
    /// Whole stage at the nominal host speed, milliseconds (the
    /// `simulate_ms` sample): each of its three steps timed against the
    /// reference.
    pub nominal_ms: f64,
    /// `network_workload`, milliseconds.
    pub workload_ms: f64,
    /// The two `simulate` calls, milliseconds.
    pub simulate_ms: f64,
    /// The executor's op counts on the simulation batch.
    pub profile: NetworkProfile,
    /// SnaPEA's report.
    pub snapea: SimReport,
    /// The Eyeriss baseline's report.
    pub eyeriss: SimReport,
}

impl SimRun {
    /// Whether the simulator executed exactly the executor's MACs.
    pub fn macs_agree(&self) -> bool {
        self.snapea.events.macs == self.profile.total_ops()
    }
}

/// Profiles `net` under `params` on `sim_batch` and simulates the
/// profile on SnaPEA and on the dense Eyeriss baseline.
pub fn simulate_net(
    host: &mut Reference,
    name: &str,
    net: &Graph,
    params: &NetworkParams,
    sim_batch: &Tensor4,
) -> SimRun {
    let (profile, profiled) = host.time(None, || profile_network(net, params, sim_batch, false));
    let (wl, built) = host.time(Some(profiled.after_ms), || {
        network_workload(name, net, sim_batch, &profile)
    });
    let ((snapea, eyeriss), simulated) = host.time(Some(built.after_ms), || {
        let energy = EnergyModel::default();
        let snapea = simulate(&AccelConfig::snapea(), &energy, &wl);
        let eyeriss = simulate(&AccelConfig::eyeriss(), &energy, &wl.to_dense());
        (snapea, eyeriss)
    });
    let steps = [profiled, built, simulated];
    SimRun {
        wall_ms: steps.iter().map(|t| t.ms).sum(),
        nominal_ms: steps.iter().map(Timed::nominal_ms).sum(),
        workload_ms: built.ms,
        simulate_ms: simulated.ms,
        profile,
        snapea,
        eyeriss,
    }
}

/// Top-1 agreement of the predictive artifact with dense on held-out
/// images.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Images scored.
    pub images: usize,
    /// Images where predictive and dense top-1 agree.
    pub agree: usize,
    /// Images dense classifies correctly.
    pub dense_correct: usize,
    /// Images the artifact classifies correctly.
    pub predictive_correct: usize,
}

impl Quality {
    /// Accumulates another net's counts.
    pub fn merge(&mut self, o: Quality) {
        self.images += o.images;
        self.agree += o.agree;
        self.dense_correct += o.dense_correct;
        self.predictive_correct += o.predictive_correct;
    }
}

/// Scores `model` against dense `net` on `images`.
pub fn quality(net: &Graph, model: &CompiledModel, images: &[LabeledImage]) -> Quality {
    let b = batch(images);
    let dense = top1(&net.forward(&b));
    let predictive = top1(&model.forward(&b));
    let count = |f: &dyn Fn(usize) -> bool| (0..images.len()).filter(|&i| f(i)).count();
    Quality {
        images: images.len(),
        agree: count(&|i| dense[i] == predictive[i]),
        dense_correct: count(&|i| dense[i] == images[i].label),
        predictive_correct: count(&|i| predictive[i] == images[i].label),
    }
}

/// Op counts and prediction quality of one conv layer.
pub struct LayerStat {
    /// Conv node.
    pub id: NodeId,
    /// Layer name.
    pub name: String,
    /// Op counts under the layer's configured mode.
    pub profile: LayerProfile,
    /// Op counts of the all-exact net on the same batch.
    pub exact: LayerProfile,
    /// Prediction quality (zero unless the layer speculates).
    pub stats: PredictionStats,
    /// Whether the layer speculates.
    pub predictive: bool,
}

/// Fraction of a profile's windows that terminated before their last MAC.
pub fn termination_rate(p: &LayerProfile) -> f64 {
    let ops = p.ops_slice();
    if ops.is_empty() {
        return 0.0;
    }
    let early = ops
        .iter()
        .filter(|&&o| (o as usize) < p.window_len())
        .count();
    early as f64 / ops.len() as f64
}

/// Per-layer statistics pass: the per-layer calls of `profile_network`
/// with prediction accounting (`execute_conv_stats` completes every
/// window's dot product, so this pass is never timed), paired with the
/// all-exact net's profile of the same batch. Errs if its op counts disagree
/// with `profile_network`'s.
pub fn layer_stats(
    net: &Graph,
    params: &NetworkParams,
    sim_batch: &Tensor4,
) -> Result<Vec<LayerStat>, String> {
    let mut rows = Vec::new();
    net.forward_with(sim_batch, &mut |id, conv, x| {
        let out = conv.out_shape(x.shape());
        let dense = || LayerProfile::dense(out.n, conv.c_out(), out.plane_len(), conv.window_len());
        let walks = net.feeds_only_relu(id);
        let p = params.get(id).unwrap_or(&LayerParams::Exact);
        let cfg = LayerConfig::from_params(conv, p);
        let (output, profile, stats) = if !walks {
            (conv.forward(x), dense(), PredictionStats::default())
        } else if cfg.is_predictive() {
            let r = execute_conv_stats(conv, x, &cfg);
            (r.output, r.profile, r.stats)
        } else {
            let r = execute_conv(conv, x, &cfg);
            (r.output, r.profile, r.stats)
        };
        rows.push(LayerStat {
            id,
            name: net.node(id).name.clone(),
            exact: profile.clone(),
            profile,
            stats,
            predictive: walks && cfg.is_predictive(),
        });
        Some(output)
    });
    let exact = profile_network(net, &NetworkParams::new(), sim_batch, false);
    for row in &mut rows {
        if let Some(p) = exact.layer(row.id) {
            row.exact = p.clone();
        }
    }
    let ops: u64 = rows.iter().map(|r| r.profile.total_ops()).sum();
    let reference = profile_network(net, params, sim_batch, false).total_ops();
    if ops != reference {
        return Err(format!(
            "statistics pass executed {ops} MACs, profile_network {reference}"
        ));
    }
    Ok(rows)
}
