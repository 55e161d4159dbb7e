//! The workloads: closed-loop inference against dense, and the repeated
//! calibration pipeline.

use crate::fixture::{
    batch, calibrate, cold_start, quality_set, requests, setup, sim_batch, Calibrated, Datasets,
    Prepared, EPSILON,
};
use crate::host::{Reference, Timed};
use crate::modes::{self, identical, output_bits, top1, Mode, Probe};
use crate::stages::{layer_stats, quality, simulate_net, LayerStat, Quality, SimRun};
use crate::stats::{Fastest, Mean};
use crate::trace::{Deltas, Snapshot, SpanSink};
use snapea::artifact::CompiledModel;
use snapea_nn::data::LabeledImage;
use snapea_nn::graph::Graph;
use snapea_nn::zoo::Workload;
use snapea_obs::Stopwatch;
use snapea_tensor::Tensor4;

/// Pool threads (`SNAPEA_THREADS`), capped by the machine's cores.
pub const THREADS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Cold starts per net per pipeline.
const COLD_STARTS: usize = 9;
/// Simulation samples per net per pipeline.
const SIM_SAMPLES: usize = 3;
/// Cold-start and simulation samples an inference workload takes, spread
/// evenly over its loop between requests, so that one slow stretch of the
/// host does not hold them all. Their time does not count towards the
/// loop's `--seconds`.
const STAGE_SAMPLES: usize = 15;
/// Untraced pipelines a `calibrate` run completes at the least, so that
/// every stage has repeats to take the fastest of.
const MIN_PIPELINES: u64 = 3;

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Zoo nets it runs.
    pub nets: &'static [Workload],
    /// Images per request.
    pub batch: usize,
    /// Held-out images the requests cycle over (validation images of the
    /// calibration pipeline).
    pub images: usize,
    /// Whether the operation is the calibration pipeline (else one
    /// inference request).
    pub pipeline: bool,
    /// Requests per exact-mode run (the exact executor costs several dense
    /// forwards, so sampling it leaves more predictive samples).
    pub exact_every: u64,
    /// Threads the host-speed reference samples on: the cores the
    /// workload's calls keep busy.
    pub reference_threads: usize,
}

/// The benchmark's workloads.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "infer-n1",
        nets: &[Workload::AlexNet],
        batch: 1,
        images: 128,
        pipeline: false,
        exact_every: 4,
        reference_threads: 1,
    },
    Spec {
        name: "infer-n8",
        nets: &[Workload::VggNet],
        batch: 8,
        images: 64,
        pipeline: false,
        exact_every: 2,
        reference_threads: THREADS,
    },
    Spec {
        name: "calibrate",
        nets: &[Workload::SqueezeNet, Workload::GoogLeNet],
        batch: 1,
        images: 48,
        pipeline: true,
        exact_every: 1,
        reference_threads: THREADS,
    },
];

/// Run options from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Measured loop length, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Corrupt the output of every fourth operation, the first included,
    /// before its check.
    pub plant_fault: bool,
}

/// Deterministic outcome of one net's artifact, recorded once per run.
pub struct NetOutcome {
    /// Which zoo net.
    pub workload: Workload,
    /// Algorithm 1's global-pass iterations.
    pub global_iterations: usize,
    /// Fraction of conv layers Algorithm 1 made predictive.
    pub predictive_layer_frac: f64,
    /// Held-out top-1 agreement with dense.
    pub quality: Quality,
    /// The simulation of the artifact's params on the simulation batch.
    pub sim: SimRun,
    /// Per-layer statistics (traced runs).
    pub layers: Vec<LayerStat>,
    /// Artifact size, bytes.
    pub bytes: usize,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Recorder {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Failed checks outside the operations (set-up, cold start, passes).
    pub broken: Vec<String>,
    /// The host-speed reference every short timed call runs between.
    pub host: Reference,
    /// Set-up wall times, seconds.
    pub setup_s: Vec<f64>,
    /// Fastest nominal latency of untraced requests, milliseconds, by
    /// request input.
    pub latency_ms: Fastest<usize>,
    /// Fastest nominal latency of traced requests, milliseconds.
    pub traced_latency_ms: Fastest<usize>,
    /// Mean nominal calibration pipeline per net, milliseconds, untraced
    /// and traced.
    pub pipeline_ms: [Mean<usize>; 2],
    /// Fastest nominal milliseconds per image of each mode over untraced
    /// forwards, by (net, request input).
    pub mode_ms_per_image: [Fastest<(usize, usize)>; 3],
    /// Nominal Algorithm 1 time per net, seconds: the fastest over
    /// set-ups (inference workloads), or the mean over pipelines
    /// (`calibrate`).
    pub optimize_s: Fastest<usize>,
    /// Fastest nominal cold start per net, milliseconds.
    pub cold_start_ms: Fastest<usize>,
    /// Fastest nominal simulation stage per net, milliseconds.
    pub simulate_ms: Fastest<usize>,
    /// Per-net deterministic outcomes.
    pub nets: Vec<NetOutcome>,
    /// Training epochs, seconds.
    pub epoch_s: Vec<f64>,
    /// Traced forwards' per-layer timings.
    pub probe: Probe,
    /// Program counter increments over traced operations.
    pub deltas: Deltas,
    /// Program counter increments over traced set-ups.
    pub setup_deltas: Deltas,
    /// The program's events and spans over traced sections.
    pub sink: SpanSink,
    /// Traced operations.
    pub traced_ops: u64,
    /// Algorithm 1 runs under the sink.
    pub traced_optimizer_runs: u64,
    /// Artifact stage samples, milliseconds: compile, to_bytes, from_bytes,
    /// first forward.
    pub artifact_ms: [Vec<f64>; 4],
    /// `network_workload` samples, milliseconds.
    pub workload_ms: Vec<f64>,
    /// Two-`simulate` samples, milliseconds.
    pub sim_only_ms: Vec<f64>,
}

impl Recorder {
    /// Counts one operation and whether its checks passed.
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Nominal headline latencies of traced or of untraced operations,
    /// milliseconds: each request input's fastest, or the calibration
    /// pipeline's (each net's mean pipeline, summed over nets).
    pub fn latencies_ms(&self, traced: bool) -> Vec<f64> {
        let pipeline = &self.pipeline_ms[usize::from(traced)];
        if !pipeline.is_empty() {
            return vec![pipeline.sum()];
        }
        if traced {
            self.traced_latency_ms.values()
        } else {
            self.latency_ms.values()
        }
    }

    /// The headline latencies of traced or of untraced requests.
    fn latency(&mut self, traced: bool) -> &mut Fastest<usize> {
        if traced {
            &mut self.traced_latency_ms
        } else {
            &mut self.latency_ms
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    /// Starts a traced section: attaches the sink, returns the counters.
    fn begin(&mut self, traced: bool) -> Option<Snapshot> {
        traced.then(|| {
            self.sink.attach();
            Snapshot::take()
        })
    }

    /// Ends a traced operation section started by [`Self::begin`].
    fn end(&mut self, section: Option<Snapshot>) {
        if let Some(before) = section {
            SpanSink::detach();
            self.deltas.add_since(before);
        }
    }

    /// Records the deterministic outcome of `p`'s artifact, with the
    /// per-layer statistics pass when `trace` is set.
    fn net_outcome(
        &mut self,
        p: &Prepared,
        cal: &Calibrated,
        model: &CompiledModel,
        sim: SimRun,
        inputs: &Inputs,
        trace: bool,
    ) {
        let outcome = &cal.outcome;
        let layers = if trace {
            layer_stats(&p.net, &outcome.params, &inputs.sim_batch).unwrap_or_else(|e| {
                self.broken.push(e);
                Vec::new()
            })
        } else {
            Vec::new()
        };
        let q = quality(&p.net, model, &inputs.quality);
        self.nets.push(NetOutcome {
            workload: p.workload,
            global_iterations: outcome.global_iterations,
            predictive_layer_frac: outcome.predictive_layer_fraction(),
            quality: q,
            sim,
            layers,
            bytes: cal.bytes.len(),
        });
    }
}

/// The workload's generated inputs.
struct Inputs {
    /// Request inputs from the workload seed (the pipeline's validation
    /// requests).
    requests: Vec<Tensor4>,
    /// The simulation batch.
    sim_batch: Tensor4,
    /// Held-out images of the quality pass.
    quality: Vec<LabeledImage>,
}

impl Inputs {
    fn generate(spec: &Spec, seed: u64) -> Self {
        Self {
            requests: requests(seed, spec.images)
                .chunks(spec.batch)
                .map(batch)
                .collect(),
            sim_batch: sim_batch(),
            quality: quality_set(),
        }
    }
}

/// Runs one workload.
pub fn run(spec: &Spec, cfg: &Config) -> Result<Recorder, String> {
    snapea_tensor::par::set_threads(THREADS);
    let inputs = Inputs::generate(spec, cfg.seed);
    let first = inputs.requests.first().ok_or("workload has no requests")?;
    let mut rec = Recorder {
        host: Reference::new(spec.reference_threads),
        ..Recorder::default()
    };
    let mut prepared = None;
    for _ in 0..if cfg.trace { 1 } else { SETUP_REPS } {
        let section = rec.begin(cfg.trace);
        let (data, nets, times) = setup(spec.nets, !spec.pipeline, first, &mut rec.host)?;
        if let Some(before) = section {
            SpanSink::detach();
            rec.setup_deltas.add_since(before);
        }
        rec.setup_s.push(times.total_s);
        rec.epoch_s.extend(&times.epoch_s);
        if !spec.pipeline {
            rec.traced_optimizer_runs += u64::from(cfg.trace);
            rec.optimize_s.add(0, times.optimize_nominal_s);
            rec.artifact_ms[0].push(times.pipeline.compile_ms);
            rec.artifact_ms[1].push(times.pipeline.to_bytes_ms);
        }
        prepared = Some((data, nets));
    }
    let (data, nets) = prepared.ok_or("no set-up ran")?;
    if spec.pipeline {
        pipelines(cfg, &mut rec, &data, &nets, &inputs)?;
    } else {
        serve(spec, cfg, &mut rec, &nets, &inputs)?;
    }
    Ok(rec)
}

/// One request's outcome.
struct Served {
    predictive: Timed,
    ok: bool,
    outputs: Vec<Tensor4>,
}

/// One request: an input for a net and its artifact.
struct Request<'a> {
    net_ix: usize,
    /// Index of the input in the request stream.
    key: usize,
    net: &'a Graph,
    model: &'a CompiledModel,
    x: &'a Tensor4,
    /// Output bits of a freshly compiled model on `x`.
    reference: &'a [u32],
}

/// How a request runs.
#[derive(Clone, Copy)]
struct Flags {
    traced: bool,
    plant: bool,
    exact: bool,
}

/// Runs a request dense, exact (when flagged) and predictive. Checks the
/// predictive output against the reference bit for bit, exact-mode top-1
/// against dense top-1 on every image, and executed MACs against dense
/// MACs.
fn infer(rec: &mut Recorder, req: &Request<'_>, flags: Flags) -> Served {
    let n = req.x.shape().n as f64;
    let mut probe = flags.traced.then_some(&mut rec.probe);
    let host = &mut rec.host;
    let mut timed = [None; 3];
    let (dense, t) = host.time(None, || {
        modes::dense(
            req.net,
            req.x,
            probe.as_deref_mut().map(|p| (p, req.net_ix)),
        )
    });
    timed[Mode::Dense.index()] = Some(t);
    let mut after = t.after_ms;
    let mut ok = true;
    if flags.exact {
        let (exact, t) = host.time(Some(after), || {
            modes::exact(
                req.net,
                req.x,
                probe.as_deref_mut().map(|p| (p, req.net_ix)),
            )
        });
        timed[Mode::Exact.index()] = Some(t);
        after = t.after_ms;
        ok &= top1(&exact.acts) == top1(&dense) && exact.executed <= exact.full;
    }
    let (predictive, predictive_t) = host.time(Some(after), || {
        modes::predictive(req.model, req.x, probe.map(|p| (p, req.net_ix)))
    });
    timed[Mode::Predictive.index()] = Some(predictive_t);
    if !flags.traced {
        for m in Mode::ALL {
            if let Some(t) = timed[m.index()] {
                rec.mode_ms_per_image[m.index()].add((req.net_ix, req.key), t.nominal_ms() / n);
            }
        }
    }
    let mut bits = output_bits(&predictive);
    if flags.plant {
        if let Some(b) = bits.first_mut() {
            *b ^= 1;
        }
    }
    ok &= bits == req.reference;
    Served {
        predictive: predictive_t,
        ok,
        outputs: predictive,
    }
}

/// Whether operation `op` carries a planted fault.
fn planted(cfg: &Config, op: u64) -> bool {
    cfg.plant_fault && op.is_multiple_of(4)
}

/// Whether a loop that has run `secs` seconds of operations has run long
/// enough: for `cfg.seconds` and, untraced, `min_ops` operations.
fn done(cfg: &Config, secs: f64, ops: u64, min_ops: u64) -> bool {
    ops >= if cfg.trace { 2 } else { min_ops } && secs >= cfg.seconds
}

/// Inference workloads: a closed loop of one client over the request
/// stream, each request run dense, exact and through the artifact.
fn serve(
    spec: &Spec,
    cfg: &Config,
    rec: &mut Recorder,
    nets: &[Prepared],
    inputs: &Inputs,
) -> Result<(), String> {
    let p = nets.first().ok_or("no net")?;
    let art = p
        .artifact
        .as_ref()
        .ok_or("inference workload without an artifact")?;
    let cal = &art.calibrated;
    let refs: Vec<Vec<u32>> = inputs
        .requests
        .iter()
        .map(|x| output_bits(&cal.fresh.forward(x)))
        .collect();
    rec.check(art.loaded.to_bytes() == cal.bytes, || {
        "loaded artifact does not re-serialize to its bytes".to_string()
    });
    let sim = sample_stages(rec, p, cal, inputs, &refs[0])?;
    rec.net_outcome(p, cal, &art.loaded, sim, inputs, cfg.trace);

    let start = Stopwatch::start();
    // Seconds the loop spent in stage samples, which do not count towards
    // its `cfg.seconds` of requests.
    let mut staged = 0.0;
    let mut op = 0u64;
    let mut stage_samples = 1;
    while !done(cfg, start.elapsed_secs() - staged, op, 1) {
        let served = start.elapsed_secs() - staged;
        if served * STAGE_SAMPLES as f64 >= cfg.seconds * stage_samples as f64 {
            let t = Stopwatch::start();
            sample_stages(rec, p, cal, inputs, &refs[0])?;
            stage_samples += 1;
            staged += t.elapsed_secs();
        }
        let i = op as usize % inputs.requests.len();
        let x = &inputs.requests[i];
        let traced = cfg.trace && op % 2 == 1;
        let section = rec.begin(traced);
        let req = Request {
            net_ix: 0,
            key: i,
            net: &p.net,
            model: &art.loaded,
            x,
            reference: &refs[i],
        };
        let flags = Flags {
            traced,
            plant: planted(cfg, op),
            exact: op % spec.exact_every == spec.exact_every - 1,
        };
        let out = infer(rec, &req, flags);
        rec.end(section);
        let mut ok = out.ok;
        if traced {
            rec.traced_ops += 1;
            ok &= identical(&out.outputs, &art.loaded.forward(x));
        }
        rec.latency(traced).add(i, out.predictive.nominal_ms());
        rec.op(ok);
        op += 1;
    }
    for _ in stage_samples..STAGE_SAMPLES {
        sample_stages(rec, p, cal, inputs, &refs[0])?;
    }
    Ok(())
}

/// Takes one cold-start sample and one simulation sample of an inference
/// workload's artifact, checking both; returns the simulation.
fn sample_stages(
    rec: &mut Recorder,
    p: &Prepared,
    cal: &Calibrated,
    inputs: &Inputs,
    first_reference: &[u32],
) -> Result<SimRun, String> {
    let (c, t) = rec
        .host
        .time(None, || cold_start(&cal.bytes, &inputs.requests[0]));
    let c = c?;
    rec.check(output_bits(&c.first) == first_reference, || {
        "cold-start output differs from the fresh compile".to_string()
    });
    rec.cold_start_ms
        .add(0, t.nominal(c.from_bytes_ms + c.first_forward_ms));
    rec.artifact_ms[2].push(c.from_bytes_ms);
    rec.artifact_ms[3].push(c.first_forward_ms);
    let s = simulate_net(
        &mut rec.host,
        p.workload.name(),
        &p.net,
        &cal.outcome.params,
        &inputs.sim_batch,
    );
    rec.check(s.macs_agree(), || {
        "simulated MACs differ from executed MACs".to_string()
    });
    rec.simulate_ms.add(0, s.nominal_ms);
    rec.workload_ms.push(s.workload_ms);
    rec.sim_only_ms.push(s.simulate_ms);
    Ok(s)
}

/// The calibration workload: a closed loop of pipelines, each running
/// Algorithm 1, compile, serialization, cold starts and simulations for
/// every net, then validating the artifact on held-out requests. Each
/// pipeline repeats the same work, so every stage reports its fastest
/// repeat and the pipeline latency is the sum over nets of each net's
/// fastest pipeline.
fn pipelines(
    cfg: &Config,
    rec: &mut Recorder,
    data: &Datasets,
    nets: &[Prepared],
    inputs: &Inputs,
) -> Result<(), String> {
    let first = &inputs.requests[0];
    let mut first_bytes: Vec<Option<Vec<u8>>> = vec![None; nets.len()];
    // Wall times of the long calls, by net: Algorithm 1 (untraced) and
    // the whole pipeline (untraced and traced).
    let mut optimize_s = Vec::new();
    let mut pipeline_ms = Vec::new();
    let mark = rec.host.mark();
    let start = Stopwatch::start();
    let mut op = 0u64;
    while !done(cfg, start.elapsed_secs(), op, MIN_PIPELINES) {
        let traced = cfg.trace && op % 2 == 1;
        let plant = planted(cfg, op);
        let mut ok = true;
        for (k, p) in nets.iter().enumerate() {
            let section = rec.begin(traced);
            let cal = calibrate(&p.net, &data.calib);
            let (mut cold_ms, mut cold_nominal) = (f64::INFINITY, f64::INFINITY);
            let mut loaded = None;
            for _ in 0..COLD_STARTS {
                let (c, t) = rec.host.time(None, || cold_start(&cal.bytes, first));
                let c = c?;
                let ms = c.from_bytes_ms + c.first_forward_ms;
                cold_ms = cold_ms.min(ms);
                cold_nominal = cold_nominal.min(t.nominal(ms));
                if traced {
                    rec.artifact_ms[2].push(c.from_bytes_ms);
                    rec.artifact_ms[3].push(c.first_forward_ms);
                }
                loaded = Some(c);
            }
            let cold = loaded.ok_or("no cold start ran")?;
            let (mut sim_ms, mut sim_nominal) = (f64::INFINITY, f64::INFINITY);
            let mut sims = Vec::with_capacity(SIM_SAMPLES);
            for _ in 0..SIM_SAMPLES {
                let sim = simulate_net(
                    &mut rec.host,
                    p.workload.name(),
                    &p.net,
                    &cal.outcome.params,
                    &inputs.sim_batch,
                );
                sim_ms = sim_ms.min(sim.wall_ms);
                sim_nominal = sim_nominal.min(sim.nominal_ms);
                if traced {
                    rec.workload_ms.push(sim.workload_ms);
                    rec.sim_only_ms.push(sim.simulate_ms);
                }
                sims.push(sim);
            }
            rec.end(section);
            let t = cal.times;
            pipeline_ms.push((
                traced,
                k,
                t.optimize_s * 1e3 + t.compile_ms + t.to_bytes_ms + cold_ms + sim_ms,
            ));
            if traced {
                rec.traced_optimizer_runs += 1;
                rec.artifact_ms[0].push(t.compile_ms);
                rec.artifact_ms[1].push(t.to_bytes_ms);
            } else {
                optimize_s.push((k, t.optimize_s));
                rec.cold_start_ms.add(k, cold_nominal);
                rec.simulate_ms.add(k, sim_nominal);
            }

            // Checks, untimed.
            let mut got = output_bits(&cold.first);
            if plant && k == 0 {
                if let Some(b) = got.first_mut() {
                    *b ^= 1;
                }
            }
            ok &= got == output_bits(&cal.fresh.forward(first));
            ok &= cold.model.to_bytes() == cal.bytes;
            ok &= cal.outcome.accuracy_loss() <= EPSILON;
            ok &= sims.iter().all(SimRun::macs_agree);
            ok &= *first_bytes[k].get_or_insert_with(|| cal.bytes.clone()) == cal.bytes;

            // Validation on held-out requests.
            for (i, x) in inputs.requests.iter().enumerate() {
                let reference = output_bits(&cal.fresh.forward(x));
                let section = rec.begin(traced);
                let req = Request {
                    net_ix: k,
                    key: i,
                    net: &p.net,
                    model: &cold.model,
                    x,
                    reference: &reference,
                };
                let flags = Flags {
                    traced,
                    plant: false,
                    exact: true,
                };
                let out = infer(rec, &req, flags);
                rec.end(section);
                ok &= out.ok;
                if traced {
                    ok &= identical(&out.outputs, &cold.model.forward(x));
                }
            }
            if op == 0 {
                let sim = sims.pop().ok_or("no simulation ran")?;
                rec.net_outcome(p, &cal, &cold.model, sim, inputs, cfg.trace);
            }
        }
        if traced {
            rec.traced_ops += 1;
        }
        rec.op(ok);
        op += 1;
    }
    let scale = rec.host.long_call_scale(mark);
    let mut per_net = Mean::default();
    for (k, s) in optimize_s {
        per_net.add(k, s * scale);
    }
    for (k, mean) in per_net.means() {
        rec.optimize_s.add(k, mean);
    }
    for (traced, k, ms) in pipeline_ms {
        rec.pipeline_ms[usize::from(traced)].add(k, ms * scale);
    }
    Ok(())
}
