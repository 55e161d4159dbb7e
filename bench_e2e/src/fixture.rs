//! Set-up: datasets, training, Algorithm 1, and the compiled artifact.
//!
//! The workload seed generates the requests the program serves. Everything
//! else comes from fixed seeds: the training and calibration sets, so
//! set-up and Algorithm 1 do identical work on every workload seed, and the
//! quality set and simulation batch, so the quality metrics repeat exactly.
//! Algorithm 1's work is discrete in its inputs — the global pass ran 2 to
//! 84 iterations across calibration seeds of the same net — and top-1
//! agreement on a few dozen seed-drawn images moves by several percent, so
//! seed-varied fixtures would make both unmeasurable within their bounds.

use crate::host::Reference;
use snapea::artifact::CompiledModel;
use snapea::exec::clear_plan_cache;
use snapea::optimizer::{OptimizeOutcome, Optimizer, OptimizerConfig};
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_nn::graph::Graph;
use snapea_nn::train::{TrainConfig, Trainer};
use snapea_nn::zoo::{Workload, INPUT_SIZE};
use snapea_obs::Stopwatch;
use snapea_tensor::q16::Q16Format;
use snapea_tensor::{init, Tensor4};

/// Output classes of every net (SynthShapes' first four generators).
pub const CLASSES: usize = 4;
/// Training images per net.
pub const TRAIN_IMAGES: usize = 120;
/// Training epochs per net.
pub const EPOCHS: usize = 5;
/// Algorithm 1's calibration set `D`.
pub const CALIB_IMAGES: usize = 8;
/// Algorithm 1's accuracy budget ε.
pub const EPSILON: f64 = 0.03;
/// Held-out images evaluated by the untimed quality pass of each net.
pub const QUALITY_IMAGES: usize = 128;
/// Images of the simulation batch (profiled and simulated per net).
pub const SIM_IMAGES: usize = 8;

const TRAIN_SEED: u64 = 0x7EA1_2018;
const CALIB_SEED: u64 = 0x0CA1_1B8A;
const QUALITY_SEED: u64 = 0x0A11_7E57;
const SIM_SEED: u64 = 0x051B_A7C8;
const INPUT_DIMS: (usize, usize, usize) = (3, INPUT_SIZE, INPUT_SIZE);

fn images(count: usize, seed: u64) -> Vec<LabeledImage> {
    SynthShapes::new(INPUT_SIZE, CLASSES).generate(count, seed)
}

/// The `count` held-out request images of workload seed `seed`.
pub fn requests(seed: u64, count: usize) -> Vec<LabeledImage> {
    images(count, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED)
}

/// The fixed held-out images of the quality pass.
pub fn quality_set() -> Vec<LabeledImage> {
    images(QUALITY_IMAGES, QUALITY_SEED)
}

/// The fixed simulation batch.
pub fn sim_batch() -> Tensor4 {
    batch(&images(SIM_IMAGES, SIM_SEED))
}

/// Stacks images into one batch tensor.
pub fn batch(images: &[LabeledImage]) -> Tensor4 {
    let refs: Vec<&LabeledImage> = images.iter().collect();
    SynthShapes::batch_refs(&refs)
}

/// The fixed training and calibration sets.
pub struct Datasets {
    /// Training images.
    pub train: Vec<LabeledImage>,
    /// Algorithm 1's calibration set.
    pub calib: Vec<LabeledImage>,
}

/// Generates the fixed datasets.
pub fn datasets() -> Datasets {
    Datasets {
        train: images(TRAIN_IMAGES, TRAIN_SEED),
        calib: images(CALIB_IMAGES, CALIB_SEED),
    }
}

/// Trains `w` on the fixed schedule; returns the net and each epoch's
/// wall time in seconds.
pub fn train(w: Workload, data: &[LabeledImage]) -> (Graph, Vec<f64>) {
    let mut net = w.build(CLASSES);
    let mut trainer = Trainer::new(TrainConfig {
        lr: 0.015,
        momentum: 0.9,
        weight_decay: 1e-4,
        batch_size: 20,
    });
    let mut rng = init::rng(TRAIN_SEED ^ u64::from(w.year()));
    let epochs = (0..EPOCHS)
        .map(|_| {
            let t = Stopwatch::start();
            trainer.epoch(&mut net, data, &mut rng);
            t.elapsed_secs()
        })
        .collect();
    (net, epochs)
}

/// Wall times of one pass through the calibration pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTimes {
    /// `Optimizer::run`, seconds.
    pub optimize_s: f64,
    /// `CompiledModel::compile`, milliseconds.
    pub compile_ms: f64,
    /// `CompiledModel::to_bytes`, milliseconds.
    pub to_bytes_ms: f64,
}

/// Algorithm 1's outcome compiled into an artifact.
pub struct Calibrated {
    /// The optimizer's outcome.
    pub outcome: OptimizeOutcome,
    /// The freshly compiled model (the reference for loaded copies).
    pub fresh: CompiledModel,
    /// Its serialized artifact.
    pub bytes: Vec<u8>,
    /// Pipeline wall times.
    pub times: PipelineTimes,
}

/// Runs Algorithm 1 on `calib`, compiles the outcome and serializes it.
pub fn calibrate(net: &Graph, calib: &[LabeledImage]) -> Calibrated {
    let t = Stopwatch::start();
    let outcome = Optimizer::new(net, calib, OptimizerConfig::with_epsilon(EPSILON)).run();
    let optimize_s = t.elapsed_secs();
    let t = Stopwatch::start();
    let fresh = CompiledModel::compile(net, &outcome.params, INPUT_DIMS, Q16Format::default());
    let compile_ms = t.elapsed_ms();
    let t = Stopwatch::start();
    let bytes = fresh.to_bytes();
    let to_bytes_ms = t.elapsed_ms();
    Calibrated {
        outcome,
        fresh,
        bytes,
        times: PipelineTimes {
            optimize_s,
            compile_ms,
            to_bytes_ms,
        },
    }
}

/// One cold start: the artifact loaded from bytes into an empty plan cache
/// and its first forward.
pub struct ColdStart {
    /// The loaded model.
    pub model: CompiledModel,
    /// The first forward's activations.
    pub first: Vec<Tensor4>,
    /// `CompiledModel::from_bytes`, milliseconds.
    pub from_bytes_ms: f64,
    /// The first forward, milliseconds.
    pub first_forward_ms: f64,
}

/// Loads `bytes` cold and runs `input` through the loaded model.
pub fn cold_start(bytes: &[u8], input: &Tensor4) -> Result<ColdStart, String> {
    clear_plan_cache();
    let t = Stopwatch::start();
    let model = CompiledModel::from_bytes(bytes).map_err(|e| format!("artifact load: {e}"))?;
    let from_bytes_ms = t.elapsed_ms();
    let t = Stopwatch::start();
    let first = model.forward(input);
    let first_forward_ms = t.elapsed_ms();
    Ok(ColdStart {
        model,
        first,
        from_bytes_ms,
        first_forward_ms,
    })
}

/// One net after set-up.
pub struct Prepared {
    /// Which zoo net.
    pub workload: Workload,
    /// The trained net.
    pub net: Graph,
    /// Calibration and artifact (inference workloads only).
    pub artifact: Option<Artifact>,
}

/// The artifact an inference workload serves.
pub struct Artifact {
    /// The calibration pipeline's output.
    pub calibrated: Calibrated,
    /// The model loaded from the serialized bytes.
    pub loaded: CompiledModel,
}

/// Timings of one set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Whole set-up, seconds.
    pub total_s: f64,
    /// Every training epoch, seconds.
    pub epoch_s: Vec<f64>,
    /// Calibration pipeline times summed over nets (inference workloads).
    pub pipeline: PipelineTimes,
    /// `Optimizer::run` at the nominal host speed, summed over nets,
    /// seconds.
    pub optimize_nominal_s: f64,
}

/// Set-up of one workload: generates the datasets, trains every net and,
/// when `compile` is set, calibrates, compiles, serializes and loads it.
/// Times Algorithm 1 against `host`.
pub fn setup(
    nets: &[Workload],
    compile: bool,
    first_input: &Tensor4,
    host: &mut Reference,
) -> Result<(Datasets, Vec<Prepared>, SetupTimes), String> {
    let t = Stopwatch::start();
    let data = datasets();
    let mut times = SetupTimes::default();
    let mut prepared = Vec::new();
    for &w in nets {
        let (net, epochs) = train(w, &data.train);
        times.epoch_s.extend(epochs);
        let artifact = if compile {
            let (calibrated, t) = host.time(None, || calibrate(&net, &data.calib));
            times.optimize_nominal_s += t.nominal(calibrated.times.optimize_s);
            let cold = cold_start(&calibrated.bytes, first_input)?;
            times.pipeline.optimize_s += calibrated.times.optimize_s;
            times.pipeline.compile_ms += calibrated.times.compile_ms;
            times.pipeline.to_bytes_ms += calibrated.times.to_bytes_ms;
            Some(Artifact {
                calibrated,
                loaded: cold.model,
            })
        } else {
            None
        };
        prepared.push(Prepared {
            workload: w,
            net,
            artifact,
        });
    }
    times.total_s = t.elapsed_secs();
    Ok((data, prepared, times))
}
