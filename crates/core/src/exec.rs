//! The SnaPEA convolution executor: walks every convolution window
//! weight-by-weight in the reordered order, probing the PAU before each MAC
//! exactly as the hardware lanes do (paper §V), and records the per-window
//! operation counts — the function `Op(o, Th, N)` of the paper's Eq. (1).
//!
//! Like the PE, the walk is window-major: each reordered weight is
//! broadcast over a tile of windows lowered tap-major by im2col, and every
//! window stops on its own (DESIGN.md §6). [`run_window`] is the one
//! per-window walk, kept as the reference and as the fallback for the
//! kernels the broadcast walk cannot take bit-exactly.

use crate::params::{KernelMode, KernelParams, LayerParams};
use crate::pau::{Pau, PauAction, TerminationKind};
use crate::reorder::{predictive_reorder, sign_reorder, ReorderedKernel};
use serde::{Deserialize, Serialize};
use snapea_nn::ops::Conv2d;
use snapea_tensor::im2col::ConvGeom;
use snapea_tensor::{Shape4, Tensor4};

/// Per-kernel execution state: the reordered weights (weight buffer + index
/// buffer), the PAU configuration, and the lane-major packed weight copy
/// the SIMD kernels load from.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelExec {
    /// The reordered kernel (weight values + index buffer).
    pub reordered: ReorderedKernel,
    /// The lane's PAU configuration for this kernel.
    pub pau: Pau,
    /// Walk-order weights padded to whole eight-wide lane blocks
    /// ([`snapea_tensor::lane::pack_weights`]) — built once per kernel at
    /// configuration (or artifact-compile) time, never per layer call. The
    /// `.snapea` artifact carries and validates this layout.
    packed: Vec<f32>,
}

impl KernelExec {
    /// Builds the execution state for a reordered kernel, deriving the
    /// packed lane layout from its walk-order weights.
    pub fn new(reordered: ReorderedKernel, pau: Pau) -> Self {
        let packed = snapea_tensor::lane::pack_weights(reordered.weights());
        Self {
            reordered,
            pau,
            packed,
        }
    }

    /// The lane-major packed weights (walk-order values padded with `+0.0`
    /// to a multiple of [`snapea_tensor::lane::LANES`]).
    pub fn packed(&self) -> &[f32] {
        &self.packed
    }
}

/// Execution configuration of one convolution layer: one [`KernelExec`] per
/// output channel.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerConfig {
    kernels: Vec<KernelExec>,
}

impl LayerConfig {
    /// Exact-mode configuration: sign-based reordering for every kernel.
    pub fn exact(conv: &Conv2d) -> Self {
        let kernels = (0..conv.c_out())
            .map(|k| {
                let r = sign_reorder(conv.weight().item(k));
                let pau = Pau::exact(&r);
                KernelExec::new(r, pau)
            })
            .collect();
        Self { kernels }
    }

    /// Predictive-mode configuration with per-kernel modes (speculating
    /// kernels carry their `(Th, N)`; exact kernels fall back to sign-based
    /// reordering).
    ///
    /// # Panics
    ///
    /// Panics if `modes.len() != conv.c_out()` or any `groups` exceeds the
    /// window length.
    pub fn predictive(conv: &Conv2d, modes: &[KernelMode]) -> Self {
        assert_eq!(modes.len(), conv.c_out(), "one mode per kernel");
        let kernels = modes
            .iter()
            .enumerate()
            .map(|(k, mode)| match mode {
                KernelMode::Exact => {
                    let r = sign_reorder(conv.weight().item(k));
                    let pau = Pau::exact(&r);
                    KernelExec::new(r, pau)
                }
                KernelMode::Speculate(p) => {
                    let r = predictive_reorder(conv.weight().item(k), p.groups);
                    let pau = Pau::predictive(&r, *p);
                    KernelExec::new(r, pau)
                }
            })
            .collect();
        Self { kernels }
    }

    /// Uniform predictive configuration: every kernel speculates with the
    /// same `(Th, N)`.
    pub fn predictive_uniform(conv: &Conv2d, params: KernelParams) -> Self {
        Self::predictive(conv, &vec![KernelMode::Speculate(params); conv.c_out()])
    }

    /// Builds the configuration dictated by [`LayerParams`].
    pub fn from_params(conv: &Conv2d, params: &LayerParams) -> Self {
        match params {
            LayerParams::Exact => Self::exact(conv),
            LayerParams::Predictive(ks) => Self::predictive(conv, ks),
        }
    }

    /// Builds a configuration from explicit per-kernel states (used by the
    /// ablation benches to plug in alternative reorderings).
    pub fn from_kernels(kernels: Vec<KernelExec>) -> Self {
        Self { kernels }
    }

    /// Per-kernel execution states.
    pub fn kernels(&self) -> &[KernelExec] {
        &self.kernels
    }

    /// Whether any kernel speculates.
    pub fn is_predictive(&self) -> bool {
        self.kernels.iter().any(|k| k.pau.is_predictive())
    }
}

/// Per-window operation counts of one layer execution — the raw material for
/// both the computation-reduction numbers and the cycle-level simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProfile {
    images: usize,
    kernels: usize,
    windows: usize,
    window_len: usize,
    /// `ops[(img * kernels + k) * windows + w]` = MACs executed for window
    /// `w` of kernel `k` on image `img`.
    ops: Vec<u32>,
}

impl LayerProfile {
    /// A dense profile: every window costs the full `window_len` MACs (the
    /// baseline accelerator's workload).
    pub fn dense(images: usize, kernels: usize, windows: usize, window_len: usize) -> Self {
        Self {
            images,
            kernels,
            windows,
            window_len,
            ops: vec![snapea_tensor::num::ops_u32(window_len); images * kernels * windows],
        }
    }

    /// A dense profile with the same geometry as `self`.
    pub fn to_dense(&self) -> Self {
        Self::dense(self.images, self.kernels, self.windows, self.window_len)
    }

    /// Builds a profile from explicit per-window op counts (layout
    /// `[(img * kernels + k) * windows + w]`).
    ///
    /// # Panics
    ///
    /// Panics if `ops.len() != images * kernels * windows` or any count
    /// exceeds `window_len`.
    pub fn from_ops(
        images: usize,
        kernels: usize,
        windows: usize,
        window_len: usize,
        ops: Vec<u32>,
    ) -> Self {
        assert_eq!(ops.len(), images * kernels * windows, "op count layout");
        assert!(
            ops.iter().all(|&o| o as usize <= window_len),
            "op count exceeds window length"
        );
        Self {
            images,
            kernels,
            windows,
            window_len,
            ops,
        }
    }

    /// The raw op-count slice (layout `[(img * kernels + k) * windows + w]`).
    pub fn ops_slice(&self) -> &[u32] {
        &self.ops
    }

    /// Number of images profiled.
    pub fn images(&self) -> usize {
        self.images
    }

    /// Number of kernels (output channels).
    pub fn kernels(&self) -> usize {
        self.kernels
    }

    /// Number of windows per kernel (out_h × out_w).
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Window length `C_in × D × D`.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// MACs executed for one window.
    pub fn op(&self, image: usize, kernel: usize, window: usize) -> u32 {
        self.ops[(image * self.kernels + kernel) * self.windows + window]
    }

    /// All op counts of one `(image, kernel)` pair.
    pub fn kernel_ops(&self, image: usize, kernel: usize) -> &[u32] {
        let base = (image * self.kernels + kernel) * self.windows;
        &self.ops[base..base + self.windows]
    }

    /// Total MACs executed.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|&o| o as u64).sum()
    }

    /// Total MACs an unaltered convolution would execute.
    pub fn full_macs(&self) -> u64 {
        (self.images * self.kernels * self.windows) as u64 * self.window_len as u64
    }

    /// `1 - total/full`: the fraction of MACs eliminated.
    pub fn savings(&self) -> f64 {
        let full = self.full_macs();
        if full == 0 {
            return 0.0;
        }
        1.0 - self.total_ops() as f64 / full as f64
    }
}

/// Prediction quality accounting (paper Table V).
///
/// *True negatives* are windows whose full convolution output is negative
/// and which the **predictive** check terminated. *False negatives* are
/// positive-output windows the predictive check squashed to zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PredictionStats {
    /// Windows whose full output is negative.
    pub negative_windows: u64,
    /// Windows whose full output is positive (or zero).
    pub positive_windows: u64,
    /// Negative windows terminated by the predictive check.
    pub true_negatives: u64,
    /// Positive windows terminated by the predictive check.
    pub false_negatives: u64,
    /// Negative windows terminated by the exact sign check.
    pub sign_terminations: u64,
    /// Sum of ReLU(full output) over all windows.
    pub positive_mass: f64,
    /// Sum of ReLU(full output) over falsely-squashed windows.
    pub squashed_mass: f64,
}

impl PredictionStats {
    /// True-negative rate: correctly-predicted negatives over all negatives.
    pub fn true_negative_rate(&self) -> f64 {
        if self.negative_windows == 0 {
            0.0
        } else {
            self.true_negatives as f64 / self.negative_windows as f64
        }
    }

    /// False-negative rate: mis-squashed positives over all positives.
    pub fn false_negative_rate(&self) -> f64 {
        if self.positive_windows == 0 {
            0.0
        } else {
            self.false_negatives as f64 / self.positive_windows as f64
        }
    }

    /// Fraction of total positive activation mass that was squashed — the
    /// quantity the paper argues stays on "small positive values".
    pub fn squashed_mass_fraction(&self) -> f64 {
        if self.positive_mass == 0.0 {
            0.0
        } else {
            self.squashed_mass / self.positive_mass
        }
    }

    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &PredictionStats) {
        self.negative_windows += other.negative_windows;
        self.positive_windows += other.positive_windows;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
        self.sign_terminations += other.sign_terminations;
        self.positive_mass += other.positive_mass;
        self.squashed_mass += other.squashed_mass;
    }
}

/// Result of executing one convolution layer through SnaPEA.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Layer output. For windows terminated by the predictive check the
    /// early ReLU has already fired: the stored value is `0.0`. All other
    /// windows hold their raw (pre-ReLU) partial sums, so applying ReLU
    /// yields the layer's post-activation output.
    pub output: Tensor4,
    /// Per-window operation counts.
    pub profile: LayerProfile,
    /// Prediction accounting (all-zero when stats collection is off).
    pub stats: PredictionStats,
}

/// Per-window input gather table: `taps[w][orig_idx]` is the offset into the
/// image's item slice, or `-1` for a padding tap.
#[derive(Debug, Clone)]
pub struct GatherTable {
    windows: usize,
    taps: Vec<i32>,
    window_len: usize,
}

impl GatherTable {
    /// Builds the gather table for `geom` over inputs of shape `input`
    /// (shared by every kernel of the layer).
    pub fn build(input: Shape4, geom: ConvGeom, c_in: usize) -> Self {
        let (oh, ow) = (geom.out_h(input.h), geom.out_w(input.w));
        let window_len = c_in * geom.kh * geom.kw;
        let mut taps = Vec::with_capacity(oh * ow * window_len);
        for oy in 0..oh {
            for ox in 0..ow {
                for c in 0..c_in {
                    for ky in 0..geom.kh {
                        for kx in 0..geom.kw {
                            let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if iy < 0 || ix < 0 || iy >= input.h as isize || ix >= input.w as isize
                            {
                                taps.push(-1);
                            } else {
                                taps.push(snapea_tensor::num::idx_i32(
                                    (c * input.h + iy as usize) * input.w + ix as usize,
                                ));
                            }
                        }
                    }
                }
            }
        }
        Self {
            windows: oh * ow,
            taps,
            window_len,
        }
    }

    /// Reassembles a gather table from stored parts (the compiled-model
    /// artifact loader). `taps` must hold exactly `windows × window_len`
    /// offsets, each either `-1` (padding) or `< item_len`.
    pub fn from_parts(
        windows: usize,
        window_len: usize,
        taps: Vec<i32>,
        item_len: usize,
    ) -> Result<Self, String> {
        let expect = windows
            .checked_mul(window_len)
            .ok_or("windows × window_len overflows")?;
        if taps.len() != expect {
            return Err(format!(
                "tap count {} != windows {windows} × window_len {window_len}",
                taps.len()
            ));
        }
        if let Some(&bad) = taps
            .iter()
            .find(|&&t| t < -1 || (t >= 0 && t as usize >= item_len.max(1)))
        {
            return Err(format!(
                "tap offset {bad} outside item of {item_len} elements"
            ));
        }
        Ok(Self {
            windows,
            taps,
            window_len,
        })
    }

    /// Number of windows.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Window length `c_in × kh × kw`.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// The full tap array, window-major (`windows × window_len` offsets).
    pub fn taps(&self) -> &[i32] {
        &self.taps
    }

    /// Tap offsets of window `w`.
    #[inline]
    pub fn window(&self, w: usize) -> &[i32] {
        &self.taps[w * self.window_len..(w + 1) * self.window_len]
    }
}

/// Kernel-independent execution plan for one layer geometry: the gather
/// table plus the *resolved-tap* factorisation of its interior windows.
///
/// For a window with no padding taps, tap `i`'s offset decomposes as
/// `base + delta[i]`, where `delta[i] = (c*h + ky)*w + kx` depends only on
/// the original weight index and the input shape, and `base` is the window's
/// top-left input offset. Permuting `delta` by a kernel's reorder
/// ([`WindowPlan::resolve`]) yields taps already in walk order, so the
/// optimizer's batched profiling scan needs no `order[p]` indirection and
/// no `off >= 0` padding branch on interior windows. Border windows (any
/// padding tap) keep the general gather-table path, which is also the f32
/// per-window fallback's.
///
/// Plans depend only on `(input.h, input.w, c_in, geom)` and are memoised by
/// [`layer_plan`].
#[derive(Debug, Clone)]
pub struct WindowPlan {
    gather: GatherTable,
    /// `delta[i]` for each original weight index `i` (valid for interior
    /// windows only).
    delta: Vec<i32>,
    /// Per window: the window's base offset into the item slice (≥ 0) for
    /// interior windows, `-1` for border windows.
    bases: Vec<i32>,
    interior: usize,
}

impl WindowPlan {
    /// Builds the plan for `geom` over inputs of shape `input`. Prefer
    /// [`layer_plan`], which memoises the result per geometry.
    pub fn build(input: Shape4, geom: ConvGeom, c_in: usize) -> Self {
        let gather = GatherTable::build(input, geom, c_in);
        let window_len = gather.window_len();
        let mut delta = Vec::with_capacity(window_len);
        for c in 0..c_in {
            for ky in 0..geom.kh {
                for kx in 0..geom.kw {
                    delta.push(snapea_tensor::num::idx_i32(
                        (c * input.h + ky) * input.w + kx,
                    ));
                }
            }
        }
        let mut bases = Vec::with_capacity(gather.windows());
        let mut interior = 0usize;
        for w in 0..gather.windows() {
            let taps = gather.window(w);
            // A window is interior iff none of its taps fall in the padding.
            // With `window_len == 0` there are no taps, so the window is
            // vacuously interior with an (unused) base of 0.
            if taps.iter().any(|&off| off < 0) {
                bases.push(-1);
            } else {
                let base = taps.first().copied().unwrap_or(0);
                debug_assert!(taps.iter().zip(delta.iter()).all(|(&t, &d)| t == base + d));
                bases.push(base);
                interior += 1;
            }
        }
        Self {
            gather,
            delta,
            bases,
            interior,
        }
    }

    /// Reassembles a plan from stored parts (the compiled-model artifact
    /// loader). Validates the structural invariants [`WindowPlan::build`]
    /// establishes: one delta per original weight index, one base per
    /// window, `interior` equal to the count of non-negative bases, and
    /// `base + delta` within the item bounds for every interior window (a
    /// delta alone may exceed the item — only resolved taps index memory).
    pub fn from_parts(
        gather: GatherTable,
        delta: Vec<i32>,
        bases: Vec<i32>,
        interior: usize,
        item_len: usize,
    ) -> Result<Self, String> {
        if delta.len() != gather.window_len() {
            return Err(format!(
                "delta count {} != window length {}",
                delta.len(),
                gather.window_len()
            ));
        }
        if bases.len() != gather.windows() {
            return Err(format!(
                "base count {} != window count {}",
                bases.len(),
                gather.windows()
            ));
        }
        if interior != bases.iter().filter(|&&b| b >= 0).count() {
            return Err("interior count disagrees with the non-negative bases".to_string());
        }
        if let Some(&bad) = delta.iter().find(|&&d| d < 0) {
            return Err(format!("negative delta {bad}"));
        }
        if let Some(&bad) = bases.iter().find(|&&b| b < -1) {
            return Err(format!("base {bad} below the border sentinel -1"));
        }
        let max_delta = delta.iter().copied().max().unwrap_or(0) as i64;
        if let Some(&bad) = bases
            .iter()
            .find(|&&b| b >= 0 && i64::from(b) + max_delta >= item_len as i64)
        {
            return Err(format!(
                "interior base {bad} + max delta {max_delta} escapes the item of {item_len} elements"
            ));
        }
        Ok(Self {
            gather,
            delta,
            bases,
            interior,
        })
    }

    /// The underlying gather table (border windows, tests, profiling).
    #[inline]
    pub fn gather(&self) -> &GatherTable {
        &self.gather
    }

    /// The per-original-index tap deltas of interior windows.
    pub fn delta(&self) -> &[i32] {
        &self.delta
    }

    /// The per-window base offsets (`-1` marks a border window).
    pub fn bases(&self) -> &[i32] {
        &self.bases
    }

    /// Number of windows.
    #[inline]
    pub fn windows(&self) -> usize {
        self.gather.windows()
    }

    /// Window length `c_in × kh × kw`.
    #[inline]
    pub fn window_len(&self) -> usize {
        self.gather.window_len()
    }

    /// Base offset of window `w`: `≥ 0` for an interior window (tap `p` of a
    /// resolved kernel lives at `base + resolved[p]`), `-1` for a border
    /// window.
    #[inline]
    pub fn window_base(&self, w: usize) -> i32 {
        self.bases[w]
    }

    /// Number of interior (padding-free) windows.
    #[inline]
    pub fn interior_windows(&self) -> usize {
        self.interior
    }

    /// The tap deltas permuted into `kernel`'s walk order: the resolved taps
    /// of every interior window (`offset(p) = base + resolved[p]`).
    ///
    /// # Panics
    ///
    /// Panics if the kernel's length differs from the plan's window length.
    pub fn resolve(&self, kernel: &ReorderedKernel) -> Vec<i32> {
        assert_eq!(kernel.len(), self.delta.len(), "kernel/plan window length");
        kernel
            .order()
            .iter()
            .map(|&i| self.delta[i as usize])
            .collect()
    }
}

/// Key of the memoised plan cache: everything [`WindowPlan::build`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PlanKey {
    h: usize,
    w: usize,
    c_in: usize,
    geom: ConvGeom,
}

/// Entry cap before the plan cache is wiped wholesale — the executor sees a
/// handful of geometries per network, but fuzzers (selfcheck) churn through
/// hundreds; the cap bounds their footprint without an LRU's bookkeeping.
pub const PLAN_CACHE_CAP: usize = 256;

fn plan_cache(
) -> &'static std::sync::Mutex<std::collections::BTreeMap<PlanKey, std::sync::Arc<WindowPlan>>> {
    static CACHE: std::sync::OnceLock<
        std::sync::Mutex<std::collections::BTreeMap<PlanKey, std::sync::Arc<WindowPlan>>>,
    > = std::sync::OnceLock::new();
    CACHE.get_or_init(Default::default)
}

/// Locks the plan cache, recovering from poisoning: entries are immutable
/// `Arc`s inserted whole, so a panic elsewhere cannot leave a half-built
/// plan behind.
fn lock_plan_cache(
) -> std::sync::MutexGuard<'static, std::collections::BTreeMap<PlanKey, std::sync::Arc<WindowPlan>>>
{
    plan_cache()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The memoised [`WindowPlan`] for `(input, geom, c_in)` — built once per
/// layer geometry and shared by every subsequent call (the Algorithm 1
/// optimizer re-profiles the same layer hundreds of times). Charges the
/// `exec/gather_cache_hits` / `exec/gather_cache_misses` counters.
pub fn layer_plan(input: Shape4, geom: ConvGeom, c_in: usize) -> std::sync::Arc<WindowPlan> {
    layer_plan_entry(input, geom, c_in).0
}

/// [`layer_plan`] plus whether the plan was served from the cache (recorded
/// on the `exec/layer` event).
fn layer_plan_entry(
    input: Shape4,
    geom: ConvGeom,
    c_in: usize,
) -> (std::sync::Arc<WindowPlan>, bool) {
    let key = PlanKey {
        h: input.h,
        w: input.w,
        c_in,
        geom,
    };
    let mut map = lock_plan_cache();
    if let Some(p) = map.get(&key) {
        snapea_obs::counter("exec/gather_cache_hits").inc();
        return (std::sync::Arc::clone(p), true);
    }
    snapea_obs::counter("exec/gather_cache_misses").inc();
    if map.len() >= PLAN_CACHE_CAP {
        map.clear();
    }
    let plan = std::sync::Arc::new(WindowPlan::build(input, geom, c_in));
    map.insert(key, std::sync::Arc::clone(&plan));
    (plan, false)
}

/// Installs a prebuilt plan into the memoised cache under the key
/// [`layer_plan`] would compute for `(input h/w, geom, c_in)` — the
/// compiled-model artifact loader uses this so the first execution of a
/// loaded model skips plan construction. An already-cached plan for the key
/// is left in place (both are deterministic functions of the key), and only
/// inserting a new key can trigger the wholesale wipe at the cap — so a full
/// cache survives every `CompiledModel::forward` that re-installs its plans.
pub fn install_plan(
    h: usize,
    w: usize,
    c_in: usize,
    geom: ConvGeom,
    plan: std::sync::Arc<WindowPlan>,
) {
    let key = PlanKey { h, w, c_in, geom };
    let mut map = lock_plan_cache();
    if map.contains_key(&key) {
        return;
    }
    if map.len() >= PLAN_CACHE_CAP {
        map.clear();
    }
    map.insert(key, plan);
}

/// Number of plans currently cached (test hook).
pub fn plan_cache_len() -> usize {
    lock_plan_cache().len()
}

/// Empties the plan cache (test hook; the executor repopulates on demand).
pub fn clear_plan_cache() {
    lock_plan_cache().clear();
}

/// Outcome of one window walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowResult {
    /// MACs executed (the paper's `Op` function, Eq. (1)).
    pub ops: u32,
    /// The value written to the output buffer *before* the downstream ReLU
    /// (0.0 if the early ReLU already fired on a prediction).
    pub output: f32,
    /// How the window ended.
    pub termination: Option<TerminationKind>,
}

/// The walk position at which the PAU's *predictive* probe can first fire
/// (`usize::MAX` in exact mode, where it never does).
#[inline(always)]
fn spec_probe_pos(pau: &Pau) -> usize {
    if pau.spec_len() > 0 {
        pau.spec_len()
    } else {
        usize::MAX
    }
}

/// Number of leading walk positions at which no PAU probe can fire: the
/// predictive probe fires only *at* `spec_len`, and the sign check only from
/// `neg_start` on, so positions `0..min(spec_len, neg_start, len)` are
/// unconditional MACs.
#[inline(always)]
fn unconditional_prefix_len(pau: &Pau, len: usize) -> usize {
    spec_probe_pos(pau).min(pau.neg_start()).min(len)
}

#[inline(always)]
fn terminated(ops: usize, acc: f32, kind: TerminationKind) -> WindowResult {
    let output = match kind {
        TerminationKind::Predicted => 0.0, // early ReLU fired
        TerminationKind::SignCheck => acc,
    };
    WindowResult {
        ops: snapea_tensor::num::ops_u32(ops),
        output,
        termination: Some(kind),
    }
}

/// Walks a single convolution window: probes the PAU exactly as the hardware
/// lanes do before each MAC, terminates when it says so. `item` is the
/// image's contiguous `c*h*w` slice; `taps` maps original weight indices to
/// offsets (−1 = padding). Padding taps still occupy a MAC slot in the
/// hardware walk: the weight is broadcast and the lane multiplies by zero.
///
/// The accumulation follows the pinned lane order (`snapea_tensor::lane`
/// module docs): the lane-tree sum of positions `0..m8` is added to the
/// bias only when `m8 > 0`, then positions `m8..` run sequentially. The
/// probes are phase-split — one probe at the speculative boundary, an
/// unconditional run to `neg_start`, then a probed walk through the
/// negative region — which is bit-identical to probing before every MAC,
/// because [`Pau::probe`] returns `Continue` at every skipped position.
pub fn run_window(kernel: &KernelExec, taps: &[i32], item: &[f32], bias: f32) -> WindowResult {
    let weights = kernel.reordered.weights();
    let order = kernel.reordered.order();
    let pau = &kernel.pau;
    let len = weights.len();
    let mac = |p: usize, acc: f32| {
        let off = taps[order[p] as usize];
        if off >= 0 {
            acc + item[off as usize] * weights[p]
        } else {
            acc
        }
    };
    let stop1 = unconditional_prefix_len(pau, len);
    let m8 = snapea_tensor::lane::lane_prefix_len(stop1);
    let mut acc = bias;
    if m8 > 0 {
        acc = bias + snapea_tensor::lane::lane_dot_gather(kernel.packed(), order, taps, item, m8);
    }
    for p in m8..stop1 {
        acc = mac(p, acc);
    }
    let mut p = stop1;
    if p < len && p == spec_probe_pos(pau) {
        // The full probe also covers the spec_len == neg_start tie, where a
        // prediction outranks the sign check.
        if let PauAction::Terminate(kind) = pau.probe(p, acc) {
            return terminated(p, acc, kind);
        }
        acc = mac(p, acc);
        p += 1;
        while p < pau.neg_start().min(len) {
            acc = mac(p, acc);
            p += 1;
        }
    }
    while p < len {
        if let PauAction::Terminate(kind) = pau.probe(p, acc) {
            return terminated(p, acc, kind);
        }
        acc = mac(p, acc);
        p += 1;
    }
    WindowResult {
        ops: snapea_tensor::num::ops_u32(len),
        output: acc,
        termination: None,
    }
}

/// Completes a window's dot product regardless of termination (used for
/// prediction-quality accounting). Accumulates in the same pinned lane
/// order as the walk — lane prefix over `m8` (derived from the *walk's*
/// probe-free prefix, so a never-terminating walk produces these exact
/// bits), then sequential to the end.
// lint:allow(P2) p < weights.len(); order/taps sized to window_len and off >= 0 checked before use
fn full_window_value(kernel: &KernelExec, taps: &[i32], item: &[f32], bias: f32) -> f32 {
    let weights = kernel.reordered.weights();
    let order = kernel.reordered.order();
    let len = weights.len();
    let m8 = snapea_tensor::lane::lane_prefix_len(unconditional_prefix_len(&kernel.pau, len));
    let mut acc = bias;
    if m8 > 0 {
        acc = bias + snapea_tensor::lane::lane_dot_gather(kernel.packed(), order, taps, item, m8);
    }
    for p in m8..len {
        let off = taps[order[p] as usize];
        if off >= 0 {
            acc += item[off as usize] * weights[p];
        }
    }
    acc
}

/// How many windows the broadcast walk (`lane`) and the per-window
/// [`run_window`] fallback (`scalar`) executed — surfaced as the
/// `exec/lane_windows` / `exec/scalar_windows` counters and on the
/// `exec/layer` event.
#[derive(Debug, Default, Clone, Copy)]
struct LaneCounts {
    lane: u64,
    scalar: u64,
}

impl LaneCounts {
    fn merge(&mut self, o: &LaneCounts) {
        self.lane += o.lane;
        self.scalar += o.scalar;
    }
}

/// Windows per broadcast tile. A tile's per-window state (eight lane
/// planes, partial sums, full values, MAC counts, predicted flags — about
/// 6 KiB) stays in L1 while its rows stream past, and a tile stops walking
/// as soon as all of its windows have terminated.
const TILE: usize = 128;

/// Most floats of lowered input one layer call holds at once (8 MiB, under
/// the scratch arena's pooling cap, so the buffer is reused across calls).
/// Larger batches are lowered and walked in waves of image groups.
const LOWERED_CAP: usize = 1 << 21;

/// Per-task scratch of the broadcast walk, sized for one full tile: the
/// eight lane planes, and per window its partial sum, full value (stats
/// only), MACs executed in the probed region, and whether the predictive
/// probe stopped it.
struct TileBufs {
    planes: Vec<f32>,
    acc: Vec<f32>,
    full: Vec<f32>,
    macs: Vec<u32>,
    predicted: Vec<u32>,
}

impl TileBufs {
    fn new() -> Self {
        Self {
            planes: vec![0.0; snapea_tensor::lane::LANES * TILE],
            acc: vec![0.0; TILE],
            full: vec![0.0; TILE],
            macs: vec![0; TILE],
            predicted: vec![0; TILE],
        }
    }
}

/// Whether a kernel must take the per-window [`run_window`] walk instead
/// of the broadcast walk. im2col stores a padding tap as `+0.0`, and the
/// broadcast walk adds its product where the pinned walk skips padding
/// taps past the lane region. Adding `+0.0 * w` leaves a partial sum
/// bit-unchanged unless the sum is `-0.0` (it becomes `+0.0`) or `w` is
/// not finite (the product is NaN). Under round-to-nearest a partial sum
/// is `-0.0` only if the bias is `-0.0` and every earlier addend was
/// `-0.0`, so those two kernel properties are exactly the cases to route
/// around.
fn needs_window_walk(kernel: &KernelExec, bias: f32) -> bool {
    bias.to_bits() == (-0.0f32).to_bits()
        || kernel.reordered.weights().iter().any(|w| !w.is_finite())
}

/// Walks one tile of windows for one kernel, window-major: every weight is
/// broadcast to all of the tile's windows at once, as the PE broadcasts it
/// to its lanes (paper §V). `x` is the tap-major im2col slab starting at
/// the tile's first window (tap `i` of window `j` at `x[i * ld + j]`); the
/// tile has `width` lanes, a multiple of eight, of which the first `real`
/// are windows (the rest read past the last window and are discarded).
/// Leaves each window's output in `bufs.acc`, its probed-region MAC count
/// in `bufs.macs`, whether the prediction stopped it in `bufs.predicted`
/// and, with `collect_stats`, its full value in `bufs.full`.
///
/// Per window, the sums are the pinned lane order bit for bit: positions
/// `0..m8` go to lane plane `p % 8`, the planes collapse through `tree8`
/// onto the bias (only when `m8 > 0`), and positions `m8..` add
/// sequentially. The probed positions run as masked sweeps over the whole
/// tile until none of its windows is live.
// lint:allow(P2) positions < len = order/weights length; the tile buffers hold TILE >= width lanes
#[allow(clippy::too_many_arguments)]
fn walk_tile(
    kernel: &KernelExec,
    bias: f32,
    x: &[f32],
    ld: usize,
    width: usize,
    real: usize,
    bufs: &mut TileBufs,
    collect_stats: bool,
) {
    use snapea_tensor::lane::{self, LANES};
    let weights = kernel.reordered.weights();
    let order = kernel.reordered.order();
    let pau = &kernel.pau;
    let len = weights.len();
    let stop1 = unconditional_prefix_len(pau, len);
    let m8 = lane::lane_prefix_len(stop1);
    let acc = &mut bufs.acc[..width];
    if m8 > 0 {
        let planes = &mut bufs.planes[..LANES * width];
        planes.fill(0.0);
        lane::lane_broadcast(planes, LANES, x, ld, &order[..m8], &weights[..m8]);
        lane::lane_collapse8(acc, planes, bias);
    } else {
        acc.fill(bias);
    }
    lane::lane_broadcast(acc, 1, x, ld, &order[m8..stop1], &weights[m8..stop1]);
    if collect_stats {
        let full = &mut bufs.full[..width];
        full.copy_from_slice(acc);
        lane::lane_broadcast(full, 1, x, ld, &order[stop1..], &weights[stop1..]);
    }

    // A window is live while its probed-region MAC count keeps up with
    // the positions walked; the lanes past `real` start out behind.
    let macs = &mut bufs.macs[..width];
    macs[..real].fill(0);
    macs[real..].fill(u32::MAX);
    let predicted = &mut bufs.predicted[..width];
    predicted.fill(0);
    let spec = spec_probe_pos(pau);
    let ns = pau.neg_start();
    let mut p = stop1;
    let mut live = real;
    while p < len && live > 0 {
        let walked = snapea_tensor::num::ops_u32(p - stop1);
        let floor = if p >= ns { 0.0 } else { f32::NEG_INFINITY };
        if p == spec {
            // The one predictive probe; it also covers the
            // spec_len == neg_start tie, where a prediction outranks the
            // sign check.
            let row = &x[order[p] as usize * ld..][..width];
            let th = pau.threshold();
            live = lane::lane_predict(acc, macs, predicted, row, weights[p], walked, th, floor);
            p += 1;
            continue;
        }
        // Positions p..end share one sign-check floor.
        let end = [spec, ns, len]
            .into_iter()
            .filter(|&e| e > p)
            .min()
            .unwrap_or(len);
        let (n, l) = lane::lane_masked_walk(
            acc,
            macs,
            x,
            ld,
            &order[p..end],
            &weights[p..end],
            walked,
            floor,
        );
        p += n;
        live = l;
    }
}

/// Folds one window's outcome into the prediction-quality accounting. Must
/// be called in ascending window order within a pair — the f64 mass sums are
/// order-sensitive and pinned bit-identical to the scalar executor.
#[inline]
fn account_window(st: &mut PredictionStats, full: f32, termination: Option<TerminationKind>) {
    if full < 0.0 {
        st.negative_windows += 1;
    } else {
        st.positive_windows += 1;
        st.positive_mass += full as f64;
    }
    match termination {
        Some(TerminationKind::Predicted) => {
            if full < 0.0 {
                st.true_negatives += 1;
            } else {
                st.false_negatives += 1;
                st.squashed_mass += full.max(0.0) as f64;
            }
        }
        Some(TerminationKind::SignCheck) => {
            st.sign_terminations += 1;
        }
        None => {}
    }
}

/// Executes a convolution layer through SnaPEA (no prediction accounting —
/// the fast path used inside the optimizer's accuracy simulations).
pub fn execute_conv(conv: &Conv2d, input: &Tensor4, cfg: &LayerConfig) -> ExecResult {
    execute_conv_inner(conv, input, cfg, false, LOWERED_CAP)
}

/// Like [`execute_conv`] but additionally completes every window's dot
/// product to fill [`PredictionStats`] (paper Table V).
pub fn execute_conv_stats(conv: &Conv2d, input: &Tensor4, cfg: &LayerConfig) -> ExecResult {
    execute_conv_inner(conv, input, cfg, true, LOWERED_CAP)
}

/// The walk of one kernel over one group of images lowered side by side:
/// per window (image-major, window order within an image) its output and
/// op count, per image the pair's prediction stats (all-zero unless
/// collected), and how many windows each walk took.
struct UnitWalk {
    out: Vec<f32>,
    ops: Vec<u32>,
    stats: Vec<PredictionStats>,
    counts: LaneCounts,
}

/// Lowers `images` of `input` side by side into `slab`, tap-major: row `i`
/// holds tap `i` of every window of the first image, then of the second,
/// and so on (`cols = images.len() × windows` per row). Each image is
/// lowered straight into its column block at row stride `cols`. `slab`
/// arrives zeroed, as [`snapea_tensor::im2col::im2col_strided_into`]
/// requires.
// lint:allow(P2) image i's block starts at i*windows, inside the first row of cols = images × windows
fn lower_images(
    input: &Tensor4,
    images: std::ops::Range<usize>,
    geom: ConvGeom,
    windows: usize,
    slab: &mut [f32],
) {
    let cols = images.len() * windows;
    for (i, n) in images.enumerate() {
        snapea_tensor::im2col::im2col_strided_into(input, n, geom, &mut slab[i * windows..], cols);
    }
}

/// Walks every window of `images` for one kernel. `slab` is their
/// side-by-side lowering ([`lower_images`]) plus
/// [`snapea_tensor::lane::LANES`] floats of slack for the last tile's
/// discarded lanes.
// lint:allow(P2) out/ops hold cols = images × windows entries and stats one per image; lane j < real <= TILE = tile buffer length
#[allow(clippy::too_many_arguments)]
fn walk_unit(
    kernel: &KernelExec,
    bias: f32,
    slab: &[f32],
    gather: &GatherTable,
    input: &Tensor4,
    images: std::ops::Range<usize>,
    bufs: &mut TileBufs,
    collect_stats: bool,
) -> UnitWalk {
    let windows = gather.windows();
    let cols = images.len() * windows;
    let mut unit = UnitWalk {
        out: vec![0.0; cols],
        ops: vec![0; cols],
        stats: vec![PredictionStats::default(); images.len()],
        counts: LaneCounts::default(),
    };
    if needs_window_walk(kernel, bias) {
        for (i, n) in images.enumerate() {
            let item = input.item(n);
            for w in 0..windows {
                let taps = gather.window(w);
                let r = run_window(kernel, taps, item, bias);
                unit.out[i * windows + w] = r.output;
                unit.ops[i * windows + w] = r.ops;
                if collect_stats {
                    let full = full_window_value(kernel, taps, item, bias);
                    account_window(&mut unit.stats[i], full, r.termination);
                }
            }
        }
        unit.counts.scalar = cols as u64;
        return unit;
    }
    let len = kernel.reordered.len();
    let stop1 = unconditional_prefix_len(&kernel.pau, len);
    for col0 in (0..cols).step_by(TILE) {
        let real = TILE.min(cols - col0);
        let width = snapea_tensor::lane::packed_len(real);
        walk_tile(
            kernel,
            bias,
            &slab[col0..],
            cols,
            width,
            real,
            bufs,
            collect_stats,
        );
        for j in 0..real {
            let walked = stop1 + bufs.macs[j] as usize;
            unit.out[col0 + j] = bufs.acc[j];
            unit.ops[col0 + j] = snapea_tensor::num::ops_u32(walked);
            if collect_stats {
                let kind = if bufs.predicted[j] != 0 {
                    Some(TerminationKind::Predicted)
                } else if walked < len {
                    Some(TerminationKind::SignCheck)
                } else {
                    None
                };
                // Lanes run image-major, windows ascending within an
                // image: each pair's stats fold in window order.
                account_window(&mut unit.stats[(col0 + j) / windows], bufs.full[j], kind);
            }
        }
    }
    unit.counts.lane = cols as u64;
    unit
}

/// The layer walk behind [`execute_conv`] / [`execute_conv_stats`];
/// `lowered_cap` bounds the floats of lowered input held at once
/// ([`LOWERED_CAP`], smaller in tests to force several waves).
// lint:allow(P2) unit/image indices stay below groups × c_out and n by construction; output offsets are pair × windows within the tensor
fn execute_conv_inner(
    conv: &Conv2d,
    input: &Tensor4,
    cfg: &LayerConfig,
    collect_stats: bool,
    lowered_cap: usize,
) -> ExecResult {
    assert_eq!(cfg.kernels.len(), conv.c_out(), "config kernel count");
    // Per-layer span (only when a sink is attached) plus an always-on
    // stopwatch feeding the `exec/layer_ms` latency histogram: one clock
    // read per layer call, never per window, so the disabled-path budget
    // holds. Per-kernel spans are a further opt-in behind
    // `SNAPEA_TRACE_DETAIL` — a full repro run executes thousands of
    // layers and would swamp the log otherwise.
    let _layer_span = snapea_obs::hot_span!("exec/layer");
    let trace_kernels = snapea_obs::enabled() && snapea_obs::detail_enabled();
    let layer_clock = snapea_obs::Stopwatch::start();
    let s = input.shape();
    let geom = conv.geom();
    let (plan, cache_hit) = layer_plan_entry(s, geom, conv.c_in());
    let out_shape = conv.out_shape(s);
    let windows = plan.windows();
    debug_assert_eq!(windows, out_shape.plane_len());

    let c_out = conv.c_out();
    let mut output = Tensor4::zeros(out_shape);
    let mut ops = vec![0u32; s.n * c_out * windows];
    let mut pair_stats = vec![PredictionStats::default(); s.n * c_out];
    let mut lane_counts = LaneCounts::default();

    // Images are walked in groups lowered side by side, enough of them
    // that one group fills a tile (late layers have only a few windows per
    // image). Each image is lowered once per layer call: groups are lowered
    // in waves (one task per group) into one buffer from the caller's
    // scratch arena, capped so a large batch does not lower every image at
    // once. The work unit is then one kernel over one group, `u = group ×
    // c_out + k`; tasks take blocks of consecutive units, sized by the walk
    // floor so an n=1 layer with 32 kernels still fans out while a tiny
    // layer runs inline. Every window's result is a pure function of its
    // own taps, and each (image, kernel) pair's stats fold in window order
    // and merge in ascending pair order below — the same for any grouping,
    // wave, block size or thread count, so results and the f64 masses are
    // bit-identical whether the units ran on one worker or eight.
    if windows > 0 && s.n > 0 {
        let window_len = conv.window_len();
        let group = TILE.div_ceil(windows).min(s.n);
        let n_groups = s.n.div_ceil(group);
        let images_of = |g: usize| g * group..((g + 1) * group).min(s.n);
        let wave = (lowered_cap / (window_len * group * windows).max(1)).clamp(1, n_groups);
        let group_len = window_len * group * windows;
        for first in (0..n_groups).step_by(wave) {
            let groups = (first + wave).min(n_groups) - first;
            let wave_images = ((first + groups) * group).min(s.n) - first * group;
            let total = window_len * wave_images * windows;
            // Slack past the last group for the last tile's discarded lanes
            // (earlier groups read into the next group's rows instead).
            snapea_tensor::scratch::with_zeroed(total + snapea_tensor::lane::LANES, |buf| {
                let parts: Vec<&mut [f32]> = buf[..total].chunks_mut(group_len.max(1)).collect();
                snapea_tensor::par::run_tasks(parts, |i, part| {
                    lower_images(input, images_of(first + i), geom, windows, part);
                });
                let buf = &*buf;
                let units = groups * c_out;
                let chunk = snapea_tensor::par::chunk_for(
                    units,
                    group * windows * window_len,
                    snapea_tensor::par::WALK_TASK_FLOOR_OPS,
                );
                let tasks: Vec<std::ops::Range<usize>> = (0..units)
                    .step_by(chunk)
                    .map(|u| u..(u + chunk).min(units))
                    .collect();
                let per_task: Vec<Vec<UnitWalk>> =
                    snapea_tensor::par::run_tasks(tasks, |_, range| {
                        let mut bufs = TileBufs::new();
                        range
                            .map(|u| {
                                let (i, k) = (u / c_out, u % c_out);
                                let images = images_of(first + i);
                                let _kernel_span = trace_kernels.then(|| {
                                    snapea_obs::span::enter_detail(
                                        "exec/kernel",
                                        Some(format!("images {images:?} kernel {k}")),
                                    )
                                });
                                walk_unit(
                                    &cfg.kernels[k],
                                    conv.bias()[k],
                                    &buf[i * group_len..],
                                    plan.gather(),
                                    input,
                                    images,
                                    &mut bufs,
                                    collect_stats,
                                )
                            })
                            .collect()
                    });
                let out = output.as_mut_slice();
                for (u, walk) in per_task.into_iter().flatten().enumerate() {
                    let k = u % c_out;
                    for (i, n) in images_of(first + u / c_out).enumerate() {
                        let pair = n * c_out + k;
                        let src = i * windows..(i + 1) * windows;
                        out[pair * windows..][..windows].copy_from_slice(&walk.out[src.clone()]);
                        ops[pair * windows..][..windows].copy_from_slice(&walk.ops[src]);
                        pair_stats[pair] = walk.stats[i];
                    }
                    lane_counts.merge(&walk.counts);
                }
            });
        }
    }
    let mut stats = PredictionStats::default();
    for st in &pair_stats {
        stats.merge(st);
    }

    let profile = LayerProfile {
        images: s.n,
        kernels: c_out,
        windows,
        window_len: conv.window_len(),
        ops,
    };
    record_layer_execution(
        &profile,
        if collect_stats { Some(&stats) } else { None },
        lane_counts,
        cache_hit,
        layer_clock.elapsed_ms(),
    );
    ExecResult {
        output,
        profile,
        stats,
    }
}

/// Charges one layer execution to the global `exec/*` metrics (including
/// the `exec/layer_ms` latency log-histogram) and, when a sink is
/// installed, emits an `exec/layer` event. Counters and the histogram are
/// relaxed atomics charged once per layer call (never per window), and the
/// event payload is only built behind [`snapea_obs::enabled`], keeping the
/// disabled-path overhead within the executor bench's <2% budget.
fn record_layer_execution(
    profile: &LayerProfile,
    stats: Option<&PredictionStats>,
    lane_counts: LaneCounts,
    gather_cache_hit: bool,
    elapsed_ms: f64,
) {
    let performed = profile.total_ops();
    let dense = profile.full_macs();
    snapea_obs::counter("exec/layer_calls").inc();
    snapea_obs::counter("exec/macs_performed").add(performed);
    snapea_obs::counter("exec/macs_dense").add(dense);
    snapea_obs::counter("exec/lane_windows").add(lane_counts.lane);
    snapea_obs::counter("exec/scalar_windows").add(lane_counts.scalar);
    snapea_obs::log_histogram("exec/layer_ms").record(elapsed_ms);
    if let Some(s) = stats {
        snapea_obs::counter("exec/windows_negative").add(s.negative_windows);
        snapea_obs::counter("exec/windows_positive").add(s.positive_windows);
        snapea_obs::counter("exec/true_negatives").add(s.true_negatives);
        snapea_obs::counter("exec/false_negatives").add(s.false_negatives);
        snapea_obs::counter("exec/sign_terminations").add(s.sign_terminations);
    }
    if snapea_obs::enabled() {
        if let Some(s) = stats {
            snapea_obs::event!(
                "exec/layer",
                images = profile.images() as u64,
                kernels = profile.kernels() as u64,
                windows = profile.windows() as u64,
                performed_macs = performed,
                full_macs = dense,
                savings = profile.savings(),
                gather_cache_hit = gather_cache_hit,
                elapsed_ms = elapsed_ms,
                lane_windows = lane_counts.lane,
                scalar_windows = lane_counts.scalar,
                true_negative_rate = s.true_negative_rate(),
                false_negative_rate = s.false_negative_rate(),
                sign_terminations = s.sign_terminations,
            );
        } else {
            snapea_obs::event!(
                "exec/layer",
                images = profile.images() as u64,
                kernels = profile.kernels() as u64,
                windows = profile.windows() as u64,
                performed_macs = performed,
                full_macs = dense,
                savings = profile.savings(),
                gather_cache_hit = gather_cache_hit,
                elapsed_ms = elapsed_ms,
                lane_windows = lane_counts.lane,
                scalar_windows = lane_counts.scalar,
            );
        }
    }
}

/// Op counts under Cnvlutin-style *ineffectual-neuron skipping* (paper §VII's
/// related work): a window's cost is the number of taps whose **input** is
/// non-zero — zero activations (the output of upstream ReLUs) are skipped
/// outright, regardless of weight signs. This is the orthogonal,
/// input-sparsity approach SnaPEA is contrasted against.
// lint:allow(P2) gather offsets are >= 0 checked and built in-bounds for the item slice
pub fn zero_skip_profile(conv: &Conv2d, input: &Tensor4) -> LayerProfile {
    let s = input.shape();
    let plan = layer_plan(s, conv.geom(), conv.c_in());
    let gather = plan.gather();
    let windows = gather.windows();
    let mut ops = Vec::with_capacity(s.n * conv.c_out() * windows);
    for n in 0..s.n {
        let item = input.item(n);
        // The nonzero-tap count per window is kernel-independent; compute it
        // once and replicate across kernels.
        let mut per_window = Vec::with_capacity(windows);
        for w in 0..windows {
            let count = gather
                .window(w)
                .iter()
                .filter(|&&off| off >= 0 && item[off as usize] != 0.0)
                .count();
            let count = snapea_tensor::num::ops_u32(count);
            per_window.push(count);
        }
        for _k in 0..conv.c_out() {
            ops.extend_from_slice(&per_window);
        }
    }
    LayerProfile::from_ops(s.n, conv.c_out(), windows, conv.window_len(), ops)
}

/// Op counts when zero-input skipping **combines** with SnaPEA's early
/// termination: the window walks the reordered weights, zero-input taps are
/// free, and the PAU terminates as usual. Shows the two mechanisms are
/// complementary (they eliminate different MACs).
// lint:allow(P2) p < weights.len(); gather offsets checked >= 0 and in-bounds by construction
pub fn combined_profile(conv: &Conv2d, input: &Tensor4, cfg: &LayerConfig) -> LayerProfile {
    assert_eq!(cfg.kernels.len(), conv.c_out(), "config kernel count");
    let s = input.shape();
    let plan = layer_plan(s, conv.geom(), conv.c_in());
    let gather = plan.gather();
    let windows = gather.windows();
    let mut ops = Vec::with_capacity(s.n * conv.c_out() * windows);
    for n in 0..s.n {
        let item = input.item(n);
        for (k, kexec) in cfg.kernels.iter().enumerate() {
            let weights = kexec.reordered.weights();
            let order = kexec.reordered.order();
            for w in 0..windows {
                let taps = gather.window(w);
                let mut acc = conv.bias()[k];
                let mut effectual = 0u32;
                for p in 0..weights.len() {
                    if let PauAction::Terminate(_) = kexec.pau.probe(p, acc) {
                        break;
                    }
                    let off = taps[order[p] as usize];
                    if off >= 0 && item[off as usize] != 0.0 {
                        acc += item[off as usize] * weights[p];
                        effectual += 1; // zero-input taps cost nothing
                    }
                }
                ops.push(effectual);
            }
        }
    }
    LayerProfile::from_ops(s.n, conv.c_out(), windows, conv.window_len(), ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_tensor::init;

    fn nonneg_input(shape: Shape4, seed: u64) -> Tensor4 {
        init::uniform4(shape, 1.0, &mut init::rng(seed)).map(f32::abs)
    }

    #[test]
    fn exact_mode_preserves_post_relu_output() {
        for seed in 0..5 {
            let mut rng = init::rng(seed);
            let conv = Conv2d::new(3, 6, ConvGeom::square(3, 1, 1), &mut rng);
            let input = nonneg_input(Shape4::new(2, 3, 7, 7), seed + 100);
            let cfg = LayerConfig::exact(&conv);
            let r = execute_conv(&conv, &input, &cfg);
            let reference = conv.forward(&input);
            for (a, b) in r.output.iter().zip(reference.iter()) {
                let (ra, rb) = (a.max(0.0), b.max(0.0));
                assert!(
                    (ra - rb).abs() < 1e-3,
                    "post-ReLU mismatch: {ra} vs {rb} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn exact_mode_saves_ops_on_zero_centred_kernels() {
        let mut rng = init::rng(1);
        let conv = Conv2d::new(4, 8, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(1, 4, 8, 8), 7);
        let cfg = LayerConfig::exact(&conv);
        let r = execute_conv(&conv, &input, &cfg);
        assert!(
            r.profile.savings() > 0.05,
            "savings {}",
            r.profile.savings()
        );
        assert_eq!(r.profile.full_macs(), conv.full_macs(input.shape()));
    }

    #[test]
    fn all_positive_kernel_never_terminates() {
        let mut rng = init::rng(2);
        let mut conv = Conv2d::new(2, 1, ConvGeom::square(3, 1, 0), &mut rng);
        conv.weight_mut().map_inplace(f32::abs);
        let input = nonneg_input(Shape4::new(1, 2, 5, 5), 3);
        let cfg = LayerConfig::exact(&conv);
        let r = execute_conv(&conv, &input, &cfg);
        assert_eq!(r.profile.total_ops(), r.profile.full_macs());
    }

    #[test]
    fn paper_figure4_example() {
        // Figure 4: weights [-5, +1, -1] over inputs [+1, +2, +6], bias 0.
        // Unaltered output: -5 + 2 - 6 = -9. Exact mode reorders to
        // [+1, -5, -1] over [+2, +1, +6] and stops after 2 MACs at -3.
        let weight = Tensor4::from_vec(Shape4::new(1, 1, 1, 3), vec![-5.0, 1.0, -1.0]).unwrap();
        let geom = ConvGeom {
            kh: 1,
            kw: 3,
            stride: 1,
            pad: 0,
        };
        let conv = Conv2d::from_parts(weight, vec![0.0], geom);
        let input = Tensor4::from_vec(Shape4::new(1, 1, 1, 3), vec![1.0, 2.0, 6.0]).unwrap();
        let cfg = LayerConfig::exact(&conv);
        let r = execute_conv(&conv, &input, &cfg);
        assert_eq!(r.profile.op(0, 0, 0), 2);
        assert_eq!(r.output.as_slice()[0], -3.0);

        // Predictive mode with N=1, Th=+3: the largest-magnitude
        // representative of the single group is -5 (product -5·1 = -5 < 3),
        // so the window terminates after 1 MAC and the early ReLU outputs 0.
        let cfg = LayerConfig::predictive_uniform(&conv, KernelParams::new(3.0, 1));
        let r = execute_conv(&conv, &input, &cfg);
        assert_eq!(r.profile.op(0, 0, 0), 1);
        assert_eq!(r.output.as_slice()[0], 0.0);
    }

    #[test]
    fn predictive_mode_cuts_at_least_as_early_with_loose_threshold() {
        let mut rng = init::rng(5);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(1, 3, 8, 8), 11);
        let exact = execute_conv(&conv, &input, &LayerConfig::exact(&conv));
        // A huge threshold predicts "negative" for every window after N ops.
        let params = KernelParams::new(f32::INFINITY, 4);
        let pred = execute_conv(
            &conv,
            &input,
            &LayerConfig::predictive_uniform(&conv, params),
        );
        assert!(pred.profile.total_ops() < exact.profile.total_ops());
        assert_eq!(
            pred.profile.total_ops(),
            (pred.profile.images() * pred.profile.kernels() * pred.profile.windows()) as u64 * 4
        );
        // Every window output zero (all predicted).
        assert!(pred.output.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn predictive_with_never_firing_threshold_matches_exact_outputs() {
        let mut rng = init::rng(6);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(1, 3, 6, 6), 13);
        let params = KernelParams::new(f32::NEG_INFINITY, 2);
        let pred = execute_conv(
            &conv,
            &input,
            &LayerConfig::predictive_uniform(&conv, params),
        );
        let reference = conv.forward(&input);
        for (a, b) in pred.output.iter().zip(reference.iter()) {
            assert!((a.max(0.0) - b.max(0.0)).abs() < 1e-3);
        }
        assert!(!pred.output.iter().any(|v| v.is_nan()));
    }

    #[test]
    fn stats_split_true_and_false_negatives() {
        let mut rng = init::rng(8);
        let conv = Conv2d::new(3, 8, ConvGeom::square(3, 1, 1), &mut rng);
        let input = nonneg_input(Shape4::new(2, 3, 8, 8), 17);
        let params = KernelParams::new(0.05, 4);
        let r = execute_conv_stats(
            &conv,
            &input,
            &LayerConfig::predictive_uniform(&conv, params),
        );
        let s = r.stats;
        assert_eq!(
            s.negative_windows + s.positive_windows,
            (r.profile.images() * r.profile.kernels() * r.profile.windows()) as u64
        );
        assert!(s.true_negatives > 0, "no true negatives: {s:?}");
        assert!(s.true_negative_rate() <= 1.0);
        assert!(s.false_negative_rate() <= 1.0);
        assert!(s.squashed_mass <= s.positive_mass);
        // With a mild threshold the squashed mass should be a small share.
        assert!(s.squashed_mass_fraction() < 0.8);
    }

    #[test]
    fn op_counts_bounded_by_window_len() {
        let mut rng = init::rng(9);
        let conv = Conv2d::new(2, 3, ConvGeom::square(3, 2, 1), &mut rng);
        let input = nonneg_input(Shape4::new(1, 2, 9, 9), 19);
        for cfg in [
            LayerConfig::exact(&conv),
            LayerConfig::predictive_uniform(&conv, KernelParams::new(0.0, 2)),
        ] {
            let r = execute_conv(&conv, &input, &cfg);
            assert!(r
                .profile
                .ops
                .iter()
                .all(|&o| o as usize <= conv.window_len()));
        }
    }

    #[test]
    fn zero_skip_counts_nonzero_taps() {
        let mut rng = init::rng(41);
        let conv = Conv2d::new(2, 3, ConvGeom::square(3, 1, 1), &mut rng);
        // Half the inputs are exactly zero (post-ReLU style sparsity).
        let input = init::uniform4(Shape4::new(1, 2, 6, 6), 1.0, &mut rng).map(|v| {
            if v > 0.0 {
                v
            } else {
                0.0
            }
        });
        let p = zero_skip_profile(&conv, &input);
        assert!(p.total_ops() < p.full_macs(), "sparsity must be exploited");
        // Kernel-independent: same counts for every kernel.
        for w in 0..p.windows() {
            let a = p.op(0, 0, w);
            for k in 1..p.kernels() {
                assert_eq!(p.op(0, k, w), a);
            }
        }
        // All-dense input ⇒ only padding taps are skipped.
        let ones = Tensor4::full(Shape4::new(1, 2, 6, 6), 1.0);
        let pd = zero_skip_profile(&conv, &ones);
        let interior_full = pd
            .kernel_ops(0, 0)
            .iter()
            .any(|&o| o as usize == conv.window_len());
        assert!(interior_full, "interior windows have no zero taps");
    }

    #[test]
    fn combined_profile_dominates_both_mechanisms() {
        let mut rng = init::rng(43);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input = init::uniform4(Shape4::new(1, 3, 8, 8), 1.0, &mut rng).map(|v| {
            if v > 0.2 {
                v
            } else {
                0.0
            }
        });
        let cfg = LayerConfig::exact(&conv);
        let snapea = execute_conv(&conv, &input, &cfg).profile;
        let zskip = zero_skip_profile(&conv, &input);
        let combined = combined_profile(&conv, &input, &cfg);
        // Combining the two mechanisms never costs more than either alone.
        assert!(combined.total_ops() <= snapea.total_ops());
        assert!(combined.total_ops() <= zskip.total_ops());
        assert!(combined.total_ops() > 0);
    }

    /// Brute-force interior test straight from the definition: a window is
    /// border iff any of its gather taps is a padding tap.
    fn brute_force_is_border(gather: &GatherTable, w: usize) -> bool {
        gather.window(w).iter().any(|&off| off < 0)
    }

    proptest::proptest! {
        #[test]
        fn plan_partition_matches_brute_force_scan(
            h in 1usize..10,
            w in 1usize..10,
            c_in in 1usize..4,
            kh in 1usize..4,
            kw in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..3,
        ) {
            let shape = Shape4::new(1, c_in, h, w);
            let geom = ConvGeom { kh, kw, stride, pad };
            let plan = WindowPlan::build(shape, geom, c_in);
            let gather = plan.gather();
            let mut interior = 0usize;
            for win in 0..plan.windows() {
                let base = plan.window_base(win);
                let border = brute_force_is_border(gather, win);
                proptest::prop_assert_eq!(base >= 0, !border, "window {}", win);
                if base >= 0 {
                    interior += 1;
                    // Interior windows must reconstruct their gather taps
                    // exactly from base + delta (here via an identity-order
                    // kernel's resolved taps).
                    let taps = gather.window(win);
                    for (i, &t) in taps.iter().enumerate() {
                        let delta = {
                            let per_c = geom.kh * geom.kw;
                            let (c, r) = (i / per_c, i % per_c);
                            let (ky, kx) = (r / geom.kw, r % geom.kw);
                            ((c * h + ky) * w + kx) as i32
                        };
                        proptest::prop_assert_eq!(t, base + delta);
                    }
                }
            }
            proptest::prop_assert_eq!(interior, plan.interior_windows());
            // pad == 0 with a kernel that fits the input means no window can
            // touch padding. (A kernel *larger* than the input still yields
            // one out-of-bounds window under the saturating output formula.)
            if pad == 0 && kh <= h && kw <= w {
                proptest::prop_assert_eq!(plan.interior_windows(), plan.windows());
            }
        }
    }

    /// The per-window reference semantics of a layer call: [`run_window`]
    /// and [`full_window_value`] over the gather table, pairs ascending,
    /// each pair's stats folded in window order and merged ascending.
    fn per_window_reference(
        conv: &Conv2d,
        input: &Tensor4,
        cfg: &LayerConfig,
    ) -> (Vec<u32>, Vec<u32>, PredictionStats) {
        let gather = GatherTable::build(input.shape(), conv.geom(), conv.c_in());
        let (mut bits, mut ops) = (Vec::new(), Vec::new());
        let mut stats = PredictionStats::default();
        for n in 0..input.shape().n {
            let item = input.item(n);
            for (k, kexec) in cfg.kernels().iter().enumerate() {
                let bias = conv.bias()[k];
                let mut st = PredictionStats::default();
                for w in 0..gather.windows() {
                    let taps = gather.window(w);
                    let r = run_window(kexec, taps, item, bias);
                    bits.push(r.output.to_bits());
                    ops.push(r.ops);
                    let full = full_window_value(kexec, taps, item, bias);
                    account_window(&mut st, full, r.termination);
                }
                stats.merge(&st);
            }
        }
        (bits, ops, stats)
    }

    /// Every `PredictionStats` field, with the f64 masses as bit patterns.
    fn stats_bits(s: &PredictionStats) -> [u64; 7] {
        [
            s.negative_windows,
            s.positive_windows,
            s.true_negatives,
            s.false_negatives,
            s.sign_terminations,
            s.positive_mass.to_bits(),
            s.squashed_mass.to_bits(),
        ]
    }

    /// Pins `execute_conv` and `execute_conv_stats` to the per-window
    /// reference — output bits, op counts and every stats field — at 1 and
    /// 4 pool threads and with one image group per lowering wave.
    fn check_against_per_window(
        conv: &Conv2d,
        input: &Tensor4,
        cfg: &LayerConfig,
        what: &str,
    ) -> Result<(), String> {
        let (bits, ops, stats) = per_window_reference(conv, input, cfg);
        let (par, over) = (
            snapea_tensor::par::threads(),
            snapea_tensor::par::oversubscribe_enabled(),
        );
        snapea_tensor::par::set_oversubscribe(true);
        let mut verdict = Ok(());
        // The tiny lowering cap walks one image group per wave.
        for (threads, cap) in [(1, LOWERED_CAP), (4, LOWERED_CAP), (4, 1)] {
            snapea_tensor::par::set_threads(threads);
            for collect_stats in [false, true] {
                let r = execute_conv_inner(conv, input, cfg, collect_stats, cap);
                let got: Vec<u32> = r.output.iter().map(|v| v.to_bits()).collect();
                let want = if collect_stats {
                    stats_bits(&stats)
                } else {
                    [0; 7]
                };
                let case = format!("{what}, {threads} thread(s), cap {cap}, stats {collect_stats}");
                if let Some(i) =
                    (0..bits.len()).find(|&i| got[i] != bits[i] || r.profile.ops[i] != ops[i])
                {
                    verdict = Err(format!(
                        "{case}: window {i}: output {:?} ops {} vs per-window {:?} ops {}",
                        f32::from_bits(got[i]),
                        r.profile.ops[i],
                        f32::from_bits(bits[i]),
                        ops[i]
                    ));
                } else if stats_bits(&r.stats) != want {
                    verdict = Err(format!(
                        "{case}: stats {:?} vs per-window {:?}",
                        r.stats, stats
                    ));
                }
            }
        }
        snapea_tensor::par::set_threads(par);
        snapea_tensor::par::set_oversubscribe(over);
        verdict
    }

    /// `(n, c_in, c_out, h, w)` of a test layer.
    type Dims = (usize, usize, usize, usize, usize);

    /// A seeded layer: `weights` 0 random, 1 all negative, 2 all positive;
    /// `inputs` 0 non-negative, 1 signed, 2 half exact zeros.
    fn corner_layer(
        seed: u64,
        (n, c_in, c_out, h, w): Dims,
        geom: ConvGeom,
        weights: u8,
        inputs: u8,
    ) -> (Conv2d, Tensor4) {
        let mut rng = init::rng(seed);
        let mut conv = Conv2d::new(c_in, c_out, geom, &mut rng);
        match weights {
            1 => conv.weight_mut().map_inplace(|v| -v.abs() - 1e-3),
            2 => conv.weight_mut().map_inplace(|v| v.abs() + 1e-3),
            _ => {}
        }
        let x = init::uniform4(Shape4::new(n, c_in, h, w), 1.0, &mut rng);
        let x = match inputs {
            0 => x.map(f32::abs),
            1 => x,
            _ => x.map(|v| if v > 0.0 { v } else { 0.0 }),
        };
        (conv, x)
    }

    /// The configurations a corner layer is walked under: exact, and
    /// predictive at a random, a `+inf` (predict every window) and a
    /// `-inf` (never predict) threshold.
    fn corner_configs(conv: &Conv2d, seed: u64) -> Vec<(String, LayerConfig)> {
        let len = conv.window_len();
        let groups = 1 + seed as usize % len.max(1);
        let th = ((seed % 13) as f32 - 6.0) * 0.05;
        let mut out = vec![("exact".to_string(), LayerConfig::exact(conv))];
        if len > 0 {
            for t in [th, f32::INFINITY, f32::NEG_INFINITY] {
                out.push((
                    format!("predictive th {t} groups {groups}"),
                    LayerConfig::predictive_uniform(conv, KernelParams::new(t, groups)),
                ));
            }
        }
        out
    }

    #[test]
    fn broadcast_walk_matches_per_window_walk_on_corner_layers() {
        let sq = ConvGeom::square;
        let cases: [(&str, Dims, ConvGeom, u8, u8); 10] = [
            (
                "3x3 pad 1, 169 windows",
                (3, 3, 5, 13, 13),
                sq(3, 1, 1),
                0,
                0,
            ),
            ("stride 2 pad 1", (1, 2, 4, 9, 9), sq(3, 2, 1), 0, 1),
            ("1x1", (3, 4, 3, 6, 5), sq(1, 1, 0), 0, 2),
            ("k == input", (3, 2, 4, 3, 3), sq(3, 1, 0), 0, 0),
            ("all-negative kernels", (1, 3, 4, 7, 7), sq(3, 1, 1), 1, 0),
            ("all-positive kernels", (3, 2, 3, 6, 6), sq(3, 1, 1), 2, 1),
            ("wide padding", (1, 2, 3, 5, 6), sq(5, 1, 2), 0, 2),
            (
                "144 windows, signed input",
                (1, 8, 2, 12, 12),
                sq(3, 1, 1),
                0,
                1,
            ),
            ("one pixel", (3, 1, 2, 1, 1), sq(3, 1, 1), 0, 0),
            (
                "two image groups of 64 windows",
                (3, 2, 3, 8, 8),
                sq(3, 1, 1),
                0,
                1,
            ),
        ];
        for (i, (what, dims, geom, weights, inputs)) in cases.into_iter().enumerate() {
            let (conv, input) = corner_layer(80 + i as u64, dims, geom, weights, inputs);
            for (mode, cfg) in corner_configs(&conv, i as u64 * 7 + 3) {
                if let Err(e) =
                    check_against_per_window(&conv, &input, &cfg, &format!("{what}, {mode}"))
                {
                    panic!("{e}");
                }
            }
        }
    }

    #[test]
    fn all_negative_predictive_kernels_hit_the_spec_len_neg_start_tie() {
        let (conv, input) = corner_layer(90, (3, 2, 3, 6, 6), ConvGeom::square(3, 1, 1), 1, 1);
        let cfg = LayerConfig::predictive_uniform(&conv, KernelParams::new(-0.2, 3));
        for k in cfg.kernels() {
            assert_eq!(k.pau.spec_len(), k.pau.neg_start(), "tie layout");
        }
        check_against_per_window(&conv, &input, &cfg, "spec_len == neg_start").unwrap();
    }

    #[test]
    fn stats_merge_in_pair_order_across_an_image_group() {
        // Two 5×5 images (25 windows each) share one image group, walked
        // kernel by kernel. Scaling the second by 1e9 makes the f64 mass
        // sums depend on the order the pairs merge in: the first image's
        // small masses only sum exactly when they meet before the large
        // ones.
        let (conv, input) = corner_layer(91, (2, 2, 4, 5, 5), ConvGeom::square(3, 1, 1), 0, 0);
        let scale = [1.0f32, 1e9];
        let input = Tensor4::from_fn(input.shape(), |n, c, h, w| input[(n, c, h, w)] * scale[n]);
        for (mode, cfg) in corner_configs(&conv, 5) {
            check_against_per_window(&conv, &input, &cfg, &format!("scaled images, {mode}"))
                .unwrap();
        }
    }

    #[test]
    fn negative_zero_bias_keeps_its_sign_through_padding_taps() {
        // One 1×1 image of -0.0 under a 3×3 pad-1 kernel: one window whose
        // centre tap is the pixel and whose eight other taps are padding.
        // Five positive weights put neg_start at 5, so the lane region is
        // empty and the walk starts sequentially from the -0.0 bias. The
        // per-window walk skips padding taps and adds only -0.0 products,
        // so the output stays -0.0; adding a padding tap's +0.0 * w would
        // turn it into +0.0.
        let weight = Tensor4::from_vec(
            Shape4::new(1, 1, 3, 3),
            vec![0.5, 0.5, 0.5, 0.5, 0.5, -0.5, -0.5, -0.5, -0.5],
        )
        .unwrap();
        let conv = Conv2d::from_parts(weight, vec![-0.0], ConvGeom::square(3, 1, 1));
        let input = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![-0.0]).unwrap();
        let cfg = LayerConfig::exact(&conv);
        let r = execute_conv(&conv, &input, &cfg);
        assert_eq!(r.output.as_slice()[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.profile.op(0, 0, 0), 9);
        check_against_per_window(&conv, &input, &cfg, "-0.0 bias").unwrap();
    }

    #[test]
    fn non_finite_weight_on_a_padding_tap_matches_the_per_window_walk() {
        // An infinite weight over a padding tap: the per-window walk skips
        // the tap past the lane region, where +0.0 * inf would be NaN.
        let mut w = vec![0.25f32; 9];
        w[0] = f32::INFINITY;
        w[8] = -0.5;
        let weight = Tensor4::from_vec(Shape4::new(1, 1, 3, 3), w).unwrap();
        let conv = Conv2d::from_parts(weight, vec![0.1], ConvGeom::square(3, 1, 1));
        let input = Tensor4::full(Shape4::new(1, 1, 4, 4), 0.5);
        check_against_per_window(&conv, &input, &LayerConfig::exact(&conv), "inf weight").unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn broadcast_walk_matches_per_window_walk(
            seed in 0u64..1_000_000,
            hw in (1usize..12, 1usize..12),
            chans in (1usize..5, 1usize..6),
            geom in (1usize..6, 1usize..3, 0usize..3),
            three_images in 0u8..2,
            kinds in (0u8..3, 0u8..3),
        ) {
            let (k, stride, pad) = geom;
            let n = if three_images == 1 { 3 } else { 1 };
            let (conv, input) = corner_layer(
                seed,
                (n, chans.0, chans.1, hw.0, hw.1),
                ConvGeom::square(k, stride, pad),
                kinds.0,
                kinds.1,
            );
            for (mode, cfg) in corner_configs(&conv, seed) {
                let case = format!("seed {seed} {hw:?} {chans:?} {geom:?} n {n} {kinds:?} {mode}");
                let verdict = check_against_per_window(&conv, &input, &cfg, &case);
                proptest::prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
        }
    }

    #[test]
    fn layer_plan_cache_hits_and_misses_are_counted() {
        // A deliberately odd geometry no other test uses, so the first call
        // must miss and the second must hit even with tests running in
        // parallel against the shared cache and counters.
        let shape = Shape4::new(1, 3, 23, 19);
        let geom = ConvGeom {
            kh: 2,
            kw: 3,
            stride: 2,
            pad: 1,
        };
        let hits0 = snapea_obs::counter("exec/gather_cache_hits").get();
        let misses0 = snapea_obs::counter("exec/gather_cache_misses").get();
        let a = layer_plan(shape, geom, 3);
        let b = layer_plan(shape, geom, 3);
        assert!(std::sync::Arc::ptr_eq(&a, &b), "second call must be cached");
        assert!(snapea_obs::counter("exec/gather_cache_misses").get() > misses0);
        assert!(snapea_obs::counter("exec/gather_cache_hits").get() > hits0);
        assert!(plan_cache_len() >= 1);
    }

    #[test]
    fn gather_table_matches_im2col_layout() {
        let shape = Shape4::new(1, 2, 5, 5);
        let geom = ConvGeom::square(3, 2, 1);
        let g = GatherTable::build(shape, geom, 2);
        let x = Tensor4::from_fn(shape, |_, c, h, w| (c * 100 + h * 10 + w) as f32);
        let cols = snapea_tensor::im2col::im2col(&x, 0, geom);
        let item = x.item(0);
        for w in 0..g.windows() {
            for (idx, &off) in g.window(w).iter().enumerate() {
                let expect = cols[(idx, w)];
                let got = if off < 0 { 0.0 } else { item[off as usize] };
                assert_eq!(got, expect, "window {w} tap {idx}");
            }
        }
    }
}
