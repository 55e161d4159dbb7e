//! Kernel Profiling Pass (Algorithm 1, `KERNELPROFILINGPASS`).
//!
//! For every kernel in isolation, this pass measures the operation count and
//! a local error estimate for a grid of `(Th, N)` candidates, keeping those
//! whose error is acceptable, sorted by ascending operation count.
//!
//! ## Fidelity note
//!
//! The paper's inner `Simulate` call re-runs the whole network per kernel per
//! candidate to obtain the end-to-end accuracy loss. With hundreds of kernels
//! per network that is prohibitively slow on a CPU-only reproduction, so this
//! pass scores candidates with a *local surrogate*: the fraction of the
//! kernel's positive output **mass** that the candidate would squash to zero.
//! The paper itself observes (§VI-B, "Prediction accuracy") that >86% of
//! prediction error falls on small positive values filtered by downstream
//! max-pooling — i.e. squashed positive mass, not squashed count, is what
//! tracks final accuracy. The Local and Global optimization passes then
//! measure *real* network accuracy, exactly as in the paper, so surrogate
//! mis-rankings are corrected before any parameter is adopted.

use crate::exec::{layer_plan, WindowPlan};
use crate::params::KernelMode;
use crate::reorder::{predictive_reorder, sign_reorder, ReorderedKernel};
use snapea_nn::ops::Conv2d;
use snapea_tensor::Tensor4;

/// One profiled candidate for a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCandidate {
    /// The kernel mode this candidate represents.
    pub mode: KernelMode,
    /// Total MACs over the profiling set when this kernel runs alone with
    /// this mode.
    pub ops: u64,
    /// Local surrogate error: squashed positive mass / total positive mass
    /// (always 0 for the exact candidate).
    pub surrogate_err: f64,
}

/// Profiled candidates of one kernel, sorted by ascending `ops`. Always
/// contains the exact-mode candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTable {
    candidates: Vec<KernelCandidate>,
}

impl KernelTable {
    /// Candidates sorted by ascending op count.
    pub fn candidates(&self) -> &[KernelCandidate] {
        &self.candidates
    }

    /// The `t`-th cheapest candidate, clamped to the table length (the
    /// indexing rule of Algorithm 1's Local Optimization pass).
    pub fn get_clamped(&self, t: usize) -> &KernelCandidate {
        &self.candidates[t.min(self.candidates.len() - 1)]
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the table is empty (never true for tables built by
    /// [`profile_layer_kernels`]).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// Scan of one window under one reordering: the partial sum after the
/// speculative set, the sign-check termination op count, and the full value.
#[derive(Debug, Clone, Copy)]
struct WindowScan {
    spec_partial: f32,
    term_ops: u32,
    full: f32,
}

/// The extent of a scan's probe-free region: neither the speculative
/// partial (read at `spec_len`, which can be 0 — the bias itself) nor a
/// sign check (from `neg_start`) observes the accumulator before
/// `min(spec_len if > 0, neg_start, len)` — the same boundary as the
/// executor's `unconditional_prefix_len`, so the lane-blocked region
/// `0..m8` below matches the executor's walk position for position.
fn scan_prefix_m8(r: &ReorderedKernel, len: usize) -> usize {
    let spec_pos = if r.spec_len() > 0 {
        r.spec_len()
    } else {
        usize::MAX
    };
    snapea_tensor::lane::lane_prefix_len(spec_pos.min(r.neg_start()).min(len))
}

/// Scans one window: computes the running prefix of the reordered MAC chain
/// and extracts the three quantities every `(Th, N)` candidate needs. The
/// probe semantics mirror [`crate::pau::Pau::probe`]: a sign check fires
/// before MAC `p` (for `p ≥ neg_start`) when the prefix after `p` MACs is
/// negative. Accumulation follows the pinned lane order (`snapea_tensor::
/// lane`): lane-tree prefix over `0..m8`, sequential from there — the same
/// bits the executor's walk produces at every observed position.
fn scan_window(r: &ReorderedKernel, taps: &[i32], item: &[f32], bias: f32) -> WindowScan {
    let weights = r.weights();
    let order = r.order();
    let len = weights.len();
    let spec_len = r.spec_len();
    let neg_start = r.neg_start();
    let m8 = scan_prefix_m8(r, len);
    let mut acc = bias;
    if m8 > 0 {
        acc = bias + snapea_tensor::lane::lane_dot_gather(weights, order, taps, item, m8);
    }
    let mut spec_partial = bias;
    let mut term_ops = len as u32;
    let mut terminated = false;
    for p in m8..len {
        if p == spec_len {
            spec_partial = acc;
        }
        if !terminated && p >= neg_start && acc < 0.0 {
            term_ops = p as u32;
            terminated = true;
        }
        let off = taps[order[p] as usize];
        if off >= 0 {
            acc += item[off as usize] * weights[p];
        }
    }
    if spec_len == len {
        spec_partial = acc;
    }
    WindowScan {
        spec_partial,
        term_ops,
        full: acc,
    }
}

/// Interior windows scanned per batch. Eight independent accumulator chains
/// hide the `fadd` latency that bounds [`scan_window`]'s strictly-ordered
/// walk; each lane's own accumulation order (and thus every f32 result) is
/// unchanged.
const SCAN_BATCH: usize = 8;

/// [`scan_window`] for [`SCAN_BATCH`] interior windows at once, via resolved
/// taps (`offset = base + rt[p]`, see [`WindowPlan::resolve`]). Per-lane
/// results are bit-identical to the scalar scan.
fn scan_windows_batch(
    r: &ReorderedKernel,
    rt: &[i32],
    item: &[f32],
    bases: &[i32; SCAN_BATCH],
    bias: f32,
) -> [WindowScan; SCAN_BATCH] {
    let weights = r.weights();
    let len = weights.len();
    let spec_len = r.spec_len();
    let neg_start = r.neg_start();
    let m8 = scan_prefix_m8(r, len);
    let mut acc = [bias; SCAN_BATCH];
    if m8 > 0 {
        for (a, &b) in acc.iter_mut().zip(bases.iter()) {
            *a = bias + snapea_tensor::lane::lane_dot_resolved(weights, rt, b, item, m8);
        }
    }
    let mut spec = [bias; SCAN_BATCH];
    let mut term = [u32::MAX; SCAN_BATCH];
    for p in m8..len {
        if p == spec_len {
            spec = acc;
        }
        if p >= neg_start {
            for (t, &a) in term.iter_mut().zip(acc.iter()) {
                if *t == u32::MAX && a < 0.0 {
                    *t = p as u32;
                }
            }
        }
        let d = rt[p];
        let wt = weights[p];
        for (a, &b) in acc.iter_mut().zip(bases.iter()) {
            *a += item[(b + d) as usize] * wt;
        }
    }
    if spec_len == len {
        spec = acc;
    }
    std::array::from_fn(|l| WindowScan {
        spec_partial: spec[l],
        term_ops: term[l].min(len as u32),
        full: acc[l],
    })
}

/// Scans every `(image, window)` of the layer under reordering `r`, writing
/// `out[img * windows + w]`. Interior windows run through the batched
/// resolved-tap scan; border windows take the scalar gather path. Results
/// are indexed, not pushed, so downstream order-sensitive folds (the f64
/// mass sums) see the same ascending `(img, w)` order as the scalar loop.
fn scan_layer(
    r: &ReorderedKernel,
    plan: &WindowPlan,
    rt: &[i32],
    input: &Tensor4,
    bias: f32,
    out: &mut [WindowScan],
) {
    let windows = plan.windows();
    let gather = plan.gather();
    for img in 0..input.shape().n {
        let item = input.item(img);
        let row = &mut out[img * windows..(img + 1) * windows];
        let mut lanes = [(0usize, 0i32); SCAN_BATCH];
        let mut nl = 0usize;
        for w in 0..windows {
            let base = plan.window_base(w);
            if base >= 0 {
                lanes[nl] = (w, base);
                nl += 1;
                if nl == SCAN_BATCH {
                    nl = 0;
                    let bases = lanes.map(|(_, b)| b);
                    let scans = scan_windows_batch(r, rt, item, &bases, bias);
                    for (l, &(lw, _)) in lanes.iter().enumerate() {
                        row[lw] = scans[l];
                    }
                }
            } else {
                row[w] = scan_window(r, gather.window(w), item, bias);
            }
        }
        // Partial tail: the generic scalar scan is bit-identical on
        // interior windows (no padding taps to skip).
        for &(lw, _) in &lanes[..nl] {
            row[lw] = scan_window(r, gather.window(lw), item, bias);
        }
    }
}

/// Profiles every kernel of `conv` against the layer input `input` (a batch
/// of optimization-set activations), producing one [`KernelTable`] per
/// kernel.
///
/// `group_candidates` is the grid of `N` values; thresholds are derived per
/// `(kernel, N)` from the `threshold_quantiles` of the speculative partial
/// sums of truly-negative windows. Candidates whose surrogate error exceeds
/// `budget` are discarded. The exact-mode candidate is always present.
pub fn profile_layer_kernels(
    conv: &Conv2d,
    input: &Tensor4,
    group_candidates: &[usize],
    threshold_quantiles: &[f64],
    budget: f64,
) -> Vec<KernelTable> {
    let s = input.shape();
    let plan = layer_plan(s, conv.geom(), conv.c_in());
    let windows = plan.windows();
    let images = s.n;
    let window_len = conv.window_len();
    let blank = WindowScan {
        spec_partial: 0.0,
        term_ops: 0,
        full: 0.0,
    };

    // Kernels are profiled in isolation, so the candidate scans — the
    // optimizer's dominant loop — fan out in blocks of kernels; the result
    // vector preserves kernel order and each kernel's numbers never depend
    // on the thread count or the block size. A kernel's cost is one full
    // layer scan per candidate (the exact reorder plus each in-range N),
    // and the pool's walk floor groups kernels — or collapses the whole
    // profile to an inline call — when the scans are too small to amortise
    // a dispatch (tiny layers used to pay ~1.5× dispatch overhead here).
    let grid_scans = 1 + group_candidates
        .iter()
        .filter(|&&n| n > 0 && n < window_len)
        .count();
    let kernel_cost = grid_scans * images * windows * window_len;
    let chunk = snapea_tensor::par::chunk_for(
        conv.c_out(),
        kernel_cost,
        snapea_tensor::par::WALK_TASK_FLOOR_OPS,
    );
    snapea_tensor::par::parallel_map(conv.c_out(), chunk, |k| {
        let mut scans: Vec<WindowScan> = vec![blank; images * windows];
        let weights = conv.weight().item(k);
        let bias = conv.bias()[k];
        let mut candidates: Vec<KernelCandidate> = Vec::new();

        // Exact-mode candidate.
        let exact = sign_reorder(weights);
        let rt = plan.resolve(&exact);
        scan_layer(&exact, &plan, &rt, input, bias, &mut scans);
        let exact_ops: u64 = scans.iter().map(|sc| sc.term_ops as u64).sum();
        candidates.push(KernelCandidate {
            mode: KernelMode::Exact,
            ops: exact_ops,
            surrogate_err: 0.0,
        });

        // Predictive candidates.
        for &n in group_candidates {
            if n == 0 || n >= window_len {
                continue;
            }
            let r = predictive_reorder(weights, n);
            let rt = plan.resolve(&r);
            scan_layer(&r, &plan, &rt, input, bias, &mut scans);
            // Threshold grid: quantiles of the speculative partial sums of
            // truly-negative windows. No negative windows → nothing for this
            // kernel to gain from speculating at this N.
            let mut neg_partials: Vec<f32> = scans
                .iter()
                .filter(|sc| sc.full < 0.0)
                .map(|sc| sc.spec_partial)
                .collect();
            if neg_partials.is_empty() {
                continue;
            }
            neg_partials.sort_by(f32::total_cmp);
            let positive_mass: f64 = scans.iter().map(|sc| sc.full.max(0.0) as f64).sum();

            for &q in threshold_quantiles {
                let idx = ((neg_partials.len() as f64 - 1.0) * q).round() as usize;
                let th = neg_partials[idx.min(neg_partials.len() - 1)];
                let mut ops = 0u64;
                let mut squashed = 0.0f64;
                for sc in &scans {
                    if sc.spec_partial < th {
                        ops += n as u64;
                        if sc.full >= 0.0 {
                            squashed += sc.full as f64;
                        }
                    } else {
                        ops += sc.term_ops as u64;
                    }
                }
                let surrogate_err = if positive_mass > 0.0 {
                    squashed / positive_mass
                } else {
                    0.0
                };
                if surrogate_err <= budget {
                    candidates.push(KernelCandidate {
                        mode: KernelMode::spec(th, n),
                        ops,
                        surrogate_err,
                    });
                }
            }
        }

        candidates.sort_by_key(|c| c.ops);
        KernelTable { candidates }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_tensor::im2col::ConvGeom;
    use snapea_tensor::{init, Shape4};

    fn setup() -> (Conv2d, Tensor4) {
        let mut rng = init::rng(3);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input = init::uniform4(Shape4::new(3, 3, 8, 8), 1.0, &mut rng).map(f32::abs);
        (conv, input)
    }

    #[test]
    fn tables_always_contain_exact() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[1, 2, 4], &[0.25, 0.5], 1.0);
        assert_eq!(tables.len(), conv.c_out());
        for t in &tables {
            assert!(!t.is_empty());
            assert!(t
                .candidates()
                .iter()
                .any(|c| matches!(c.mode, KernelMode::Exact)));
            // Sorted ascending by ops.
            for pair in t.candidates().windows(2) {
                assert!(pair[0].ops <= pair[1].ops);
            }
        }
    }

    #[test]
    fn generous_budget_admits_predictive_candidates() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[1, 2, 4, 8], &[0.5, 0.9], 1.0);
        let any_spec = tables.iter().any(|t| {
            t.candidates()
                .iter()
                .any(|c| matches!(c.mode, KernelMode::Speculate(_)))
        });
        assert!(
            any_spec,
            "no speculative candidate survived a budget of 1.0"
        );
    }

    #[test]
    fn zero_budget_keeps_only_harmless_candidates() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[1, 2, 4], &[0.5], 0.0);
        for t in &tables {
            for c in t.candidates() {
                assert_eq!(c.surrogate_err, 0.0);
            }
        }
    }

    #[test]
    fn predictive_candidates_cost_less_than_exact_when_aggressive() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[1, 2], &[0.9], 1.0);
        for t in &tables {
            let exact_ops = t
                .candidates()
                .iter()
                .find(|c| matches!(c.mode, KernelMode::Exact))
                .map(|c| c.ops)
                .expect("exact present");
            if let Some(spec) = t
                .candidates()
                .iter()
                .find(|c| matches!(c.mode, KernelMode::Speculate(_)))
            {
                assert!(
                    spec.ops <= exact_ops,
                    "aggressive speculation should not cost more than exact"
                );
            }
        }
    }

    #[test]
    fn scan_window_agrees_with_executor() {
        use crate::exec::GatherTable;
        use crate::exec::{run_window, KernelExec};
        use crate::pau::Pau;
        let (conv, input) = setup();
        let gather = GatherTable::build(input.shape(), conv.geom(), conv.c_in());
        for k in 0..conv.c_out() {
            let weights = conv.weight().item(k);
            let bias = conv.bias()[k];
            let r = sign_reorder(weights);
            let kexec = KernelExec::new(r.clone(), Pau::exact(&r));
            for w in 0..gather.windows() {
                let taps = gather.window(w);
                let item = input.item(0);
                let scan = scan_window(&r, taps, item, bias);
                let exec = run_window(&kexec, taps, item, bias);
                assert_eq!(scan.term_ops, exec.ops, "kernel {k} window {w}");
            }
        }
    }

    /// The batched resolved-tap layer scan must reproduce a per-window
    /// [`scan_window`] loop over the gather table bit for bit: the
    /// thresholds are quantiles of these `spec_partial` values, so no
    /// candidate downstream can be trusted unless every field matches.
    #[test]
    fn scan_layer_matches_per_window_scans() {
        for geom in [
            ConvGeom::square(3, 1, 1),
            ConvGeom::square(3, 1, 0),
            ConvGeom::square(3, 2, 1),
            ConvGeom::square(5, 1, 2),
            ConvGeom::square(1, 1, 0),
        ] {
            let mut rng = init::rng(77);
            let conv = Conv2d::new(3, 4, geom, &mut rng);
            let input = init::uniform4(Shape4::new(2, 3, 9, 9), 1.0, &mut rng).map(f32::abs);
            let plan = WindowPlan::build(input.shape(), geom, conv.c_in());
            let windows = plan.windows();
            for k in 0..conv.c_out() {
                let weights = conv.weight().item(k);
                let bias = conv.bias()[k];
                let mut reorders = vec![sign_reorder(weights)];
                for n in [1, 2, 4, 8] {
                    if n < conv.window_len() {
                        reorders.push(predictive_reorder(weights, n));
                    }
                }
                for r in &reorders {
                    let blank = WindowScan {
                        spec_partial: 0.0,
                        term_ops: 0,
                        full: 0.0,
                    };
                    let mut scans = vec![blank; input.shape().n * windows];
                    scan_layer(r, &plan, &plan.resolve(r), &input, bias, &mut scans);
                    for (i, got) in scans.iter().enumerate() {
                        let (img, w) = (i / windows, i % windows);
                        let want = scan_window(r, plan.gather().window(w), input.item(img), bias);
                        let case = format!(
                            "{geom:?} kernel {k} spec_len {} image {img} window {w}",
                            r.spec_len()
                        );
                        assert_eq!(
                            got.spec_partial.to_bits(),
                            want.spec_partial.to_bits(),
                            "{case}"
                        );
                        assert_eq!(got.term_ops, want.term_ops, "{case}");
                        assert_eq!(got.full.to_bits(), want.full.to_bits(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn get_clamped_saturates() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[2], &[0.5], 1.0);
        let t = &tables[0];
        let last = t.get_clamped(usize::MAX);
        assert_eq!(last, &t.candidates()[t.len() - 1]);
    }
}
