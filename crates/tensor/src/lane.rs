//! Eight-wide lane layer: explicit SIMD-shaped types and the pinned
//! reduction order every numeric path in the suite is frozen to.
//!
//! The accelerator's PEs are eight-lane MAC arrays; this module gives the
//! software model the same shape in std-only Rust. [`f32x8`] / [`i32x8`]
//! wrap `[T; 8]` with `#[inline]` elementwise ops that LLVM turns into
//! vector instructions (`scripts/asm_check.sh` asserts this structurally on
//! the `#[inline(never)]` kernels below — check the asm, not just the
//! timing).
//!
//! # Runtime dispatch
//!
//! The kernels on the inference hot path ([`lane_axpy8`],
//! [`lane_broadcast`], [`lane_collapse8`], [`lane_masked_walk`],
//! [`lane_predict`]) each have one source body, compiled twice: for the
//! baseline target, where an [`f32x8`] op is two 4-wide SSE halves on
//! x86-64, and, on x86-64 only, with `#[target_feature(enable = "avx2")]`,
//! where it is one 256-bit op. A kernel runs the AVX2 instantiation when
//! `is_x86_feature_detected!("avx2")` finds AVX2 at run time; nothing else
//! selects it. Only `avx2` is enabled, never `fma`: Rust does not contract
//! `a * b + c`, so the 256-bit `vmulps` / `vaddps` round exactly as the SSE
//! halves do and both instantiations produce the same bits.
//!
//! # The pinned lane-tree reduction order
//!
//! Splitting a dot product across eight lanes changes float accumulation
//! order, so the order is *pinned* once, here, and every implementation in
//! the workspace (executor, frozen baseline, oracle reference, optimizer
//! scans) reproduces it bit-for-bit:
//!
//! * positions `0..m8` (where `m8 = lane_prefix_len(stop1)` is the largest
//!   multiple of [`LANES`] no larger than the probe-free prefix) are summed
//!   into eight lane accumulators, position `p` into lane `p % 8`, each
//!   lane in ascending `p` order;
//! * the eight lanes collapse through the fixed tree
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` ([`tree8`]);
//! * the caller adds the tree sum to the bias **only when `m8 > 0`** (so an
//!   empty lane region leaves the bias bit-untouched, `-0.0` included);
//! * positions `m8..` continue in the original sequential order.
//!
//! Padding taps that fall inside the lane region contribute a literal
//! `0.0 * w` product (select semantics) instead of being skipped; a lane
//! accumulator that starts at `+0.0` is unchanged by adding `±0.0`, so the
//! select form is bit-identical to the historical skip form while staying
//! branch-free.
//!
//! Integer accumulation ([`lane_q16_span`]) is exact and associative, so
//! the q16 path needs no pinning — any batching order is bit-identical.

use crate::q16::Q16;

/// Lane width of the engine (the paper's eight-MAC PE rows).
pub const LANES: usize = 8;

/// Largest multiple of [`LANES`] not exceeding `stop1`: the extent of the
/// lane-blocked region of a walk whose probe-free prefix is `stop1`.
#[inline]
pub const fn lane_prefix_len(stop1: usize) -> usize {
    stop1 - stop1 % LANES
}

/// Length of a weight vector padded up to a whole number of lane blocks.
#[inline]
pub const fn packed_len(len: usize) -> usize {
    len.div_ceil(LANES) * LANES
}

/// An instruction set the dispatched kernels are instantiated for (see
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The build target's own instruction set (SSE2 on x86-64).
    Baseline,
    /// 256-bit AVX2 (x86-64 hosts that have it).
    Avx2,
}

impl Isa {
    /// The instantiation the dispatched kernels run on this host.
    #[inline]
    fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Baseline
    }
}

/// Runs `kernel`'s instantiation for `isa`, falling back to the baseline
/// when `isa` is not [`Isa::Avx2`] or the host lacks AVX2. This is the one
/// place that calls a `#[target_feature]` function.
macro_rules! on_isa {
    ($isa:expr, $kernel:ident($($arg:expr),* $(,)?)) => {
        match $isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the avx2 instantiation requires only a CPU with AVX2,
            // and this arm runs only when `Isa::host()` detected it.
            // lint:allow(S1) the one target-feature call: the arm's guard runs is_x86_feature_detected!("avx2") before it, so the instruction set the callee was compiled for is present
            #[allow(unsafe_code)]
            Isa::Avx2 if Isa::host() == Isa::Avx2 => unsafe { $kernel::avx2($($arg),*) },
            _ => $kernel::baseline($($arg),*),
        }
    };
}

/// Declares a dispatched kernel: the public `$name`, which carries the
/// given docs and dispatches through [`on_isa!`], and a module `$name`
/// holding its two instantiations, `$name::baseline` and `$name::avx2`.
/// Each is an `#[inline(never)]` call of the one `#[inline(always)]` body
/// `$body`, so `scripts/asm_check.sh` finds both as symbols.
macro_rules! lane_kernel {
    (
        $(#[$attr:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident;
    ) => {
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        #[inline]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            on_isa!(Isa::host(), $name($($arg),*))
        }

        mod $name {
            use super::*;

            #[allow(clippy::too_many_arguments)]
            #[inline(never)]
            pub(super) fn baseline($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx2")]
            #[inline(never)]
            pub(super) fn avx2($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
        }
    };
}

/// The lane-major packed copy of a reordered weight vector: the walk-order
/// weights padded with `+0.0` to a whole number of eight-wide blocks, so
/// every aligned block is one full vector load and kernels never branch on
/// the tail. Produced at compile time and carried through the `.snapea`
/// artifact (which validates it bitwise against this function).
pub fn pack_weights(weights: &[f32]) -> Vec<f32> {
    let mut packed = weights.to_vec();
    packed.resize(packed_len(weights.len()), 0.0);
    packed
}

/// The pinned eight-way reduction tree: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline]
pub fn tree8(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Eight `f32` lanes. Elementwise ops compile to vector instructions; the
/// horizontal reduction is pinned to [`tree8`].
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct f32x8([f32; LANES]);

impl f32x8 {
    /// All lanes zero (`+0.0`).
    pub const ZERO: Self = Self([0.0; LANES]);

    /// Wraps an array of lane values.
    #[inline]
    pub fn new(v: [f32; LANES]) -> Self {
        Self(v)
    }

    /// Broadcasts `v` to every lane.
    #[inline]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Loads the first [`LANES`] elements of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` has fewer than [`LANES`] elements.
    #[inline]
    pub fn load(s: &[f32]) -> Self {
        let chunk = s.first_chunk::<LANES>();
        // lint:allow(P1) documented precondition of an inline SIMD primitive; a Result here would defeat vectorization
        Self(*chunk.expect("lane load needs 8 elements"))
    }

    /// Stores the lanes into the first [`LANES`] elements of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer than [`LANES`] elements.
    #[inline]
    pub fn store(self, out: &mut [f32]) {
        *out.first_chunk_mut::<LANES>()
            // lint:allow(P1) documented precondition of an inline SIMD primitive; a Result here would defeat vectorization
            .expect("lane store needs 8 elements") = self.0;
    }

    /// The lane values.
    #[inline]
    pub fn to_array(self) -> [f32; LANES] {
        self.0
    }

    /// The pinned horizontal reduction ([`tree8`]).
    #[inline]
    pub fn tree_sum(self) -> f32 {
        tree8(self.0)
    }
}

/// Elementwise lane addition.
impl std::ops::Add for f32x8 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(rhs.0) {
            *a += b;
        }
        Self(v)
    }
}

/// Elementwise lane multiplication.
impl std::ops::Mul for f32x8 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(rhs.0) {
            *a *= b;
        }
        Self(v)
    }
}

/// Eight `i32` lanes (wrapping arithmetic — the q16 kernels' products are
/// exact in `i32` by construction, so wrapping never fires in practice and
/// keeps the ops branch-free in debug builds too).
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct i32x8([i32; LANES]);

impl i32x8 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0; LANES]);

    /// Wraps an array of lane values.
    #[inline]
    pub fn new(v: [i32; LANES]) -> Self {
        Self(v)
    }

    /// Broadcasts `v` to every lane.
    #[inline]
    pub fn splat(v: i32) -> Self {
        Self([v; LANES])
    }

    /// The lane values.
    #[inline]
    pub fn to_array(self) -> [i32; LANES] {
        self.0
    }
}

/// Elementwise wrapping lane addition.
impl std::ops::Add for i32x8 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(rhs.0) {
            *a = a.wrapping_add(b);
        }
        Self(v)
    }
}

/// Elementwise wrapping lane multiplication.
impl std::ops::Mul for i32x8 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(rhs.0) {
            *a = a.wrapping_mul(b);
        }
        Self(v)
    }
}

lane_kernel! {
    /// The GEMM microkernel: `out[j] += a[0]*b[0][j] + … + a[7]*b[7][j]` for
    /// every `j`, each output element accumulating its eight products in
    /// ascending `q` order — bit-identical to the scalar unrolled form, with
    /// the `j` dimension carried in [`f32x8`] chunks. Dispatched (module
    /// docs); the internal loop over `out` amortises the call.
    ///
    /// # Panics
    ///
    /// Panics if any `b[q]` is shorter than `out`.
    pub fn lane_axpy8(out: &mut [f32], a: &[f32; LANES], b: [&[f32]; LANES]) = axpy8;
}

#[inline(always)]
fn axpy8(out: &mut [f32], a: &[f32; LANES], b: [&[f32]; LANES]) {
    let n = out.len();
    for bq in &b {
        assert!(bq.len() >= n, "lane_axpy8 row shorter than out");
    }
    let mut j = 0;
    while j + LANES <= n {
        let mut v = f32x8::load(&out[j..]);
        for (aq, bq) in a.iter().zip(b) {
            v = v + f32x8::splat(*aq) * f32x8::load(&bq[j..]);
        }
        v.store(&mut out[j..]);
        j += LANES;
    }
    while j < n {
        let mut v = out[j];
        for (aq, bq) in a.iter().zip(b) {
            v += aq * bq[j];
        }
        out[j] = v;
        j += 1;
    }
}

/// Lane-blocked dot product of contiguous `values`/`weights` over the
/// pinned order: positions `0..m8` (which must be a multiple of [`LANES`];
/// excess positions are ignored) summed into lane `p % 8`, collapsed via
/// [`tree8`]. Callers add the result to the bias only when `m8 > 0`.
#[inline(never)]
pub fn lane_dot(values: &[f32], weights: &[f32], m8: usize) -> f32 {
    debug_assert_eq!(m8 % LANES, 0);
    let mut lanes = f32x8::ZERO;
    let mut p = 0;
    while p + LANES <= m8 {
        let v = f32x8::load(&values[p..]);
        let w = f32x8::load(&weights[p..]);
        lanes = lanes + v * w;
        p += LANES;
    }
    lanes.tree_sum()
}

/// [`lane_dot`] over an interior window of a resolved-tap plan: value `p`
/// is gathered from `item[base + resolved[p]]` (branch-free — interior
/// windows have no padding taps).
#[inline(never)]
pub fn lane_dot_resolved(
    weights: &[f32],
    resolved: &[i32],
    base: i32,
    item: &[f32],
    m8: usize,
) -> f32 {
    debug_assert_eq!(m8 % LANES, 0);
    let mut lanes = f32x8::ZERO;
    let mut p = 0;
    while p + LANES <= m8 {
        let w = f32x8::load(&weights[p..]);
        let mut v = [0.0f32; LANES];
        for (l, vl) in v.iter_mut().enumerate() {
            *vl = item[(base + resolved[p + l]) as usize];
        }
        lanes = lanes + f32x8::new(v) * w;
        p += LANES;
    }
    lanes.tree_sum()
}

/// [`lane_dot`] over a general gathered window: value `p` comes from
/// `item[taps[order[p]]]`, with padding taps (`offset < 0`) contributing a
/// literal `0.0` operand (select semantics — see the module docs).
#[inline(never)]
pub fn lane_dot_gather(
    weights: &[f32],
    order: &[u32],
    taps: &[i32],
    item: &[f32],
    m8: usize,
) -> f32 {
    debug_assert_eq!(m8 % LANES, 0);
    let mut lanes = f32x8::ZERO;
    let mut p = 0;
    while p + LANES <= m8 {
        let w = f32x8::load(&weights[p..]);
        let mut v = [0.0f32; LANES];
        for (l, vl) in v.iter_mut().enumerate() {
            let off = taps[order[p + l] as usize];
            *vl = if off >= 0 { item[off as usize] } else { 0.0 };
        }
        lanes = lanes + f32x8::new(v) * w;
        p += LANES;
    }
    lanes.tree_sum()
}

/// Fixed-point MAC span for eight windows at once: for every position `p`
/// in `lo..hi`, accumulates `item_q[bases[l] + resolved[p]] * wq[p]` into
/// `accs[l]`. Products are exact in `i32` (15-bit operands) and the `i64`
/// sums are associative, so any interleaving is bit-identical to the
/// per-window sequential walk.
#[inline(never)]
pub fn lane_q16_span(
    accs: &mut [i64; LANES],
    wq: &[Q16],
    resolved: &[i32],
    bases: &[i32; LANES],
    item_q: &[Q16],
    lo: usize,
    hi: usize,
) {
    for p in lo..hi {
        let w = i32x8::splat(wq[p].0 as i32);
        let d = resolved[p];
        let mut v = [0i32; LANES];
        for (l, vl) in v.iter_mut().enumerate() {
            *vl = item_q[(bases[l] + d) as usize].0 as i32;
        }
        let prod = (i32x8::new(v) * w).to_array();
        for (a, p) in accs.iter_mut().zip(prod) {
            *a += p as i64;
        }
    }
}

lane_kernel! {
    /// Broadcast MACs of a tap-major window tile (the executor's window-major
    /// walk): walk position `p` multiplies the contiguous row
    /// `x[order[p] * ld..][..width]` (one tap of every window in the tile) by
    /// the broadcast weight `weights[p]` and adds it into plane `p % planes`,
    /// where `width = dst.len() / planes`. With eight planes this is the pinned
    /// lane region of every window at once (window `j`'s lane `l` lives at
    /// `dst[l * width + j]`, fed in ascending `p`); with one plane it is the
    /// sequential remainder. Each product is `value * weight` added to the
    /// running sum, the same operands in the same order as [`lane_dot`] and
    /// the per-window walk.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is zero or does not divide `dst.len()`, the width is
    /// not a multiple of [`LANES`], `order` and `weights` differ in length, or
    /// a row runs past the end of `x`.
    pub fn lane_broadcast(
        dst: &mut [f32],
        planes: usize,
        x: &[f32],
        ld: usize,
        order: &[u32],
        weights: &[f32],
    ) = broadcast;
}

#[inline(always)]
fn broadcast(dst: &mut [f32], planes: usize, x: &[f32], ld: usize, order: &[u32], weights: &[f32]) {
    assert!(
        planes > 0 && dst.len().is_multiple_of(planes),
        "lane_broadcast plane split"
    );
    let width = dst.len() / planes;
    assert_eq!(width % LANES, 0, "lane_broadcast width");
    assert_eq!(order.len(), weights.len(), "lane_broadcast order/weights");
    for (ob, wb) in order.chunks(planes).zip(weights.chunks(planes)) {
        for ((&o, &w), plane) in ob.iter().zip(wb).zip(dst.chunks_exact_mut(width)) {
            let row = &x[o as usize * ld..][..width];
            for (d8, r8) in plane.chunks_exact_mut(LANES).zip(row.chunks_exact(LANES)) {
                for (d, &r) in d8.iter_mut().zip(r8) {
                    *d += r * w;
                }
                lane_chunk_boundary();
            }
        }
    }
}

lane_kernel! {
    /// Collapses eight lane planes (`planes[l * width + j]`, `width =
    /// acc.len()`) through the pinned [`tree8`] and adds each sum to `bias`:
    /// `acc[j] = bias + tree8(lanes of window j)`.
    ///
    /// # Panics
    ///
    /// Panics if `planes.len() != LANES * acc.len()` or the width is not a
    /// multiple of [`LANES`].
    pub fn lane_collapse8(acc: &mut [f32], planes: &[f32], bias: f32) = collapse8;
}

#[inline(always)]
fn collapse8(acc: &mut [f32], planes: &[f32], bias: f32) {
    let width = acc.len();
    assert_eq!(planes.len(), LANES * width, "lane_collapse8 planes");
    assert_eq!(width % LANES, 0, "lane_collapse8 width");
    for (j, a8) in acc.chunks_exact_mut(LANES).enumerate() {
        let l: [&[f32]; LANES] = std::array::from_fn(|l| &planes[l * width + j * LANES..][..LANES]);
        for (i, a) in a8.iter_mut().enumerate() {
            *a = bias + tree8(std::array::from_fn(|q| l[q][i]));
        }
        lane_chunk_boundary();
    }
}

lane_kernel! {
    /// Masked broadcast sweep of a probed stretch of walk positions. `macs[j]`
    /// counts the MACs lane `j` has executed in the probed region, and a lane
    /// is live while that count equals the positions walked so far (`walked`
    /// at entry, plus one per position): a stopped lane falls behind and stays
    /// behind. At each position `i` (over `order`/`weights`) every live lane
    /// whose partial sum is below `floor` stops (the PAU's sign check; `floor =
    /// -inf` disables it), and every lane still live adds `x[order[i] * ld +
    /// j] * weights[i]` and counts the MAC. Stopped lanes ride along masked, as
    /// idle PE lanes do: their product is masked to `+0.0`, which leaves any
    /// partial sum other than `-0.0` bit-unchanged, so callers must not hand
    /// in `-0.0` sums. Returns `(positions walked, live lanes)`, early once no
    /// lane is live.
    ///
    /// # Panics
    ///
    /// Panics if `acc` and `macs` differ in length, the width is not a
    /// multiple of [`LANES`], `order` and `weights` differ in length, or a row
    /// runs past the end of `x`.
    pub fn lane_masked_walk(
        acc: &mut [f32],
        macs: &mut [u32],
        x: &[f32],
        ld: usize,
        order: &[u32],
        weights: &[f32],
        walked: u32,
        floor: f32,
    ) -> (usize, usize) = masked_walk;
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn masked_walk(
    acc: &mut [f32],
    macs: &mut [u32],
    x: &[f32],
    ld: usize,
    order: &[u32],
    weights: &[f32],
    walked: u32,
    floor: f32,
) -> (usize, usize) {
    let width = acc.len();
    assert_eq!(macs.len(), width, "lane_masked_walk macs");
    assert_eq!(width % LANES, 0, "lane_masked_walk width");
    assert_eq!(order.len(), weights.len(), "lane_masked_walk order/weights");
    let mut live = macs.iter().filter(|&&c| c == walked).count();
    for (i, (&o, &w)) in order.iter().zip(weights).enumerate() {
        let row = &x[o as usize * ld..][..width];
        let cur = walked.wrapping_add(crate::num::ops_u32(i));
        let mut count = [0u32; LANES];
        for ((a8, c8), r8) in acc
            .chunks_exact_mut(LANES)
            .zip(macs.chunks_exact_mut(LANES))
            .zip(row.chunks_exact(LANES))
        {
            for (((a, c), &r), n) in a8.iter_mut().zip(c8).zip(r8).zip(&mut count) {
                let run = if *c != cur || *a < floor { 0 } else { u32::MAX };
                *a += f32::from_bits((r * w).to_bits() & run);
                *c = c.wrapping_sub(run);
                *n = n.wrapping_sub(run);
            }
            lane_chunk_boundary();
        }
        live = count.iter().map(|&n| n as usize).sum();
        if live == 0 {
            return (i + 1, 0);
        }
    }
    (order.len(), live)
}

lane_kernel! {
    /// The predictive probe of a [`lane_masked_walk`] tile at one walk
    /// position, branch-free per lane: a live lane (`macs[j] == walked`) whose
    /// partial sum is below `low` stops with its sum replaced by `+0.0` (the
    /// early ReLU) and `predicted[j]` set; else one below `floor` stops with
    /// its sum kept; else it adds `row[j] * w` and counts the MAC. Returns the
    /// number of lanes still live.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the width is not a multiple of
    /// [`LANES`].
    pub fn lane_predict(
        acc: &mut [f32],
        macs: &mut [u32],
        predicted: &mut [u32],
        row: &[f32],
        w: f32,
        walked: u32,
        low: f32,
        floor: f32,
    ) -> usize = predict;
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn predict(
    acc: &mut [f32],
    macs: &mut [u32],
    predicted: &mut [u32],
    row: &[f32],
    w: f32,
    walked: u32,
    low: f32,
    floor: f32,
) -> usize {
    let width = acc.len();
    assert!(
        macs.len() == width && predicted.len() == width && row.len() == width,
        "lane_predict widths"
    );
    assert_eq!(width % LANES, 0, "lane_predict width");
    let mut count = [0u32; LANES];
    for (((a8, c8), p8), r8) in acc
        .chunks_exact_mut(LANES)
        .zip(macs.chunks_exact_mut(LANES))
        .zip(predicted.chunks_exact_mut(LANES))
        .zip(row.chunks_exact(LANES))
    {
        for ((((a, c), pr), &r), n) in a8.iter_mut().zip(c8).zip(p8).zip(r8).zip(&mut count) {
            let live = if *c == walked { u32::MAX } else { 0 };
            let is_low = live & if *a < low { u32::MAX } else { 0 };
            let stop = is_low | (live & if *a < floor { u32::MAX } else { 0 });
            let run = live & !stop;
            let next = *a + r * w;
            *a = f32::from_bits((next.to_bits() & run) | (a.to_bits() & !(run | is_low)));
            *c = c.wrapping_sub(run);
            *pr |= is_low;
            *n = n.wrapping_sub(run);
        }
        lane_chunk_boundary();
    }
    count.iter().map(|&n| n as usize).sum()
}

/// Ends one eight-lane chunk of a broadcast kernel. LLVM lowers each
/// chunk's elementwise loop to two packed SSE ops in the baseline
/// instantiation and to one 256-bit op in the AVX2 one; without
/// this barrier its loop vectorizer instead re-vectorizes *across* chunks,
/// interleaving eight-float chunks through scalar loads and shuffles
/// (measured ~3× slower), or vectorizes a flat loop with a scalar
/// remainder that the asm gate rejects. `black_box(())` compiles to
/// nothing.
#[inline(always)]
fn lane_chunk_boundary() {
    std::hint::black_box(());
}

/// Strictly sequential scalar dot product — **deliberately not
/// vectorizable** (the single accumulator chain forbids reassociation).
/// This is the planted-scalarization symbol `scripts/asm_check.sh
/// --negative-smoke` asserts its vector patterns *fail* on, proving the
/// check can actually detect a scalarized kernel.
#[inline(never)]
pub fn seq_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Scalar reference for the pinned lane order: eight named accumulators
/// filled in ascending `p`, collapsed via [`tree8`]. The proptests pin the
/// vector kernels to this bit-for-bit.
pub fn pinned_dot_ref(values: &[f32], weights: &[f32], m8: usize) -> f32 {
    let mut lanes = [0.0f32; LANES];
    for p in 0..m8 {
        lanes[p % LANES] += values[p] * weights[p];
    }
    tree8(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q16::{Q16Format, QAcc};
    use proptest::prelude::*;

    fn lcg(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn lane_prefix_and_packed_lengths() {
        for (len, m8, pl) in [
            (0, 0, 0),
            (1, 0, 8),
            (7, 0, 8),
            (8, 8, 8),
            (9, 8, 16),
            (15, 8, 16),
            (16, 16, 16),
            (17, 16, 24),
        ] {
            assert_eq!(lane_prefix_len(len), m8, "m8 for {len}");
            assert_eq!(packed_len(len), pl, "packed for {len}");
        }
    }

    #[test]
    fn pack_weights_pads_with_positive_zero() {
        for len in [0usize, 1, 7, 8, 9, 23] {
            let w = lcg(len as u64 + 3, len);
            let p = pack_weights(&w);
            assert_eq!(p.len(), packed_len(len));
            assert_eq!(&p[..len], &w[..], "prefix preserved for {len}");
            for pad in &p[len..] {
                assert_eq!(pad.to_bits(), 0.0f32.to_bits(), "padding is +0.0");
            }
        }
    }

    // Remainder tails: lengths that are not multiples of 8, including 1
    // and 7, leave the lane region empty or partial and must agree with
    // the scalar pinned reference bit-for-bit.
    #[test]
    fn lane_dot_tail_cases_match_reference() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 24, 31, 33] {
            let v = lcg(len as u64 + 11, len);
            let w = lcg(len as u64 + 29, len);
            let m8 = lane_prefix_len(len);
            let got = lane_dot(&v, &w, m8);
            let want = pinned_dot_ref(&v, &w, m8);
            assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
        }
    }

    #[test]
    fn lane_axpy8_tail_cases_match_scalar() {
        for n in [0usize, 1, 7, 8, 9, 16, 17, 31] {
            let a_v = lcg(n as u64 + 5, LANES);
            let a: [f32; LANES] = a_v.as_slice().try_into().unwrap();
            let rows: Vec<Vec<f32>> = (0..LANES).map(|q| lcg(q as u64 + 40, n)).collect();
            let b: [&[f32]; LANES] = std::array::from_fn(|q| rows[q].as_slice());
            let mut out = lcg(n as u64 + 99, n);
            let mut want = out.clone();
            for j in 0..n {
                let mut v = want[j];
                for q in 0..LANES {
                    v += a[q] * b[q][j];
                }
                want[j] = v;
            }
            lane_axpy8(&mut out, &a, b);
            for (g, w) in out.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "n {n}");
            }
        }
    }

    #[test]
    fn host_isa_matches_the_manifest_record() {
        let want = if Isa::host() == Isa::Avx2 {
            "avx2"
        } else {
            "baseline"
        };
        assert_eq!(snapea_obs::run::lane_isa(), want);
    }

    #[test]
    fn seq_dot_is_the_plain_sequential_sum() {
        let a = lcg(1, 37);
        let b = lcg(2, 37);
        let mut want = 0.0f32;
        for (x, y) in a.iter().zip(&b) {
            want += x * y;
        }
        assert_eq!(seq_dot(&a, &b).to_bits(), want.to_bits());
    }

    proptest! {
        #[test]
        fn prop_lane_dot_matches_pinned_reference(
            seed in 0u64..1000,
            len in 0usize..64,
        ) {
            let v = lcg(seed + 1, len);
            let w = lcg(seed + 2, len);
            let m8 = lane_prefix_len(len);
            prop_assert_eq!(
                lane_dot(&v, &w, m8).to_bits(),
                pinned_dot_ref(&v, &w, m8).to_bits()
            );
        }

        #[test]
        fn prop_lane_dot_resolved_matches_gathered_reference(
            seed in 0u64..1000,
            len in 0usize..48,
            extra in 0usize..16,
        ) {
            // Synthetic resolved taps: a permutation-ish scatter into a
            // larger item buffer, offset by a nonzero base.
            let item = lcg(seed + 3, len + extra + 4);
            let w = lcg(seed + 4, len);
            let base = 2i32;
            let resolved: Vec<i32> = (0..len)
                .map(|p| ((p * 7 + 3) % (len + extra).max(1)) as i32)
                .collect();
            let gathered: Vec<f32> = resolved
                .iter()
                .map(|&d| item[(base + d) as usize])
                .collect();
            let m8 = lane_prefix_len(len);
            prop_assert_eq!(
                lane_dot_resolved(&w, &resolved, base, &item, m8).to_bits(),
                pinned_dot_ref(&gathered, &w, m8).to_bits()
            );
        }

        #[test]
        fn prop_lane_dot_gather_selects_padding_as_zero(
            seed in 0u64..1000,
            len in 0usize..48,
        ) {
            let item = lcg(seed + 5, len + 4);
            let w = lcg(seed + 6, len);
            // Every third tap is padding.
            let taps: Vec<i32> = (0..len)
                .map(|i| if i % 3 == 2 { -1 } else { (i % (len + 3)) as i32 })
                .collect();
            let order: Vec<u32> = (0..len as u32).rev().collect();
            let gathered: Vec<f32> = order
                .iter()
                .map(|&o| {
                    let off = taps[o as usize];
                    if off >= 0 { item[off as usize] } else { 0.0 }
                })
                .collect();
            let m8 = lane_prefix_len(len);
            prop_assert_eq!(
                lane_dot_gather(&w, &order, &taps, &item, m8).to_bits(),
                pinned_dot_ref(&gathered, &w, m8).to_bits()
            );
        }

        #[test]
        fn prop_lane_q16_span_matches_sequential_macs(
            seed in 0u64..1000,
            len in 0usize..40,
            lo_frac in 0usize..8,
        ) {
            let fmt = Q16Format::default();
            let item = crate::q16::quantize_slice(fmt, &lcg(seed + 7, len + 40));
            let wq = crate::q16::quantize_slice(fmt, &lcg(seed + 8, len));
            let resolved: Vec<i32> = (0..len).map(|p| ((p * 5) % 32) as i32).collect();
            let bases: [i32; LANES] = std::array::from_fn(|l| l as i32);
            let lo = if len == 0 { 0 } else { lo_frac % (len + 1) };
            let mut accs = [3i64; LANES];
            lane_q16_span(&mut accs, &wq, &resolved, &bases, &item, lo, len);
            for (l, &acc) in accs.iter().enumerate() {
                let mut q = QAcc::from_raw(3);
                for p in lo..len {
                    q.mac(item[(bases[l] + resolved[p]) as usize], wq[p]);
                }
                prop_assert_eq!(acc, q.raw());
            }
        }

        #[test]
        fn prop_lane_broadcast_matches_per_window_pinned_order(
            seed in 0u64..1000,
            blocks in 0usize..5,
            tail in 0usize..8,
            chunks in 1usize..4,
        ) {
            // `rows` taps of `width` windows, walked in a scrambled order:
            // eight planes over the first `m8` positions, then one plane.
            let (width, m8) = (chunks * LANES, blocks * LANES);
            let rows = m8 + tail;
            let x = lcg(seed + 30, rows * width);
            let w = lcg(seed + 31, rows);
            let order: Vec<u32> = (0..rows as u32).map(|p| (p * 5 + 3) % rows as u32).collect();
            let bias = lcg(seed + 32, 1)[0];
            let mut planes = vec![0.0f32; LANES * width];
            let mut acc = vec![bias; width];
            lane_broadcast(&mut planes, LANES, &x, width, &order[..m8], &w[..m8]);
            if m8 > 0 {
                lane_collapse8(&mut acc, &planes, bias);
            }
            lane_broadcast(&mut acc, 1, &x, width, &order[m8..], &w[m8..]);
            for (j, &got) in acc.iter().enumerate() {
                let values: Vec<f32> = order.iter().map(|&o| x[o as usize * width + j]).collect();
                let mut want = if m8 > 0 { bias + pinned_dot_ref(&values, &w, m8) } else { bias };
                for p in m8..rows {
                    want += values[p] * w[p];
                }
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        #[test]
        fn prop_lane_masked_walk_matches_scalar_sign_checks(
            seed in 0u64..1000,
            rows in 0usize..24,
            chunks in 1usize..4,
            walked in 0u32..3,
        ) {
            let width = chunks * LANES;
            let x = lcg(seed + 40, rows * width);
            let w = lcg(seed + 41, rows);
            let order: Vec<u32> = (0..rows as u32).rev().collect();
            let mut acc: Vec<f32> = lcg(seed + 42, width).iter().map(|v| v + 0.25).collect();
            // Every third lane starts a position behind: already stopped.
            let mut macs: Vec<u32> = (0..width)
                .map(|j| if j % 3 == 0 { walked.wrapping_sub(1) } else { walked })
                .collect();
            let (want_acc, want_macs) = (acc.clone(), macs.clone());
            let (n, live) = lane_masked_walk(&mut acc, &mut macs, &x, width, &order, &w, walked, 0.0);
            prop_assert_eq!(live, macs.iter().filter(|&&c| c == walked + n as u32).count());
            for j in 0..width {
                let (mut a, mut c) = (want_acc[j], want_macs[j]);
                for (i, &o) in order.iter().take(n).enumerate() {
                    if c != walked + i as u32 || a < 0.0 {
                        continue;
                    }
                    a += x[o as usize * width + j] * w[i];
                    c += 1;
                }
                prop_assert_eq!(acc[j].to_bits(), a.to_bits());
                prop_assert_eq!(macs[j], c);
            }
            prop_assert!(n == rows || live == 0);
        }

        #[test]
        fn prop_lane_axpy8_matches_scalar(seed in 0u64..500, n in 0usize..40) {
            let a_v = lcg(seed + 9, LANES);
            let a: [f32; LANES] = a_v.as_slice().try_into().unwrap();
            let rows: Vec<Vec<f32>> = (0..LANES).map(|q| lcg(seed + 10 + q as u64, n)).collect();
            let b: [&[f32]; LANES] = std::array::from_fn(|q| rows[q].as_slice());
            let mut out = lcg(seed + 20, n);
            let mut want = out.clone();
            for j in 0..n {
                for q in 0..LANES {
                    want[j] += a[q] * b[q][j];
                }
            }
            lane_axpy8(&mut out, &a, b);
            for (g, w) in out.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    /// `lcg` values with every fourth replaced by a special operand:
    /// `±0.0`, `±inf` or NaN.
    fn specials(seed: u64, n: usize) -> Vec<f32> {
        const SPECIAL: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        lcg(seed, n)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                if i % 4 == (seed % 4) as usize {
                    SPECIAL[(i / 4 + seed as usize) % SPECIAL.len()]
                } else {
                    v
                }
            })
            .collect()
    }

    /// Whether the AVX2 instantiation can run here; prints a note when the
    /// identity tests below have nothing to compare.
    fn has_avx2(test: &str) -> bool {
        let ok = Isa::host() == Isa::Avx2;
        if !ok {
            eprintln!("note: {test} skipped: this host runs only the baseline lane kernels");
        }
        ok
    }

    /// `to_bits` of each value, every NaN as one pattern. When two
    /// different NaNs meet in an add (here `NAN` and the `-NAN` that
    /// `inf - inf` makes), x86 returns the first operand, and LLVM may
    /// commute the add differently in each instantiation; Rust leaves the
    /// result's NaN bits unspecified. Every other bit must match.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    // Baseline vs AVX2 instantiation of each dispatched kernel, on the same
    // inputs, compared bit for bit (NaN sign aside, see `bits`). Widths run
    // 8..=128 in whole chunks (the axpy also over tails), walks start at
    // nonzero `walked` offsets, and every operand stream mixes in signed
    // zeros, infinities and NaN.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_axpy8_instantiations_are_bit_identical(seed in 0u64..10_000, n in 0usize..137) {
            if !has_avx2("prop_axpy8_instantiations_are_bit_identical") {
                return Ok(());
            }
            let a: [f32; LANES] = specials(seed + 1, LANES).try_into().unwrap();
            let rows: Vec<Vec<f32>> = (0..LANES).map(|q| specials(seed + 2 + q as u64, n)).collect();
            let b: [&[f32]; LANES] = std::array::from_fn(|q| rows[q].as_slice());
            let mut base = specials(seed + 11, n);
            let mut wide = base.clone();
            on_isa!(Isa::Baseline, lane_axpy8(&mut base, &a, b));
            on_isa!(Isa::Avx2, lane_axpy8(&mut wide, &a, b));
            prop_assert_eq!(bits(&base), bits(&wide));
        }

        #[test]
        fn prop_broadcast_instantiations_are_bit_identical(
            seed in 0u64..10_000,
            chunks in 1usize..17,
            rows in 0usize..20,
            eight in 0usize..2,
        ) {
            if !has_avx2("prop_broadcast_instantiations_are_bit_identical") {
                return Ok(());
            }
            let planes = if eight == 1 { LANES } else { 1 };
            let width = chunks * LANES;
            let ld = width + (seed % 3) as usize;
            let x = specials(seed + 20, rows.max(1) * ld);
            let w = specials(seed + 21, rows);
            let order: Vec<u32> = (0..rows as u32).map(|p| (p * 7 + 1) % rows as u32).collect();
            let mut base = specials(seed + 22, planes * width);
            let mut wide = base.clone();
            on_isa!(Isa::Baseline, lane_broadcast(&mut base, planes, &x, ld, &order, &w));
            on_isa!(Isa::Avx2, lane_broadcast(&mut wide, planes, &x, ld, &order, &w));
            prop_assert_eq!(bits(&base), bits(&wide));
        }

        #[test]
        fn prop_collapse8_instantiations_are_bit_identical(
            seed in 0u64..10_000,
            chunks in 1usize..17,
        ) {
            if !has_avx2("prop_collapse8_instantiations_are_bit_identical") {
                return Ok(());
            }
            let width = chunks * LANES;
            let planes = specials(seed + 30, LANES * width);
            let bias = specials(seed + 31, 8)[(seed % 8) as usize];
            let mut base = vec![0.0f32; width];
            let mut wide = vec![1.0f32; width];
            on_isa!(Isa::Baseline, lane_collapse8(&mut base, &planes, bias));
            on_isa!(Isa::Avx2, lane_collapse8(&mut wide, &planes, bias));
            prop_assert_eq!(bits(&base), bits(&wide));
        }

        #[test]
        fn prop_masked_walk_instantiations_are_bit_identical(
            seed in 0u64..10_000,
            chunks in 1usize..17,
            rows in 0usize..20,
            walked in 0u32..5,
            floor_ix in 0usize..3,
        ) {
            if !has_avx2("prop_masked_walk_instantiations_are_bit_identical") {
                return Ok(());
            }
            let width = chunks * LANES;
            let x = specials(seed + 40, rows.max(1) * width);
            let w = specials(seed + 41, rows);
            let order: Vec<u32> = (0..rows as u32).rev().collect();
            let floor = [f32::NEG_INFINITY, 0.0, -0.25][floor_ix];
            let acc = specials(seed + 42, width);
            // Some lanes start behind (already stopped), some ahead.
            let macs: Vec<u32> = (0..width)
                .map(|j| walked.wrapping_add([0, 0, u32::MAX, 1][(j + seed as usize) % 4]))
                .collect();
            let (mut base_acc, mut base_macs) = (acc.clone(), macs.clone());
            let (mut wide_acc, mut wide_macs) = (acc, macs);
            let base = on_isa!(
                Isa::Baseline,
                lane_masked_walk(&mut base_acc, &mut base_macs, &x, width, &order, &w, walked, floor)
            );
            let wide = on_isa!(
                Isa::Avx2,
                lane_masked_walk(&mut wide_acc, &mut wide_macs, &x, width, &order, &w, walked, floor)
            );
            prop_assert_eq!(base, wide);
            prop_assert_eq!(bits(&base_acc), bits(&wide_acc));
            prop_assert_eq!(base_macs, wide_macs);
        }

        #[test]
        fn prop_predict_instantiations_are_bit_identical(
            seed in 0u64..10_000,
            chunks in 1usize..17,
            walked in 0u32..5,
            low_ix in 0usize..3,
        ) {
            if !has_avx2("prop_predict_instantiations_are_bit_identical") {
                return Ok(());
            }
            let width = chunks * LANES;
            let row = specials(seed + 50, width);
            let w = specials(seed + 51, 4)[(seed % 4) as usize];
            let (low, floor) = [(f32::NEG_INFINITY, f32::NEG_INFINITY), (-0.1, 0.0), (0.2, -0.3)][low_ix];
            let acc = specials(seed + 52, width);
            let macs: Vec<u32> = (0..width)
                .map(|j| walked.wrapping_add([0, 0, u32::MAX, 1][(j + seed as usize) % 4]))
                .collect();
            let predicted: Vec<u32> = (0..width).map(|j| if j % 5 == 0 { u32::MAX } else { 0 }).collect();
            let (mut base_acc, mut base_macs, mut base_pred) = (acc.clone(), macs.clone(), predicted.clone());
            let (mut wide_acc, mut wide_macs, mut wide_pred) = (acc, macs, predicted);
            let base = on_isa!(
                Isa::Baseline,
                lane_predict(&mut base_acc, &mut base_macs, &mut base_pred, &row, w, walked, low, floor)
            );
            let wide = on_isa!(
                Isa::Avx2,
                lane_predict(&mut wide_acc, &mut wide_macs, &mut wide_pred, &row, w, walked, low, floor)
            );
            prop_assert_eq!(base, wide);
            prop_assert_eq!(bits(&base_acc), bits(&wide_acc));
            prop_assert_eq!(base_macs, wide_macs);
            prop_assert_eq!(base_pred, wide_pred);
        }
    }
}
