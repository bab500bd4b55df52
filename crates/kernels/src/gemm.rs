//! Integer GEMM kernels with fused group dequantization.
//!
//! [`fused_group_gemm`] is the CPU realization of the paper's Fig. 8
//! pipeline: per K-group, the low-bit integer partial products are computed
//! with exact integer accumulation (the tensor-core MMA stand-in, step ①),
//! then dequantized with the activation-group and weight-group scales (step
//! ②) and accumulated in FP32 (step ③) — all inside one loop nest, with no
//! intermediate buffer, exactly like the fused MMA pipeline.
//!
//! [`mixed_gemm`] adds the mixed-precision path of §4.1: after channel
//! reordering, the leading `k - outliers` channels are INT4 and the trailing
//! outlier channels INT8; the two regions multiply separately and their FP32
//! results sum.
//!
//! Both are one kernel, [`lane_gemm`]: a single sweep over the weight rows
//! against activations decoded into `i16` lanes
//! ([`ActivationLanes`], every group zero-padded to a multiple of 16
//! codes); the two precision regions of a mixed GEMM share that sweep. It
//! has two inner loops. Below [`PANEL_MIN_ROWS`] activation rows each
//! output is one fold over fixed-width blocks of 16 `i16` codes the
//! compiler turns into packed multiply-adds, against weight rows decoded a
//! block at a time. From there on the weights are read panel-major
//! ([`WeightPanels`]: 16 weight rows, code slot by code slot) and each
//! block of 4 activation rows accumulates a panel's 16 outputs at once in
//! lanes that hold every group sum exactly — `i16` for INT4 x INT4, `f32`
//! for INT8 — so no output pays a horizontal reduction. A quantized linear
//! builds its panels once, when it is quantized; [`mixed_gemm`] builds
//! them per call. [`mod@reference`] holds the plain loop nest every path
//! must reproduce bit for bit — the oracle tests and report bins call by
//! name, never reached from a serving call. DESIGN.md §3.11 has the
//! bit-identity argument.

use crate::group::{GroupQuantized, MAX_BITS};
use crate::panel::{effective_group, ActivationLanes, WeightPanels, LANES, PANEL_COLS};
use crate::KernelError;
use atom_parallel::{Pool, KERNEL_ROW_BLOCK};
use atom_telemetry::{names, span, SpanGuard, Telemetry, TimerGuard};
use atom_tensor::Matrix;

/// Largest reduction length `K` an `i32` accumulator provably survives at
/// the widest quantizer setting. One summand is a product of two values
/// quantized at at most [`MAX_BITS`] bits, so its magnitude is at most
/// `2^(MAX_BITS-1) * 2^(MAX_BITS-1) = 2^14`, and `K` such summands stay
/// below `2^31` exactly when `K <= (2^31 - 1) >> 14 = 131071` — i.e. the
/// W8A8 path is safe for every `K < 2^17`. Narrower widths only widen the
/// margin. The GEMM entry points `debug_assert!` this cap; the assertions
/// below are the proof, evaluated by rustc on every build, and each `i32`
/// reduction cites it with `// bound: MAX_ACC_K` (the `accumulator-width`
/// lint checks the citation is there).
pub const MAX_ACC_K: usize = (i32::MAX as usize) >> (2 * (MAX_BITS as usize - 1));

// A code fits `i8`; `MAX_ACC_K` worst-case products fit `i32`; one more
// would not, so the constant is tight and not merely safe.
const _: () = assert!(1i64 << (MAX_BITS - 1) <= 128);
const _: () = assert!((MAX_ACC_K as i64) << (2 * (MAX_BITS - 1)) <= i32::MAX as i64);
const _: () = assert!((MAX_ACC_K as i64 + 1) << (2 * (MAX_BITS - 1)) > i32::MAX as i64);
// The sweep multiplies pre-widened `i16` lanes: a code fits one, and the
// pair of worst-case products a packed multiply-add (`pmaddwd`) sums before
// the `i32` accumulation fits `i32` — so the fold's only reduction bound
// stays `MAX_ACC_K`.
const _: () =
    assert!(1i64 << (MAX_BITS - 1) <= 1i64 << 15 && 2 << (2 * (MAX_BITS - 1)) <= i32::MAX as i64);

/// The largest magnitude a partial sum of one quantization group reaches
/// in the panel loop: `group` products of a `bits_a`-bit activation code
/// and a `bits_w`-bit weight code, each at most `2^(bits_a-1) *
/// 2^(bits_w-1)` in magnitude (slots past the group's real codes hold
/// zeros and add nothing).
pub const fn group_sum_bound(group: usize, bits_a: u8, bits_w: u8) -> usize {
    group.saturating_mul(1 << (bits_a as usize - 1 + bits_w as usize - 1))
}

/// The largest group sum the panel loop keeps in `i16` lanes: a region
/// whose [`group_sum_bound`] is at most this sums each group in `i16`,
/// where every partial sum — every product too — is then an exact
/// integer, whatever order its products add in. A region past it sums in
/// `f32` lanes, exact below `2^24`.
pub const I16_LANE_BOUND: usize = i16::MAX as usize;

// The widths that run: a W4A4 group of 16 INT4 x INT4 codes sums to at
// most 16 * 2^3 * 2^3 = 1024, inside `i16` (as do W3A3 and W4A8 groups);
// an INT8 x INT8 outlier group (2^18) is not, and takes `f32` lanes, which
// hold it exactly — so every region of every scheme runs in exact lanes.
const _: () = assert!(group_sum_bound(LANES, 4, 4) == 1024 && 1024 <= I16_LANE_BOUND);
const _: () = assert!(group_sum_bound(LANES, 3, 3) <= I16_LANE_BOUND);
const _: () = assert!(group_sum_bound(LANES, 8, 4) <= I16_LANE_BOUND);
const _: () = assert!(group_sum_bound(LANES, MAX_BITS, MAX_BITS) > I16_LANE_BOUND);
const _: () = assert!(group_sum_bound(LANES, MAX_BITS, MAX_BITS) < 1 << f32::MANTISSA_DIGITS);

/// Plain integer GEMM with i32 accumulation: `a (m x k) @ b_t (n x k)^T`,
/// returning the raw i32 accumulators. This is the "pure INT4/INT8 GEMM
/// without any quantization operation" baseline of the §5.4.2 ablation.
///
/// # Panics
///
/// Panics if the inner dimensions disagree. Debug builds also panic when
/// `k` exceeds [`MAX_ACC_K`], the largest reduction length the i32
/// accumulator provably survives.
pub fn int_gemm_i32(a: &[i8], b_t: &[i8], m: usize, n: usize, k: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "a size mismatch");
    assert_eq!(b_t.len(), n * k, "b size mismatch");
    debug_assert!(
        k <= MAX_ACC_K,
        "k = {k} exceeds MAX_ACC_K = {MAX_ACC_K}: i32 accumulation could overflow"
    );
    // `chunks_exact` walks the row-major operands without bounds checks;
    // `k.max(1)` keeps the chunk size legal when k == 0 (both inputs are
    // then empty and the all-zero output is already correct).
    let mut out = vec![0i32; m * n];
    for (ar, out_row) in a.chunks_exact(k.max(1)).zip(out.chunks_mut(n.max(1))) {
        for (br, o) in b_t.chunks_exact(k.max(1)).zip(out_row.iter_mut()) {
            // Each |product| <= 2^(bA-1) * 2^(bW-1) and k <= MAX_ACC_K, so
            // the reduction stays inside i32 at the widest setting:
            // bound: MAX_ACC_K
            let dot: i32 = ar
                .iter()
                .zip(br)
                .map(|(&x, &w)| i32::from(x) * i32::from(w))
                .sum();
            *o = dot;
        }
    }
    out
}

/// Fused group-dequantization GEMM (paper Fig. 8).
///
/// `a` is a group-quantized activation matrix (`m x k`, quantized per token
/// per group) and `w` a group-quantized weight in `n x k` (transposed)
/// layout. Both must share the same group size; bit widths may differ (e.g.
/// INT4 activations against INT8 outlier weights never happens — regions
/// match — but W4A8-style mixes are legal).
///
/// Runs on [`Pool::current`], parallelized over blocks of weight rows.
/// Every block writes an exclusive tile of the output, so the result is
/// bit-identical for any thread count — and to
/// [`reference::fused_group_gemm`], which the property suite asserts with
/// `==`, not approximate equality.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] when inner dimensions or group
/// sizes disagree.
///
/// # Example
///
/// ```
/// use atom_kernels::{fused_group_gemm, GroupQuantized, QuantSpec};
/// use atom_tensor::Matrix;
///
/// let spec = QuantSpec::new(4, 16); // INT4, groups of 16 (paper's W4A4)
/// let a = GroupQuantized::quantize(&Matrix::full(2, 32, 0.5), spec);
/// let w = GroupQuantized::quantize(&Matrix::full(3, 32, 0.25), spec);
/// let out = fused_group_gemm(&a, &w).expect("shapes agree");
/// assert_eq!((out.rows(), out.cols()), (2, 3));
/// // The fused pipeline matches dequantize-then-FP32-GEMM up to summation
/// // order; 32 x (0.5 * 0.25) = 4.0 up to INT4 rounding.
/// let reference = atom_kernels::gemm::reference_gemm(&a, &w);
/// assert!((out.row(0)[0] - reference.row(0)[0]).abs() < 1e-5);
/// assert!((out.row(0)[0] - 4.0).abs() < 1.0);
/// ```
pub fn fused_group_gemm(a: &GroupQuantized, w: &GroupQuantized) -> Result<Matrix, KernelError> {
    mixed_gemm(a, w, None)
}

/// One operand's `(cols, effective group)`.
fn shape(q: &GroupQuantized) -> (usize, usize) {
    (q.cols(), effective_group(q.spec(), q.cols()))
}

/// Validates one region's operands, each given as `(cols, effective
/// group)`, and returns the shared group size.
fn shared_group(
    (a_cols, group_a): (usize, usize),
    (w_cols, group_w): (usize, usize),
) -> Result<usize, KernelError> {
    if a_cols != w_cols {
        return Err(KernelError::ShapeMismatch(format!(
            "inner dimension: activations k={a_cols} vs weights k={w_cols}"
        )));
    }
    if group_a != group_w {
        return Err(KernelError::ShapeMismatch(format!(
            "group size: activations {group_a} vs weights {group_w}"
        )));
    }
    debug_assert!(
        group_a <= MAX_ACC_K,
        "group {group_a} exceeds MAX_ACC_K = {MAX_ACC_K}: per-group i32 accumulation \
         could overflow"
    );
    Ok(group_a)
}

/// Records one GEMM launch over `bytes` of packed operands and `rows`
/// activation rows; the returned guards time it until they drop.
fn record_launch(bytes: usize, rows: usize) -> (TimerGuard<'static>, SpanGuard<'static>) {
    let bytes = bytes as u64;
    let t = Telemetry::global();
    let guards = (
        t.timer(names::OP_GEMM_WALL_NS),
        span!(names::SPAN_GEMM_W4A4, bytes = bytes, rows = rows),
    );
    t.counter_add(names::OP_GEMM_BYTES, bytes);
    t.counter_add(names::OP_GEMM_ROWS, rows as u64);
    t.counter_add(names::OP_GEMM_CALLS, 1);
    guards
}

/// Activation rows from which a GEMM runs as column panels. At one to
/// three rows — a decode step — the per-output fold is the faster loop;
/// from four rows on, the panel loop is (EXPERIMENTS.md has the
/// crossover). Which loop runs never changes a bit: both equal
/// [`mod@reference`].
pub const PANEL_MIN_ROWS: usize = 4;

/// Activation rows the panel loop folds at once: each weight lane it loads
/// serves this many rows.
const ROW_BLOCK: usize = 4;

// A tile of `KERNEL_ROW_BLOCK` weight rows is whole panels, so no panel
// straddles two of the pool's chunks.
const _: () = assert!(KERNEL_ROW_BLOCK.is_multiple_of(PANEL_COLS));

/// Decoded weight codes the per-output fold holds at a time: 16 KiB of
/// `i16` lanes, half a typical L1 data cache, leaving room for the
/// activation rows streaming past. A 32-row tile fits whole up to 256
/// channels.
const DECODE_BLOCK_CODES: usize = 8 * 1024;

/// One precision region of a GEMM — the INT4 normal channels or the INT8
/// outlier channels: its activation operand, its weights row-major, and,
/// for a call the panel loop may run, the same weights panel-major.
/// Without the panels a call runs the per-output fold; the bits are the
/// same either way.
#[derive(Debug, Clone, Copy)]
pub struct GemmRegion<'a> {
    /// Activation codes and scales.
    pub act: &'a ActivationLanes,
    /// The weights in their canonical, row-major form.
    pub weight: &'a GroupQuantized,
    /// [`WeightPanels::new`] of `weight`.
    pub panels: Option<&'a WeightPanels>,
}

/// One decoded row: its codes as `i16` lanes, and its group scales.
type CodeRow<'r> = (&'r [i16], &'r [f32]);

impl<'a> GemmRegion<'a> {
    /// Checks the operands agree.
    fn validate(&self) -> Result<(), KernelError> {
        let (a, w) = (self.act, self.weight);
        let group = shared_group((a.cols(), a.group()), shape(w))?;
        debug_assert!(self.panels.is_none_or(|p| {
            (p.rows(), p.cols(), p.group(), p.bits()) == (w.rows(), w.cols(), group, w.spec().bits)
        }));
        Ok(())
    }

    /// Bytes of packed operands the region streams.
    fn packed_bytes(&self) -> usize {
        self.act.packed_bytes() + self.weight.packed_bytes()
    }

    /// The region as the panel loop runs it, if it carries panels and its
    /// group sums fit exact lanes.
    fn panel_region(self) -> Option<PanelRegion<'a>> {
        let panels = self.panels?;
        let lanes = Lanes::for_region(self.act.group(), self.act.bits(), panels.bits())?;
        Some(PanelRegion {
            act: self.act,
            weight: self.weight,
            panels,
            lanes,
            blocks: row_blocks(self.act),
        })
    }

    /// Weight rows `first ..`'s group scales, `n_groups` per row.
    fn weight_scales(&self, first: usize, rows: usize) -> &[f32] {
        let n_groups = self.act.n_groups();
        self.weight
            .scales()
            .as_slice()
            .get(first * n_groups..(first + rows) * n_groups)
            .unwrap_or(&[])
    }

    /// Decodes weight rows `first .. first + rows` back to back, plus
    /// `padded` zero codes of slack for the last window's overhang.
    fn decode_weight_rows(&self, first: usize, rows: usize) -> Vec<i16> {
        let cols = self.act.cols();
        let mut codes = vec![0i16; rows * cols + self.act.padded()];
        if let Some(run) = codes.get_mut(..rows * cols) {
            self.weight.values().unpack_rows(first, run);
        }
        codes
    }

    /// The rows of a block [`decode_weight_rows`] decoded, as [`CodeRow`]s:
    /// weight row `first + jj`'s codes start at `jj * cols` and run
    /// open-ended, so its group windows may overhang.
    ///
    /// [`decode_weight_rows`]: Self::decode_weight_rows
    fn weight_rows<'s>(&'s self, block: &'s [i16], first: usize, rows: usize) -> Vec<CodeRow<'s>> {
        let cols = self.act.cols();
        (0..rows)
            .map(|jj| block.get(jj * cols..).unwrap_or(&[]))
            .zip(self.weight_scales(first, rows).chunks_exact(self.act.n_groups().max(1)))
            .collect()
    }

    /// This region's term of one output element: the ascending-group FP32
    /// fold of an activation row against a decoded weight row — steps ①–③
    /// of Fig. 8 exactly as in [`reference::fused_group_gemm`].
    ///
    /// Group `g` of the weight row is read as the `padded`-wide *window*
    /// starting at its first code: where the window overhangs the group —
    /// into the next group, the next row, or the slack after the block —
    /// it meets the activation's zero padding, so whatever codes it holds
    /// multiply to exactly 0 and the i32 group sum is the sum over the real
    /// codes alone.
    ///
    /// Never inlined: as its own function the group loop compiles to one
    /// tight block; inlined into the two-region sweep the compiler
    /// re-derives the `zip` bounds every group (measured 6% slower at
    /// `m = 64`, 25% when the row lookups were inlined with it).
    #[inline(never)]
    fn fold(&self, a_row: CodeRow<'_>, w_row: CodeRow<'_>) -> f32 {
        let (a, w) = (a_row.0, w_row.0);
        let (sa, sw) = (a_row.1, w_row.1);
        let (group, padded) = (self.act.group(), self.act.padded());
        if padded == LANES && (group == LANES || self.act.n_groups() <= 1) {
            // The shapes every scheme produces: one fixed-width block per
            // group, and the weight windows tile the row.
            a.chunks_exact(LANES)
                .zip(w.chunks_exact(LANES))
                .zip(sa.iter().zip(sw))
                .map(|((ga, gw), (&scale_a, &scale_w))| {
                    // A block holds at most `group <= MAX_ACC_K` real
                    // codes; the rest multiply a zero:
                    // bound: MAX_ACC_K
                    let iacc: i32 = ga
                        .iter()
                        .zip(gw)
                        .map(|(&x, &y)| i32::from(x) * i32::from(y))
                        .sum();
                    iacc as f32 * scale_a * scale_w
                })
                .sum()
        } else {
            // Any other group size: a weight window every `group` codes,
            // `padded` wide, walked in blocks of LANES like its activation
            // group. The block sums add up in f64, which holds every
            // integer below 2^53 exactly, so the total is the exact group
            // sum and its `as f32` rounds the same integer `iacc as f32`
            // rounds in the reference.
            a.chunks_exact(padded)
                .zip(w.windows(padded).step_by(group))
                .zip(sa.iter().zip(sw))
                .map(|((ga, gw), (&scale_a, &scale_w))| {
                    let group_sum: f64 = ga
                        .chunks_exact(LANES)
                        .zip(gw.chunks_exact(LANES))
                        .map(|(ba, bw)| {
                            // bound: MAX_ACC_K
                            let block: i32 = ba
                                .iter()
                                .zip(bw)
                                .map(|(&x, &y)| i32::from(x) * i32::from(y))
                                .sum();
                            f64::from(block)
                        })
                        .sum();
                    group_sum as f32 * scale_a * scale_w
                })
                .sum()
        }
    }

    /// The per-output fold over one tile: weight rows `first ..` decode in
    /// blocks small enough to stay cache-resident (the whole tile at the
    /// serving widths); one decode of a block serves all `m` activation
    /// rows, and a mixed GEMM writes `fold(normal) + fold(outlier)` once
    /// per element.
    fn fold_tile(&self, outlier: Option<&Self>, first: usize, tile: &mut [f32]) {
        let rows_here = tile.len() / self.act.rows().max(1);
        let block_rows = (DECODE_BLOCK_CODES / self.act.cols().max(1)).clamp(1, KERNEL_ROW_BLOCK);
        for at in (0..rows_here).step_by(block_rows) {
            let (first, rows) = (first + at, block_rows.min(rows_here - at));
            let codes_n = self.decode_weight_rows(first, rows);
            let w_n = self.weight_rows(&codes_n, first, rows);
            let codes_o = outlier.map(|r| r.decode_weight_rows(first, rows));
            let w_o = outlier
                .zip(codes_o.as_deref())
                .map(|(r, codes)| (r, r.weight_rows(codes, first, rows)));
            // Run `i` of the tile holds out[i][tile's first ..]; this
            // block's part of it starts `at` in.
            let runs = tile
                .chunks_exact_mut(rows_here.max(1))
                .filter_map(|run| run.get_mut(at..at + rows));
            match &w_o {
                None => {
                    for (run, a_n) in runs.zip(self.act.iter_rows()) {
                        for (o, &w) in run.iter_mut().zip(&w_n) {
                            *o = self.fold(a_n, w);
                        }
                    }
                }
                Some((r, w_o)) => {
                    let rows = self.act.iter_rows().zip(r.act.iter_rows());
                    for (run, (a_n, a_o)) in runs.zip(rows) {
                        for ((o, &w), &w_out) in run.iter_mut().zip(&w_n).zip(w_o) {
                            *o = self.fold(a_n, w) + r.fold(a_o, w_out);
                        }
                    }
                }
            }
        }
    }
}

/// The lanes the panel loop sums a region's groups in: `i16` where every
/// group sum fits one ([`I16_LANE_BOUND`]), otherwise `f32`, which holds
/// every integer below 2^24 exactly. Either way each lane sum is the exact
/// integer `iacc`.
#[derive(Debug, Clone, Copy)]
enum Lanes {
    I16,
    F32,
}

impl Lanes {
    /// The exact lanes for groups of `group` codes, `bits_a` by `bits_w`
    /// bits wide — `None` if a group sum could reach 2^24.
    fn for_region(group: usize, bits_a: u8, bits_w: u8) -> Option<Lanes> {
        let bound = group_sum_bound(group, bits_a, bits_w);
        if bound <= I16_LANE_BOUND {
            Some(Lanes::I16)
        } else if bound < 1 << f32::MANTISSA_DIGITS {
            Some(Lanes::F32)
        } else {
            None
        }
    }
}

/// A lane type of the panel loop: a weight or activation code widens into
/// it, products add up in it, and its value is the exact group sum.
trait Lane: Copy {
    const ZERO: Self;
    fn from_code(code: i8) -> Self;
    fn from_act(code: i16) -> Self;
    /// `sum + x * w`.
    fn mac(sum: Self, x: Self, w: Self) -> Self;
    fn value(self) -> f32;
}

impl Lane for i16 {
    const ZERO: i16 = 0;
    fn from_code(code: i8) -> i16 {
        i16::from(code)
    }
    fn from_act(code: i16) -> i16 {
        code
    }
    fn mac(sum: i16, x: i16, w: i16) -> i16 {
        // A region runs in `i16` lanes only when its group sums stay
        // within them, so no partial sum wraps; the wrapping ops only spare
        // the compiler an overflow branch:
        // bound: I16_LANE_BOUND
        sum.wrapping_add(x.wrapping_mul(w))
    }
    fn value(self) -> f32 {
        f32::from(self)
    }
}

impl Lane for f32 {
    const ZERO: f32 = 0.0;
    fn from_code(code: i8) -> f32 {
        f32::from(code)
    }
    fn from_act(code: i16) -> f32 {
        f32::from(code)
    }
    fn mac(sum: f32, x: f32, w: f32) -> f32 {
        sum + x * w
    }
    fn value(self) -> f32 {
        self
    }
}

/// One panel's code slots, as [`WeightPanels`] lays them, and its group
/// scales, `[group][column]`.
type Panel<'p> = (&'p [[i8; PANEL_COLS]], &'p [[f32; PANEL_COLS]]);

/// [`LANES`] code slots of a block of [`ROW_BLOCK`] activation rows,
/// slot-major: `[t][r]` is code `t` of the block's row `r`.
type RowBlock = [[i16; ROW_BLOCK]; LANES];

/// A region the panel loop runs: its activations (scales as they are,
/// codes in row blocks), its weights (the scales of the canonical form,
/// the codes panel-major), and the lanes its group sums fit.
struct PanelRegion<'a> {
    act: &'a ActivationLanes,
    weight: &'a GroupQuantized,
    panels: &'a WeightPanels,
    lanes: Lanes,
    /// Row block `b`'s codes at `b * row slots / LANES ..`.
    blocks: Vec<RowBlock>,
}

/// The activation codes in blocks of [`ROW_BLOCK`] rows, laid out once per
/// call so that every panel reads a block's codes slot-major, four rows to
/// a slot, with no per-panel transpose. A ragged last block repeats its
/// last row (its copies' results are dropped): it costs a whole block,
/// which measured cheaper than 1- to 3-row forms of the loop, whose
/// codegen loses the 16-column vectorisation.
fn row_blocks(act: &ActivationLanes) -> Vec<RowBlock> {
    let rows: Vec<CodeRow<'_>> = act.iter_rows().collect();
    let per_block = act.n_groups() * act.padded() / LANES;
    let mut blocks = vec![[[0; ROW_BLOCK]; LANES]; rows.len().div_ceil(ROW_BLOCK) * per_block];
    for (b, block) in blocks.chunks_exact_mut(per_block.max(1)).enumerate() {
        let Some(block_rows) = row_block(&rows, b * ROW_BLOCK) else { continue };
        for (r, (codes, _)) in block_rows.iter().enumerate() {
            for (slots, codes) in block.iter_mut().zip(codes.chunks_exact(LANES)) {
                for (slot, &code) in slots.iter_mut().zip(codes) {
                    if let Some(x) = slot.get_mut(r) {
                        *x = code;
                    }
                }
            }
        }
    }
    blocks
}

impl PanelRegion<'_> {
    /// The panel loop over one tile: per panel of [`PANEL_COLS`] weight
    /// rows, activation rows fold all of them at once, [`ROW_BLOCK`] rows
    /// at a time, and a mixed GEMM writes `fold(normal) + fold(outlier)`
    /// once per element.
    fn panel_tile(&self, outlier: Option<&Self>, first: usize, tile: &mut [f32]) {
        let rows_here = tile.len() / self.act.rows().max(1);
        let a_n: Vec<CodeRow<'_>> = self.act.iter_rows().collect();
        let a_o: Vec<CodeRow<'_>> = outlier.map(|o| o.act.iter_rows().collect()).unwrap_or_default();
        let (mut sw_n, mut sw_o) = (Vec::new(), Vec::new());
        for at in (0..rows_here).step_by(PANEL_COLS) {
            let width = PANEL_COLS.min(rows_here - at);
            let panel = (first + at) / PANEL_COLS;
            self.panel_scales(first + at, width, &mut sw_n);
            if let Some(o) = outlier {
                o.panel_scales(first + at, width, &mut sw_o);
            }
            let mut runs: Vec<&mut [f32]> = tile
                .chunks_exact_mut(rows_here.max(1))
                .filter_map(|run| run.get_mut(at..at + width))
                .collect();
            for (b, runs) in runs.chunks_mut(ROW_BLOCK).enumerate() {
                let Some(rows) = row_block(&a_n, b * ROW_BLOCK) else { continue };
                let mut acc = self.block(b, rows, (self.panels.panel(panel), &sw_n));
                if let Some((o, rows)) = outlier.zip(row_block(&a_o, b * ROW_BLOCK)) {
                    for (acc, o) in acc.iter_mut().zip(o.block(b, rows, (o.panels.panel(panel), &sw_o))) {
                        for (s, o) in acc.iter_mut().zip(o) {
                            *s += o;
                        }
                    }
                }
                for (run, acc) in runs.iter_mut().zip(&acc) {
                    run.copy_from_slice(acc.get(..width).unwrap_or(&[]));
                }
            }
        }
    }

    /// Weight rows `first .. first + width`'s group scales, transposed to
    /// `[group][column]` (lanes past the last row zero) into `out`.
    fn panel_scales(&self, first: usize, width: usize, out: &mut Vec<[f32; PANEL_COLS]>) {
        let n_groups = self.act.n_groups();
        out.clear();
        out.resize(n_groups, [0.0; PANEL_COLS]);
        let rows = self.weight.scales().as_slice().get(first * n_groups..(first + width) * n_groups);
        for (c, row) in rows.unwrap_or(&[]).chunks_exact(n_groups.max(1)).enumerate() {
            for (group, &s) in out.iter_mut().zip(row) {
                if let Some(lane) = group.get_mut(c) {
                    *lane = s;
                }
            }
        }
    }

    /// [`panel_fold`] of row block `b` (its `rows`, for their scales)
    /// against one panel, in this region's lanes.
    fn block(
        &self,
        b: usize,
        rows: [CodeRow<'_>; ROW_BLOCK],
        panel: Panel<'_>,
    ) -> [[f32; PANEL_COLS]; ROW_BLOCK] {
        let (padded, per_block) = (self.act.padded(), self.act.n_groups() * self.act.padded() / LANES);
        let codes = self.blocks.get(b * per_block..(b + 1) * per_block).unwrap_or(&[]);
        let scales = rows.map(|(_, scales)| scales);
        match self.lanes {
            Lanes::I16 => panel_fold::<i16>((codes, scales), panel, padded),
            Lanes::F32 => panel_fold::<f32>((codes, scales), panel, padded),
        }
    }
}

/// Activation rows `i .. i + ROW_BLOCK`, the last row repeated past the
/// end (see [`row_blocks`]).
fn row_block<T: Copy>(rows: &[T], i: usize) -> Option<[T; ROW_BLOCK]> {
    let rest = rows.get(i..)?;
    let last = *rest.get(..ROW_BLOCK).unwrap_or(rest).last()?;
    Some(std::array::from_fn(|r| rest.get(r).copied().unwrap_or(last)))
}

/// [`ROW_BLOCK`] activation rows' terms of one panel's [`PANEL_COLS`]
/// outputs: steps ①–③ of Fig. 8 for `4 x 16` outputs at once, each weight
/// lane loaded once for all four rows. Per group, 16 lane sums per row
/// `s[c] = s[c] + x[t] * w[t][c]` start from 0, `t` ascending; each is
/// exactly output `c`'s integer `iacc` (`Lanes` picks lanes that hold every
/// partial sum; an integer 0 comes out `+0.0`, as `0i32 as f32` does), so
/// no output pays a horizontal reduction. Then `acc[c] += s[c] * scale_a *
/// scale_w[c]`, groups ascending from the value `Sum<f32>` starts at — the
/// reference's fold, element for element.
///
/// Never inlined, like [`GemmRegion::fold`]: inlined into the tile loop
/// it measured 4–8 % slower.
#[inline(never)]
fn panel_fold<L: Lane>(
    (blocks, scales_a): (&[RowBlock], [&[f32]; ROW_BLOCK]),
    (codes, scales): Panel<'_>,
    padded: usize,
) -> [[f32; PANEL_COLS]; ROW_BLOCK] {
    let mut acc = [[sum_start(); PANEL_COLS]; ROW_BLOCK];
    let mut blocks = blocks.iter();
    let mut row_scales = scales_a.map(<[f32]>::iter);
    for (group, sw) in codes.chunks_exact(padded.max(1)).zip(scales) {
        let mut sums = [[L::ZERO; PANEL_COLS]; ROW_BLOCK];
        for (slots, xt) in group.chunks_exact(LANES).zip(blocks.by_ref()) {
            for (w, x) in slots.iter().zip(xt) {
                let w = w.map(L::from_code);
                for (sums, &x) in sums.iter_mut().zip(x) {
                    let x = L::from_act(x);
                    for (s, &w) in sums.iter_mut().zip(&w) {
                        *s = L::mac(*s, x, w);
                    }
                }
            }
        }
        let scale_a = row_scales.each_mut().map(|s| s.next().copied().unwrap_or(0.0));
        for ((acc, sums), scale_a) in acc.iter_mut().zip(&sums).zip(scale_a) {
            for ((o, &s), &scale_w) in acc.iter_mut().zip(sums).zip(sw) {
                *o += s.value() * scale_a * scale_w;
            }
        }
    }
    acc
}

/// The value `Sum<f32>` folds from, so a fold written out by hand starts
/// where the reference's `.sum()` does.
fn sum_start() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// The GEMM kernel: one sweep over the weight rows for every precision
/// region at once.
///
/// The reference streams the fully-unpacked weight matrix (`n*k` bytes)
/// through the cache once per *activation row*; this kernel inverts the
/// loop order so the weights stream exactly once per GEMM. Work
/// parallelizes over blocks of [`KERNEL_ROW_BLOCK`] weight rows: block `b`
/// owns weight rows `b*RB ..` and writes the exclusive span
/// `tiles[b*RB*m ..]`, an `m x RB` tile of the output, so any thread count
/// produces the same bytes. From [`PANEL_MIN_ROWS`] activation rows on, a
/// tile runs column panels ([`PanelRegion::panel_tile`]) when every region
/// carries its panels and its group sums fit exact lanes; otherwise it
/// runs the per-output fold ([`GemmRegion::fold_tile`]).
///
/// Bit-identity with [`mod@reference`] holds for both loops because (a)
/// each per-group integer sum is exact — no `i32` overflow by the
/// [`MAX_ACC_K`] cap, no `i16` wrap or `f32` rounding by the lane bounds
/// beside it, and every code outside the group meets a zero — so its value
/// is independent of evaluation order and of the padding; (b) each
/// region's FP32 epilogue folds the per-group terms `sum * scale_a *
/// scale_w` in the same ascending-group order from the same start as
/// `sum::<f32>()`; and (c) the reference composition adds the outlier
/// matrix as `out + 1.0 * outlier`, and `1.0 * x` is `x` exactly.
fn gemm_sweep<'a>(normal: GemmRegion<'a>, outlier: Option<GemmRegion<'a>>) -> Matrix {
    let (m, n) = (normal.act.rows(), normal.weight.rows());
    let panels = |r: GemmRegion<'a>| r.panel_region().filter(|_| m >= PANEL_MIN_ROWS);
    match (panels(normal), outlier.map(panels)) {
        (Some(p), None) => tiled(m, n, |first, tile| p.panel_tile(None, first, tile)),
        (Some(p), Some(Some(o))) => tiled(m, n, |first, tile| p.panel_tile(Some(&o), first, tile)),
        _ => tiled(m, n, |first, tile| normal.fold_tile(outlier.as_ref(), first, tile)),
    }
}

/// Runs `fill(first, tile)` over the `m x n` output's tiles on
/// [`Pool::current`] and lays them out. `n*m` splits into tiles of `RB`
/// weight rows: tile `b` is `m` runs of `rows_here` outputs (all `RB` but
/// in the last tile), run `i` holding out[i][b*RB ..], and `first = b*RB`.
/// A tile is a contiguous exclusive chunk. Outputs a tile leaves unwritten
/// (there are none unless `k = 0`) stay `+0.0`, as the reference leaves them.
fn tiled(m: usize, n: usize, fill: impl Fn(usize, &mut [f32]) + Sync) -> Matrix {
    let mut tiles = vec![0f32; n * m];
    let tile_len = m.max(1) * KERNEL_ROW_BLOCK;
    Pool::current().par_chunks_mut(&mut tiles, tile_len, |b, tile| {
        fill(b * KERNEL_ROW_BLOCK, tile);
    });

    // Lay the tiles' runs into the m x n output on the caller thread.
    let mut out = Matrix::zeros(m, n);
    for (b, tile) in tiles.chunks(tile_len).enumerate() {
        let rows_here = tile.len() / m.max(1);
        let first = b * KERNEL_ROW_BLOCK;
        for (i, run) in tile.chunks_exact(rows_here.max(1)).enumerate() {
            if let Some(dst) = out.row_mut(i).get_mut(first..first + rows_here) {
                dst.copy_from_slice(run);
            }
        }
    }
    out
}

/// Mixed-precision GEMM (paper §4.1): the reordered operands carry their
/// normal region (low-bit) and outlier region (INT8) separately; partial
/// results sum in FP32.
///
/// Pass `None` for the outlier pair when no outliers are kept. Decodes the
/// activations into lanes and, for a call of [`PANEL_MIN_ROWS`] rows or
/// more, lays the weights out panel-major, then runs [`lane_gemm`] — the
/// same sweep over both regions at once on [`Pool::current`], one GEMM
/// launch in telemetry. Every output element is written by one chunk, so
/// no reduction ever races. Bit-identical to [`reference::mixed_gemm`].
///
/// # Errors
///
/// Propagates shape mismatches from the underlying fused GEMMs, and rejects
/// row-count mismatches between the regions.
pub fn mixed_gemm(
    a_normal: &GroupQuantized,
    w_normal: &GroupQuantized,
    outliers: Option<(&GroupQuantized, &GroupQuantized)>,
) -> Result<Matrix, KernelError> {
    let panels = |w| (a_normal.rows() >= PANEL_MIN_ROWS).then(|| WeightPanels::new(w));
    let (a_n, p_n) = (ActivationLanes::decode(a_normal), panels(w_normal));
    let outliers = outliers.map(|(a, w)| (ActivationLanes::decode(a), w, panels(w)));
    let normal = GemmRegion {
        act: &a_n,
        weight: w_normal,
        panels: p_n.as_ref(),
    };
    let outlier = outliers.as_ref().map(|(act, weight, panels)| GemmRegion {
        act,
        weight,
        panels: panels.as_ref(),
    });
    lane_gemm(normal, outlier)
}

/// Mixed-precision GEMM over operands already in the kernel's layouts —
/// what a quantized linear runs, with its activations quantized straight
/// into lanes and its weights laid out panel-major once, when it was
/// quantized. Bit-identical to [`mixed_gemm`] over the same codes and
/// scales, and so to [`reference::mixed_gemm`].
///
/// # Errors
///
/// As [`mixed_gemm`].
pub fn lane_gemm(normal: GemmRegion<'_>, outlier: Option<GemmRegion<'_>>) -> Result<Matrix, KernelError> {
    let Some(outlier) = outlier else {
        normal.validate()?;
        let _launch = record_launch(normal.packed_bytes(), normal.act.rows());
        return Ok(gemm_sweep(normal, None));
    };
    let rows_agree = outlier.act.rows() == normal.act.rows()
        && outlier.weight.rows() == normal.weight.rows();
    // A region without channels contributes the empty sum; the sweep walks
    // decoded rows, so each region then runs alone and the results add.
    if normal.act.cols() == 0 || outlier.act.cols() == 0 {
        let mut out = lane_gemm(normal, None)?;
        if !rows_agree {
            return Err(region_rows_mismatch());
        }
        let o = lane_gemm(outlier, None)?;
        out.add_scaled_in_place(&o, 1.0);
        return Ok(out);
    }
    normal.validate()?;
    if !rows_agree {
        return Err(region_rows_mismatch());
    }
    outlier.validate()?;
    let _launch = record_launch(normal.packed_bytes() + outlier.packed_bytes(), normal.act.rows());
    Ok(gemm_sweep(normal, Some(outlier)))
}

/// [`mixed_gemm`] with `pool` installed. Kept only for the serving
/// benchmark's width probe (`benchmark/src/probes.rs`), which compiles
/// against it and goes away in benchmark revision 2; everything else
/// installs a pool around [`mixed_gemm`] itself.
///
/// # Errors
///
/// As [`mixed_gemm`].
pub fn mixed_gemm_with(
    pool: &Pool,
    a_normal: &GroupQuantized,
    w_normal: &GroupQuantized,
    outliers: Option<(&GroupQuantized, &GroupQuantized)>,
) -> Result<Matrix, KernelError> {
    pool.install(|| mixed_gemm(a_normal, w_normal, outliers))
}

fn region_rows_mismatch() -> KernelError {
    KernelError::ShapeMismatch("outlier region row counts disagree with normal region".into())
}

/// The bit-identity oracle: the plain loop nests [`fused_group_gemm`] and
/// [`mixed_gemm`] must reproduce bit for bit, on the caller thread. Tests
/// call these by name; nothing on a serving path does.
pub mod reference {
    use super::{region_rows_mismatch, shape, shared_group};
    use crate::group::GroupQuantized;
    use crate::KernelError;
    use atom_tensor::Matrix;

    /// Fused group-dequantization GEMM as its definition reads: both
    /// operands fully unpacked, one iterator dot per output element with
    /// the Fig. 8 epilogue.
    ///
    /// # Errors
    ///
    /// As [`fused_group_gemm`](super::fused_group_gemm).
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::{fused_group_gemm, gemm::reference, GroupQuantized, QuantSpec};
    /// use atom_parallel::Pool;
    /// use atom_tensor::Matrix;
    ///
    /// let spec = QuantSpec::new(4, 16);
    /// let a = GroupQuantized::quantize(&Matrix::full(2, 32, 0.5), spec);
    /// let w = GroupQuantized::quantize(&Matrix::full(3, 32, 0.25), spec);
    /// let oracle = reference::fused_group_gemm(&a, &w).unwrap();
    /// let kernel = Pool::new(2).install(|| fused_group_gemm(&a, &w)).unwrap();
    /// assert_eq!(oracle.as_slice(), kernel.as_slice()); // bit-identical, not approximate
    /// ```
    pub fn fused_group_gemm(a: &GroupQuantized, w: &GroupQuantized) -> Result<Matrix, KernelError> {
        let group = shared_group(shape(a), shape(w))?;
        let (m, n, k) = (a.rows(), w.rows(), a.cols());
        // Unpack both operands once, through the width-agnostic decode
        // alone: the reference shares no INT4/INT8 byte loop with the
        // kernel it checks.
        let av = a.values().unpack_generic();
        let wv = w.values().unpack_generic();
        let a_scales = a.scales();
        let w_scales = w.scales();

        // The loop nest walks both operands as K-sized rows and both scale
        // matrices as group-aligned rows; `chunks`/`zip` make every access
        // bounds-check-free and total (`scales` has one column per K-group, so
        // the group walk is bounded exactly as before).
        let mut out = Matrix::zeros(m, n);
        for (i, out_row) in out.as_mut_slice().chunks_mut(n.max(1)).enumerate() {
            let Some(ar) = av.get(i * k..(i + 1) * k) else {
                continue;
            };
            let sa = a_scales.row(i);
            for ((br, sw_row), o) in wv
                .chunks_exact(k.max(1))
                .zip(w_scales.iter_rows())
                .zip(out_row.iter_mut())
            {
                *o = ar
                    .chunks(group)
                    .zip(br.chunks(group))
                    .zip(sa.iter().zip(sw_row))
                    .map(|((ga, gw), (&scale_a, &scale_w))| {
                        // Step 1: low-bit integer MMA with i32 accumulation.
                        // The group length is capped at MAX_ACC_K above, so:
                        // bound: MAX_ACC_K
                        let iacc: i32 = ga
                            .iter()
                            .zip(gw)
                            .map(|(&x, &w)| i32::from(x) * i32::from(w))
                            .sum();
                        // Steps 2+3: dequantize the group's partial result and
                        // accumulate in FP32, in place.
                        iacc as f32 * scale_a * scale_w
                    })
                    .sum();
            }
        }
        Ok(out)
    }

    /// Mixed-precision GEMM as its definition reads (§4.1): the INT4
    /// normal-region GEMM, then the INT8 outlier-region GEMM, summed in
    /// FP32 on the caller thread.
    ///
    /// # Errors
    ///
    /// As [`mixed_gemm`](super::mixed_gemm).
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::{gemm::reference, mixed_gemm, GroupQuantized, QuantSpec};
    /// use atom_tensor::Matrix;
    ///
    /// let a = GroupQuantized::quantize(&Matrix::full(2, 32, 1.0), QuantSpec::new(4, 16));
    /// let w = GroupQuantized::quantize(&Matrix::full(3, 32, 1.0), QuantSpec::new(4, 16));
    /// let a_o = GroupQuantized::quantize(&Matrix::full(2, 10, 9.0), QuantSpec::new(8, 16));
    /// let w_o = GroupQuantized::quantize(&Matrix::full(3, 10, 1.0), QuantSpec::new(8, 16));
    /// let outliers = Some((&a_o, &w_o));
    /// let oracle = reference::mixed_gemm(&a, &w, outliers).unwrap();
    /// let kernel = mixed_gemm(&a, &w, outliers).unwrap();
    /// assert_eq!(oracle.as_slice(), kernel.as_slice());
    /// ```
    pub fn mixed_gemm(
        a_normal: &GroupQuantized,
        w_normal: &GroupQuantized,
        outliers: Option<(&GroupQuantized, &GroupQuantized)>,
    ) -> Result<Matrix, KernelError> {
        let mut out = fused_group_gemm(a_normal, w_normal)?;
        if let Some((a_out, w_out)) = outliers {
            if a_out.rows() != a_normal.rows() || w_out.rows() != w_normal.rows() {
                return Err(region_rows_mismatch());
            }
            let o = fused_group_gemm(a_out, w_out)?;
            out.add_scaled_in_place(&o, 1.0);
        }
        Ok(out)
    }
}

/// The numerical definition: dequantize both operands and run the FP32
/// GEMM. The fused kernel matches this up to FP32 summation order (tests
/// verify closeness); [`mod@reference`] is the oracle it matches bit for bit.
pub fn reference_gemm(a: &GroupQuantized, w: &GroupQuantized) -> Matrix {
    a.dequantize().matmul_nt(&w.dequantize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::QuantSpec;
    use atom_tensor::SeededRng;

    #[test]
    fn int_gemm_known_values() {
        // [1 2; 3 4] @ [5 6; 7 8]^T(stored as rows of B^T) -> with b_t rows = columns of b
        let a: Vec<i8> = vec![1, 2, 3, 4];
        let b_t: Vec<i8> = vec![5, 6, 7, 8]; // b_t row 0 = (5,6), row 1 = (7,8)
        let out = int_gemm_i32(&a, &b_t, 2, 2, 2);
        assert_eq!(out, vec![17, 23, 39, 53]);
    }

    #[test]
    fn int_gemm_survives_largest_admissible_k() {
        // W8A8 worst case: every product is (-128)*(-128) = 2^14, and
        // MAX_ACC_K of them sum to 131071 * 16384 = 2147467264, inside
        // i32::MAX = 2147483647 with exactly 16383 to spare.
        assert_eq!(MAX_ACC_K, 131_071);
        let a = vec![-128i8; MAX_ACC_K];
        let b_t = vec![-128i8; MAX_ACC_K];
        let out = int_gemm_i32(&a, &b_t, 1, 1, MAX_ACC_K);
        assert_eq!(out, vec![2_147_467_264i32]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "MAX_ACC_K")]
    fn int_gemm_rejects_k_beyond_bound() {
        let k = MAX_ACC_K + 1;
        let a = vec![0i8; k];
        let b_t = vec![0i8; k];
        let _ = int_gemm_i32(&a, &b_t, 1, 1, k);
    }

    #[test]
    fn fused_matches_reference() {
        let mut rng = SeededRng::new(1);
        let a = rng.normal_matrix(6, 48, 0.0, 1.0);
        let w = rng.normal_matrix(10, 48, 0.0, 0.5);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(4, 16));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(4, 16));
        let fused = fused_group_gemm(&qa, &qw).unwrap();
        let reference = reference_gemm(&qa, &qw);
        for (f, r) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((f - r).abs() < 1e-3, "{f} vs {r}");
        }
    }

    #[test]
    fn fused_approximates_fp32_gemm() {
        let mut rng = SeededRng::new(2);
        let a = rng.normal_matrix(4, 64, 0.0, 1.0);
        let w = rng.normal_matrix(8, 64, 0.0, 0.5);
        let exact = a.matmul_nt(&w);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(8, 16));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(8, 16));
        let approx = fused_group_gemm(&qa, &qw).unwrap();
        let rel = approx.sub(&exact).frob_norm() / exact.frob_norm();
        assert!(rel < 0.02, "8-bit GEMM relative error {rel}");
    }

    #[test]
    fn mixed_gemm_handles_outlier_region() {
        let mut rng = SeededRng::new(3);
        // 48 normal channels + 16 outlier channels with 30x magnitude.
        let a_n = rng.normal_matrix(5, 48, 0.0, 1.0);
        let a_o = rng.normal_matrix(5, 16, 0.0, 30.0);
        let w_n = rng.normal_matrix(7, 48, 0.0, 0.5);
        let w_o = rng.normal_matrix(7, 16, 0.0, 0.5);
        let exact = a_n.matmul_nt(&w_n).add(&a_o.matmul_nt(&w_o));

        let qa_n = GroupQuantized::quantize(&a_n, QuantSpec::new(4, 16));
        let qa_o = GroupQuantized::quantize(&a_o, QuantSpec::new(8, 16));
        let qw_n = GroupQuantized::quantize(&w_n, QuantSpec::new(4, 16));
        let qw_o = GroupQuantized::quantize(&w_o, QuantSpec::new(8, 16));
        let mixed = mixed_gemm(&qa_n, &qw_n, Some((&qa_o, &qw_o))).unwrap();
        let rel = mixed.sub(&exact).frob_norm() / exact.frob_norm();
        assert!(rel < 0.05, "mixed GEMM relative error {rel}");

        // All-INT4 on the same data must be much worse: the outlier columns
        // dominate the result and INT4 cannot express them next to the
        // normal ones... (they are separate regions here, so instead check
        // that dropping the outlier region entirely is catastrophic).
        let partial = mixed_gemm(&qa_n, &qw_n, None).unwrap();
        let rel_partial = partial.sub(&exact).frob_norm() / exact.frob_norm();
        assert!(rel_partial > 10.0 * rel);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = GroupQuantized::quantize(&Matrix::zeros(2, 16), QuantSpec::new(4, 8));
        let w_wrong_k = GroupQuantized::quantize(&Matrix::zeros(3, 24), QuantSpec::new(4, 8));
        assert!(matches!(
            fused_group_gemm(&a, &w_wrong_k),
            Err(KernelError::ShapeMismatch(_))
        ));
        let w_wrong_group = GroupQuantized::quantize(&Matrix::zeros(3, 16), QuantSpec::new(4, 4));
        assert!(fused_group_gemm(&a, &w_wrong_group).is_err());
    }

    #[test]
    fn w4a8_mix_is_legal() {
        let mut rng = SeededRng::new(4);
        let a = rng.normal_matrix(3, 32, 0.0, 1.0);
        let w = rng.normal_matrix(5, 32, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(8, 16));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(4, 16));
        let out = fused_group_gemm(&qa, &qw).unwrap();
        let rel = out.sub(&a.matmul_nt(&w)).frob_norm() / a.matmul_nt(&w).frob_norm();
        assert!(rel < 0.2, "W4A8 error {rel}");
    }

    #[test]
    fn ragged_groups_match_reference() {
        let mut rng = SeededRng::new(5);
        let a = rng.normal_matrix(3, 20, 0.0, 1.0); // group 8 -> groups of 8,8,4
        let w = rng.normal_matrix(4, 20, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(4, 8));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(4, 8));
        let fused = fused_group_gemm(&qa, &qw).unwrap();
        let reference = reference_gemm(&qa, &qw);
        for (f, r) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((f - r).abs() < 1e-3);
        }
    }
}
