//! Integer GEMM kernels with fused group dequantization.
//!
//! [`fused_group_gemm`] is the CPU realization of the paper's Fig. 8
//! pipeline: per K-group, the low-bit integer partial products are computed
//! with i32 accumulation (the tensor-core MMA stand-in, step ①), then
//! dequantized with the activation-group and weight-group scales (step ②)
//! and accumulated in FP32 (step ③) — all inside one loop nest, with no
//! intermediate buffer, exactly like the fused MMA pipeline.
//!
//! [`mixed_gemm`] adds the mixed-precision path of §4.1: after channel
//! reordering, the leading `k - outliers` channels are INT4 and the trailing
//! outlier channels INT8; the two regions multiply separately and their FP32
//! results sum.
//!
//! Both are one kernel: a single sweep over the weight rows, decoded once
//! per GEMM a block at a time, against activations whose groups are
//! zero-padded to a multiple of 16 codes; the two precision regions of a
//! mixed GEMM share that sweep. It has two inner loops. Below
//! [`PANEL_MIN_ROWS`] activation rows each output is one fold over
//! fixed-width blocks of 16 `i16` codes the compiler turns into packed
//! multiply-adds. From there on, 16 weight rows decode into an `f32` panel
//! and each activation row accumulates all 16 outputs at once in `f32`
//! lanes that hold every group sum exactly, so no output pays a horizontal
//! reduction. [`mod@reference`] holds the plain loop nest both must
//! reproduce bit for bit — the oracle tests and report bins call by name,
//! never reached from a serving call. DESIGN.md §3.11 has the bit-identity
//! argument.

use crate::group::{GroupQuantized, MAX_BITS};
use crate::packed::PackedMatrix;
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
// the `i32` accumulation fits `i32` — so the only reduction bound stays
// `MAX_ACC_K`.
const _: () =
    assert!(1i64 << (MAX_BITS - 1) <= 1i64 << 15 && 2 << (2 * (MAX_BITS - 1)) <= i32::MAX as i64);
// The panel loop sums a group's products in `f32` lanes instead of `i32`: a
// group spans at most `LANES` codes, each product is at most 2^14 in
// magnitude, so every partial sum is an integer below 2^18 — inside the
// 2^24 up to which `f32` holds every integer exactly. Each lane sum is then
// the integer `iacc` itself, whatever order its products add in.
const _: () = assert!((LANES as i64) << (2 * (MAX_BITS - 1)) < 1i64 << f32::MANTISSA_DIGITS);

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
    let group = shared_group(a, w)?;
    let _launch = record_launch(a.packed_bytes() + w.packed_bytes(), a.rows());
    Ok(gemm_sweep((a, w, group), None))
}

/// Validates one region's operands and returns its effective group size
/// (the spec's, capped at the row width, at least 1).
fn shared_group(a: &GroupQuantized, w: &GroupQuantized) -> Result<usize, KernelError> {
    if a.cols() != w.cols() {
        return Err(KernelError::ShapeMismatch(format!(
            "inner dimension: activations k={} vs weights k={}",
            a.cols(),
            w.cols()
        )));
    }
    let group_a = a.spec().group.min(a.cols().max(1));
    let group_w = w.spec().group.min(w.cols().max(1));
    if group_a != group_w {
        return Err(KernelError::ShapeMismatch(format!(
            "group size: activations {group_a} vs weights {group_w}"
        )));
    }
    let group = group_a.max(1);
    debug_assert!(
        group <= MAX_ACC_K,
        "group {group} exceeds MAX_ACC_K = {MAX_ACC_K}: per-group i32 accumulation \
         could overflow"
    );
    Ok(group)
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

/// Codes per fixed-width multiply-accumulate block. Decoded activation rows
/// pad every quantization group with zero codes up to a multiple of this,
/// so the inner loops always run over whole blocks of `LANES` codes — a
/// compile-time trip count. The per-output fold unrolls one `[i16; LANES]`
/// block into two packed 16-bit multiply-adds (`pmaddwd`); both operands
/// decode straight into `i16` lanes, so that loop has no sign extension
/// left in it. It equals the group size of every scheme in this workspace
/// (a group of 16 is exactly one block).
const LANES: usize = 16;

/// Activation rows from which a GEMM runs as column panels. A panel
/// decodes its weights transposed once per call, which pays off only over
/// enough activation rows: at one or two rows (a decode step) the
/// per-output fold is the faster loop, from 16 rows on the panel loop is
/// (EXPERIMENTS.md has the crossover). Which loop runs never changes a
/// bit: both equal [`mod@reference`].
pub const PANEL_MIN_ROWS: usize = 16;

/// Output columns — weight rows — per panel: one `f32` lane sum each.
const PANEL_COLS: usize = 16;

/// Decoded weight codes the per-output fold holds at a time: 16 KiB of
/// `i16` lanes, half a typical L1 data cache, leaving room for the
/// activation rows streaming past. A 32-row tile fits whole up to 256
/// channels.
const DECODE_BLOCK_CODES: usize = 8 * 1024;

/// One region's operands — activations, weights — and the effective group
/// size [`shared_group`] validated for the pair.
type Operands<'a> = (&'a GroupQuantized, &'a GroupQuantized, usize);

/// One precision region of a GEMM — the INT4 normal channels or the INT8
/// outlier channels — with its activation codes decoded to `T`: `i16`
/// lanes for the per-output fold, `f32` for the panel loop.
///
/// Activations decode once, up front, with every quantization group
/// zero-padded to `padded` codes. For the fold, weight rows decode a block
/// at a time, back to back at their real width, and group `g` of a weight
/// row is read as the `padded`-wide *window* starting at its first code:
/// where the window overhangs the group — into the next group, the next
/// row, or the slack after the block — it meets the activation's zero
/// padding, so whatever codes it holds multiply to exactly 0 and the i32
/// group sum is the sum over the real codes alone. A [`Panel`] pads the
/// weight groups too.
struct Region<'a, T> {
    w_values: &'a PackedMatrix,
    /// `n x n_groups` weight scales, row-major.
    w_scales: &'a [f32],
    /// `m x n_groups` activation scales, row-major.
    a_scales: &'a [f32],
    /// `m x n_groups * padded` activation codes, group `g` of row `i` at
    /// `(i * n_groups + g) * padded`, zero beyond the group's real codes.
    a_codes: Vec<T>,
    /// Activation rows `m`.
    a_rows: usize,
    /// Codes per row `k`.
    cols: usize,
    /// Codes per quantization group (the row's last group may hold fewer).
    group: usize,
    /// Quantization groups per row.
    n_groups: usize,
    /// `group` rounded up to a multiple of [`LANES`].
    padded: usize,
}

/// One decoded row: its codes, widened to `T` lanes, and its group scales.
type CodeRow<'r, T = i16> = (&'r [T], &'r [f32]);

impl<'a, T: Copy + From<i8>> Region<'a, T> {
    /// Decodes the activation rows of one region's [`Operands`].
    fn decode((a, w, group): Operands<'a>) -> Self {
        let (cols, n_groups) = (a.cols(), a.cols().div_ceil(group));
        let padded = group.next_multiple_of(LANES);
        let width = n_groups * padded;
        let zero = T::from(0);
        let mut a_codes = vec![zero; a.rows() * width];
        // The padded layout is the packed column order when groups are
        // already a multiple of LANES wide or there is a single group: only
        // the tail of the last group is padding, and it is never written.
        // Otherwise a row decodes into `spill` and moves group by group.
        let contiguous = padded == group || n_groups <= 1;
        let mut spill = vec![zero; if contiguous { 0 } else { cols }];
        for (r, row) in a_codes.chunks_exact_mut(width.max(1)).enumerate() {
            if contiguous {
                if let Some(head) = row.get_mut(..cols) {
                    a.values().unpack_row(r, head);
                }
            } else {
                a.values().unpack_row(r, &mut spill);
                for (slot, codes) in row.chunks_exact_mut(padded).zip(spill.chunks(group)) {
                    for (d, &c) in slot.iter_mut().zip(codes) {
                        *d = c;
                    }
                }
            }
        }
        Region {
            w_values: w.values(),
            w_scales: w.scales().as_slice(),
            a_scales: a.scales().as_slice(),
            a_codes,
            a_rows: a.rows(),
            cols,
            group,
            n_groups,
            padded,
        }
    }

    /// The decoded activation rows with their scales, in row order. (An
    /// empty region — `k = 0` — yields no rows; its callers leave the
    /// output at the empty sum.)
    fn activation_rows(&self) -> impl Iterator<Item = CodeRow<'_, T>> {
        self.a_codes
            .chunks_exact((self.n_groups * self.padded).max(1))
            .zip(self.a_scales.chunks_exact(self.n_groups.max(1)))
    }

    /// Weight rows `first ..`'s group scales, `n_groups` per row.
    fn weight_scales(&self, first: usize, rows: usize) -> &[f32] {
        let n_groups = self.n_groups;
        self.w_scales
            .get(first * n_groups..(first + rows) * n_groups)
            .unwrap_or(&[])
    }
}

impl Region<'_, i16> {
    /// Decodes weight rows `first .. first + rows` back to back, plus
    /// `padded` zero codes of slack for the last window's overhang.
    fn decode_weight_rows(&self, first: usize, rows: usize) -> Vec<i16> {
        let mut codes = vec![0i16; rows * self.cols + self.padded];
        if let Some(run) = codes.get_mut(..rows * self.cols) {
            self.w_values.unpack_rows(first, run);
        }
        codes
    }

    /// The rows of a block [`decode_weight_rows`] decoded, as [`CodeRow`]s:
    /// weight row `first + jj`'s codes start at `jj * cols` and run
    /// open-ended, so its group windows may overhang.
    ///
    /// [`decode_weight_rows`]: Self::decode_weight_rows
    fn weight_rows<'s>(&'s self, block: &'s [i16], first: usize, rows: usize) -> Vec<CodeRow<'s>> {
        (0..rows)
            .map(|jj| block.get(jj * self.cols..).unwrap_or(&[]))
            .zip(self.weight_scales(first, rows).chunks_exact(self.n_groups.max(1)))
            .collect()
    }

    /// This region's term of one output element: the ascending-group FP32
    /// fold of an activation row against a decoded weight row — steps ①–③
    /// of Fig. 8 exactly as in [`reference::fused_group_gemm`].
    ///
    /// Never inlined: as its own function the group loop compiles to one
    /// tight block; inlined into the two-region sweep the compiler
    /// re-derives the `zip` bounds every group (measured 6% slower at
    /// `m = 64`, 25% when the row lookups were inlined with it).
    #[inline(never)]
    fn fold(&self, a_row: CodeRow<'_>, w_row: CodeRow<'_>) -> f32 {
        let a: &[i16] = a_row.0;
        let w: &[i16] = w_row.0;
        let (sa, sw) = (a_row.1, w_row.1);
        if self.padded == LANES && (self.group == LANES || self.n_groups <= 1) {
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
            a.chunks_exact(self.padded)
                .zip(w.windows(self.padded).step_by(self.group))
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
        let rows_here = tile.len() / self.a_rows.max(1);
        let block_rows = (DECODE_BLOCK_CODES / self.cols.max(1)).clamp(1, KERNEL_ROW_BLOCK);
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
                    for (run, a_n) in runs.zip(self.activation_rows()) {
                        for (o, &w) in run.iter_mut().zip(&w_n) {
                            *o = self.fold(a_n, w);
                        }
                    }
                }
                Some((r, w_o)) => {
                    let rows = self.activation_rows().zip(r.activation_rows());
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

/// Up to [`PANEL_COLS`] weight rows of one region, decoded transposed for
/// the panel loop: code slot `g * LANES + t` holds code `t` of group `g`
/// of every row, one lane per row, and `scales[g]` the rows' group-`g`
/// scales. Slots past a group's real codes and lanes past the last row
/// hold 0, so every group is one whole block of `LANES` slots. A tile
/// decodes each of its panels into the same buffers.
#[derive(Default)]
struct Panel {
    /// The rows' codes back to back, as [`PackedMatrix::unpack_rows`]
    /// gives them.
    rows: Vec<i8>,
    /// `codes` before widening to `f32`.
    slots: Vec<[i8; PANEL_COLS]>,
    codes: Vec<[f32; PANEL_COLS]>,
    scales: Vec<[f32; PANEL_COLS]>,
}

impl Region<'_, f32> {
    /// Decodes weight rows `first .. first + width` into `panel`
    /// (`width <= PANEL_COLS`; the region's groups fit one block each).
    /// The transpose moves `i8` codes and the widening runs over whole
    /// slots afterwards, which measured about a third faster than
    /// scattering `f32` lanes.
    fn decode_panel(&self, first: usize, width: usize, panel: &mut Panel) {
        let (cols, n_groups) = (self.cols, self.n_groups);
        let Panel { rows, slots, codes, scales } = panel;
        rows.resize(width * cols, 0);
        self.w_values.unpack_rows(first, rows);
        slots.clear();
        slots.resize(n_groups * LANES, [0; PANEL_COLS]);
        scales.clear();
        scales.resize(n_groups, [0.0; PANEL_COLS]);
        let row_scales = self.weight_scales(first, width).chunks_exact(n_groups.max(1));
        for (c, (row, sw)) in rows.chunks_exact(cols.max(1)).zip(row_scales).enumerate() {
            for (group_slots, group) in slots.chunks_exact_mut(LANES).zip(row.chunks(self.group)) {
                for (slot, &code) in group_slots.iter_mut().zip(group) {
                    if let Some(lane) = slot.get_mut(c) {
                        *lane = code;
                    }
                }
            }
            for (slot, &s) in scales.iter_mut().zip(sw) {
                if let Some(lane) = slot.get_mut(c) {
                    *lane = s;
                }
            }
        }
        codes.clear();
        codes.extend(slots.iter().map(|slot| slot.map(f32::from)));
    }

    /// The panel loop over one tile: per panel of [`PANEL_COLS`] weight
    /// rows, every activation row folds all of them at once, and a mixed
    /// GEMM writes `fold(normal) + fold(outlier)` once per element.
    fn panel_tile(&self, outlier: Option<&Self>, first: usize, tile: &mut [f32]) {
        let rows_here = tile.len() / self.a_rows.max(1);
        let a_n: Vec<_> = self.activation_rows().collect();
        let a_o: Vec<_> = outlier.map(|r| r.activation_rows().collect()).unwrap_or_default();
        let (mut p_n, mut p_o) = (Panel::default(), Panel::default());
        for at in (0..rows_here).step_by(PANEL_COLS) {
            let width = PANEL_COLS.min(rows_here - at);
            self.decode_panel(first + at, width, &mut p_n);
            if let Some(r) = outlier {
                r.decode_panel(first + at, width, &mut p_o);
            }
            let mut runs: Vec<&mut [f32]> = tile
                .chunks_exact_mut(rows_here.max(1))
                .filter_map(|run| run.get_mut(at..at + width))
                .collect();
            let a_o = a_o.chunks(2).map(Some).chain(std::iter::repeat(None));
            for ((runs, a_n), a_o) in runs.chunks_mut(2).zip(a_n.chunks(2)).zip(a_o) {
                let Some(a_n) = row_pair(a_n) else { continue };
                let mut acc = panel_fold(a_n, &p_n);
                if let Some(a_o) = a_o.and_then(row_pair) {
                    for (acc, o) in acc.iter_mut().zip(panel_fold(a_o, &p_o)) {
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
}

/// Two activation rows for [`panel_fold`]: a pair as it is, a lone last
/// row twice (its second result is dropped).
fn row_pair<T: Copy>(rows: &[T]) -> Option<[T; 2]> {
    Some([*rows.first()?, *rows.last()?])
}

/// Two activation rows' terms of a panel's [`PANEL_COLS`] outputs: steps
/// ①–③ of Fig. 8 for 2 x 16 outputs at once, each weight code loaded once
/// for both rows. Per group, 16 lane sums per row `gs[c] += a[t] * w[t][c]`
/// start from `+0.0`; each is exactly output `c`'s integer `iacc` (an
/// integer 0 comes out `+0.0`, as `0i32 as f32` does), so no output pays a
/// horizontal reduction. Then `acc[c] += gs[c] * scale_a * scale_w[c]`,
/// groups ascending from the value `Sum<f32>` starts at — the reference's
/// fold, element for element.
fn panel_fold(rows: [CodeRow<'_, f32>; 2], panel: &Panel) -> [[f32; PANEL_COLS]; 2] {
    let [(a0, sa0), (a1, sa1)] = rows;
    let mut acc = [[sum_start(); PANEL_COLS]; 2];
    let groups = panel.codes.chunks_exact(LANES).zip(&panel.scales);
    let a = a0.chunks_exact(LANES).zip(a1.chunks_exact(LANES));
    for ((gw, sw), ((g0, g1), (&s0, &s1))) in groups.zip(a.zip(sa0.iter().zip(sa1))) {
        // Exact: at most LANES products of at most 2^14 each, below 2^24
        // (the `f32::MANTISSA_DIGITS` assertion beside MAX_ACC_K).
        let [mut gs0, mut gs1] = [[0f32; PANEL_COLS]; 2];
        for ((w, &x0), &x1) in gw.iter().zip(g0).zip(g1) {
            for ((s0, s1), &y) in gs0.iter_mut().zip(gs1.iter_mut()).zip(w) {
                *s0 += x0 * y;
                *s1 += x1 * y;
            }
        }
        for ((acc, gs), scale_a) in acc.iter_mut().zip([gs0, gs1]).zip([s0, s1]) {
            for ((o, s), &scale_w) in acc.iter_mut().zip(gs).zip(sw) {
                *o += s * scale_a * scale_w;
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
/// loop order so the packed weights (`n*k/2` bytes at INT4) stream exactly
/// once per GEMM. Work parallelizes over blocks of [`KERNEL_ROW_BLOCK`]
/// weight rows: block `b` owns weight rows `b*RB ..` and writes the
/// exclusive span `tiles[b*RB*m ..]`, an `m x RB` tile of the output, so
/// any thread count produces the same bytes. Below [`PANEL_MIN_ROWS`]
/// activation rows, or when a group is wider than [`LANES`], a tile runs
/// the per-output fold ([`Region::fold_tile`]); otherwise it runs column
/// panels ([`Region::panel_tile`]).
///
/// Bit-identity with [`mod@reference`] holds for both loops because (a)
/// each per-group integer sum is exact — no `i32` overflow by the
/// [`MAX_ACC_K`] cap, no `f32` rounding by the `LANES` bound beside it,
/// and every code outside the group meets a zero — so its value is
/// independent of evaluation order and of the padding; (b) each region's
/// FP32 epilogue folds the per-group terms `sum * scale_a * scale_w` in
/// the same ascending-group order from the same start as `sum::<f32>()`;
/// and (c) the reference composition adds the outlier matrix as
/// `out + 1.0 * outlier`, and `1.0 * x` is `x` exactly.
fn gemm_sweep(normal: Operands<'_>, outlier: Option<Operands<'_>>) -> Matrix {
    let (m, n) = (normal.0.rows(), normal.1.rows());
    let panels = m >= PANEL_MIN_ROWS && normal.2 <= LANES && outlier.is_none_or(|o| o.2 <= LANES);
    if panels {
        let (normal, outlier) = (Region::<f32>::decode(normal), outlier.map(Region::decode));
        tiled(m, n, |first, tile| normal.panel_tile(outlier.as_ref(), first, tile))
    } else {
        let (normal, outlier) = (Region::<i16>::decode(normal), outlier.map(Region::decode));
        tiled(m, n, |first, tile| normal.fold_tile(outlier.as_ref(), first, tile))
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
/// Pass `None` for the outlier pair when no outliers are kept. Runs the
/// same sweep as [`fused_group_gemm`] over both regions at once on
/// [`Pool::current`], one GEMM launch in telemetry. Every output element is
/// written by one chunk, so no reduction ever races. Bit-identical to
/// [`reference::mixed_gemm`].
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
    let Some((a_out, w_out)) = outliers else {
        return fused_group_gemm(a_normal, w_normal);
    };
    let rows_agree = a_out.rows() == a_normal.rows() && w_out.rows() == w_normal.rows();
    // A region without channels contributes the empty sum; the sweep walks
    // decoded rows, so each region then runs alone and the results add.
    if a_normal.cols() == 0 || a_out.cols() == 0 {
        let mut out = fused_group_gemm(a_normal, w_normal)?;
        if !rows_agree {
            return Err(region_rows_mismatch());
        }
        let o = fused_group_gemm(a_out, w_out)?;
        out.add_scaled_in_place(&o, 1.0);
        return Ok(out);
    }
    let group_normal = shared_group(a_normal, w_normal)?;
    if !rows_agree {
        return Err(region_rows_mismatch());
    }
    let group_outlier = shared_group(a_out, w_out)?;
    let bytes = [a_normal, w_normal, a_out, w_out]
        .iter()
        .map(|q| q.packed_bytes())
        .sum();
    let _launch = record_launch(bytes, a_normal.rows());
    Ok(gemm_sweep(
        (a_normal, w_normal, group_normal),
        Some((a_out, w_out, group_outlier)),
    ))
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
    use super::{shared_group, region_rows_mismatch};
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
        let group = shared_group(a, w)?;
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
