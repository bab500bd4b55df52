//! Integer GEMM kernels with fused group dequantization.
//!
//! [`mixed_gemm`] is the entry point and the CPU realization of the
//! paper's Fig. 8 pipeline: per K-group, the low-bit integer partial
//! products are computed with exact integer accumulation (the tensor-core
//! MMA stand-in, step ①), then dequantized with the activation-group and
//! weight-group scales (step ②) and accumulated in FP32 (step ③) — all
//! inside one loop nest, with no intermediate buffer, exactly like the
//! fused MMA pipeline. Its outlier pair adds the mixed-precision path of
//! §4.1: after channel reordering, the leading `k - outliers` channels are
//! INT4 and the trailing outlier channels INT8; the two regions multiply
//! separately and their FP32 results sum. `None` runs one region alone.
//!
//! It runs one kernel, [`lane_gemm`]: a single sweep over the weight
//! panels against activations decoded into `i16` lanes
//! ([`ActivationLanes`], every group zero-padded to a multiple of 16
//! codes); the two precision regions of a mixed GEMM share that sweep. It
//! has one inner loop for every row count. The weights are read
//! panel-major ([`WeightPanels`]: 16 weight rows, code slot by code slot,
//! each panel's group scales beside its codes), and each block of 4
//! activation rows — the last 1–3 rows as one block of exactly that many
//! — accumulates a panel's 16 outputs at once in lanes that hold every
//! group sum exactly: `i16` for INT4 x INT4, `f32` for INT8, `i32` past
//! 2^24. No output pays a horizontal reduction. A quantized linear lays its
//! panels out once, when it is quantized; [`mixed_gemm`] lays them out per
//! call. [`mod@reference`] holds the plain loop nest every call must
//! reproduce bit for bit — the oracle tests and report bins call by name,
//! never reached from a serving call. DESIGN.md §3.11 has the bit-identity
//! argument.

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

/// The largest magnitude a partial sum of one quantization group reaches
/// in the GEMM's loop: `group` products of a `bits_a`-bit activation code
/// and a `bits_w`-bit weight code, each at most `2^(bits_a-1) *
/// 2^(bits_w-1)` in magnitude (slots past the group's real codes hold
/// zeros and add nothing).
pub const fn group_sum_bound(group: usize, bits_a: u8, bits_w: u8) -> usize {
    group.saturating_mul(1 << (bits_a as usize - 1 + bits_w as usize - 1))
}

/// The largest group sum the GEMM's loop keeps in `i16` lanes: a region
/// whose [`group_sum_bound`] is at most this sums each group in `i16`,
/// where every partial sum — every product too — is then an exact
/// integer, whatever order its products add in. A region past it sums in
/// `f32` lanes, exact below `2^24`, and past that in `i32` lanes, exact by
/// [`MAX_ACC_K`].
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

/// Activation rows the loop folds at once: each weight lane it loads
/// serves this many rows. A call's last 1–3 rows run as one block of
/// exactly that many.
const ROW_BLOCK: usize = 4;

// A tile of `KERNEL_ROW_BLOCK` weight rows is whole panels, so no panel
// straddles two of the pool's chunks.
const _: () = assert!(KERNEL_ROW_BLOCK.is_multiple_of(PANEL_COLS));

/// One precision region of a GEMM — the INT4 normal channels or the INT8
/// outlier channels: its activation operand and its weights, panel-major.
#[derive(Debug, Clone, Copy)]
pub struct GemmRegion<'a> {
    /// Activation codes and scales.
    pub act: &'a ActivationLanes,
    /// The weights, as a quantized linear stores them.
    pub panels: &'a WeightPanels,
}

impl GemmRegion<'_> {
    /// Checks the operands agree.
    fn validate(&self) -> Result<(), KernelError> {
        let (a, w) = (self.act, self.panels);
        shared_group((a.cols(), a.group()), (w.cols(), w.group())).map(drop)
    }

    /// Bytes of packed operands the region streams.
    fn packed_bytes(&self) -> usize {
        self.act.packed_bytes() + self.panels.packed_bytes()
    }

    /// One tile of the sweep: per panel of [`PANEL_COLS`] weight rows,
    /// activation rows fold all of them at once, [`ROW_BLOCK`] rows at a
    /// time and the last 1–3 together, and a mixed GEMM writes
    /// `fold(normal) + fold(outlier)` once per element. `blocks` is
    /// [`row_blocks`] of this region's activations, `outlier` the outlier
    /// region with its own.
    fn tile(&self, blocks: &[i16], outlier: Option<(&Self, &[i16])>, first: usize, tile: &mut [f32]) {
        let rows_here = tile.len() / self.act.rows().max(1);
        for at in (0..rows_here).step_by(PANEL_COLS) {
            let width = PANEL_COLS.min(rows_here - at);
            let panel = (first + at) / PANEL_COLS;
            let mut runs: Vec<&mut [f32]> = tile
                .chunks_exact_mut(rows_here.max(1))
                .filter_map(|run| run.get_mut(at..at + width))
                .collect();
            for (b, runs) in runs.chunks_mut(ROW_BLOCK).enumerate() {
                let at = (b * ROW_BLOCK, panel);
                match runs {
                    [_, _, _, _] => self.block::<4>(blocks, outlier, at, runs),
                    [_, _, _] => self.block::<3>(blocks, outlier, at, runs),
                    [_, _] => self.block::<2>(blocks, outlier, at, runs),
                    _ => self.block::<1>(blocks, outlier, at, runs),
                }
            }
        }
    }

    /// The `R` activation rows from `row` on against panel `panel`, both
    /// regions, written into the rows' `runs` of the tile.
    fn block<const R: usize>(
        &self,
        blocks: &[i16],
        outlier: Option<(&Self, &[i16])>,
        (row, panel): (usize, usize),
        runs: &mut [&mut [f32]],
    ) {
        let mut acc = self.terms::<R>(blocks, row, panel);
        if let Some((o, blocks)) = outlier {
            for (acc, o) in acc.iter_mut().zip(o.terms::<R>(blocks, row, panel)) {
                for (s, o) in acc.iter_mut().zip(o) {
                    *s += o;
                }
            }
        }
        for (run, acc) in runs.iter_mut().zip(&acc) {
            run.copy_from_slice(acc.get(..run.len()).unwrap_or(&[]));
        }
    }

    /// This region's terms of the `R` activation rows from `row` on against
    /// panel `panel`: [`panel_fold`] in the lanes its group sums fit.
    fn terms<const R: usize>(&self, blocks: &[i16], row: usize, panel: usize) -> [[f32; PANEL_COLS]; R] {
        let (n_groups, padded) = (self.act.n_groups(), self.act.padded());
        let width = n_groups * padded;
        let codes = blocks.get(row * width..(row + R) * width).unwrap_or(&[]);
        let scales = self.act.scales().get(row * n_groups..).unwrap_or(&[]);
        let scales: [&[f32]; R] = std::array::from_fn(|r| scales.get(r * n_groups..).unwrap_or(&[]));
        let act = (codes.as_chunks::<R>().0, scales);
        let panel = self.panels.panel(panel);
        match Lanes::for_region(self.act.group(), self.act.bits(), self.panels.bits()) {
            Lanes::I16 => panel_fold::<i16, R>(act, panel, padded),
            Lanes::F32 => panel_fold::<f32, R>(act, panel, padded),
            Lanes::I32 => panel_fold::<i32, R>(act, panel, padded),
        }
    }
}

/// The lanes a region's group sums add up in, each the exact integer
/// `iacc`: `i16` where every group sum fits one ([`I16_LANE_BOUND`]);
/// otherwise `f32`, which holds every integer below 2^24 exactly; past
/// that `i32`, which holds every group sum of at most [`MAX_ACC_K`] codes.
#[derive(Debug, Clone, Copy)]
enum Lanes {
    I16,
    F32,
    I32,
}

impl Lanes {
    /// The exact lanes for groups of `group` codes, `bits_a` by `bits_w`
    /// bits wide.
    fn for_region(group: usize, bits_a: u8, bits_w: u8) -> Lanes {
        let bound = group_sum_bound(group, bits_a, bits_w);
        if bound <= I16_LANE_BOUND {
            Lanes::I16
        } else if bound < 1 << f32::MANTISSA_DIGITS {
            Lanes::F32
        } else {
            Lanes::I32
        }
    }
}

/// A lane type of the loop: a weight or activation code widens into it,
/// products add up in it, and its value is the exact group sum.
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
        // within them, so no product wraps and no partial sum saturates:
        // the result is the exact sum, as wrapping addition would give.
        // Saturating, not wrapping, for the codegen: with `wrapping_add`
        // LLVM re-associates a one-row slot chain into a cross-slot
        // reduction over weight bytes gathered one at a time; with
        // `saturating_add` it vectorises across the 16 columns
        // (`pmullw` / `paddsw`), at every block width.
        // bound: I16_LANE_BOUND
        sum.saturating_add(x.wrapping_mul(w))
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

impl Lane for i32 {
    const ZERO: i32 = 0;
    fn from_code(code: i8) -> i32 {
        i32::from(code)
    }
    fn from_act(code: i16) -> i32 {
        i32::from(code)
    }
    fn mac(sum: i32, x: i32, w: i32) -> i32 {
        // A group holds at most `MAX_ACC_K` codes (`shared_group`), so
        // every partial sum fits, as in the reference's `i32` sum.
        sum + x * w
    }
    fn value(self) -> f32 {
        self as f32
    }
}

/// The activation codes laid out once per call so that every panel reads
/// a block's codes slot-major, with no per-panel transpose: rows in blocks
/// of [`ROW_BLOCK`], the last block the 1–3 rows left over, and a block of
/// `R` rows from row `i` on at `i * n_groups * padded ..`, `[slot][row]`.
fn row_blocks(act: &ActivationLanes) -> Vec<i16> {
    let rows: Vec<&[i16]> = act.iter_rows().collect();
    let width = act.n_groups() * act.padded();
    let mut blocks = vec![0; rows.len() * width];
    for (block, rows) in blocks.chunks_mut((ROW_BLOCK * width).max(1)).zip(rows.chunks(ROW_BLOCK)) {
        for (r, codes) in rows.iter().enumerate() {
            for (slot, &code) in block.chunks_exact_mut(rows.len()).zip(*codes) {
                if let Some(x) = slot.get_mut(r) {
                    *x = code;
                }
            }
        }
    }
    blocks
}

/// `R` activation rows' terms of one panel's [`PANEL_COLS`] outputs: steps
/// ①–③ of Fig. 8 for `R x 16` outputs at once, each weight lane loaded
/// once for all `R` rows. Per group, 16 lane sums per row `s[c] = s[c] +
/// x[t] * w[t][c]` start from 0, `t` ascending; each is exactly output
/// `c`'s integer `iacc` (`Lanes` picks lanes that hold every partial sum;
/// an integer 0 comes out `+0.0`, as `0i32 as f32` does), so no output
/// pays a horizontal reduction. Then `acc[c] += s[c] * scale_a *
/// scale_w[c]`, groups ascending from the value `Sum<f32>` starts at — the
/// reference's fold, element for element. A row's terms depend on that
/// row alone, so its bits do not depend on `R`.
///
/// Never inlined: inlined into the tile loop it measured 4–8 % slower.
#[inline(never)]
fn panel_fold<L: Lane, const R: usize>(
    (codes_a, scales_a): (&[[i16; R]], [&[f32]; R]),
    (codes_w, scales_w): (&[[i8; PANEL_COLS]], &[[f32; PANEL_COLS]]),
    padded: usize,
) -> [[f32; PANEL_COLS]; R] {
    let mut acc = [[sum_start(); PANEL_COLS]; R];
    let mut row_scales = scales_a.map(<[f32]>::iter);
    let groups = codes_w.chunks_exact(padded.max(1)).zip(codes_a.chunks_exact(padded.max(1)));
    for ((group_w, group_a), sw) in groups.zip(scales_w) {
        let mut sums = [[L::ZERO; PANEL_COLS]; R];
        for (slots_w, slots_a) in group_w.as_chunks::<LANES>().0.iter().zip(group_a.as_chunks::<LANES>().0) {
            for (w, x) in slots_w.iter().zip(slots_a) {
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

/// The GEMM kernel: one sweep over the weight panels for every precision
/// region at once.
///
/// The reference streams the fully-unpacked weight matrix (`n*k` bytes)
/// through the cache once per *activation row*; this kernel inverts the
/// loop order so the weights stream exactly once per GEMM. Work
/// parallelizes over blocks of [`KERNEL_ROW_BLOCK`] weight rows: block `b`
/// owns weight rows `b*RB ..` and writes the exclusive span
/// `tiles[b*RB*m ..]`, an `m x RB` tile of the output, so any thread count
/// produces the same bytes. Every tile runs the same loop
/// ([`GemmRegion::tile`]) at every row count.
///
/// Bit-identity with [`mod@reference`] holds because (a) each per-group
/// integer sum is exact — no `i16` saturation, `f32` rounding or `i32`
/// overflow by the lane bounds and the [`MAX_ACC_K`] cap, and every code
/// outside the group meets a zero — so its value is independent of
/// evaluation order and of the padding; (b) each region's FP32 epilogue
/// folds the per-group terms `sum * scale_a * scale_w` in the same
/// ascending-group order from the same start as `sum::<f32>()`; and (c) the
/// reference composition adds the outlier matrix as `out + 1.0 * outlier`,
/// and `1.0 * x` is `x` exactly. A region without channels leaves its
/// outputs `+0.0`, as the reference does.
fn gemm_sweep(normal: GemmRegion<'_>, outlier: Option<GemmRegion<'_>>) -> Matrix {
    let (m, n) = (normal.act.rows(), normal.panels.rows());
    if normal.act.cols() == 0 {
        return Matrix::zeros(m, n);
    }
    let blocks = row_blocks(normal.act);
    let outlier = outlier.map(|o| (o, row_blocks(o.act)));
    let outlier = outlier.as_ref().map(|(o, blocks)| (o, blocks.as_slice()));
    tiled(m, n, |first, tile| normal.tile(&blocks, outlier, first, tile))
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
/// activations into lanes and lays the weights out panel-major, then runs
/// [`lane_gemm`] — the same sweep over both regions at once on
/// [`Pool::current`], one GEMM launch in telemetry. Every output element
/// is written by one chunk, so no reduction ever races. Bit-identical to
/// [`reference::mixed_gemm`].
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] when a region's inner dimensions
/// or group sizes disagree, or the regions' row counts do.
///
/// # Example
///
/// ```
/// use atom_kernels::{mixed_gemm, GroupQuantized, QuantSpec};
/// use atom_tensor::Matrix;
///
/// let spec = QuantSpec::new(4, 16); // INT4, groups of 16 (paper's W4A4)
/// let a = GroupQuantized::quantize(&Matrix::full(2, 32, 0.5), spec);
/// let w = GroupQuantized::quantize(&Matrix::full(3, 32, 0.25), spec);
/// let out = mixed_gemm(&a, &w, None).expect("shapes agree");
/// assert_eq!((out.rows(), out.cols()), (2, 3));
/// // The fused pipeline matches dequantize-then-FP32-GEMM up to summation
/// // order; 32 x (0.5 * 0.25) = 4.0 up to INT4 rounding.
/// let reference = atom_kernels::gemm::reference_gemm(&a, &w);
/// assert!((out.row(0)[0] - reference.row(0)[0]).abs() < 1e-5);
/// assert!((out.row(0)[0] - 4.0).abs() < 1.0);
/// ```
pub fn mixed_gemm(
    a_normal: &GroupQuantized,
    w_normal: &GroupQuantized,
    outliers: Option<(&GroupQuantized, &GroupQuantized)>,
) -> Result<Matrix, KernelError> {
    let (a_n, p_n) = (ActivationLanes::decode(a_normal), WeightPanels::new(w_normal));
    let outliers = outliers.map(|(a, w)| (ActivationLanes::decode(a), WeightPanels::new(w)));
    let normal = GemmRegion { act: &a_n, panels: &p_n };
    let outlier = outliers.as_ref().map(|(act, panels)| GemmRegion { act, panels });
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
        && outlier.panels.rows() == normal.panels.rows();
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

/// The bit-identity oracle: the plain loop nest [`mixed_gemm`] must
/// reproduce bit for bit, on the caller thread. Tests call these by name;
/// nothing on a serving path does.
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
    /// As [`mixed_gemm`](super::mixed_gemm).
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::{gemm::reference, mixed_gemm, GroupQuantized, QuantSpec};
    /// use atom_parallel::Pool;
    /// use atom_tensor::Matrix;
    ///
    /// let spec = QuantSpec::new(4, 16);
    /// let a = GroupQuantized::quantize(&Matrix::full(2, 32, 0.5), spec);
    /// let w = GroupQuantized::quantize(&Matrix::full(3, 32, 0.25), spec);
    /// let oracle = reference::fused_group_gemm(&a, &w).unwrap();
    /// let kernel = Pool::new(2).install(|| mixed_gemm(&a, &w, None)).unwrap();
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
    fn fused_matches_reference() {
        let mut rng = SeededRng::new(1);
        let a = rng.normal_matrix(6, 48, 0.0, 1.0);
        let w = rng.normal_matrix(10, 48, 0.0, 0.5);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(4, 16));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(4, 16));
        let fused = mixed_gemm(&qa, &qw, None).unwrap();
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
        let approx = mixed_gemm(&qa, &qw, None).unwrap();
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
            mixed_gemm(&a, &w_wrong_k, None),
            Err(KernelError::ShapeMismatch(_))
        ));
        let w_wrong_group = GroupQuantized::quantize(&Matrix::zeros(3, 16), QuantSpec::new(4, 4));
        assert!(mixed_gemm(&a, &w_wrong_group, None).is_err());
    }

    #[test]
    fn w4a8_mix_is_legal() {
        let mut rng = SeededRng::new(4);
        let a = rng.normal_matrix(3, 32, 0.0, 1.0);
        let w = rng.normal_matrix(5, 32, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(8, 16));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(4, 16));
        let out = mixed_gemm(&qa, &qw, None).unwrap();
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
        let fused = mixed_gemm(&qa, &qw, None).unwrap();
        let reference = reference_gemm(&qa, &qw);
        for (f, r) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((f - r).abs() < 1e-3);
        }
    }
}
