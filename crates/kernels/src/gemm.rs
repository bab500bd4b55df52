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
//! zero-padded to a multiple of 16 codes, so every multiply-accumulate runs
//! over fixed-width blocks of 16 the compiler turns into packed
//! multiply-adds; the two precision regions of a mixed GEMM share that
//! sweep. [`mod@reference`] holds the plain loop nest the kernel must reproduce
//! bit for bit — the oracle tests and report bins call by name, never
//! reached from a serving call. DESIGN.md §3.11 has the bit-identity
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
/// Runs on the process-wide [`Pool`] (see [`fused_group_gemm_with`] for an
/// explicit pool); output bits are identical for any thread count because
/// each output row is computed independently by exactly the loop nest below.
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
    fused_group_gemm_with(Pool::global(), a, w)
}

/// [`fused_group_gemm`] on an explicit [`Pool`], parallelized over blocks
/// of weight rows. Every block writes an exclusive tile of the output, so
/// the result is bit-identical to `Pool::sequential()` for any thread count
/// — and to [`reference::fused_group_gemm`], which the property suite
/// asserts with `==`, not approximate equality.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] when inner dimensions or group
/// sizes disagree, and [`KernelError::WorkerPanic`] if a parallel worker
/// panicked (the panic is contained, not propagated).
pub fn fused_group_gemm_with(
    pool: &Pool,
    a: &GroupQuantized,
    w: &GroupQuantized,
) -> Result<Matrix, KernelError> {
    let group = shared_group(a, w)?;
    let _launch = record_launch(a.packed_bytes() + w.packed_bytes(), a.rows());
    gemm_sweep(pool, &Region::decode(a, w, group), None)
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
/// so the inner loop always runs over whole `[i8; LANES]` blocks — a
/// compile-time trip count the compiler unrolls into packed 16-bit
/// multiply-adds. It equals the group size of every scheme in this
/// workspace (a group of 16 is exactly one block).
const LANES: usize = 16;

/// Decoded weight codes the sweep holds at a time: 16 KiB, half a
/// typical L1 data cache, leaving room for the activation rows streaming
/// past. A 32-row tile fits whole up to 512 channels.
const DECODE_BLOCK_CODES: usize = 16 * 1024;

/// One precision region of a GEMM — the INT4 normal channels or the INT8
/// outlier channels.
///
/// Activations decode once, up front, with every quantization group
/// zero-padded to `padded` codes. Weight rows decode a block at a time, back
/// to back at their real width, and group `g` of a weight row is read as the
/// `padded`-wide *window* starting at its first code: where the window
/// overhangs the group — into the next group, the next row, or the slack
/// after the block — it meets the activation's zero padding, so whatever
/// codes it holds multiply to exactly 0 and the i32 group sum is the sum
/// over the real codes alone.
struct Region<'a> {
    w_values: &'a PackedMatrix,
    /// `n x n_groups` weight scales, row-major.
    w_scales: &'a [f32],
    /// `m x n_groups` activation scales, row-major.
    a_scales: &'a [f32],
    /// `m x n_groups * padded` activation codes, group `g` of row `i` at
    /// `(i * n_groups + g) * padded`, zero beyond the group's real codes.
    a_codes: Vec<i8>,
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

/// One decoded row: its codes and its group scales.
type CodeRow<'r> = (&'r [i8], &'r [f32]);

impl<'a> Region<'a> {
    /// Decodes the activation rows of `a`; `group` is the effective group
    /// size [`shared_group`] validated for the pair.
    fn decode(a: &'a GroupQuantized, w: &'a GroupQuantized, group: usize) -> Self {
        let (cols, n_groups) = (a.cols(), a.cols().div_ceil(group));
        let padded = group.next_multiple_of(LANES);
        let width = n_groups * padded;
        let mut a_codes = vec![0i8; a.rows() * width];
        // The padded layout is the packed column order when groups are
        // already a multiple of LANES wide or there is a single group: only
        // the tail of the last group is padding, and it is never written.
        // Otherwise a row decodes into `spill` and moves group by group.
        let contiguous = padded == group || n_groups <= 1;
        let mut spill = vec![0i8; if contiguous { 0 } else { cols }];
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

    /// Decodes weight rows `first .. first + rows` back to back, plus
    /// `padded` zero codes of slack for the last window's overhang.
    fn decode_weight_rows(&self, first: usize, rows: usize) -> Vec<i8> {
        let mut codes = vec![0i8; rows * self.cols + self.padded];
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
    fn weight_rows<'s>(&'s self, block: &'s [i8], first: usize, rows: usize) -> Vec<CodeRow<'s>> {
        let n_groups = self.n_groups;
        let scales = self
            .w_scales
            .get(first * n_groups..(first + rows) * n_groups)
            .unwrap_or(&[]);
        (0..rows)
            .map(|jj| block.get(jj * self.cols..).unwrap_or(&[]))
            .zip(scales.chunks_exact(n_groups.max(1)))
            .collect()
    }

    /// The decoded activation rows with their scales, in row order. (An
    /// empty region — `k = 0` — yields no rows; its callers leave the
    /// output at the empty sum.)
    fn activation_rows(&self) -> impl Iterator<Item = CodeRow<'_>> {
        self.a_codes
            .chunks_exact((self.n_groups * self.padded).max(1))
            .zip(self.a_scales.chunks_exact(self.n_groups.max(1)))
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
        let a: &[i8] = a_row.0;
        let w: &[i8] = w_row.0;
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
/// any thread count produces the same bytes. Per block, each region's
/// weight rows decode once, back to back, into a cache-resident buffer;
/// every pre-decoded activation row is then multiplied against all of them
/// in fixed-width blocks, the fused group-dequant epilogue kept in the same
/// pass, and a mixed GEMM writes `fold(normal) + fold(outlier)` once per
/// element.
///
/// Bit-identity with [`mod@reference`] holds because (a) each per-group i32
/// sum is exact — no overflow by the [`MAX_ACC_K`] cap, and every code
/// outside the group meets a zero (see [`Region`]) — so its value is
/// independent of evaluation order and of the padding; (b) each region's
/// FP32 epilogue folds the per-group terms in the same ascending-group
/// order through the same `sum::<f32>()`; and (c) the reference composition
/// adds the outlier matrix as `out + 1.0 * outlier`, and `1.0 * x` is `x`
/// exactly.
fn gemm_sweep(
    pool: &Pool,
    normal: &Region<'_>,
    outlier: Option<&Region<'_>>,
) -> Result<Matrix, KernelError> {
    let (m, n) = (normal.a_rows, normal.w_values.rows());

    // `n*m` splits into tiles of `RB` weight rows: tile `b` is `m` runs of
    // `rows_here` outputs (all `RB` but in the last tile), run `i` holding
    // out[i][b*RB ..]. A tile is a contiguous exclusive chunk.
    let mut tiles = vec![0f32; n * m];
    let tile_len = m.max(1) * KERNEL_ROW_BLOCK;
    pool.par_chunks_mut(&mut tiles, tile_len, |b, tile| {
        let rows_here = tile.len() / m.max(1);
        // The tile's weight rows decode in blocks small enough to stay
        // cache-resident (the whole tile at the serving widths); one decode
        // of a block serves all m activation rows.
        let block_rows = (DECODE_BLOCK_CODES / normal.cols.max(1)).clamp(1, KERNEL_ROW_BLOCK);
        for at in (0..rows_here).step_by(block_rows) {
            let (first, rows) = (b * KERNEL_ROW_BLOCK + at, block_rows.min(rows_here - at));
            let codes_n = normal.decode_weight_rows(first, rows);
            let w_n = normal.weight_rows(&codes_n, first, rows);
            let codes_o = outlier.map(|r| r.decode_weight_rows(first, rows));
            let w_o = outlier
                .zip(codes_o.as_deref())
                .map(|(r, codes)| (r, r.weight_rows(codes, first, rows)));
            // Run `i` of the tile holds out[i][b*RB ..]; this block's part
            // of it starts `at` in.
            let runs = tile
                .chunks_exact_mut(rows_here.max(1))
                .filter_map(|run| run.get_mut(at..at + rows));
            match &w_o {
                None => {
                    for (run, a_n) in runs.zip(normal.activation_rows()) {
                        for (o, &w) in run.iter_mut().zip(&w_n) {
                            *o = normal.fold(a_n, w);
                        }
                    }
                }
                Some((r, w_o)) => {
                    let rows = normal.activation_rows().zip(r.activation_rows());
                    for (run, (a_n, a_o)) in runs.zip(rows) {
                        for ((o, &w), &w_out) in run.iter_mut().zip(&w_n).zip(w_o) {
                            *o = normal.fold(a_n, w) + r.fold(a_o, w_out);
                        }
                    }
                }
            }
        }
    })?;

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
    Ok(out)
}

/// Mixed-precision GEMM (paper §4.1): the reordered operands carry their
/// normal region (low-bit) and outlier region (INT8) separately; partial
/// results sum in FP32.
///
/// Pass `None` for the outlier pair when no outliers are kept.
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
    mixed_gemm_with(Pool::global(), a_normal, w_normal, outliers)
}

/// [`mixed_gemm`] on an explicit [`Pool`]: the same sweep as
/// [`fused_group_gemm_with`] over both regions at once, one GEMM launch in
/// telemetry. Every output element is written by one chunk, so no reduction
/// ever races. Bit-identical to [`reference::mixed_gemm`].
///
/// # Errors
///
/// Propagates shape mismatches from the underlying fused GEMMs, and rejects
/// row-count mismatches between the regions.
pub fn mixed_gemm_with(
    pool: &Pool,
    a_normal: &GroupQuantized,
    w_normal: &GroupQuantized,
    outliers: Option<(&GroupQuantized, &GroupQuantized)>,
) -> Result<Matrix, KernelError> {
    let Some((a_out, w_out)) = outliers else {
        return fused_group_gemm_with(pool, a_normal, w_normal);
    };
    let rows_agree = a_out.rows() == a_normal.rows() && w_out.rows() == w_normal.rows();
    // A region without channels contributes the empty sum; the sweep walks
    // decoded rows, so each region then runs alone and the results add.
    if a_normal.cols() == 0 || a_out.cols() == 0 {
        let mut out = fused_group_gemm_with(pool, a_normal, w_normal)?;
        if !rows_agree {
            return Err(region_rows_mismatch());
        }
        let o = fused_group_gemm_with(pool, a_out, w_out)?;
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
    gemm_sweep(
        pool,
        &Region::decode(a_normal, w_normal, group_normal),
        Some(&Region::decode(a_out, w_out, group_outlier)),
    )
}

fn region_rows_mismatch() -> KernelError {
    KernelError::ShapeMismatch("outlier region row counts disagree with normal region".into())
}

/// The bit-identity oracle: the plain loop nests [`fused_group_gemm_with`]
/// and [`mixed_gemm_with`] must reproduce bit for bit. Tests and report
/// bins call these by name; nothing on a serving path does.
pub mod reference {
    use super::{shared_group, region_rows_mismatch};
    use crate::group::GroupQuantized;
    use crate::KernelError;
    use atom_parallel::Pool;
    use atom_tensor::Matrix;

    /// Fused group-dequantization GEMM as its definition reads: both
    /// operands fully unpacked, one iterator dot per output element with
    /// the Fig. 8 epilogue.
    ///
    /// # Errors
    ///
    /// As [`fused_group_gemm_with`](super::fused_group_gemm_with).
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::{fused_group_gemm_with, gemm::reference, GroupQuantized, QuantSpec};
    /// use atom_parallel::Pool;
    /// use atom_tensor::Matrix;
    ///
    /// let spec = QuantSpec::new(4, 16);
    /// let a = GroupQuantized::quantize(&Matrix::full(2, 32, 0.5), spec);
    /// let w = GroupQuantized::quantize(&Matrix::full(3, 32, 0.25), spec);
    /// let pool = Pool::sequential();
    /// let oracle = reference::fused_group_gemm(&pool, &a, &w).unwrap();
    /// let kernel = fused_group_gemm_with(&pool, &a, &w).unwrap();
    /// assert_eq!(oracle.as_slice(), kernel.as_slice()); // bit-identical, not approximate
    /// ```
    pub fn fused_group_gemm(
        pool: &Pool,
        a: &GroupQuantized,
        w: &GroupQuantized,
    ) -> Result<Matrix, KernelError> {
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
        // the group walk is bounded exactly as before). Rows parallelize as
        // one-row chunks: chunk i owns out[i*n .. (i+1)*n] exclusively and is
        // computed by the same sequential code at any pool width.
        let mut out = Matrix::zeros(m, n);
        pool.par_chunks_mut(out.as_mut_slice(), n.max(1), |i, out_row| {
            let Some(ar) = av.get(i * k..(i + 1) * k) else {
                return;
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
        })?;
        Ok(out)
    }

    /// Mixed-precision GEMM as its definition reads (§4.1): the INT4
    /// normal-region GEMM, then the INT8 outlier-region GEMM, summed in
    /// FP32 on the caller thread.
    ///
    /// # Errors
    ///
    /// As [`mixed_gemm_with`](super::mixed_gemm_with).
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::{gemm::reference, mixed_gemm_with, GroupQuantized, QuantSpec};
    /// use atom_parallel::Pool;
    /// use atom_tensor::Matrix;
    ///
    /// let a = GroupQuantized::quantize(&Matrix::full(2, 32, 1.0), QuantSpec::new(4, 16));
    /// let w = GroupQuantized::quantize(&Matrix::full(3, 32, 1.0), QuantSpec::new(4, 16));
    /// let a_o = GroupQuantized::quantize(&Matrix::full(2, 10, 9.0), QuantSpec::new(8, 16));
    /// let w_o = GroupQuantized::quantize(&Matrix::full(3, 10, 1.0), QuantSpec::new(8, 16));
    /// let pool = Pool::sequential();
    /// let outliers = Some((&a_o, &w_o));
    /// let oracle = reference::mixed_gemm(&pool, &a, &w, outliers).unwrap();
    /// let kernel = mixed_gemm_with(&pool, &a, &w, outliers).unwrap();
    /// assert_eq!(oracle.as_slice(), kernel.as_slice());
    /// ```
    pub fn mixed_gemm(
        pool: &Pool,
        a_normal: &GroupQuantized,
        w_normal: &GroupQuantized,
        outliers: Option<(&GroupQuantized, &GroupQuantized)>,
    ) -> Result<Matrix, KernelError> {
        let mut out = fused_group_gemm(pool, a_normal, w_normal)?;
        if let Some((a_out, w_out)) = outliers {
            if a_out.rows() != a_normal.rows() || w_out.rows() != w_normal.rows() {
                return Err(region_rows_mismatch());
            }
            let o = fused_group_gemm(pool, a_out, w_out)?;
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
