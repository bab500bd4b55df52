//! The W4A4 GEMM's operands in the layouts its inner loop reads.
//!
//! [`ActivationLanes`] holds one region's activations as `i16` codes, every
//! quantization group zero-padded to a whole number of [`LANES`]-code
//! blocks, plus their `f32` scales — quantized straight into that form, or
//! decoded from a [`GroupQuantized`]. [`WeightPanels`] holds one region's
//! weights panel-major, laid out once when a linear is quantized: runs of
//! [`PANEL_COLS`] weight rows stored code slot by code slot, so a panel's
//! 16 outputs read one contiguous 16-code vector per slot, and its group
//! scales `[group][column]` beside them. It is the quantized linear's only
//! weight form; [`WeightPanels::row_major`] reads the row-major
//! [`GroupQuantized`] it was laid out from back out of it.

use crate::group::{GroupQuantized, QuantSpec, RowQuantizer};
use crate::packed::PackedMatrix;
use atom_parallel::Pool;
use atom_tensor::Matrix;

/// Codes per fixed-width multiply-accumulate block. Operands pad every
/// quantization group with zero codes up to a multiple of this, so the
/// inner loops always run over whole blocks of `LANES` codes — a
/// compile-time trip count. It equals the group size of every scheme in
/// this workspace (a group of 16 is exactly one block).
pub const LANES: usize = 16;

/// Output columns — weight rows — per panel: one lane sum each.
pub const PANEL_COLS: usize = 16;

/// The effective group of a quantizer over `cols` channels: the spec's,
/// capped at the row width, at least 1.
pub(crate) fn effective_group(spec: QuantSpec, cols: usize) -> usize {
    spec.group.min(cols.max(1)).max(1)
}

/// One precision region's activation operand: `rows x cols` codes of a
/// `bits`-wide quantizer as `i16` lanes, group `g` of row `i` at
/// `(i * n_groups + g) * padded`, zero past the group's real codes, and
/// one `f32` scale per (row, group).
///
/// # Example
///
/// ```
/// use atom_kernels::panel::ActivationLanes;
/// use atom_kernels::{GroupQuantized, QuantSpec};
/// use atom_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[0.1, -0.5, 2.0, 0.7, 9.0]]);
/// let perm = [3, 0, 2, 4, 1];
/// let spec = QuantSpec::new(4, 2);
/// // The leading four permuted channels, straight into lanes without
/// // building the permuted copy, equal the packed copy's codes decoded.
/// let direct = ActivationLanes::quantize_gather(&x, &perm[..4], spec);
/// let packed = GroupQuantized::quantize(&x.permute_cols(&perm).slice_cols(0, 4), spec);
/// assert_eq!(direct, ActivationLanes::decode(&packed));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationLanes {
    bits: u8,
    rows: usize,
    cols: usize,
    group: usize,
    n_groups: usize,
    padded: usize,
    codes: Vec<i16>,
    scales: Vec<f32>,
}

impl ActivationLanes {
    /// An operand of `rows` all-zero rows, ready to be filled.
    fn zeros(rows: usize, cols: usize, spec: QuantSpec) -> Self {
        let group = effective_group(spec, cols);
        let n_groups = spec.groups_for(cols);
        let padded = group.next_multiple_of(LANES);
        ActivationLanes {
            bits: spec.bits,
            rows,
            cols,
            group,
            n_groups,
            padded,
            codes: vec![0; rows * n_groups * padded],
            scales: vec![0.0; rows * n_groups],
        }
    }

    /// Decodes a packed operand into lanes: the same codes and scales.
    pub fn decode(a: &GroupQuantized) -> Self {
        let mut out = Self::zeros(a.rows(), a.cols(), a.spec());
        let mut codes = vec![0i8; a.cols()];
        for r in 0..a.rows() {
            a.values().unpack_row(r, &mut codes);
            out.write_row(r, &codes);
        }
        out.scales.copy_from_slice(a.scales().as_slice());
        out
    }

    /// Dynamic per-token quantization (paper §4.3) of the matrix whose
    /// column `c` is `x`'s column `cols[c]` — the fused reorder + quantize
    /// epilogue of Fig. 8 — straight into lanes: the codes and scales
    /// [`GroupQuantized::quantize`] packs for the permuted copy, with no
    /// permuted copy, pack or unpack. Rows split into one block per thread
    /// of [`Pool::current`]; every row quantizes independently, so the
    /// result is the same for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or an index is `>= x.cols()`.
    pub fn quantize_gather(x: &Matrix, cols: &[usize], spec: QuantSpec) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: an invalid spec is a programmer error, not a data condition"
        )]
        spec.validate().expect("invalid quant spec");
        assert!(
            cols.iter().all(|&c| c < x.cols()),
            "gather index out of range for {} columns",
            x.cols()
        );
        let mut out = Self::zeros(x.rows(), cols.len(), spec);
        let (rows, pool) = (x.rows(), Pool::current());
        let (width, n_groups) = (out.row_width().max(1), out.n_groups.max(1));
        if pool.is_sequential() || rows <= 1 {
            out.quantize_rows(x, 0, cols, spec);
            return out;
        }
        let block = rows.div_ceil(pool.threads().min(rows));
        let starts: Vec<usize> = (0..rows).step_by(block).collect();
        let Ok(blocks) = pool.par_map(&starts, |_, &s| {
            let mut part = Self::zeros((s + block).min(rows) - s, cols.len(), spec);
            part.quantize_rows(x, s, cols, spec);
            part
        });
        for (s, part) in starts.iter().zip(blocks) {
            let (codes, scales) = (s * width, s * n_groups);
            if let Some(dst) = out.codes.get_mut(codes..codes + part.codes.len()) {
                dst.copy_from_slice(&part.codes);
            }
            if let Some(dst) = out.scales.get_mut(scales..scales + part.scales.len()) {
                dst.copy_from_slice(&part.scales);
            }
        }
        out
    }

    /// Quantizes `x`'s rows `first ..` (through `cols`) into every row of
    /// `self`.
    fn quantize_rows(&mut self, x: &Matrix, first: usize, cols: &[usize], spec: QuantSpec) {
        let mut quantizer = RowQuantizer::new(spec, Some(cols));
        let n_groups = self.n_groups.max(1);
        for r in 0..self.rows {
            let Some(scales) = self.scales.get_mut(r * n_groups..(r + 1) * n_groups) else {
                continue;
            };
            let codes = quantizer.row(x.row(first + r), scales);
            self.write_row(r, codes);
        }
    }

    /// Writes row `r`'s `cols` codes group by group into its padded slots.
    fn write_row(&mut self, r: usize, codes: &[i8]) {
        let width = self.row_width();
        let Some(row) = self.codes.get_mut(r * width..(r + 1) * width) else {
            return;
        };
        for (slot, group) in row.chunks_exact_mut(self.padded).zip(codes.chunks(self.group)) {
            for (d, &c) in slot.iter_mut().zip(group) {
                *d = i16::from(c);
            }
        }
    }

    /// The operand of rows `rows` of this one, in that order — rows
    /// quantize independently, so this is the operand of those rows of the
    /// input.
    pub fn gather_rows(&self, rows: &[usize]) -> Self {
        let (width, n_groups) = (self.row_width(), self.n_groups);
        let mut out = ActivationLanes {
            rows: rows.len(),
            codes: Vec::with_capacity(rows.len() * width),
            scales: Vec::with_capacity(rows.len() * n_groups),
            ..*self
        };
        for &r in rows {
            assert!(r < self.rows, "row {r} out of range for {} rows", self.rows);
            out.codes.extend(self.codes.get(r * width..(r + 1) * width).unwrap_or(&[]));
            out.scales.extend(self.scales.get(r * n_groups..(r + 1) * n_groups).unwrap_or(&[]));
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (channels).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bit width of the quantizer the codes came from.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The effective group size (the spec's, capped at the row width).
    pub fn group(&self) -> usize {
        self.group
    }

    /// Bytes the operand takes packed — what a [`GroupQuantized`] of the
    /// same codes and scales stores.
    pub fn packed_bytes(&self) -> usize {
        self.rows * (self.cols * usize::from(self.bits)).div_ceil(8) + self.scales.len() * 2
    }

    /// Codes per row: `n_groups` blocks of `padded` lanes.
    fn row_width(&self) -> usize {
        self.n_groups * self.padded
    }

    /// Quantization groups per row.
    pub(crate) fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Lanes per group, `group` rounded up to a multiple of [`LANES`].
    pub(crate) fn padded(&self) -> usize {
        self.padded
    }

    /// Every row's codes, in row order. (An empty region — `k = 0` —
    /// yields no rows.)
    pub(crate) fn iter_rows(&self) -> impl Iterator<Item = &[i16]> {
        self.codes.chunks_exact(self.row_width().max(1))
    }

    /// Every row's group scales, row after row: row `i`'s at `i *
    /// n_groups ..`.
    pub(crate) fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// One region's weights, panel-major: weight rows in panels of
/// [`PANEL_COLS`], each panel stored group by group and, inside a group,
/// code slot by code slot, one `i8` lane per row —
/// `codes[(p * n_groups + g) * padded + t][c]` is code `t` of group `g` of
/// weight row `p * PANEL_COLS + c` — and each panel's group scales beside
/// its codes, `scales[p * n_groups + g][c]`. Slots past a group's real
/// codes and lanes past the last row hold zero codes and zero scales.
///
/// # Example
///
/// ```
/// use atom_kernels::panel::WeightPanels;
/// use atom_kernels::{GroupQuantized, QuantSpec};
/// use atom_tensor::Matrix;
///
/// let w = GroupQuantized::quantize(&Matrix::full(20, 24, 0.5), QuantSpec::new(4, 16));
/// let panels = WeightPanels::new(&w);
/// assert_eq!((panels.rows(), panels.cols()), (20, 24));
/// // The bytes the packed row-major form stores, and that form read back.
/// assert_eq!(panels.packed_bytes(), w.packed_bytes());
/// assert_eq!(panels.row_major(), w);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightPanels {
    spec: QuantSpec,
    rows: usize,
    cols: usize,
    group: usize,
    n_groups: usize,
    padded: usize,
    codes: Vec<[i8; PANEL_COLS]>,
    scales: Vec<[f32; PANEL_COLS]>,
}

impl WeightPanels {
    /// Lays `w` out panel-major.
    pub fn new(w: &GroupQuantized) -> Self {
        let (rows, cols) = (w.rows(), w.cols());
        let group = effective_group(w.spec(), cols);
        let n_groups = w.spec().groups_for(cols);
        let padded = group.next_multiple_of(LANES);
        let n_panels = rows.div_ceil(PANEL_COLS);
        let mut codes = vec![[0i8; PANEL_COLS]; n_panels * n_groups * padded];
        let mut scales = vec![[0f32; PANEL_COLS]; n_panels * n_groups];
        let mut row = vec![0i8; cols];
        let panels = codes.chunks_exact_mut((n_groups * padded).max(1));
        for (p, (p_codes, p_scales)) in panels.zip(scales.chunks_exact_mut(n_groups.max(1))).enumerate() {
            for c in 0..PANEL_COLS.min(rows - p * PANEL_COLS) {
                let r = p * PANEL_COLS + c;
                w.values().unpack_row(r, &mut row);
                let slots = p_codes.chunks_exact_mut(padded).zip(row.chunks(group));
                for (group_slots, group_codes) in slots {
                    for (slot, &code) in group_slots.iter_mut().zip(group_codes) {
                        if let Some(lane) = slot.get_mut(c) {
                            *lane = code;
                        }
                    }
                }
                for (group, &s) in p_scales.iter_mut().zip(w.scales().row(r)) {
                    if let Some(lane) = group.get_mut(c) {
                        *lane = s;
                    }
                }
            }
        }
        WeightPanels {
            spec: w.spec(),
            rows,
            cols,
            group,
            n_groups,
            padded,
            codes,
            scales,
        }
    }

    /// The row-major [`GroupQuantized`] these panels were laid out from:
    /// the same codes and scales, read back lane by lane.
    pub fn row_major(&self) -> GroupQuantized {
        let mut values = PackedMatrix::zeros(self.rows, self.cols, self.spec.bits);
        let mut scales = Matrix::zeros(self.rows, self.n_groups);
        let mut row = vec![0i8; self.cols];
        for r in 0..self.rows {
            let (codes, lane_scales) = self.panel(r / PANEL_COLS);
            let c = r % PANEL_COLS;
            for (group_codes, group_slots) in row.chunks_mut(self.group).zip(codes.chunks_exact(self.padded)) {
                for (code, slot) in group_codes.iter_mut().zip(group_slots) {
                    *code = slot.get(c).copied().unwrap_or(0);
                }
            }
            values.pack_row(r, &row);
            for (s, group) in scales.row_mut(r).iter_mut().zip(lane_scales) {
                *s = group.get(c).copied().unwrap_or(0.0);
            }
        }
        GroupQuantized::from_parts(self.spec, values, scales)
    }

    /// Weight rows (output features).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Codes per row (input features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bit width of the weight codes.
    pub fn bits(&self) -> u8 {
        self.spec.bits
    }

    /// The effective group size (the spec's, capped at the row width).
    pub fn group(&self) -> usize {
        self.group
    }

    /// Bytes the weights take packed — what the row-major
    /// [`GroupQuantized`] stores: the codes bit-packed row by row, and one
    /// f16 scale per (row, group).
    pub fn packed_bytes(&self) -> usize {
        self.rows * (self.cols * usize::from(self.spec.bits)).div_ceil(8) + self.rows * self.n_groups * 2
    }

    /// Panel `p`'s code slots, `n_groups * padded` of them, and its group
    /// scales, `n_groups` of them.
    pub(crate) fn panel(&self, p: usize) -> (&[[i8; PANEL_COLS]], &[[f32; PANEL_COLS]]) {
        let (slots, n_groups) = (self.n_groups * self.padded, self.n_groups);
        let codes = self.codes.get(p * slots..(p + 1) * slots).unwrap_or(&[]);
        (codes, self.scales.get(p * n_groups..(p + 1) * n_groups).unwrap_or(&[]))
    }
}
