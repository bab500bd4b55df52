//! Bit-exact packed low-bit CPU kernels for the Atom reproduction.
//!
//! The paper's CUDA kernels cannot run here, but their *numerics* can: this
//! crate implements the same data layouts and arithmetic pipelines on the
//! CPU, bit-for-bit —
//!
//! - [`packed`] — dense bit-packed integer matrices (2–8 bits per element,
//!   INT4 packs two values per byte exactly like the GPU layout).
//! - [`group`] — symmetric per-group quantized tensors with f16 scales: the
//!   operand format of Atom's fused GEMM (paper §4.2).
//! - [`gemm`] — the fused group-dequantization GEMM of Fig. 8, which as
//!   the mixed-precision GEMM multiplies the INT4 normal region and the
//!   INT8 outlier region separately and sums in FP32.
//! - [`asym`] — asymmetric per-row quantized containers used by the
//!   KV-cache (paper §4.4).
//! - [`attention`] — self-attention over quantized KV with the
//!   dequantization fused in, mirroring the fused FlashInfer kernel.
//!
//! There is one implementation per operator, tested against a reference:
//! [`gemm::reference`] (bit-identical; only tests and report bins call it),
//! [`PackedMatrix::get`] for the row decoders, and
//! [`attention::attention_reference`] over the dequantized K/V. The
//! quantization *algorithms* (outlier selection, reordering, GPTQ,
//! clipping search) live in the `atom` crate and produce these containers.
//!
//! # How one kernel per operator stays fast
//!
//! The design rule is the opposite of hand-rolled bit tricks: give every hot
//! loop a compile-time trip count and no cross-iteration state, and let the
//! compiler vectorize it — safe Rust, no `core::arch`, no feature detection,
//! the baseline x86-64 feature level. Nothing selects a kernel at run time
//! and nothing is read from the environment ([`KernelPath`] is a
//! single-valued shim).
//!
//! - **Packed layout and decode.** [`PackedMatrix`] stores codes biased
//!   (`raw = value + 2^(bits-1)`, so INT4 codes occupy `0..=15` and bytes
//!   need no sign handling), rows byte-aligned, INT4 two columns per byte,
//!   low nibble first. The INT4 and INT8 row decoders are the plain per-byte
//!   loops that layout suggests — `(b & 0x0F) - 8` and `(b >> 4) - 8`, or
//!   `b ^ 0x80` — which the compiler turns into wide loads, mask / shift and
//!   a packed subtract; other widths use a generic bit-window loop. When a
//!   row packs without pad bits, consecutive rows are one code stream and
//!   [`PackedMatrix::unpack_rows`] decodes a whole block in one sweep.
//!   [`PackedMatrix::pack_row`] is the write side: whole-byte stores, pad
//!   bits 0.
//! - **One loop over weight panels, in exact lanes, one sweep over the
//!   weights.** A quantized linear stores its weights once, panel-major
//!   ([`WeightPanels`]: 16 weight rows code slot by code slot, and their
//!   group scales `[group][column]`), and the GEMM streams them once per
//!   call in tiles of [`atom_parallel::KERNEL_ROW_BLOCK`] rows, both
//!   precision regions of a mixed GEMM in the same pass ([`gemm`] has the
//!   details). Activation groups are zero-padded to a multiple of 16 codes,
//!   so every group is whole 16-slot blocks. Blocks of 4 activation rows
//!   (the last 1–3 rows as one block of that many) accumulate a panel's 16
//!   outputs at once in lanes that hold each group sum exactly: `i16` for
//!   INT4 x INT4 (a group of 16 reaches at most 1024), `f32` for the INT8
//!   outliers (below 2^24) and `i32` past that (groups are capped at
//!   [`gemm::MAX_ACC_K`]) — `const` assertions rustc evaluates on every
//!   build — so no output pays a horizontal reduction. The `i16` lanes add
//!   with `saturating_add`, which never saturates under the bound and lets
//!   the compiler vectorise across the 16 columns at one row too.
//! - **The fused reorder + quantize epilogue.**
//!   [`ActivationLanes::quantize_gather`] quantizes a region of an
//!   activation straight through its slice of a reorder permutation into
//!   the GEMM's `i16` lanes (per row: gather into a row buffer, one pass
//!   for scales and codes) — the single epilogue Fig. 8 draws, with no
//!   permuted copy and no pack. Its `clamp(round(x / s))` is branch-free
//!   float arithmetic, exact against `f32::round` for every input, and
//!   shared with the asymmetric KV quantizer.
//! - **Quantized KV in place.** Rows are byte-aligned, so
//!   [`AsymQuantized::extend_rows`] quantizes each head's column block
//!   straight from the row sub-slices onto the end of the head's payload,
//!   scales and minima, and [`PackedMatrix::truncate_rows`] truncates it: a
//!   KV append costs the new rows only and a prefix-hit truncation costs
//!   nothing.
//!
//! DESIGN.md §3.11 argues why kernel and reference are bit-identical at any
//! pool width; EXPERIMENTS.md has the measurements.

#![warn(missing_docs)]
// The kernels sit under the engine's forward path, so they inherit the
// serving contract; the few audited sites (bit-window indexing under an
// asserted bound, `# Panics` preconditions) each carry an `#[expect]` with
// its reason. Tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]
pub mod asym;
pub mod attention;
pub mod gemm;
pub mod group;
pub mod packed;
pub mod panel;

pub use asym::AsymQuantized;
pub use attention::{attention_quant_kv, QuantizedKvHead};
pub use gemm::{lane_gemm, mixed_gemm, mixed_gemm_with, GemmRegion};
pub use group::{GroupQuantized, QuantSpec, MAX_BITS, MIN_BITS};
pub use packed::PackedMatrix;
pub use panel::{ActivationLanes, WeightPanels};

/// Exists only for the report-header line frozen `benchmark/src/run.rs`
/// prints (`KernelPath::current().label()`); there is one kernel per operator
/// and nothing to select. Goes in the next `benchmark` revision.
#[derive(Debug)]
pub struct KernelPath;
impl KernelPath {
    /// The only value.
    pub const fn current() -> Self {
        KernelPath
    }
    /// The label that header has always printed.
    pub const fn label(self) -> &'static str {
        "swar"
    }
}

/// Error type for kernel-level shape validation. A panic inside a kernel's
/// parallel region is not an error value: it continues on the caller, as
/// it would from the sequential loop (see `atom_parallel`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Operand shapes are incompatible.
    ShapeMismatch(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
        }
    }
}

impl std::error::Error for KernelError {}
