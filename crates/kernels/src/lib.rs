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
//! - [`gemm`] — integer GEMM with i32 accumulation, the fused
//!   group-dequantization GEMM of Fig. 8, and the mixed-precision GEMM that
//!   multiplies the INT4 normal region and the INT8 outlier region
//!   separately and sums in FP32.
//! - [`asym`] — asymmetric per-row quantized containers used by the
//!   KV-cache (paper §4.4).
//! - [`attention`] — self-attention with dequantize-on-load quantized KV,
//!   mirroring the fused FlashInfer kernel.
//!
//! There is one implementation per operator, tested against a reference:
//! [`gemm::reference`] (bit-identical; only tests and report bins call it),
//! [`PackedMatrix::get`] for the row decoders, and
//! [`attention::attention_reference`] over the dequantized K/V. The
//! quantization *algorithms* (outlier selection, reordering, GPTQ,
//! clipping search) live in the `atom` crate and produce these containers.

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

pub use asym::AsymQuantized;
pub use attention::{
    attention_quant_kv, attention_quant_kv_heads, attention_quant_kv_heads_with, QuantizedKvHead,
};
pub use gemm::{fused_group_gemm, fused_group_gemm_with, mixed_gemm, mixed_gemm_with};
pub use group::{GroupQuantized, QuantSpec, MAX_BITS, MIN_BITS};
pub use packed::PackedMatrix;

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

/// Error type for kernel-level shape and parameter validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Operand shapes are incompatible.
    ShapeMismatch(String),
    /// A quantization parameter is out of range.
    InvalidParameter(String),
    /// A parallel worker panicked; the panic was contained by the pool and
    /// surfaced as this error instead of aborting the process.
    WorkerPanic(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
            KernelError::InvalidParameter(s) => write!(f, "invalid parameter: {s}"),
            KernelError::WorkerPanic(s) => write!(f, "parallel worker panic: {s}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<atom_parallel::PoolError> for KernelError {
    fn from(e: atom_parallel::PoolError) -> Self {
        KernelError::WorkerPanic(e.to_string())
    }
}
