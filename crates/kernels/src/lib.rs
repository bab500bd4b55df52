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
//! - [`swar`] — the fast path's INT4 / INT8 row decoders: plain
//!   byte-at-a-time loops the compiler vectorizes; the hot GEMM/attention
//!   inner loops decode through these.
//! - [`path`] — [`KernelPath`] selection between the `swar` fast path and
//!   the scalar reference (`ATOM_KERNEL_PATH`, default `swar`); the two are
//!   proven bit-identical by the property suite.
//!
//! Every kernel has a reference implementation and is tested against it;
//! the quantization *algorithms* (outlier selection, reordering, GPTQ,
//! clipping search) live in the `atom` crate and produce these containers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod asym;
pub mod attention;
pub mod gemm;
pub mod group;
pub mod packed;
pub mod path;
pub mod swar;

pub use asym::AsymQuantized;
pub use attention::{
    attention_quant_kv, attention_quant_kv_heads, attention_quant_kv_heads_with,
    attention_quant_kv_heads_with_path, attention_quant_kv_path, QuantizedKvHead,
};
pub use gemm::{
    fused_group_gemm, fused_group_gemm_with, fused_group_gemm_with_path, mixed_gemm,
    mixed_gemm_with, mixed_gemm_with_path,
};
pub use group::{GroupQuantized, QuantSpec, MAX_BITS, MIN_BITS};
pub use packed::PackedMatrix;
pub use path::KernelPath;

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
