//! Dense `f32` tensor substrate for the Atom quantization reproduction.
//!
//! This crate provides the numeric foundation every other crate in the
//! workspace builds on: a row-major [`Matrix`] type with blocked matrix
//! multiplication, the neural-network activation/normalization primitives used
//! by Llama-family models ([`ops`]), per-channel statistics used by
//! calibration ([`stats`]), seeded random generators ([`rng`]), and an IEEE
//! 754 half-precision codec ([`mod@f16`]) used by the KV-cache and
//! effective-bit accounting.
//!
//! The crate is deliberately dependency-light and CPU-only: the paper's GPU
//! kernels are reproduced bit-exactly on top of these primitives in
//! `atom-kernels`, while GPU *performance* is modeled in `atom-gpu-sim`.
//!
//! # Example
//!
//! ```
//! use atom_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![warn(missing_docs)]
pub mod cast;
pub mod f16;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;

pub use matrix::Matrix;
pub use rng::SeededRng;

/// Error type for shape mismatches and invalid arguments in tensor routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable operation name, e.g. `"matmul"`.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An argument was out of its valid domain.
    InvalidArgument {
        /// Human-readable operation name.
        op: &'static str,
        /// Description of the violated constraint.
        what: String,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{} vs rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidArgument { op, what } => {
                write!(f, "invalid argument in {op}: {what}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias for results returned by fallible tensor routines.
pub type Result<T> = std::result::Result<T, TensorError>;
