//! Roofline GPU cost model for the Atom reproduction.
//!
//! The paper's efficiency claims (Figs. 3, 4, 10, 11 and the §5.4.2 kernel
//! ablation) were measured on an RTX 4090 with INT4 tensor cores — hardware
//! this reproduction does not have. The paper itself argues its design with
//! a roofline model (Fig. 4), so that is exactly what this crate builds:
//!
//! - [`hardware`] — device profiles (published A100 / RTX 4090 constants).
//! - [`cost`] — per-operator latency under `max(compute, memory)` with
//!   kernel-efficiency factors calibrated once against the paper's §5.4.2
//!   numbers (pure INT4 ≈ 980 TOPS, +mixed-precision ≈ 900, +group fusion ≈
//!   770 on the 4090).
//! - [`graph`] — the Llama-7B decode/prefill operator graph per iteration,
//!   under each serving scheme (FP16, W4A16, W8A8, Atom W4A4).
//! - [`memory`] — weight + paged-KV memory accounting, giving the maximum
//!   batch size under a fixed memory budget (Fig. 10c).
//! - [`roofline`] — arithmetic-intensity / attainable-throughput points
//!   (Fig. 4).
//! - [`ablation`] — the §5.4.2 fused-kernel and reorder ablations.
//!
//! Everything is deterministic arithmetic; no randomness, no wall clocks.

pub mod ablation;
pub mod cost;
pub mod graph;
pub mod hardware;
pub mod memory;
pub mod record;
pub mod roofline;
pub mod tp;

pub use cost::{op_time, Op, OpTime};
pub use graph::{iteration_breakdown, iteration_ops, Breakdown, LlamaGpuConfig, OpClass, Phase, SimScheme};
pub use hardware::HardwareProfile;
pub use memory::MemoryModel;
pub use record::record_iteration;
pub use tp::TpConfig;
