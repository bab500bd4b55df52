//! Llama-family models, autograd, and training for the Atom reproduction.
//!
//! This crate supplies the *models being quantized*: a decoder-only
//! Llama-style transformer ([`model::LlamaModel`]) that is generic over its
//! linear-layer precision, a tape-based autograd engine ([`autograd`]) and
//! AdamW trainer ([`train`]) used to produce genuinely trained weights, a
//! function-preserving outlier-injection transform ([`transform`]) that
//! reproduces the activation-outlier phenomenon of large LLMs (paper
//! Fig. 5), quality metrics ([`eval`]), and a cached model zoo ([`zoo`])
//! standing in for the Llama 7B–65B checkpoints.
//!
//! # Example
//!
//! ```
//! use atom_nn::{config::ModelConfig, kv::Fp32KvCache, model::LlamaModel};
//!
//! let config = ModelConfig { layers: 2, ..ModelConfig::default() };
//! let model = LlamaModel::random_init(config, 0);
//! let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
//! let logits = model.forward(&[10, 20, 30], &mut cache);
//! assert_eq!(logits.shape(), (3, config.vocab));
//! ```

pub mod autograd;
pub mod config;
pub mod eval;
pub mod kv;
pub mod linear;
pub mod model;
pub mod serialize;
pub mod train;
pub mod transform;
pub mod zoo;

pub use config::ModelConfig;
pub use kv::{Fp32KvCache, KvStore};
pub use linear::{DenseLinear, LinearLayer};
pub use model::{ForwardObserver, LinearId, LlamaModel, NoopObserver, Proj, SeqRows};
