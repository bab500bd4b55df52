//! The model zoo: trained, outlier-injected models standing in for the
//! paper's Llama checkpoints.
//!
//! Four sizes mirror Llama 7B/13B/30B/65B (scaled down ~4 orders of
//! magnitude; see DESIGN.md), plus a GQA variant ("Llama-2-like") and an MoE
//! variant ("Mixtral-like") for the Table 4 generality study. Models are
//! trained once on a blend of the three corpora and cached on disk
//! (`target/model-cache/` by default, override with `ATOM_MODEL_CACHE`), so
//! every example/bench binary reuses the same checkpoints.

use crate::config::ModelConfig;
use crate::linear::DenseLinear;
use crate::model::LlamaModel;
use crate::serialize::{load_model, save_model};
use crate::train::{train, TrainSpec};
use crate::transform::{inject_outliers, OutlierSpec};
use atom_data::{Corpus, CorpusStyle, Tokenizer};
use std::path::PathBuf;

/// Identity of a zoo model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZooId {
    /// Smallest size; stands in for Llama-7B.
    Tiny,
    /// Stands in for Llama-13B.
    Small,
    /// Stands in for Llama-30B.
    Base,
    /// Largest size; stands in for Llama-65B.
    Large,
    /// GQA variant; stands in for Llama-2.
    Gqa,
    /// Soft-MoE variant; stands in for Mixtral.
    Moe,
}

impl ZooId {
    /// All models.
    pub fn all() -> [ZooId; 6] {
        [
            ZooId::Tiny,
            ZooId::Small,
            ZooId::Base,
            ZooId::Large,
            ZooId::Gqa,
            ZooId::Moe,
        ]
    }

    /// The four Llama-1-style sizes used in Tables 1/2 and Fig. 2.
    pub fn sizes() -> [ZooId; 4] {
        [ZooId::Tiny, ZooId::Small, ZooId::Base, ZooId::Large]
    }

    /// Display label; the `*` marks the scaled-down stand-in.
    pub fn label(self) -> &'static str {
        match self {
            ZooId::Tiny => "7B*",
            ZooId::Small => "13B*",
            ZooId::Base => "30B*",
            ZooId::Large => "65B*",
            ZooId::Gqa => "L2-7B*",
            ZooId::Moe => "8x7B*",
        }
    }

    /// File stem used in the on-disk cache.
    fn stem(self) -> &'static str {
        match self {
            ZooId::Tiny => "tiny",
            ZooId::Small => "small",
            ZooId::Base => "base",
            ZooId::Large => "large",
            ZooId::Gqa => "gqa",
            ZooId::Moe => "moe",
        }
    }

    /// Architecture of this zoo model.
    pub fn config(self) -> ModelConfig {
        let base = ModelConfig {
            vocab: 96,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
            max_seq_len: 512,
            experts: 1,
            ..ModelConfig::default()
        };
        match self {
            ZooId::Tiny => ModelConfig {
                dim: 48,
                layers: 2,
                heads: 4,
                kv_heads: 4,
                ffn_dim: 128,
                ..base
            },
            ZooId::Small => ModelConfig {
                dim: 64,
                layers: 3,
                heads: 4,
                kv_heads: 4,
                ffn_dim: 192,
                ..base
            },
            ZooId::Base => ModelConfig {
                dim: 96,
                layers: 4,
                heads: 6,
                kv_heads: 6,
                ffn_dim: 256,
                ..base
            },
            ZooId::Large => ModelConfig {
                dim: 128,
                layers: 4,
                heads: 8,
                kv_heads: 8,
                ffn_dim: 384,
                ..base
            },
            ZooId::Gqa => ModelConfig {
                dim: 64,
                layers: 3,
                heads: 8,
                kv_heads: 2,
                ffn_dim: 192,
                ..base
            },
            ZooId::Moe => ModelConfig {
                dim: 48,
                layers: 2,
                heads: 4,
                kv_heads: 4,
                ffn_dim: 96,
                experts: 4,
                ..base
            },
        }
    }

    /// Training budget for this model: roughly 2-3 epochs over the blended
    /// training corpus, enough for the models to absorb the lexicon facts
    /// the zero-shot tasks quiz.
    pub fn train_spec(self) -> TrainSpec {
        let steps = match self {
            ZooId::Tiny => 500,
            ZooId::Small => 600,
            ZooId::Base => 700,
            ZooId::Large => 700,
            ZooId::Gqa => 500,
            ZooId::Moe => 500,
        };
        TrainSpec {
            steps,
            batch: 4,
            seq_len: 96,
            lr: 3e-3,
            warmup: 20,
            weight_decay: 0.01,
            clip: 1.0,
            seed: 0x5EED ^ self.stem().len() as u64 ^ (steps as u64) << 16,
        }
    }

    /// Outlier-injection parameters applied after training.
    pub fn outlier_spec(self) -> OutlierSpec {
        OutlierSpec {
            channels_per_site: 4,
            magnitude: 40.0,
            value_magnitude: 4.0,
            spread: 0.35,
            seed: 0xA70,
        }
    }
}

impl std::fmt::Display for ZooId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Size of each training/eval corpus in characters.
const CORPUS_CHARS: usize = 40_000;
/// Seed for the shared corpora.
const CORPUS_SEED: u64 = 2024;

/// The three evaluation corpora (generated deterministically, shared by all
/// models and experiments).
pub fn corpora() -> [Corpus; 3] {
    [
        Corpus::generate(CorpusStyle::Wiki, CORPUS_CHARS, CORPUS_SEED),
        Corpus::generate(CorpusStyle::Ptb, CORPUS_CHARS, CORPUS_SEED + 1),
        Corpus::generate(CorpusStyle::C4, CORPUS_CHARS, CORPUS_SEED + 2),
    ]
}

/// Tokenized training blend: the train split of all three corpora.
pub fn training_tokens() -> Vec<u16> {
    let tok = Tokenizer::new();
    let mut out = Vec::new();
    for corpus in corpora() {
        let (train, _) = corpus.split(0.9);
        out.extend(tok.encode(train));
    }
    out
}

/// Tokenized held-out validation split for one corpus style.
pub fn validation_tokens(style: CorpusStyle) -> Vec<u16> {
    let tok = Tokenizer::new();
    let corpus = corpora()
        .into_iter()
        .find(|c| c.style() == style)
        .expect("style exists");
    let (_, valid) = corpus.split(0.9);
    tok.encode(valid)
}

/// Tokenized calibration sentences (paper §5.1: 128 random sentences),
/// drawn from the wiki corpus train split.
pub fn calibration_sequences(n: usize) -> Vec<Vec<u16>> {
    let tok = Tokenizer::new();
    let corpus = Corpus::generate(CorpusStyle::Wiki, CORPUS_CHARS, CORPUS_SEED);
    corpus
        .calibration_sentences(n, 0xCAFE)
        .into_iter()
        .map(|s| tok.encode(&s))
        .collect()
}

/// Directory trained models are cached in.
pub fn cache_dir() -> PathBuf {
    #[expect(
        clippy::disallowed_methods,
        reason = "audited config entry point: ATOM_MODEL_CACHE says where trained weights land, never what they are"
    )]
    if let Ok(dir) = std::env::var("ATOM_MODEL_CACHE") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/model-cache")
}

/// Returns the trained, outlier-injected model for `id`, training and
/// caching it on first use.
///
/// Training the full zoo takes a few minutes on one core; subsequent calls
/// load from the cache in milliseconds.
///
/// # Panics
///
/// Panics if training diverges (non-finite loss) or the cache directory is
/// not writable.
pub fn trained(id: ZooId) -> LlamaModel<DenseLinear> {
    let path = cache_dir().join(format!("atom-{}.bin", id.stem()));
    if let Ok(model) = load_model(&path) {
        if model.config() == &id.config() {
            return model;
        }
        // Config drifted (e.g. zoo definition changed): retrain.
    }
    let tokens = training_tokens();
    let spec = id.train_spec();
    let (mut model, metrics) = train(id.config(), &tokens, spec);
    let final_loss = metrics.tail_loss(10);
    assert!(
        final_loss.is_finite(),
        "training of {id} diverged (loss {final_loss})"
    );
    inject_outliers(&mut model, &id.outlier_spec());
    save_model(&model, &path).expect("writing model cache");
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate_and_scale() {
        let mut last = 0;
        for id in ZooId::sizes() {
            let c = id.config();
            c.validate().unwrap();
            assert!(c.param_count() > last, "{id} not larger than predecessor");
            last = c.param_count();
        }
        ZooId::Gqa.config().validate().unwrap();
        ZooId::Moe.config().validate().unwrap();
        assert_eq!(ZooId::Gqa.config().kv_heads, 2);
        assert_eq!(ZooId::Moe.config().experts, 4);
    }

    #[test]
    fn group_quant_dims_divisible_by_16() {
        // The paper's group size 128 scales to 16 at our dims; every linear
        // input dimension must be divisible.
        for id in ZooId::all() {
            let c = id.config();
            assert_eq!(c.dim % 16, 0, "{id} dim");
            assert_eq!(c.ffn_dim % 16, 0, "{id} ffn_dim");
        }
    }

    #[test]
    fn training_tokens_are_substantial() {
        let toks = training_tokens();
        assert!(toks.len() > 100_000);
        assert!(toks.iter().all(|&t| (t as usize) < 96));
    }

    #[test]
    fn validation_splits_are_disjoint_styles() {
        let w = validation_tokens(CorpusStyle::Wiki);
        let p = validation_tokens(CorpusStyle::Ptb);
        assert!(w.len() > 2_000);
        assert!(p.len() > 2_000);
        assert_ne!(w, p);
    }

    #[test]
    fn calibration_sequences_shape() {
        let seqs = calibration_sequences(8);
        assert_eq!(seqs.len(), 8);
        assert!(seqs.iter().all(|s| s.len() > 8));
    }
}
