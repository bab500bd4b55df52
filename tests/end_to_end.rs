//! End-to-end integration tests spanning the whole stack:
//! data -> training -> outlier injection -> calibration -> quantization ->
//! evaluation -> serving.

use atom::pipeline::{AtomScheme, Scheme};
use atom::{Calibration, QuantizedKvCache};
use atom_data::{Corpus, CorpusStyle, TaskSuite, Tokenizer};
use atom_nn::train::{train, TrainSpec};
use atom_nn::transform::{inject_outliers, OutlierSpec};
use atom_nn::{eval, DenseLinear, LlamaModel, ModelConfig};
use atom_parallel::Pool;
use atom_serve::engine::CpuEngine;
use atom_serve::PrefixConfig;
use std::sync::OnceLock;

/// A micro model trained on real corpus text, with injected outliers —
/// shared across the tests in this file (training takes a couple of
/// seconds in debug mode).
fn trained_micro() -> &'static (LlamaModel<DenseLinear>, Vec<u16>) {
    static MODEL: OnceLock<(LlamaModel<DenseLinear>, Vec<u16>)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let corpus = Corpus::generate(CorpusStyle::Wiki, 30_000, 99);
        let tok = Tokenizer::new();
        let (train_text, valid_text) = corpus.split(0.9);
        let train_tokens = tok.encode(train_text);
        let valid_tokens = tok.encode(valid_text);
        let config = ModelConfig {
            dim: 32,
            layers: 2,
            heads: 4,
            kv_heads: 4,
            ffn_dim: 64,
            max_seq_len: 128,
            ..ModelConfig::default()
        };
        let spec = TrainSpec {
            steps: 60,
            batch: 2,
            seq_len: 48,
            lr: 4e-3,
            warmup: 8,
            ..TrainSpec::default()
        };
        let (mut model, metrics) = train(config, &train_tokens, spec);
        assert!(
            metrics.tail_loss(10) < metrics.losses[0],
            "micro model failed to learn"
        );
        inject_outliers(
            &mut model,
            &OutlierSpec {
                channels_per_site: 3,
                magnitude: 35.0,
                value_magnitude: 4.0,
                spread: 0.3,
                seed: 5,
            },
        );
        (model, valid_tokens)
    })
}

fn calibration() -> Calibration {
    let (model, _) = trained_micro();
    let corpus = Corpus::generate(CorpusStyle::Wiki, 30_000, 99);
    let tok = Tokenizer::new();
    let seqs: Vec<Vec<u16>> = corpus
        .calibration_sentences(32, 1)
        .iter()
        .map(|s| tok.encode(s))
        .collect();
    Calibration::collect(model, &seqs, true, 1)
}

#[test]
fn atom_w4a4_tracks_fp32_while_rtn_collapses() {
    let (model, valid) = trained_micro();
    let calib = calibration();
    let valid = &valid[..valid.len().min(800)];

    let fp = eval::perplexity(model, valid, 64);
    let atom = Scheme::Atom(AtomScheme::w4a4())
        .quantize(model, &calib)
        .perplexity(valid, 64);
    let rtn = Scheme::Rtn { w_bits: 4, a_bits: 4 }
        .quantize(model, &calib)
        .perplexity(valid, 64);

    assert!(fp > 1.0 && fp < 40.0, "fp ppl {fp}");
    assert!(atom < fp * 2.0, "Atom drifted: {atom} vs fp {fp}");
    assert!(rtn > atom * 2.0, "RTN should collapse: rtn {rtn} vs atom {atom}");
}

#[test]
fn zero_shot_pipeline_runs_above_chance_for_fp() {
    let (model, _) = trained_micro();
    let suite = TaskSuite::generate(20, 3);
    let tok = Tokenizer::new();
    // BoolQA is 2-way; a trained model should beat coin flipping at least
    // slightly; mostly this asserts the scoring machinery works end to end.
    let (accs, avg) = eval::zero_shot_row(model, &suite, &tok);
    assert_eq!(accs.len(), 6);
    assert!((0.0..=1.0).contains(&avg));
}

/// The W4A4 model served over INT4 KV: the same token streams with the
/// prefix cache off and on, at pool widths 1, 2 and 8 — the one serving
/// invariant whose evidence needs the quantized path.
#[test]
fn quantized_model_serves_real_requests() {
    let (model, _) = trained_micro();
    let calib = calibration();
    let quantized = Scheme::Atom(AtomScheme::w4a4()).quantize(model, &calib);
    let config = *quantized.model.config();
    // A system prompt of exactly two KV blocks shared by every request,
    // then a question.
    let tok = Tokenizer::new();
    let system = "the robin and the mill are near ";
    let prompts: Vec<Vec<u16>> = ["the robin ", "the mill ", "is the wolf a ", "the wood "]
        .iter()
        .map(|q| tok.encode(&format!("{system}{q}")))
        .collect();
    assert_eq!(tok.encode(system).len(), 32);

    let run = |cached: bool, threads: usize| {
        let mut engine = CpuEngine::new(
            quantized.model.clone(),
            Box::new(move || {
                Box::new(QuantizedKvCache::new(
                    config.layers,
                    config.kv_dim(),
                    config.head_dim(),
                    4,
                ))
            }),
            2,
            2048,
        )
        .expect("valid engine config");
        if cached {
            engine = engine.with_prefix_cache(PrefixConfig::default());
        }
        for p in &prompts {
            engine.submit(p.clone(), 8).unwrap();
        }
        let mut done = Pool::new(threads).install(|| engine.run_to_completion().to_vec());
        done.sort_by_key(|c| c.id);
        (done, engine.prefix_stats().expect("always present").hits)
    };
    let (base, _) = run(false, 1);
    assert_eq!(base.len(), prompts.len());
    for c in &base {
        assert_eq!(c.tokens.len(), 8);
        assert!(c.tokens.iter().all(|&t| (t as usize) < 96));
    }
    for (cached, threads) in [(false, 2), (false, 8), (true, 1), (true, 2), (true, 8)] {
        let (done, hits) = run(cached, threads);
        assert_eq!(
            done, base,
            "cache {cached}, {threads} threads: streams differ"
        );
        assert_eq!(
            hits > 0,
            cached,
            "cache {cached}: hits reuse the system prompt"
        );
    }
}

#[test]
fn ablation_ladder_monotone_shape_on_trained_model() {
    let (model, valid) = trained_micro();
    let calib = calibration();
    let valid = &valid[..valid.len().min(600)];
    let ppls: Vec<f64> = atom::ablation_stages()
        .iter()
        .map(|s| s.scheme.quantize(model, &calib).perplexity(valid, 60))
        .collect();
    // Headline shape: outlier handling rescues RTN; the final full recipe
    // is far below the RTN start.
    assert!(ppls[1] < ppls[0] / 2.0, "{ppls:?}");
    assert!(*ppls.last().unwrap() < ppls[0] / 2.0, "{ppls:?}");
    // INT8 outliers cost little over FP16 outliers.
    assert!(ppls[2] < ppls[1] * 1.5, "{ppls:?}");
}

#[test]
fn kv_cache_bits_sweep_degrades_gracefully() {
    let (model, valid) = trained_micro();
    let config = *model.config();
    let valid = &valid[..valid.len().min(600)];
    let fp = eval::perplexity(model, valid, 60);
    let with_bits = |bits| {
        eval::perplexity_with_cache(model, valid, 60, &mut || {
            Box::new(QuantizedKvCache::new(
                config.layers,
                config.kv_dim(),
                config.head_dim(),
                bits,
            ))
        })
    };
    let p8 = with_bits(8);
    let p4 = with_bits(4);
    let p2 = with_bits(2);
    assert!((p8 - fp).abs() < fp * 0.05, "INT8 KV ~free: {p8} vs {fp}");
    assert!(p4 < fp * 1.6, "INT4 KV small cost: {p4} vs {fp}");
    assert!(p2 > p4, "INT2 should hurt more than INT4: {p2} vs {p4}");
}
