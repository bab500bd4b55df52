//! Synthetic data substrate for the Atom reproduction.
//!
//! The paper evaluates on WikiText2 / PTB / C4 perplexity, six lm-eval
//! zero-shot tasks, and a ShareGPT-derived serving workload. None of those
//! assets can ship with this repository, so this crate builds the closest
//! synthetic equivalents (see DESIGN.md §1 for the substitution rationale):
//!
//! - [`tokenizer`] — a deterministic character-level tokenizer with a fixed
//!   96-symbol vocabulary.
//! - [`corpus`] — three stochastic-grammar corpora with distinct styles
//!   standing in for WikiText2 ("wiki"), PTB ("ptb"), and C4 ("c4"), plus
//!   train/validation splits and calibration samplers.
//! - [`tasks`] — six likelihood-scored cloze/classification tasks standing in
//!   for PIQA, ARC-e, ARC-c, BoolQ, HellaSwag, and WinoGrande.
//! - [`workload`] — a ShareGPT-like request-length and arrival model for the
//!   end-to-end serving experiments (Fig. 10).
//! - [`traffic`] — open-loop multi-tenant arrival traces (diurnal, bursty,
//!   flash-crowd) for the gateway's overload and SLO experiments.
//! - [`scenario`] — prompt-level content models (shared system prompts,
//!   multi-turn conversations, long-context documents) layered on traffic
//!   traces for the prefix-cache experiments.
//!
//! Everything is seeded and exactly reproducible.
//!
//! # Example
//!
//! ```
//! use atom_data::{Corpus, CorpusStyle, Tokenizer};
//!
//! let corpus = Corpus::generate(CorpusStyle::Wiki, 2_000, 7);
//! let tok = Tokenizer::new();
//! let ids = tok.encode(corpus.text());
//! assert!(ids.len() >= 1_000);
//! assert_eq!(tok.decode(&ids), corpus.text());
//! ```

pub mod corpus;
pub mod scenario;
pub mod tasks;
pub mod tokenizer;
pub mod traffic;
pub mod workload;

pub use corpus::{Corpus, CorpusStyle};
pub use scenario::{PromptArrival, ScenarioKind, ScenarioSpec};
pub use tasks::{Task, TaskKind, TaskSuite};
pub use tokenizer::Tokenizer;
pub use traffic::{Arrival, ArrivalPattern, TenantTraffic, TrafficSpec};
pub use workload::{Request, WorkloadSpec};
