//! Runtime selection between the `swar` fast path and the scalar reference.
//!
//! Every hot kernel ships two implementations that are proven bit-identical
//! by the property suite (`tests/properties.rs`, `tests/swar_identity.rs`):
//! a portable scalar loop — the oracle — and a fast loop shaped for the
//! compiler's vectorizer, decoding through [`crate::swar`]. (The name is
//! historical: the first fast path decoded nibbles SIMD-within-a-register,
//! 16 per `u64`; the selector and its `ATOM_KERNEL_PATH=swar` value stayed
//! when plain loops the compiler vectorizes replaced that.) Dispatch is a [`KernelPath`] argument on the
//! `*_with_path` entry points; the plain entry points resolve the
//! process-wide default once from the `ATOM_KERNEL_PATH` environment
//! variable (`scalar` | `swar`, default `swar`).

use std::sync::OnceLock;

/// Which inner-kernel implementation the hot paths run.
///
/// # Example
///
/// ```
/// use atom_kernels::KernelPath;
///
/// assert_eq!(KernelPath::parse("scalar"), Some(KernelPath::Scalar));
/// assert_eq!(KernelPath::parse("SWAR"), Some(KernelPath::Swar));
/// assert_eq!(KernelPath::parse("simd"), None);
/// assert_eq!(KernelPath::Swar.label(), "swar");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Portable scalar loops — the reference implementation the property
    /// tests trust as the oracle.
    Scalar,
    /// Fixed-width, vectorizer-friendly loops with cache-blocked tiling —
    /// bit-identical to [`KernelPath::Scalar`], faster.
    Swar,
}

impl KernelPath {
    /// The process-wide default path, resolved once from the
    /// `ATOM_KERNEL_PATH` environment variable and cached for the lifetime
    /// of the process. Unset or unrecognised values select
    /// [`KernelPath::Swar`]; an unrecognised value additionally prints a
    /// one-time warning to stderr so a typo cannot silently skew a
    /// benchmark.
    #[must_use]
    pub fn current() -> KernelPath {
        static PATH: OnceLock<KernelPath> = OnceLock::new();
        *PATH.get_or_init(|| match std::env::var("ATOM_KERNEL_PATH") {
            Ok(raw) => KernelPath::parse(&raw).unwrap_or_else(|| {
                eprintln!(
                    "ATOM_KERNEL_PATH={raw:?} not recognised (want \"scalar\" or \"swar\"); \
                     using the swar path"
                );
                KernelPath::Swar
            }),
            Err(_) => KernelPath::Swar,
        })
    }

    /// Parses a selector string: `"scalar"` or `"swar"`, case-insensitive,
    /// surrounding whitespace ignored. Returns `None` for anything else.
    #[must_use]
    pub fn parse(raw: &str) -> Option<KernelPath> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelPath::Scalar),
            "swar" => Some(KernelPath::Swar),
            _ => None,
        }
    }

    /// Stable lowercase label used in reports, benchmark tables, and
    /// telemetry breakdowns.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Swar => "swar",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_labels_any_case() {
        assert_eq!(KernelPath::parse(" Scalar "), Some(KernelPath::Scalar));
        assert_eq!(KernelPath::parse("swar"), Some(KernelPath::Swar));
        assert_eq!(KernelPath::parse(""), None);
        assert_eq!(KernelPath::parse("sse2"), None);
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for path in [KernelPath::Scalar, KernelPath::Swar] {
            assert_eq!(KernelPath::parse(path.label()), Some(path));
        }
    }

    #[test]
    fn current_is_stable_across_calls() {
        assert_eq!(KernelPath::current(), KernelPath::current());
    }
}
