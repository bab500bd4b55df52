//! Guards: things that must stay true for the benchmark's numbers to mean
//! what the README says they mean.

use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The settings of one `[section]` of a manifest: its lines up to the next
/// section, without comments, blanks or spacing.
fn section(manifest: &Path, header: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|l| !l.is_empty())
        .collect()
}

/// The benchmark is its own workspace, so the root's `[profile.release]`
/// does not reach it. If the two differ, a later LTO or codegen change to
/// the root profile would be silently ignored instead of measured.
#[test]
fn release_profile_equals_the_root_workspaces() {
    let ours = section(&manifest_dir().join("Cargo.toml"), "[profile.release]");
    let roots = section(&manifest_dir().join("../Cargo.toml"), "[profile.release]");
    assert!(
        !roots.is_empty(),
        "the root manifest has a [profile.release]"
    );
    assert_eq!(
        ours, roots,
        "copy the root's [profile.release] into benchmark/Cargo.toml"
    );
}

#[test]
fn the_harness_refuses_any_pool_width_but_one() {
    let output = Command::new(env!("CARGO_BIN_EXE_atom-benchmark"))
        .args(["run", "--workload", "decode_heavy", "--quick"])
        .env("ATOM_THREADS", "2")
        .output()
        .expect("the benchmark binary runs");
    assert!(
        !output.status.success(),
        "a width-2 run must not produce numbers"
    );
    assert!(output.stdout.is_empty(), "and prints no result");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("pool width 1") && stderr.contains("2 threads"),
        "{stderr}"
    );
}

/// The system under test is random-initialised in memory. Loading a trained
/// zoo checkpoint would train for minutes on a cold cache and read files
/// before the timed phase.
#[test]
fn the_source_never_touches_trained_checkpoints_or_the_model_cache() {
    let src = manifest_dir().join("src");
    for entry in std::fs::read_dir(&src).expect("src/ exists") {
        let path = entry.expect("readable entry").path();
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for banned in ["zoo::trained", "cache_dir"] {
            assert!(!text.contains(banned), "{} names {banned}", path.display());
        }
    }
}

#[test]
fn unknown_arguments_fail_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--workload", "decode_heavy", "--trace", "2"],
        &["frobnicate"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_atom-benchmark"))
            .args(args)
            .env("ATOM_THREADS", "1")
            .output()
            .expect("the benchmark binary runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
