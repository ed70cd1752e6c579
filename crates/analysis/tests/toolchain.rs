//! Integration tests for the analysis-v2 toolchain: wire-protocol
//! conformance over the real workspace and the seeded fixture, the
//! exhaustive park/evict/resume exploration, and the `--json` report mode.

use khameleon_analysis::model::{Fault, ResumeHarness};
use khameleon_analysis::{conformance, explore, workspace_root};
use std::path::Path;
use std::process::Command;

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

#[test]
fn workspace_wire_grammar_conforms_and_matches_the_doc() {
    let (grammar, diags) = conformance::check_workspace(&workspace_root()).expect("read wire/doc");
    assert!(
        diags.is_empty(),
        "wire conformance violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The protocol as shipped: 8 uplink frames, 6 downlink frames, every
    // non-handshake downlink frame sequenced.
    assert_eq!(grammar.uplink.len(), 8);
    assert_eq!(grammar.downlink.len(), 6);
    for (tag, info) in &grammar.downlink {
        assert_eq!(
            info.sequenced, !info.handshake,
            "downlink tag {tag:#04x} sequencing"
        );
    }
}

#[test]
fn seeded_missing_decode_arm_fixture_fails_conformance() {
    let path = fixture_dir().join("wire_missing_arm.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    let (grammar, diags) = conformance::check_conformance("fixture/wire.rs", &src, None);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, conformance::WIRE_MISSING_DECODE);
    assert!(diags[0].message.contains("0x03"), "{}", diags[0].message);
    // The rest of the grammar still extracts: the bug is local.
    assert_eq!(grammar.uplink.len(), 3);
    assert_eq!(grammar.downlink.len(), 3);

    // And the shipped binary turns it into a failing exit code.
    let bin = env!("CARGO_BIN_EXE_khameleon-analysis");
    let out = Command::new(bin)
        .args(["--conformance", path.to_str().expect("utf-8 path")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "conformance fixture must fail");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("wire-missing-decode"),
        "missing diagnostic in:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// The acceptance sweep, with the post-DPOR interleaving count pinned so a
/// pruning regression (sleep sets too weak → blow-up; dependency relation
/// too coarse → undercount) is immediately visible.
#[test]
fn two_shard_model_explores_exhaustively_and_clean() {
    let report = explore::explore(ResumeHarness::two_shard, 8);
    assert!(
        report.is_clean(),
        "invariant violations: {:?}",
        report.violations
    );
    assert!(
        report.interleavings >= 500,
        "acceptance floor: >= 500 post-DPOR interleavings, got {}",
        report.interleavings
    );
    assert_eq!(
        report.interleavings, 564,
        "post-DPOR interleaving count drifted — dependency relation or sleep-set pruning changed"
    );
    assert_eq!(
        report.max_depth, 14,
        "2 procs x 4 ops + 2 rounds x 3 clock steps"
    );
}

#[test]
fn every_seeded_bug_is_caught_by_some_interleaving() {
    for fault in Fault::ALL {
        let report = explore::explore(|| ResumeHarness::two_shard().with_fault(fault), 1);
        assert!(!report.is_clean(), "{fault:?} not caught");
    }
}

#[test]
fn json_report_carries_scan_explorer_and_grammar_sections() {
    let bin = env!("CARGO_BIN_EXE_khameleon-analysis");
    let out = Command::new(bin)
        .args(["--conformance", "--explore", "--json"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean workspace: {stdout}");
    assert!(stdout.starts_with('{') && stdout.trim_end().ends_with('}'));
    for key in [
        "\"files_scanned\":",
        "\"violations\":0",
        "\"diagnostics\":[]",
        "\"explorer\":",
        "\"interleavings\":564",
        "\"seeded_bugs_caught\":3",
        "\"wire_grammar\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in:\n{stdout}");
    }
}
