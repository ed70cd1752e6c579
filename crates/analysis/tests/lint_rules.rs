//! Negative-test fixtures: every rule must fire on exactly the lines its
//! fixture marks with `//~ rule-id`, and the shipped binary must exit
//! non-zero on each fixture while passing the real workspace.

use khameleon_analysis::{scan_source, scope_from_header, workspace_root};
use std::path::Path;
use std::process::Command;

/// Every fixture under `tests/fixtures/`, keyed by the rule it proves.
const FIXTURES: &[&str] = &[
    "hash_iter.rs",
    "wall_clock.rs",
    "rand_scope.rs",
    "float_eq.rs",
    "float_cast.rs",
    "unwrap.rs",
    "assert_slot.rs",
    "unsafe_block.rs",
    "allowlist.rs",
    "send_shared_iter.rs",
    "blocking_recv.rs",
    "unmerged_counter.rs",
    "untested_pub_fn.rs",
];

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Expected diagnostics from `//~ rule-id [rule-id...]` markers: (rule, line).
fn expected_from_markers(src: &str) -> Vec<(String, u32)> {
    let mut expected = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        for id in line[pos..].split("//~").skip(1) {
            let id = id.split_whitespace().next().unwrap_or("");
            if !id.is_empty() {
                expected.push((id.to_string(), idx as u32 + 1));
            }
        }
    }
    expected.sort();
    expected
}

#[test]
fn fixtures_produce_exactly_the_marked_diagnostics() {
    for name in FIXTURES {
        let path = fixture_dir().join(name);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
        let scope = scope_from_header(&src)
            .unwrap_or_else(|| panic!("fixture {name} lacks a //! scope: header"));
        let expected = expected_from_markers(&src);
        assert!(
            !expected.is_empty(),
            "fixture {name} marks no expected diagnostics"
        );
        let mut actual: Vec<(String, u32)> = scan_source(&scope, &src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect();
        actual.sort();
        assert_eq!(
            actual, expected,
            "fixture {name} (scope {scope}) diagnostics mismatch"
        );
    }
}

#[test]
fn every_rule_has_a_firing_fixture() {
    use std::collections::BTreeSet;
    let mut fired: BTreeSet<String> = BTreeSet::new();
    for name in FIXTURES {
        let path = fixture_dir().join(name);
        let src = std::fs::read_to_string(&path).unwrap_or_default();
        for (rule, _) in expected_from_markers(&src) {
            fired.insert(rule);
        }
    }
    let token_ids = khameleon_analysis::rules::ALL_RULES.iter().map(|r| r.id);
    let index_ids = khameleon_analysis::dataflow::INDEX_RULES
        .iter()
        .map(|r| r.id);
    for id in token_ids.chain(index_ids) {
        assert!(
            fired.contains(id),
            "rule {id} has no fixture proving it fires"
        );
    }
}

#[test]
fn binary_fails_each_fixture_and_passes_the_workspace() {
    let bin = env!("CARGO_BIN_EXE_khameleon-analysis");
    for name in FIXTURES {
        let path = fixture_dir().join(name);
        let status = Command::new(bin).arg(&path).output().expect("binary runs");
        assert!(
            !status.status.success(),
            "binary should exit non-zero on fixture {name}:\n{}",
            String::from_utf8_lossy(&status.stdout)
        );
    }
    let status = Command::new(bin).output().expect("binary runs");
    assert!(
        status.status.success(),
        "binary should exit zero on the real workspace:\n{}",
        String::from_utf8_lossy(&status.stdout)
    );
}

#[test]
fn workspace_scan_is_clean_via_library() {
    let (files, diags) = khameleon_analysis::scan_workspace(&workspace_root()).expect("scan");
    assert!(files > 40, "expected to scan the five crates, got {files}");
    assert!(
        diags.is_empty(),
        "workspace must be lint-clean:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The transport's counters merge in one place, `ServerStats::merge`, and
/// `unmerged-counter` watches it: a nineteenth field that the merge does not
/// mention fails the scan on the field's own line.
#[test]
fn a_server_stats_field_left_out_of_merge_fails_the_scan() {
    let path = "crates/transport/src/server.rs";
    let src = std::fs::read_to_string(workspace_root().join(path)).expect("server.rs");
    let anchor = "    pub timer_wakeups: u64,\n}";
    assert_eq!(
        src.matches(anchor).count(),
        1,
        "ServerStats' last field moved"
    );
    let grown = src.replace(
        anchor,
        "    pub timer_wakeups: u64,\n    pub nineteenth: u64,\n}",
    );
    let inserted = grown.find("pub nineteenth").expect("inserted");
    let line = grown[..inserted].lines().count() as u32;
    let unmerged = |src: &str| -> Vec<u32> {
        scan_source(path, src)
            .into_iter()
            .filter(|d| d.rule == "unmerged-counter")
            .map(|d| d.line)
            .collect()
    };
    assert_eq!(unmerged(&grown), vec![line]);
    assert!(unmerged(&src).is_empty());
}
