//! `cargo run -p khameleon-analysis` — the workspace correctness toolchain.
//!
//! With no arguments, scans the lint roots (`crates/<k>/{src,tests}` for the
//! scanned crates) and exits non-zero if any diagnostic survives the
//! allowlist.  Analysis v2 adds the wire-protocol conformance checker and
//! the DPOR interleaving explorer; all three layers compose into one run
//! and one report:
//!
//! ```text
//! khameleon-analysis                        # lint scan of the workspace
//! khameleon-analysis --list-rules           # print the rule catalogue
//! khameleon-analysis --conformance          # + wire-grammar conformance
//! khameleon-analysis --explore              # + exhaustive park/resume sweep
//! khameleon-analysis --json                 # machine-readable report
//! khameleon-analysis --conformance path/to/wire_fixture.rs
//! khameleon-analysis --as crates/core/src/scheduler/fx.rs path/to/file.rs
//! ```
//!
//! `--conformance` with a file argument checks that file as a wire codec
//! (no doc cross-check) — used by CI to prove the seeded
//! missing-decode-arm fixture fails.

use khameleon_analysis::model::{Fault, ResumeHarness};
use khameleon_analysis::{
    conformance, dataflow, explore, rules, scan_source, scan_workspace, scope_from_header,
    workspace_root, Diagnostic,
};
use std::process::ExitCode;

/// The clean sweep's report plus how many of the seeded faults a re-run
/// under each one caught.
struct ExplorerSummary {
    report: explore::ExploreReport,
    seeded_bugs_caught: usize,
}

fn run_explorer() -> ExplorerSummary {
    let caught = |fault: &Fault| {
        !explore::explore(|| ResumeHarness::two_shard().with_fault(*fault), 1).is_clean()
    };
    ExplorerSummary {
        report: explore::explore(ResumeHarness::two_shard, 8),
        seeded_bugs_caught: Fault::ALL.iter().filter(|f| caught(f)).count(),
    }
}

/// Minimal JSON string escaping (the report has no exotic content).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_diags(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
                json_str(&d.rule),
                json_str(&d.file),
                d.line,
                json_str(&d.message)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--list-rules") {
        for rule in rules::ALL_RULES {
            println!("{:<20} {}", rule.id, rule.desc);
        }
        for rule in dataflow::INDEX_RULES {
            println!("{:<20} {}", rule.id, rule.desc);
        }
        for (id, desc) in conformance::RULES {
            println!("{id:<20} {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let json = args.iter().any(|a| a == "--json");
    let want_conformance = args.iter().any(|a| a == "--conformance");
    let want_explore = args.iter().any(|a| a == "--explore");

    let mut pretend: Option<String> = None;
    let mut files: Vec<(String, String)> = Vec::new(); // (scope path, fs path)
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" | "--conformance" | "--explore" => {}
            "--as" => match it.next() {
                Some(p) => pretend = Some(p.clone()),
                None => {
                    eprintln!("--as needs a workspace-relative path argument");
                    return ExitCode::from(2);
                }
            },
            path => {
                let scope = pretend.take().unwrap_or_else(|| path.to_string());
                files.push((scope, path.to_string()));
            }
        }
    }

    // File arguments under --conformance are checked as wire codecs (the
    // fixture path); otherwise they are lint-scanned.
    if want_conformance && !files.is_empty() {
        let mut diags = Vec::new();
        for (scope, path) in &files {
            match std::fs::read_to_string(path) {
                Ok(src) => {
                    let (_, d) = conformance::check_conformance(scope, &src, None);
                    diags.extend(d);
                }
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        for d in &diags {
            println!("{d}");
        }
        println!(
            "khameleon-analysis: conformance: {} file(s), {} violation(s)",
            files.len(),
            diags.len()
        );
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut diags = Vec::new();
    let scanned;
    if files.is_empty() {
        let root = workspace_root();
        match scan_workspace(&root) {
            Ok((n, d)) => {
                scanned = n;
                diags = d;
            }
            Err(e) => {
                eprintln!("workspace scan failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        scanned = files.len();
        for (scope, path) in &files {
            match std::fs::read_to_string(path) {
                // A fixture's `//! scope:` header wins unless --as overrode it.
                Ok(src) => {
                    let scope = if scope == path {
                        scope_from_header(&src).unwrap_or_else(|| scope.clone())
                    } else {
                        scope.clone()
                    };
                    diags.extend(scan_source(&scope, &src));
                }
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    // Conformance over the real workspace wire codec + protocol doc.
    let mut grammar_table = None;
    if want_conformance {
        match conformance::check_workspace(&workspace_root()) {
            Ok((grammar, d)) => {
                diags.extend(d);
                grammar_table = Some(conformance::grammar_markdown(&grammar));
            }
            Err(e) => {
                eprintln!("conformance check failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let explorer = want_explore.then(run_explorer);
    let explorer_failed = explorer
        .as_ref()
        .is_some_and(|e| !e.report.is_clean() || e.seeded_bugs_caught != Fault::ALL.len());

    if json {
        let mut obj = format!(
            "{{\"files_scanned\":{scanned},\"violations\":{},\"diagnostics\":{}",
            diags.len(),
            json_diags(&diags)
        );
        if let Some(e) = &explorer {
            let v: Vec<String> = e
                .report
                .violations
                .iter()
                .map(|v| {
                    format!(
                        "{{\"error\":{},\"schedule\":[{}]}}",
                        json_str(&v.error),
                        v.schedule
                            .iter()
                            .map(|s| json_str(s))
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                })
                .collect();
            obj.push_str(&format!(
                ",\"explorer\":{{\"interleavings\":{},\"transitions\":{},\"max_depth\":{},\"seeded_bugs_caught\":{},\"seeded_bugs_total\":{},\"violations\":[{}]}}",
                e.report.interleavings,
                e.report.transitions,
                e.report.max_depth,
                e.seeded_bugs_caught,
                Fault::ALL.len(),
                v.join(",")
            ));
        }
        if let Some(table) = &grammar_table {
            obj.push_str(&format!(",\"wire_grammar\":{}", json_str(table)));
        }
        obj.push('}');
        println!("{obj}");
    } else {
        for d in &diags {
            println!("{d}");
        }
        if let Some(table) = &grammar_table {
            println!("\nextracted wire grammar:\n{table}");
        }
        if let Some(e) = &explorer {
            println!(
                "explorer: {} interleavings ({} transitions, depth {}), {} violation(s), {}/{} seeded bugs caught",
                e.report.interleavings,
                e.report.transitions,
                e.report.max_depth,
                e.report.violations.len(),
                e.seeded_bugs_caught,
                Fault::ALL.len()
            );
            for v in &e.report.violations {
                println!("  violation: {} via {:?}", v.error, v.schedule);
            }
        }
        println!(
            "khameleon-analysis: {scanned} file(s) scanned, {} violation(s)",
            diags.len()
        );
    }

    if diags.is_empty() && !explorer_failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
