//! Repo-specific static analysis for the Khameleon workspace.
//!
//! This crate is an xtask-style lint pass (`cargo run -p khameleon-analysis`)
//! that enforces the determinism, numeric-invariant and convention rules the
//! scheduler's block-for-block parity guarantee depends on.  It is a
//! token/line-level scanner built on [`lexer`] — deliberately *not* a full
//! parser, consistent with the workspace's offline vendored-stub policy (no
//! external dependencies).
//!
//! See `docs/ANALYSIS.md` for the rule catalogue, rationale and allowlist
//! syntax.  Rules are defined in [`rules`]; each ships with a negative-test
//! fixture under `tests/fixtures/` proving it fires.

pub mod conformance;
pub mod dataflow;
pub mod explore;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod rules;

use lexer::{lex, Lexed, Tok};
use parser::RefCorpus;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id, e.g. `hash-iter`.
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Context handed to each rule.
pub struct Ctx<'a> {
    /// Workspace-relative path of the file being scanned.
    pub path: &'a str,
    /// Token stream (comments/strings already stripped).
    pub tokens: &'a [Tok],
    /// 1-based per-line flag: inside a `#[cfg(test)]` / `#[test]` region.
    pub test_line: &'a [bool],
}

impl Ctx<'_> {
    /// Is `line` inside test-only code?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_line.get(line as usize).copied().unwrap_or(false)
    }
}

/// Scan one file's source under its workspace-relative `path` (the path
/// decides which rules are in scope) and return post-allowlist diagnostics.
///
/// Single-file mode: the reference corpus for the cross-file rules is built
/// from this file's own test regions.  `scan_workspace` uses the same engine
/// with the workspace-wide corpus.
pub fn scan_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let test_line = test_line_mask(&lexed.tokens, src.lines().count());
    let mut corpus = RefCorpus::default();
    corpus.add_tokens(&lexed.tokens, &test_line);
    scan_lexed(path, &lexed, &test_line, &corpus)
}

/// Run every token rule and every index rule over one lexed file, then apply
/// the allowlist.  `corpus` supplies the cross-file reference graph.
fn scan_lexed(
    path: &str,
    lexed: &Lexed,
    test_line: &[bool],
    corpus: &RefCorpus,
) -> Vec<Diagnostic> {
    let ctx = Ctx {
        path,
        tokens: &lexed.tokens,
        test_line,
    };

    let mut diags: Vec<Diagnostic> = Vec::new();
    for rule in rules::ALL_RULES {
        if !(rule.in_scope)(path) {
            continue;
        }
        for raw in (rule.check)(&ctx) {
            // Every rule except the unsafe inventory is test-exempt: test and
            // bench code may use unwrap, rand, wall clocks, hash iteration.
            if rule.id != rules::UNSAFE_BLOCK && ctx.is_test_line(raw.line) {
                continue;
            }
            diags.push(Diagnostic {
                rule: rule.id.to_string(),
                file: path.to_string(),
                line: raw.line,
                message: raw.message,
            });
        }
    }

    let index = parser::index_file(&lexed.tokens);
    let ictx = dataflow::IndexCtx {
        path,
        tokens: &lexed.tokens,
        test_line,
        index: &index,
        corpus,
    };
    for rule in dataflow::INDEX_RULES {
        if !(rule.in_scope)(path) {
            continue;
        }
        for raw in (rule.check)(&ictx) {
            // Index rules are all test-exempt: test-only helpers may hold
            // guards across sends, block on recv, or go unreferenced.
            if ctx.is_test_line(raw.line) {
                continue;
            }
            diags.push(Diagnostic {
                rule: rule.id.to_string(),
                file: path.to_string(),
                line: raw.line,
                message: raw.message,
            });
        }
    }

    apply_allows(path, lexed, &mut diags);
    diags.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    diags
}

/// Apply `// lint:allow(...)` directives: suppress covered diagnostics and
/// emit meta-diagnostics for malformed or unused directives.
fn apply_allows(path: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    let known: BTreeSet<&str> = rules::ALL_RULES
        .iter()
        .map(|r| r.id)
        .chain(dataflow::INDEX_RULES.iter().map(|r| r.id))
        .collect();
    let mut meta: Vec<Diagnostic> = Vec::new();

    for allow in &lexed.allows {
        let mut malformed = false;
        if allow.ids.is_empty() {
            meta.push(meta_diag(
                path,
                allow.line,
                "allow-syntax",
                "lint:allow() lists no rule ids".to_string(),
            ));
            malformed = true;
        }
        for id in &allow.ids {
            if !known.contains(id.as_str()) {
                meta.push(meta_diag(
                    path,
                    allow.line,
                    "allow-syntax",
                    format!("unknown rule id `{id}` in lint:allow"),
                ));
                malformed = true;
            }
        }
        if !allow.has_reason {
            meta.push(meta_diag(
                path,
                allow.line,
                "allow-syntax",
                "lint:allow needs a `-- reason` clause".to_string(),
            ));
            malformed = true;
        }
        if malformed {
            continue;
        }

        // A directive covers its own line (trailing comment) or, when it sits
        // alone on a line, the next line that carries any token.
        let target = if lexed.tokens.iter().any(|t| t.line == allow.line) {
            allow.line
        } else {
            lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > allow.line)
                .unwrap_or(allow.line)
        };

        let before = diags.len();
        diags.retain(|d| !(d.line == target && allow.ids.contains(&d.rule)));
        if diags.len() == before {
            meta.push(meta_diag(
                path,
                allow.line,
                "unused-allow",
                format!("lint:allow suppresses nothing ({})", allow.raw),
            ));
        }
    }
    diags.append(&mut meta);
}

fn meta_diag(path: &str, line: u32, rule: &str, message: String) -> Diagnostic {
    Diagnostic {
        rule: rule.to_string(),
        file: path.to_string(),
        line,
        message,
    }
}

/// Compute a 1-based per-line mask of test-only regions: items annotated
/// `#[test]`, `#[cfg(test)]` (or any attribute whose token stream contains a
/// bare `test`), including whole `mod tests { .. }` bodies.  A file-level
/// `#![cfg(test)]` marks every line.
pub fn test_line_mask(tokens: &[Tok], line_count: usize) -> Vec<bool> {
    let mut mask = vec![false; line_count + 2];
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is("#") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = j < tokens.len() && tokens[j].is("!");
        if inner {
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is("[") {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let mut depth = 0usize;
        let mut k = j;
        let mut has_test = false;
        while k < tokens.len() {
            if tokens[k].is("[") {
                depth += 1;
            } else if tokens[k].is("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tokens[k].is_ident("test") {
                has_test = true;
            }
            k += 1;
        }
        if !has_test {
            i = k + 1;
            continue;
        }
        if inner {
            // #![cfg(test)] — the whole file is test code.
            for m in mask.iter_mut() {
                *m = true;
            }
            return mask;
        }
        // Mark from the attribute through the end of the annotated item,
        // tracking `(`/`[`/`{` nesting together: the item ends at a `;` or
        // `,` at depth 0 (a `use`, a field, a parameter, an argument), at the
        // matching `}` of a brace opened at depth 0 (a `fn` or `mod` body),
        // or just before a closer it did not open (the last field of a
        // struct literal, the last parameter of a signature).
        let start_line = tokens[i].line;
        let mut end_line = start_line;
        let mut depth = 0usize;
        for t in &tokens[k + 1..] {
            let closer = t.is(")") || t.is("]") || t.is("}");
            if closer && depth == 0 {
                break;
            }
            end_line = t.line;
            if t.is("(") || t.is("[") || t.is("{") {
                depth += 1;
            } else if closer {
                depth -= 1;
                if depth == 0 && t.is("}") {
                    break;
                }
            } else if depth == 0 && (t.is(";") || t.is(",")) {
                break;
            }
        }
        for l in start_line..=end_line {
            if let Some(slot) = mask.get_mut(l as usize) {
                *slot = true;
            }
        }
        i = k + 1;
    }
    mask
}

/// The crates the workspace pass walks (vendored stubs under `crates/vendor`
/// stay exempt; `bench` joined the scan set in analysis v2).
pub const SCANNED_CRATES: &[&str] = &[
    "core",
    "net",
    "backend",
    "apps",
    "sim",
    "transport",
    "bench",
];

/// One file prepared for the workspace pass.
struct PreparedFile {
    rel: String,
    lexed: Lexed,
    test_line: Vec<bool>,
}

/// Scan every `.rs` file under `crates/<k>/src` and `crates/<k>/tests` for
/// the crates in [`SCANNED_CRATES`], rooted at `root`.  Integration-test
/// files are treated as all-test regions (only the unsafe inventory and the
/// allowlist audit apply), and their identifiers feed the reference corpus
/// that powers the cross-file `untested-pub-fn` rule.  Returns
/// (files scanned, diagnostics).
pub fn scan_workspace(root: &Path) -> std::io::Result<(usize, Vec<Diagnostic>)> {
    let mut files: Vec<PathBuf> = Vec::new();
    for krate in SCANNED_CRATES {
        let dir = root.join("crates").join(krate);
        collect_rs_files(&dir.join("src"), &mut files)?;
        collect_rs_files(&dir.join("tests"), &mut files)?;
    }
    // The analysis crate's own integration tests reference the explorer and
    // conformance surfaces; they join the corpus (fixtures excluded — they
    // are deliberately broken inputs, not references).
    let mut corpus_only: Vec<PathBuf> = Vec::new();
    collect_rs_files(&root.join("crates/analysis/tests"), &mut corpus_only)?;
    corpus_only.retain(|p| !p.to_string_lossy().contains("fixtures"));
    files.sort();
    files.dedup();

    // Pass 1: lex everything and build the workspace reference corpus.
    let mut corpus = RefCorpus::default();
    let mut prepared: Vec<PreparedFile> = Vec::new();
    for file in files.iter().chain(corpus_only.iter()) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file)?;
        let lexed = lex(&src);
        let is_test_file = rel.contains("/tests/");
        let test_line = if is_test_file {
            vec![true; src.lines().count() + 2]
        } else {
            test_line_mask(&lexed.tokens, src.lines().count())
        };
        corpus.add_tokens(&lexed.tokens, &test_line);
        if files.binary_search(file).is_ok() {
            prepared.push(PreparedFile {
                rel,
                lexed,
                test_line,
            });
        }
    }

    // Pass 2: scan with the global corpus.
    let mut diags = Vec::new();
    for p in &prepared {
        diags.extend(scan_lexed(&p.rel, &p.lexed, &p.test_line, &corpus));
    }
    Ok((prepared.len(), diags))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parse a `//! scope: <workspace-relative-path>` header line, used by the
/// negative-test fixtures to declare which rule scope they should be scanned
/// under.
pub fn scope_from_header(src: &str) -> Option<String> {
    for line in src.lines().take(5) {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("//! scope:") {
            return Some(rest.trim().to_string());
        }
    }
    None
}

/// Locate the workspace root from this crate's compile-time manifest dir
/// (`crates/analysis` → two levels up).
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_test_mod_and_fns() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn lib2() {}\n";
        let lexed = lex(src);
        let mask = test_line_mask(&lexed.tokens, src.lines().count());
        assert!(!mask[1]);
        assert!(mask[2] && mask[3] && mask[4] && mask[5]);
        assert!(!mask[6]);
    }

    #[test]
    fn test_mask_handles_semicolon_items() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}\n";
        let lexed = lex(src);
        let mask = test_line_mask(&lexed.tokens, src.lines().count());
        assert!(mask[1] && mask[2]);
        assert!(!mask[3]);
    }

    #[test]
    fn test_mask_ends_a_struct_literal_field_at_its_closer() {
        // The last field: the item ends before the literal's `}`.
        let src = "fn g() -> S {\n    S { a: 1, #[cfg(test)]\n    b: 2 }\n}\nfn lib() {}\n";
        let lexed = lex(src);
        let mask = test_line_mask(&lexed.tokens, src.lines().count());
        assert!(!mask[1]);
        assert!(mask[2] && mask[3]);
        assert!(!mask[4] && !mask[5]);
        // A middle field: the item ends at its `,`.
        let src = "fn g() -> S {\n    S {\n        #[cfg(test)] b: 2,\n        a: 1,\n    }\n}\n";
        let lexed = lex(src);
        let mask = test_line_mask(&lexed.tokens, src.lines().count());
        assert!(mask[3]);
        assert!(!mask[2] && !mask[4] && !mask[5]);
    }

    #[test]
    fn test_mask_ends_a_parameter_before_the_body() {
        let src = "fn f(#[cfg(test)]\n    x: [u32; 2],\n    y: u32,\n) -> u32 {\n    y\n}\n";
        let lexed = lex(src);
        let mask = test_line_mask(&lexed.tokens, src.lines().count());
        assert!(mask[1] && mask[2]);
        assert!((3..=6).all(|l| !mask[l]), "{mask:?}");
        // The last parameter ends before the `)`, so the body's lint hits
        // are not hidden as test code.
        let src = "fn f(#[cfg(test)] x: u32) -> u32 {\n    let v: Option<u32> = None;\n    v.unwrap()\n}\n";
        let lexed = lex(src);
        let mask = test_line_mask(&lexed.tokens, src.lines().count());
        assert!(mask[1]);
        assert!(!mask[2] && !mask[3] && !mask[4]);
        let d = scan_source("crates/core/src/fx.rs", src);
        assert!(d.iter().any(|d| d.rule == "unwrap" && d.line == 3), "{d:?}");
    }

    #[test]
    fn inner_test_attr_marks_whole_file() {
        let src = "#![cfg(test)]\nfn anything() { x.unwrap(); }\n";
        let lexed = lex(src);
        let mask = test_line_mask(&lexed.tokens, src.lines().count());
        assert!(mask.iter().all(|&b| b));
    }

    #[test]
    fn allow_suppresses_and_unused_allow_fires() {
        // Trailing allow on the flagged line suppresses the diagnostic.
        let src = "fn f(m: std::collections::HashMap<u32, u32>) {\n    for k in m.keys() {} // lint:allow(hash-iter) -- test harness ordering\n}\n";
        let d = scan_source("crates/core/src/scheduler/x.rs", src);
        assert!(d.is_empty(), "{d:?}");

        // An allow that matches nothing is itself a diagnostic.
        let src2 = "fn f() {} // lint:allow(hash-iter) -- nothing here\n";
        let d2 = scan_source("crates/core/src/scheduler/x.rs", src2);
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].rule, "unused-allow");
    }

    #[test]
    fn allow_on_own_line_covers_next_code_line() {
        let src = "fn f(m: std::collections::HashMap<u32, u32>) {\n    // lint:allow(hash-iter) -- snapshot is sorted below\n    for k in m.keys() {}\n}\n";
        let d = scan_source("crates/core/src/scheduler/x.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn malformed_allows_are_reported() {
        let src = "fn f() { let x: Option<u32> = None; x.unwrap(); } // lint:allow(unwrap)\n";
        let d = scan_source("crates/core/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "allow-syntax"), "{d:?}");
        // The unwrap itself must survive since the allow is malformed.
        assert!(d.iter().any(|d| d.rule == "unwrap"), "{d:?}");

        let src2 = "fn f() {} // lint:allow(no-such-rule) -- why\n";
        let d2 = scan_source("crates/core/src/x.rs", src2);
        assert!(d2.iter().any(|d| d.rule == "allow-syntax"), "{d2:?}");
    }
}
