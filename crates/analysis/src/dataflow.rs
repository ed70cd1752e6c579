//! Cross-file dataflow rules over the item-level parse.
//!
//! Unlike the token rules in [`crate::rules`], these see structure: function
//! bodies, struct fields, enclosing impls, and a workspace-wide corpus of
//! identifiers referenced from test code.  Each rule still reports plain
//! [`RawDiag`]s and participates in the same test-region exemption and
//! `lint:allow` machinery as the token rules.
//!
//! In single-file mode (fixtures, `--as`) the reference corpus is built from
//! the file alone; `scan_workspace` feeds every rule the full workspace
//! corpus, which is what makes `untested-pub-fn` a cross-file check.

use crate::lexer::{Tok, TokKind};
use crate::parser::{close_brace, FileIndex, RefCorpus};
use crate::rules::RawDiag;

/// Context handed to each index rule.
pub struct IndexCtx<'a> {
    /// Workspace-relative path of the file being scanned.
    pub path: &'a str,
    /// Token stream of the file.
    pub tokens: &'a [Tok],
    /// 1-based per-line test-region flags.
    pub test_line: &'a [bool],
    /// Item-level parse of this file.
    pub index: &'a FileIndex,
    /// Identifiers referenced from test code across the scan set.
    pub corpus: &'a RefCorpus,
}

/// A dataflow rule: stable id, description, path scope, checker.
pub struct IndexRule {
    /// Stable rule id (used in allow directives and fixtures).
    pub id: &'static str,
    /// One-line description for `--list-rules`.
    pub desc: &'static str,
    /// Path scope (workspace-relative, forward slashes).
    pub in_scope: fn(&str) -> bool,
    /// The checker.
    pub check: fn(&IndexCtx<'_>) -> Vec<RawDiag>,
}

/// `send-in-shared-iter` rule id.
pub const SEND_IN_SHARED_ITER: &str = "send-in-shared-iter";
/// `blocking-recv` rule id.
pub const BLOCKING_RECV: &str = "blocking-recv";
/// `unmerged-counter` rule id.
pub const UNMERGED_COUNTER: &str = "unmerged-counter";
/// `untested-pub-fn` rule id.
pub const UNTESTED_PUB_FN: &str = "untested-pub-fn";
/// `unreferenced-pub` rule id.
pub const UNREFERENCED_PUB: &str = "unreferenced-pub";

/// All dataflow rules, in reporting order.
pub const INDEX_RULES: &[IndexRule] = &[
    IndexRule {
        id: SEND_IN_SHARED_ITER,
        desc:
            "no channel send while iterating shared state under a lock/borrow guard (deadlock risk)",
        in_scope: |_| true,
        check: check_send_in_shared_iter,
    },
    IndexRule {
        id: BLOCKING_RECV,
        desc: "no blocking .recv() in a file driving a nonblocking event loop (stalls the loop)",
        in_scope: |_| true,
        check: check_blocking_recv,
    },
    IndexRule {
        id: UNMERGED_COUNTER,
        desc: "every field of a stats struct must be touched by its absorb/merge function",
        in_scope: |_| true,
        check: check_unmerged_counter,
    },
    IndexRule {
        id: UNTESTED_PUB_FN,
        desc: "pub fns on the concurrency/protocol surface need a #[test] referencing them",
        in_scope: scope_untested,
        check: check_untested_pub_fn,
    },
    IndexRule {
        id: UNREFERENCED_PUB,
        desc: "a pub item needs a non-test reference somewhere in the workspace or kbench",
        in_scope: |p| p.starts_with("crates/") && p.contains("/src/"),
        check: check_unreferenced_pub,
    },
];

/// The concurrency/protocol surface held to the tested-pub-API bar: the
/// shard/session/resume machinery and the wire protocol.
fn scope_untested(p: &str) -> bool {
    const SURFACE: &[&str] = &[
        "crates/core/src/shard.rs",
        "crates/core/src/session.rs",
        "crates/core/src/fault.rs",
        "crates/transport/src/wire.rs",
        "crates/transport/src/resume.rs",
        "crates/transport/src/server.rs",
        "crates/transport/src/client.rs",
    ];
    SURFACE.contains(&p)
}

// ---------------------------------------------------------------------------
// send-in-shared-iter
// ---------------------------------------------------------------------------

/// Guard methods whose result commonly borrows shared state for the length
/// of a loop: holding one while `.send(..)`ing can deadlock the peer that
/// needs the same guard to make progress.
const GUARDS: &[&str] = &["lock", "borrow", "borrow_mut"];

fn check_send_in_shared_iter(ctx: &IndexCtx<'_>) -> Vec<RawDiag> {
    let toks = ctx.tokens;
    let mut out: Vec<RawDiag> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Distinguish a for-loop from `impl Trait for T` / `for<'a>`: a loop
        // header contains `in` at depth 0 before its `{`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut in_at = None;
        while j < toks.len() && j < i + 64 {
            let t = &toks[j];
            if t.is("(") || t.is("[") {
                depth += 1;
            } else if t.is(")") || t.is("]") {
                depth -= 1;
            } else if depth == 0 {
                if t.is_ident("in") {
                    in_at = Some(j);
                    break;
                }
                if t.is("{") || t.is(";") || t.is("}") {
                    break;
                }
            }
            j += 1;
        }
        let Some(in_at) = in_at else {
            i += 1;
            continue;
        };
        // Header: tokens from `in` to the body `{` at depth 0.
        let mut depth = 0i32;
        let mut k = in_at + 1;
        let mut body_open = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is("(") || t.is("[") {
                depth += 1;
            } else if t.is(")") || t.is("]") {
                depth -= 1;
            } else if depth == 0 && t.is("{") {
                body_open = Some(k);
                break;
            }
            k += 1;
        }
        let Some(open) = body_open else {
            i = in_at + 1;
            continue;
        };
        let guarded = (in_at + 1..open).any(|g| {
            toks[g].is(".")
                && toks
                    .get(g + 1)
                    .is_some_and(|t| t.kind == TokKind::Ident && GUARDS.contains(&t.text.as_str()))
                && toks.get(g + 2).is_some_and(|t| t.is("("))
        });
        if guarded {
            let close = close_brace(toks, open);
            for s in open..close {
                if toks[s].is(".")
                    && toks.get(s + 1).is_some_and(|t| t.is_ident("send"))
                    && toks.get(s + 2).is_some_and(|t| t.is("("))
                {
                    let line = toks[s + 1].line;
                    if !out.iter().any(|d: &RawDiag| d.line == line) {
                        out.push(RawDiag {
                            line,
                            message: format!(
                                ".send() inside a loop iterating shared state under a lock/borrow guard (loop at line {}); collect the messages and send after the guard drops",
                                toks[i].line
                            ),
                        });
                    }
                }
            }
        }
        i = in_at + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// blocking-recv
// ---------------------------------------------------------------------------

fn check_blocking_recv(ctx: &IndexCtx<'_>) -> Vec<RawDiag> {
    let toks = ctx.tokens;
    // Evidence this file drives a nonblocking event loop: a non-test
    // `set_nonblocking(true)` call.
    let Some(loop_line) = toks.windows(3).find_map(|w| {
        (w[0].is_ident("set_nonblocking")
            && w[1].is("(")
            && w[2].is_ident("true")
            && !ctx
                .test_line
                .get(w[0].line as usize)
                .copied()
                .unwrap_or(false))
        .then_some(w[0].line)
    }) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].is(".")
            && toks[i + 1].is_ident("recv")
            && toks[i + 2].is("(")
            && toks[i + 3].is(")")
        {
            out.push(RawDiag {
                line: toks[i + 1].line,
                message: format!(
                    "blocking .recv() in a file driving a nonblocking event loop (set_nonblocking at line {loop_line}); use try_recv() or a bounded recv_timeout"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unmerged-counter
// ---------------------------------------------------------------------------

fn check_unmerged_counter(ctx: &IndexCtx<'_>) -> Vec<RawDiag> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for st in &ctx.index.structs {
        if st.fields.len() < 2 {
            continue;
        }
        // Merge sites for this struct: an `absorb`/`merge` in its impl, or
        // any fn that starts from `Struct::default()` and accumulates with
        // `+=` (the fold-a-total idiom).
        for f in &ctx.index.fns {
            let Some((open, close)) = f.body else {
                continue;
            };
            let named_merge = (f.name == "absorb" || f.name == "merge")
                && f.parent_impl.as_deref() == Some(st.name.as_str());
            let fold_site = !named_merge && {
                let mut has_default = false;
                let mut has_acc = false;
                for w in open..close.saturating_sub(2) {
                    if toks[w].is_ident(&st.name)
                        && toks[w + 1].is("::")
                        && toks[w + 2].is_ident("default")
                    {
                        has_default = true;
                    }
                    if toks[w].is("+=") {
                        has_acc = true;
                    }
                }
                has_default && has_acc
            };
            if !(named_merge || fold_site) {
                continue;
            }
            for field in &st.fields {
                let touched = (open..=close)
                    .any(|w| toks[w].kind == TokKind::Ident && toks[w].is(&field.name));
                if !touched {
                    out.push(RawDiag {
                        line: field.line,
                        message: format!(
                            "counter `{}` of `{}` is declared but never merged in `{}` (line {})",
                            field.name, st.name, f.name, f.line
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// untested-pub-fn
// ---------------------------------------------------------------------------

fn check_untested_pub_fn(ctx: &IndexCtx<'_>) -> Vec<RawDiag> {
    let mut out = Vec::new();
    for f in &ctx.index.fns {
        if !f.is_pub || f.name == "main" {
            continue;
        }
        if !ctx.corpus.test_idents.contains(&f.name) {
            out.push(RawDiag {
                line: f.line,
                message: format!(
                    "pub fn `{}` has no #[test] referencing it; cover it or drop it from the public surface",
                    f.name
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unreferenced-pub
// ---------------------------------------------------------------------------

/// A bare-`pub` `fn`, `struct`, `enum`, `trait`, `type` or `const` whose name
/// no non-test token uses ([`RefCorpus::idents`](crate::parser::RefCorpus)):
/// only its own tests, `tests/` directories, docs, `use` re-exports or
/// `impl` headers name it.
///
/// The workspace pass reads the scanned crates' `src/`, the root `src/`,
/// `examples/`, `crates/bench/benches`, `crates/analysis/src` and
/// `kbench/src` as references, test regions masked.
///
/// Blind spot: names are matched, not resolved, so a method looks referenced
/// when any other item or method of the same name is called (`new`, `len`).
fn check_unreferenced_pub(ctx: &IndexCtx<'_>) -> Vec<RawDiag> {
    let fns = ctx
        .index
        .fns
        .iter()
        .filter(|f| f.is_pub && f.name != "main")
        .map(|f| ("fn", f.name.as_str(), f.line));
    let decls = ctx
        .index
        .pub_decls
        .iter()
        .map(|d| (d.keyword.as_str(), d.name.as_str(), d.line));
    fns.chain(decls)
        .filter(|(_, name, _)| !ctx.corpus.idents.contains(*name))
        .map(|(keyword, name, line)| RawDiag {
            line,
            message: format!(
                "pub {keyword} `{name}` has no non-test reference; delete it or narrow its visibility"
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::UNREFERENCED_PUB;
    use crate::lexer::lex;
    use crate::parser::RefCorpus;
    use crate::{scan_lexed, scan_source, test_line_mask};

    fn rules_at(path: &str, src: &str) -> Vec<(String, u32)> {
        scan_source(path, src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    /// Lines of `files[0]` that `rule` flags when every file feeds the
    /// reference corpus, as `scan_workspace` builds it.
    fn flagged_in_first(rule: &str, files: &[(&str, &str)]) -> Vec<u32> {
        let mut corpus = RefCorpus::default();
        let lexed: Vec<_> = files
            .iter()
            .map(|(_, src)| {
                let lexed = lex(src);
                let mask = test_line_mask(&lexed.tokens, src.lines().count());
                corpus.add_tokens(&lexed.tokens, &mask);
                (lexed, mask)
            })
            .collect();
        scan_lexed(files[0].0, &lexed[0].0, &lexed[0].1, &corpus)
            .into_iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.line)
            .collect()
    }

    #[test]
    fn send_under_lock_guard_fires_and_plain_send_does_not() {
        let bad = "fn f(&self) {\n    for (t, tx) in self.dir.lock().iter() {\n        tx.send(t).ok();\n    }\n}\n";
        let d = rules_at("crates/core/src/cache.rs", bad);
        assert_eq!(d, vec![("send-in-shared-iter".to_string(), 3)]);

        let good = "fn f(&self) {\n    for tx in self.workers.iter() {\n        tx.send(1).ok();\n    }\n}\n";
        assert!(rules_at("crates/core/src/cache.rs", good).is_empty());
    }

    #[test]
    fn impl_for_headers_are_not_loops() {
        let src = "struct W;\nimpl std::ops::Drop for W {\n    fn drop(&mut self) {}\n}\n";
        assert!(rules_at("crates/core/src/cache.rs", src).is_empty());
    }

    #[test]
    fn blocking_recv_needs_nonblocking_evidence() {
        let bad = "fn run(l: std::net::TcpListener, rx: Receiver<u8>) {\n    l.set_nonblocking(true).ok();\n    let _ = rx.recv();\n}\n";
        let d = rules_at("crates/backend/src/x.rs", bad);
        assert_eq!(d, vec![("blocking-recv".to_string(), 3)]);

        let fine = "fn run(rx: Receiver<u8>) { let _ = rx.recv(); }\n";
        assert!(rules_at("crates/backend/src/x.rs", fine).is_empty());
    }

    #[test]
    fn unmerged_counter_flags_skipped_field() {
        let src = "struct Snap { a: u64, b: u64 }\nimpl Snap {\n    fn absorb(&mut self, o: &Snap) {\n        self.a += o.a;\n    }\n}\n";
        let d = rules_at("crates/backend/src/x.rs", src);
        assert_eq!(d, vec![("unmerged-counter".to_string(), 1)]);
    }

    #[test]
    fn fold_style_merge_sites_are_checked_too() {
        let src = "pub struct S { a: u64, b: u64 }\nfn total(parts: &[S]) -> S {\n    let mut t = S::default();\n    for p in parts { t.a += p.a; }\n    t\n}\n";
        let d = rules_at("crates/backend/src/x.rs", src);
        assert_eq!(d, vec![("unmerged-counter".to_string(), 1)]);
    }

    #[test]
    fn untested_pub_fn_scope_and_corpus() {
        let untested = |path: &str, src: &str| -> Vec<u32> {
            let d = rules_at(path, src).into_iter();
            d.filter(|d| d.0 == "untested-pub-fn")
                .map(|d| d.1)
                .collect()
        };
        // In single-file mode the corpus is the file's own test regions.
        let covered =
            "pub fn park() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { park(); }\n}\n";
        assert!(untested("crates/core/src/fault.rs", covered).is_empty());

        let uncovered = "pub fn orphan() {}\n";
        assert_eq!(untested("crates/core/src/fault.rs", uncovered), vec![1]);

        // Out of scope: ordinary library files are not held to this bar.
        assert!(untested("crates/core/src/cache.rs", uncovered).is_empty());
    }

    #[test]
    fn a_non_test_call_in_another_file_clears_unreferenced_pub() {
        let def = (
            "crates/core/src/a.rs",
            "pub fn helper() -> u32 {\n    1\n}\n",
        );
        assert_eq!(flagged_in_first(UNREFERENCED_PUB, &[def]), vec![1]);

        let caller = (
            "crates/sim/src/b.rs",
            "fn run() -> u32 {\n    khameleon_core::a::helper()\n}\n",
        );
        assert!(flagged_in_first(UNREFERENCED_PUB, &[def, caller]).is_empty());

        // A call from a test region is not a reference.
        let test_caller = (
            "crates/sim/src/b.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        helper();\n    }\n}\n",
        );
        assert_eq!(
            flagged_in_first(UNREFERENCED_PUB, &[def, test_caller]),
            vec![1]
        );
    }

    #[test]
    fn pub_use_and_impl_headers_are_not_references() {
        let def = (
            "crates/core/src/a.rs",
            "pub struct Widget;\nimpl Widget {\n    pub fn spin(&self) {}\n}\n",
        );
        let reexport = (
            "crates/core/src/lib.rs",
            "pub use crate::a::Widget;\nimpl std::fmt::Debug for Widget {\n    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        Ok(())\n    }\n}\n",
        );
        assert_eq!(
            flagged_in_first(UNREFERENCED_PUB, &[def, reexport]),
            vec![1, 3]
        );
        // `impl Trait` in type position is a use of the trait.
        let trait_def = ("crates/core/src/t.rs", "pub trait Spin {}\n");
        let user = ("crates/sim/src/u.rs", "fn go(_: impl Spin) {}\n");
        assert!(flagged_in_first(UNREFERENCED_PUB, &[trait_def, user]).is_empty());
    }

    #[test]
    fn an_allow_with_a_reason_silences_unreferenced_pub() {
        let bare = "pub const LIMIT: u32 = 4;\n";
        assert_eq!(
            rules_at("crates/core/src/a.rs", bare),
            vec![(UNREFERENCED_PUB.to_string(), 1)]
        );
        let allowed =
            "// lint:allow(unreferenced-pub) -- read by the loopback tests\npub const LIMIT: u32 = 4;\n";
        assert!(rules_at("crates/core/src/a.rs", allowed).is_empty());
        // Without a reason the directive is malformed and the finding stays.
        let unexplained = "// lint:allow(unreferenced-pub)\npub const LIMIT: u32 = 4;\n";
        let d = rules_at("crates/core/src/a.rs", unexplained);
        assert!(d.contains(&("allow-syntax".to_string(), 1)), "{d:?}");
        assert!(d.contains(&(UNREFERENCED_PUB.to_string(), 2)), "{d:?}");
        // `main`, `pub(crate)` items and files outside a crate's `src/` are
        // not held to it.
        let exempt = "pub fn main() {}\npub(crate) fn inner() {}\n";
        assert!(rules_at("crates/bench/src/bin/x.rs", exempt).is_empty());
        assert!(rules_at("crates/core/tests/x.rs", bare).is_empty());
    }
}
