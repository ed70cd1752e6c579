//! The lint rules.
//!
//! Each rule is a pure function over the token stream of one file, gated by a
//! path scope (workspace-relative, forward slashes).  Rules report *raw*
//! diagnostics; test-region exemption and `lint:allow` handling live in the
//! engine ([`crate::scan_source`]).
//!
//! Rule ids are stable — they appear in allow directives, fixtures and
//! `docs/ANALYSIS.md`.

use crate::lexer::{Tok, TokKind};
use crate::Ctx;
use std::collections::BTreeSet;

/// A pre-allowlist finding: line + message (rule id and path are added by the
/// engine).
#[derive(Debug, Clone)]
pub struct RawDiag {
    pub line: u32,
    pub message: String,
}

/// A lint rule: stable id, one-line description, path scope, checker.
pub struct Rule {
    pub id: &'static str,
    pub desc: &'static str,
    pub in_scope: fn(&str) -> bool,
    pub check: fn(&Ctx) -> Vec<RawDiag>,
}

pub const HASH_ITER: &str = "hash-iter";
pub const WALL_CLOCK: &str = "wall-clock";
pub const RAND_SCOPE: &str = "rand-scope";
pub const FLOAT_EQ: &str = "float-eq";
pub const FLOAT_CAST: &str = "float-cast";
pub const UNWRAP: &str = "unwrap";
pub const ASSERT_SLOT: &str = "assert-slot";
pub const UNSAFE_BLOCK: &str = "unsafe-block";

/// All rules, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule {
        id: HASH_ITER,
        desc: "no HashMap/HashSet/RequestMap iteration in sampling/scheduler hot paths (order breaks parity)",
        in_scope: scope_parity_hot_path,
        check: check_hash_iter,
    },
    Rule {
        id: WALL_CLOCK,
        desc: "no Instant::now / SystemTime outside net's rate meters and bench timing harnesses (sim time is logical)",
        in_scope: |p| !p.starts_with("crates/net/src/") && !p.starts_with("crates/bench/"),
        check: check_wall_clock,
    },
    Rule {
        id: RAND_SCOPE,
        desc: "no rand:: outside sampler entry points, seeded generators, and test/bench code",
        in_scope: scope_rand,
        check: check_rand,
    },
    Rule {
        id: FLOAT_EQ,
        desc: "no ==/!= on f64 in scheduler/sampling hot paths (use epsilon helpers or to_bits)",
        in_scope: scope_parity_hot_path,
        check: check_float_eq,
    },
    Rule {
        id: FLOAT_CAST,
        desc: "no silent `as` float->int cast in gain arithmetic (require ceil/floor/round/trunc)",
        in_scope: scope_parity_hot_path,
        check: check_float_cast,
    },
    Rule {
        id: UNWRAP,
        desc: "no unwrap()/expect() in non-test library code (CLI mains under src/bin are exempt)",
        in_scope: |p| !p.contains("/src/bin/"),
        check: check_unwrap,
    },
    Rule {
        id: ASSERT_SLOT,
        desc: "debug_assert! touching the log of unconfirmed sends must name the slot index",
        in_scope: |p| p.starts_with("crates/core/src/"),
        check: check_assert_slot,
    },
    Rule {
        id: UNSAFE_BLOCK,
        desc: "unsafe blocks are inventoried and reported (expected: zero)",
        in_scope: |_| true,
        check: check_unsafe,
    },
];

/// The determinism-critical files: the sampler and the scheduler tree.
fn scope_parity_hot_path(p: &str) -> bool {
    p == "crates/core/src/sampling.rs" || p.starts_with("crates/core/src/scheduler/")
}

/// Files allowed to use `rand::` in library code: the greedy scheduler (the
/// sampler entry point that owns the seeded RNG) and the seeded synthetic
/// generators for traces, backends and baselines.
fn scope_rand(p: &str) -> bool {
    const ALLOWED: &[&str] = &[
        "crates/core/src/scheduler/greedy.rs",
        "crates/net/src/cellular.rs",
        "crates/backend/src/flights.rs",
        "crates/backend/src/image.rs",
        "crates/apps/src/baselines.rs",
        "crates/apps/src/traces.rs",
    ];
    !ALLOWED.contains(&p)
}

// ---------------------------------------------------------------------------
// hash-iter
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// The map types whose iteration order depends on more than their
/// contents: `std`'s randomly seeded ones, and `RequestMap`, whose table
/// order is a function of its insertion and removal history.
const HASH_ORDERED: &[&str] = &["HashMap", "HashSet", "RequestMap"];

/// Names bound to a hash-ordered map in this file: `name: HashMap<..>`
/// field / param / let-type annotations, and `name = HashMap::new()`-style
/// inits.
fn collect_hash_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !HASH_ORDERED.iter().any(|ty| t.is_ident(ty)) {
            continue;
        }
        // Walk back over a `std :: collections ::` style path prefix and
        // reference sigils.
        let mut j = i;
        while j >= 2 && toks[j - 1].is("::") && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        while j >= 1 && (toks[j - 1].is("&") || toks[j - 1].is_ident("mut")) {
            j -= 1;
        }
        if j >= 2
            && (toks[j - 1].is(":") || toks[j - 1].is("="))
            && toks[j - 2].kind == TokKind::Ident
        {
            names.insert(toks[j - 2].text.clone());
        }
    }
    names
}

fn check_hash_iter(ctx: &Ctx) -> Vec<RawDiag> {
    let toks = ctx.tokens;
    let names = collect_hash_names(toks);
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        // `name . iter (` — method-style iteration (receiver may span lines).
        if t.kind == TokKind::Ident
            && names.contains(&t.text)
            && i + 3 < toks.len()
            && toks[i + 1].is(".")
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
            && toks[i + 3].is("(")
        {
            out.push(RawDiag {
                line: t.line,
                message: format!(
                    "iteration over hash-ordered `{}` ({}()); order breaks block-for-block parity — sort a snapshot or use BTreeMap",
                    t.text, toks[i + 2].text
                ),
            });
        }
        // `for x in [&][mut] [self .] name` — direct for-loop iteration.
        if t.is_ident("in") {
            let mut j = i + 1;
            while j < toks.len() && (toks[j].is("&") || toks[j].is_ident("mut")) {
                j += 1;
            }
            if j + 1 < toks.len() && toks[j].is_ident("self") && toks[j + 1].is(".") {
                j += 2;
            }
            if j < toks.len()
                && toks[j].kind == TokKind::Ident
                && names.contains(&toks[j].text)
                && !(j + 1 < toks.len() && (toks[j + 1].is(".") || toks[j + 1].is("[")))
            {
                out.push(RawDiag {
                    line: toks[j].line,
                    message: format!(
                        "for-loop over hash-ordered `{}`; order breaks block-for-block parity — sort a snapshot or use BTreeMap",
                        toks[j].text
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

fn check_wall_clock(ctx: &Ctx) -> Vec<RawDiag> {
    ctx.tokens
        .iter()
        .filter(|t| t.is_ident("Instant") || t.is_ident("SystemTime"))
        .map(|t| RawDiag {
            line: t.line,
            message: format!(
                "wall-clock source `{}`; simulation time is logical — only net's rate meters may read real time",
                t.text
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// rand-scope
// ---------------------------------------------------------------------------

fn check_rand(ctx: &Ctx) -> Vec<RawDiag> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("rand") {
            continue;
        }
        let path_use = i + 1 < toks.len() && toks[i + 1].is("::");
        let use_decl = i >= 1 && toks[i - 1].is_ident("use");
        if path_use || use_decl {
            out.push(RawDiag {
                line: t.line,
                message: "rand:: outside sampler entry points / seeded generators; randomness must flow from the scheduler's seeded RNG".to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// float-eq
// ---------------------------------------------------------------------------

fn check_float_eq(ctx: &Ctx) -> Vec<RawDiag> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is("==") || t.is("!=")) {
            continue;
        }
        let prev_float = i >= 1 && toks[i - 1].kind == TokKind::Float;
        let next_float = i + 1 < toks.len() && toks[i + 1].kind == TokKind::Float;
        // `x as f64 == y` — explicit float cast feeding an equality.
        let prev_cast = i >= 2
            && (toks[i - 1].is_ident("f64") || toks[i - 1].is_ident("f32"))
            && toks[i - 2].is_ident("as");
        if prev_float || next_float || prev_cast {
            out.push(RawDiag {
                line: t.line,
                message: format!(
                    "`{}` on f64 in a parity hot path; use an epsilon helper, or .to_bits() for intentional bit-identity",
                    t.text
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// float-cast
// ---------------------------------------------------------------------------

const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];
const FLOAT_EVIDENCE: &[&str] = &["f64", "f32", "sqrt", "powf", "powi", "exp", "ln", "log2"];
const ROUNDING: &[&str] = &["ceil", "floor", "round", "trunc"];

fn check_float_cast(ctx: &Ctx) -> Vec<RawDiag> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("as") {
            continue;
        }
        let Some(ty) = toks.get(i + 1) else { continue };
        if !(ty.kind == TokKind::Ident && INT_TYPES.contains(&ty.text.as_str())) {
            continue;
        }
        // Walk the cast's source expression backward (paren-balanced, bounded
        // window, stopping at statement/argument boundaries) looking for
        // float evidence and a rounding call.
        let mut has_float = false;
        let mut has_rounding = false;
        let mut depth = 0i32;
        let lo = i.saturating_sub(64);
        let mut k = i;
        while k > lo {
            k -= 1;
            let t = &toks[k];
            if t.is(")") {
                depth += 1;
            } else if t.is("(") {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 && (t.is(";") || t.is("{") || t.is("}") || t.is("=") || t.is(","))
            {
                break;
            } else if t.kind == TokKind::Float {
                has_float = true;
            } else if t.kind == TokKind::Ident {
                if FLOAT_EVIDENCE.contains(&t.text.as_str()) {
                    has_float = true;
                }
                if ROUNDING.contains(&t.text.as_str()) {
                    has_rounding = true;
                }
            }
        }
        if has_float && !has_rounding {
            out.push(RawDiag {
                line: toks[i].line,
                message: format!(
                    "silent float -> {} cast in gain arithmetic; make the rounding explicit (.ceil()/.floor()/.round()/.trunc())",
                    ty.text
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unwrap
// ---------------------------------------------------------------------------

fn check_unwrap(ctx: &Ctx) -> Vec<RawDiag> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].is(".")
            && (toks[i + 1].is_ident("unwrap") || toks[i + 1].is_ident("expect"))
            && toks[i + 2].is("(")
        {
            out.push(RawDiag {
                line: toks[i + 1].line,
                message: format!(
                    "`.{}()` in non-test library code; handle the None/Err case or justify with lint:allow",
                    toks[i + 1].text
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// assert-slot
// ---------------------------------------------------------------------------

/// Identifiers that count as "naming the slot index" inside an assert about
/// the log of unconfirmed sends: the scheduler's clock `since_install` or
/// anything mentioning a slot.
fn names_slot_index(text: &str) -> bool {
    text == "since_install" || text.contains("slot")
}

fn check_assert_slot(ctx: &Ctx) -> Vec<RawDiag> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if !(t.kind == TokKind::Ident && t.text.starts_with("debug_assert")) {
            i += 1;
            continue;
        }
        if !(i + 2 < toks.len() && toks[i + 1].is("!") && toks[i + 2].is("(")) {
            i += 1;
            continue;
        }
        // Collect the macro arguments (paren-balanced).
        let mut depth = 0i32;
        let mut k = i + 2;
        let mut touches_log = false;
        let mut has_slot = false;
        while k < toks.len() {
            let a = &toks[k];
            if a.is("(") {
                depth += 1;
            } else if a.is(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.kind == TokKind::Ident {
                if a.text == "unconfirmed" {
                    touches_log = true;
                }
                if names_slot_index(&a.text) {
                    has_slot = true;
                }
            }
            k += 1;
        }
        if touches_log && !has_slot {
            out.push(RawDiag {
                line: t.line,
                message: "debug_assert touching the log of unconfirmed sends must name the slot index (self.since_install or a slot variable)".to_string(),
            });
        }
        i = k + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// unsafe-block
// ---------------------------------------------------------------------------

fn check_unsafe(ctx: &Ctx) -> Vec<RawDiag> {
    ctx.tokens
        .iter()
        .filter(|t| t.is_ident("unsafe"))
        .map(|t| RawDiag {
            line: t.line,
            message: "unsafe code (inventoried; this workspace is expected to have zero)"
                .to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::scan_source;

    const SCHED: &str = "crates/core/src/scheduler/x.rs";

    fn rules_at(path: &str, src: &str) -> Vec<(String, u32)> {
        scan_source(path, src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn hash_iter_catches_multiline_chains() {
        let src = "struct S { resident: std::collections::HashMap<u32, u32> }\nimpl S {\n    fn f(&self) {\n        for x in self\n            .resident\n            .iter()\n        {}\n    }\n}\n";
        let d = rules_at(SCHED, src);
        assert!(d.contains(&("hash-iter".to_string(), 5)), "{d:?}");
    }

    #[test]
    fn hash_iter_catches_request_maps() {
        let src = "struct S { slots: RequestMap<u32> }\nimpl S {\n    fn f(&self) {\n        for (r, s) in self.slots.iter() {}\n        let m = crate::request_map::RequestMap::<u8>::new();\n        let _ = m.keys();\n        let _ = self.slots.get(r);\n    }\n}\n";
        let d = rules_at(SCHED, src);
        assert_eq!(
            d,
            vec![("hash-iter".to_string(), 4), ("hash-iter".to_string(), 6)]
        );
    }

    #[test]
    fn hash_iter_ignores_indexing_and_btree() {
        let src = "use std::collections::{BTreeMap, HashMap};\nfn f(m: HashMap<u32, u32>, b: BTreeMap<u32, u32>) {\n    let _ = m[&1];\n    for x in &b {}\n    let _ = m.get(&1);\n}\n";
        assert!(rules_at(SCHED, src).is_empty());
    }

    #[test]
    fn float_eq_needs_float_operand() {
        let src = "fn f(a: f64, n: usize) -> bool {\n    let x = a == 0.0;\n    let y = n == 3;\n    x && y\n}\n";
        let d = rules_at(SCHED, src);
        assert_eq!(d, vec![("float-eq".to_string(), 2)]);
    }

    #[test]
    fn float_eq_ignores_tuple_field_access() {
        let src = "fn f(e: (usize, usize), r: usize) -> bool { e.0 == r }\n";
        assert!(rules_at(SCHED, src).is_empty());
    }

    #[test]
    fn float_cast_requires_rounding() {
        let bad = "fn f(x: f64) -> usize { x * 2.0 as usize }\n";
        let d = rules_at(SCHED, bad);
        assert!(d.iter().any(|(r, _)| r == "float-cast"), "{d:?}");

        let good = "fn f(x: f64) -> usize { (x * 2.0).ceil() as usize }\n";
        assert!(rules_at(SCHED, good).is_empty());

        // Int-only casts never fire, even inside float-method args.
        let int_arg = "fn f(g: f64, t: usize) -> f64 { g.powi(t as i32) }\n";
        assert!(rules_at(SCHED, int_arg).is_empty());
    }

    #[test]
    fn unwrap_exempt_in_tests() {
        let src = "fn lib(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let d = rules_at("crates/core/src/x.rs", src);
        assert_eq!(d, vec![("unwrap".to_string(), 1)]);
    }

    #[test]
    fn assert_slot_demands_slot_index() {
        let bad = "fn f(&self) { debug_assert!(self.unconfirmed.len() > 0); }\n";
        let d = rules_at("crates/core/src/scheduler/greedy.rs", bad);
        assert_eq!(d, vec![("assert-slot".to_string(), 1)]);

        let good = "fn f(&self) { debug_assert!(self.unconfirmed.len() <= self.since_install); }\n";
        assert!(rules_at("crates/core/src/scheduler/greedy.rs", good).is_empty());

        let stale = "fn f(&self) { debug_assert!(self.unconfirmed.len() <= self.t); }\n";
        let d = rules_at("crates/core/src/scheduler/greedy.rs", stale);
        assert_eq!(d, vec![("assert-slot".to_string(), 1)]);
    }

    #[test]
    fn rand_scope_respects_allowlist() {
        let src = "use rand::Rng;\nfn f() {}\n";
        assert!(rules_at("crates/core/src/scheduler/greedy.rs", src).is_empty());
        let d = rules_at("crates/core/src/block.rs", src);
        assert_eq!(d, vec![("rand-scope".to_string(), 1)]);
    }

    #[test]
    fn wall_clock_scoped_out_of_net() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        assert!(rules_at("crates/net/src/meter.rs", src).is_empty());
        let d = rules_at("crates/sim/src/x.rs", src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|(r, _)| r == "wall-clock"));
    }

    #[test]
    fn unsafe_reported_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { std::hint::unreachable_unchecked() } }\n}\n";
        let d = rules_at("crates/core/src/x.rs", src);
        assert_eq!(d, vec![("unsafe-block".to_string(), 3)]);
    }
}
