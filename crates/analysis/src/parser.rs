//! Item-level parse over the token stream.
//!
//! The lexer gives us a flat token list; this module recovers just enough
//! structure for cross-file dataflow rules: function items (name,
//! visibility, enclosing `impl` type, body extent), structs with named
//! fields, and the identifier sets needed to build a workspace symbol /
//! reference graph.  It is deliberately *not* a grammar-complete Rust
//! parser — it only tracks the brace/paren/angle nesting required to find
//! item boundaries, consistent with the crate's no-external-parser policy.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared with a bare `pub` (exported API; `pub(crate)` is false).
    pub is_pub: bool,
    /// Self type of the enclosing `impl` block, if any.
    pub parent_impl: Option<String>,
    /// Token-index range of the body, `[open_brace, close_brace]`
    /// inclusive; `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field name.
    pub name: String,
    /// 1-based line of the field name.
    pub line: u32,
}

/// One `struct` item with named fields (tuple/unit structs carry none).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldItem>,
}

/// One bare-`pub` `struct`, `enum`, `trait`, `type` or `const` item (`pub`
/// fns are the [`FnItem`]s with `is_pub`).
#[derive(Debug, Clone)]
pub struct PubDecl {
    /// The introducing keyword.
    pub keyword: String,
    /// The item's name.
    pub name: String,
    /// 1-based line of the keyword.
    pub line: u32,
}

/// The parsed item inventory of one file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    /// Every `fn` item, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Every `struct` item with its named fields.
    pub structs: Vec<StructItem>,
    /// Every bare-`pub` type, trait or const item, in source order.
    pub pub_decls: Vec<PubDecl>,
}

impl FileIndex {
    /// The first function named `name`, if any.
    pub fn fn_named(&self, name: &str) -> Option<&FnItem> {
        self.fns.iter().find(|f| f.name == name)
    }

    /// All functions whose enclosing impl type is `ty`.
    pub fn fns_of_impl<'a>(&'a self, ty: &'a str) -> impl Iterator<Item = &'a FnItem> {
        self.fns
            .iter()
            .filter(move |f| f.parent_impl.as_deref() == Some(ty))
    }
}

/// Identifiers referenced anywhere in the scan set: the corpus the
/// `untested-pub-fn` and `unreferenced-pub` rules resolve names against.
#[derive(Debug, Clone, Default)]
pub struct RefCorpus {
    /// Every identifier token appearing inside a test region (or a file
    /// under a `tests/` directory).
    pub test_idents: BTreeSet<String>,
    /// Every identifier token outside test regions that *uses* a name: the
    /// name token of a definition, `use` statements and item `impl`
    /// headers are left out.
    pub idents: BTreeSet<String>,
}

/// Keywords whose following identifier is the name being defined.
const DEF_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

impl RefCorpus {
    /// Fold `tokens` into the corpus; `mask` flags the test-only lines
    /// (pass an all-true mask for integration-test files).
    pub fn add_tokens(&mut self, tokens: &[Tok], mask: &[bool]) {
        let mut i = 0usize;
        while i < tokens.len() {
            let t = &tokens[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            if mask.get(t.line as usize).copied().unwrap_or(false) {
                self.test_idents.insert(t.text.clone());
            } else if t.is("use") || (t.is("impl") && is_item_impl(tokens, i)) {
                // Skip to the statement's `;` or the impl body's `{`.
                let end = if t.is("use") { ";" } else { "{" };
                while i + 1 < tokens.len() && !tokens[i].is(end) {
                    i += 1;
                }
            } else if !(i > 0 && DEF_KEYWORDS.iter().any(|k| tokens[i - 1].is_ident(k))) {
                self.idents.insert(t.text.clone());
            }
            i += 1;
        }
    }
}

/// Is the `impl` at `at` an item header rather than `impl Trait` in type
/// position (`-> impl Iterator`, `f: impl Fn()`)?
fn is_item_impl(tokens: &[Tok], at: usize) -> bool {
    at == 0 || {
        let p = &tokens[at - 1];
        p.is("}") || p.is(";") || p.is("{") || p.is("]") || p.is_ident("unsafe")
    }
}

/// Build the item inventory of one file's token stream.
pub fn index_file(tokens: &[Tok]) -> FileIndex {
    let mut index = FileIndex::default();
    // Stack of (brace_depth_at_open, impl_self_type) for enclosing impls.
    let mut impl_stack: Vec<(usize, String)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is("}") {
            depth = depth.saturating_sub(1);
            while impl_stack.last().is_some_and(|(d, _)| *d > depth) {
                impl_stack.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((name, open)) = parse_impl_header(tokens, i) {
                impl_stack.push((depth + 1, name));
                depth += 1;
                i = open + 1;
                continue;
            }
        }
        if t.is_ident("fn") {
            if let Some((item, next)) = parse_fn(tokens, i, &impl_stack) {
                index.fns.push(item);
                // Do not skip the body: nested fns and closures stay visible.
                i = next;
                continue;
            }
        }
        if ["struct", "enum", "trait", "type", "const"]
            .iter()
            .any(|k| t.is_ident(k))
        {
            if let Some(name) = tokens.get(i + 1).filter(|n| {
                n.kind == TokKind::Ident
                    && !n.is("fn")
                    && !n.is("_")
                    && visibility_before(tokens, i).0
            }) {
                index.pub_decls.push(PubDecl {
                    keyword: t.text.clone(),
                    name: name.text.clone(),
                    line: t.line,
                });
            }
        }
        if t.is_ident("struct") {
            if let Some((item, next)) = parse_struct(tokens, i) {
                index.structs.push(item);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    index
}

/// Parse `impl [<..>] [Trait for] Type [<..>] .. {`, returning the Self
/// type name and the index of the opening brace.
fn parse_impl_header(tokens: &[Tok], at: usize) -> Option<(String, usize)> {
    let mut angle = 0i32;
    let mut name: Option<String> = None;
    let mut after_for = false;
    let mut j = at + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is("<") {
            angle += 1;
        } else if t.is(">") {
            angle -= 1;
        } else if angle == 0 {
            if t.is("{") {
                return name.map(|n| (n, j));
            }
            if t.is(";") || t.is("}") {
                return None;
            }
            if t.is_ident("for") {
                after_for = true;
                name = None;
            } else if t.kind == TokKind::Ident
                && !matches!(
                    t.text.as_str(),
                    "where" | "dyn" | "unsafe" | "const" | "mut"
                )
                && (name.is_none() || after_for)
            {
                // `impl Trait for Type`: the Self type is the path after
                // `for`; otherwise the first path segment names it.  Keep
                // the *last* segment of a `a::b::C` path.
                let mut k = j;
                while k + 2 < tokens.len()
                    && tokens[k + 1].is("::")
                    && tokens[k + 2].kind == TokKind::Ident
                {
                    k += 2;
                }
                name = Some(tokens[k].text.clone());
                after_for = false;
                j = k;
            }
        }
        j += 1;
    }
    None
}

/// Parse a `fn` item starting at the `fn` keyword; returns the item and the
/// token index to resume scanning from (just after the signature, so nested
/// items inside the body are still visited).
fn parse_fn(tokens: &[Tok], at: usize, impls: &[(usize, String)]) -> Option<(FnItem, usize)> {
    let name_tok = tokens.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn(..)` pointer type or malformed.
    }
    let (is_pub, _vis_crate) = visibility_before(tokens, at);
    // Walk the signature: body opens at the first `{` outside parens and
    // angle brackets; a `;` there means a bodyless declaration.
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut j = at + 2;
    let mut body = None;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is("(") || t.is("[") {
            paren += 1;
        } else if t.is(")") || t.is("]") {
            paren -= 1;
        } else if t.is("<") {
            angle += 1;
        } else if t.is(">") {
            angle = (angle - 1).max(0);
        } else if t.is("->") {
            angle = 0; // reset: `>` of generics may be fused elsewhere
        } else if paren == 0 && t.is(";") {
            break;
        } else if paren == 0 && t.is("{") {
            body = Some((j, close_brace(tokens, j)));
            break;
        }
        j += 1;
    }
    let item = FnItem {
        name: name_tok.text.clone(),
        line: tokens[at].line,
        is_pub,
        parent_impl: impls.last().map(|(_, n)| n.clone()),
        body,
    };
    Some((item, at + 2))
}

/// Find the index of the `}` matching the `{` at `open`.
pub fn close_brace(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is("{") {
            depth += 1;
        } else if tokens[j].is("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Visibility of the item whose introducing keyword sits at `at`: walks back
/// over qualifier keywords looking for `pub` / `pub(..)`.
fn visibility_before(tokens: &[Tok], at: usize) -> (bool, bool) {
    let mut j = at;
    while j > 0 {
        let p = &tokens[j - 1];
        if p.kind == TokKind::Ident
            && matches!(p.text.as_str(), "const" | "unsafe" | "async" | "extern")
        {
            j -= 1;
            continue;
        }
        if p.is(")") {
            // Possibly the close of `pub(crate)`: walk to its `(`.
            let mut k = j - 1;
            let mut depth = 0i32;
            while k > 0 {
                if tokens[k].is(")") {
                    depth += 1;
                } else if tokens[k].is("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            if k >= 1 && tokens[k - 1].is_ident("pub") {
                return (false, true);
            }
            return (false, false);
        }
        if p.is_ident("pub") {
            return (true, false);
        }
        break;
    }
    (false, false)
}

/// Parse `struct Name [<..>] [where ..] { fields }` (or tuple/unit forms).
fn parse_struct(tokens: &[Tok], at: usize) -> Option<(StructItem, usize)> {
    let name_tok = tokens.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut item = StructItem {
        name: name_tok.text.clone(),
        line: tokens[at].line,
        fields: Vec::new(),
    };
    // Find the body brace (angle-balanced; `(`/`;` mean tuple/unit struct).
    let mut angle = 0i32;
    let mut j = at + 2;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is("<") {
            angle += 1;
        } else if t.is(">") {
            angle -= 1;
        } else if angle == 0 {
            if t.is("(") || t.is(";") {
                return Some((item, j + 1));
            }
            if t.is("{") {
                break;
            }
        }
        j += 1;
    }
    if j >= tokens.len() {
        return Some((item, j));
    }
    let close = close_brace(tokens, j);
    // Named fields: `name :` at relative depth 1, preceded by `{`, `,`, an
    // attribute `]`, or a `pub`/`pub(..)` qualifier.
    let mut depth = 0usize;
    let mut paren = 0i32;
    let mut k = j;
    while k < close {
        let t = &tokens[k];
        if t.is("{") {
            depth += 1;
        } else if t.is("}") {
            depth -= 1;
        } else if t.is("(") {
            paren += 1;
        } else if t.is(")") {
            paren -= 1;
        } else if depth == 1
            && paren == 0
            && t.kind == TokKind::Ident
            && k + 1 < close
            && tokens[k + 1].is(":")
            && !tokens[k + 1].is("::")
        {
            let prev = &tokens[k - 1];
            if prev.is("{") || prev.is(",") || prev.is("]") || prev.is(")") || prev.is_ident("pub")
            {
                item.fields.push(FieldItem {
                    name: t.text.clone(),
                    line: t.line,
                });
            }
        }
        k += 1;
    }
    Some((item, close + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index(src: &str) -> FileIndex {
        index_file(&lex(src).tokens)
    }

    #[test]
    fn finds_fns_with_visibility_and_impl_parent() {
        let src = "pub struct S { pub a: u64, b: usize }\n\
                   impl S {\n    pub fn new() -> Self { S { a: 0, b: 0 } }\n\
                   \n    fn private(&self) {}\n}\n\
                   pub(crate) fn helper() {}\npub fn free() {}\n";
        let idx = index(src);
        let new = idx.fn_named("new").expect("new");
        assert!(new.is_pub);
        assert_eq!(new.parent_impl.as_deref(), Some("S"));
        assert!(!idx.fn_named("private").expect("private").is_pub);
        assert!(!idx.fn_named("helper").expect("helper").is_pub);
        let free = idx.fn_named("free").expect("free");
        assert!(free.is_pub && free.parent_impl.is_none());
    }

    #[test]
    fn finds_struct_fields_not_generics_or_nested_types() {
        let src = "pub struct Snap<T: Clone> where T: Default {\n    pub sessions: usize,\n    map: std::collections::BTreeMap<u64, Vec<(u64, T)>>,\n    cb: fn(u32) -> u32,\n}\n";
        let idx = index(src);
        let s = &idx.structs[0];
        assert_eq!(s.name, "Snap");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["sessions", "map", "cb"]);
    }

    #[test]
    fn trait_impl_attributes_and_tuple_structs() {
        let src = "struct Wrap(u64);\nimpl std::fmt::Display for Wrap {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\nstruct Marked {\n    #[allow(dead_code)]\n    kept: u8,\n}\n";
        let idx = index(src);
        assert!(idx.structs[0].fields.is_empty());
        assert_eq!(
            idx.fn_named("fmt").unwrap().parent_impl.as_deref(),
            Some("Wrap")
        );
        assert_eq!(idx.structs[1].fields[0].name, "kept");
    }

    #[test]
    fn bodyless_trait_methods_and_fn_pointers() {
        let src = "trait T { fn required(&self); fn with_default(&self) {} }\n\
                   fn takes(f: fn(u32)) { f(1) }\n";
        let idx = index(src);
        assert!(idx.fn_named("required").unwrap().body.is_none());
        assert!(idx.fn_named("with_default").unwrap().body.is_some());
        assert!(idx.fn_named("takes").unwrap().body.is_some());
    }
}
