//! Panic-hygiene rules for the sweep-execution modules.
//!
//! `par_try_map`'s per-cell containment turns a panicking cell into
//! that cell's `CellError::Panic` while the rest of the grid
//! completes. That only stays meaningful if panics in the sweep
//! machinery itself are *exceptional*, never routine control flow —
//! a panic in the fan-out or checkpoint code is a sweep bug, not a
//! cell failure. Two rules, scoped to `par_sweep.rs` and
//! `checkpoint.rs`:
//!
//! * `panic-path`: `.unwrap()`, `.expect("…")`, `panic!`,
//!   `unreachable!`, `todo!`. The `.expect(` form is only flagged
//!   when its argument is a string literal — `Option::expect`
//!   /`Result::expect` take `&str`, whereas a parser method such as
//!   `fn expect(&mut self, b: u8)` takes byte literals and is
//!   ordinary fallible parsing, not a panic.
//! * `panic-index`: `expr[…]` indexing and slicing, which panic on
//!   out-of-bounds, unless the same or previous line carries a
//!   `// bound: …` comment stating why the index is in range.

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::rules::{finding, for_each_seq};
use crate::tree::Tree;
use crate::workspace::SourceFile;

/// The sweep fan-out and checkpoint modules, whose panics must stay
/// exceptional for per-cell containment to mean anything.
fn in_scope(rel: &str) -> bool {
    rel == "crates/experiments/src/par_sweep.rs" || rel == "crates/experiments/src/checkpoint.rs"
}

/// Identifier-like tokens that may precede `[` without it being an
/// index expression (array literals/types after keywords).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "return", "in", "break", "else", "as", "let", "mut", "const", "static", "move", "ref", "dyn",
    "where", "match", "loop", "use", "pub", "type", "if", "while", "box", "yield",
];

/// Runs both panic rules over one file (no-op outside the scope).
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.rel) {
        return;
    }
    for_each_seq(&file.trees, &mut |seq| {
        for (i, t) in seq.iter().enumerate() {
            // `.unwrap()` / `.expect("…")` method calls.
            if t.is_punct(".") {
                let name = seq.get(i + 1);
                let args = seq.get(i + 2);
                if let (Some(name), Some(args)) = (name, args) {
                    if name.is_ident("unwrap") && args.is_group('(') && args.children().is_empty() {
                        out.push(finding(
                            "panic-path",
                            file,
                            name.line(),
                            ".unwrap() in sweep path".to_string(),
                        ));
                    }
                    let str_arg = args.children().first().is_some_and(|c| {
                        matches!(c, Tree::Leaf(tok)
                            if matches!(tok.kind, TokKind::Str | TokKind::RawStr))
                    });
                    if name.is_ident("expect") && args.is_group('(') && str_arg {
                        out.push(finding(
                            "panic-path",
                            file,
                            name.line(),
                            ".expect(\"…\") in sweep path".to_string(),
                        ));
                    }
                }
            }
            // `panic!` / `unreachable!` / `todo!` macro invocations.
            let is_panic_macro =
                (t.is_ident("panic") || t.is_ident("unreachable") || t.is_ident("todo"))
                    && seq.get(i + 1).is_some_and(|n| n.is_punct("!"));
            if is_panic_macro {
                out.push(finding(
                    "panic-path",
                    file,
                    t.line(),
                    format!("{}! in sweep path", t.text()),
                ));
            }
            // `expr[…]` indexing without a bound comment.
            if t.is_group('[') && i > 0 {
                let prev = &seq[i - 1];
                let indexable = match prev {
                    Tree::Leaf(tok) => {
                        (tok.kind == TokKind::Ident
                            && !NON_INDEX_KEYWORDS.contains(&tok.text.as_str()))
                            || tok.kind == TokKind::Str
                    }
                    Tree::Group { open, .. } => matches!(open, '(' | '['),
                };
                if indexable && !file.has_marker(t.line(), "bound:") {
                    out.push(finding(
                        "panic-index",
                        file,
                        t.line(),
                        "indexing without a `// bound:` comment".to_string(),
                    ));
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tree::{parse, strip_cfg_test};

    fn run_at(rel: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile {
            rel: rel.into(),
            lines: src.lines().map(str::to_string).collect(),
            trees: strip_cfg_test(parse(&lex(src).unwrap()).unwrap()),
        };
        let mut out = Vec::new();
        check(&file, &mut out);
        out
    }

    fn run(src: &str) -> Vec<Finding> {
        run_at("crates/experiments/src/par_sweep.rs", src)
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let f = run_at(
            "crates/core/src/x.rs",
            "fn f(v: &[u8]) { v[0]; panic!(\"x\"); }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn flags_unwrap_expect_and_panic_macros() {
        let f = run("fn f(o: Option<u8>) { o.unwrap(); o.expect(\"msg\"); panic!(\"x\"); }");
        let rules: Vec<&str> = f.iter().map(|x| x.msg.as_str()).collect();
        assert_eq!(f.len(), 3, "{rules:?}");
        assert!(f.iter().all(|x| x.rule == "panic-path"));
    }

    #[test]
    fn byte_expect_is_fallible_parsing_not_panic() {
        // A parser's own `fn expect(&mut self, b: u8)` — byte-literal
        // argument, must not be flagged.
        let f = run("fn f(p: &mut P) { p.expect(b'{')?; }");
        assert!(f.is_empty());
    }

    #[test]
    fn indexing_needs_bound_comment() {
        let f = run("fn f(v: &[u8]) { let a = v[0]; }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "panic-index");
        let ok = run("fn f(v: &[u8]) { let a = v[0]; // bound: len checked by caller\n }");
        assert!(ok.is_empty());
        let prev =
            run("fn f(v: &[u8]) {\n // bound: non-empty by construction\n let a = v[0];\n }");
        assert!(prev.is_empty());
    }

    #[test]
    fn array_literals_and_macros_are_not_indexing() {
        let f = run("fn f() -> [u8; 2] { let v = vec![1, 2]; return [1, 2]; }");
        assert!(f.is_empty());
    }
}
