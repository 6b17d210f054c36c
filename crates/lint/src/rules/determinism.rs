//! Nondeterminism-hazard rules.
//!
//! Everything this repo publishes — `SimStats`, checkpoints,
//! `BENCH_*.json`, `report_full.md` — must be a pure
//! function of (program, config, seed). Three per-file rules guard
//! that:
//!
//! * `det-hash-collection`: `HashMap`/`HashSet` anywhere in
//!   production code. Their iteration order is seeded per-process
//!   (`RandomState`), so any iteration that feeds output is
//!   nondeterministic; lookup-only uses are one refactor away from
//!   becoming iteration, so the rule flags the types themselves and
//!   the fix is `BTreeMap`/`BTreeSet` (or a justified allowlist
//!   entry for a genuinely hot lookup-only table).
//! * `det-wall-clock`: `Instant`/`SystemTime`/`UNIX_EPOCH`.
//!   Wall-clock reads are fine for *scheduling* (deadlines, backoff
//!   waits) and for *being the measurement* (bench timings) — those
//!   get allowlist entries with that justification — but must never
//!   leak into result content.
//! * `det-ambient-id`: thread identity (`ThreadId`,
//!   `thread::current`) and pointer-value formatting (`{:p}`), both
//!   of which vary per process and per run.

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::rules::{finding, for_each_seq};
use crate::tree::Tree;
use crate::workspace::SourceFile;

/// Runs the three determinism rules over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    for_each_seq(&file.trees, &mut |seq| {
        for (i, t) in seq.iter().enumerate() {
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                out.push(finding(
                    "det-hash-collection",
                    file,
                    t.line(),
                    format!(
                        "`{}` has per-process iteration order; use BTreeMap/BTreeSet",
                        t.text()
                    ),
                ));
            }
            if t.is_ident("Instant") || t.is_ident("SystemTime") || t.is_ident("UNIX_EPOCH") {
                out.push(finding(
                    "det-wall-clock",
                    file,
                    t.line(),
                    format!("wall-clock source `{}` in production path", t.text()),
                ));
            }
            if t.is_ident("ThreadId") {
                out.push(finding(
                    "det-ambient-id",
                    file,
                    t.line(),
                    "thread identity varies per run".to_string(),
                ));
            }
            // `thread :: current` — thread identity by another door.
            if t.is_ident("thread")
                && seq.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && seq.get(i + 2).is_some_and(|n| n.is_ident("current"))
            {
                out.push(finding(
                    "det-ambient-id",
                    file,
                    t.line(),
                    "thread::current() identity varies per run".to_string(),
                ));
            }
            // Pointer-value formatting leaks ASLR'd addresses.
            if let Tree::Leaf(tok) = t {
                let ptr_fmt: String = ['{', ':', 'p', '}'].iter().collect();
                if tok.kind == TokKind::Str && tok.text.contains(&ptr_fmt) {
                    out.push(finding(
                        "det-ambient-id",
                        file,
                        t.line(),
                        "pointer-value formatting varies per run".to_string(),
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

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile {
            rel: "t.rs".into(),
            lines: src.lines().map(str::to_string).collect(),
            trees: strip_cfg_test(parse(&lex(src).unwrap()).unwrap()),
        };
        let mut out = Vec::new();
        check(&file, &mut out);
        out
    }

    #[test]
    fn flags_hash_collections_and_clocks() {
        let f = run("use std::collections::HashMap;\nfn f() { let t = Instant::now(); }\n");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, "det-hash-collection");
        assert_eq!(f[1].rule, "det-wall-clock");
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn ignores_test_modules_and_btree() {
        let f = run(
            "use std::collections::BTreeMap;\n\
             #[cfg(test)]\nmod tests { use std::collections::HashSet; fn t() { let i = Instant::now(); } }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn flags_thread_identity_and_pointer_format() {
        let src = "fn f() { let id = std::thread::current().id(); }\n";
        let f = run(src);
        assert!(f.iter().any(|x| x.rule == "det-ambient-id"));
        let fmt = "fn f(p: &u8) { println!(\"{:p}\", p); }\n";
        assert!(run(fmt).iter().any(|x| x.rule == "det-ambient-id"));
    }
}
