//! Cross-file conformance rules.
//!
//! These extract facts from several files and compare them — the
//! drift clippy can't see:
//!
//! * `conf-faultkind`: the degradation experiment must sweep every
//!   fault kind through `FaultPlan::all`. (The `FaultKind` list
//!   itself, its count, `ALL`, `name()` and the simulator's
//!   `apply_faults` match are kept in step by the compiler.)
//! * `conf-jobs-flag`: every experiment bin must expose and
//!   document `--jobs`.
//! * `conf-frontend-matrix`: every `impl Frontend for <Type>` in the
//!   workspace must have that type exercised by the
//!   differential-oracle crate — a frontend nobody cross-checks
//!   against the golden model is an unverified retirement stream.

use std::collections::BTreeSet;

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::rules::{finding, for_each_seq};
use crate::tree::{walk, Tree};
use crate::workspace::{SourceFile, Workspace};

/// Runs every conformance rule over the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    faultkind(ws, out);
    jobs_flag(ws, out);
    frontend_matrix(ws, out);
}

/// A finding that reports a broken extraction — the rule must fail
/// loudly if the code it audits moves out from under it.
fn broken(rule: &'static str, file: &SourceFile, msg: String) -> Finding {
    finding(rule, file, 1, format!("extraction failed: {msg}"))
}

// ---- extraction helpers -----------------------------------------

/// All identifier texts in a forest.
fn idents(trees: &[Tree]) -> Vec<String> {
    let mut out = Vec::new();
    walk(trees, &mut |t| {
        if let Tree::Leaf(tok) = t {
            if tok.kind == TokKind::Ident {
                out.push(tok.text.clone());
            }
        }
    });
    out
}

// ---- conf-faultkind ---------------------------------------------

/// Chaos coverage: the degradation experiment must schedule every
/// kind (`FaultPlan::all`), not a hand-picked subset.
fn faultkind(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(deg) = ws.get("crates/experiments/src/degradation.rs") else {
        return;
    };
    let mut uses_all = false;
    for_each_seq(&deg.trees, &mut |seq| {
        for (i, t) in seq.iter().enumerate() {
            if t.is_ident("FaultPlan")
                && seq.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && seq.get(i + 2).is_some_and(|n| n.is_ident("all"))
            {
                uses_all = true;
            }
        }
    });
    if !uses_all {
        out.push(finding(
            "conf-faultkind",
            deg,
            1,
            "degradation experiment no longer sweeps all fault kinds (FaultPlan::all)".to_string(),
        ));
    }
}

// ---- conf-jobs-flag ---------------------------------------------

fn jobs_flag(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in ws.with_prefix("crates/experiments/src/bin/") {
        let mentions_jobs = file.lines.iter().any(|l| l.contains("--jobs"));
        if !mentions_jobs {
            out.push(finding(
                "conf-jobs-flag",
                file,
                1,
                "experiment bin does not expose/document --jobs".to_string(),
            ));
        }
    }
}

/// Every type with an `impl Frontend for …` must be exercised by the
/// differential-oracle crate: the oracle's test matrix is the only
/// thing standing between a new frontend and an unverified retirement
/// stream, so adding a frontend without differential coverage is a
/// lint failure, not a style choice.
fn frontend_matrix(ws: &Workspace, out: &mut Vec<Finding>) {
    const RULE: &str = "conf-frontend-matrix";
    let Some(anchor) = ws.get("crates/exec/src/frontend.rs") else {
        return;
    };
    // Every `impl … Frontend for <Type>` in the workspace (trait
    // bounds like `F: Frontend` never match — they are not followed
    // by `for <ident>`).
    let mut impls: Vec<(&SourceFile, u32, String)> = Vec::new();
    for f in &ws.files {
        for_each_seq(&f.trees, &mut |seq| {
            for i in 0..seq.len() {
                if !seq[i].is_ident("Frontend")
                    || !seq.get(i + 1).is_some_and(|t| t.is_ident("for"))
                    || !seq[..i].iter().any(|t| t.is_ident("impl"))
                {
                    continue;
                }
                if let Some(Tree::Leaf(tok)) = seq.get(i + 2) {
                    if tok.kind == TokKind::Ident {
                        impls.push((f, tok.line, tok.text.clone()));
                    }
                }
            }
        });
    }
    if impls.is_empty() {
        out.push(broken(
            RULE,
            anchor,
            "no `impl Frontend for <Type>` found anywhere in the workspace".to_string(),
        ));
        return;
    }
    let mut oracle_idents: BTreeSet<String> = BTreeSet::new();
    for f in ws.with_prefix("crates/oracle/") {
        oracle_idents.extend(idents(&f.trees));
    }
    for (f, line, name) in impls {
        if !oracle_idents.contains(&name) {
            out.push(finding(
                RULE,
                f,
                line,
                format!(
                    "frontend `{name}` is not exercised by the differential-oracle crate \
                     (crates/oracle never names it)"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tree::{parse, strip_cfg_test};

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.into(),
            lines: src.lines().map(str::to_string).collect(),
            trees: strip_cfg_test(parse(&lex(src).unwrap()).unwrap()),
        }
    }

    #[test]
    fn degradation_must_sweep_every_fault_kind() {
        let path = "crates/experiments/src/degradation.rs";
        let good = file(path, "fn f() { let p = FaultPlan::all(1, 40); }");
        let bad = file(path, "fn f() { let p = FaultPlan::only(k, 1, 40); }");
        for (f, findings) in [(good, 0), (bad, 1)] {
            let mut out = Vec::new();
            faultkind(&Workspace { files: vec![f] }, &mut out);
            assert_eq!(out.len(), findings, "{out:?}");
        }
    }

    #[test]
    fn experiment_bins_must_mention_jobs() {
        let good = file(
            "crates/experiments/src/bin/fig5.rs",
            "//! Usage: fig5 [--jobs N]\nfn main() {}",
        );
        let bad = file("crates/experiments/src/bin/fig9.rs", "fn main() {}");
        let ws = Workspace {
            files: vec![good, bad],
        };
        let mut out = Vec::new();
        jobs_flag(&ws, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].file, "crates/experiments/src/bin/fig9.rs");
    }

    #[test]
    fn uncovered_frontend_impl_is_flagged() {
        let fe = file(
            "crates/exec/src/frontend.rs",
            "pub trait Frontend {}\nimpl Frontend for Executor<'_> {}",
        );
        let extra = file(
            "crates/exec/src/asm.rs",
            "impl<'a> Frontend for AsmFrontend<'a> {}",
        );
        let oracle = file(
            "crates/oracle/src/bin/asm_run.rs",
            "fn main() { let _: Executor<'_> = todo!(); }",
        );
        let ws = Workspace {
            files: vec![fe, extra, oracle],
        };
        let mut out = Vec::new();
        frontend_matrix(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("AsmFrontend"), "{out:?}");
        assert_eq!(out[0].file, "crates/exec/src/asm.rs");
    }

    #[test]
    fn covered_frontends_are_clean_and_bounds_do_not_match() {
        let fe = file(
            "crates/exec/src/frontend.rs",
            "pub trait Frontend {}\nimpl Frontend for Executor<'_> {}\n\
             fn generic<F: Frontend>(f: F) {}", // bound, not an impl
        );
        let oracle = file("crates/oracle/src/diff.rs", "fn check(e: Executor<'_>) {}");
        let ws = Workspace {
            files: vec![fe, oracle],
        };
        let mut out = Vec::new();
        frontend_matrix(&ws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_frontend_impls_break_the_extraction() {
        let fe = file("crates/exec/src/frontend.rs", "pub trait Frontend {}");
        let ws = Workspace { files: vec![fe] };
        let mut out = Vec::new();
        frontend_matrix(&ws, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("extraction failed"), "{out:?}");
    }
}
