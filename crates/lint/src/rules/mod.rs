//! The rule engine: runs every pass over a loaded [`Workspace`] and
//! returns the combined finding list in canonical order.
//!
//! Rules come in two shapes:
//!
//! * **per-file passes** (determinism, panic hygiene, hot-path
//!   arithmetic) that scan token trees of one file at a time, scoped
//!   by path; and
//! * **cross-file conformance passes** that extract facts from
//!   several files (fault-plan coverage, CLI flags, frontend impls)
//!   and compare them.

pub mod arith;
pub mod conformance;
pub mod determinism;
pub mod panics;

use crate::report::{self, Finding};
use crate::tree::Tree;
use crate::workspace::{SourceFile, Workspace};

/// Every rule id, in report order. `BENCH_lint.json` lists each one
/// even at zero findings.
pub const RULE_IDS: &[&str] = &[
    "det-hash-collection",
    "det-wall-clock",
    "det-ambient-id",
    "panic-path",
    "panic-index",
    "hot-arith",
    "conf-faultkind",
    "conf-jobs-flag",
    "conf-frontend-matrix",
];

/// Runs all rules over the workspace; findings come back sorted by
/// (file, line, rule).
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        determinism::check(file, &mut findings);
        panics::check(file, &mut findings);
        arith::check(file, &mut findings);
    }
    conformance::check(ws, &mut findings);
    report::sort(&mut findings);
    findings
}

/// Calls `f` on every token sequence in the forest: the top level
/// and the children of every group, recursively. Window-pattern
/// rules scan each sequence with sibling context intact.
pub fn for_each_seq<'t>(trees: &'t [Tree], f: &mut dyn FnMut(&'t [Tree])) {
    f(trees);
    for t in trees {
        if let Tree::Group { children, .. } = t {
            for_each_seq(children, f);
        }
    }
}

/// Convenience constructor: a finding at `line` of `file`, with the
/// source line as the excerpt.
pub fn finding(rule: &'static str, file: &SourceFile, line: u32, msg: String) -> Finding {
    Finding {
        rule,
        file: file.rel.clone(),
        line,
        msg,
        excerpt: file.line_text(line).to_string(),
    }
}
