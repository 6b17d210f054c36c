//! Integration checks that pin the linter against the workspace it
//! lints.
//!
//! * The lexer must round-trip **every** `.rs` file in the repo
//!   byte-for-byte (totality: nothing is skipped or misparsed).
//! * Adversarial Rust surface — raw strings, byte strings, lifetimes
//!   vs char literals, nested generics, doc comments, `r#`-escaped
//!   identifiers — must lex and tree-parse.
//! * The workspace itself must lint clean against the checked-in
//!   allowlist: zero open findings, zero stale entries. Reverting
//!   any determinism/panic/conformance fix in this PR makes this
//!   test fail, exactly like the `verify.sh` gate.

use std::path::Path;

use tpc_lint::workspace::{all_rust_file_paths, find_root, Workspace};
use tpc_lint::{allowlist, lexer, rules, tree};

fn repo_root() -> std::path::PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

#[test]
fn lexer_round_trips_every_rust_file_in_the_workspace() {
    let root = repo_root();
    let paths = all_rust_file_paths(&root).expect("file walk");
    assert!(paths.len() > 60, "expected a real workspace, got {paths:?}");
    for path in paths {
        let src = std::fs::read_to_string(&path).expect("read");
        let toks =
            lexer::lex(&src).unwrap_or_else(|e| panic!("{}: lex failed: {e}", path.display()));
        let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, src, "{}: lossless round-trip", path.display());
        tree::parse(&toks).unwrap_or_else(|e| panic!("{}: tree parse: {e}", path.display()));
    }
}

#[test]
fn adversarial_rust_lexes_and_parses() {
    let src = r####"
//! Doc comment with `code` and "quotes".
/// Outer doc: /* not a comment opener */ and 'x'.
/** Block doc /* nested */ still one token. */
fn r#match<'a, T: Iterator<Item = Vec<Option<&'a str>>>>(r#type: &'a str) -> u8 {
    let raw = r#"raw "quoted" string"#;
    let deeper = r###"has "# inside"###;
    let bytes = b"\x00\"bytes";
    let raw_bytes = br#"raw "bytes""#;
    let ch = '\'';
    let nl = '\n';
    let lifetime_vs_char: &'static str = "ok";
    let nested: Vec<Vec<u8>> = vec![vec![1u8, 2, 3]];
    let shifted = 1u64 << 62 >> 1;
    let range = 1..=2;
    let float = 1.5e-3_f64;
    let not_float = 1..2;
    let _ = (raw, deeper, bytes, raw_bytes, ch, nl, lifetime_vs_char, nested);
    (shifted as u8).wrapping_add(range.end + not_float.end + float as u8)
}
"####;
    let toks = lexer::lex(src).expect("adversarial lex");
    let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
    assert_eq!(rebuilt, src);
    let forest = tree::parse(&toks).expect("adversarial parse");
    // The raw-ident function must be discoverable by name.
    assert_eq!(tree::fn_bodies(&forest, "r#match").len(), 1);
}

#[test]
fn workspace_lints_clean_against_the_checked_in_allowlist() {
    let root = repo_root();
    let ws = Workspace::load(&root).expect("workspace load");
    let findings = rules::run_all(&ws);
    let text = std::fs::read_to_string(root.join("lint_allow.txt")).expect("allowlist");
    let entries = allowlist::parse(&text).expect("allowlist parse");
    for e in &entries {
        assert!(
            !e.justification.trim().is_empty(),
            "allowlist entry at line {} has no justification",
            e.line
        );
    }
    let applied = allowlist::apply(findings, &entries);
    assert!(
        applied.open.is_empty(),
        "unallowlisted findings:\n{}",
        tpc_lint::report::render_human(&applied.open)
    );
    assert!(
        applied.stale.is_empty(),
        "stale allowlist entries: {:?}",
        applied
            .stale
            .iter()
            .map(|e| (e.rule.as_str(), e.file.as_str(), e.needle.as_str()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn rules_bite_on_a_seeded_regression() {
    // A miniature workspace with one of each violation the PR fixed:
    // the rules must flag all of them (the gate is not vacuous).
    use tpc_lint::workspace::SourceFile;
    let mk = |rel: &str, src: &str| SourceFile {
        rel: rel.into(),
        lines: src.lines().map(str::to_string).collect(),
        trees: tree::strip_cfg_test(tree::parse(&lexer::lex(src).unwrap()).unwrap()),
    };
    let ws = Workspace {
        files: vec![
            mk(
                "crates/experiments/src/coverage.rs",
                "use std::collections::HashSet;\nfn t() -> std::time::Instant { std::time::Instant::now() }",
            ),
            mk(
                "crates/experiments/src/checkpoint.rs",
                "fn parse(parts: &[&str]) { match parts[0] { _ => {} } }",
            ),
            mk(
                "crates/experiments/src/bin/fig5.rs",
                "//! Usage: fig5 [--seed N]\nfn main() {}",
            ),
        ],
    };
    let findings = rules::run_all(&ws);
    let rules_hit: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    for expected in [
        "det-hash-collection",
        "det-wall-clock",
        "panic-index",
        "conf-jobs-flag",
    ] {
        assert!(
            rules_hit.contains(&expected),
            "expected {expected} in {rules_hit:?}"
        );
    }
}
