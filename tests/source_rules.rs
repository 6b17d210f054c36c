//! Source rules that span files, which neither the type checker nor
//! clippy can express. Each reads the workspace's own source with
//! plain text search.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    let mut out = Vec::new();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    out
}

/// The production sources: `crates/*/src` and the root `src`.
fn production_files() -> Vec<PathBuf> {
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    crates.push(root().join("src"));
    crates.iter().flat_map(|src| rust_files(src)).collect()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// True when `word` occurs in `text` as a whole identifier.
fn mentions(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

/// Every experiment bin parses its flags through `RunParams::from_args`,
/// so each one accepts `--jobs` and the other shared flags.
#[test]
fn experiment_bins_parse_shared_flags() {
    let bins = rust_files(&root().join("crates/experiments/src/bin"));
    assert!(!bins.is_empty(), "no experiment bins found");
    for bin in bins {
        assert!(
            read(&bin).contains("RunParams::from_args"),
            "{} does not parse its flags with RunParams::from_args",
            bin.display()
        );
    }
}

/// Every `impl Frontend for <Type>` names a type that the
/// differential-oracle crate mentions: a frontend nobody cross-checks
/// against the golden model is an unverified retirement stream.
#[test]
fn every_frontend_is_checked_by_the_oracle() {
    let oracle: String = rust_files(&root().join("crates/oracle"))
        .iter()
        .map(|path| read(path))
        .collect();
    let mut frontends = Vec::new();
    for path in production_files() {
        for line in read(&path).lines() {
            if !line.trim_start().starts_with("impl") {
                continue;
            }
            const IMPL: &str = "Frontend for ";
            for (at, _) in line.match_indices(IMPL) {
                if line[..at].chars().next_back().is_some_and(is_ident_char) {
                    continue;
                }
                let rest = &line[at + IMPL.len()..];
                let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
                frontends.push((path.clone(), name));
            }
        }
    }
    assert!(
        !frontends.is_empty(),
        "no `impl Frontend for <Type>` found: the rule no longer matches the source"
    );
    for (path, name) in frontends {
        assert!(
            mentions(&oracle, &name),
            "frontend `{name}` ({}) is never named by crates/oracle",
            path.display()
        );
    }
}

/// No production format string prints a pointer value: addresses
/// change from run to run, and results must not.
#[test]
fn no_pointer_formatting() {
    for path in production_files() {
        assert!(
            !read(&path).contains(":p}"),
            "{} formats a pointer value",
            path.display()
        );
    }
}

/// Every production `pub struct` named `*Stats` or `*Counters` is
/// reachable from `SimStats::visit_words`: it is `SimStats` itself,
/// or it defines `visit_words` and is a field type of `SimStats`. A
/// counter struct outside the checkpoint words is bumped on the hot
/// path and read by nothing. `StaticStats` describes a program and
/// counts nothing.
#[test]
fn every_counter_struct_reaches_the_checkpoint_words() {
    const EXEMPT: &[&str] = &["StaticStats"];
    let sources: Vec<(PathBuf, String)> = production_files()
        .into_iter()
        .map(|path| {
            let text = read(&path);
            (path, text)
        })
        .collect();
    let sim_stats = sources
        .iter()
        .find_map(|(_, text)| {
            let at = text.find("pub struct SimStats {")?;
            text[at..].find("\n}").map(|end| &text[at..at + end])
        })
        .expect("`pub struct SimStats` not found");
    let mut checked = 0;
    for (path, text) in &sources {
        for (at, _) in text.match_indices("pub struct ") {
            let name: String = text[at + "pub struct ".len()..]
                .chars()
                .take_while(|&c| is_ident_char(c))
                .collect();
            let counts = name.ends_with("Stats") || name.ends_with("Counters");
            if !counts || name == "SimStats" || EXEMPT.contains(&name.as_str()) {
                continue;
            }
            checked += 1;
            let block = text.find(&format!("\nimpl {name} {{")).map(|at| {
                let end = text[at + 1..]
                    .find("\n}")
                    .map_or(text.len(), |e| at + 1 + e);
                &text[at..end]
            });
            assert!(
                block.is_some_and(|b| b.contains("pub fn visit_words(")),
                "`{name}` ({}) defines no `visit_words`: its counters reach no checkpoint word",
                path.display()
            );
            assert!(
                mentions(sim_stats, &name),
                "`{name}` ({}) is not a field type of `SimStats`",
                path.display()
            );
        }
    }
    assert!(
        checked > 0,
        "no counter struct found: the rule no longer matches the source"
    );
}
