//! Finding representation and report rendering.
//!
//! Findings render two ways: a human report grouped by file, and a
//! machine-readable JSON summary (`BENCH_lint.json`) with per-rule
//! counts. Both are byte-deterministic: findings are sorted by
//! (file, line, rule) before rendering, and the JSON writer emits
//! keys in a fixed order with minimal string escaping.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `det-hash-collection`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// What the rule objected to.
    pub msg: String,
    /// Trimmed text of the offending source line (allowlist needles
    /// match against this).
    pub excerpt: String,
}

/// Sorts findings into the canonical (file, line, rule) order every
/// renderer assumes.
pub fn sort(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

/// Renders the human report: one block per file, one line per
/// finding. Returns the empty string when there is nothing to say.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    let mut last_file = "";
    for f in findings {
        if f.file != last_file {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&f.file);
            out.push('\n');
            last_file = &f.file;
        }
        out.push_str(&format!(
            "  {}:{} [{}] {}\n      {}\n",
            f.file, f.line, f.rule, f.msg, f.excerpt
        ));
    }
    out
}

/// Escapes a string for embedding in a JSON document (quote,
/// backslash, control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `BENCH_lint.json`: per-rule open/allowlisted counts plus
/// the full finding list, deterministic byte-for-byte.
///
/// `rule_ids` fixes the rule ordering (every known rule appears even
/// at count zero, so diffs show rules coming and going).
pub fn render_json(
    rule_ids: &[&str],
    open: &[Finding],
    allowlisted: &[Finding],
    files_scanned: usize,
) -> String {
    let count = |fs: &[Finding], rule: &str| fs.iter().filter(|f| f.rule == rule).count();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tpc-lint-v1\",\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"open\": {},\n", open.len()));
    out.push_str(&format!("  \"allowlisted\": {},\n", allowlisted.len()));
    out.push_str("  \"rules\": {\n");
    for (i, rule) in rule_ids.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"open\": {}, \"allowlisted\": {}}}{}\n",
            rule,
            count(open, rule),
            count(allowlisted, rule),
            if i + 1 == rule_ids.len() { "" } else { "," }
        ));
    }
    out.push_str("  },\n  \"findings\": [\n");
    for (i, f) in open.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"msg\": \"{}\", \"excerpt\": \"{}\"}}{}\n",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.msg),
            json_escape(&f.excerpt),
            if i + 1 == open.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line,
            msg: "m".into(),
            excerpt: "e".into(),
        }
    }

    #[test]
    fn sort_orders_by_file_line_rule() {
        let mut v = vec![f("b", "z.rs", 1), f("a", "a.rs", 9), f("a", "a.rs", 2)];
        sort(&mut v);
        assert_eq!(
            v.iter()
                .map(|x| (x.file.as_str(), x.line))
                .collect::<Vec<_>>(),
            [("a.rs", 2), ("a.rs", 9), ("z.rs", 1)]
        );
    }

    #[test]
    fn human_report_groups_by_file() {
        let report = render_human(&[f("a", "x.rs", 1), f("a", "x.rs", 2), f("a", "y.rs", 3)]);
        assert_eq!(report.matches("x.rs\n").count(), 1);
        assert!(report.contains("y.rs\n"));
    }

    #[test]
    fn json_is_valid_and_counts_per_rule() {
        let open = vec![f("det-wall-clock", "x.rs", 1)];
        let allow = vec![f("det-wall-clock", "y.rs", 2), f("panic-path", "y.rs", 3)];
        let j = render_json(&["det-wall-clock", "panic-path"], &open, &allow, 42);
        assert!(j.contains("\"det-wall-clock\": {\"open\": 1, \"allowlisted\": 1}"));
        assert!(j.contains("\"panic-path\": {\"open\": 0, \"allowlisted\": 1}"));
        assert!(j.contains("\"files_scanned\": 42"));
        // Escaping: a quote in an excerpt must not break the JSON.
        let mut q = f("panic-path", "x.rs", 9);
        q.excerpt = "expect(\"msg\")".into();
        let j = render_json(&["panic-path"], &[q], &[], 1);
        assert!(j.contains("expect(\\\"msg\\\")"));
    }
}
