//! A hand-rolled, std-only Rust lexer: offline-safe, no `syn`, no
//! proc-macro machinery.
//!
//! The lexer is **lossless**: every byte of the input lands in
//! exactly one token (trivia — whitespace and comments — included),
//! so concatenating `Tok::text` in order reproduces the file
//! byte-for-byte. The workspace round-trip test leans on this to
//! prove the lexer understands every `.rs` file in the repo.
//!
//! Handled Rust surface the rules depend on:
//!
//! * raw strings `r"…"` / `r#"…"#` (any hash depth), byte strings
//!   `b"…"`, raw byte strings `br#"…"#`, C strings `c"…"` / `cr#"…"#`;
//! * lifetimes (`'a`, `'static`) vs char literals (`'a'`, `'\n'`);
//! * `r#`-escaped identifiers (`r#type`);
//! * nested block comments and doc comments;
//! * numeric literals with underscores, radix prefixes, exponents and
//!   type suffixes, without eating `..` out of `1..2`;
//! * multi-character punctuation (`::`, `->`, `=>`, `..=`, `<<=`, …)
//!   joined into single tokens so rule patterns stay simple.

/// What kind of token a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Whitespace run (trivia).
    Ws,
    /// `// …` comment, including `///` and `//!` doc comments.
    LineComment,
    /// `/* … */` comment (nesting handled), including `/** … */`.
    BlockComment,
    /// Identifier or keyword, including raw `r#ident` forms.
    Ident,
    /// A lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// Character literal `'x'`, escapes included.
    Char,
    /// Byte literal `b'x'`.
    Byte,
    /// String literal `"…"` (escapes kept raw).
    Str,
    /// Raw string literal `r"…"` / `r#"…"#`.
    RawStr,
    /// Byte-string literal `b"…"`.
    ByteStr,
    /// Raw byte-string literal `br"…"` / `br#"…"#`.
    RawByteStr,
    /// C-string literal `c"…"` / raw `cr#"…"#`.
    CStr,
    /// Numeric literal (integer or float, suffix included).
    Num,
    /// Punctuation, multi-character operators joined (`::`, `=>`, …).
    Punct,
}

/// One lexed token: its kind, raw source text, and 1-based start
/// line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Raw source text, byte-for-byte.
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

impl Tok {
    /// True for whitespace and comments.
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
        )
    }
}

/// Multi-character punctuation, longest first so greedy matching is
/// correct.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Lexes `src` into a lossless token stream.
///
/// # Errors
///
/// A human-readable message naming the line of the first unterminated
/// string, char, or block comment. Anything the lexer cannot classify
/// is an error, never silently skipped — the round-trip test depends
/// on totality.
pub fn lex(src: &str) -> Result<Vec<Tok>, String> {
    Lexer {
        bytes: src.as_bytes(),
        src,
        at: 0,
        line: 1,
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    src: &'a str,
    at: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Result<Vec<Tok>, String> {
        let mut toks = Vec::new();
        while self.at < self.bytes.len() {
            let start = self.at;
            let line = self.line;
            let kind = self.next_kind()?;
            let text = self.src[start..self.at].to_string();
            self.line += text.bytes().filter(|&b| b == b'\n').count() as u32;
            toks.push(Tok { kind, text, line });
        }
        Ok(toks)
    }

    fn peek(&self, ahead: usize) -> u8 {
        self.bytes.get(self.at + ahead).copied().unwrap_or(0)
    }

    fn err(&self, what: &str) -> String {
        format!("line {}: {what}", self.line)
    }

    fn next_kind(&mut self) -> Result<TokKind, String> {
        let b = self.peek(0);
        if b.is_ascii_whitespace() {
            while self.peek(0).is_ascii_whitespace() {
                self.at += 1;
            }
            return Ok(TokKind::Ws);
        }
        if b == b'/' && self.peek(1) == b'/' {
            while self.at < self.bytes.len() && self.peek(0) != b'\n' {
                self.at += 1;
            }
            return Ok(TokKind::LineComment);
        }
        if b == b'/' && self.peek(1) == b'*' {
            return self.block_comment();
        }
        // String-ish prefixes must run before the generic ident path.
        match (b, self.peek(1), self.peek(2)) {
            (b'r', b'"', _) | (b'r', b'#', _) if self.raw_string_ahead(1) => {
                self.at += 1;
                return self.raw_string().map(|()| TokKind::RawStr);
            }
            (b'b', b'r', b'"') | (b'b', b'r', b'#') if self.raw_string_ahead(2) => {
                self.at += 2;
                return self.raw_string().map(|()| TokKind::RawByteStr);
            }
            (b'c', b'r', b'"') | (b'c', b'r', b'#') if self.raw_string_ahead(2) => {
                self.at += 2;
                return self.raw_string().map(|()| TokKind::CStr);
            }
            (b'b', b'"', _) => {
                self.at += 1;
                return self.quoted_string().map(|()| TokKind::ByteStr);
            }
            (b'c', b'"', _) => {
                self.at += 1;
                return self.quoted_string().map(|()| TokKind::CStr);
            }
            (b'b', b'\'', _) => {
                self.at += 1;
                return self.char_literal().map(|()| TokKind::Byte);
            }
            _ => {}
        }
        if b == b'"' {
            return self.quoted_string().map(|()| TokKind::Str);
        }
        if b == b'\'' {
            return self.lifetime_or_char();
        }
        if b == b'r' && self.peek(1) == b'#' && is_ident_start(self.peek(2)) {
            // Raw identifier r#type.
            self.at += 2;
            while is_ident_continue(self.peek(0)) {
                self.at += 1;
            }
            return Ok(TokKind::Ident);
        }
        if is_ident_start(b) {
            while is_ident_continue(self.peek(0)) {
                self.at += 1;
            }
            return Ok(TokKind::Ident);
        }
        if b.is_ascii_digit() {
            return self.number();
        }
        // Multi-byte UTF-8 outside strings/comments would be a
        // non-ASCII identifier; the workspace has none, but accept a
        // single scalar as an Ident to stay total.
        if b >= 0x80 {
            let ch = self.src[self.at..].chars().next().ok_or("utf8")?;
            self.at += ch.len_utf8();
            return Ok(TokKind::Ident);
        }
        for p in PUNCTS {
            if self.bytes[self.at..].starts_with(p.as_bytes()) {
                self.at += p.len();
                return Ok(TokKind::Punct);
            }
        }
        self.at += 1;
        Ok(TokKind::Punct)
    }

    fn block_comment(&mut self) -> Result<TokKind, String> {
        let mut depth = 0usize;
        while self.at < self.bytes.len() {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.at += 2;
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.at += 2;
                if depth == 0 {
                    return Ok(TokKind::BlockComment);
                }
            } else {
                self.at += 1;
            }
        }
        Err(self.err("unterminated block comment"))
    }

    /// Whether, starting `ahead` bytes in (just past an `r`/`br`/`cr`
    /// prefix), zero or more `#` then a `"` follow — i.e. a raw
    /// string rather than a raw identifier.
    fn raw_string_ahead(&self, ahead: usize) -> bool {
        let mut i = ahead;
        while self.peek(i) == b'#' {
            i += 1;
        }
        self.peek(i) == b'"'
    }

    /// Consumes `#…#"…"#…#` with the cursor on the first `#` or `"`.
    fn raw_string(&mut self) -> Result<(), String> {
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.at += 1;
        }
        if self.peek(0) != b'"' {
            return Err(self.err("malformed raw string"));
        }
        self.at += 1;
        while self.at < self.bytes.len() {
            if self.peek(0) == b'"' {
                let mut close = 0usize;
                while close < hashes && self.peek(1 + close) == b'#' {
                    close += 1;
                }
                if close == hashes {
                    self.at += 1 + hashes;
                    return Ok(());
                }
            }
            self.at += 1;
        }
        Err(self.err("unterminated raw string"))
    }

    /// Consumes `"…"` with escapes, cursor on the opening quote.
    fn quoted_string(&mut self) -> Result<(), String> {
        self.at += 1;
        while self.at < self.bytes.len() {
            match self.peek(0) {
                b'"' => {
                    self.at += 1;
                    return Ok(());
                }
                b'\\' => self.at += 2,
                _ => self.at += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    /// Consumes `'…'` with escapes, cursor on the opening quote.
    fn char_literal(&mut self) -> Result<(), String> {
        self.at += 1;
        loop {
            match self.peek(0) {
                0 => return Err(self.err("unterminated char literal")),
                b'\'' => {
                    self.at += 1;
                    return Ok(());
                }
                b'\\' => self.at += 2,
                _ => {
                    let ch = self.src[self.at..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("utf8"))?;
                    self.at += ch.len_utf8();
                }
            }
        }
    }

    /// `'a` vs `'a'`: a lifetime is a quote plus an identifier *not*
    /// closed by another quote.
    fn lifetime_or_char(&mut self) -> Result<TokKind, String> {
        if is_ident_start(self.peek(1)) {
            let mut i = 2;
            while is_ident_continue(self.peek(i)) {
                i += 1;
            }
            if self.peek(i) != b'\'' {
                self.at += i;
                return Ok(TokKind::Lifetime);
            }
        }
        self.char_literal().map(|()| TokKind::Char)
    }

    fn number(&mut self) -> Result<TokKind, String> {
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            self.at += 2;
            while matches!(self.peek(0), b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F' | b'_') {
                self.at += 1;
            }
        } else {
            while matches!(self.peek(0), b'0'..=b'9' | b'_') {
                self.at += 1;
            }
            // A fractional part only if the dot is followed by a
            // digit — `1..2` and `1.max(2)` keep their dots.
            if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
                self.at += 1;
                while matches!(self.peek(0), b'0'..=b'9' | b'_') {
                    self.at += 1;
                }
            }
            // Exponent.
            if matches!(self.peek(0), b'e' | b'E') {
                let sign = usize::from(matches!(self.peek(1), b'+' | b'-'));
                if self.peek(1 + sign).is_ascii_digit() {
                    self.at += 1 + sign;
                    while matches!(self.peek(0), b'0'..=b'9' | b'_') {
                        self.at += 1;
                    }
                }
            }
        }
        // Type suffix (u64, f32, usize, …).
        while is_ident_continue(self.peek(0)) {
            self.at += 1;
        }
        Ok(TokKind::Num)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .unwrap()
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn round_trip_is_lossless() {
        let src = "fn main() { let s = \"x\\\"y\"; /* a /* b */ c */ }\n";
        let toks = lex(src).unwrap();
        let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let v = kinds("<'a, 'static> 'x' '\\n' b'q'");
        assert_eq!(v[1].0, TokKind::Lifetime);
        assert_eq!(v[3].0, TokKind::Lifetime);
        assert_eq!(v[5].0, TokKind::Char);
        assert_eq!(v[6].0, TokKind::Char);
        assert_eq!(v[7].0, TokKind::Byte);
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let v = kinds("r#type r\"a\" r#\"b\"c\"# br#\"d\"# b\"e\" c\"f\"");
        assert_eq!(v[0], (TokKind::Ident, "r#type".into()));
        assert_eq!(v[1], (TokKind::RawStr, "r\"a\"".into()));
        assert_eq!(v[2], (TokKind::RawStr, "r#\"b\"c\"#".into()));
        assert_eq!(v[3], (TokKind::RawByteStr, "br#\"d\"#".into()));
        assert_eq!(v[4], (TokKind::ByteStr, "b\"e\"".into()));
        assert_eq!(v[5], (TokKind::CStr, "c\"f\"".into()));
    }

    #[test]
    fn numbers_and_ranges() {
        let v = kinds("1..2 1.5e-3 0xFF_u8 10usize 1_000");
        assert_eq!(v[0], (TokKind::Num, "1".into()));
        assert_eq!(v[1], (TokKind::Punct, "..".into()));
        assert_eq!(v[2], (TokKind::Num, "2".into()));
        assert_eq!(v[3], (TokKind::Num, "1.5e-3".into()));
        assert_eq!(v[4], (TokKind::Num, "0xFF_u8".into()));
        assert_eq!(v[5], (TokKind::Num, "10usize".into()));
        assert_eq!(v[6], (TokKind::Num, "1_000".into()));
    }

    #[test]
    fn punct_joining() {
        let v = kinds("a::b -> c => d ..= e <<= f");
        let puncts: Vec<&str> = v
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, ["::", "->", "=>", "..=", "<<="]);
    }

    #[test]
    fn unterminated_inputs_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
        assert!(lex("r#\"abc\"").is_err());
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n  c").unwrap();
        let lines: Vec<(String, u32)> = toks
            .iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.text.clone(), t.line))
            .collect();
        assert_eq!(lines, [("a".into(), 1), ("b".into(), 2), ("c".into(), 3)]);
    }
}
