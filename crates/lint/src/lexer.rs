//! A minimal Rust lexer for *invariant scanning*.
//!
//! Like `pipette_obs::json`, this is a hand-rolled scanner, not a
//! real frontend: it splits Rust source into identifiers, punctuation,
//! literals, and comments, tracking line numbers, so the rule engine can
//! pattern-match token runs (`Instant :: now`, `. unwrap (`) without ever
//! being fooled by the same characters inside a string, char literal, or
//! comment. It is deliberately lossy — numeric values, string contents,
//! and multi-character operators are not needed by any rule — but it must
//! never *mis-classify*: a `"..."` that leaked tokens or a `//` that
//! swallowed code would produce phantom violations or, worse, silently
//! mask real ones.
//!
//! Handled: line and (nested) block comments, doc comments, string
//! literals with escapes, raw strings `r"…"`/`r#"…"#`, byte strings
//! `b"…"`/`br#"…"#`, char literals vs. lifetimes, raw identifiers
//! `r#match`, and numeric literals (including `1.0e-3` and `0xff`).

/// What a token is; contents are kept only where a rule can read them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (raw identifiers are unprefixed).
    Ident(String),
    /// A single punctuation character (`.`, `:`, `!`, `(`, `{`, …).
    Punct(char),
    /// A string/char/numeric literal; contents are irrelevant to rules.
    Literal,
    /// A lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
}

/// One token with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line number of the token's first character.
    pub line: u32,
    /// The token itself.
    pub kind: TokenKind,
}

/// A comment (line or block), with its text *after* the `//` or `/*`.
///
/// For a doc comment (`/// …`, `//! …`) the extra marker character is the
/// first character of `text`, which is exactly what keeps documentation
/// that *mentions* a pragma from ever being parsed as one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body, excluding the opening `//`/`/*` and closing `*/`.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order (rules read pragmas out of these).
    pub comments: Vec<Comment>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Splits `src` into tokens and comments. Never fails: unterminated
/// constructs simply run to end-of-file, which is the forgiving behavior
/// a linter wants on work-in-progress source.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        bytes: src.as_bytes(),
        src,
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(false),
                b'\'' => self.char_or_lifetime(),
                _ if b.is_ascii_digit() => self.number(),
                _ if is_ident_start(b) => self.ident_or_prefixed(),
                _ => {
                    // Multibyte UTF-8 only occurs inside strings/comments in
                    // this workspace; treat a stray lead byte as punctuation
                    // and let char_indices-free scanning continue safely.
                    self.push(TokenKind::Punct(char::from(b.min(0x7f))));
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind) {
        self.out.tokens.push(Token {
            line: self.line,
            kind,
        });
    }

    fn line_comment(&mut self) {
        let start_line = self.line;
        let text_start = self.pos + 2;
        let mut end = text_start;
        while end < self.bytes.len() && self.bytes[end] != b'\n' {
            end += 1;
        }
        self.out.comments.push(Comment {
            line: start_line,
            text: self.src[text_start..end].to_string(),
        });
        self.pos = end;
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let text_start = self.pos + 2;
        self.pos += 2;
        let mut depth = 1usize;
        let mut text_end = self.bytes.len();
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.pos += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    if depth == 0 {
                        text_end = self.pos;
                        self.pos += 2;
                        break;
                    }
                    self.pos += 2;
                }
                _ => self.pos += 1,
            }
        }
        self.out.comments.push(Comment {
            line: start_line,
            text: self.src[text_start..text_end.max(text_start)].to_string(),
        });
    }

    /// A plain (escaped) or raw (escape-free) double-quoted string; the
    /// opening `"` is at `self.pos`.
    fn string(&mut self, raw: bool) {
        let line = self.line;
        self.pos += 1;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'\\' if !raw => {
                    // Line continuations (`\` before a newline) and `\n`
                    // escapes both skip a byte; only the former crosses a
                    // real line boundary, which must still be counted.
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.pos += 2;
                }
                b'"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.out.tokens.push(Token {
            line,
            kind: TokenKind::Literal,
        });
    }

    /// A raw string whose `r` prefix has been consumed; `self.pos` is at
    /// the first `#` or `"`. Terminates on `"` followed by `hashes` `#`s.
    fn raw_string(&mut self) {
        let line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'"' => {
                    let closed = (1..=hashes).all(|k| self.peek(k) == Some(b'#'));
                    self.pos += 1;
                    if closed {
                        self.pos += hashes;
                        break;
                    }
                }
                _ => self.pos += 1,
            }
        }
        self.out.tokens.push(Token {
            line,
            kind: TokenKind::Literal,
        });
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime) at a leading `'`.
    fn char_or_lifetime(&mut self) {
        let next = self.peek(1);
        match next {
            // `'x` where `x` starts an identifier: a char literal only if a
            // closing quote immediately follows one ident char ('a'); any
            // longer identifier run ('static, 'outer) is a lifetime.
            Some(b) if is_ident_start(b) => {
                let mut j = self.pos + 2;
                while j < self.bytes.len() && is_ident_continue(self.bytes[j]) {
                    j += 1;
                }
                if j == self.pos + 2 && self.bytes.get(j) == Some(&b'\'') {
                    self.push(TokenKind::Literal);
                    self.pos = j + 1;
                } else {
                    self.push(TokenKind::Lifetime);
                    self.pos = j;
                }
            }
            // Escaped or non-identifier char literal: '\n', '\'', '(', …
            Some(_) => {
                let line = self.line;
                self.pos += 1;
                while self.pos < self.bytes.len() {
                    match self.bytes[self.pos] {
                        b'\\' => self.pos += 2,
                        b'\'' => {
                            self.pos += 1;
                            break;
                        }
                        b'\n' => break, // stray quote; bail out leniently
                        _ => self.pos += 1,
                    }
                }
                self.out.tokens.push(Token {
                    line,
                    kind: TokenKind::Literal,
                });
            }
            None => {
                self.push(TokenKind::Punct('\''));
                self.pos += 1;
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if is_ident_continue(b) {
                self.pos += 1;
                // `1e-3` / `0x…` exponents: a sign directly after e/E/p/P
                // belongs to the literal.
                if matches!(b, b'e' | b'E' | b'p' | b'P')
                    && matches!(self.peek(0), Some(b'+') | Some(b'-'))
                {
                    self.pos += 1;
                }
            } else if b == b'.' && self.peek(1).is_some_and(|n| n.is_ascii_digit()) {
                // `1.5`, but not `1..n` (range) or `1.max(2)` (method call).
                self.pos += 1;
            } else {
                break;
            }
        }
        self.out.tokens.push(Token {
            line,
            kind: TokenKind::Literal,
        });
    }

    /// An identifier, or a string with an `r`/`b`/`br` prefix, or a raw
    /// identifier `r#match`.
    fn ident_or_prefixed(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match (text, self.peek(0)) {
            ("r" | "b" | "br" | "rb", Some(b'"')) => {
                if text.starts_with('b') && !text.contains('r') {
                    self.string(false); // b"…" still has escapes
                } else {
                    self.raw_string();
                }
            }
            ("r" | "br" | "rb", Some(b'#')) => {
                // `r#"…"#` is a raw string; `r#match` is a raw identifier.
                let mut j = self.pos;
                while self.bytes.get(j) == Some(&b'#') {
                    j += 1;
                }
                if self.bytes.get(j) == Some(&b'"') {
                    self.raw_string();
                } else {
                    self.pos += 1; // skip `#`
                    let istart = self.pos;
                    while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
                        self.pos += 1;
                    }
                    let raw = self.src[istart..self.pos].to_string();
                    self.push(TokenKind::Ident(raw));
                }
            }
            _ => {
                let owned = text.to_string();
                self.push(TokenKind::Ident(owned));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn code_in_strings_and_comments_is_invisible() {
        let src = r##"
            // Instant::now() in a comment
            /* HashMap in /* a nested */ block */
            let a = "Instant::now()";
            let b = r#"thread_rng()"#;
            let c = b"SystemTime";
            let d = 'x';
            real_ident();
        "##;
        let ids = idents(src);
        assert_eq!(
            ids,
            vec!["let", "a", "let", "b", "let", "c", "let", "d", "real_ident"]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { let c = 'y'; x }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        assert!(idents(src).contains(&"c".to_string()));
    }

    #[test]
    fn comments_capture_text_and_doc_marker() {
        let lexed = lex("/// doc mention\n// pipette-lint: allow(D1) -- why\ncode();");
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].text, "/ doc mention");
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].text, " pipette-lint: allow(D1) -- why");
        assert_eq!(lexed.comments[1].line, 2);
        assert_eq!(lexed.tokens.last().map(|t| t.line), Some(3));
    }

    #[test]
    fn string_line_continuations_count_lines() {
        // A `\` before the newline joins the lines inside the literal but
        // still ends a real source line — tokens after the string must not
        // drift (this bit us on real code: waivers landed two lines off).
        let src = "let s = \"one \\\n    two\";\nafter();";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident("after".into()))
            .expect("after token");
        assert_eq!(after.line, 3);
    }

    #[test]
    fn numbers_with_exponents_and_ranges() {
        let src = "let x = 1.5e-3; for i in 0..10 { y(1.0); } let h = 0xff_u64;";
        let ids = idents(src);
        assert!(ids.contains(&"for".to_string()));
        assert!(!ids.contains(&"e".to_string()), "exponent leaked: {ids:?}");
        // `0..10` must not swallow the range dots.
        let dots = lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct('.'))
            .count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn raw_identifiers_are_unprefixed() {
        assert_eq!(
            idents("r#type r#match plain"),
            vec!["type", "match", "plain"]
        );
    }

    #[test]
    fn multiline_raw_string_tracks_lines() {
        let src = "a();\nlet s = r#\"line\nline\"#;\nb();";
        let lexed = lex(src);
        let b_line = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident("b".into()))
            .map(|t| t.line);
        assert_eq!(b_line, Some(4));
    }
}
