//! A span-carrying Rust lexer sized for linting.
//!
//! Produces the full token stream of a source file with byte offsets and
//! 1-based line/column positions, so passes can match token *sequences*
//! (a banned call split across lines, a path like `Instant::now`) and
//! report findings at exact positions. The lexer is lossless about the
//! constructs that defeat a per-line scanner:
//!
//! - nested block comments (`/* outer /* inner */ still comment */`),
//! - raw strings with any hash depth (`r#"…"#`, `br##"…"##`), which may
//!   span lines and contain `"` freely,
//! - plain strings spanning lines (trailing `\` continuation or plain
//!   multi-line literals),
//! - char and byte literals (`'a'`, `b'\n'`) versus lifetimes (`'a`),
//! - raw identifiers (`r#type`).
//!
//! It is tolerant: unterminated literals or comments consume to end of
//! input instead of failing, so the engine can still lint the rest of a
//! broken file.
//!
//! Positions are carried as [`cm_span::Span`]s — the shared byte/line/col
//! span type also used by `cm-json`'s spanned parser and `cm-check`'s
//! spec diagnostics.

use cm_span::Span;

/// Token classes the passes care about. Comments are kept in the stream
/// (the waiver pragmas live there); passes that match code skip them via
/// [`TokKind::is_comment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `unsafe`, `unwrap`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`) — distinct from char literals.
    Lifetime,
    /// Numeric literal, including suffixes (`1_000u64`, `2.5e-3`).
    Num,
    /// String literal of any flavor: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// Char or byte literal: `'a'`, `b'\0'`.
    Char,
    /// `// …` comment (doc comments included).
    LineComment,
    /// `/* … */` comment, nesting handled, may span lines.
    BlockComment,
    /// Any single other character: `.`, `:`, `!`, `(`, `{`, `<`, …
    Punct,
}

impl TokKind {
    /// True for the two comment kinds.
    pub fn is_comment(self) -> bool {
        matches!(self, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// One token with its lexeme and position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// The exact source text of the token (quotes and hashes included).
    pub text: String,
    /// Source region: byte range plus 1-based line/column of the first
    /// character.
    pub span: Span,
}

impl Tok {
    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True when this token is an identifier with exactly this text
    /// (raw-identifier prefix `r#` stripped before comparing).
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.ident_text() == name
    }

    /// Identifier text with any `r#` raw prefix stripped.
    pub fn ident_text(&self) -> &str {
        self.text.strip_prefix("r#").unwrap_or(&self.text)
    }

    /// 1-based line of the token's first character.
    pub fn line(&self) -> u32 {
        self.span.line
    }

    /// 1-based column (in characters) of the token's first character.
    pub fn col(&self) -> u32 {
        self.span.col
    }
}

/// Character-indexed cursor over the source with line/column tracking.
struct Lexer<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, chars: src.char_indices().collect(), i: 0, line: 1, col: 1 }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).map(|&(_, c)| c)
    }

    fn byte_at(&self, idx: usize) -> usize {
        self.chars.get(idx).map_or(self.src.len(), |&(b, _)| b)
    }

    /// Consumes one character, updating line/column.
    fn bump(&mut self) {
        if let Some(&(_, c)) = self.chars.get(self.i) {
            self.i += 1;
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consumes a `//` comment up to (not including) the newline.
    fn line_comment(&mut self) {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
    }

    /// Consumes a `/* … */` comment with nesting; tolerant of EOF.
    fn block_comment(&mut self) {
        self.bump_n(2); // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
    }

    /// Consumes a plain (non-raw) string or byte-string body. The cursor
    /// sits on the opening `"`. Escapes skip the next character, which
    /// also handles `\"` and trailing-backslash line continuations.
    fn quoted_string(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => self.bump_n(2),
                '"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Consumes a raw (byte) string. The cursor sits on the first `#` or
    /// the opening `"`; `hashes` is the number of `#` before the quote.
    fn raw_string(&mut self, hashes: usize) {
        self.bump_n(hashes + 1); // hashes + opening quote
        while let Some(c) = self.peek(0) {
            if c == '"' {
                let closed = (1..=hashes).all(|k| self.peek(k) == Some('#'));
                if closed {
                    self.bump_n(hashes + 1);
                    return;
                }
            }
            self.bump();
        }
    }

    /// Consumes a char/byte literal body. The cursor sits on the opening
    /// `'`.
    fn char_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => self.bump_n(2),
                '\'' => {
                    self.bump();
                    return;
                }
                '\n' => return, // stray quote: do not eat the next line
                _ => self.bump(),
            }
        }
    }

    fn ident(&mut self) {
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                self.bump();
            } else {
                break;
            }
        }
    }

    /// Consumes a numeric literal: integer/float bodies with suffixes and
    /// signed exponents. `1.max(2)` and `0..n` keep their dots.
    fn number(&mut self) {
        self.digits_and_suffix();
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump(); // the dot
            self.digits_and_suffix();
        }
    }

    fn digits_and_suffix(&mut self) {
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                let exp_sign = (c == 'e' || c == 'E')
                    && matches!(self.peek(1), Some('+') | Some('-'))
                    && self.peek(2).is_some_and(|d| d.is_ascii_digit());
                self.bump();
                if exp_sign {
                    self.bump(); // the sign
                }
            } else {
                break;
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// How many `#` characters follow position `ahead`, and whether a `"`
/// follows them (i.e. this is a raw-string opener).
fn raw_opener(lx: &Lexer<'_>, ahead: usize) -> Option<usize> {
    let mut h = 0usize;
    while lx.peek(ahead + h) == Some('#') {
        h += 1;
    }
    (lx.peek(ahead + h) == Some('"')).then_some(h)
}

/// Lexes `source` into its full token stream (whitespace dropped,
/// comments kept).
pub fn lex(source: &str) -> Vec<Tok> {
    let mut lx = Lexer::new(source);
    let mut toks = Vec::new();
    while let Some(c) = lx.peek(0) {
        if c.is_whitespace() {
            lx.bump();
            continue;
        }
        let (line, col, start) = (lx.line, lx.col, lx.byte_at(lx.i));
        let kind = match c {
            '/' if lx.peek(1) == Some('/') => {
                lx.line_comment();
                TokKind::LineComment
            }
            '/' if lx.peek(1) == Some('*') => {
                lx.block_comment();
                TokKind::BlockComment
            }
            '"' => {
                lx.quoted_string();
                TokKind::Str
            }
            'r' if raw_opener(&lx, 1).is_some() => {
                // lx sits on `r`; raw_string expects hashes + quote next.
                let h = raw_opener(&lx, 1).unwrap_or(0);
                lx.bump(); // the `r`
                lx.raw_string(h);
                TokKind::Str
            }
            'r' if lx.peek(1) == Some('#') && lx.peek(2).is_some_and(is_ident_start) => {
                lx.bump_n(2); // raw identifier `r#name`
                lx.ident();
                TokKind::Ident
            }
            'b' if lx.peek(1) == Some('"') => {
                lx.bump(); // the `b`
                lx.quoted_string();
                TokKind::Str
            }
            'b' if lx.peek(1) == Some('\'') => {
                lx.bump(); // the `b`
                lx.char_literal();
                TokKind::Char
            }
            'b' if lx.peek(1) == Some('r') && raw_opener(&lx, 2).is_some() => {
                let h = raw_opener(&lx, 2).unwrap_or(0);
                lx.bump_n(2); // `br`
                lx.raw_string(h);
                TokKind::Str
            }
            '\'' => {
                // Lifetime vs char literal. `'\…'` and `'x'` are chars;
                // `'name` (no nearby closing quote) is a lifetime.
                if lx.peek(1) == Some('\\')
                    || (lx.peek(2) == Some('\'') && lx.peek(1) != Some('\''))
                {
                    lx.char_literal();
                    TokKind::Char
                } else if lx.peek(1).is_some_and(is_ident_start) {
                    lx.bump(); // the quote
                    lx.ident();
                    TokKind::Lifetime
                } else {
                    lx.bump();
                    TokKind::Punct
                }
            }
            c if is_ident_start(c) => {
                lx.ident();
                TokKind::Ident
            }
            c if c.is_ascii_digit() => {
                lx.number();
                TokKind::Num
            }
            _ => {
                lx.bump();
                TokKind::Punct
            }
        };
        let end = lx.byte_at(lx.i);
        toks.push(Tok {
            kind,
            text: source[start..end].to_owned(),
            span: Span::new(start, end, line, col),
        });
    }
    toks
}
