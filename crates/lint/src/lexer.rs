//! A small, total lexer for Rust source text.
//!
//! The analyzer only needs token *boundaries* — where strings,
//! comments, identifiers, and punctuation start and end — so this is a
//! scanner, not a parser. It is **total**: any input (including
//! unterminated literals) produces a token stream, and concatenating
//! the token slices always reproduces the source byte-for-byte. That
//! round-trip property is what the mb-check suite pins.
//!
//! Handled precisely because rule matching depends on them:
//! - line comments and **nested** block comments;
//! - string literals with escapes, byte strings (`b"…"`), C strings
//!   (`c"…"`), and raw (byte) strings with any number of `#`s;
//! - char literals vs. lifetimes (`'a'` vs. `'a`), including escaped
//!   chars (`'\''`) and `'_`;
//! - raw identifiers (`r#match`);
//! - numbers with type suffixes, radix prefixes, and exponents.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace.
    Whitespace,
    /// `// …` up to (not including) the newline.
    LineComment,
    /// `/* … */`, nesting respected; unterminated runs to EOF.
    BlockComment,
    /// An identifier, keyword, or raw identifier.
    Ident,
    /// A lifetime such as `'a` or `'_`.
    Lifetime,
    /// A char literal such as `'x'` or `'\n'`.
    Char,
    /// A `"…"`, `b"…"`, or `c"…"` literal (escapes honoured).
    Str,
    /// A raw string literal `r"…"`, `r#"…"#`, `br#"…"#`, `cr"…"`.
    RawStr,
    /// A numeric literal.
    Number,
    /// A single punctuation character.
    Punct,
}

/// One lexed token: a kind plus the byte span `[start, end)` in the
/// source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    /// The source slice this token covers.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Character cursor over the source with byte positions.
struct Cursor<'s> {
    src: &'s str,
    /// `(byte offset, char)` for every char, in order.
    chars: Vec<(usize, char)>,
    /// Index into `chars`.
    i: usize,
}

impl<'s> Cursor<'s> {
    fn new(src: &'s str) -> Self {
        Cursor { src, chars: src.char_indices().collect(), i: 0 }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        Some(c)
    }

    /// Byte offset of the next char (or EOF).
    fn pos(&self) -> usize {
        self.chars.get(self.i).map_or(self.src.len(), |&(b, _)| b)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) {
        while self.peek(0).is_some_and(&pred) {
            self.i += 1;
        }
    }
}

/// Lex `src` into a complete, gap-free token stream.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while cur.peek(0).is_some() {
        let start = cur.pos();
        let kind = next_kind(&mut cur);
        out.push(Token { kind, start, end: cur.pos() });
    }
    out
}

fn next_kind(cur: &mut Cursor<'_>) -> TokenKind {
    let Some(c) = cur.bump() else { return TokenKind::Whitespace };
    match c {
        c if c.is_whitespace() => {
            cur.eat_while(char::is_whitespace);
            TokenKind::Whitespace
        }
        '/' if cur.peek(0) == Some('/') => {
            cur.eat_while(|c| c != '\n');
            TokenKind::LineComment
        }
        '/' if cur.peek(0) == Some('*') => {
            cur.bump();
            block_comment(cur);
            TokenKind::BlockComment
        }
        '"' => {
            string_body(cur);
            TokenKind::Str
        }
        '\'' => char_or_lifetime(cur),
        c if c.is_ascii_digit() => {
            number_body(cur);
            TokenKind::Number
        }
        c if is_ident_start(c) => ident_or_prefixed_string(cur, c),
        _ => TokenKind::Punct,
    }
}

/// Scan a (possibly nested) block comment; the leading `/*` is consumed.
fn block_comment(cur: &mut Cursor<'_>) {
    let mut depth = 1usize;
    while depth > 0 {
        match cur.bump() {
            None => return, // unterminated: runs to EOF
            Some('/') if cur.peek(0) == Some('*') => {
                cur.bump();
                depth += 1;
            }
            Some('*') if cur.peek(0) == Some('/') => {
                cur.bump();
                depth -= 1;
            }
            Some(_) => {}
        }
    }
}

/// Scan a string body after the opening `"`, honouring `\` escapes.
fn string_body(cur: &mut Cursor<'_>) {
    loop {
        match cur.bump() {
            None | Some('"') => return,
            Some('\\') => {
                cur.bump(); // the escaped char, whatever it is
            }
            Some(_) => {}
        }
    }
}

/// Scan a raw string after its `r#*"` opener; `hashes` is the number of
/// `#`s. Ends at `"` followed by `hashes` `#`s (or EOF).
fn raw_string_body(cur: &mut Cursor<'_>, hashes: usize) {
    loop {
        match cur.bump() {
            None => return,
            Some('"') => {
                if (0..hashes).all(|k| cur.peek(k) == Some('#')) {
                    for _ in 0..hashes {
                        cur.bump();
                    }
                    return;
                }
            }
            Some(_) => {}
        }
    }
}

/// Disambiguate `'a'` / `'\n'` / `' '` (char) from `'a` / `'_` (lifetime).
/// The leading `'` is consumed.
fn char_or_lifetime(cur: &mut Cursor<'_>) -> TokenKind {
    match cur.peek(0) {
        // `'\…'`: always a char literal.
        Some('\\') => {
            cur.bump();
            cur.bump(); // escaped char
            cur.eat_while(|c| c != '\''); // `\u{…}` and friends
            cur.bump(); // closing quote
            TokenKind::Char
        }
        // `'x…`: char literal iff the very next char closes it.
        Some(c) if is_ident_start(c) || c.is_ascii_digit() => {
            if cur.peek(1) == Some('\'') {
                cur.bump();
                cur.bump();
                TokenKind::Char
            } else {
                cur.eat_while(is_ident_continue);
                TokenKind::Lifetime
            }
        }
        // `'(`, `' '`, `'"` …: a char literal of one punctuation char.
        Some(_) => {
            cur.bump();
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
            TokenKind::Char
        }
        None => TokenKind::Punct, // lone trailing quote
    }
}

/// Scan a number after its first digit: radix prefixes, `_` separators,
/// suffixes, decimal point, and signed exponents.
fn number_body(cur: &mut Cursor<'_>) {
    cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
    exponent_sign(cur);
    // A fractional part only if `.` is followed by a digit — leaves
    // `0..10` and `x.0.to_string()` alone.
    if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
        cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
        exponent_sign(cur);
    }
}

/// Consume a `+`/`-` exponent sign if the scan stopped right after `e`/`E`
/// with digits following (`1e-3`, `2.5E+10`).
fn exponent_sign(cur: &mut Cursor<'_>) {
    let prev = cur.i.checked_sub(1).and_then(|j| cur.chars.get(j)).map(|&(_, c)| c);
    if matches!(prev, Some('e' | 'E'))
        && matches!(cur.peek(0), Some('+' | '-'))
        && cur.peek(1).is_some_and(|c| c.is_ascii_digit())
    {
        cur.bump();
        cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
    }
}

/// Scan an identifier that may turn out to be a (raw) string prefix or
/// a raw identifier. `first` is the already-consumed first char.
fn ident_or_prefixed_string(cur: &mut Cursor<'_>, first: char) -> TokenKind {
    // Collect the rest of the identifier run.
    let ident_start = cur.i - 1;
    cur.eat_while(is_ident_continue);
    let ident: String = cur.chars[ident_start..cur.i].iter().map(|&(_, c)| c).collect();
    debug_assert!(ident.starts_with(first));
    match (ident.as_str(), cur.peek(0)) {
        // Plain-string prefixes: escapes behave like `"…"`.
        ("b" | "c", Some('"')) => {
            cur.bump();
            string_body(cur);
            TokenKind::Str
        }
        // Raw-string prefixes with zero hashes.
        ("r" | "br" | "cr", Some('"')) => {
            cur.bump();
            raw_string_body(cur, 0);
            TokenKind::RawStr
        }
        // Raw-string prefixes with `#`s — or, for `r#ident`, a raw
        // identifier.
        ("r" | "br" | "cr", Some('#')) => {
            let mut hashes = 0usize;
            while cur.peek(hashes) == Some('#') {
                hashes += 1;
            }
            match cur.peek(hashes) {
                Some('"') => {
                    for _ in 0..=hashes {
                        cur.bump(); // the `#`s and the opening quote
                    }
                    raw_string_body(cur, hashes);
                    TokenKind::RawStr
                }
                // `r#match`: raw identifier (only the `r` prefix forms one).
                Some(c) if ident == "r" && hashes == 1 && is_ident_start(c) => {
                    cur.bump(); // the `#`
                    cur.eat_while(is_ident_continue);
                    TokenKind::Ident
                }
                _ => TokenKind::Ident,
            }
        }
        _ => TokenKind::Ident,
    }
}

/// Byte-offset → 1-based `(line, column)` mapping for one file.
#[derive(Debug)]
pub struct LineMap {
    line_starts: Vec<usize>,
}

impl LineMap {
    /// Index `src`'s line starts.
    pub fn new(src: &str) -> Self {
        let mut line_starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        LineMap { line_starts }
    }

    /// 1-based line number containing byte `offset`.
    pub fn line(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    /// 1-based `(line, column)`; the column counts chars, so it matches
    /// what editors display.
    pub(crate) fn line_col(&self, src: &str, offset: usize) -> (usize, usize) {
        let line = self.line(offset);
        let start = self.line_starts.get(line - 1).copied().unwrap_or(0);
        let col = src.get(start..offset).map_or(1, |s| s.chars().count() + 1);
        (line, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> Vec<Token> {
        let toks = lex(src);
        let rebuilt: String = toks.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src, "lexer round-trip failed");
        toks
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        roundtrip(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn nested_block_comment_is_one_token() {
        assert_eq!(kinds("/* a /* b */ c */ x"), vec![TokenKind::BlockComment, TokenKind::Ident]);
    }

    #[test]
    fn raw_string_swallows_quotes_and_hashes() {
        assert_eq!(
            kinds(r###"let s = r#"a "quoted" /*no comment*/ b"#;"###),
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Punct,
                TokenKind::RawStr,
                TokenKind::Punct
            ]
        );
    }

    #[test]
    fn char_vs_lifetime() {
        assert_eq!(kinds("'a'"), vec![TokenKind::Char]);
        assert_eq!(kinds("'a"), vec![TokenKind::Lifetime]);
        assert_eq!(
            kinds("&'static str"),
            vec![TokenKind::Punct, TokenKind::Lifetime, TokenKind::Ident]
        );
        assert_eq!(kinds(r"'\''"), vec![TokenKind::Char]);
        assert_eq!(kinds(r"'\u{1F600}'"), vec![TokenKind::Char]);
        assert_eq!(kinds("' '"), vec![TokenKind::Char]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let x = "no // comment /* here */ unwrap()";"#);
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Punct,
                TokenKind::Str,
                TokenKind::Punct
            ]
        );
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_method_calls() {
        assert_eq!(
            kinds("0..10"),
            vec![TokenKind::Number, TokenKind::Punct, TokenKind::Punct, TokenKind::Number]
        );
        assert_eq!(kinds("1.5e-3"), vec![TokenKind::Number]);
        assert_eq!(kinds("0x1F_u32"), vec![TokenKind::Number]);
    }

    #[test]
    fn unterminated_literals_lex_to_eof() {
        roundtrip(r#"let s = "unterminated"#);
        roundtrip("/* unterminated");
        roundtrip("r#\"unterminated");
    }

    #[test]
    fn line_map_is_one_based() {
        let src = "ab\ncd\n";
        let m = LineMap::new(src);
        assert_eq!(m.line_col(src, 0), (1, 1));
        assert_eq!(m.line_col(src, 4), (2, 2));
    }
}
