//! A lightweight Rust lexer.
//!
//! Produces just enough structure for the rule engine: identifiers,
//! numeric/string/char literals, single-character punctuation, and a
//! side channel of comments (with doc-comment flagging) for the
//! `analysis:allow` escape hatch and `# Panics` detection. It is *not*
//! a full Rust lexer — it only needs to be unambiguous about the token
//! boundaries the rules match on (notably: char literal vs lifetime,
//! raw strings, nested block comments, float vs integer literals).

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// An integer literal (including hex/octal/binary forms).
    Int,
    /// A floating-point literal (`1.0`, `1e5`, `2f64`, …).
    Float,
    /// A string literal (plain, raw, or byte).
    Str,
    /// A character literal.
    Char,
    /// One character of punctuation (`.`, `(`, `=`, …).
    Punct(char),
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The token's text. Empty for punctuation (see [`TokenKind::Punct`]).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// True when this is the identifier `name`.
    pub(crate) fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// True when this is the punctuation character `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A comment captured out-of-band (not part of the token stream).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Full comment text including the `//` / `/*` introducer.
    pub text: String,
    /// True for `///`, `//!`, `/**`, `/*!` doc comments.
    pub doc: bool,
}

/// Lexes `source`, returning the token stream and the comment side
/// channel. Never fails: unrecognized bytes become punctuation tokens.
pub(crate) fn lex(source: &str) -> (Vec<Token>, Vec<Comment>) {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
        comments: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
}

impl Lexer {
    fn run(mut self) -> (Vec<Token>, Vec<Comment>) {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'r' if matches!(self.peek(1), Some('"') | Some('#')) && self.is_raw_string(1) => {
                    self.raw_string(1)
                }
                'b' if self.peek(1) == Some('"') => {
                    self.pos += 1;
                    self.string();
                }
                'b' if self.peek(1) == Some('r') && self.is_raw_string(2) => self.raw_string(2),
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c => {
                    self.push(TokenKind::Punct(c), String::new());
                    self.pos += 1;
                }
            }
        }
        (self.tokens, self.comments)
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, text: String) {
        self.tokens.push(Token {
            kind,
            text,
            line: self.line,
        });
    }

    fn line_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.pos += 1;
        }
        let doc = text.starts_with("///") || text.starts_with("//!");
        self.comments.push(Comment {
            line: start_line,
            text,
            doc,
        });
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.pos += 2;
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.pos += 2;
                if depth == 0 {
                    break;
                }
            } else {
                if c == '\n' {
                    self.line += 1;
                }
                text.push(c);
                self.pos += 1;
            }
        }
        let doc = text.starts_with("/**") || text.starts_with("/*!");
        self.comments.push(Comment {
            line: start_line,
            text,
            doc,
        });
    }

    fn string(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        text.push('"');
        self.pos += 1; // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    text.push(c);
                    if let Some(esc) = self.peek(1) {
                        text.push(esc);
                        if esc == '\n' {
                            self.line += 1;
                        }
                    }
                    self.pos += 2;
                }
                '"' => {
                    text.push(c);
                    self.pos += 1;
                    break;
                }
                '\n' => {
                    text.push(c);
                    self.line += 1;
                    self.pos += 1;
                }
                _ => {
                    text.push(c);
                    self.pos += 1;
                }
            }
        }
        self.tokens.push(Token {
            kind: TokenKind::Str,
            text,
            line: start_line,
        });
    }

    /// Is the text at `offset` (past an `r` or `br` prefix) a raw-string
    /// opener — zero or more `#` then `"`?
    fn is_raw_string(&self, offset: usize) -> bool {
        let mut i = offset;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn raw_string(&mut self, prefix_len: usize) {
        let start_line = self.line;
        let mut text = String::new();
        for _ in 0..prefix_len {
            if let Some(c) = self.peek(0) {
                text.push(c);
                self.pos += 1;
            }
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            text.push('#');
            hashes += 1;
            self.pos += 1;
        }
        text.push('"');
        self.pos += 1; // opening quote
        let closer: String = std::iter::once('"')
            .chain("#".repeat(hashes).chars())
            .collect();
        while self.peek(0).is_some() {
            if self.matches_at(&closer) {
                text.push_str(&closer);
                self.pos += closer.len();
                break;
            }
            let c = self.chars[self.pos];
            if c == '\n' {
                self.line += 1;
            }
            text.push(c);
            self.pos += 1;
        }
        self.tokens.push(Token {
            kind: TokenKind::Str,
            text,
            line: start_line,
        });
    }

    fn matches_at(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c))
    }

    fn char_or_lifetime(&mut self) {
        // 'a (not followed by a closing quote) is a lifetime; anything
        // else after the quote starts a char literal.
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime =
            matches!(next, Some(c) if c.is_alphabetic() || c == '_') && after != Some('\'');
        if is_lifetime {
            let mut text = String::from("'");
            self.pos += 1;
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text);
            return;
        }
        let start_line = self.line;
        let mut text = String::from("'");
        self.pos += 1;
        if self.peek(0) == Some('\\') {
            text.push('\\');
            self.pos += 1;
            // Escape body: consume up to the closing quote.
            while let Some(c) = self.peek(0) {
                text.push(c);
                self.pos += 1;
                if c == '\'' {
                    break;
                }
            }
        } else {
            if let Some(c) = self.peek(0) {
                text.push(c);
                self.pos += 1;
            }
            if self.peek(0) == Some('\'') {
                text.push('\'');
                self.pos += 1;
            }
        }
        self.tokens.push(Token {
            kind: TokenKind::Char,
            text,
            line: start_line,
        });
    }

    fn number(&mut self) {
        let mut text = String::new();
        let mut is_float = false;
        if self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x') | Some('o') | Some('b') | Some('X'))
        {
            // Radix literal: always an integer.
            text.push('0');
            self.pos += 1;
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.push(TokenKind::Int, text);
            return;
        }
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        // Fractional part: a dot followed by a digit (or end-of-number
        // `1.` not followed by another dot or an identifier).
        if self.peek(0) == Some('.') {
            let next = self.peek(1);
            let fraction = matches!(next, Some(c) if c.is_ascii_digit());
            let bare_dot = match next {
                None => true,
                Some('.') => false,
                Some(c) => !(c.is_alphabetic() || c == '_'),
            };
            if fraction || bare_dot {
                is_float = true;
                text.push('.');
                self.pos += 1;
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some('e') | Some('E')) {
            let mut i = 1;
            if matches!(self.peek(1), Some('+') | Some('-')) {
                i = 2;
            }
            if matches!(self.peek(i), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                for _ in 0..i {
                    text.push(self.chars[self.pos]);
                    self.pos += 1;
                }
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix (`f64`, `u32`, …).
        let mut suffix = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                suffix.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        if suffix.starts_with('f') {
            is_float = true;
        }
        text.push_str(&suffix);
        let kind = if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push(kind, text);
    }

    fn ident(&mut self) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).0.into_iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src).0.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            kinds("a.b()"),
            vec![
                TokenKind::Ident,
                TokenKind::Punct('.'),
                TokenKind::Ident,
                TokenKind::Punct('('),
                TokenKind::Punct(')'),
            ]
        );
    }

    #[test]
    fn float_vs_int() {
        assert_eq!(kinds("1"), vec![TokenKind::Int]);
        assert_eq!(kinds("1.0"), vec![TokenKind::Float]);
        assert_eq!(kinds("1e5"), vec![TokenKind::Float]);
        assert_eq!(kinds("1E-5"), vec![TokenKind::Float]);
        assert_eq!(kinds("3f64"), vec![TokenKind::Float]);
        assert_eq!(kinds("0xFF"), vec![TokenKind::Int]);
        assert_eq!(kinds("1_000"), vec![TokenKind::Int]);
        // Tuple access and ranges stay integers.
        assert_eq!(
            kinds("x.0"),
            vec![TokenKind::Ident, TokenKind::Punct('.'), TokenKind::Int]
        );
        assert_eq!(
            kinds("0..9"),
            vec![
                TokenKind::Int,
                TokenKind::Punct('.'),
                TokenKind::Punct('.'),
                TokenKind::Int
            ]
        );
    }

    #[test]
    fn lifetime_vs_char() {
        assert_eq!(kinds("'a"), vec![TokenKind::Lifetime]);
        assert_eq!(kinds("'a'"), vec![TokenKind::Char]);
        assert_eq!(kinds("'\\n'"), vec![TokenKind::Char]);
        assert_eq!(
            kinds("&'static str"),
            vec![TokenKind::Punct('&'), TokenKind::Lifetime, TokenKind::Ident]
        );
    }

    #[test]
    fn strings_including_raw() {
        assert_eq!(texts(r#""hi there""#), vec![r#""hi there""#]);
        assert_eq!(kinds(r#""esc \" quote""#), vec![TokenKind::Str]);
        assert_eq!(kinds(r##"r#"raw "inner" text"#"##), vec![TokenKind::Str]);
        assert_eq!(kinds(r#"b"bytes""#), vec![TokenKind::Str]);
        // An `r` identifier is not a raw string.
        assert_eq!(
            kinds("r.x"),
            vec![TokenKind::Ident, TokenKind::Punct('.'), TokenKind::Ident]
        );
    }

    #[test]
    fn comments_are_side_channel() {
        let (tokens, comments) =
            lex("let x = 1; // trailing\n/// doc\nfn y() {}\n/* block\nmore */");
        assert!(tokens.iter().all(|t| t.kind != TokenKind::Punct('/')));
        assert_eq!(comments.len(), 3);
        assert!(!comments[0].doc);
        assert!(comments[1].doc);
        assert_eq!(comments[1].line, 2);
        assert!(comments[2].text.contains("more"));
    }

    #[test]
    fn nested_block_comments() {
        let (tokens, comments) = lex("/* outer /* inner */ still outer */ x");
        assert_eq!(comments.len(), 1);
        assert_eq!(tokens.len(), 1);
        assert!(tokens[0].is_ident("x"));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let (tokens, _) = lex("a\nb\n\nc");
        assert_eq!(
            tokens.iter().map(|t| t.line).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
    }
}
