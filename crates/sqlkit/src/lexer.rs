//! Hand-written lexer for the SQL subset.

use crate::token::{Spanned, Token};

/// A lexing failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub(crate) offset: usize,
    /// Human-readable description.
    pub(crate) message: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenises `src`, appending a trailing [`Token::Eof`].
#[expect(
    clippy::indexing_slicing,
    reason = "every bytes[i]/bytes[j] is guarded by i < len or j < len, and src is sliced only at ASCII byte offsets the scan stopped on"
)]
pub(crate) fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            ',' => {
                out.push(Spanned {
                    token: Token::Comma,
                    offset: i,
                });
                i += 1;
            }
            '.' => {
                out.push(Spanned {
                    token: Token::Dot,
                    offset: i,
                });
                i += 1;
            }
            '*' => {
                out.push(Spanned {
                    token: Token::Star,
                    offset: i,
                });
                i += 1;
            }
            '(' => {
                out.push(Spanned {
                    token: Token::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                out.push(Spanned {
                    token: Token::RParen,
                    offset: i,
                });
                i += 1;
            }
            '+' => {
                out.push(Spanned {
                    token: Token::Plus,
                    offset: i,
                });
                i += 1;
            }
            '-' => {
                out.push(Spanned {
                    token: Token::Minus,
                    offset: i,
                });
                i += 1;
            }
            '/' => {
                out.push(Spanned {
                    token: Token::Slash,
                    offset: i,
                });
                i += 1;
            }
            '=' => {
                out.push(Spanned {
                    token: Token::Eq,
                    offset: i,
                });
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned {
                        token: Token::LtEq,
                        offset: i,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Spanned {
                        token: Token::NotEq,
                        offset: i,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Lt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned {
                        token: Token::GtEq,
                        offset: i,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Gt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned {
                        token: Token::NotEq,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(LexError {
                                offset: start,
                                message: "unterminated string literal".into(),
                            })
                        }
                        Some(b'\'') => {
                            // Doubled quote is an escaped quote.
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                out.push(Spanned {
                    token: Token::StringLit(s),
                    offset: start,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes
                        .get(i + 1)
                        .is_some_and(|b| (*b as char).is_ascii_digit())
                {
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                // Scientific notation: 1e6 / 2.5E-3.
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                let value: f64 = text.parse().map_err(|_| LexError {
                    offset: start,
                    message: format!("invalid number literal `{text}`"),
                })?;
                out.push(Spanned {
                    token: Token::Number(value),
                    offset: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[start..i];
                let token = Token::keyword(word).unwrap_or_else(|| Token::Ident(word.to_string()));
                out.push(Spanned {
                    token,
                    offset: start,
                });
            }
            other => {
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    out.push(Spanned {
        token: Token::Eof,
        offset: src.len(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_simple_select() {
        let t = kinds("SELECT a1 FROM t");
        assert_eq!(
            t,
            vec![
                Token::Select,
                Token::Ident("a1".into()),
                Token::From,
                Token::Ident("t".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_qualified_column_and_comparison() {
        let t = kinds("r.a1 <= 10");
        assert_eq!(
            t,
            vec![
                Token::Ident("r".into()),
                Token::Dot,
                Token::Ident("a1".into()),
                Token::LtEq,
                Token::Number(10.0),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers_with_decimals_and_exponents() {
        assert_eq!(kinds("3.5")[0], Token::Number(3.5));
        assert_eq!(kinds("1e6")[0], Token::Number(1e6));
        assert_eq!(kinds("2.5E-3")[0], Token::Number(2.5e-3));
    }

    #[test]
    fn integer_dot_ident_is_not_a_decimal() {
        // `1.a` must lex as number, dot, ident (not a malformed decimal).
        let t = kinds("1.a");
        assert_eq!(t[0], Token::Number(1.0));
        assert_eq!(t[1], Token::Dot);
    }

    #[test]
    fn lexes_string_with_escaped_quote() {
        assert_eq!(kinds("'it''s'")[0], Token::StringLit("it's".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn both_not_equal_spellings() {
        assert_eq!(kinds("a != b")[1], Token::NotEq);
        assert_eq!(kinds("a <> b")[1], Token::NotEq);
    }

    #[test]
    fn rejects_stray_characters() {
        let err = lex("a ; b").unwrap_err();
        assert_eq!(err.offset, 2);
    }

    #[test]
    fn offsets_point_at_token_start() {
        let toks = lex("SELECT  x").unwrap();
        assert_eq!(toks[1].offset, 8);
    }
}
