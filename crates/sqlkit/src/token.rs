//! Token stream produced by the lexer.

/// A lexical token with its source offset (byte index of its first char).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    /// The token itself.
    pub(crate) token: Token,
    /// Byte offset in the source where the token starts.
    pub(crate) offset: usize,
}

/// SQL tokens for the supported SPJA subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// `SELECT` keyword (all keywords are case-insensitive in the source).
    Select,
    /// `FROM` keyword.
    From,
    /// `WHERE` keyword.
    Where,
    /// `GROUP` keyword.
    Group,
    /// `BY` keyword.
    By,
    /// `JOIN` keyword.
    Join,
    /// `INNER` keyword.
    Inner,
    /// `ON` keyword.
    On,
    /// `AS` keyword.
    As,
    /// `AND` keyword.
    And,
    /// `OR` keyword.
    Or,
    /// `NOT` keyword.
    Not,
    /// `SUM` aggregate keyword.
    Sum,
    /// `COUNT` aggregate keyword.
    Count,
    /// `AVG` aggregate keyword.
    Avg,
    /// `MIN` aggregate keyword.
    Min,
    /// `MAX` aggregate keyword.
    Max,
    /// `DISTINCT` keyword.
    Distinct,
    /// `ORDER` keyword.
    Order,
    /// `LIMIT` keyword.
    Limit,
    /// `ASC` keyword.
    Asc,
    /// `DESC` keyword.
    Desc,

    /// Bare or qualified identifier component.
    Ident(String),
    /// Numeric literal (integers and decimals; stored as f64).
    Number(f64),
    /// Single-quoted string literal, quotes stripped.
    StringLit(String),

    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,

    /// End of input.
    Eof,
}

impl Token {
    /// Tries to interpret an identifier as a keyword.
    pub(crate) fn keyword(word: &str) -> Option<Token> {
        Some(match word.to_ascii_uppercase().as_str() {
            "SELECT" => Token::Select,
            "FROM" => Token::From,
            "WHERE" => Token::Where,
            "GROUP" => Token::Group,
            "BY" => Token::By,
            "JOIN" => Token::Join,
            "INNER" => Token::Inner,
            "ON" => Token::On,
            "AS" => Token::As,
            "AND" => Token::And,
            "OR" => Token::Or,
            "NOT" => Token::Not,
            "SUM" => Token::Sum,
            "COUNT" => Token::Count,
            "AVG" => Token::Avg,
            "MIN" => Token::Min,
            "MAX" => Token::Max,
            "DISTINCT" => Token::Distinct,
            "ORDER" => Token::Order,
            "LIMIT" => Token::Limit,
            "ASC" => Token::Asc,
            "DESC" => Token::Desc,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(Token::keyword("select"), Some(Token::Select));
        assert_eq!(Token::keyword("SeLeCt"), Some(Token::Select));
        assert_eq!(Token::keyword("GROUP"), Some(Token::Group));
    }

    #[test]
    fn non_keywords_return_none() {
        assert_eq!(Token::keyword("foo"), None);
        assert_eq!(Token::keyword("selects"), None);
    }
}
