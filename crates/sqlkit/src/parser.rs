//! Recursive-descent parser with operator-precedence expression parsing.
//!
//! Grammar (informally):
//!
//! ```text
//! query      := SELECT select_list FROM table_ref join* where? group_by?
//! select_list:= '*' | select_item (',' select_item)*
//! select_item:= expr (AS? ident)?
//! table_ref  := ident (AS? ident)?
//! join       := (INNER)? JOIN table_ref ON expr
//! where      := WHERE expr
//! group_by   := GROUP BY expr (',' expr)*
//! order_by   := ORDER BY expr (ASC|DESC)? (',' expr (ASC|DESC)?)*
//! limit      := LIMIT integer
//! expr       := or_expr
//! or_expr    := and_expr (OR and_expr)*
//! and_expr   := not_expr (AND not_expr)*
//! not_expr   := NOT not_expr | cmp_expr
//! cmp_expr   := add_expr ((= | <> | < | <= | > | >=) add_expr)?
//! add_expr   := mul_expr ((+|-) mul_expr)*
//! mul_expr   := unary ((*|/) unary)*
//! unary      := '-' unary | primary
//! primary    := number | string | agg | column | '(' expr ')'
//! agg        := (SUM|COUNT|AVG|MIN|MAX) '(' (DISTINCT? expr | '*') ')'
//! column     := ident ('.' ident)?
//! ```

use crate::{
    ast::{AggFunc, BinOp, Expr, Join, OrderKey, Query, SelectItem, TableRef},
    lexer::{lex, LexError},
    token::{Spanned, Token},
};

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The lexer failed.
    Lex(LexError),
    /// Unexpected token at a byte offset.
    Unexpected {
        /// What was found (debug rendering).
        found: String,
        /// What the parser wanted.
        expected: &'static str,
        /// Byte offset.
        offset: usize,
    },
    /// Input continued after a complete query.
    TrailingInput {
        /// Byte offset of the first trailing token.
        offset: usize,
    },
    /// An expression nests or chains deeper than the parser builds trees
    /// (likewise a `JOIN` chain, which plans into a left-deep tree).
    TooDeep {
        /// Byte offset of the token that would have grown the tree past
        /// the bound.
        offset: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                found,
                expected,
                offset,
            } => {
                write!(
                    f,
                    "parse error at byte {offset}: expected {expected}, found {found}"
                )
            }
            ParseError::TrailingInput { offset } => {
                write!(f, "parse error: trailing input at byte {offset}")
            }
            ParseError::TooDeep { offset } => {
                write!(
                    f,
                    "parse error at byte {offset}: nested deeper than {MAX_TREE_HEIGHT} levels"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Tallest tree the parser builds, in nodes from root to leaf.
///
/// The descent recurses per `(`, `NOT` and unary `-`, and the `Expr` it
/// returns — like the `LogicalOp` tree planned from it — is walked,
/// printed and dropped recursively, all on stacks as small as the 2 MiB
/// of a spawned thread. Height is counted where it grows (each recursive
/// descent, each loop iteration that wraps `left`, each `JOIN`), so
/// nothing downstream meets a deeper tree than this.
const MAX_TREE_HEIGHT: usize = 64;

/// Parses one SQL query.
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let q = p.query()?;
    if p.peek().token != Token::Eof {
        return Err(ParseError::TrailingInput {
            offset: p.peek().offset,
        });
    }
    Ok(q)
}

/// Parses a standalone expression.
#[cfg(test)]
pub(crate) fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    if p.peek().token != Token::Eof {
        return Err(ParseError::TrailingInput {
            offset: p.peek().offset,
        });
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Recursive descents currently on the stack.
    depth: usize,
}

/// An expression with its height (a leaf is 1).
type Tall = (Expr, usize);

impl Parser {
    fn new(tokens: Vec<Spanned>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    fn too_deep(&self) -> ParseError {
        ParseError::TooDeep {
            offset: self.peek().offset,
        }
    }

    /// `height`, unless it is past [`MAX_TREE_HEIGHT`].
    fn bounded(&self, height: usize) -> Result<usize, ParseError> {
        if height > MAX_TREE_HEIGHT {
            return Err(self.too_deep());
        }
        Ok(height)
    }

    /// Runs one recursive descent, counted while it is on the stack.
    /// The allowance is two descents a level: `Display` wraps a node in
    /// at most one parenthesis, so whatever it prints of a tree of legal
    /// height parses again.
    fn descend(
        &mut self,
        production: fn(&mut Self) -> Result<Tall, ParseError>,
    ) -> Result<Tall, ParseError> {
        if self.depth == 2 * MAX_TREE_HEIGHT {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let parsed = production(self);
        self.depth -= 1;
        parsed
    }

    /// `left op right`, one level taller than its taller operand.
    fn wrap(&self, op: BinOp, left: Tall, right: Tall) -> Result<Tall, ParseError> {
        let height = self.bounded(left.1.max(right.1) + 1)?;
        Ok((Expr::binary(op, left.0, right.0), height))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the lexer ends every stream with Eof and advance never moves pos past it"
    )]
    fn peek(&self) -> &Spanned {
        &self.tokens[self.pos]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the lexer ends every stream with Eof and advance never moves pos past it"
    )]
    fn advance(&mut self) -> Spanned {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Token) -> bool {
        if &self.peek().token == want {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: Token, expected: &'static str) -> Result<(), ParseError> {
        if self.eat(&want) {
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn unexpected(&self, expected: &'static str) -> ParseError {
        ParseError::Unexpected {
            found: format!("{:?}", self.peek().token),
            expected,
            offset: self.peek().offset,
        }
    }

    fn ident(&mut self, expected: &'static str) -> Result<String, ParseError> {
        match &self.peek().token {
            Token::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect(Token::Select, "SELECT")?;

        let (select, select_star) = if self.eat(&Token::Star) {
            (vec![], true)
        } else {
            let mut items = vec![self.select_item()?];
            while self.eat(&Token::Comma) {
                items.push(self.select_item()?);
            }
            (items, false)
        };

        self.expect(Token::From, "FROM")?;
        let from = self.table_ref()?;

        let mut joins = Vec::new();
        loop {
            if self.eat(&Token::Inner) {
                self.expect(Token::Join, "JOIN after INNER")?;
            } else if !self.eat(&Token::Join) {
                break;
            }
            // Each JOIN wraps the plan built so far as its left input.
            self.bounded(joins.len() + 2)?;
            let table = self.table_ref()?;
            self.expect(Token::On, "ON")?;
            let on = self.expr()?;
            joins.push(Join { table, on });
        }

        let where_clause = if self.eat(&Token::Where) {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat(&Token::Group) {
            self.expect(Token::By, "BY after GROUP")?;
            group_by.push(self.expr()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.expr()?);
            }
        }

        let mut order_by = Vec::new();
        if self.eat(&Token::Order) {
            self.expect(Token::By, "BY after ORDER")?;
            order_by.push(self.order_key()?);
            while self.eat(&Token::Comma) {
                order_by.push(self.order_key()?);
            }
        }

        let limit = if self.eat(&Token::Limit) {
            match self.peek().token.clone() {
                Token::Number(n) if n >= 0.0 && n.fract() == 0.0 => {
                    self.advance();
                    Some(n as u64)
                }
                _ => return Err(self.unexpected("non-negative integer after LIMIT")),
            }
        } else {
            None
        };

        Ok(Query {
            select,
            select_star,
            from,
            joins,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn order_key(&mut self) -> Result<OrderKey, ParseError> {
        let expr = self.expr()?;
        let ascending = if self.eat(&Token::Desc) {
            false
        } else {
            self.eat(&Token::Asc);
            true
        };
        Ok(OrderKey { expr, ascending })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        let expr = self.expr()?;
        let alias = if self.eat(&Token::As) {
            Some(self.ident("alias after AS")?)
        } else if let Token::Ident(_) = self.peek().token {
            Some(self.ident("alias")?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.ident("table name")?;
        let alias = if self.eat(&Token::As) {
            Some(self.ident("alias after AS")?)
        } else if let Token::Ident(_) = self.peek().token {
            Some(self.ident("alias")?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.or_expr()?.0)
    }

    fn or_expr(&mut self) -> Result<Tall, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat(&Token::Or) {
            let right = self.and_expr()?;
            left = self.wrap(BinOp::Or, left, right)?;
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Tall, ParseError> {
        let mut left = self.not_expr()?;
        while self.eat(&Token::And) {
            let right = self.not_expr()?;
            left = self.wrap(BinOp::And, left, right)?;
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Tall, ParseError> {
        if self.eat(&Token::Not) {
            let (inner, height) = self.descend(Self::not_expr)?;
            Ok((Expr::Not(Box::new(inner)), self.bounded(height + 1)?))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Tall, ParseError> {
        let left = self.add_expr()?;
        let op = match self.peek().token {
            Token::Eq => BinOp::Eq,
            Token::NotEq => BinOp::NotEq,
            Token::Lt => BinOp::Lt,
            Token::LtEq => BinOp::LtEq,
            Token::Gt => BinOp::Gt,
            Token::GtEq => BinOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.add_expr()?;
        self.wrap(op, left, right)
    }

    fn add_expr(&mut self) -> Result<Tall, ParseError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek().token {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.mul_expr()?;
            left = self.wrap(op, left, right)?;
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Tall, ParseError> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek().token {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = self.wrap(op, left, right)?;
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Tall, ParseError> {
        if self.eat(&Token::Minus) {
            let inner = self.descend(Self::unary)?;
            // Fold negation into numeric literals; otherwise 0 - expr.
            return match inner {
                (Expr::Number(n), height) => Ok((Expr::Number(-n), height)),
                other => self.wrap(BinOp::Sub, (Expr::Number(0.0), 1), other),
            };
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Tall, ParseError> {
        let agg = match self.peek().token {
            Token::Sum => Some(AggFunc::Sum),
            Token::Count => Some(AggFunc::Count),
            Token::Avg => Some(AggFunc::Avg),
            Token::Min => Some(AggFunc::Min),
            Token::Max => Some(AggFunc::Max),
            _ => None,
        };
        if let Some(func) = agg {
            self.advance();
            self.expect(Token::LParen, "( after aggregate function")?;
            if self.eat(&Token::Star) {
                self.expect(Token::RParen, ") after *")?;
                let star = Expr::Agg {
                    func,
                    expr: None,
                    distinct: false,
                };
                return Ok((star, 1));
            }
            let distinct = self.eat(&Token::Distinct);
            let (inner, height) = self.descend(Self::or_expr)?;
            self.expect(Token::RParen, ") after aggregate argument")?;
            let agg = Expr::Agg {
                func,
                expr: Some(Box::new(inner)),
                distinct,
            };
            return Ok((agg, self.bounded(height + 1)?));
        }

        match self.peek().token.clone() {
            Token::Number(n) => {
                self.advance();
                Ok((Expr::Number(n), 1))
            }
            Token::StringLit(s) => {
                self.advance();
                Ok((Expr::StringLit(s), 1))
            }
            Token::LParen => {
                self.advance();
                let e = self.descend(Self::or_expr)?;
                self.expect(Token::RParen, "closing )")?;
                Ok(e)
            }
            Token::Ident(first) => {
                self.advance();
                let (qualifier, name) = if self.eat(&Token::Dot) {
                    (Some(first), self.ident("column after .")?)
                } else {
                    (None, first)
                };
                Ok((Expr::Column { qualifier, name }, 1))
            }
            _ => Err(self.unexpected("expression")),
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test: the deep-nesting test runs on a thread with a small stack"
)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr};
    use crate::token::Token;

    #[test]
    fn parses_select_star() {
        let q = parse_query("SELECT * FROM t").unwrap();
        assert!(q.select_star);
        assert_eq!(q.from.name, "t");
    }

    #[test]
    fn parses_aggregation_query_from_fig10() {
        // The Fig. 10 aggregation shape: SUM()s grouped by a duplication column.
        let q = parse_query("SELECT a5, SUM(a1) AS s1, SUM(a2) AS s2 FROM T100000_250 GROUP BY a5")
            .unwrap();
        assert_eq!(q.select.len(), 3);
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.select[1].alias.as_deref(), Some("s1"));
    }

    #[test]
    fn parses_join_query_from_fig10() {
        // Fig. 10 join shape incl. the synthetic selectivity predicate.
        let q = parse_query(
            "SELECT r.a1, s.a2 FROM T1000_40 r JOIN T2000_70 s ON r.a1 = s.a1 \
             WHERE r.a1 + s.z < 500",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 1);
        let on = &q.joins[0].on;
        assert!(matches!(on, Expr::Binary { op: BinOp::Eq, .. }));
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn operator_precedence_mul_over_add_over_cmp() {
        let e = parse_expr("a + b * 2 < 10").unwrap();
        assert_eq!(e.to_string(), "((a + (b * 2)) < 10)");
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let e = parse_expr("a = 1 OR b = 2 AND c = 3").unwrap();
        assert_eq!(e.to_string(), "((a = 1) OR ((b = 2) AND (c = 3)))");
    }

    #[test]
    fn not_parses_prefix() {
        let e = parse_expr("NOT a = 1").unwrap();
        assert_eq!(e.to_string(), "(NOT (a = 1))");
    }

    #[test]
    fn unary_minus_folds_into_literal() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::Number(-5.0));
        let e = parse_expr("-x").unwrap();
        assert_eq!(e.to_string(), "(0 - x)");
    }

    #[test]
    fn count_star_and_distinct() {
        let e = parse_expr("COUNT(*)").unwrap();
        assert_eq!(e.to_string(), "COUNT(*)");
        let d = parse_expr("COUNT(DISTINCT a1)").unwrap();
        assert_eq!(d.to_string(), "COUNT(DISTINCT a1)");
    }

    #[test]
    fn implicit_alias_without_as() {
        let q = parse_query("SELECT a FROM t1 r").unwrap();
        assert_eq!(q.from.alias.as_deref(), Some("r"));
    }

    #[test]
    fn inner_join_keyword_accepted() {
        let q = parse_query("SELECT * FROM a INNER JOIN b ON a.x = b.x").unwrap();
        assert_eq!(q.joins.len(), 1);
    }

    #[test]
    fn multi_join_chain() {
        let q = parse_query("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y").unwrap();
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[1].table.name, "c");
    }

    #[test]
    fn error_reports_offset_and_expectation() {
        let err = parse_query("SELECT FROM t").unwrap_err();
        match err {
            ParseError::Unexpected { expected, .. } => assert_eq!(expected, "expression"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(matches!(
            parse_query("SELECT * FROM t garbage garbage"),
            // `garbage` parses as alias; second one is trailing.
            Err(ParseError::TrailingInput { .. })
        ));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser never panics on arbitrary ASCII input.
            #[test]
            fn prop_parser_total_on_ascii(s in "[ -~]{0,200}") {
                let _ = parse_query(&s);
            }

            /// Any arithmetic-comparison expression over identifiers and
            /// numbers round-trips through Display.
            #[test]
            fn prop_expr_display_roundtrip(
                a in "[a-z][a-z0-9_]{0,8}",
                b in "[a-z][a-z0-9_]{0,8}",
                n in 0i64..1_000_000,
                op in prop::sample::select(vec!["+", "-", "*", "/"]),
                cmp in prop::sample::select(vec!["<", "<=", ">", ">=", "=", "<>"]),
            ) {
                prop_assume!(Token::keyword(&a).is_none() && Token::keyword(&b).is_none());
                let src = format!("{a} {op} {b} {cmp} {n}");
                let e1 = parse_expr(&src).expect("parses");
                let e2 = parse_expr(&e1.to_string()).expect("reparses");
                prop_assert_eq!(e1, e2);
            }

            /// Lexing then re-rendering numbers preserves their value.
            #[test]
            fn prop_number_literals_roundtrip(n in 0f64..1e12) {
                let e = parse_expr(&format!("{n}")).expect("number parses");
                match e {
                    Expr::Number(v) => prop_assert!((v - n).abs() < 1e-6 * (1.0 + n.abs())),
                    other => prop_assert!(false, "expected number, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn order_by_parses_with_directions() {
        let q = parse_query("SELECT a1, a2 FROM t ORDER BY a1 DESC, a2 ASC, a5").unwrap();
        assert_eq!(q.order_by.len(), 3);
        assert!(!q.order_by[0].ascending);
        assert!(q.order_by[1].ascending);
        assert!(q.order_by[2].ascending);
    }

    #[test]
    fn limit_parses_integer_only() {
        let q = parse_query("SELECT a1 FROM t LIMIT 10").unwrap();
        assert_eq!(q.limit, Some(10));
        assert!(parse_query("SELECT a1 FROM t LIMIT 2.5").is_err());
        assert!(parse_query("SELECT a1 FROM t LIMIT x").is_err());
    }

    #[test]
    fn full_clause_ordering_group_order_limit() {
        let q = parse_query(
            "SELECT a5, SUM(a1) AS s FROM t WHERE a1 < 100 GROUP BY a5              ORDER BY a5 DESC LIMIT 7",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 1);
        assert_eq!(q.limit, Some(7));
    }

    #[test]
    fn display_roundtrip_reparses_to_same_ast() {
        let srcs = [
            "SELECT a5, SUM(a1) AS s FROM t GROUP BY a5",
            "SELECT r.a1 FROM t1 r JOIN t2 s ON r.a1 = s.a1 WHERE r.a1 + s.z < 500",
            "SELECT * FROM t WHERE NOT a = 1 AND b >= 2",
            "SELECT a1 FROM t ORDER BY a1 DESC LIMIT 5",
            "SELECT a5, SUM(a1) AS s FROM t GROUP BY a5 ORDER BY a5 LIMIT 100",
        ];
        for src in srcs {
            let q1 = parse_query(src).unwrap();
            let q2 = parse_query(&q1.to_string()).unwrap();
            assert_eq!(q1, q2, "roundtrip failed for {src}");
        }
    }

    /// Runs `f` on a 2 MiB stack: Rust's default for spawned threads,
    /// hence every `serving` worker's and every test thread's.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("thread spawns")
            .join()
            .expect("neither a stack overflow nor a panic")
    }

    /// `n` parentheses around one leaf: `n` descents, a tree of height 1.
    fn nested(n: usize) -> String {
        format!("SELECT {}a{} FROM t", "(".repeat(n), ")".repeat(n))
    }

    /// `n` prefix operators (`"NOT "`, `"- "`) on one column: height `n + 1`.
    fn prefixed(op: &str, n: usize) -> String {
        format!("SELECT a FROM t WHERE {}a", op.repeat(n))
    }

    /// `a = 1` (two levels) with `n` more links (`" AND a = 1"`, `" + 1"`),
    /// each wrapping one level around the chain so far: height `n + 2`.
    fn chained(link: &str, n: usize) -> String {
        format!("SELECT a FROM t WHERE a = 1{}", link.repeat(n))
    }

    /// `n` joins: a left-deep plan of height `n + 1`.
    fn joined(n: usize) -> String {
        format!("SELECT * FROM t{}", " JOIN t ON 1 = 1".repeat(n))
    }

    #[test]
    fn deep_and_long_statements_are_a_typed_error_not_a_stack_overflow() {
        const N: usize = 100_000;
        let statements = [
            nested(N),
            prefixed("NOT ", N),
            prefixed("- ", N),
            chained(" AND a = 1", N),
            chained(" OR a = 1", N),
            chained(" + 1", N),
            joined(N),
        ];
        for sql in statements {
            let head: String = sql.chars().take(40).collect();
            let err = on_small_stack(move || {
                let err = crate::sql_to_plan(&sql).expect_err("past the bound");
                *err.downcast::<ParseError>().expect("a parse error")
            });
            assert!(matches!(err, ParseError::TooDeep { .. }), "{head}…: {err}");
        }
    }

    #[test]
    fn the_bound_is_exact_and_reports_where_it_was_crossed() {
        const H: usize = MAX_TREE_HEIGHT;
        assert!(parse_query(&nested(2 * H)).is_ok());
        assert_eq!(
            parse_query(&nested(2 * H + 1)),
            Err(ParseError::TooDeep {
                // The token after the parenthesis that went too deep.
                offset: "SELECT ".len() + 2 * H + 1
            })
        );
        let too_deep = |sql: String| matches!(parse_query(&sql), Err(ParseError::TooDeep { .. }));
        assert!(!too_deep(prefixed("NOT ", H - 1)) && too_deep(prefixed("NOT ", H)));
        assert!(!too_deep(chained(" AND a = 1", H - 2)) && too_deep(chained(" AND a = 1", H - 1)));
        assert!(!too_deep(joined(H - 1)) && too_deep(joined(H)));
    }

    #[test]
    fn statements_at_the_bound_plan_print_and_drop_on_a_small_stack() {
        const H: usize = MAX_TREE_HEIGHT;
        let at_bound = [
            nested(2 * H),
            prefixed("NOT ", H - 1),
            chained(" AND a = 1", H - 2),
            chained(" + 1", H - 2),
            joined(H - 1),
        ];
        for sql in at_bound {
            on_small_stack(move || {
                let plan = crate::sql_to_plan(&sql).expect("at the bound");
                assert!(!plan.root.describe().is_empty());
                let query = parse_query(&sql).expect("at the bound");
                assert_eq!(parse_query(&query.to_string()), Ok(query));
            });
        }
    }
}
