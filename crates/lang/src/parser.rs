//! Recursive-descent / precedence-climbing parser for the grammar of paper
//! Fig 4.2.
//!
//! Operator precedence follows the `hoc` calculator the thesis's yacc rules
//! are built on (Kernighan & Pike, *The UNIX Programming Environment*):
//!
//! ```text
//! lowest   =          (right associative, assignment)
//!          ||
//!          &&
//!          == !=
//!          < <= > >=
//!          + -
//!          * /
//!          unary -
//! highest  ^          (right associative)
//! ```
//!
//! Each newline-terminated line is one statement. Assignments to
//! `user_preferred_hostN` / `user_denied_hostN` are parsed as
//! [`Stmt::HostAssign`] with a host designator (IP, domain name or bare
//! host name) on the right-hand side; everything else is an expression
//! statement.
//!
//! The parser also resolves every name to its [`Binding`], once, and bounds
//! the nesting of the tree ([`MAX_NEST`]), so that nothing that recurses
//! over an `Expr` — lowering, interval analysis, `Display`, `Drop` — can
//! be made to overflow the daemon's stack.

use crate::ast::{BinOp, Binding, Expr, Requirement, Stmt};
use crate::program::Program;
use crate::token::Token;
use crate::vars::{constant, is_user_host_var, ServerVar};

/// How many levels — of the parser's own recursion, plus one per link of
/// an operator chain on the way — a requirement may nest before it is
/// refused; the tree built is at most twice this deep. The paper's
/// requirements nest ≤ 3.
const MAX_NEST: usize = 64;

/// A syntax error with the offending token (if any) and a message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Index into the token stream where the error occurred.
    pub at: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a token stream (as produced by [`crate::Lexer::tokenize`]) into a
/// [`Requirement`].
pub fn parse(tokens: &[Token]) -> Result<Requirement, ParseError> {
    let mut p = Parser { tokens, pos: 0, depth: 0, temps: Vec::new() };
    let mut stmts = Vec::new();
    while !p.at_end() {
        if p.eat(&Token::Newline) {
            continue; // blank / comment-only line
        }
        stmts.push(p.statement()?);
    }
    let program = Program::lower(&stmts, p.temps);
    Ok(Requirement { stmts, source: render_source(tokens), program })
}

fn render_source(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        if *t == Token::Newline {
            out.push('\n');
        } else {
            if !out.is_empty() && !out.ends_with('\n') {
                out.push(' ');
            }
            out.push_str(&t.to_string());
        }
    }
    out
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Nesting at the current position, counted against [`MAX_NEST`].
    depth: usize,
    /// Temp names met so far, each with the constant it shadows; a name's
    /// position is its slot.
    temps: Vec<(String, Option<f64>)>,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { at: self.pos, message: message.into() }
    }

    /// One level further into the tree, or the error that bounds it.
    fn deepen(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NEST {
            return Err(self.err(format!("expression nested deeper than {MAX_NEST} levels")));
        }
        Ok(())
    }

    fn bind(&mut self, name: &str) -> Result<Binding, ParseError> {
        if is_user_host_var(name) {
            return Ok(Binding::UserHost);
        }
        if let Some(var) = ServerVar::from_name(name) {
            return Ok(Binding::Server(var));
        }
        let known = self.temps.iter().position(|(t, _)| t == name);
        let slot = known.unwrap_or_else(|| {
            self.temps.push((name.to_owned(), constant(name)));
            self.temps.len() - 1
        });
        u16::try_from(slot).map(Binding::Temp).map_err(|_| self.err("too many variables"))
    }

    fn expect_newline(&mut self) -> Result<(), ParseError> {
        match self.bump() {
            Some(Token::Newline) | None => Ok(()),
            Some(other) => Err(ParseError {
                at: self.pos - 1,
                message: format!("expected end of statement, found {other}"),
            }),
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        // user_*_hostN = <designator>
        if let (Some(Token::Ident(name)), Some(Token::Assign)) = (self.peek(), self.peek2()) {
            if is_user_host_var(name) {
                let param = name.clone();
                self.bump(); // ident
                self.bump(); // '='
                let host = self.host_designator()?;
                self.expect_newline()?;
                return Ok(Stmt::HostAssign { param, host });
            }
        }
        let e = self.expr(0)?;
        self.expect_newline()?;
        Ok(Stmt::Expr(e))
    }

    /// Right-hand side of a user host-list assignment: one IP, domain name
    /// or bare host-name token.
    fn host_designator(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::NetAddr(a)) => Ok(a.clone()),
            Some(Token::Ident(h)) => Ok(h.clone()),
            other => Err(ParseError {
                at: self.pos.saturating_sub(1),
                message: format!(
                    "expected a host (IP, domain or host name), found {}",
                    other.map_or("end of input".to_owned(), |t| t.to_string())
                ),
            }),
        }
    }

    /// Precedence of a binary operator token, or `None` if not binary.
    fn binop_of(tok: &Token) -> Option<(BinOp, u8, bool)> {
        // (operator, precedence, right_associative)
        Some(match tok {
            Token::Or => (BinOp::Or, 1, false),
            Token::And => (BinOp::And, 2, false),
            Token::EqEq => (BinOp::Eq, 3, false),
            Token::Ne => (BinOp::Ne, 3, false),
            Token::Lt => (BinOp::Lt, 4, false),
            Token::Le => (BinOp::Le, 4, false),
            Token::Gt => (BinOp::Gt, 4, false),
            Token::Ge => (BinOp::Ge, 4, false),
            Token::Plus => (BinOp::Add, 5, false),
            Token::Minus => (BinOp::Sub, 5, false),
            Token::Star => (BinOp::Mul, 6, false),
            Token::Slash => (BinOp::Div, 6, false),
            Token::Caret => (BinOp::Pow, 8, true),
            _ => return None,
        })
    }

    fn expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let outer = self.depth;
        self.deepen()?;
        let mut lhs = self.unary()?;
        while let Some(tok) = self.peek() {
            let Some((op, prec, right)) = Self::binop_of(tok) else { break };
            if prec < min_prec {
                break;
            }
            self.bump();
            self.deepen()?; // every link of a chain deepens the tree
            let next_min = if right { prec } else { prec + 1 };
            let rhs = self.expr(next_min)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Minus) {
            // `%prec UNARYMINUS`: binds tighter than * but looser than ^,
            // so -2^2 parses as -(2^2), matching hoc.
            let inner = self.expr(8)?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let at = self.pos;
        match self.bump().cloned() {
            Some(Token::Number(n)) => Ok(Expr::Number(n)),
            Some(Token::NetAddr(a)) => Ok(Expr::NetAddr(a)),
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    // BLTIN '(' expr ')'
                    self.bump();
                    let arg = self.expr(0)?;
                    if !self.eat(&Token::RParen) {
                        return Err(self.err("expected ')' after function argument"));
                    }
                    return Ok(Expr::Call(name, Box::new(arg)));
                }
                if self.peek() == Some(&Token::Assign) {
                    // Nested assignment expression (hoc allows it).
                    self.bump();
                    let binding = self.bind(&name)?;
                    let rhs = self.expr(0)?;
                    return Ok(Expr::Assign(name, binding, Box::new(rhs)));
                }
                let binding = self.bind(&name)?;
                Ok(Expr::Var(name, binding))
            }
            Some(Token::LParen) => {
                let inner = self.expr(0)?;
                if !self.eat(&Token::RParen) {
                    return Err(self.err("expected ')'"));
                }
                Ok(Expr::Paren(Box::new(inner)))
            }
            other => Err(ParseError {
                at,
                message: format!(
                    "expected an expression, found {}",
                    other.map_or("end of input".to_owned(), |t| t.to_string())
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexer;

    fn req(s: &str) -> Requirement {
        parse(&Lexer::new(s).tokenize().unwrap()).unwrap()
    }

    fn one_expr(s: &str) -> Expr {
        let r = req(s);
        assert_eq!(r.stmts.len(), 1, "expected one statement in {s:?}");
        match &r.stmts[0] {
            Stmt::Expr(e) => e.clone(),
            other => panic!("expected expression statement, got {other:?}"),
        }
    }

    #[test]
    fn precedence_arithmetic_before_comparison() {
        let e = one_expr("a + b < c * d");
        // (a+b) < (c*d)
        match &e {
            Expr::Binary(BinOp::Lt, l, r) => {
                assert!(matches!(**l, Expr::Binary(BinOp::Add, _, _)));
                assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("bad parse: {other:?}"),
        }
        assert!(e.is_logical());
    }

    #[test]
    fn comparison_before_and_before_or() {
        let e = one_expr("a < 1 && b > 2 || c == 3");
        match &e {
            Expr::Binary(BinOp::Or, l, _) => {
                assert!(matches!(**l, Expr::Binary(BinOp::And, _, _)));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn power_is_right_associative_and_tightest() {
        let e = one_expr("2 ^ 3 ^ 2");
        match &e {
            Expr::Binary(BinOp::Pow, _, r) => {
                assert!(matches!(**r, Expr::Binary(BinOp::Pow, _, _)));
            }
            other => panic!("bad parse: {other:?}"),
        }
        // -2^2 = -(2^2)
        let e = one_expr("-2 ^ 2");
        assert!(matches!(e, Expr::Neg(_)));
    }

    #[test]
    fn unary_minus_tighter_than_multiplication() {
        // hoc parses -a*b as (-a)*b... actually -a binds the whole power
        // expression: -a^2*b = (-(a^2))*b. Verify -a * b is Mul(Neg(a), b).
        let e = one_expr("- a * b");
        match e {
            Expr::Binary(BinOp::Mul, l, _) => assert!(matches!(*l, Expr::Neg(_))),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn parenthesised_comparison_stays_logical() {
        assert!(one_expr("(a + b) <= b").is_logical());
        assert!(!one_expr("a + (b < c)").is_logical());
        assert!(one_expr("((a < b))").is_logical());
    }

    #[test]
    fn assignment_statement_and_nested_assignment() {
        let e = one_expr("x = 3 + 4");
        assert!(matches!(e, Expr::Assign(ref n, Binding::Temp(0), _) if n == "x"));
        assert!(!e.is_logical());

        let e = one_expr("x = y = 2");
        match e {
            Expr::Assign(_, _, rhs) => assert!(matches!(*rhs, Expr::Assign(_, _, _))),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn builtin_call() {
        let e = one_expr("log10(x) < 3");
        assert!(e.is_logical());
        match e {
            Expr::Binary(BinOp::Lt, l, _) => {
                assert!(matches!(*l, Expr::Call(ref n, _) if n == "log10"));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn host_assignments_route_to_host_lists() {
        let r = req("user_denied_host1 = 137.132.90.182\nuser_preferred_host1 = sagit.ddns.comp.nus.edu.sg\nuser_denied_host2 = titan-x\n");
        assert_eq!(r.stmts.len(), 3);
        assert_eq!(
            r.stmts[0],
            Stmt::HostAssign { param: "user_denied_host1".into(), host: "137.132.90.182".into() }
        );
        assert_eq!(
            r.stmts[1],
            Stmt::HostAssign {
                param: "user_preferred_host1".into(),
                host: "sagit.ddns.comp.nus.edu.sg".into()
            }
        );
        assert_eq!(
            r.stmts[2],
            Stmt::HostAssign { param: "user_denied_host2".into(), host: "titan-x".into() }
        );
    }

    #[test]
    fn ordinary_var_assignment_is_not_a_host_assign() {
        let r = req("threshold = 42");
        assert!(matches!(r.stmts[0], Stmt::Expr(Expr::Assign(_, _, _))));
    }

    #[test]
    fn multiline_requirements_count_logical_statements() {
        let r = req("host_cpu_free > 0.9\nlimit = 5\nhost_system_load1 < limit\n");
        assert_eq!(r.stmts.len(), 3);
        assert_eq!(r.logical_count(), 2);
    }

    #[test]
    fn errors_on_garbage() {
        let toks = Lexer::new("a + * b").tokenize().unwrap();
        assert!(parse(&toks).is_err());
        let toks = Lexer::new("(a < b").tokenize().unwrap();
        assert!(parse(&toks).is_err());
        let toks = Lexer::new("a b").tokenize().unwrap();
        assert!(parse(&toks).is_err());
        let toks = Lexer::new("user_denied_host1 = <").tokenize().unwrap();
        assert!(parse(&toks).is_err(), "an operator is not a host designator");
        let toks = Lexer::new("user_denied_host1 = 5 + 5").tokenize().unwrap();
        assert!(parse(&toks).is_err(), "host designator must be a single host token");
    }

    #[test]
    fn empty_and_comment_only_inputs_parse_to_empty() {
        assert_eq!(req("").stmts.len(), 0);
        assert_eq!(req("# just a comment\n\n#another\n").stmts.len(), 0);
    }

    #[test]
    fn nesting_is_bounded_at_every_recursion_source() {
        fn parses(s: &str) -> bool {
            parse(&Lexer::new(s).tokenize().unwrap()).is_ok()
        }
        // Every way the grammar recurses, at the deepest the bound admits
        // and one level past it. The statement itself is level one; the
        // last link of a left-associative chain also counts its right
        // operand, and a right-associative link is a level of its own plus
        // the recursion into its right operand.
        type Shape = fn(usize) -> String;
        let shapes: [(&str, usize, Shape); 6] = [
            ("parentheses", MAX_NEST - 1, |k| format!("{}1{}", "(".repeat(k), ")".repeat(k))),
            ("unary minus", MAX_NEST - 1, |k| format!("{}1", "-".repeat(k))),
            ("nested assignment", MAX_NEST - 1, |k| format!("{}1", "a = ".repeat(k))),
            ("call arguments", MAX_NEST - 1, |k| format!("{}1{}", "abs(".repeat(k), ")".repeat(k))),
            ("left-associative chain", MAX_NEST - 2, |k| format!("1{}", " + 1".repeat(k))),
            ("power chain", (MAX_NEST - 1) / 2, |k| format!("2{}", " ^ 2".repeat(k))),
        ];
        for (what, deepest, shape) in shapes {
            assert!(parses(&shape(deepest)), "{what}: {deepest} levels must parse");
            assert!(!parses(&shape(deepest + 1)), "{what}: {} levels must not", deepest + 1);
        }
    }

    #[test]
    fn a_datagram_sized_nest_is_a_parse_error_not_a_stack_overflow() {
        // The two requests that aborted the daemon: each fits one datagram.
        let parens = format!("{}1{} > 0", "(".repeat(2040), ")".repeat(2040));
        let chain = format!("1{} > 0", "+1".repeat(2039));
        for src in [parens, chain] {
            let err = parse(&Lexer::new(&src).tokenize().unwrap()).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{}", err.message);
        }
        // Nesting does not accumulate across statements or operands.
        let wide = format!("{}\n", "((1)) + ((1)) > (0)".to_owned()).repeat(200);
        assert_eq!(req(&wide).stmts.len(), 200);
    }
}
