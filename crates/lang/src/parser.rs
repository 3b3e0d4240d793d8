//! Recursive-descent / precedence-climbing parser for the grammar of paper
//! Fig 4.2, which emits the requirement's postfix program as it reduces —
//! as `hoc`'s yacc actions do. There is no tree.
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
//! `user_preferred_hostN` / `user_denied_hostN` take a host designator (IP,
//! domain name or bare host name) on the right-hand side and go to the
//! requirement's [`crate::HostLists`]; every other statement is an
//! expression, whose code the parser appends to the program. Every name is
//! resolved once, here. The code keeps every ordering of Fig 4.2 a
//! requirement can observe:
//!
//! * operands are emitted left to right, so a side effect (`x = 1`) placed
//!   before a failing operand still happens, and the first error in source
//!   order is the one reported;
//! * the checks the actions make *before* descending — assignment to a
//!   server or user-host variable, call of an unknown function — become a
//!   lone `Op::Fail` in place of the operand: the operand is still parsed
//!   (so its syntax errors and the temp slots it names are as before) and
//!   its code truncated, so its own side effects and errors never happen;
//! * literal-only operands are folded as they reduce, by the interpreter's
//!   own operations (`apply`, the builtins) in the same order, so
//!   bit-identically; a division by zero is left for run time, where it is
//!   an error. A variable against a folded literal becomes one `ServerBin`.
//!
//! The parser is the only thing that recurses over a requirement, and
//! `MAX_NEST` bounds it, so no requirement can overflow the stack of
//! whoever compiles it.

use smartsock_proto::addr::NetAddr;

use crate::eval::EvalError;
use crate::program::{apply, BinOp, Op, Requirement};
use crate::token::Token;
use crate::vars::{constant, is_user_host_var, user_host_polarity, ServerVar, BUILTINS};

/// How many levels — of the parser's own recursion, plus one per link of
/// an operator chain on the way — a requirement may nest before it is
/// refused. The paper's requirements nest ≤ 3.
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
    let mut p = Parser { tokens, pos: 0, depth: 0, req: Requirement::default() };
    while !p.at_end() {
        if p.eat(&Token::Newline) {
            continue; // blank / comment-only line
        }
        p.statement()?;
    }
    Ok(p.req)
}

/// What a name refers to. "Temps shadow server variables shadow
/// constants" is static: a server variable cannot be assigned, so no temp
/// can carry its name.
enum Binding {
    /// A `user_*_hostN` list variable — an error in any numeric position.
    UserHost,
    Server(ServerVar),
    /// Any other name: a temp slot, numbered by first appearance. Until
    /// assigned it reads as the constant of that name, or is UNDEF.
    Temp(u16),
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Nesting at the current position, counted against [`MAX_NEST`].
    depth: usize,
    /// What has been emitted so far.
    req: Requirement,
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

    /// One level further in, or the error that bounds it.
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
        let temps = &mut self.req.program.temps;
        let known = temps.iter().position(|(t, _)| t == name);
        let slot = known.unwrap_or_else(|| {
            temps.push((name.to_owned(), constant(name)));
            temps.len() - 1
        });
        u16::try_from(slot).map(Binding::Temp).map_err(|_| self.err("too many variables"))
    }

    fn ops(&mut self) -> &mut Vec<Op> {
        &mut self.req.program.ops
    }

    fn emit(&mut self, op: Op) {
        self.ops().push(op);
    }

    /// The code from `start` on replaced by a lone `Fail(e)`.
    fn fail_from(&mut self, start: usize, e: EvalError) {
        self.ops().truncate(start);
        self.emit(Op::Fail(Box::new(e)));
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

    fn statement(&mut self) -> Result<(), ParseError> {
        // user_*_hostN = <designator>
        if let (Some(Token::Ident(name)), Some(Token::Assign)) = (self.peek(), self.peek2()) {
            if let Some(preferred) = user_host_polarity(name) {
                self.bump(); // ident
                self.bump(); // '='
                let host = self.host_designator()?;
                self.expect_newline()?;
                let hosts = &mut self.req.hosts;
                let list = if preferred { &mut hosts.preferred } else { &mut hosts.denied };
                list.push(host);
                return Ok(());
            }
        }
        let start = self.ops().len();
        let logical = self.expr(0)?;
        self.expect_newline()?;
        let program = &mut self.req.program;
        if let Some(&[Op::ServerBin(var, op, c)]) = program.ops.get(start..) {
            program.tests.extend(op.is_logical().then_some((var, op, c)));
        }
        program.stmts.push((program.ops.len(), logical));
        Ok(())
    }

    /// Right-hand side of a user host-list assignment: one IP, domain name
    /// or bare host-name token, parsed as the wizard matches it.
    fn host_designator(&mut self) -> Result<NetAddr, ParseError> {
        let token = self.bump();
        let parsed = match token {
            Some(Token::NetAddr(a) | Token::Ident(a)) => a.parse().ok(),
            _ => None,
        };
        parsed.ok_or_else(|| ParseError {
            at: self.pos.saturating_sub(1),
            message: format!(
                "expected a host (IP, domain or host name), found {}",
                token.map_or("end of input".to_owned(), |t| t.to_string())
            ),
        })
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

    /// Emit the code of one expression; returns its `logic` flag, i.e.
    /// whether its *last reduction* is a logical operator. Parentheses
    /// keep the inner flag ("this op will not change logic value").
    fn expr(&mut self, min_prec: u8) -> Result<bool, ParseError> {
        let outer = self.depth;
        self.deepen()?;
        let mut logical = self.unary()?;
        while let Some(tok) = self.peek() {
            let Some((op, prec, right)) = Self::binop_of(tok) else { break };
            if prec < min_prec {
                break;
            }
            self.bump();
            self.deepen()?; // every link of a chain counts
            let next_min = if right { prec } else { prec + 1 };
            self.expr(next_min)?;
            self.binary(op);
            logical = op.is_logical();
        }
        self.depth = outer;
        Ok(logical)
    }

    /// Reduce `lhs OP rhs`, whose codes end the program. In postfix the
    /// last op of an operand's code is its root, so a trailing `Num` *is*
    /// an operand that folded to a literal, and a trailing `Server` is a
    /// bare variable reference.
    fn binary(&mut self, op: BinOp) {
        let folded = match *self.ops().as_slice() {
            [.., Op::Num(a), Op::Num(b)] => apply(op, a, b).ok().map(Op::Num),
            [.., Op::Server(var), Op::Num(c)] => Some(Op::ServerBin(var, op, c)),
            _ => None,
        };
        match folded {
            Some(folded) => self.fold(2, folded),
            None => self.emit(Op::Bin(op)),
        }
    }

    /// Reduce a one-operand `op` whose operand's code ends the program:
    /// folded by `f` when the operand is a literal.
    fn unary_op(&mut self, f: impl Fn(f64) -> f64, op: Op) {
        match self.ops().last() {
            Some(&Op::Num(x)) => self.fold(1, Op::Num(f(x))),
            _ => self.emit(op),
        }
    }

    /// The last `n` ops replaced by `op`.
    fn fold(&mut self, n: usize, op: Op) {
        let ops = self.ops();
        ops.truncate(ops.len().saturating_sub(n));
        ops.push(op);
    }

    fn unary(&mut self) -> Result<bool, ParseError> {
        if self.eat(&Token::Minus) {
            // `%prec UNARYMINUS`: binds tighter than * but looser than ^,
            // so -2^2 parses as -(2^2), matching hoc.
            self.expr(8)?;
            self.unary_op(|x| -x, Op::Neg);
            return Ok(false);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<bool, ParseError> {
        let at = self.pos;
        let start = self.ops().len();
        match self.bump() {
            Some(&Token::Number(n)) => self.emit(Op::Num(n)),
            Some(Token::NetAddr(a)) => {
                self.emit(Op::Fail(Box::new(EvalError::NetAddrInExpr(a.clone()))));
            }
            Some(Token::Ident(name)) => {
                if self.eat(&Token::LParen) {
                    // BLTIN '(' expr ')'
                    self.expr(0)?;
                    if !self.eat(&Token::RParen) {
                        return Err(self.err("expected ')' after function argument"));
                    }
                    match BUILTINS.iter().enumerate().find(|(_, (n, _))| n == name) {
                        Some((i, &(_, f))) => self.unary_op(f, Op::Call(i)),
                        None => self.fail_from(start, EvalError::UnknownFunction(name.clone())),
                    }
                } else if self.eat(&Token::Assign) {
                    // Nested assignment expression (hoc allows it).
                    let binding = self.bind(name)?;
                    self.expr(0)?;
                    match binding {
                        Binding::Temp(slot) => self.emit(Op::Store(slot)),
                        Binding::Server(_) => {
                            self.fail_from(start, EvalError::AssignToServerVar(name.clone()));
                        }
                        Binding::UserHost => {
                            self.fail_from(start, EvalError::UserHostVarInExpr(name.clone()));
                        }
                    }
                } else {
                    let op = match self.bind(name)? {
                        Binding::UserHost => {
                            Op::Fail(Box::new(EvalError::UserHostVarInExpr(name.clone())))
                        }
                        Binding::Server(var) => Op::Server(var),
                        Binding::Temp(slot) => Op::Temp(slot),
                    };
                    self.emit(op);
                }
            }
            Some(Token::LParen) => {
                let logical = self.expr(0)?;
                if !self.eat(&Token::RParen) {
                    return Err(self.err("expected ')'"));
                }
                return Ok(logical);
            }
            other => {
                return Err(ParseError {
                    at,
                    message: format!(
                        "expected an expression, found {}",
                        other.map_or("end of input".to_owned(), |t| t.to_string())
                    ),
                })
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexer;
    use crate::program::Program;
    use crate::HostLists;
    use BinOp::{Add, And, Eq, Gt, Lt, Mul, Or, Pow};
    use Op::{Bin, Neg, Num, Store, Temp};

    fn req(s: &str) -> Requirement {
        parse(&Lexer::new(s).tokenize().unwrap()).unwrap()
    }

    /// The code and the logic flag of a one-statement requirement.
    fn one_stmt(s: &str) -> (Vec<Op>, bool) {
        let p = req(s).program;
        assert_eq!(p.stmts.len(), 1, "expected one statement in {s:?}");
        (p.ops, p.stmts[0].1)
    }

    fn logical(s: &str) -> bool {
        one_stmt(s).1
    }

    #[test]
    fn precedence_arithmetic_before_comparison() {
        // (a+b) < (c*d)
        let code = vec![Temp(0), Temp(1), Bin(Add), Temp(2), Temp(3), Bin(Mul), Bin(Lt)];
        assert_eq!(one_stmt("a + b < c * d"), (code, true));
    }

    #[test]
    fn comparison_before_and_before_or() {
        let code = [
            Temp(0),
            Num(1.0),
            Bin(Lt),
            Temp(1),
            Num(2.0),
            Bin(Gt),
            Bin(And),
            Temp(2),
            Num(3.0),
            Bin(Eq),
            Bin(Or),
        ];
        assert_eq!(one_stmt("a < 1 && b > 2 || c == 3").0, code);
    }

    #[test]
    fn power_is_right_associative_and_tightest() {
        assert_eq!(one_stmt("a ^ b ^ c").0, [Temp(0), Temp(1), Temp(2), Bin(Pow), Bin(Pow)]);
        assert_eq!(one_stmt("2 ^ 3 ^ 2").0, [Num(512.0)], "2^(3^2), not (2^3)^2");
        // -2^2 = -(2^2)
        assert_eq!(one_stmt("-2 ^ 2").0, [Num(-4.0)]);
        assert_eq!(one_stmt("-a ^ 2").0, [Temp(0), Num(2.0), Bin(Pow), Neg]);
    }

    #[test]
    fn unary_minus_tighter_than_multiplication() {
        // -a * b is (-a) * b.
        assert_eq!(one_stmt("- a * b").0, [Temp(0), Neg, Temp(1), Bin(Mul)]);
    }

    #[test]
    fn parenthesised_comparison_stays_logical() {
        assert!(logical("(a + b) <= b"));
        assert!(!logical("a + (b < c)"));
        assert!(logical("((a < b))"));
    }

    #[test]
    fn logic_flag_follows_top_operator() {
        // The flag follows the top-most operator: the paper's own example
        // a + (b<c) is not logical.
        assert!(logical("(a + b) <= b"));
        assert!(!logical("a + (b < c)"));
        assert!(!logical("-(a < b)") && !logical("x = a < b") && !logical("abs(a < b)"));
    }

    #[test]
    fn parens_preserve_logic() {
        assert!(logical("(1 < 2)") && logical("((1 < 2))"));
        assert!(!logical("(1)") && !logical("((a + b))"));
    }

    #[test]
    fn assignment_statement_and_nested_assignment() {
        assert_eq!(one_stmt("x = 3 + 4"), (vec![Num(7.0), Store(0)], false));
        assert_eq!(one_stmt("x = y = 2").0, [Num(2.0), Store(1), Store(0)]);
    }

    #[test]
    fn builtin_call() {
        let log10 = BUILTINS.iter().position(|(n, _)| *n == "log10").unwrap();
        let code = vec![Temp(0), Op::Call(log10), Num(3.0), Bin(Lt)];
        assert_eq!(one_stmt("log10(x) < 3"), (code, true));
        assert_eq!(one_stmt("log10(100)").0, [Num(2.0)], "a literal argument folds");
    }

    #[test]
    fn checks_before_descending_replace_the_operand_with_a_fail() {
        let fail = |e| Op::Fail(Box::new(e));
        let host = |v: &str| fail(EvalError::UserHostVarInExpr(v.into()));
        let cases = [
            ("frob(x = 1/0)", vec![fail(EvalError::UnknownFunction("frob".into()))]),
            (
                "host_cpu_free = (x = 1)",
                vec![fail(EvalError::AssignToServerVar("host_cpu_free".into()))],
            ),
            ("(user_denied_host2 = x)", vec![host("user_denied_host2")]),
            (
                "user_denied_host1 + (x = 1)",
                vec![host("user_denied_host1"), Num(1.0), Store(0), Bin(Add)],
            ),
        ];
        for (src, code) in cases {
            let r = req(src);
            assert_eq!(r.program.ops, code, "{src:?}");
            // The operand was parsed all the same: its temp has its slot.
            assert_eq!(r.program.temps, [("x".to_owned(), None)], "{src:?}");
        }
        let addr = fail(EvalError::NetAddrInExpr("10.0.0.1".into()));
        assert_eq!(one_stmt("10.0.0.1 > 1").0, [addr, Num(1.0), Bin(Gt)]);
    }

    #[test]
    fn host_assignments_route_to_host_lists() {
        let r = req("user_denied_host1 = 137.132.90.182\nuser_preferred_host1 = sagit.ddns.comp.nus.edu.sg\nuser_denied_host2 = titan-x\n");
        let addrs = |names: &[&str]| names.iter().map(|n| n.parse().unwrap()).collect::<Vec<_>>();
        assert_eq!(r.hosts.denied, addrs(&["137.132.90.182", "titan-x"]));
        assert_eq!(r.hosts.preferred, addrs(&["sagit.ddns.comp.nus.edu.sg"]));
        assert_eq!(r.program, Program::default(), "host lists are request-level: no code");
    }

    #[test]
    fn ordinary_var_assignment_is_not_a_host_assign() {
        let r = req("threshold = 42");
        assert_eq!(r.program.ops, [Num(42.0), Store(0)]);
        assert_eq!(r.hosts, HostLists::default());
    }

    #[test]
    fn multiline_requirements_count_logical_statements() {
        let r = req("host_cpu_free > 0.9\nlimit = 5\nhost_system_load1 < limit\n");
        assert_eq!(r.program.stmts.len(), 3);
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
        assert_eq!(req(""), Requirement::empty());
        assert_eq!(req("# just a comment\n\n#another\n"), Requirement::empty());
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
        assert_eq!(req(&wide).program.stmts.len(), 200);
    }
}
