//! Abstract syntax of the requirement language (paper Fig 4.2).

use std::fmt;

use crate::program::Program;
use crate::vars::ServerVar;

/// Binary operators, split by whether they set the `logic` flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Pow,
}

impl BinOp {
    /// True for the operators whose reduction sets `logic = 1` in Fig 4.2.
    /// The value of a statement whose *top-most* operator is logical
    /// contributes to the server qualification product `server_ok`.
    pub fn is_logical(self) -> bool {
        matches!(
            self,
            BinOp::Or
                | BinOp::And
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
        };
        f.write_str(s)
    }
}

/// What a name refers to, decided once by the parser. "Temps shadow
/// server variables shadow constants" is static: a server variable cannot
/// be assigned, so no temp can carry its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Binding {
    /// A `user_*_hostN` list variable — an error in any numeric position.
    UserHost,
    Server(ServerVar),
    /// Any other name: a temp slot, numbered by first appearance. Until
    /// assigned it reads as the constant of that name, or is UNDEF.
    Temp(u16),
}

/// An expression node.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Number(f64),
    /// An IP or domain name literal; only meaningful on the right-hand side
    /// of user host-list assignments. Using one in a numeric position is an
    /// evaluation error (the thesis's grammar accepts it but assigns no
    /// value).
    NetAddr(String),
    /// A variable reference — temp, server-side, user-side or constant,
    /// as its binding says.
    Var(String, Binding),
    /// `VAR = expr` — defines/overwrites a temp variable; an expression in
    /// its own right (Fig 4.2 lists `asgn` as an `expr` production).
    Assign(String, Binding, Box<Expr>),
    /// `BLTIN '(' expr ')'` — one-argument math builtins of Appendix B.4.
    Call(String, Box<Expr>),
    /// Unary minus (`%prec UNARYMINUS`).
    Neg(Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `'(' expr ')'` — kept explicit because parentheses *preserve* the
    /// inner logic flag ("this op will not change logic value").
    Paren(Box<Expr>),
}

impl Expr {
    /// The `logic` flag this expression leaves behind, i.e. whether its
    /// *last reduction* is a logical operator. Statements with a true flag
    /// gate server qualification.
    pub fn is_logical(&self) -> bool {
        match self {
            Expr::Binary(op, _, _) => op.is_logical(),
            Expr::Paren(inner) => inner.is_logical(),
            _ => false,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Number(n) => write!(f, "{n}"),
            Expr::NetAddr(a) => write!(f, "{a}"),
            Expr::Var(v, _) => write!(f, "{v}"),
            Expr::Assign(v, _, e) => write!(f, "{v} = {e}"),
            Expr::Call(name, arg) => write!(f, "{name}({arg})"),
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::Binary(op, a, b) => write!(f, "{a} {op} {b}"),
            Expr::Paren(e) => write!(f, "({e})"),
        }
    }
}

/// One line of a requirement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// An ordinary expression statement (logical or not).
    Expr(Expr),
    /// `user_preferred_hostN = <host>` / `user_denied_hostN = <host>` —
    /// routed to the whitelist/blacklist rather than the numeric
    /// environment (§4.3 `store_uparams`).
    HostAssign {
        /// The user-side parameter name (`user_denied_host1`, ...).
        param: String,
        /// The host designator text: an IP, domain name or bare host name.
        host: String,
    },
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Expr(e) => write!(f, "{e}"),
            Stmt::HostAssign { param, host } => write!(f, "{param} = {host}"),
        }
    }
}

/// A compiled requirement: the statement list, its source text (kept for
/// diagnostics and for forwarding in the wire format) and the program the
/// statements were lowered to, which is what [`crate::Evaluator`] runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Requirement {
    pub stmts: Vec<Stmt>,
    pub source: String,
    pub(crate) program: Program,
}

impl Requirement {
    /// An empty requirement qualifies every live server (the paper's
    /// "Random" baseline sends `null` requirements).
    pub fn empty() -> Requirement {
        Requirement { stmts: Vec::new(), source: String::new(), program: Program::default() }
    }

    /// Render back to requirement text. For any compiled requirement,
    /// `compile(req.to_text())` yields the same statement list (Display
    /// for expressions keeps explicit parenthesis nodes, and the parser
    /// only builds precedence-consistent trees) — asserted by a property
    /// test in the workspace suite.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for stmt in &self.stmts {
            out.push_str(&stmt.to_string());
            out.push('\n');
        }
        out
    }

    /// Number of logical statements — the conditions a server must pass.
    pub fn logical_count(&self) -> usize {
        self.stmts.iter().filter(|s| matches!(s, Stmt::Expr(e) if e.is_logical())).count()
    }

    /// The tests — `server_var CMP constant` statements — in order (`program.rs`).
    pub fn tests(&self) -> &[(ServerVar, BinOp, f64)] {
        &self.program.tests
    }

    /// True when every expression statement is a test.
    pub fn tests_only(&self) -> bool {
        self.program.tests.len() == self.program.stmts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str, slot: u16) -> Box<Expr> {
        Box::new(Expr::Var(name.into(), Binding::Temp(slot)))
    }

    #[test]
    fn logic_flag_follows_top_operator() {
        // (a+b) <= b  — logical.
        let e = Expr::Binary(
            BinOp::Le,
            Box::new(Expr::Paren(Box::new(Expr::Binary(BinOp::Add, var("a", 0), var("b", 1))))),
            var("b", 1),
        );
        assert!(e.is_logical());

        // a + (b<c) — not logical (paper's own example).
        let e = Expr::Binary(
            BinOp::Add,
            var("a", 0),
            Box::new(Expr::Paren(Box::new(Expr::Binary(BinOp::Lt, var("b", 1), var("c", 2))))),
        );
        assert!(!e.is_logical());
    }

    #[test]
    fn parens_preserve_logic() {
        let cmp = Expr::Binary(BinOp::Lt, Box::new(Expr::Number(1.0)), Box::new(Expr::Number(2.0)));
        assert!(Expr::Paren(Box::new(cmp.clone())).is_logical());
        assert!(Expr::Paren(Box::new(Expr::Paren(Box::new(cmp)))).is_logical());
        assert!(!Expr::Paren(Box::new(Expr::Number(1.0))).is_logical());
    }

    #[test]
    fn display_roundtrips_reasonably() {
        let e = Expr::Binary(
            BinOp::Gt,
            Box::new(Expr::Var(
                "host_cpu_free".into(),
                Binding::Server(ServerVar::from_name("host_cpu_free").unwrap()),
            )),
            Box::new(Expr::Number(0.9)),
        );
        assert_eq!(e.to_string(), "host_cpu_free > 0.9");
    }
}
