//! The executable form of a requirement: a flat postfix program, as `hoc`
//! — where the thesis's grammar actions come from — generates code for a
//! stack machine. The parser emits it as it reduces (`parser.rs`, which
//! says how Fig 4.2's orderings survive), once per request;
//! [`crate::Evaluator`] runs it once per candidate server and
//! [`crate::may_qualify`] once per shard.
//!
//! The program also records the *tests*: statements whose whole code is
//! one `ServerBin(var, op, c)` with a logical `op`, which [`apply`] cannot
//! fail on. Where `var` is defined a test is 1 or 0 ([`holds`]): a failing
//! one leaves the server unqualified (`server_ok *= 0`) whatever the other
//! statements do, and tests alone qualify it exactly when all hold. A `var`
//! that may be undefined (security, service, monitor) is an error instead.

use crate::eval::{EvalError, HostLists};
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

/// One instruction of the stack machine. Each leaves one more value on
/// the stack than the operands it took.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Op {
    Num(f64),
    /// A server-side variable; `Undefined` when the provider has no value.
    Server(ServerVar),
    /// `server_var OP constant` in one step — the shape of nearly every
    /// statement the paper writes.
    ServerBin(ServerVar, BinOp, f64),
    /// A temp slot's value, or the constant behind it, or `Undefined`.
    Temp(u16),
    /// Assign the top of the stack to a temp slot; being an expression,
    /// the value stays.
    Store(u16),
    Neg,
    /// Apply `BUILTINS[i]` to the top of the stack.
    Call(usize),
    Bin(BinOp),
    /// Raise this error: a check Fig 4.2 makes before evaluating anything.
    Fail(Box<EvalError>),
}

#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Program {
    pub ops: Vec<Op>,
    /// Per expression statement, in order: where its ops end in `ops` (it
    /// starts where the previous one ended) and its `logic` flag.
    pub stmts: Vec<(usize, bool)>,
    /// Per temp slot: the name (for `Undefined`) and its initial value —
    /// the named constant it shadows, if any.
    pub temps: Vec<(String, Option<f64>)>,
    /// The tests among the expression statements, in order.
    pub tests: Vec<(ServerVar, BinOp, f64)>,
}

impl Program {
    /// Each expression statement's code and its `logic` flag, in order.
    pub fn statements(&self) -> impl Iterator<Item = (&[Op], bool)> {
        let mut start = 0;
        self.stmts.iter().map(move |&(end, logical)| {
            let ops = self.ops.get(start..end).unwrap_or_default();
            start = end;
            (ops, logical)
        })
    }
}

/// A compiled requirement: the program its expression statements became,
/// which is what [`crate::Evaluator`] runs, and the host lists its
/// `user_*_hostN` statements named.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Requirement {
    pub(crate) program: Program,
    pub(crate) hosts: HostLists,
}

impl Requirement {
    /// An empty requirement qualifies every live server (the paper's
    /// "Random" baseline sends `null` requirements).
    pub fn empty() -> Requirement {
        Requirement::default()
    }

    /// Number of logical statements — the conditions a server must pass.
    pub fn logical_count(&self) -> usize {
        self.program.stmts.iter().filter(|&&(_, logical)| logical).count()
    }

    /// The tests — `server_var CMP constant` statements — in order.
    pub fn tests(&self) -> &[(ServerVar, BinOp, f64)] {
        &self.program.tests
    }

    /// True when every expression statement is a test.
    pub fn tests_only(&self) -> bool {
        self.program.tests.len() == self.program.stmts.len()
    }
}

/// The value of `a OP b` — the one spelling of the language's binary
/// operators, shared by the folder and the interpreter.
#[inline]
pub(crate) fn apply(op: BinOp, a: f64, b: f64) -> Result<f64, EvalError> {
    let truth = |v: bool| if v { 1.0 } else { 0.0 };
    Ok(match op {
        BinOp::Or => truth(a != 0.0 || b != 0.0),
        BinOp::And => truth(a != 0.0 && b != 0.0),
        BinOp::Eq => truth(a == b),
        BinOp::Ne => truth(a != b),
        BinOp::Lt => truth(a < b),
        // Fig 4.2 spells these as disjunctions: ($1<$3)||($1==$3).
        BinOp::Le => truth(a <= b),
        BinOp::Gt => truth(a > b),
        BinOp::Ge => truth(a >= b),
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div if b == 0.0 => return Err(EvalError::DivisionByZero),
        BinOp::Div => a / b,
        BinOp::Pow => a.powf(b),
    })
}

/// Whether `a OP b` is true: the verdict of a test whose variable reads `a`.
#[inline]
pub fn holds(op: BinOp, a: f64, b: f64) -> bool {
    apply(op, a, b).is_ok_and(|v| v != 0.0)
}
