//! The executable form of a requirement: a flat postfix program, as `hoc`
//! — where the thesis's grammar actions come from — generates code for a
//! stack machine. [`Program::lower`] runs once per request,
//! [`crate::Evaluator`] runs the result once per candidate server.
//! Lowering keeps every ordering of Fig 4.2 a requirement can observe:
//!
//! * operands are emitted left to right, so a side effect (`x = 1`) placed
//!   before a failing operand still happens, and the first error in source
//!   order is the one reported;
//! * the checks the actions make *before* descending — assignment to a
//!   server or user-host variable, call of an unknown function — become a
//!   lone [`Op::Fail`] in place of the operand, whose own side effects and
//!   errors therefore never happen;
//! * literal-only subtrees are folded by the interpreter's own operations
//!   ([`apply`], the builtins) in the same order, so bit-identically; a
//!   division by zero is left for run time, where it is an error.
//!
//! It also records the *tests*: statements whose whole code is one
//! `ServerBin(var, op, c)` with a logical `op`, which [`apply`] cannot fail
//! on. Where `var` is defined a test is 1 or 0 ([`holds`]): a failing one
//! leaves the server unqualified (`server_ok *= 0`) whatever the other
//! statements do, and tests alone qualify it exactly when all hold. A `var`
//! that may be undefined (security, service, monitor) is an error instead.

use crate::ast::{BinOp, Binding, Expr, Stmt};
use crate::eval::EvalError;
use crate::vars::{ServerVar, BUILTINS};

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

impl Program {
    /// Lower the expression statements of a parsed requirement. `temps` is
    /// the parser's slot table: what each `Binding::Temp` stands for.
    pub(crate) fn lower(stmts: &[Stmt], temps: Vec<(String, Option<f64>)>) -> Program {
        let ops = Vec::with_capacity(2 * stmts.len());
        let mut p = Program { ops, stmts: Vec::with_capacity(stmts.len()), temps, tests: vec![] };
        for stmt in stmts {
            let Stmt::Expr(e) = stmt else { continue }; // host lists are request-level
            let start = p.ops.len();
            p.expr(e);
            if let Some(&[Op::ServerBin(var, op, c)]) = p.ops.get(start..) {
                p.tests.extend(op.is_logical().then_some((var, op, c)));
            }
            p.stmts.push((p.ops.len(), e.is_logical()));
        }
        p
    }

    /// Append the code of `e`. In postfix the last op of a subtree's code
    /// is its root, so a trailing `Num` *is* a subtree that folded to a
    /// literal, and a trailing `Server` is a bare variable reference.
    fn expr(&mut self, e: &Expr) {
        let fail = |e: EvalError| Op::Fail(Box::new(e));
        let op = match e {
            Expr::Number(n) => Op::Num(*n),
            Expr::NetAddr(a) => fail(EvalError::NetAddrInExpr(a.clone())),
            Expr::Paren(inner) => return self.expr(inner),
            Expr::Var(name, binding) => match *binding {
                Binding::UserHost => fail(EvalError::UserHostVarInExpr(name.clone())),
                Binding::Server(var) => Op::Server(var),
                Binding::Temp(slot) => Op::Temp(slot),
            },
            Expr::Assign(name, binding, rhs) => match *binding {
                Binding::Server(_) => fail(EvalError::AssignToServerVar(name.clone())),
                Binding::UserHost => fail(EvalError::UserHostVarInExpr(name.clone())),
                Binding::Temp(slot) => {
                    self.expr(rhs);
                    Op::Store(slot)
                }
            },
            Expr::Call(name, arg) => match BUILTINS.iter().enumerate().find(|(_, b)| b.0 == name) {
                None => fail(EvalError::UnknownFunction(name.clone())),
                Some((i, (_, f))) => self.unary(arg, f, Op::Call(i)),
            },
            Expr::Neg(inner) => self.unary(inner, |x| -x, Op::Neg),
            Expr::Binary(op, lhs, rhs) => {
                self.expr(lhs);
                self.expr(rhs);
                match *self.ops.as_slice() {
                    [.., Op::Num(a), Op::Num(b)] => match apply(*op, a, b) {
                        Ok(v) => self.fold(2, Op::Num(v)),
                        Err(_) => Op::Bin(*op),
                    },
                    [.., Op::Server(var), Op::Num(c)] => self.fold(2, Op::ServerBin(var, *op, c)),
                    _ => Op::Bin(*op),
                }
            }
        };
        self.ops.push(op);
    }

    /// The code of `op` applied to `inner`: folded when `inner` is literal.
    fn unary(&mut self, inner: &Expr, f: impl Fn(f64) -> f64, op: Op) -> Op {
        self.expr(inner);
        match self.ops.last() {
            Some(Op::Num(x)) => self.fold(1, Op::Num(f(*x))),
            _ => op,
        }
    }

    /// The last `n` ops folded into `op`, which the caller pushes.
    fn fold(&mut self, n: usize, op: Op) -> Op {
        self.ops.truncate(self.ops.len().saturating_sub(n));
        op
    }
}
