//! Requirement evaluation against one candidate server (paper Fig 4.2).
//!
//! The bison actions of Fig 4.2 keep two pieces of mutable state while a
//! requirement runs: a `logic` flag recording whether the last reduction
//! was a logical operator, and `server_ok`, the running *product* of all
//! logical statement values. This module reproduces that machine:
//!
//! * every logical statement must evaluate true (nonzero) for the server to
//!   qualify — `server_ok *= value`;
//! * non-logical statements (assignments, arithmetic) update the temp-var
//!   environment but never the verdict;
//! * execution errors (`undefined variable`, `division by 0`) disqualify
//!   the server — the paper's `execerror` aborts matching for that server,
//!   and an uninitialised temp in a logical statement "will be considered
//!   as a false statement".
//!
//! What runs is the postfix program the parser emitted (`parser.rs` says
//! how Fig 4.2's orderings survive in it): one loop over the ops, a value
//! stack and a temp-slot array in the frame (the heap only for a
//! requirement too large for them, or to report an error), every name
//! resolved when the requirement was compiled. There is no other
//! evaluator outside the test module, whose reference interpreter —
//! evaluating as it parses the tokens, sharing only the lexer and the
//! variable tables — is the oracle this one is property-tested against.

use std::collections::BTreeMap;

use smartsock_proto::addr::NetAddr;

use crate::program::{apply, Op, Program, Requirement};
use crate::vars::{ServerVar, BUILTINS};

/// Supplies the values of server-side variables for one candidate server.
///
/// The wizard implements this over its status databases; tests use
/// [`MapVars`].
pub trait VarProvider {
    /// Value of a server-side variable, or `None` if unknown/unsupported.
    fn lookup(&self, var: ServerVar) -> Option<f64>;
}

/// Simple `VarProvider` backed by a map — for tests and the harness.
#[derive(Clone, Debug, Default)]
pub struct MapVars {
    pub vars: BTreeMap<String, f64>,
}

impl MapVars {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.vars.insert(name.to_owned(), value);
        self
    }
}

impl VarProvider for MapVars {
    fn lookup(&self, var: ServerVar) -> Option<f64> {
        self.vars.get(var.name()).copied()
    }
}

/// The preferred/denied host lists of a requirement (`store_uparams` in
/// Fig 4.2), collected and parsed by the parser; [`Requirement::hosts`]
/// lends them. Order follows statement order; the wizard gives earlier
/// preferred hosts priority.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HostLists {
    pub preferred: Vec<NetAddr>,
    pub denied: Vec<NetAddr>,
}

/// An error raised while evaluating a requirement for one server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// `execerror("undefined variable", name)`.
    Undefined(String),
    /// `execerror("division by 0", "")`.
    DivisionByZero,
    /// A network address literal used where a number is required.
    NetAddrInExpr(String),
    /// Attempt to overwrite a server-side variable.
    AssignToServerVar(String),
    /// Attempt to use a user host-list variable in a numeric expression.
    UserHostVarInExpr(String),
    /// Call of a function that is not in Appendix B.4.
    UnknownFunction(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Undefined(v) => write!(f, "undefined variable {v}"),
            EvalError::DivisionByZero => f.write_str("division by 0"),
            EvalError::NetAddrInExpr(a) => write!(f, "network address {a} used as a number"),
            EvalError::AssignToServerVar(v) => write!(f, "cannot assign to server variable {v}"),
            EvalError::UserHostVarInExpr(v) => {
                write!(f, "user host variable {v} used as a number")
            }
            EvalError::UnknownFunction(name) => write!(f, "unknown function {name}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The verdict for one candidate server.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// True when every logical statement held and no execution error
    /// occurred — the server is a candidate.
    pub qualified: bool,
    /// How many logical statements evaluated true.
    pub statements_true: usize,
    /// Total number of logical statements evaluated.
    pub statements_total: usize,
    /// Execution errors encountered (each disqualifies the server).
    pub errors: Vec<EvalError>,
}

/// Evaluates compiled requirements against [`VarProvider`]s.
///
/// An `Evaluator` is stateless between calls; temp variables live only for
/// the duration of one `evaluate` call, exactly as the wizard resets its
/// symbol table per server (§3.6.1 step 3).
#[derive(Clone, Copy, Debug, Default)]
pub struct Evaluator;

/// Value-stack and temp slots kept in `evaluate`'s (and `may_qualify`'s)
/// frame; the paper's longest statement compiles to 7 ops, and its
/// requirements use one temp.
pub(crate) const FRAME_STACK: usize = 16;
pub(crate) const FRAME_TEMPS: usize = 8;

impl Evaluator {
    /// Run `req` against one server's variables: the interpreter loop.
    #[inline]
    pub fn evaluate<P: VarProvider + ?Sized>(req: &Requirement, provider: &P) -> Decision {
        let prog = &req.program;
        let mut d = Decision {
            qualified: true,
            statements_true: 0,
            statements_total: 0,
            errors: Vec::new(),
        };
        let (mut stack, mut temps) = ([0.0; FRAME_STACK], [None; FRAME_TEMPS]);
        let (mut big_stack, mut big_temps) = (Vec::new(), Vec::new());
        let temps = slots(&mut temps, &mut big_temps, prog.temps.len(), None);
        for (slot, (_, shadowed)) in temps.iter_mut().zip(&prog.temps) {
            *slot = *shadowed;
        }
        for (ops, logical) in prog.statements() {
            // A statement never stacks more values than it has ops.
            let stack = slots(&mut stack, &mut big_stack, ops.len(), 0.0);
            d.statements_total += usize::from(logical);
            match exec(ops, prog, provider, stack, temps) {
                Ok(_) if !logical => {}
                // server_ok *= $2
                Ok(v) if v != 0.0 => d.statements_true += 1,
                Ok(_) => d.qualified = false,
                // execerror: the statement yields no value; a logical
                // statement is "considered a false statement", and any
                // error leaves the server unqualified.
                Err(e) => {
                    d.errors.push(e);
                    d.qualified = false;
                }
            }
        }
        d
    }
}

/// `n` slots of `fill`: the frame's if it has that many, else the heap's.
pub(crate) fn slots<'a, T: Copy>(
    frame: &'a mut [T],
    heap: &'a mut Vec<T>,
    n: usize,
    fill: T,
) -> &'a mut [T] {
    if n > frame.len() {
        heap.resize(n, fill);
        return heap;
    }
    frame.get_mut(..n).unwrap_or_default()
}

/// One statement: its value, or the first error in evaluation order.
/// Temp assignments made before an error stay made.
#[inline]
fn exec<P: VarProvider + ?Sized>(
    ops: &[Op],
    prog: &Program,
    provider: &P,
    stack: &mut [f64],
    temps: &mut [Option<f64>],
) -> Result<f64, EvalError> {
    let server = |var: ServerVar| {
        provider.lookup(var).ok_or_else(|| EvalError::Undefined(var.name().to_owned()))
    };
    // `stack[..sp]` is live. The caller sized the stack for these ops, so
    // the `get`s cannot miss; they are there instead of a panic.
    let mut sp = 0usize;
    let pop = |stack: &[f64], sp: &mut usize| {
        *sp = sp.saturating_sub(1);
        stack.get(*sp).copied().unwrap_or_default()
    };
    for op in ops {
        let value = match op {
            Op::Num(n) => *n,
            Op::Server(var) => server(*var)?,
            Op::ServerBin(var, op, c) => apply(*op, server(*var)?, *c)?,
            Op::Temp(slot) => {
                temps.get(usize::from(*slot)).copied().flatten().ok_or_else(|| {
                    let name = prog.temps.get(usize::from(*slot)).map(|(n, _)| n.clone());
                    EvalError::Undefined(name.unwrap_or_default())
                })?
            }
            Op::Store(slot) => {
                let v = pop(stack, &mut sp);
                if let Some(t) = temps.get_mut(usize::from(*slot)) {
                    *t = Some(v);
                }
                v
            }
            Op::Neg => -pop(stack, &mut sp),
            Op::Call(i) => {
                let x = pop(stack, &mut sp);
                BUILTINS.get(*i).map_or(x, |(_, f)| f(x))
            }
            Op::Bin(op) => {
                let b = pop(stack, &mut sp);
                apply(*op, pop(stack, &mut sp), b)?
            }
            Op::Fail(e) => return Err((**e).clone()),
        };
        if let Some(top) = stack.get_mut(sp) {
            *top = value;
        }
        sp += 1;
    }
    Ok(pop(stack, &mut sp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::{MONITOR_VARS, SERVER_VARS, SERVICE_VARS};
    use crate::{compile, holds, may_qualify, BinOp, MapRanges};
    use smartsock_sim::rng::{cases, SimRng};

    fn vars() -> MapVars {
        MapVars::new()
            .with("host_cpu_free", 0.95)
            .with("host_system_load1", 0.2)
            .with("host_memory_free", 200.0 * 1024.0 * 1024.0)
            .with("host_cpu_bogomips", 4771.02)
            .with("monitor_network_bw", 6.72)
    }

    fn check(src: &str, provider: &MapVars) -> Decision {
        Evaluator::evaluate(&compile(src).unwrap(), provider)
    }

    #[test]
    fn all_logical_statements_must_hold() {
        let v = vars();
        let d = check("host_cpu_free > 0.9\nhost_system_load1 < 1\n", &v);
        assert!(d.qualified);
        assert_eq!((d.statements_true, d.statements_total), (2, 2));

        let d = check("host_cpu_free > 0.9\nhost_system_load1 < 0.1\n", &v);
        assert!(!d.qualified);
        assert_eq!((d.statements_true, d.statements_total), (1, 2));
    }

    #[test]
    fn non_logical_statements_never_disqualify() {
        let v = vars();
        // `100 > 0` is trivially true; arithmetic lines are ignored for the
        // verdict even when their value is zero.
        let d = check("x = 0\nx * 5\n100 > 0\n", &v);
        assert!(d.qualified);
        assert_eq!(d.statements_total, 1);
    }

    #[test]
    fn temp_variables_thread_between_statements() {
        let v = vars();
        let d = check("limit = 0.5 + 0.5\nhost_system_load1 < limit\n", &v);
        assert!(d.qualified);
    }

    #[test]
    fn undefined_temp_in_logical_statement_is_false() {
        let v = vars();
        let d = check("host_cpu_free > never_defined\n", &v);
        assert!(!d.qualified);
        assert_eq!(d.errors, vec![EvalError::Undefined("never_defined".into())]);
    }

    #[test]
    fn division_by_zero_is_an_execerror() {
        let v = vars();
        let d = check("x = 1 / 0\n", &v);
        assert!(!d.qualified);
        assert_eq!(d.errors, vec![EvalError::DivisionByZero]);
    }

    #[test]
    fn papers_table_5_3_requirement() {
        // (host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) &&
        // (host_memory_free > 5MB)
        let src = "(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && (host_memory_free > 5*1024*1024)\n";
        let fast = vars();
        assert!(check(src, &fast).qualified);
        let slow = MapVars::new()
            .with("host_cpu_bogomips", 1730.15)
            .with("host_cpu_free", 0.99)
            .with("host_memory_free", 100e6);
        assert!(!check(src, &slow).qualified);
    }

    #[test]
    fn papers_table_5_4_disjunctive_requirement() {
        // ((bogomips > 4000) || (bogomips < 2000)) && cpu_free > 0.9 ...
        let src =
            "((host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)) && (host_cpu_free > 0.9)\n";
        let p3 = MapVars::new().with("host_cpu_bogomips", 1730.15).with("host_cpu_free", 0.95);
        let p4_24 = MapVars::new().with("host_cpu_bogomips", 4771.02).with("host_cpu_free", 0.95);
        let p4_17 = MapVars::new().with("host_cpu_bogomips", 3394.76).with("host_cpu_free", 0.95);
        assert!(Evaluator::evaluate(&compile(src).unwrap(), &p3).qualified);
        assert!(Evaluator::evaluate(&compile(src).unwrap(), &p4_24).qualified);
        assert!(!Evaluator::evaluate(&compile(src).unwrap(), &p4_17).qualified);
    }

    #[test]
    fn builtins_and_constants_work_in_requirements() {
        let v = vars();
        assert!(check("log10(100) == 2\n", &v).qualified);
        assert!(check("sqrt(16) == 4\n", &v).qualified);
        assert!(check("PI > 3.14 && PI < 3.15\n", &v).qualified);
        assert!(check("exp(0) == 1\n", &v).qualified);
        let d = check("frob(1) > 0\n", &v);
        assert!(!d.qualified);
        assert_eq!(d.errors, vec![EvalError::UnknownFunction("frob".into())]);
    }

    #[test]
    fn meaningless_tautology_qualifies_everything() {
        // The paper warns: "A meaningless statement like 100 > 0 will make
        // any server as a qualified candidate."
        let empty = MapVars::new();
        assert!(check("100 > 0\n", &empty).qualified);
    }

    #[test]
    fn server_vars_are_read_only() {
        let v = vars();
        let d = check("host_cpu_free = 1\n", &v);
        assert!(!d.qualified);
        assert_eq!(d.errors, vec![EvalError::AssignToServerVar("host_cpu_free".into())]);
    }

    #[test]
    fn names_that_only_resemble_server_variables_stay_assignable_temps() {
        let src = "host_service_quantum = 1\nhost_service_quantum > 0\nhost_gpu_count > 0\n";
        let d = check(src, &vars());
        assert_eq!((d.statements_true, d.statements_total), (1, 2));
        assert_eq!(d.errors, vec![EvalError::Undefined("host_gpu_count".into())]);
    }

    #[test]
    fn netaddr_in_numeric_position_is_an_error() {
        let v = vars();
        let d = check("x = 137.132.90.182 + 1\n", &v);
        assert!(!d.qualified);
        assert!(matches!(d.errors[0], EvalError::NetAddrInExpr(_)));
    }

    #[test]
    fn host_lists_are_extracted_in_order() {
        let req = compile(
            "user_denied_host1 = telesto\nuser_denied_host2 = mimas\nuser_preferred_host1 = sagit.comp.nus.edu.sg\nhost_cpu_free > 0.5\n",
        )
        .unwrap();
        let lists = req.hosts();
        let addrs = |names: &[&str]| names.iter().map(|n| n.parse().unwrap()).collect::<Vec<_>>();
        assert_eq!(lists.denied, addrs(&["telesto", "mimas"]));
        assert_eq!(lists.preferred, addrs(&["sagit.comp.nus.edu.sg"]));
        // Host assignments are invisible to per-server evaluation.
        let d = Evaluator::evaluate(&req, &vars());
        assert_eq!(d.statements_total, 1);
        assert!(d.qualified);
    }

    #[test]
    fn empty_requirement_qualifies_like_the_random_baseline() {
        let d = Evaluator::evaluate(&Requirement::empty(), &MapVars::new());
        assert!(d.qualified);
        assert_eq!(d.statements_total, 0);
    }

    #[test]
    fn and_or_operate_on_truthiness_of_numbers() {
        let v = MapVars::new();
        assert!(check("2 && 3\n", &v).qualified);
        assert!(!check("0 && 3\n", &v).qualified);
        assert!(check("0 || 0.5\n", &v).qualified);
        assert!(!check("0 || 0\n", &v).qualified);
    }

    #[test]
    fn le_ge_match_fig_4_2_disjunction_spelling() {
        let v = MapVars::new();
        assert!(check("1 <= 1\n", &v).qualified);
        assert!(check("1 >= 1\n", &v).qualified);
        assert!(check("0.999 <= 1\n", &v).qualified);
        assert!(!check("1.001 <= 1\n", &v).qualified);
    }

    // ---- program ≡ reference interpreter --------------------------------
    //
    // The oracle evaluates while it parses the token stream, as a `hoc`
    // without code generation would: it classifies every name by string
    // when it meets it and spells the precedence and the operators itself.
    // It shares only the lexer and the variable tables with the crate —
    // nothing of the parser or the program, not even `apply`.

    mod reference {
        use std::collections::BTreeMap;

        use super::super::{Decision, EvalError, MapVars};
        use crate::lexer::Lexer;
        use crate::token::Token;
        use crate::vars::{builtin_fn, constant, is_server_var, is_user_host_var};

        type Value = Result<f64, EvalError>;

        /// Run `src`, which compiles, against one server.
        pub fn evaluate(src: &str, vars: &MapVars) -> Decision {
            let tokens = Lexer::new(src).tokenize().expect("the source lexes");
            let mut r = Reference { tokens: &tokens, pos: 0, vars, temps: BTreeMap::new() };
            let mut d = Decision {
                qualified: true,
                statements_true: 0,
                statements_total: 0,
                errors: vec![],
            };
            while r.pos < tokens.len() {
                if r.eat(&Token::Newline) {
                    continue;
                }
                if let (Some(Token::Ident(name)), Some(Token::Assign)) = (r.peek(0), r.peek(1)) {
                    if is_user_host_var(name) {
                        r.pos += 3; // a host-list line: request-level, never run
                        continue;
                    }
                }
                let (value, logical) = r.expr(0, true);
                d.statements_total += usize::from(logical);
                match value {
                    Ok(v) if logical && v != 0.0 => d.statements_true += 1,
                    Ok(_) if logical => d.qualified = false,
                    Ok(_) => {}
                    Err(e) => {
                        d.errors.push(e);
                        d.qualified = false;
                    }
                }
            }
            d
        }

        struct Reference<'a> {
            tokens: &'a [Token],
            pos: usize,
            vars: &'a MapVars,
            temps: BTreeMap<String, f64>,
        }

        impl Reference<'_> {
            fn peek(&self, k: usize) -> Option<&Token> {
                self.tokens.get(self.pos + k)
            }

            fn eat(&mut self, tok: &Token) -> bool {
                let hit = self.peek(0) == Some(tok);
                self.pos += usize::from(hit);
                hit
            }

            fn next(&mut self) -> Token {
                self.pos += 1;
                self.tokens[self.pos - 1].clone()
            }

            /// One expression binding at least as tightly as `min`: its
            /// value and its logic flag. Only a `live` expression runs; one
            /// after an error, or under a check that fails before
            /// descending, is parsed and nothing else.
            fn expr(&mut self, min: u8, live: bool) -> (Value, bool) {
                let (mut value, mut logical) = if self.eat(&Token::Minus) {
                    (self.expr(8, live).0.map(|x| -x), false)
                } else {
                    self.primary(live)
                };
                while let Some((power, right)) = self.peek(0).and_then(binding_power) {
                    if power < min {
                        break;
                    }
                    let op = self.next();
                    let next = if right { power } else { power + 1 };
                    let (rhs, _) = self.expr(next, live && value.is_ok());
                    value = value.and_then(|a| rhs.and_then(|b| binary(&op, a, b)));
                    logical = power <= 4;
                }
                (value, logical)
            }

            fn primary(&mut self, live: bool) -> (Value, bool) {
                let value = match self.next() {
                    Token::Number(n) => Ok(n),
                    Token::NetAddr(a) => Err(EvalError::NetAddrInExpr(a)),
                    Token::LParen => {
                        let inner = self.expr(0, live);
                        self.pos += 1; // ')'
                        return inner;
                    }
                    Token::Ident(name) if self.eat(&Token::LParen) => {
                        let f = builtin_fn(&name);
                        let (arg, _) = self.expr(0, live && f.is_some());
                        self.pos += 1; // ')'
                        f.ok_or(EvalError::UnknownFunction(name)).and_then(|f| arg.map(f))
                    }
                    Token::Ident(name) if self.eat(&Token::Assign) => {
                        let refused = if is_server_var(&name) {
                            Some(EvalError::AssignToServerVar(name.clone()))
                        } else if is_user_host_var(&name) {
                            Some(EvalError::UserHostVarInExpr(name.clone()))
                        } else {
                            None
                        };
                        let (value, _) = self.expr(0, live && refused.is_none());
                        match (refused, value) {
                            (Some(e), _) => Err(e),
                            (None, Ok(v)) if live => {
                                self.temps.insert(name, v);
                                Ok(v)
                            }
                            (None, value) => value,
                        }
                    }
                    Token::Ident(name) => self.read(&name),
                    other => panic!("{other} starts no expression of a compiled requirement"),
                };
                (value, false)
            }

            /// Temps shadow server variables shadow constants; a name known
            /// nowhere is UNDEF.
            fn read(&self, name: &str) -> Value {
                if is_user_host_var(name) {
                    return Err(EvalError::UserHostVarInExpr(name.to_owned()));
                }
                if let Some(v) = self.temps.get(name) {
                    return Ok(*v);
                }
                let server = self.vars.vars.get(name).filter(|_| is_server_var(name));
                server
                    .copied()
                    .or_else(|| constant(name))
                    .ok_or_else(|| EvalError::Undefined(name.to_owned()))
            }
        }

        /// `hoc`'s precedence: (binding power, right associative). The
        /// logical operators are the ones at power 4 and below.
        fn binding_power(tok: &Token) -> Option<(u8, bool)> {
            Some(match tok {
                Token::Or => (1, false),
                Token::And => (2, false),
                Token::EqEq | Token::Ne => (3, false),
                Token::Lt | Token::Le | Token::Gt | Token::Ge => (4, false),
                Token::Plus | Token::Minus => (5, false),
                Token::Star | Token::Slash => (6, false),
                Token::Caret => (8, true),
                _ => return None,
            })
        }

        fn binary(op: &Token, a: f64, b: f64) -> Value {
            let truth = |v: bool| if v { 1.0 } else { 0.0 };
            Ok(match op {
                Token::Or => truth(a != 0.0 || b != 0.0),
                Token::And => truth(a != 0.0 && b != 0.0),
                Token::EqEq => truth(a == b),
                Token::Ne => truth(a != b),
                Token::Lt => truth(a < b),
                // Fig 4.2's spelling: ($1<$3)||($1==$3).
                Token::Le => return binary(&Token::Or, truth(a < b), truth(a == b)),
                Token::Gt => truth(a > b),
                Token::Ge => return binary(&Token::Or, truth(a > b), truth(a == b)),
                Token::Plus => a + b,
                Token::Minus => a - b,
                Token::Star => a * b,
                Token::Slash if b == 0.0 => return Err(EvalError::DivisionByZero),
                Token::Slash => a / b,
                Token::Caret => a.powf(b),
                other => unreachable!("{other} is not a binary operator"),
            })
        }
    }

    /// The program and the oracle agree on everything a `Decision` holds,
    /// and the interval analysis never rules out a host that qualifies.
    fn assert_program_matches_the_reference(src: &str, vars: &MapVars) {
        let req = compile(src).unwrap_or_else(|e| panic!("{src:?} must compile: {e}"));
        let want = reference::evaluate(src, vars);
        assert_eq!(Evaluator::evaluate(&req, vars), want, "on {src:?} with {:?}", vars.vars);
        let mut points = MapRanges::new();
        for (name, v) in &vars.vars {
            points = points.with(name, *v, *v);
        }
        assert!(may_qualify(&req, &points) || !want.qualified, "wrong prune of {src:?}");
    }

    const OPERATORS: [&str; 13] =
        ["+", "-", "*", "/", "^", "<", "<=", ">", ">=", "==", "!=", "&&", "||"];

    /// A random expression: nested arithmetic and logic over literals
    /// (zero among them), defined and undefined server variables, temps,
    /// named constants, divisions by a literal and by a computed zero and
    /// — rarely, since an error hides the rest of its statement — a
    /// user-host variable and a network address, with assignments to all
    /// of those and known and unknown calls. Each arm's range is as wide
    /// as its weight.
    fn arb_expr(rng: &mut SimRng, depth: u32) -> String {
        if depth == 0 {
            return arb_leaf(rng);
        }
        let sub = |rng: &mut SimRng| arb_expr(rng, depth - 1);
        match rng.below(18) {
            0..4 => arb_leaf(rng),
            4..12 => {
                let a = sub(rng);
                let op = OPERATORS[rng.below(OPERATORS.len() as u64) as usize];
                format!("{a} {op} {}", sub(rng))
            }
            12..14 => format!("({})", sub(rng)),
            14 => format!("-{}", sub(rng)),
            15..17 => {
                let target = match rng.below(16) {
                    0..6 => "t",
                    6..10 => "u",
                    10..14 => "PI",
                    14 => "host_cpu_free",
                    _ => "user_denied_host1",
                };
                format!("({target} = {})", sub(rng))
            }
            _ => {
                let function = match rng.below(13) {
                    0..6 => "sqrt",
                    6..12 => "abs",
                    _ => "frob",
                };
                format!("{function}({})", sub(rng))
            }
        }
    }

    fn arb_leaf(rng: &mut SimRng) -> String {
        match rng.below(89) {
            0..30 => rng.below(4).to_string(),
            30..36 => "0.5".to_owned(),
            36..46 => "host_cpu_free".to_owned(),
            46..56 => "host_system_load1".to_owned(),
            56..60 => "monitor_network_bw".to_owned(),
            60..72 => "t".to_owned(),
            72..78 => "u".to_owned(),
            78..84 => "PI".to_owned(),
            84..86 => format!("{}/{}", rng.below(3), rng.below(2)),
            86 => "t/(u-u)".to_owned(),
            87 => "user_denied_host1".to_owned(),
            _ => "10.0.0.1".to_owned(),
        }
    }

    /// Values for three server variables, each left undefined one time in
    /// seven.
    fn arb_provider(rng: &mut SimRng) -> MapVars {
        let names = ["host_cpu_free", "host_system_load1", "monitor_network_bw"];
        let mut vars = MapVars::new();
        for name in names {
            match rng.below(7) {
                0 => {}
                v => vars = vars.with(name, [0.0, 0.5, 2.0][(v as usize - 1) / 2]),
            }
        }
        vars
    }

    /// One statement line: two in five assign a temp, the rest compare two
    /// expressions — one in three of those inside parentheses, which keep
    /// the comparison's logic flag — so that values, not only errors,
    /// decide.
    fn arb_statement(rng: &mut SimRng) -> String {
        let expr = arb_expr(rng, 3);
        let kind = rng.below(10) as usize;
        let other = arb_expr(rng, 1);
        match kind {
            0 | 1 => format!("t = {expr}\n"),
            2 | 3 => format!("u = {expr}\n"),
            4..=7 => format!("{expr} {} {other}\n", OPERATORS[kind + 1]),
            k => format!("({expr} {} {other})\n", OPERATORS[k - 3]),
        }
    }

    #[test]
    fn the_program_is_the_reference_on_generated_requirements() {
        cases("the_program_is_the_reference_on_generated_requirements", |rng| {
            let stmts: Vec<String> = (0..4 + rng.below(8)).map(|_| arb_statement(rng)).collect();
            let vars: Vec<MapVars> = (0..4).map(|_| arb_provider(rng)).collect();
            let temps_start_assigned = rng.below(4) > 0;
            let mut src = String::from(if temps_start_assigned { "t = 1\nu = 2\n" } else { "" });
            src.extend(stmts);
            for v in &vars {
                assert_program_matches_the_reference(&src, v);
            }
        });
    }

    // ---- the tests of a requirement ----------------------------------

    #[test]
    fn the_papers_requirements_have_the_tests_they_read_as() {
        let var = |name| ServerVar::from_name(name).unwrap();
        // §3.6.2's sample, as the live workloads send it: eight statements.
        let paper = compile(
            "host_system_load1 < 1\nhost_memory_used <= 250*1024*1024\nhost_cpu_free >= 0.9\n\
             host_network_tbytesps < 1024*1024\nlimit = log10(100) * 0.5\n\
             host_system_load5 < limit\nuser_denied_host1 = 137.132.90.182\n\
             user_preferred_host1 = sagit.ddns.comp.nus.edu.sg\n",
        )
        .unwrap();
        let want = [
            (var("host_system_load1"), BinOp::Lt, 1.0),
            (var("host_memory_used"), BinOp::Le, 250.0 * 1024.0 * 1024.0),
            (var("host_cpu_free"), BinOp::Ge, 0.9),
            (var("host_network_tbytesps"), BinOp::Lt, 1024.0 * 1024.0),
        ];
        assert_eq!(paper.tests(), want);
        assert!(!paper.tests_only(), "the temp and the test against it are not tests");
        // The fleet workloads' requirement (Tables 5.3–5.6's shape).
        let fleet = compile("host_cpu_free > 0.9300\nhost_memory_free > 5*1024*1024\n").unwrap();
        let want = [
            (var("host_cpu_free"), BinOp::Gt, 0.93),
            (var("host_memory_free"), BinOp::Gt, 5.0 * 1024.0 * 1024.0),
        ];
        assert_eq!(fleet.tests(), want);
        assert!(fleet.tests_only());
        assert!(Requirement::empty().tests_only() && compile("").unwrap().tests_only());
    }

    /// `server_var OP rhs`, with every operator — logical or not — and
    /// right-hand sides that fold to a literal, and one that does not.
    fn arb_test_statement(rng: &mut SimRng) -> String {
        let var =
            ["host_cpu_free", "host_system_load1", "monitor_network_bw"][rng.below(3) as usize];
        let op = OPERATORS[rng.below(OPERATORS.len() as u64) as usize];
        let rhs = ["0", "0.5", "2", "1/2", "-(1)", "1/0"][rng.below(6) as usize];
        let stmt = format!("{var} {op} {rhs}");
        if rng.below(4) == 0 {
            format!("({stmt})\n")
        } else {
            format!("{stmt}\n")
        }
    }

    /// Every server-side variable defined: the three the generators read
    /// at 0, 0.5 or 2, every other one at 1.
    fn arb_defined(rng: &mut SimRng) -> MapVars {
        let mut value = || [0.0, 0.5, 2.0][rng.below(3) as usize];
        let (cpu, load, bw) = (value(), value(), value());
        let all = SERVER_VARS.iter().chain(&SERVICE_VARS).chain(&MONITOR_VARS);
        all.fold(MapVars::new(), |vars, name| vars.with(name, 1.0))
            .with("host_cpu_free", cpu)
            .with("host_system_load1", load)
            .with("monitor_network_bw", bw)
    }

    /// What lets the wizard screen rows with the tests: on a server that
    /// defines every variable, a failing test disqualifies, and a
    /// requirement of tests only qualifies exactly when all hold.
    #[test]
    fn a_failing_test_disqualifies_and_tests_alone_decide() {
        cases("a_failing_test_disqualifies_and_tests_alone_decide", |rng| {
            let statement = |rng: &mut SimRng| {
                if rng.below(3) < 2 {
                    arb_test_statement(rng)
                } else {
                    arb_statement(rng)
                }
            };
            let src: String = (0..1 + rng.below(5)).map(|_| statement(rng)).collect();
            let vars = arb_defined(rng);
            let req = compile(&src).unwrap_or_else(|e| panic!("{src:?} must compile: {e}"));
            let all_hold = req.tests().iter().all(|&(var, op, c)| {
                holds(op, vars.lookup(var).expect("every variable is defined"), c)
            });
            let d = Evaluator::evaluate(&req, &vars);
            assert!(all_hold || !d.qualified, "{src:?}: a test failed, yet {d:?}");
            if req.tests_only() {
                assert_eq!(d.qualified, all_hold, "{src:?}: tests only");
            }
        });
    }

    #[test]
    fn the_program_is_the_reference_on_the_orderings_of_fig_4_2() {
        let cases = [
            // A side effect placed before a failing operand still happens.
            "(x = 1) + 1/0\nx > 0\n",
            "(x = 1) + 10.0.0.1\nx > 0\n",
            // The pre-descent checks: the operand is never evaluated.
            "frob(x = 1) > 0\nx > 0\n",
            "frob(1/0)\n",
            "host_cpu_free = (x = 1)\nx > 0\n",
            "(user_denied_host1 = 1/0) > 0\n",
            // The first error in evaluation order is the one reported.
            "nope + 1/0\n1/0 + nope\n",
            // Division by zero survives folding, literal or computed.
            "1/0 > 0\n2*(3/(1-1)) > 0\nx = 2\ny = 2\nx/(y-y) > 0\n",
            // Temps shadow constants, before and after assignment.
            "PI > 3\nPI = 1\nPI > 3\nPI == 1\n",
            "t > 0\nt = 5\nt > 0\n",
            // Folded operands, with and without a server variable beside them.
            "host_cpu_free * (2 + 3*4 - -1) >= sqrt(16)/2^3\n",
            "-(2^2) == -4 && log10(100) == 2 && 7 - 2 - 1 == 4\n",
            "5*1024*1024 < host_memory_free\nhost_memory_free > 5*1024*1024\n",
            "host_cpu_free / 0 > 1\nhost_cpu_free && 1\n",
        ];
        let vars = [
            MapVars::new(),
            MapVars::new().with("host_cpu_free", 0.5).with("host_memory_free", 8e6),
            MapVars::new().with("host_cpu_free", 0.0),
        ];
        for src in cases {
            for v in &vars {
                assert_program_matches_the_reference(src, v);
            }
        }
    }

    #[test]
    fn an_outsized_requirement_runs_off_the_heap_with_the_same_answer() {
        // More temps and a deeper stack than the frame-local arrays hold.
        let mut src = String::new();
        for i in 0..=FRAME_TEMPS {
            src.push_str(&format!("v{i} = {i}\n"));
        }
        src.push_str(&format!("v0 + {}v1{} == {}\n", "(v1 + ".repeat(20), ")".repeat(20), 21));
        let req = compile(&src).unwrap();
        let longest = req.program.ops.len() - req.program.stmts[FRAME_TEMPS].0;
        assert!(req.program.temps.len() > FRAME_TEMPS && longest > FRAME_STACK);
        assert_program_matches_the_reference(&src, &MapVars::new());
        assert!(Evaluator::evaluate(&req, &MapVars::new()).qualified);
    }
}
