//! # smartsock-lang
//!
//! The server-requirement meta language of the Smart TCP socket library
//! (paper §3.6.1 and §4.3, Appendix B).
//!
//! Users describe what servers their application needs as a small program:
//!
//! ```text
//! host_system_load1 < 1
//! host_memory_used <= 250*1024*1024
//! host_cpu_free >= 0.9
//! host_network_tbytesps < 1024*1024   # for network IO
//! user_denied_host1 = 137.132.90.182
//! user_preferred_host1 = sagit.ddns.comp.nus.edu.sg
//! ```
//!
//! Each line is a statement. A statement whose top-level operator is
//! *logical* (`<, <=, >, >=, ==, !=, &&, ||`) contributes to the
//! qualification decision; a server qualifies only if **every** logical
//! statement evaluates true. Non-logical statements define temporary
//! variables and perform arithmetic. The original implementation used
//! flex/bison rules (Figs 4.1/4.2, after the `hoc` calculator of Kernighan
//! & Pike); this crate re-implements the same language with a hand-written
//! lexer and a precedence-climbing parser, preserving the quirks that give
//! the language its semantics:
//!
//! * the `logic` flag follows the **last-reduced** (top-most) operator, so
//!   `(a+b) <= b` is logical but `a + (b<c)` is not;
//! * parentheses preserve the inner logic flag;
//! * a statement using an uninitialised temp variable in a logical
//!   position makes that statement false (and so disqualifies the server);
//! * division by zero is an execution error — the server is not qualified;
//! * assignments to `user_preferred_hostN` / `user_denied_hostN` populate
//!   the whitelist/blacklist instead of the numeric environment, and accept
//!   IPs, dotted domain names, or bare host names on the right-hand side.
//!
//! [`compile`] parses a requirement straight into a flat postfix program,
//! resolving every name once, as `hoc`'s grammar actions generate code for
//! a stack machine while they reduce; there is no syntax tree.
//! [`Evaluator::evaluate`] runs that program per candidate server, and is
//! the only evaluator there is; [`may_qualify`] runs it over value ranges
//! per status-database shard. The parser is the only recursion, and its
//! nesting is bounded, so no requirement can overflow the stack of whoever
//! compiles or runs it.
//!
//! # Deviations from the thesis (documented in DESIGN.md)
//!
//! * Host names may contain `-` (the paper's own experiments blacklist
//!   `titan-x` and `pandora-x`, which the printed lexer rules cannot
//!   tokenise; we extend the NETADDR/ident character classes accordingly).
//! * Memory-valued variables are defined in **bytes** (the worked example
//!   in §3.6.2 compares against `250*1024*1024`); Tables 5.3–5.6 write
//!   `host_memory_free > 5` meaning MB, which the harness spells as
//!   `5*1024*1024`.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod eval;
pub mod interval;
pub mod lexer;
pub mod parser;
mod program;
pub mod token;
pub mod vars;

pub use eval::{Decision, EvalError, Evaluator, HostLists, MapVars, VarProvider};
pub use interval::{may_qualify, MapRanges, RangeProvider};
pub use lexer::{LexError, Lexer};
pub use parser::{parse, ParseError};
pub use program::{holds, BinOp, Requirement};
pub use token::Token;
pub use vars::{builtin_fn, is_server_var, is_user_host_var, ServerVar, SERVER_VARS, USER_VARS};

/// Any error arising while compiling a requirement.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    Lex(LexError),
    Parse(ParseError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lexical error: {e}"),
            CompileError::Parse(e) => write!(f, "syntax error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LexError> for CompileError {
    fn from(e: LexError) -> Self {
        CompileError::Lex(e)
    }
}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

/// Compile a requirement text into its executable form.
///
/// This is the entry point the wizard calls once per user request; the
/// compiled [`Requirement`] — its program and host lists — is then
/// evaluated against every candidate server.
///
/// # Example
///
/// ```
/// use smartsock_lang::{compile, Evaluator, MapVars};
///
/// let req = compile("host_cpu_free >= 0.9\nhost_system_load1 < 1\n").unwrap();
/// assert_eq!(req.logical_count(), 2);
///
/// let idle = MapVars::new()
///     .with("host_cpu_free", 0.97)
///     .with("host_system_load1", 0.1);
/// assert!(Evaluator::evaluate(&req, &idle).qualified);
///
/// let busy = MapVars::new()
///     .with("host_cpu_free", 0.2)
///     .with("host_system_load1", 1.8);
/// assert!(!Evaluator::evaluate(&req, &busy).qualified);
/// ```
pub fn compile(text: &str) -> Result<Requirement, CompileError> {
    let tokens = Lexer::new(text).tokenize()?;
    Ok(parse(&tokens)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_accepts_the_papers_sample_requirement() {
        // Verbatim from §3.6.2 (comment garbage included).
        let text = "\
host_system_load1 < 1
host_memory_used <= 250*1024*1024
host_cpu_free >= 0.9
#ldjfaldjfalsjff #akldjfaldfj
#some comments
host_network_tbytesps < 1024*1024  # for network IO
# comments
user_denied_host1 = 137.132.90.182
user_preferred_host1 = sagit.ddns.comp.nus.edu.sg
#
";
        let req = compile(text).expect("paper sample must compile");
        assert_eq!((req.program.stmts.len(), req.logical_count()), (4, 4));
        let lists = HostLists::from_requirement(&req);
        assert_eq!((lists.denied.len(), lists.preferred.len()), (1, 1));
    }

    #[test]
    fn compile_reports_lex_and_parse_errors_distinctly() {
        assert!(matches!(compile("a ~ b"), Err(CompileError::Lex(_))));
        assert!(matches!(compile("a + * b"), Err(CompileError::Parse(_))));
    }
}
