//! Property-based tests of the requirement meta language.

use smartsock_lang::{compile, Evaluator, Lexer, MapVars, Requirement, Token};
use smartsock_sim::rng::{cases, SimRng};

// ----------------------------------------------------------------------
// Generators
// ----------------------------------------------------------------------

/// A random syntactically valid arithmetic/logical expression.
fn arb_expr(rng: &mut SimRng, depth: u32) -> String {
    // Above depth 0: a leaf half the time, a binary operation a quarter,
    // a call and a negation an eighth each.
    if depth > 0 && rng.below(8) >= 4 {
        let sub = arb_expr(rng, depth - 1);
        return match rng.below(4) {
            0 | 1 => {
                let ops = ["+", "-", "*", "&&", "||", "<", "<=", ">", ">=", "==", "!="];
                let op = ops[rng.below(ops.len() as u64) as usize];
                format!("({sub}) {op} ({})", arb_expr(rng, depth - 1))
            }
            2 => {
                let functions = ["sin", "cos", "exp", "log10", "sqrt", "abs"];
                format!("{}(({sub}))", functions[rng.below(6) as usize])
            }
            _ => format!("-({sub})"),
        };
    }
    match rng.below(6) {
        0 => rng.below(10_000).to_string(),
        1 => format!("{}.{}", rng.below(100), 1 + rng.below(99)),
        2 => "host_cpu_free".to_owned(),
        3 => "host_system_load1".to_owned(),
        4 => "tempvar".to_owned(),
        _ => "PI".to_owned(),
    }
}

fn arb_requirement(rng: &mut SimRng) -> String {
    let mut out = String::from("tempvar = 1\n");
    for _ in 0..1 + rng.below(4) {
        out.push_str(&arb_expr(rng, 3));
        out.push('\n');
    }
    out
}

/// Up to `max` characters, each drawn from `alphabet`.
fn text(rng: &mut SimRng, alphabet: &[char], max: u64) -> String {
    (0..rng.below(max + 1)).map(|_| alphabet[rng.below(alphabet.len() as u64) as usize]).collect()
}

fn provider() -> MapVars {
    MapVars::new().with("host_cpu_free", 0.9).with("host_system_load1", 0.3)
}

// ----------------------------------------------------------------------
// Properties
// ----------------------------------------------------------------------

/// The lexer never panics, whatever bytes it is fed.
#[test]
fn lexer_total_on_arbitrary_ascii() {
    cases("lexer_total_on_arbitrary_ascii", |rng| {
        let ascii: Vec<char> = (' '..='~').chain(['\n', '\t']).collect();
        let input = text(rng, &ascii, 200);
        let _ = Lexer::new(&input).tokenize();
    });
}

/// Generated well-formed requirements always compile.
#[test]
fn generated_requirements_compile() {
    cases("generated_requirements_compile", |rng| {
        let src = arb_requirement(rng);
        let compiled = compile(&src);
        assert!(compiled.is_ok(), "failed on {src:?}: {compiled:?}");
    });
}

/// Evaluation is total (no panics) and deterministic.
#[test]
fn evaluation_is_total_and_deterministic() {
    cases("evaluation_is_total_and_deterministic", |rng| {
        let src = arb_requirement(rng);
        let req = compile(&src).unwrap();
        let p = provider();
        let a = Evaluator::evaluate(&req, &p);
        let b = Evaluator::evaluate(&req, &p);
        assert_eq!(a, b);
    });
}

/// Division by a nonzero constant never produces the division error.
#[test]
fn division_by_nonzero_is_fine() {
    cases("division_by_nonzero_is_fine", |rng| {
        let d = 1 + rng.below(999);
        let src = format!("x = 10 / {d}\nx >= 0\n");
        let req = compile(&src).unwrap();
        let decision = Evaluator::evaluate(&req, &provider());
        assert!(decision.errors.is_empty());
        assert!(decision.qualified);
    });
}

/// Comment and whitespace insertion never changes the compiled requirement.
#[test]
fn comments_are_transparent() {
    cases("comments_are_transparent", |rng| {
        let alphabet: Vec<char> = ('a'..='z').chain([' ', '#']).collect();
        let extra = text(rng, &alphabet, 30);
        let plain = "host_cpu_free > 0.5\nhost_system_load1 < 1\n";
        let commented = format!(
            "# {extra}\nhost_cpu_free > 0.5\n   # mid {extra}\nhost_system_load1 < 1\n#{extra}"
        );
        let a = compile(plain).unwrap();
        let b = compile(&commented).unwrap();
        assert_eq!(a, b);
    });
}

/// `a <= b` agrees with `a < b || a == b` on every input pair — the
/// Fig 4.2 disjunction spelling.
#[test]
fn le_matches_its_disjunction() {
    cases("le_matches_its_disjunction", |rng| {
        let (a, b) = (rng.range(-1e6..1e6), rng.range(-1e6..1e6));
        let vars = MapVars::new().with("host_cpu_free", a).with("host_system_load1", b);
        let le =
            Evaluator::evaluate(&compile("host_cpu_free <= host_system_load1\n").unwrap(), &vars);
        let dis = Evaluator::evaluate(
            &compile(
                "(host_cpu_free < host_system_load1) || (host_cpu_free == host_system_load1)\n",
            )
            .unwrap(),
            &vars,
        );
        assert_eq!(le.qualified, dis.qualified);
    });
}

/// Adding a tautology never disqualifies; adding a contradiction
/// always disqualifies.
#[test]
fn monotonicity_of_statement_conjunction() {
    cases("monotonicity_of_statement_conjunction", |rng| {
        let src = arb_requirement(rng);
        let req = compile(&src).unwrap();
        let base = Evaluator::evaluate(&req, &provider());

        let with_taut = compile(&format!("{src}100 > 0\n")).unwrap();
        let t = Evaluator::evaluate(&with_taut, &provider());
        assert_eq!(t.qualified, base.qualified, "tautology changed the verdict");

        let with_contra = compile(&format!("{src}0 > 100\n")).unwrap();
        let c = Evaluator::evaluate(&with_contra, &provider());
        assert!(!c.qualified, "contradiction must disqualify");
    });
}

/// Numbers survive the lexer round trip.
#[test]
fn number_lexing_roundtrip() {
    cases("number_lexing_roundtrip", |rng| {
        let n = rng.below(1_000_000) as u32;
        let toks = Lexer::new(&n.to_string()).tokenize().unwrap();
        assert_eq!(&toks[0], &Token::Number(f64::from(n)));
    });
}

/// Dotted quads always lex as NETADDR, never as numbers.
#[test]
fn dotted_quads_lex_as_netaddr() {
    cases("dotted_quads_lex_as_netaddr", |rng| {
        let [a, b, c, d] = [(); 4].map(|()| rng.below(256));
        let s = format!("{a}.{b}.{c}.{d}");
        let toks = Lexer::new(&s).tokenize().unwrap();
        assert_eq!(&toks[0], &Token::NetAddr(s));
    });
}

#[test]
fn empty_requirement_always_qualifies() {
    let d = Evaluator::evaluate(&Requirement::empty(), &provider());
    assert!(d.qualified);
}
