//! Property-based tests of the requirement meta language.

use proptest::prelude::*;

use smartsock_lang::{compile, Evaluator, Lexer, MapVars, Requirement, Token};

// ----------------------------------------------------------------------
// Generators
// ----------------------------------------------------------------------

/// A random syntactically valid arithmetic/logical expression.
fn arb_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (0u32..10000).prop_map(|n| n.to_string()),
        (0u32..100, 1u32..100).prop_map(|(a, b)| format!("{a}.{b}")),
        Just("host_cpu_free".to_owned()),
        Just("host_system_load1".to_owned()),
        Just("tempvar".to_owned()),
        Just("PI".to_owned()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_expr(depth - 1);
    prop_oneof![
        4 => leaf,
        2 => (sub.clone(), prop_oneof![Just("+"), Just("-"), Just("*"), Just("&&"), Just("||"), Just("<"), Just("<="), Just(">"), Just(">="), Just("=="), Just("!=")], sub.clone())
            .prop_map(|(a, op, b)| format!("({a}) {op} ({b})")),
        1 => (prop_oneof![Just("sin"), Just("cos"), Just("exp"), Just("log10"), Just("sqrt"), Just("abs")], sub.clone())
            .prop_map(|(f, a)| format!("{f}(({a}))")),
        1 => sub.prop_map(|a| format!("-({a})")),
    ]
    .boxed()
}

fn arb_requirement() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_expr(3), 1..5).prop_map(|exprs| {
        let mut out = String::from("tempvar = 1\n");
        for e in exprs {
            out.push_str(&e);
            out.push('\n');
        }
        out
    })
}

fn provider() -> MapVars {
    MapVars::new().with("host_cpu_free", 0.9).with("host_system_load1", 0.3)
}

// ----------------------------------------------------------------------
// Properties
// ----------------------------------------------------------------------

proptest! {
    /// The lexer never panics, whatever bytes it is fed.
    #[test]
    fn lexer_total_on_arbitrary_ascii(input in "[ -~\n\t]{0,200}") {
        let _ = Lexer::new(&input).tokenize();
    }

    /// Generated well-formed requirements always compile.
    #[test]
    fn generated_requirements_compile(src in arb_requirement()) {
        let compiled = compile(&src);
        prop_assert!(compiled.is_ok(), "failed on {src:?}: {compiled:?}");
    }

    /// Evaluation is total (no panics) and deterministic.
    #[test]
    fn evaluation_is_total_and_deterministic(src in arb_requirement()) {
        let req = compile(&src).unwrap();
        let p = provider();
        let a = Evaluator::evaluate(&req, &p);
        let b = Evaluator::evaluate(&req, &p);
        prop_assert_eq!(a, b);
    }

    /// Division by a nonzero constant never produces the division error.
    #[test]
    fn division_by_nonzero_is_fine(d in 1u32..1000) {
        let src = format!("x = 10 / {d}\nx >= 0\n");
        let req = compile(&src).unwrap();
        let decision = Evaluator::evaluate(&req, &provider());
        prop_assert!(decision.errors.is_empty());
        prop_assert!(decision.qualified);
    }

    /// Comment and whitespace insertion never changes the compiled requirement.
    #[test]
    fn comments_are_transparent(extra in "[a-z #]{0,30}") {
        let plain = "host_cpu_free > 0.5\nhost_system_load1 < 1\n";
        let commented = format!("# {extra}\nhost_cpu_free > 0.5\n   # mid {extra}\nhost_system_load1 < 1\n#{extra}");
        let a = compile(plain).unwrap();
        let b = compile(&commented).unwrap();
        prop_assert_eq!(a, b);
    }

    /// `a <= b` agrees with `a < b || a == b` on every input pair — the
    /// Fig 4.2 disjunction spelling.
    #[test]
    fn le_matches_its_disjunction(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let vars = MapVars::new().with("host_cpu_free", a).with("host_system_load1", b);
        let le = Evaluator::evaluate(
            &compile("host_cpu_free <= host_system_load1\n").unwrap(), &vars);
        let dis = Evaluator::evaluate(
            &compile("(host_cpu_free < host_system_load1) || (host_cpu_free == host_system_load1)\n").unwrap(), &vars);
        prop_assert_eq!(le.qualified, dis.qualified);
    }

    /// Adding a tautology never disqualifies; adding a contradiction
    /// always disqualifies.
    #[test]
    fn monotonicity_of_statement_conjunction(src in arb_requirement()) {
        let req = compile(&src).unwrap();
        let base = Evaluator::evaluate(&req, &provider());

        let with_taut = compile(&format!("{src}100 > 0\n")).unwrap();
        let t = Evaluator::evaluate(&with_taut, &provider());
        prop_assert_eq!(t.qualified, base.qualified, "tautology changed the verdict");

        let with_contra = compile(&format!("{src}0 > 100\n")).unwrap();
        let c = Evaluator::evaluate(&with_contra, &provider());
        prop_assert!(!c.qualified, "contradiction must disqualify");
    }

    /// Numbers survive the lexer round trip.
    #[test]
    fn number_lexing_roundtrip(n in 0u32..1_000_000) {
        let toks = Lexer::new(&n.to_string()).tokenize().unwrap();
        prop_assert_eq!(&toks[0], &Token::Number(f64::from(n)));
    }

    /// Dotted quads always lex as NETADDR, never as numbers.
    #[test]
    fn dotted_quads_lex_as_netaddr(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255, d in 0u8..=255) {
        let s = format!("{a}.{b}.{c}.{d}");
        let toks = Lexer::new(&s).tokenize().unwrap();
        prop_assert_eq!(&toks[0], &Token::NetAddr(s));
    }
}

#[test]
fn empty_requirement_always_qualifies() {
    let d = Evaluator::evaluate(&Requirement::empty(), &provider());
    assert!(d.qualified);
}
