//! The rule passes. Per-file rules walk the token stream of one file;
//! cross-file rules (`check_model`) run over the phase-1 workspace model.
//! The engine applies suppressions afterwards.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::model::WorkspaceModel;

/// One lint hit, before or after suppression filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// Rule identifiers, stable across releases.
pub const SS_DET_001: &str = "SS-DET-001";
pub const SS_DET_002: &str = "SS-DET-002";
pub const SS_DET_003: &str = "SS-DET-003";
pub const SS_PANIC_001: &str = "SS-PANIC-001";
pub const SS_CAST_001: &str = "SS-CAST-001";
pub const SS_OBS_001: &str = "SS-OBS-001";
pub const SS_OBS_002: &str = "SS-OBS-002";
pub const SS_OBS_003: &str = "SS-OBS-003";
pub const SS_PROTO_002: &str = "SS-PROTO-002";
pub const SS_PROTO_003: &str = "SS-PROTO-003";
/// Meta-rule: an `// analyze: allow(…)` with no justification text, or one
/// that no longer suppresses anything.
pub const SS_ALLOW_001: &str = "SS-ALLOW-001";

/// Static description of one rule, for `--help`-style listings and docs.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: SS_DET_001,
        summary: "no std::time::Instant/SystemTime wall-clock reads in sim-facing code, and \
                  no std::thread::sleep in its non-test code; use simulation time and \
                  advance it through the scheduler",
    },
    RuleInfo {
        id: SS_DET_002,
        summary: "no HashMap/HashSet on the event-ordering path; \
                  use BTreeMap/BTreeSet for deterministic iteration",
    },
    RuleInfo {
        id: SS_DET_003,
        summary: "no thread_rng/OS entropy outside the vendored shims; \
                  randomness must come from the run seed",
    },
    RuleInfo {
        id: SS_PANIC_001,
        summary: "no unwrap()/bare expect()/indexing panics in non-test daemon code \
                  (probe, monitor, wizard, wire, core); plumb Result or document \
                  expect(\"invariant: …\")",
    },
    RuleInfo {
        id: SS_CAST_001,
        summary: "no bare `as` narrowing casts in proto/wire codec code; \
                  use try_from with a decode error",
    },
    RuleInfo {
        id: SS_OBS_001,
        summary: "telemetry names (counters, gauges, histograms, spans, events) must be \
                  kebab-case `&'static str` literals so traces stay greppable and \
                  allocation-free",
    },
    RuleInfo {
        id: SS_OBS_002,
        summary: "span names opened outside the telemetry crate (non-test code) must be \
                  registered in SPAN_NAMES (crates/telemetry/src/names.rs); profiles are \
                  keyed by span name, so an ad-hoc span turns a perf regression into a \
                  baseline-diff disappearance",
    },
    RuleInfo {
        id: SS_OBS_003,
        summary: "event and counter names used outside the telemetry crate (non-test \
                  code) must be registered in EVENT_NAMES / COUNTER_NAMES \
                  (crates/telemetry/src/names.rs); summaries, rollups and the live \
                  stats frame query by name, so an ad-hoc name is a series nobody \
                  ever reads",
    },
    RuleInfo {
        id: SS_PROTO_002,
        summary: "encode*/decode* pairs in proto/wire must read and write the same \
                  collapsed field-width sequence (loops compare equal to unrolled bodies)",
    },
    RuleInfo {
        id: SS_PROTO_003,
        summary: "no big- or native-endian byte calls in proto/wire non-test code; the \
                  wire layout is pinned little-endian (use the _le variants)",
    },
    RuleInfo {
        id: SS_ALLOW_001,
        summary: "every analyze: allow(…) suppression must carry a `: justification` and \
                  must still suppress at least one finding",
    },
];

/// Crates whose non-test code must not panic (SS-PANIC-001).
pub const DAEMON_CRATES: &[&str] = &["probe", "monitor", "wizard", "wire", "core"];
/// Crates whose encode/decode paths must use checked casts (SS-CAST-001).
pub const CODEC_CRATES: &[&str] = &["proto", "wire"];
/// Telemetry methods whose first argument names the series (SS-OBS-001).
/// The telemetry crate itself is exempt: it forwards `name` parameters
/// between its own recording methods.
pub const TELEMETRY_RECORDERS: &[&str] = &[
    "counter_add",
    "counter_incr",
    "counter_add_labeled",
    "gauge_set",
    "observe_ns",
    "span_start",
    "span_child",
    "event",
];

/// Everything the rule passes need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative display path.
    pub rel: &'a str,
    /// Crate short name (`net`, `proto`, …) or `suite` for the facade
    /// package's `src/`, `tests/` and `examples/`.
    pub krate: &'a str,
    /// True for files under a `tests/` or `examples/` directory.
    pub file_is_test: bool,
    pub lexed: &'a Lexed,
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: &'a [(usize, usize)],
    /// The span-name registry (`SPAN_NAMES` from `crates/telemetry/src/names.rs`).
    /// Empty disables SS-OBS-002 — the caller could not load the registry.
    pub span_registry: &'a [String],
    /// The event-name registry (`EVENT_NAMES`). Empty disables the event
    /// half of SS-OBS-003.
    pub event_registry: &'a [String],
    /// The counter-name registry (`COUNTER_NAMES`, base names only — the
    /// `/label` dimension of labeled counters stays free-form). Empty
    /// disables the counter half of SS-OBS-003.
    pub counter_registry: &'a [String],
}

impl FileCtx<'_> {
    fn in_test_code(&self, tok_idx: usize) -> bool {
        self.file_is_test || self.test_ranges.iter().any(|&(s, e)| tok_idx >= s && tok_idx < e)
    }

    fn finding(&self, line: u32, rule: &'static str, message: String) -> Finding {
        Finding { file: self.rel.to_owned(), line, rule, message }
    }
}

/// Compute the token-index ranges belonging to `#[cfg(test)]` modules and
/// `#[test]` functions, by pairing test attributes with the `{…}` block that
/// follows them.
pub fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut pending = false;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct
            && t.text == "#"
            && i + 1 < toks.len()
            && toks[i + 1].text == "["
        {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut attr: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                if depth > 0 {
                    attr.push(toks[j].text.as_str());
                }
                j += 1;
            }
            // Exact matches only: `#[cfg(not(test))]` must NOT count.
            if attr == ["test"] || attr == ["cfg", "(", "test", ")"] {
                pending = true;
            }
            i = j;
            continue;
        }
        match t.text.as_str() {
            "{" if pending => {
                let start = i;
                let mut depth = 1u32;
                let mut j = i + 1;
                while j < toks.len() && depth > 0 {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                ranges.push((start, j));
                pending = false;
                i = j;
                continue;
            }
            // `#[cfg(test)] use …;` — the attribute guards no block.
            ";" => pending = false,
            _ => {}
        }
        i += 1;
    }
    ranges
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// `[a-z0-9]+(-[a-z0-9]+)*` — the only shape telemetry names may take.
fn is_kebab(s: &str) -> bool {
    !s.is_empty()
        && s.split('-').all(|seg| {
            !seg.is_empty() && seg.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        })
}

const NARROW_INT_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Run every applicable rule over one file.
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let toks = &ctx.lexed.toks;
    let mut out = Vec::new();

    let panic_rule_applies = !ctx.file_is_test && DAEMON_CRATES.contains(&ctx.krate);
    let cast_rule_applies = !ctx.file_is_test && CODEC_CRATES.contains(&ctx.krate);
    let obs_rule_applies = ctx.krate != "telemetry";

    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident {
            // SS-DET-001 — wall-clock reads, and blocking on real time
            // (tests may sleep).
            if t.text == "Instant" || t.text == "SystemTime" {
                out.push(ctx.finding(
                    t.line,
                    SS_DET_001,
                    format!(
                        "wall-clock `{}` breaks deterministic replay; \
                         use simulation time (`SimTime`)",
                        t.text
                    ),
                ));
            }
            let text_at = |k: usize| toks.get(k).map(|t| t.text.as_str());
            if t.text == "sleep"
                && i >= 3
                && [text_at(i - 3), text_at(i - 2), text_at(i - 1), text_at(i + 1)]
                    == [Some("thread"), Some(":"), Some(":"), Some("(")]
                && !ctx.in_test_code(i)
            {
                out.push(
                    ctx.finding(
                        t.line,
                        SS_DET_001,
                        "`thread::sleep` blocks on real time; sim-backend code must advance \
                         virtual time through the scheduler (`schedule_in`/`run_until`)"
                            .to_owned(),
                    ),
                );
            }
            // SS-DET-002 — iteration-order-nondeterministic containers.
            if t.text == "HashMap" || t.text == "HashSet" {
                let btree = if t.text == "HashMap" { "BTreeMap" } else { "BTreeSet" };
                out.push(ctx.finding(
                    t.line,
                    SS_DET_002,
                    format!(
                        "`{}` has nondeterministic iteration order; use `{btree}` \
                         on the event-ordering path",
                        t.text
                    ),
                ));
            }
            // SS-DET-003 — OS entropy.
            if matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "OsRng" | "getrandom") {
                out.push(ctx.finding(
                    t.line,
                    SS_DET_003,
                    format!(
                        "`{}` draws OS entropy; derive all randomness from the run seed \
                         (`StdRng::seed_from_u64`)",
                        t.text
                    ),
                ));
            }
        }

        // SS-PANIC-001 — unwrap / undocumented expect / indexing.
        if panic_rule_applies && !ctx.in_test_code(i) {
            if t.kind == TokKind::Ident && i > 0 && toks[i - 1].text == "." {
                if t.text == "unwrap" && toks.get(i + 1).map(|t| t.text == "(").unwrap_or(false) {
                    out.push(
                        ctx.finding(
                            t.line,
                            SS_PANIC_001,
                            "`.unwrap()` in daemon-path code; plumb a `Result` or use \
                         `.expect(\"invariant: …\")`"
                                .to_owned(),
                        ),
                    );
                }
                if t.text == "expect" && toks.get(i + 1).map(|t| t.text == "(").unwrap_or(false) {
                    let msg_ok = toks
                        .get(i + 2)
                        .map(|m| m.kind == TokKind::Str && m.text.starts_with("invariant:"))
                        .unwrap_or(false);
                    if !msg_ok {
                        out.push(
                            ctx.finding(
                                t.line,
                                SS_PANIC_001,
                                "`.expect(…)` in daemon-path code must document its invariant: \
                             use a literal message starting with `invariant: `"
                                    .to_owned(),
                            ),
                        );
                    }
                }
            }
            // Indexing: `expr[…]` where expr ends in a non-keyword identifier,
            // `)` or `]`; the infallible full-range form `[..]` is exempt.
            if t.kind == TokKind::Punct && t.text == "[" && i > 0 {
                let prev = &toks[i - 1];
                let indexable = match prev.kind {
                    TokKind::Ident => !is_keyword(&prev.text),
                    TokKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                let full_range = toks.get(i + 1).map(|a| a.text == "..").unwrap_or(false)
                    && toks.get(i + 2).map(|b| b.text == "]").unwrap_or(false);
                if indexable && !full_range {
                    out.push(
                        ctx.finding(
                            t.line,
                            SS_PANIC_001,
                            "indexing can panic in daemon-path code; use `.get(…)` / split \
                         methods, or document the bound with an allow"
                                .to_owned(),
                        ),
                    );
                }
            }
        }

        // SS-OBS-001 — telemetry series names must be kebab-case literals.
        if obs_rule_applies
            && t.kind == TokKind::Ident
            && i > 0
            && toks[i - 1].text == "."
            && TELEMETRY_RECORDERS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|p| p.text == "(").unwrap_or(false)
        {
            match toks.get(i + 2) {
                Some(arg) if arg.kind == TokKind::Str => {
                    if !is_kebab(&arg.text) {
                        out.push(ctx.finding(
                            t.line,
                            SS_OBS_001,
                            format!(
                                "telemetry name {:?} is not kebab-case; \
                                 use `[a-z0-9]+(-[a-z0-9]+)*`",
                                arg.text
                            ),
                        ));
                    }
                }
                _ => {
                    out.push(ctx.finding(
                        t.line,
                        SS_OBS_001,
                        format!(
                            "`.{}(…)` takes a computed name; telemetry names must be \
                             `&'static str` kebab-case literals (put dynamic parts in a \
                             label or attribute)",
                            t.text
                        ),
                    ));
                }
            }
        }

        // SS-OBS-002 — span names must come from the registry. Only fires on
        // kebab-case literals: dynamic or malformed names are SS-OBS-001's
        // job, and double-flagging one call site helps nobody.
        if obs_rule_applies
            && !ctx.span_registry.is_empty()
            && !ctx.in_test_code(i)
            && t.kind == TokKind::Ident
            && i > 0
            && toks[i - 1].text == "."
            && (t.text == "span_start" || t.text == "span_child")
            && toks.get(i + 1).map(|p| p.text == "(").unwrap_or(false)
        {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Str
                    && is_kebab(&arg.text)
                    && !ctx.span_registry.iter().any(|n| n == &arg.text)
                {
                    out.push(ctx.finding(
                        t.line,
                        SS_OBS_002,
                        format!(
                            "span name {:?} is not registered; add it to SPAN_NAMES in \
                             crates/telemetry/src/names.rs so profile baselines track it",
                            arg.text
                        ),
                    ));
                }
            }
        }

        // SS-OBS-003 — event and counter names must come from their
        // registries. Scoped exactly like SS-OBS-002: kebab-case literals
        // only (dynamic/malformed names are SS-OBS-001's job), non-test
        // code outside the telemetry crate, and an empty registry disables
        // its half rather than flagging every call site.
        if obs_rule_applies
            && !ctx.in_test_code(i)
            && t.kind == TokKind::Ident
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|p| p.text == "(").unwrap_or(false)
        {
            let target = match t.text.as_str() {
                "event" => Some((ctx.event_registry, "event", "EVENT_NAMES")),
                "counter_add" | "counter_incr" | "counter_add_labeled" => {
                    Some((ctx.counter_registry, "counter", "COUNTER_NAMES"))
                }
                _ => None,
            };
            if let Some((registry, which, const_name)) = target {
                if !registry.is_empty() {
                    if let Some(arg) = toks.get(i + 2) {
                        if arg.kind == TokKind::Str
                            && is_kebab(&arg.text)
                            && !registry.iter().any(|n| n == &arg.text)
                        {
                            out.push(ctx.finding(
                                t.line,
                                SS_OBS_003,
                                format!(
                                    "{which} name {:?} is not registered; add it to \
                                     {const_name} in crates/telemetry/src/names.rs so \
                                     summaries and rollups can query it",
                                    arg.text
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // SS-CAST-001 — narrowing `as` casts in codec crates.
        if cast_rule_applies && !ctx.in_test_code(i) && t.kind == TokKind::Ident && t.text == "as" {
            if let Some(ty) = toks.get(i + 1) {
                if ty.kind == TokKind::Ident && NARROW_INT_TYPES.contains(&ty.text.as_str()) {
                    out.push(ctx.finding(
                        t.line,
                        SS_CAST_001,
                        format!(
                            "narrowing `as {0}` in codec code silently truncates; \
                             use `{0}::try_from` with a decode error",
                            ty.text
                        ),
                    ));
                }
            }
        }
    }

    out
}

/// Phase 2: cross-file rules over the extracted workspace model.
pub fn check_model(model: &WorkspaceModel) -> Vec<Finding> {
    let mut out = Vec::new();
    let finding = |site: &crate::model::Site, rule: &'static str, message: String| Finding {
        file: site.file.clone(),
        line: site.line,
        rule,
        message,
    };

    // SS-PROTO-002 — encode/decode collapsed op sequences must agree.
    for pair in &model.codec_pairs {
        if pair.encode.ops.is_empty() || pair.decode.ops.is_empty() {
            continue; // delegating wrappers carry no comparable shape
        }
        if pair.encode.ops != pair.decode.ops {
            out.push(finding(
                &crate::model::Site { file: pair.file.clone(), line: pair.decode.line },
                SS_PROTO_002,
                format!(
                    "`{owner}::{d}` reads [{dec}] but `{owner}::{e}` (line {el}) writes \
                     [{enc}]; field order/widths must mirror exactly",
                    owner = pair.owner,
                    d = pair.decode.name,
                    e = pair.encode.name,
                    el = pair.encode.line,
                    dec = pair.decode.ops.join(", "),
                    enc = pair.encode.ops.join(", "),
                ),
            ));
        }
    }

    // SS-PROTO-003 — endianness, scoped to codec crates, non-test.
    for e in &model.big_endian {
        if e.in_test || !CODEC_CRATES.contains(&e.krate.as_str()) {
            continue;
        }
        out.push(finding(
            &e.site,
            SS_PROTO_003,
            format!(
                "`{}` is big/native-endian; the wire layout is pinned little-endian \
                 (paper §3.5.1) — use the `_le` variant",
                e.call
            ),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(krate: &str, is_test: bool, src: &str) -> Vec<Finding> {
        let spans = ["client-request".to_owned(), "probe-report".to_owned()];
        let events = ["fault-injected".to_owned()];
        let counters = ["any-counter-name".to_owned(), "net-udp-drops".to_owned()];
        let lexed = lex(src);
        let ranges = test_ranges(&lexed.toks);
        let ctx = FileCtx {
            rel: "x.rs",
            krate,
            file_is_test: is_test,
            lexed: &lexed,
            test_ranges: &ranges,
            span_registry: &spans,
            event_registry: &events,
            counter_registry: &counters,
        };
        check_file(&ctx)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn det_rules_fire_in_any_crate() {
        let f = run("hostsim", false, "use std::time::Instant; let m: HashMap<u8,u8>;");
        assert_eq!(rules_of(&f), [SS_DET_001, SS_DET_002]);
    }

    #[test]
    fn det_rules_fire_even_in_test_files() {
        let f = run("suite", true, "let s: HashSet<u8> = HashSet::new();");
        assert_eq!(rules_of(&f), [SS_DET_002, SS_DET_002]);
    }

    #[test]
    fn sleep_is_a_wall_clock_finding_outside_tests_only() {
        let src = "fn f() { std::thread::sleep(d); }\n\
                   #[cfg(test)] mod t { fn h() { std::thread::sleep(d); } }";
        assert_eq!(rules_of(&run("net", false, src)), [SS_DET_001]);
        assert!(run("net", true, src).is_empty(), "test files may sleep");
        assert!(run("net", false, "fn f(s: &S) { s.sleep(d); sleep(d); }").is_empty());
    }

    #[test]
    fn entropy_rule_names_the_call() {
        let f = run("net", false, "let mut rng = rand::thread_rng();");
        assert_eq!(rules_of(&f), [SS_DET_003]);
    }

    #[test]
    fn panic_rule_only_in_daemon_crates() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(run("sim", false, src).is_empty());
        assert_eq!(rules_of(&run("monitor", false, src)), [SS_PANIC_001]);
    }

    #[test]
    fn panic_rule_skips_cfg_test_modules_and_test_fns() {
        let src = "fn live(x: Option<u8>) { }\n\
                   #[cfg(test)]\nmod tests { fn h(x: Option<u8>) -> u8 { x.unwrap() } }\n\
                   #[test]\nfn t() { v[0]; }";
        assert!(run("core", false, src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nmod live { fn f(x: Option<u8>) -> u8 { x.unwrap() } }";
        assert_eq!(rules_of(&run("core", false, src)), [SS_PANIC_001]);
    }

    #[test]
    fn documented_invariant_expect_passes() {
        let ok = "fn f(x: Option<u8>) -> u8 { x.expect(\"invariant: set in new()\") }";
        assert!(run("wire", false, ok).is_empty());
        let bad = "fn f(x: Option<u8>) -> u8 { x.expect(\"oops\") }";
        assert_eq!(rules_of(&run("wire", false, bad)), [SS_PANIC_001]);
    }

    #[test]
    fn indexing_flags_but_full_range_is_exempt() {
        let src = "fn f(v: &[u8]) -> u8 { let _ = &v[..]; v[0] }";
        let f = run("probe", false, src);
        assert_eq!(rules_of(&f), [SS_PANIC_001]);
        // Array types, attributes and macro brackets are not indexing.
        let quiet = "#[derive(Debug)] struct S { a: [u8; 4] }\nfn g() { let v = vec![1]; }";
        assert!(run("probe", false, quiet).is_empty());
    }

    #[test]
    fn obs_rule_wants_kebab_literals() {
        let ok = "fn f(s: &mut S) { s.telemetry.counter_incr(\"net-udp-drops\"); }";
        assert!(run("net", false, ok).is_empty());
        let snake = "fn f(s: &mut S) { s.telemetry.counter_incr(\"net_udp_drops\"); }";
        assert_eq!(rules_of(&run("net", false, snake)), [SS_OBS_001]);
        let dynamic = "fn f(s: &mut S, n: &str) { s.telemetry.counter_add(n, 1); }";
        assert_eq!(rules_of(&run("net", false, dynamic)), [SS_OBS_001]);
    }

    #[test]
    fn obs_rule_applies_in_test_files_but_not_the_telemetry_crate() {
        let snake = "fn f(t: &mut T) { t.gauge_set(\"Bad_Name\", \"l\", 1); }";
        assert_eq!(rules_of(&run("core", true, snake)), [SS_OBS_001]);
        assert!(run("telemetry", false, snake).is_empty());
    }

    #[test]
    fn obs002_wants_registered_span_names() {
        let ok = "fn f(s: &mut S) { let id = s.telemetry.span_start(\"client-request\", \"h\"); \
                  s.telemetry.span_child(\"probe-report\", \"h\", id); }";
        assert!(run("net", false, ok).is_empty());
        let rogue = "fn f(s: &mut S) { s.telemetry.span_start(\"rogue-span\", \"h\"); }";
        assert_eq!(rules_of(&run("net", false, rogue)), [SS_OBS_002]);
        // Registered non-span recorders are SS-OBS-003's scope, not 002's.
        let counter = "fn f(s: &mut S) { s.telemetry.counter_incr(\"any-counter-name\"); }";
        assert!(run("net", false, counter).is_empty());
    }

    #[test]
    fn obs002_exempts_tests_telemetry_and_nonkebab_sites() {
        let rogue = "fn f(s: &mut S) { s.telemetry.span_start(\"rogue-span\", \"h\"); }";
        assert!(run("net", true, rogue).is_empty(), "test files are exempt");
        assert!(run("telemetry", false, rogue).is_empty());
        let in_test_mod = "#[cfg(test)]\nmod tests { fn t(s: &mut S) { \
                           s.telemetry.span_start(\"rogue-span\", \"h\"); } }";
        assert!(run("net", false, in_test_mod).is_empty());
        // A non-kebab or dynamic name is SS-OBS-001's finding, not a double.
        let snake = "fn f(s: &mut S) { s.telemetry.span_start(\"Rogue_Span\", \"h\"); }";
        assert_eq!(rules_of(&run("net", false, snake)), [SS_OBS_001]);
        // An empty registry disables the rule rather than flagging everything.
        let lexed = lex(rogue);
        let ranges = test_ranges(&lexed.toks);
        let ctx = FileCtx {
            rel: "x.rs",
            krate: "net",
            file_is_test: false,
            lexed: &lexed,
            test_ranges: &ranges,
            span_registry: &[],
            event_registry: &[],
            counter_registry: &[],
        };
        assert!(check_file(&ctx).is_empty());
    }

    #[test]
    fn obs003_wants_registered_event_and_counter_names() {
        let ok = "fn f(s: &mut S) { s.telemetry.event(\"fault-injected\", \"h\", &[]); \
                  s.telemetry.counter_incr(\"net-udp-drops\"); \
                  s.telemetry.counter_add_labeled(\"net-udp-drops\", \"eth0\", 1); }";
        assert!(run("net", false, ok).is_empty());
        let rogue_event = "fn f(s: &mut S) { s.telemetry.event(\"rogue-event\", \"h\", &[]); }";
        assert_eq!(rules_of(&run("net", false, rogue_event)), [SS_OBS_003]);
        let rogue_counter = "fn f(s: &mut S) { s.telemetry.counter_add(\"rogue-counter\", 2); }";
        assert_eq!(rules_of(&run("net", false, rogue_counter)), [SS_OBS_003]);
        // Gauges and histograms are outside the registries' scope.
        let gauge = "fn f(s: &mut S) { s.telemetry.gauge_set(\"free-form-gauge\", \"l\", 1); \
                     s.telemetry.observe_ns(\"free-form-hist\", 9); }";
        assert!(run("net", false, gauge).is_empty());
    }

    #[test]
    fn obs003_exempts_tests_telemetry_nonkebab_and_empty_registries() {
        let rogue = "fn f(s: &mut S) { s.telemetry.counter_incr(\"rogue-counter\"); }";
        assert!(run("net", true, rogue).is_empty(), "test files are exempt");
        assert!(run("telemetry", false, rogue).is_empty());
        let in_test_mod = "#[cfg(test)]\nmod tests { fn t(s: &mut S) { \
                           s.telemetry.counter_incr(\"rogue-counter\"); } }";
        assert!(run("net", false, in_test_mod).is_empty());
        // A non-kebab or dynamic name is SS-OBS-001's finding, not a double.
        let snake = "fn f(s: &mut S) { s.telemetry.event(\"Rogue_Event\", \"h\", &[]); }";
        assert_eq!(rules_of(&run("net", false, snake)), [SS_OBS_001]);
        // Empty registries disable the rule rather than flagging everything.
        let lexed = lex(rogue);
        let ranges = test_ranges(&lexed.toks);
        let ctx = FileCtx {
            rel: "x.rs",
            krate: "net",
            file_is_test: false,
            lexed: &lexed,
            test_ranges: &ranges,
            span_registry: &[],
            event_registry: &[],
            counter_registry: &[],
        };
        assert!(check_file(&ctx).is_empty());
    }

    #[test]
    fn cast_rule_only_narrowing_only_codec_crates() {
        let src = "fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(rules_of(&run("proto", false, src)), [SS_CAST_001]);
        assert!(run("monitor", false, src).is_empty());
        let widening = "fn f(x: u32) -> u64 { x as u64 }\nfn g(x: u16) -> usize { x as usize }";
        assert!(run("wire", false, widening).is_empty());
    }
}
