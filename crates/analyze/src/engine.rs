//! Orchestration: walk the workspace, lex each file, extract the phase-1
//! model, run per-file and cross-file rules, apply suppressions, and render
//! the report.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{self, TokKind};
use crate::model::{self, SourceUnit, WorkspaceModel};
use crate::rules::{self, Finding};

/// Where the telemetry name registries (spans, events, counters) live,
/// relative to the workspace root.
pub const SPAN_REGISTRY_PATH: &str = "crates/telemetry/src/names.rs";

/// The result of one `check` run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression filtering, in walk order.
    pub findings: Vec<Finding>,
    /// How many findings were silenced by a justified `allow(…)`.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// One file handed to [`analyze_files`].
pub struct FileInput<'a> {
    /// Workspace-relative display path.
    pub rel: &'a str,
    /// Crate short name (`proto`, `wire`, …) or `suite`.
    pub krate: &'a str,
    /// True for files under `tests/` or `examples/`.
    pub is_test: bool,
    pub src: &'a str,
}

/// One `// analyze: allow(…)` comment, audited: where it is, what it
/// suppresses, and whether it still earns its keep.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    pub file: String,
    pub line: u32,
    pub rules: Vec<String>,
    pub justified: bool,
    pub justification: String,
    /// How many findings this allow silenced in the current run.
    pub suppressed: usize,
}

/// Everything one full run produces: the findings report, the allow audit,
/// and the extracted workspace model.
pub struct Analysis {
    pub report: Report,
    pub allows: Vec<AllowRecord>,
    pub model: WorkspaceModel,
}

/// One file to scan, with the crate it belongs to.
struct Target {
    path: PathBuf,
    rel: String,
    krate: String,
    is_test: bool,
}

fn push_rs_files(dir: &Path, root: &Path, krate: &str, is_test: bool, out: &mut Vec<Target>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    // Sort so the report (and JSON) is byte-stable across runs and platforms.
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            push_rs_files(&p, root, krate, is_test, out);
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(Target { path: p, rel, krate: krate.to_owned(), is_test });
        }
    }
}

/// Enumerate every file the checker covers: `crates/*/{src,tests}`, plus the
/// facade package's `src/`, `tests/` and `examples/`.
fn targets(root: &Path) -> Vec<Target> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.is_dir()).collect())
        .unwrap_or_default();
    crate_dirs.sort();
    for dir in crate_dirs {
        let Some(name) = dir.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        push_rs_files(&dir.join("src"), root, &name, false, &mut out);
        push_rs_files(&dir.join("tests"), root, &name, true, &mut out);
    }
    push_rs_files(&root.join("src"), root, "suite", false, &mut out);
    push_rs_files(&root.join("tests"), root, "suite", true, &mut out);
    push_rs_files(&root.join("examples"), root, "suite", true, &mut out);
    out
}

/// The telemetry name registries, as loaded from
/// `crates/telemetry/src/names.rs`. Each empty list disables its rule —
/// spans for SS-OBS-002, events and counters for their halves of
/// SS-OBS-003 — rather than flagging every call site when the registry
/// file could not be read.
#[derive(Debug, Clone, Default)]
pub struct NameRegistry {
    pub spans: Vec<String>,
    pub events: Vec<String>,
    pub counters: Vec<String>,
}

impl NameRegistry {
    /// Extract all three registries from registry source text. Lexing the
    /// real file instead of keeping a copy here means registering a name
    /// stays a one-file change.
    pub fn from_source(src: &str) -> Self {
        let lexed = lexer::lex(src);
        Self {
            spans: const_str_literals(&lexed, "SPAN_NAMES"),
            events: const_str_literals(&lexed, "EVENT_NAMES"),
            counters: const_str_literals(&lexed, "COUNTER_NAMES"),
        }
    }
}

/// Every string literal between `const_name` and its closing `;` — the
/// names, in declaration order. Comments are not tokens, and each
/// initializer is a flat `&[…]` of literals by construction (names.rs's
/// own tests check the shape). Empty if the const is absent.
fn const_str_literals(lexed: &lexer::Lexed, const_name: &str) -> Vec<String> {
    let toks = &lexed.toks;
    let Some(start) = toks.iter().position(|t| t.kind == TokKind::Ident && t.text == const_name)
    else {
        return Vec::new();
    };
    toks[start..]
        .iter()
        .take_while(|t| t.text != ";")
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| t.text.clone())
        .collect()
}

/// Pull just the `SPAN_NAMES` literals out of registry source text.
pub fn span_registry_from_source(src: &str) -> Vec<String> {
    const_str_literals(&lexer::lex(src), "SPAN_NAMES")
}

/// Run the full two-phase analysis over a set of already-loaded files:
/// lex everything, extract the workspace model, run per-file rules and
/// cross-file model rules, then apply suppressions with usage accounting.
/// Each empty registry list disables its rule (SS-OBS-002 / SS-OBS-003).
pub fn analyze_files(files: &[FileInput<'_>], registry: &NameRegistry) -> Analysis {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|f| lexer::lex(f.src)).collect();
    let ranges: Vec<Vec<(usize, usize)>> =
        lexed.iter().map(|l| rules::test_ranges(&l.toks)).collect();

    // Phase 1: the workspace model.
    let units: Vec<SourceUnit<'_>> = files
        .iter()
        .zip(lexed.iter().zip(ranges.iter()))
        .map(|(f, (l, r))| SourceUnit {
            rel: f.rel,
            krate: f.krate,
            file_is_test: f.is_test,
            lexed: l,
            test_ranges: r,
        })
        .collect();
    let model = model::extract(&units);

    // Phase 2: cross-file rules, attributed back to their files.
    let mut cross = rules::check_model(&model);

    let mut report = Report::default();
    let mut allows = Vec::new();
    for (idx, f) in files.iter().enumerate() {
        let ctx = rules::FileCtx {
            rel: f.rel,
            krate: f.krate,
            file_is_test: f.is_test,
            lexed: &lexed[idx],
            test_ranges: &ranges[idx],
            span_registry: &registry.spans,
            event_registry: &registry.events,
            counter_registry: &registry.counters,
        };
        let mut raw = rules::check_file(&ctx);
        let (mine, rest): (Vec<Finding>, Vec<Finding>) =
            cross.into_iter().partition(|c| c.file == f.rel);
        cross = rest;
        raw.extend(mine);
        raw.sort_by_key(|f| f.line);

        let suppressions = &lexed[idx].suppressions;
        let mut used = vec![0usize; suppressions.len()];
        for fnd in raw {
            match suppressions.iter().position(|s| s.justified && s.covers(fnd.rule, fnd.line)) {
                Some(si) => {
                    used[si] += 1;
                    report.suppressed += 1;
                }
                None => report.findings.push(fnd),
            }
        }
        for (si, s) in suppressions.iter().enumerate() {
            // A suppression without a justification is itself a finding —
            // the whole point of `allow` is to leave a paper trail. One
            // that silences nothing is stale and must be deleted.
            if !s.justified {
                report.findings.push(Finding {
                    file: f.rel.to_owned(),
                    line: s.line,
                    rule: rules::SS_ALLOW_001,
                    message: format!(
                        "allow({}) has no justification; write \
                         `// analyze: allow({}): <why this is sound>`",
                        s.rules.join(", "),
                        s.rules.join(", "),
                    ),
                });
            } else if used[si] == 0 {
                report.findings.push(Finding {
                    file: f.rel.to_owned(),
                    line: s.line,
                    rule: rules::SS_ALLOW_001,
                    message: format!(
                        "allow({}) suppresses nothing: the rule no longer fires here — \
                         delete the stale suppression",
                        s.rules.join(", "),
                    ),
                });
            }
            allows.push(AllowRecord {
                file: f.rel.to_owned(),
                line: s.line,
                rules: s.rules.clone(),
                justified: s.justified,
                justification: s.justification.clone(),
                suppressed: used[si],
            });
        }
        report.files_scanned += 1;
    }
    Analysis { report, allows, model }
}

/// Scan one already-loaded file. Exposed for the fixture tests. Each
/// empty registry list disables its rule (SS-OBS-002 / SS-OBS-003).
pub fn scan_source(
    rel: &str,
    krate: &str,
    is_test: bool,
    src: &str,
    registry: &NameRegistry,
) -> (Vec<Finding>, usize) {
    let a = analyze_files(&[FileInput { rel, krate, is_test, src }], registry);
    (a.report.findings, a.report.suppressed)
}

/// Walk the tree under `root` and run the full analysis.
pub fn run_analysis(root: &Path) -> io::Result<Analysis> {
    let registry = fs::read_to_string(root.join(SPAN_REGISTRY_PATH))
        .map(|src| NameRegistry::from_source(&src))
        .unwrap_or_default();
    let loaded: Vec<(Target, String)> = targets(root)
        .into_iter()
        .map(|t| {
            let src = fs::read_to_string(&t.path)?;
            Ok((t, src))
        })
        .collect::<io::Result<_>>()?;
    let files: Vec<FileInput<'_>> = loaded
        .iter()
        .map(|(t, src)| FileInput { rel: &t.rel, krate: &t.krate, is_test: t.is_test, src })
        .collect();
    Ok(analyze_files(&files, &registry))
}

/// Walk the tree under `root` and run every rule.
pub fn run_check(root: &Path) -> io::Result<Report> {
    run_analysis(root).map(|a| a.report)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// The one true finding count — both renderings quote exactly this, so
    /// human and JSON output can never drift apart.
    pub fn total(&self) -> usize {
        self.findings.len()
    }

    /// Machine-readable rendering: a single JSON object, stable field order.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
                json_escape(&f.file),
                f.line,
                f.rule,
                json_escape(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" },
            ));
        }
        s.push_str(&format!(
            "  ],\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"total\": {}\n}}",
            self.files_scanned,
            self.suppressed,
            self.total()
        ));
        s
    }

    /// Human rendering: one `path:line: RULE message` per finding + summary.
    pub fn to_human(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!("{}:{}: {} {}\n", f.file, f.line, f.rule, f.message));
        }
        let rules_hit: BTreeSet<&str> = self.findings.iter().map(|f| f.rule).collect();
        if self.findings.is_empty() {
            s.push_str(&format!(
                "analyze: clean — {} files scanned, 0 findings ({} suppressed with \
                 justification)\n",
                self.files_scanned, self.suppressed
            ));
        } else {
            s.push_str(&format!(
                "analyze: {} finding(s) across {} rule(s) in {} files ({} suppressed)\n",
                self.total(),
                rules_hit.len(),
                self.files_scanned,
                self.suppressed
            ));
        }
        s
    }
}

impl Analysis {
    /// Render the allow audit: every suppression with its status and
    /// justification. Returns `(text, clean)` — not clean when any allow is
    /// unjustified or no longer suppresses anything.
    pub fn allows_report(&self) -> (String, bool) {
        let mut s = String::new();
        let mut stale = 0usize;
        for a in &self.allows {
            let status = if !a.justified {
                stale += 1;
                "UNJUSTIFIED"
            } else if a.suppressed == 0 {
                stale += 1;
                "UNUSED"
            } else {
                "ok"
            };
            s.push_str(&format!(
                "{}:{}: allow({}) [{status}, suppresses {}] {}\n",
                a.file,
                a.line,
                a.rules.join(", "),
                a.suppressed,
                if a.justification.is_empty() { "<no justification>" } else { &a.justification },
            ));
        }
        s.push_str(&format!(
            "analyze: {} allow(s) audited, {} stale or unjustified\n",
            self.allows.len(),
            stale
        ));
        (s, stale == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn justified_allow_suppresses_and_counts() {
        let src = "let m: HashMap<u8, u8>; // analyze: allow(SS-DET-002): lookup-only cache\n";
        let (kept, suppressed) = scan_source("f.rs", "net", false, src, &NameRegistry::default());
        assert!(kept.is_empty(), "{kept:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn unjustified_allow_is_its_own_finding() {
        let src = "let m: HashMap<u8, u8>; // analyze: allow(SS-DET-002)\n";
        let (kept, _) = scan_source("f.rs", "net", false, src, &NameRegistry::default());
        // The HashMap stays suppressed? No: an unjustified allow does not
        // suppress, so both the DET finding and the ALLOW finding surface.
        let rules: Vec<_> = kept.iter().map(|f| f.rule).collect();
        assert_eq!(rules, [rules::SS_DET_002, rules::SS_ALLOW_001]);
    }

    #[test]
    fn own_line_allow_covers_next_line() {
        let src = "// analyze: allow(SS-DET-002): fixture table, never iterated\n\
                   let m: HashMap<u8, u8>;\n";
        let (kept, suppressed) = scan_source("f.rs", "net", false, src, &NameRegistry::default());
        assert!(kept.is_empty());
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn json_report_is_valid_shape() {
        let src = "let m: HashMap<u8, u8>;\n";
        let (kept, _) = scan_source("f.rs", "net", false, src, &NameRegistry::default());
        let report = Report { findings: kept, suppressed: 0, files_scanned: 1 };
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"SS-DET-002\""));
        assert!(json.contains("\"total\": 1"));
    }

    #[test]
    fn registry_extraction_reads_only_the_span_names_const() {
        let src = "//! Registry docs mention \"not-a-name\" in prose.\n\
                   pub const SPAN_NAMES: &[&str] = &[\n\
                       // core: request lifetime.\n\
                       \"client-request\",\n\
                       \"probe-report\",\n\
                   ];\n\
                   pub fn is_registered(name: &str) -> bool { name == \"also-not-a-name\" }\n";
        assert_eq!(span_registry_from_source(src), ["client-request", "probe-report"]);
        assert!(span_registry_from_source("pub fn nothing() {}").is_empty());
    }

    #[test]
    fn registry_extraction_matches_the_real_file() {
        let src = include_str!("../../telemetry/src/names.rs");
        let names = span_registry_from_source(src);
        assert!(names.contains(&"sim-event-dispatch".to_owned()), "{names:?}");
        assert!(names.len() >= 6, "{names:?}");
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "names.rs keeps SPAN_NAMES sorted");

        let reg = NameRegistry::from_source(src);
        assert_eq!(reg.spans, names, "NameRegistry spans match the span-only extraction");
        assert!(reg.events.contains(&"daemon-heartbeat".to_owned()), "{:?}", reg.events);
        assert!(reg.counters.contains(&"telemetry-dropped".to_owned()), "{:?}", reg.counters);
        assert!(reg.counters.len() >= 50, "{:?}", reg.counters.len());
    }
}
