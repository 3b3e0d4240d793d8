//! CLI for `smartsock-analyze`.
//!
//! ```text
//! cargo run -p smartsock-analyze -- check [--format=human|json] [--root=PATH]
//! cargo run -p smartsock-analyze -- model [--root=PATH]
//! cargo run -p smartsock-analyze -- allows [--root=PATH]
//! cargo run -p smartsock-analyze -- rules
//! ```
//!
//! `check` exits 0 when the tree is clean and 1 when any finding remains, so
//! it can gate CI directly; `allows` does the same over the suppression
//! audit (stale or unjustified allows exit 1).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::path::PathBuf;
use std::process::ExitCode;

use smartsock_analyze::{run_analysis, RULES};

const USAGE: &str = "\
smartsock-analyze — determinism & protocol-safety lints for the smartsock tree

USAGE:
    smartsock-analyze check  [--format=human|json] [--root=PATH]
    smartsock-analyze model  [--root=PATH]
    smartsock-analyze allows [--root=PATH]
    smartsock-analyze rules

COMMANDS:
    check    walk crates/*/{src,tests}, src/, tests/, examples/ and run all
             per-file and cross-file rules
    model    dump the phase-1 workspace model (codec pairs and endian
             sites), Debug form
    allows   audit every `// analyze: allow(…)` suppression: location, rules,
             justification, and whether it still suppresses anything
    rules    list rule IDs and what they enforce

EXIT CODES:
    0    clean — check: no findings; allows: every allow justified and live
    1    findings remain (check) / stale or unjustified allows (allows)
    2    usage error, unknown flag/format, or the tree could not be read

Suppress one finding with `// analyze: allow(RULE-ID): justification`, on
the offending line or alone on the line above it. `check --format=json` and
the human format always report the same finding count (`total`).
";

/// Parse trailing `--root=PATH` (any subcommand) and `--format=` (check).
fn parse_flags(args: &[String], allow_format: bool) -> Result<(String, PathBuf), String> {
    let mut format = "human".to_owned();
    let mut root = PathBuf::from(".");
    for a in args {
        if let Some(v) = a.strip_prefix("--format=") {
            if !allow_format {
                return Err(format!("`{a}` is only valid for `check`"));
            }
            format = v.to_owned();
        } else if let Some(v) = a.strip_prefix("--root=") {
            root = PathBuf::from(v);
        } else {
            return Err(format!("unknown argument `{a}`"));
        }
    }
    if format != "human" && format != "json" {
        return Err(format!("unknown format `{format}` (expected human or json)"));
    }
    Ok((format, root))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = |allow_format: bool| parse_flags(&args[1..], allow_format);
    match cmd.as_str() {
        "rules" => {
            for r in RULES {
                println!("{:<14} {}", r.id, r.summary);
            }
            ExitCode::SUCCESS
        }
        "check" => {
            let (format, root) = match flags(true) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("{e}\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let analysis = match run_analysis(&root) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("analyze: cannot scan {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
            if format == "json" {
                println!("{}", analysis.report.to_json());
            } else {
                print!("{}", analysis.report.to_human());
            }
            if analysis.report.total() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "model" => {
            let (_, root) = match flags(false) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("{e}\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            };
            match run_analysis(&root) {
                Ok(a) => {
                    println!("{:#?}", a.model);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("analyze: cannot scan {}: {e}", root.display());
                    ExitCode::from(2)
                }
            }
        }
        "allows" => {
            let (_, root) = match flags(false) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("{e}\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            };
            match run_analysis(&root) {
                Ok(a) => {
                    let (text, clean) = a.allows_report();
                    print!("{text}");
                    if clean {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("analyze: cannot scan {}: {e}", root.display());
                    ExitCode::from(2)
                }
            }
        }
        other => {
            eprintln!("unknown command `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
