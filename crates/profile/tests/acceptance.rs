//! Acceptance coverage for `profile bench`: the document it writes is
//! byte-identical across runs and across `--jobs`.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_profile"))
}

#[test]
fn cli_bench_run_twice_with_no_flag_writes_byte_identical_documents() {
    let run = |jobs: &str| {
        let args = ["bench", "--jobs", jobs, "fig3.3", "table5.2"];
        let out = bin().args(args).output().expect("run profile bench");
        assert!(out.status.success(), "bench failed: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let doc = run("1");
    assert_eq!(doc, run("1"), "BENCH_profile.json must compare with cmp");
    assert_eq!(doc, run("8"), "and must not depend on --jobs");
    assert!(!String::from_utf8_lossy(&doc).contains("wall"));
}
