//! `repro` validates its flags before it runs anything.

use std::process::Command;

#[test]
fn json_with_seeds_is_rejected_before_any_cell_runs() {
    // 10 000 seeds x the whole catalog is hours of simulation: the test
    // only returns if the flag check comes first.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--json", "--seeds", "1..10000", "all"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--json is not supported in --seeds matrix mode"), "{err}");
}
