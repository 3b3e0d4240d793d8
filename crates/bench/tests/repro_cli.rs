//! `repro` validates its flags before it runs anything.

use std::process::Command;

#[test]
fn a_full_u64_seed_range_is_rejected_before_any_cell_runs() {
    // Every u64 seed x the whole catalog never finishes: the test only
    // returns if the range check comes first, and does not overflow.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--seeds", "0..18446744073709551615", "all"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("seeds is past the 10000-seed sanity cap"), "{err}");
}
