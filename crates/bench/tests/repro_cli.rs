//! `repro` rejects a bad command line with exit status 2 and a usage
//! message — never a panic, and never after running half the figures.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 8] = [
        &["--sf", "abc"],
        &["--sf", "0"],
        &["--sf", "-1"],
        &["--sf", "nan"],
        &["--threads", "x"],
        &["--skip-ssb", "--cluster"],
        &["--csv"],
        &["--bogus"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
    }
}

#[test]
fn a_failed_csv_write_fails_its_verdict_and_the_run_finishes() {
    // A directory path under a regular file cannot be created.
    let blocker = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli_blocker");
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--skip-ssb", "--csv"])
        .arg(blocker.join("figs"))
        .output()
        .expect("repro starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("not written"), "{stderr}");
    assert!(
        stdout.contains("[FAIL] csv"),
        "the verdict table records it"
    );
    assert!(stdout.contains("[ok] insights"), "later sections still ran");
}
