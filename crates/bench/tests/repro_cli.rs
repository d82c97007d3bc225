//! `repro` rejects a bad command line with exit status 2 and a usage
//! message — never a panic, and never after running half the figures. A
//! failed output write fails its section's verdict, and the outputs it
//! does write are the checked-in `BENCH_*.json` files and one CSV per
//! figure.

use std::fs;
use std::path::Path;
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

#[test]
fn a_failed_bench_write_fails_its_section() {
    // A directory where the file should go cannot be written over.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli_bench_blocked");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("BENCH_buffer.json")).expect("blocking directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["--skip-ssb", "--cache", "7"])
        .output()
        .expect("repro starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("BENCH_buffer.json not written"), "{stderr}");
    assert!(stdout.contains("[FAIL] cache"), "{stdout}");
}

#[test]
fn bench_files_match_the_checked_in_ones_and_every_figure_has_a_csv() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli_outputs");
    // A stale file from an earlier run must not stand in for this one's.
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["--skip-ssb", "--csv", "figs"])
        .args(["--cache", "7", "--cluster", "7", "--slo", "7"])
        .args(["--gray", "7", "--recover", "7"])
        .output()
        .expect("repro starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in [
        "BENCH_buffer.json",
        "BENCH_cluster.json",
        "BENCH_gray.json",
        "BENCH_recover.json",
        "BENCH_slo.json",
    ] {
        let written = fs::read_to_string(dir.join(name)).expect("repro wrote it");
        let checked_in = fs::read_to_string(root.join(name)).expect("checked in");
        assert_eq!(written, checked_in, "{name} moved");
    }

    let mut csvs: Vec<String> = fs::read_dir(dir.join("figs"))
        .expect("csv directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    csvs.sort();
    let expected = [
        "abl_interleave.csv",
        "abl_latency.csv",
        "abl_prefetcher.csv",
        "abl_upi.csv",
        "abl_wc_buffer.csv",
        "fig10.csv",
        "fig11.csv",
        "fig12a.csv",
        "fig12b.csv",
        "fig13a.csv",
        "fig13b.csv",
        "fig3a.csv",
        "fig3b.csv",
        "fig4.csv",
        "fig5.csv",
        "fig6a.csv",
        "fig6b.csv",
        "fig7a.csv",
        "fig7b.csv",
        "fig8a.csv",
        "fig8b.csv",
        "fig9.csv",
        "fig_dax.csv",
    ];
    assert_eq!(csvs, expected);
}
