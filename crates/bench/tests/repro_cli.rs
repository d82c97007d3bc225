//! `repro` rejects a bad command line with exit status 2 and a usage
//! message — never a panic, and never after running half the figures. A
//! failed output write fails its section's verdict, and the outputs it
//! does write are the checked-in `BENCH_*.json` files and one CSV per
//! figure. What three runs print and each CSV one of them writes are
//! pinned by their FNV-1a digests, so a change that moves any figure,
//! table or gate line names the output it moved.

use std::fs;
use std::path::Path;
use std::process::Command;

use pmem_store::scrub::{fnv64, FNV_OFFSET};

/// FNV-1a digests of the stdout and of every CSV of
/// `repro --skip-ssb --csv figs --cache 7 --cluster 7 --slo 7 --gray 7
/// --recover 7`, the same in debug and release. A deliberate change to a
/// printed or written number re-records the digests it moves.
const STDOUT_DIGEST: u64 = 0x6880_5e41_dab5_d86a;
const CSV_DIGESTS: [(&str, u64); 23] = [
    ("abl_interleave.csv", 0xeb95_0a62_2542_f79d),
    ("abl_latency.csv", 0x2bdf_eaa2_1e49_85bd),
    ("abl_prefetcher.csv", 0xd1c7_7354_2e7f_d5cf),
    ("abl_upi.csv", 0xd1ef_6ff6_a1b5_1943),
    ("abl_wc_buffer.csv", 0x884a_6058_7a49_c0d3),
    ("fig10.csv", 0x7c70_2772_42a9_7b58),
    ("fig11.csv", 0x5f72_97d7_77fe_416e),
    ("fig12a.csv", 0x5574_91df_91d9_43c3),
    ("fig12b.csv", 0xcfdb_29bf_48ff_9f90),
    ("fig13a.csv", 0xb409_ad2c_40da_60bb),
    ("fig13b.csv", 0xf1ea_c01a_aefa_185f),
    ("fig3a.csv", 0x08f0_a7b2_c64e_50d1),
    ("fig3b.csv", 0xd059_3ec9_b2f7_02a8),
    ("fig4.csv", 0xabe3_2000_b82f_41e7),
    ("fig5.csv", 0x9d65_266e_99a4_1a81),
    ("fig6a.csv", 0xed76_18fc_c643_0329),
    ("fig6b.csv", 0x529e_ba37_bb83_b499),
    ("fig7a.csv", 0xa7fe_d7b9_a3d1_f52f),
    ("fig7b.csv", 0xdec9_7ad0_c295_48cb),
    ("fig8a.csv", 0x4d59_93ef_480e_3642),
    ("fig8b.csv", 0x49b4_30cb_2d34_f1c7),
    ("fig9.csv", 0x135d_54d2_a7b9_9d94),
    ("fig_dax.csv", 0x08af_3d26_db0b_948a),
];

/// FNV-1a digests of the stdout of two more runs, the same in debug and
/// release: the open-loop surge (`ServeConfig::surge` with resilience,
/// overload and fairness on) with the crash-state checker, and the SSB
/// figures at SF 0.005 with the serve, faults and media sections.
const MORE_RUNS: [(&[&str], u64); 2] = [
    (
        &["--skip-ssb", "--surge", "7", "--crashes"],
        0x77fa_fde2_9d40_97d7,
    ),
    (
        &["--sf", "0.005", "--faults", "7", "--media", "7"],
        0x74b6_f039_59a8_c3a9,
    ),
];

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
    let expected: Vec<&str> = CSV_DIGESTS.iter().map(|&(name, _)| name).collect();
    assert_eq!(csvs, expected);

    let mut moved = Vec::new();
    let stdout = fnv64(FNV_OFFSET, &out.stdout);
    if stdout != STDOUT_DIGEST {
        moved.push(format!(
            "stdout: {stdout:#018x} (pinned {STDOUT_DIGEST:#018x})"
        ));
    }
    for (name, pinned) in CSV_DIGESTS {
        let bytes = fs::read(dir.join("figs").join(name)).expect("repro wrote it");
        let digest = fnv64(FNV_OFFSET, &bytes);
        if digest != pinned {
            moved.push(format!("{name}: {digest:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "repro outputs moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn surge_crashes_faults_and_media_runs_print_what_they_printed() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli_more_runs");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("run directory");
    let mut moved = Vec::new();
    for (args, pinned) in MORE_RUNS {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("repro starts");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let digest = fnv64(FNV_OFFSET, &out.stdout);
        if digest != pinned {
            moved.push(format!("{args:?}: {digest:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "repro stdout moved:\n{}",
        moved.join("\n")
    );
}
