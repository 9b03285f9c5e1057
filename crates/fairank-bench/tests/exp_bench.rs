//! The bench harness end to end: `exp_bench --smoke` runs every section at
//! its seconds-long shape, writes only where `--out` points, and its
//! records pass the gate against themselves.

use std::path::Path;
use std::process::Command;

use fairank_bench::{check, read_records};

/// `git status --porcelain` of the workspace, or `None` outside a checkout.
fn tree_status(root: &Path) -> Option<String> {
    let out = Command::new("git")
        .args(["status", "--porcelain"])
        .current_dir(root)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn smoke_run_writes_gateable_records_and_leaves_the_tree_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = std::env::temp_dir().join(format!("fairank-exp-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("BENCH.smoke.json");
    let before = tree_status(&root);

    let run = Command::new(env!("CARGO_BIN_EXE_exp_bench"))
        .args(["--smoke", "--out"])
        .arg(&out)
        .current_dir(&dir)
        .output()
        .expect("exp_bench runs");
    assert!(
        run.status.success(),
        "exp_bench --smoke exited with {}:\n{}{}",
        run.status,
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    // Every field, `unit` and `tolerance` included, is required to parse.
    let records = read_records(&out).expect("the records parse");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    for layer in ["quantify", "incremental", "cache", "serve", "micro"] {
        assert!(
            records.iter().any(|r| r.layer == layer),
            "no {layer} records"
        );
    }
    for r in &records {
        assert!(!r.unit.is_empty(), "{} has no unit", r.id());
        assert!(r.value.is_finite(), "{} is {}", r.id(), r.value);
    }
    let mut ids: Vec<String> = records.iter().map(|r| r.id()).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), records.len(), "record keys are unique");

    let verdict = check(&records, &records);
    assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
    assert_eq!(
        tree_status(&root),
        before,
        "exp_bench wrote into the working tree"
    );
}
