//! End-to-end tests of the `fairank` binary: script mode, demo mode, and
//! stdin-driven sessions, exercised through the real executable.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fairank"))
}

fn tmpfile(tag: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fairank_cli_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.frk"));
    std::fs::write(&path, content).expect("write script");
    path
}

#[test]
fn script_mode_runs_a_full_exploration() {
    let script = tmpfile(
        "full",
        "# comment lines are skipped\n\
         generate pop biased n=80 seed=4\n\
         define f rating*0.7+language_test*0.3\n\
         quantify pop f\n\
         panels\n\
         node 0 0\n\
         quit\n",
    );
    let output = binary().arg(script).output().expect("binary runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("generated pop"));
    assert!(stdout.contains("panel #0"));
    assert!(stdout.contains("Node [0] ALL"));
}

#[test]
fn script_mode_fails_fast_on_errors() {
    let script = tmpfile("bad", "quantify ghost f\n");
    let output = binary().arg(script).output().expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown"), "stderr: {stderr}");
}

#[test]
fn script_mode_stops_quietly_when_stdout_closes() {
    // Far more output than a pipe buffers, so the run is still writing
    // when the reader goes away (`fairank script.frk | head -1`).
    let script = tmpfile("closed_pipe", &"help\n".repeat(2_000));
    let mut child = binary()
        .arg(script)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read the first line");
    assert_eq!(first, "fairank> help\n");
    drop(stdout);
    let output = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(output.status.code(), Some(101), "stderr: {stderr}");
}

#[test]
fn missing_script_file_errors() {
    let output = binary()
        .arg("/nonexistent/path.frk")
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot read"));
}

#[test]
fn demo_mode_preloads_table1_over_stdin() {
    let mut child = binary()
        .arg("demo")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"datasets\nquantify table1 paper-f\nquit\n")
        .expect("write stdin");
    let output = child.wait_with_output().expect("binary exits");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("demo mode"));
    assert!(stdout.contains("table1  (10 rows"));
    assert!(stdout.contains("panel #0"));
}

#[test]
fn stdin_errors_do_not_kill_the_repl() {
    let mut child = binary()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"bogus command\nhelp\nquit\n")
        .expect("write stdin");
    let output = child.wait_with_output().expect("binary exits");
    // Interactive mode: the error is printed but the session continues.
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("error"));
    assert!(String::from_utf8_lossy(&output.stdout).contains("FaiRank commands"));
}
