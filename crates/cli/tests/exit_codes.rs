//! Pins the documented process exit-code contract of the `mtasc` binary:
//! 0 = success, 1 = runtime failure or regression-gate trip, 2 = usage
//! error — and the `stats diff` stdin (`-`) convention.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn mtasc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mtasc"))
}

/// Scratch dir (program sources, artifacts, registry root) per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtasc_exit_codes_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn version_exits_zero() {
    let out = mtasc().arg("--version").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mtasc.run_meta.v1"), "{text}");
}

#[test]
fn usage_errors_exit_two() {
    for args in [vec!["bogus"], vec!["stats", "diff", "-", "-"], vec!["runs", "gc"]] {
        let out = mtasc().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

#[test]
fn runtime_failures_exit_one() {
    let out = mtasc().args(["run", "/nonexistent/prog.asc", "--no-record"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn deeply_nested_json_fails_cleanly() {
    // far past the parser's depth limit (and any thread's stack, were the
    // parser unbounded): a validation failure, not an abort
    let dir = scratch("deep");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(100_000)).unwrap();
    let out = mtasc().args(["stats", "validate", deep.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("nesting deeper than 128 levels"), "{text}");

    // the same document on stdin through `stats diff -`
    let mut child = mtasc()
        .args(["stats", "diff", "-", deep.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all("[".repeat(100_000).as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_diff_exit_codes_and_stdin() {
    let dir = scratch("diff");
    let prog = dir.join("prog.asc");
    std::fs::write(
        &prog,
        "li s2, 8\nli s3, 0\npidx p1\nloop:\n  paddi p1, p1, 1\n  rsum s1, p1\n  \
         addi s3, s3, 1\n  ceq f1, s3, s2\n  bf f1, loop\n  halt\n",
    )
    .unwrap();
    let fast = dir.join("fast.json");
    let slow = dir.join("slow.json");
    let runs_dir = dir.join("runs");
    let base = ["--runs-dir".as_ref(), runs_dir.as_os_str()];
    let out = mtasc()
        .args(["run", prog.to_str().unwrap(), "--report", fast.to_str().unwrap()])
        .args(base)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // same program without forwarding: strictly more cycles => a
    // deliberate, detectable regression
    let out = mtasc()
        .args(["run", prog.to_str().unwrap(), "--no-forwarding"])
        .args(["--report", slow.to_str().unwrap()])
        .args(base)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // identical artifacts, gated: ok => 0
    let out = mtasc()
        .args(["stats", "diff", fast.to_str().unwrap(), fast.to_str().unwrap()])
        .args(["--fail-on-regress", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // fast -> slow, gated: regression => 1
    let out = mtasc()
        .args(["stats", "diff", fast.to_str().unwrap(), slow.to_str().unwrap()])
        .args(["--fail-on-regress", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));

    // left side from stdin (`-`), right side from disk
    let mut child = mtasc()
        .args(["stats", "diff", "-", slow.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let fast_text = std::fs::read(&fast).unwrap();
    child.stdin.take().unwrap().write_all(&fast_text).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("<stdin>"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runs_diff_gate_trips_on_recorded_regression() {
    let dir = scratch("runsdiff");
    let prog = dir.join("prog.asc");
    std::fs::write(&prog, "pidx p1\nrsum s1, p1\nhalt\n").unwrap();
    let runs_dir = dir.join("runs");
    let run = |extra: &[&str]| {
        let out = mtasc()
            .args(["run", prog.to_str().unwrap(), "--runs-dir", runs_dir.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("recorded run ").map(str::to_string))
            .unwrap_or_else(|| panic!("no recorded run in: {stdout}"))
    };
    let fast = run(&[]);
    let slow = run(&["--no-forwarding"]);
    let out = mtasc()
        .args(["runs", "diff", &fast, &slow, "--fail-on-regress", "0"])
        .args(["--runs-dir", runs_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}
