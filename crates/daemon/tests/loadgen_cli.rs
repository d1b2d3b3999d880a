//! CLI contract of the `cts-loadgen` binary: argument errors are *usage*
//! errors — print the usage block to stderr and exit 2 — never panics,
//! hangs, or silent misconfiguration. Exit 2 is distinct from exit 1
//! (differential mismatch / runtime failure), so CI scripts can tell a
//! typo from a regression.

use std::process::Command;

fn loadgen(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cts-loadgen"))
        .args(args)
        .output()
        .expect("spawn cts-loadgen")
}

fn assert_usage_exit(args: &[&str]) {
    let out = loadgen(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("usage: cts-loadgen"),
        "{args:?} should print usage, stderr was: {stderr}"
    );
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    assert_usage_exit(&["--no-such-flag"]);
    let out = loadgen(&["--frobnicate"]);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown argument: --frobnicate"),
        "the offending flag should be named"
    );
}

#[test]
fn missing_flag_values_print_usage_and_exit_2() {
    // A value-taking flag at the end of the argument list has no value.
    for flag in [
        "--addr",
        "--connections",
        "--seed",
        "--followers",
        "--follower-addr",
        "--window-page",
    ] {
        assert_usage_exit(&[flag]);
    }
}

#[test]
fn malformed_values_print_usage_and_exit_2() {
    assert_usage_exit(&["--addr", "not-an-address"]);
    assert_usage_exit(&["--follower-addr", "999.999.999.999:70000"]);
    assert_usage_exit(&["--connections", "many"]);
    assert_usage_exit(&["--followers", "-3"]);
}

#[test]
fn help_prints_usage_and_exits_2() {
    assert_usage_exit(&["--help"]);
    assert_usage_exit(&["-h"]);
}

#[test]
fn contradictory_follower_flags_exit_2() {
    // In-process followers need a durable leader to subscribe to.
    let out = loadgen(&["--smoke", "--followers", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--data-dir"),
        "the error should point at the missing --data-dir"
    );
    // In-process and external fleets are mutually exclusive.
    let out = loadgen(&[
        "--smoke",
        "--followers",
        "2",
        "--follower-addr",
        "127.0.0.1:1",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn in_process_flags_with_addr_exit_2_and_name_the_flag() {
    // Each of these configures (or is) the in-process daemon; aimed at an
    // external `--addr` it would do nothing, so it is refused up front.
    for flag in [
        &["--data-dir", "unused-dir"][..],
        &["--checkpoint-every", "200"],
        &["--epoch-every", "64"],
        &["--shards", "2"],
        &["--pollers", "2"],
        &["--followers", "2"],
        &["--kill-after", "100"],
    ] {
        let mut args = vec!["--smoke", "--addr", "127.0.0.1:1"];
        args.extend_from_slice(flag);
        let out = loadgen(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should exit 2, got {:?}\nstderr: {stderr}",
            out.status.code()
        );
        assert!(
            stderr.contains(flag[0]),
            "{args:?} should name {}, stderr was: {stderr}",
            flag[0]
        );
        // The `--addr` refusal itself, not an unknown-flag error that also
        // exits 2 and echoes the name.
        assert!(
            stderr.contains("configures the in-process daemon"),
            "{args:?} should be refused as in-process-only, stderr was: {stderr}"
        );
    }
}
