//! The command-line front ends answer `--help` the way scripts expect:
//! usage on stdout, exit status 0.

use std::process::Command;

fn help(exe: &str, name: &str) {
    for flag in ["--help", "-h"] {
        let out = Command::new(exe).arg(flag).output().expect("binary runs");
        assert!(out.status.success(), "{name} {flag}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(&format!("usage: {name} ")),
            "{name} {flag}: {stdout:?}"
        );
    }
}

#[test]
fn serve_help_prints_usage_and_exits_zero() {
    help(env!("CARGO_BIN_EXE_websyn-serve"), "websyn-serve");
}

#[test]
fn cluster_help_prints_usage_and_exits_zero() {
    help(env!("CARGO_BIN_EXE_websyn-cluster"), "websyn-cluster");
}

#[test]
fn unknown_flags_still_fail() {
    let out = Command::new(env!("CARGO_BIN_EXE_websyn-serve"))
        .arg("--no-such-flag")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("try --help"));
}

#[test]
fn removed_batch_flags_fail_before_help() {
    // The batch window and batch size are gone; a script still passing
    // them must hear about it instead of having them silently ignored.
    for flag in ["--batch-window-us", "--batch-max"] {
        let out = Command::new(env!("CARGO_BIN_EXE_websyn-serve"))
            .args([flag, "0", "--help"])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag}: {:?}", out.status);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("try --help"),
            "{flag}"
        );
    }
}
