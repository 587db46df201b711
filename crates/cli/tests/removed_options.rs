//! An option or sub-command the CLI no longer has fails through the typed
//! usage error: a message and exit code 1, not a panic and not a silently
//! ignored value.

use std::process::Command;

#[test]
fn shards_option_is_rejected_by_every_incremental_command() {
    for command in ["stream", "serve"] {
        let out = Command::new(env!("CARGO_BIN_EXE_blast"))
            .args([command, "--shards", "2"])
            .output()
            .expect("the blast binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains("unknown option --shards"), "{stderr}");
        assert!(stderr.contains(&format!("blast {command}")), "{stderr}");
        assert!(!stderr.contains("[--shards"), "usage lists it: {stderr}");
    }
}

#[test]
fn bench_subcommand_is_an_unknown_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_blast"))
        .args(["bench", "--preset", "census", "--scale", "0.01"])
        .output()
        .expect("the blast binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown command \"bench\""), "{stderr}");
    assert!(stderr.contains("USAGE"), "global usage follows: {stderr}");
    assert!(!stderr.contains("blast bench"), "usage lists it: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
