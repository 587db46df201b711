//! An option the CLI no longer has fails through the typed
//! `Args::validate` error: a message and exit code 1, not a panic and not
//! a silently ignored value.

use std::process::Command;

#[test]
fn shards_option_is_rejected_by_every_incremental_command() {
    for command in ["stream", "bench", "serve"] {
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
