//! The bench binaries refuse flags they do not accept.

use std::process::Command;

#[test]
fn table4_rejects_an_unknown_flag_before_doing_any_work() {
    let out = Command::new(env!("CARGO_BIN_EXE_table4"))
        .args(["--quick", "--circuit", "RCA32", "--json"])
        .output()
        .expect("table4 runs");
    assert!(!out.status.success(), "`--json` was accepted");
    // table4 prints its header before the first circuit; nothing was run.
    assert!(out.stdout.is_empty(), "table4 started working");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--json`"), "{stderr}");
    assert!(
        stderr.contains("--quick, --circuit, --threads, --csv"),
        "{stderr}"
    );
}
