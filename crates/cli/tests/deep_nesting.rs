//! `lvp run` on source nested past the parser's limit exits 2 with a
//! typed message instead of overflowing the stack (which aborts the
//! process with SIGABRT, exit 134).

use std::process::Command;

#[test]
fn run_of_deeply_nested_source_exits_2_with_the_message() {
    let path = std::env::temp_dir().join(format!("lvp-deep-nesting-{}.mc", std::process::id()));
    let source = format!(
        "fn main() {{ out({}1{}); }}\n",
        "(".repeat(3_000),
        ")".repeat(3_000)
    );
    std::fs::write(&path, source).expect("write temp source");
    let out = Command::new(env!("CARGO_BIN_EXE_lvp"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("run lvp");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!(
            "error: compile error at line 1: nesting deeper than {} levels",
            lvp_lang::MAX_NESTING
        )),
        "stderr: {stderr}"
    );
}
