//! Oversized inputs through `lvp asm` and `lvp run`: a data image larger
//! than data memory, an array whose size overflows, and extreme operands
//! all end in exit 2 with a typed message of bounded length or in a
//! normal result — never in an allocation abort (exit 134), a panic
//! (exit 101), a silently miscompiled program or a compiler bug report.

use std::process::{Command, Output};

/// Writes `source` to a temporary `name` and runs `lvp <cmd>` on it.
fn lvp(cmd: &str, name: &str, source: &str) -> Output {
    lvp_with(cmd, name, source, &[])
}

/// [`lvp`] with extra flags after the file.
fn lvp_with(cmd: &str, name: &str, source: &str, flags: &[&str]) -> Output {
    let path = std::env::temp_dir().join(format!("lvp-oversized-{}-{name}", std::process::id()));
    std::fs::write(&path, source).expect("write temp source");
    let out = Command::new(env!("CARGO_BIN_EXE_lvp"))
        .arg(cmd)
        .arg(&path)
        .args(flags)
        .output()
        .expect("run lvp");
    std::fs::remove_file(&path).ok();
    out
}

/// Asserts exit 2 with `message` on stderr (the message is matched on
/// its first 200 bytes only, so a long echoed operand stays readable).
fn assert_refused(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let head: String = stderr.chars().take(200).collect();
    assert_eq!(out.status.code(), Some(2), "stderr: {head}");
    assert!(head.contains(message), "stderr: {head}");
    assert!(out.stdout.is_empty(), "stdout: {:?}", out.stdout);
}

const DATA_LIMIT: &str = "data image exceeds 7340032 bytes (constant pool included)";

#[test]
fn space_larger_than_the_address_space_is_refused_before_allocating() {
    let src = ".data\nbuf: .space 9223372036854775807\n.text\nmain:\n halt\n";
    assert_refused(
        &lvp("asm", "huge.s", src),
        &format!("error: assembly error at line 2: {DATA_LIMIT}"),
    );
}

#[test]
fn space_larger_than_data_memory_is_refused() {
    let src = ".data\nbuf: .space 8388608\n.text\nmain:\n halt\n";
    for cmd in ["asm", "run"] {
        assert_refused(
            &lvp(cmd, "space8m.s", src),
            &format!("error: assembly error at line 2: {DATA_LIMIT}"),
        );
    }
}

#[test]
fn global_array_larger_than_data_memory_is_refused() {
    let src = "global int g[1048576];\nfn main() { out(g[0]); }\n";
    assert_refused(
        &lvp("run", "g1m.mc", src),
        "error: compile error at line 1: global `g` does not fit",
    );
}

#[test]
fn global_array_whose_size_overflows_is_refused() {
    let src = "global int g[2305843009213693952];\nglobal int h = 5;\n\
               fn main() { g[0] = 7; out(h); }\n";
    assert_refused(
        &lvp("run", "wrap.mc", src),
        "error: compile error at line 1: global `g` does not fit",
    );
}

#[test]
fn local_array_whose_size_overflows_is_refused() {
    let src = "fn main() {\n int a[2305843009213693952];\n a[0] = 1;\n out(a[0]);\n}\n";
    assert_refused(
        &lvp("run", "local.mc", src),
        "error: compile error at line 2: local array `a` does not fit",
    );
}

#[test]
fn globals_that_fit_only_without_the_constant_pool_are_a_user_error() {
    // Under Toc, `g[0]` takes `g`'s address from a pool slot laid out
    // after the 7 MiB global; under Gp there is no slot, and it runs.
    let src = "global char g[7340032];\nfn main() { out(g[0]); }\n";
    let out = lvp("run", "pool.mc", src);
    assert_refused(
        &out,
        "error: compile error: globals and constant pool do not fit: \
         the data image holds at most 7340032 bytes",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("internal"), "stderr: {stderr}");
    assert!(!stderr.contains("line"), "stderr: {stderr}");
    let gp = lvp_with("run", "pool-gp.mc", src, &["--profile", "gp"]);
    assert_eq!(
        gp.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&gp.stderr)
    );
    assert!(String::from_utf8_lossy(&gp.stdout).starts_with("output: [0]\n"));
}

/// Asserts that the whole of stderr, echoed operand included, stays
/// under 1 KiB.
fn assert_short_stderr(out: &Output) {
    assert!(
        out.stderr.len() < 1024,
        "{} bytes of stderr",
        out.stderr.len()
    );
}

#[test]
fn operand_of_100k_nested_parentheses_is_a_typed_error() {
    let n = 100_000;
    let src = format!(
        "main:\n li a0, {}1{}\n out a0\n halt\n",
        "(".repeat(n),
        ")".repeat(n)
    );
    let out = lvp("asm", "parens.s", &src);
    assert_refused(
        &out,
        "error: assembly error at line 2: expected integer expression",
    );
    assert_short_stderr(&out);
}

#[test]
fn operand_of_100k_minus_signs_is_a_typed_error() {
    let src = format!("main:\n li a0, {}1\n out a0\n halt\n", "-".repeat(100_000));
    let out = lvp("asm", "minus.s", &src);
    assert_refused(
        &out,
        "error: assembly error at line 2: expected integer expression",
    );
    assert_short_stderr(&out);
}

#[test]
fn megabyte_label_assembles() {
    let label = "L".repeat(1 << 20);
    let src = format!("main:\n j {label}\n{label}:\n halt\n");
    let out = lvp("asm", "label.s", &src);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.ends_with("2 instructions, 0 data bytes, entry 0x10000, pool base 0x100000\n"),
        "{}",
        &stdout[stdout.len().saturating_sub(200)..]
    );
}
