//! # lvp-lang — the mini-C workload compiler
//!
//! A small C-like language and compiler targeting the LRISC ISA, used to
//! write the 17-benchmark suite that mirrors the paper's Table 1. The
//! compiler has two codegen profiles, inherited from the assembler:
//!
//! * [`AsmProfile::Toc`] (PowerPC/AIX style): global addresses are *loaded*
//!   from a table of contents through `gp`;
//! * [`AsmProfile::Gp`] (Alpha/OSF style): global addresses are synthesized
//!   with `lui`/`addi` ALU instructions.
//!
//! This reproduces the paper's two-ISA cross-check (Section 4): the same
//! source program produces different load populations under the two
//! conventions, exactly as the same C program did on the paper's PowerPC
//! and Alpha machines.
//!
//! # Language
//!
//! ```text
//! const int N = 64;
//! global int table[N];
//! global char text[256] = "hello";
//! global float scale = 1.5;
//!
//! fn hash(int k) -> int {
//!     return (k * 31 + 7) % N;
//! }
//!
//! fn main() {
//!     int i;
//!     for (i = 0; i < N; i = i + 1) {
//!         table[hash(i)] = table[hash(i)] + 1;
//!     }
//!     out(table[7]);
//! }
//! ```
//!
//! Types are `int` (i64), `float` (f64), and `char` (byte, arrays only).
//! There are no pointers; composite data lives in global or local arrays.
//! Builtins: `out(int)`, `outf(float)`, `sqrt(float)`, `fabs(float)`,
//! casts `int(e)` / `float(e)`.
//!
//! # Examples
//!
//! ```
//! use lvp_isa::AsmProfile;
//! use lvp_lang::compile;
//! use lvp_sim::Machine;
//!
//! let program = compile("fn main() { out(6 * 7); }", AsmProfile::Toc)?;
//! let mut m = Machine::new(&program);
//! m.run(10_000)?;
//! assert_eq!(m.output(), &[42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod ast;
mod codegen;
mod optimize;
mod parser;
mod token;

pub use ast::{
    BinOp, ConstDef, ElemType, Expr, Func, Global, Init, LValue, Literal, ProgramAst, Stmt, Type,
    UnOp,
};
pub use codegen::generate;
pub use optimize::{fold, optimize, OptLevel};
pub use parser::{parse, MAX_NESTING};
pub use token::{lex, LangError, SpannedTok, Tok};

use lvp_isa::{AsmProfile, Assembler, Program, MAX_DATA_IMAGE};

/// Compiles mini-C source to a loadable [`Program`] under the given
/// codegen profile, without optimization (the suite default, mirroring
/// the load-heavy code the paper's value-locality arguments rest on).
///
/// # Errors
///
/// Returns a [`LangError`] for front-end errors, and for globals that
/// fit data memory only without the constant pool laid out after them.
/// Any other rejection of compiler-generated assembly is a compiler bug,
/// reported as a [`LangError`] carrying the internal diagnostic.
pub fn compile(source: &str, profile: AsmProfile) -> Result<Program, LangError> {
    compile_with(source, profile, OptLevel::O0)
}

/// Compiles with an explicit optimization level. `O1` runs constant
/// folding, dead-branch elimination, and small-loop unrolling — the
/// transformations the paper names as reshaping per-static-load value
/// locality.
///
/// # Errors
///
/// Same conditions as [`compile`].
pub fn compile_with(
    source: &str,
    profile: AsmProfile,
    opt: OptLevel,
) -> Result<Program, LangError> {
    let asm = compile_to_asm_with(source, opt)?;
    Assembler::new(profile).assemble(&asm).map_err(|e| {
        // The globals were bounded at their declarations; the constant
        // pool the assembler lays out after them is what did not fit.
        if e.is_data_image_overflow() {
            LangError::new(
                0,
                format!(
                    "globals and constant pool do not fit: the data image holds at most \
                     {MAX_DATA_IMAGE} bytes"
                ),
            )
        } else {
            LangError::new(0, format!("internal: generated assembly rejected: {e}"))
        }
    })
}

/// Compiles mini-C source to LRISC assembly text (profile-independent:
/// pseudo-instruction expansion happens in the assembler).
///
/// # Errors
///
/// Returns a [`LangError`] for lexing, parsing, or code-generation errors.
pub fn compile_to_asm(source: &str) -> Result<String, LangError> {
    compile_to_asm_with(source, OptLevel::O0)
}

/// [`compile_to_asm`] with an explicit optimization level.
///
/// # Errors
///
/// Same conditions as [`compile_to_asm`].
pub fn compile_to_asm_with(source: &str, opt: OptLevel) -> Result<String, LangError> {
    let mut ast = parse(source)?;
    if opt == OptLevel::O1 {
        ast = optimize(ast);
    }
    generate(&ast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_sim::Machine;

    /// Compiles and runs under both profiles, checking both produce the
    /// same output; returns it.
    fn run_both(src: &str) -> Vec<u64> {
        let mut outputs = Vec::new();
        for profile in [AsmProfile::Toc, AsmProfile::Gp] {
            let program = compile(src, profile)
                .unwrap_or_else(|e| panic!("compile failed under {profile}: {e}"));
            let mut m = Machine::new(&program);
            m.run(50_000_000)
                .unwrap_or_else(|e| panic!("run failed under {profile}: {e}"));
            outputs.push(m.output().to_vec());
        }
        assert_eq!(outputs[0], outputs[1], "profiles disagree");
        outputs.pop().unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run_both("fn main() { out(2 + 3 * 4 - 1); }"), vec![13]);
        assert_eq!(run_both("fn main() { out((2 + 3) * 4); }"), vec![20]);
        assert_eq!(
            run_both("fn main() { out(7 / 2); out(7 % 2); }"),
            vec![3, 1]
        );
        assert_eq!(
            run_both("fn main() { out(-5 / 2); out(1 << 10); out(-8 >> 2); }"),
            vec![(-2i64) as u64, 1024, (-2i64) as u64]
        );
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(
            run_both("fn main() { out(3 < 4); out(4 <= 3); out(3 == 3); out(3 != 3); }"),
            vec![1, 0, 1, 0]
        );
        assert_eq!(
            run_both("fn main() { out(1 && 2); out(0 && 1); out(0 || 3); out(0 || 0); }"),
            vec![1, 0, 1, 0]
        );
        assert_eq!(
            run_both("fn main() { out(!0); out(!7); out(~0); }"),
            vec![1, 0, u64::MAX]
        );
    }

    #[test]
    fn short_circuit_side_effects() {
        let src = "
            global int calls = 0;
            fn bump() -> int { calls = calls + 1; return 1; }
            fn main() {
                int r;
                r = 0 && bump();
                out(calls);
                r = 1 || bump();
                out(calls);
                r = 1 && bump();
                out(calls);
            }
        ";
        assert_eq!(run_both(src), vec![0, 0, 1]);
    }

    #[test]
    fn control_flow() {
        let src = "
            fn main() {
                int i; int sum;
                sum = 0;
                for (i = 1; i <= 10; i = i + 1) {
                    if (i % 2 == 0) { sum = sum + i; } else { sum = sum - 1; }
                }
                out(sum);
                i = 0;
                while (1) {
                    i = i + 1;
                    if (i == 3) { continue; }
                    if (i >= 6) { break; }
                }
                out(i);
            }
        ";
        assert_eq!(run_both(src), vec![25, 6]);
    }

    #[test]
    fn recursion_fibonacci() {
        let src = "
            fn fib(int n) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { out(fib(15)); }
        ";
        assert_eq!(run_both(src), vec![610]);
    }

    #[test]
    fn globals_arrays_and_strings() {
        let src = "
            const int N = 8;
            global int squares[N];
            global char msg[16] = \"abc\";
            global int total = 0;
            fn main() {
                int i;
                for (i = 0; i < N; i = i + 1) { squares[i] = i * i; }
                for (i = 0; i < N; i = i + 1) { total = total + squares[i]; }
                out(total);
                out(msg[0] + msg[1] + msg[2]);
                out(msg[3]);
            }
        ";
        assert_eq!(run_both(src), vec![140, (97 + 98 + 99) as u64, 0]);
    }

    #[test]
    fn local_arrays_and_chars() {
        let src = "
            fn main() {
                int a[10];
                char b[10];
                int i;
                for (i = 0; i < 10; i = i + 1) { a[i] = i * 3; b[i] = 200 + i; }
                out(a[9]);
                out(b[9]);
                out(b[0]);
            }
        ";
        assert_eq!(run_both(src), vec![27, 209, 200]);
    }

    #[test]
    fn floats_end_to_end() {
        let src = "
            global float acc = 0.0;
            fn main() {
                float x; int i;
                x = 1.5;
                for (i = 0; i < 4; i = i + 1) { acc = acc + x * x; }
                out(int(acc));
                outf(acc);
                out(acc > 8.9 && acc < 9.1);
                outf(sqrt(16.0));
                outf(fabs(0.0 - 2.5));
            }
        ";
        let out = run_both(src);
        assert_eq!(out[0], 9);
        assert_eq!(f64::from_bits(out[1]), 9.0);
        assert_eq!(out[2], 1);
        assert_eq!(f64::from_bits(out[3]), 4.0);
        assert_eq!(f64::from_bits(out[4]), 2.5);
    }

    #[test]
    fn float_params_and_returns() {
        let src = "
            fn mix(float a, float b, int w) -> float {
                if (w == 1) { return a; }
                return (a + b) / 2.0;
            }
            fn main() {
                outf(mix(2.0, 4.0, 0));
                outf(mix(2.0, 4.0, 1));
            }
        ";
        let out = run_both(src);
        assert_eq!(f64::from_bits(out[0]), 3.0);
        assert_eq!(f64::from_bits(out[1]), 2.0);
    }

    #[test]
    fn many_locals_spill_to_frame() {
        // More scalars than callee-saved registers forces frame slots.
        let src = "
            fn main() {
                int a; int b; int c; int d; int e; int f; int g; int h;
                int i; int j; int k; int l; int m; int n; int o; int p;
                a=1; b=2; c=3; d=4; e=5; f=6; g=7; h=8;
                i=9; j=10; k=11; l=12; m=13; n=14; o=15; p=16;
                out(a+b+c+d+e+f+g+h+i+j+k+l+m+n+o+p);
            }
        ";
        assert_eq!(run_both(src), vec![136]);
    }

    #[test]
    fn deep_expressions_spill() {
        // Parenthesized right-leaning tree forces depth > register temps.
        let src = "
            fn main() {
                out(1 + (2 + (3 + (4 + (5 + (6 + (7 + (8 + (9 + (10 + (11 + 12)))))))))));
            }
        ";
        assert_eq!(run_both(src), vec![78]);
    }

    #[test]
    fn calls_inside_expressions() {
        let src = "
            fn sq(int x) -> int { return x * x; }
            fn main() {
                out(sq(3) + sq(4) * sq(2) - sq(sq(2)));
            }
        ";
        assert_eq!(run_both(src), vec![(9 + 16 * 4 - 16) as u64]);
    }

    #[test]
    fn const_folding_and_char_literals() {
        let src = "
            const int K = 3 * 7;
            fn main() { out(K); out('A'); out('\\n'); }
        ";
        assert_eq!(run_both(src), vec![21, 65, 10]);
    }

    #[test]
    fn global_float_array_with_init() {
        let src = "
            global float w[4] = {0.5, 1.5, 2.5, 3.5};
            fn main() {
                float s; int i;
                s = 0.0;
                for (i = 0; i < 4; i = i + 1) { s = s + w[i]; }
                outf(s);
            }
        ";
        let out = run_both(src);
        assert_eq!(f64::from_bits(out[0]), 8.0);
    }

    #[test]
    fn oversized_arrays_are_refused_at_their_declaration() {
        // Arrays that fit on their own but not together: the bound
        // counts every global, and every array of a frame, before the
        // one refused. (`cli/tests/oversized_inputs.rs` drives single
        // oversized and overflowing arrays through `lvp run`.)
        let limit = lvp_isa::MAX_DATA_IMAGE;
        let n = limit / 16 + 8;
        for (src, message) in [
            (
                format!("global int a[{n}];\nglobal int b[{n}];\nfn main() {{ out(a[0]); }}"),
                "line 2: global `b` does not fit",
            ),
            (
                format!("fn main() {{\n int a[{n}];\n int b[{n}];\n out(a[0] + b[0]);\n}}"),
                "line 3: local array `b` does not fit",
            ),
        ] {
            let Err(e) = compile(&src, AsmProfile::Toc) else {
                panic!("{src}: compiled");
            };
            assert!(e.to_string().contains(message), "{src}: {e}");
        }
        // A global filling data memory exactly still compiles (Gp needs
        // no constant pool for it).
        let src = format!("global char g[{limit}];\nfn main() {{ out(g[0]); }}");
        assert_eq!(
            compile(&src, AsmProfile::Gp).unwrap().data().len() as u64,
            limit
        );
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(compile("fn main() { out(1.5); }", AsmProfile::Gp).is_err());
        assert!(compile("fn main() { float f; f = 1; }", AsmProfile::Gp).is_err());
        assert!(compile("fn main() { out(1 + 2.0); }", AsmProfile::Gp).is_err());
        assert!(compile("fn main() { outx(1); }", AsmProfile::Gp).is_err());
        assert!(compile("fn f() {} fn main() { out(f()); }", AsmProfile::Gp).is_err());
        assert!(compile("fn main() { break; }", AsmProfile::Gp).is_err());
        assert!(compile("fn nomain() {}", AsmProfile::Gp).is_err());
    }

    #[test]
    fn toc_profile_emits_more_loads() {
        let src = "
            global int g = 5;
            fn main() {
                int i; int s;
                s = 0;
                for (i = 0; i < 100; i = i + 1) { s = s + g; }
                out(s);
            }
        ";
        let mut loads = Vec::new();
        for profile in [AsmProfile::Toc, AsmProfile::Gp] {
            let program = compile(src, profile).unwrap();
            let mut m = Machine::new(&program);
            let trace = m.run_traced(1_000_000).unwrap();
            assert_eq!(m.output(), &[500]);
            loads.push(trace.stats().loads);
        }
        assert!(
            loads[0] > loads[1],
            "Toc profile must execute more loads (TOC address loads): {loads:?}"
        );
    }

    #[test]
    fn decl_with_initializer_sugar() {
        assert_eq!(
            run_both("fn main() { int x = 5; int y = x * 2; out(y); }"),
            vec![10]
        );
    }
}
