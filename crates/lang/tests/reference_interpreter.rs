//! Seeded randomized differential test of the compiler: random mini-C
//! programs — deep integer expressions, assignments to locals and a
//! global, array stores, nested conditionals, bounded loops and output —
//! must print exactly what a Rust reference interpreter computes, under
//! both codegen profiles at both optimization levels. This is the
//! compiler's strongest correctness check: it exercises constant
//! materialization and folding, expression-stack spilling, operator
//! codegen and control flow end to end.

use lvp_isa::AsmProfile;
use lvp_lang::{compile_with, OptLevel};
use lvp_sim::Machine;
use lvp_trace::rng::Lcg;

const SEED: u64 = 0xc0de_9e11_1996;
/// Random programs checked, each under four compiler variants.
const CASES: u64 = 256;

/// Scalar variables: three locals and one global.
const VARS: [&str; 4] = ["a", "b", "c", "g"];
/// Length of the global int array.
const ARRAY_LEN: i64 = 8;

/// A binary operator: its source symbol and reference semantics.
type BinOp = (&'static str, fn(i64, i64) -> i64);

/// The binary operators. `/`, `%`, `<<` and `>>` only ever get a literal
/// right operand (a non-zero divisor, a shift amount in 0..63), so no
/// program divides by zero.
const BINS: [BinOp; 13] = [
    ("+", i64::wrapping_add),
    ("-", i64::wrapping_sub),
    ("*", i64::wrapping_mul),
    ("&", |a, b| a & b),
    ("|", |a, b| a | b),
    ("^", |a, b| a ^ b),
    ("<", |a, b| (a < b) as i64),
    ("==", |a, b| (a == b) as i64),
    ("&&", |a, b| (a != 0 && b != 0) as i64),
    ("/", i64::wrapping_div),
    ("%", i64::wrapping_rem),
    ("<<", |a, b| a.wrapping_shl(b as u32)),
    (">>", |a, b| a.wrapping_shr(b as u32)),
];

#[derive(Debug, Clone)]
enum Ex {
    Lit(i64),
    Var(usize),
    /// `arr[idx]`, the index wrapped into bounds (`rem_euclid`).
    Index(Box<Ex>),
    /// `(a op b)`, the operator an index into [`BINS`].
    Bin(usize, Box<Ex>, Box<Ex>),
    /// Rendered `(0 - e)`.
    Neg(Box<Ex>),
    Not(Box<Ex>),
}

#[derive(Debug, Clone)]
enum St {
    Assign(usize, Ex),
    /// `arr[idx] = value`.
    Store(Ex, Ex),
    Out(Ex),
    If(Ex, Vec<St>, Vec<St>),
    /// The body repeated a fixed number of times (rendered as a `for`).
    Loop(u8, Vec<St>),
}

#[derive(Debug, Default)]
struct RefState {
    vars: [i64; 4],
    arr: [i64; ARRAY_LEN as usize],
    output: Vec<i64>,
}

fn eval(e: &Ex, st: &RefState) -> i64 {
    match e {
        Ex::Lit(v) => *v,
        Ex::Var(i) => st.vars[*i],
        Ex::Index(idx) => st.arr[eval(idx, st).rem_euclid(ARRAY_LEN) as usize],
        Ex::Bin(op, a, b) => (BINS[*op].1)(eval(a, st), eval(b, st)),
        Ex::Neg(a) => eval(a, st).wrapping_neg(),
        Ex::Not(a) => (eval(a, st) == 0) as i64,
    }
}

fn exec(stmts: &[St], st: &mut RefState) {
    for s in stmts {
        match s {
            St::Assign(v, e) => st.vars[*v] = eval(e, st),
            St::Store(idx, val) => {
                let i = eval(idx, st).rem_euclid(ARRAY_LEN);
                st.arr[i as usize] = eval(val, st);
            }
            St::Out(e) => {
                let v = eval(e, st);
                st.output.push(v);
            }
            St::If(c, then, els) => {
                if eval(c, st) != 0 {
                    exec(then, st);
                } else {
                    exec(els, st);
                }
            }
            St::Loop(k, body) => {
                for _ in 0..*k {
                    exec(body, st);
                }
            }
        }
    }
}

/// The values the compiled program must print: everything `out`put,
/// then the final value of every scalar.
fn reference_output(stmts: &[St]) -> Vec<u64> {
    let mut st = RefState::default();
    exec(stmts, &mut st);
    st.output
        .iter()
        .chain(&st.vars)
        .map(|&v| v as u64)
        .collect()
}

/// Renders an expression; an array index wraps through
/// `((idx % 8) + 8) % 8`, which is `rem_euclid` in the language's
/// truncating `%`.
fn render_ex(e: &Ex) -> String {
    match e {
        // Negative literals need parens after binary operators.
        Ex::Lit(v) if *v < 0 => format!("(0 - {})", v.unsigned_abs()),
        Ex::Lit(v) => v.to_string(),
        Ex::Var(i) => VARS[*i].to_string(),
        Ex::Index(idx) => format!("arr[{}]", render_index(idx)),
        Ex::Bin(op, a, b) => format!("({} {} {})", render_ex(a), BINS[*op].0, render_ex(b)),
        Ex::Neg(a) => format!("(0 - {})", render_ex(a)),
        Ex::Not(a) => format!("(!{})", render_ex(a)),
    }
}

fn render_index(idx: &Ex) -> String {
    format!(
        "(({} % {ARRAY_LEN}) + {ARRAY_LEN}) % {ARRAY_LEN}",
        render_ex(idx)
    )
}

fn render_stmts(stmts: &[St], indent: usize, loops: &mut usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            St::Assign(v, e) => out.push_str(&format!("{pad}{} = {};\n", VARS[*v], render_ex(e))),
            St::Store(idx, val) => out.push_str(&format!(
                "{pad}arr[{}] = {};\n",
                render_index(idx),
                render_ex(val)
            )),
            St::Out(e) => out.push_str(&format!("{pad}out({});\n", render_ex(e))),
            St::If(c, then, els) => {
                out.push_str(&format!("{pad}if ({}) {{\n", render_ex(c)));
                render_stmts(then, indent + 1, loops, out);
                if !els.is_empty() {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    render_stmts(els, indent + 1, loops, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            St::Loop(k, body) => {
                let lv = format!("l{loops}");
                *loops += 1;
                out.push_str(&format!(
                    "{pad}for ({lv} = 0; {lv} < {k}; {lv} = {lv} + 1) {{\n"
                ));
                render_stmts(body, indent + 1, loops, out);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

fn render_program(stmts: &[St]) -> String {
    let mut body = String::new();
    let mut loops = 0;
    render_stmts(stmts, 1, &mut loops, &mut body);
    let locals = &VARS[..3];
    let mut decls: Vec<String> = locals.iter().map(|v| format!("int {v};")).collect();
    decls.extend((0..loops).map(|i| format!("int l{i};")));
    let inits: Vec<String> = locals.iter().map(|v| format!("{v} = 0;")).collect();
    let outs: Vec<String> = VARS.iter().map(|v| format!("out({v});")).collect();
    format!(
        "global int arr[{ARRAY_LEN}];\nglobal int g = 0;\nfn main() {{\n    {}\n    {}\n{body}    {}\n}}\n",
        decls.join(" "),
        inits.join(" "),
        outs.join(" ")
    )
}

/// A random expression at most `depth` operators deep.
fn random_ex(rng: &mut Lcg, depth: u32) -> Ex {
    if depth == 0 || rng.chance(1, 4) {
        return match rng.below(3) {
            0 => Ex::Lit(rng.below(2_000_000) as i64 - 1_000_000),
            1 => Ex::Lit(rng.next_full() as i32 as i64),
            _ => Ex::Var(rng.below(VARS.len() as u64) as usize),
        };
    }
    let pick = rng.below(BINS.len() as u64 + 3);
    let a = Box::new(random_ex(rng, depth - 1));
    match pick {
        0 => Ex::Index(a),
        1 => Ex::Neg(a),
        2 => Ex::Not(a),
        i => {
            let op = i as usize - 3;
            let b = match BINS[op].0 {
                "/" | "%" => {
                    let d = rng.range(1, 1000) as i64;
                    Ex::Lit(if rng.chance(1, 2) { d } else { -d })
                }
                "<<" | ">>" => Ex::Lit(rng.below(63) as i64),
                _ => random_ex(rng, depth - 1),
            };
            Ex::Bin(op, a, Box::new(b))
        }
    }
}

/// 1–4 random statements; `depth` bounds conditional and loop nesting,
/// `ex_depth` the expressions.
fn random_block(rng: &mut Lcg, depth: u32, ex_depth: u32) -> Vec<St> {
    (0..rng.range(1, 5))
        .map(|_| match rng.below(if depth == 0 { 6 } else { 8 }) {
            0..=2 => St::Assign(
                rng.below(VARS.len() as u64) as usize,
                random_ex(rng, ex_depth),
            ),
            3 | 4 => St::Store(random_ex(rng, ex_depth), random_ex(rng, ex_depth)),
            5 => St::Out(random_ex(rng, ex_depth)),
            6 => St::If(
                random_ex(rng, ex_depth),
                random_block(rng, depth - 1, ex_depth),
                if rng.chance(1, 2) {
                    random_block(rng, depth - 1, ex_depth)
                } else {
                    Vec::new()
                },
            ),
            _ => St::Loop(
                rng.range(1, 6) as u8,
                random_block(rng, depth - 1, ex_depth),
            ),
        })
        .collect()
}

/// Compiles `stmts` under Toc/Gp x O0/O1 and checks every variant's
/// output against the reference interpreter.
fn check_program(stmts: &[St], label: &str) {
    let expected = reference_output(stmts);
    let src = render_program(stmts);
    for profile in [AsmProfile::Toc, AsmProfile::Gp] {
        for opt in [OptLevel::O0, OptLevel::O1] {
            let program = compile_with(&src, profile, opt).unwrap_or_else(|e| {
                panic!("{label}: compile failed ({profile} {opt:?}): {e}\n{src}")
            });
            let mut m = Machine::new(&program);
            m.run(50_000_000)
                .unwrap_or_else(|e| panic!("{label}: run failed ({profile} {opt:?}): {e}\n{src}"));
            assert_eq!(
                m.output(),
                expected.as_slice(),
                "{label}: {profile} {opt:?} disagrees with the reference\n{src}"
            );
        }
    }
}

#[test]
fn random_programs_match_reference_interpreter() {
    let mut rng = Lcg::new(SEED);
    for case in 0..CASES {
        let ex_depth = rng.range(1, 7) as u32;
        let stmts = random_block(&mut rng, 3, ex_depth);
        check_program(&stmts, &format!("case {case}"));
    }
}

/// A fixed program through the same machinery, so a generator or
/// renderer that silently emits nothing cannot pass vacuously.
#[test]
fn reference_machinery_smoke_test() {
    // a = 5; 3 times { g = a + 2; } arr[2] = g; out(arr[2]);
    let stmts = vec![
        St::Assign(0, Ex::Lit(5)),
        St::Loop(
            3,
            vec![St::Assign(
                3,
                Ex::Bin(0, Box::new(Ex::Var(0)), Box::new(Ex::Lit(2))),
            )],
        ),
        St::Store(Ex::Lit(2), Ex::Var(3)),
        St::Out(Ex::Index(Box::new(Ex::Lit(2)))),
    ];
    assert_eq!(reference_output(&stmts), vec![7, 5, 0, 0, 7]);
    check_program(&stmts, "smoke");
}
