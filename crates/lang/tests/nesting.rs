//! The parser's nesting limit: source nested far past [`MAX_NESTING`]
//! is a typed error, not a stack overflow; the deepest accepted version
//! of each recursive construct has an AST no deeper than the limit and
//! still compiles on a 2 MiB thread stack, the default of the harness's
//! worker threads.

use lvp_isa::AsmProfile;
use lvp_lang::{compile_with, parse, Expr, LValue, OptLevel, Stmt, MAX_NESTING};

/// Binary operators from the tightest precedence level to the loosest.
const BY_PRECEDENCE: [&str; 10] = ["*", "+", "<<", "<", "==", "&", "^", "|", "&&", "||"];

/// Each recursive construct of the language, `levels` deep.
fn nested(construct: &str, levels: usize) -> String {
    let body = match construct {
        "parentheses" => format!("out({}1{});", "(".repeat(levels), ")".repeat(levels)),
        "unary minus" => format!("out({}1);", "- ".repeat(levels)),
        "blocks" => format!("{} out(1); {}", "{".repeat(levels), "}".repeat(levels)),
        "if" => format!("{} out(x);", "if (x) ".repeat(levels)),
        "while" => format!("{} out(x);", "while (x) ".repeat(levels)),
        "call arguments" => format!("out({}x{});", "id(".repeat(levels), ")".repeat(levels)),
        "operator chain" => format!("out(x{});", " + x".repeat(levels)),
        // `levels` operators spread over all ten precedence levels,
        // tightest first, so each takes the whole expression so far as
        // its left operand.
        "every precedence level" => {
            let chain: String = (0..levels)
                .map(|i| format!(" {} x", BY_PRECEDENCE[i * 10 / levels]))
                .collect();
            format!("out(x{chain});")
        }
        // `levels` operators, two inside each of `levels / 2` nested
        // parentheses: `((x + x + x) + x + x)`.
        "parenthesised chains" => format!(
            "out({}x{});",
            "(".repeat(levels / 2),
            " + x + x)".repeat(levels / 2)
        ),
        _ => unreachable!("unknown construct {construct}"),
    };
    format!("fn id(int v) -> int {{ return v; }}\nfn main() {{ int x; x = 0; {body} }}\n")
}

const CONSTRUCTS: [&str; 9] = [
    "parentheses",
    "unary minus",
    "blocks",
    "if",
    "while",
    "call arguments",
    "operator chain",
    "every precedence level",
    "parenthesised chains",
];

fn assert_too_deep(source: &str, what: &str) {
    let err = parse(source).expect_err(what);
    assert!(
        err.to_string()
            .contains(&format!("nesting deeper than {MAX_NESTING} levels")),
        "{what}: {err}"
    );
}

/// Levels from a statement list down to its deepest operand: one per
/// statement and one per expression node on the way.
fn stmts_depth(stmts: &[Stmt]) -> usize {
    stmts.iter().map(stmt_depth).max().unwrap_or(0)
}

fn stmt_depth(stmt: &Stmt) -> usize {
    let below = match stmt {
        Stmt::Decl { .. } | Stmt::Break(_) | Stmt::Continue(_) | Stmt::Return(None, _) => 0,
        Stmt::Assign { lv, expr, .. } => {
            let index = match lv {
                LValue::Var(_) => 0,
                LValue::Index(_, idx) => expr_depth(idx),
            };
            index.max(expr_depth(expr))
        }
        Stmt::If { cond, then, els } => expr_depth(cond)
            .max(stmts_depth(then))
            .max(stmts_depth(els)),
        Stmt::While { cond, body } => expr_depth(cond).max(stmts_depth(body)),
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => [init, step]
            .into_iter()
            .flatten()
            .map(|s| stmt_depth(s))
            .chain(cond.iter().map(expr_depth))
            .chain([stmts_depth(body)])
            .max()
            .unwrap_or(0),
        Stmt::Return(Some(e), _) | Stmt::Expr(e) => expr_depth(e),
        Stmt::Block2(a, b) => stmt_depth(a).max(stmt_depth(b)),
    };
    below + 1
}

fn expr_depth(expr: &Expr) -> usize {
    match expr {
        Expr::Int(_) | Expr::Float(_) | Expr::Var(..) => 1,
        Expr::Index(_, e, _) | Expr::Unary(_, e, _) | Expr::Cast(_, e, _) => expr_depth(e) + 1,
        Expr::Call(_, args, _) => args.iter().map(expr_depth).max().unwrap_or(0) + 1,
        Expr::Binary(_, l, r, _) => expr_depth(l).max(expr_depth(r)) + 1,
    }
}

#[test]
fn hundred_thousand_levels_are_a_typed_error() {
    for construct in CONSTRUCTS {
        assert_too_deep(&nested(construct, 100_000), construct);
    }
}

#[test]
fn chains_that_each_fit_are_refused_together() {
    // Ten operator chains, one per precedence level, each short enough
    // to parse alone, nest as one left spine ten chains deep.
    let per_level = MAX_NESTING - 8;
    let mut chains = String::from("x");
    for op in BY_PRECEDENCE {
        let chain = format!(" {op} x").repeat(per_level);
        let alone = format!("fn main() {{ int x; x = 0; out(x{chain}); }}");
        assert!(parse(&alone).is_ok(), "{op} chain alone");
        chains.push_str(&chain);
    }
    assert_too_deep(
        &format!("fn main() {{ int x; x = 0; out({chains}); }}"),
        "ten chains",
    );

    // A parenthesised operand heads the chain around it: half the limit
    // of parentheses, each followed by a chain of half the limit.
    let half = MAX_NESTING / 2 - 4;
    let chain = " + x".repeat(half);
    for alone in [
        format!("out({}x{});", "(".repeat(half), ")".repeat(half)),
        format!("out(x{chain});"),
    ] {
        let source = format!("fn main() {{ int x; x = 0; {alone} }}");
        assert!(parse(&source).is_ok(), "{alone}");
    }
    assert_too_deep(
        &format!(
            "fn main() {{ int x; x = 0; out({}x{}); }}",
            "(".repeat(half),
            format!("{chain})").repeat(half)
        ),
        "chains under parentheses",
    );
}

#[test]
fn programs_at_the_limit_compile_on_a_two_mib_stack() {
    for construct in CONSTRUCTS {
        // The deepest version of the construct the parser accepts.
        let levels = (0..=MAX_NESTING)
            .rev()
            .find(|&n| parse(&nested(construct, n)).is_ok())
            .expect("shallow programs parse");
        assert!(
            levels + 8 > MAX_NESTING,
            "{construct}: only {levels} levels"
        );
        assert_too_deep(&nested(construct, levels + 1), construct);

        let source = nested(construct, levels);
        let ast = parse(&source).expect(construct);
        let depth = ast.funcs.iter().map(|f| stmts_depth(&f.body)).max();
        assert!(
            depth.is_some_and(|d| d <= MAX_NESTING),
            "{construct} at {levels} levels: AST {depth:?} deep"
        );

        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for opt in [OptLevel::O0, OptLevel::O1] {
                    if let Err(e) = compile_with(&source, AsmProfile::Toc, opt) {
                        panic!("{construct} at {levels} levels, {opt:?}: {e}");
                    }
                }
            })
            .expect("spawn")
            .join()
            .unwrap_or_else(|_| panic!("{construct} at {levels} levels did not compile"));
    }
}
