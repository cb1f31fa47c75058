//! Recursive-descent parser for the mini-C workload language.
//!
//! Grammar sketch:
//!
//! ```text
//! program  := (const | global | fn)*
//! const    := "const" "int" IDENT "=" cexpr ";"
//! global   := "global" type IDENT ("[" cexpr "]")? ("=" init)? ";"
//! fn       := "fn" IDENT "(" params? ")" ("->" type)? block
//! stmt     := decl | assign | if | while | for | return | break | continue
//!           | expr ";" | block
//! expr     := precedence-climbing over || && | ^ & == != relational
//!             shifts additive multiplicative unary postfix primary
//! ```

use crate::ast::*;
use crate::token::{lex, LangError, SpannedTok, Tok};
use std::collections::HashMap;

/// The deepest nesting [`parse`] accepts. Each statement, each full
/// expression (a statement's, or one inside parentheses or brackets) and
/// each unary operand opens one level of the parser's recursion, and
/// each operator, call, cast or index adds one to the height of the
/// expression tree being built; the levels open plus that height may
/// not pass this limit. That bounds both the parser's recursion and the
/// depth of the AST the optimizer, code generation and `Drop` recurse
/// over: `a + b + c` nests as deep as `(a + b) + c`. A program at the
/// limit compiles on a 2 MiB thread stack, the default of the harness's
/// worker threads.
pub const MAX_NESTING: usize = 256;

/// The binary operator `tok` spells and its precedence, 0 binding
/// loosest: `||`, `&&`, `|`, `^`, `&`, equality, relational, shifts,
/// additive, multiplicative. Every level is left-associative.
fn binop(tok: &Tok) -> Option<(usize, BinOp)> {
    Some(match tok {
        Tok::OrOr => (0, BinOp::Or),
        Tok::AndAnd => (1, BinOp::And),
        Tok::Pipe => (2, BinOp::BitOr),
        Tok::Caret => (3, BinOp::BitXor),
        Tok::Amp => (4, BinOp::BitAnd),
        Tok::Eq => (5, BinOp::Eq),
        Tok::Ne => (5, BinOp::Ne),
        Tok::Lt => (6, BinOp::Lt),
        Tok::Le => (6, BinOp::Le),
        Tok::Gt => (6, BinOp::Gt),
        Tok::Ge => (6, BinOp::Ge),
        Tok::Shl => (7, BinOp::Shl),
        Tok::Shr => (7, BinOp::Shr),
        Tok::Plus => (8, BinOp::Add),
        Tok::Minus => (8, BinOp::Sub),
        Tok::Star => (9, BinOp::Mul),
        Tok::Slash => (9, BinOp::Div),
        Tok::Percent => (9, BinOp::Rem),
        _ => return None,
    })
}

/// Parses mini-C source into an AST.
///
/// # Errors
///
/// Returns a [`LangError`] with the offending line for any syntax error,
/// including source nested deeper than [`MAX_NESTING`].
pub fn parse(source: &str) -> Result<ProgramAst, LangError> {
    let toks = lex(source)?;
    Parser {
        toks,
        pos: 0,
        depth: 0,
        consts: HashMap::new(),
    }
    .program()
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Nesting levels open at `pos`. An error abandons the whole parse,
    /// so only successful paths restore it.
    depth: usize,
    consts: HashMap<String, i64>,
}

impl Parser {
    fn too_deep(&self) -> LangError {
        LangError::new(
            self.line(),
            format!("nesting deeper than {MAX_NESTING} levels"),
        )
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |t| t.line)
    }

    fn next(&mut self) -> Result<Tok, LangError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| LangError::new(self.line(), "unexpected end of input"))?;
        self.pos += 1;
        Ok(t.tok)
    }

    fn expect(&mut self, want: &Tok) -> Result<(), LangError> {
        let line = self.line();
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(LangError::new(
                line,
                format!("expected `{want}`, found `{got}`"),
            ))
        }
    }

    fn eat(&mut self, want: &Tok) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        let line = self.line();
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(LangError::new(
                line,
                format!("expected identifier, found `{other}`"),
            )),
        }
    }

    fn program(mut self) -> Result<ProgramAst, LangError> {
        let mut ast = ProgramAst::default();
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Const => {
                    let c = self.const_def()?;
                    self.consts.insert(c.name.clone(), c.value);
                    ast.consts.push(c);
                }
                Tok::Global => ast.globals.push(self.global()?),
                Tok::Fn => ast.funcs.push(self.func()?),
                other => {
                    return Err(LangError::new(
                        self.line(),
                        format!("expected `const`, `global`, or `fn`, found `{other}`"),
                    ));
                }
            }
        }
        Ok(ast)
    }

    fn const_def(&mut self) -> Result<ConstDef, LangError> {
        let line = self.line();
        self.expect(&Tok::Const)?;
        self.expect(&Tok::KwInt)?;
        let name = self.ident()?;
        self.expect(&Tok::Assign)?;
        let value = self.const_int()?;
        self.expect(&Tok::Semi)?;
        Ok(ConstDef { name, value, line })
    }

    /// Parses and folds a compile-time integer expression.
    fn const_int(&mut self) -> Result<i64, LangError> {
        let line = self.line();
        let e = self.expr()?;
        self.fold_const(&e).ok_or_else(|| {
            LangError::new(line, "expected a compile-time integer constant".to_string())
        })
    }

    fn fold_const(&self, e: &Expr) -> Option<i64> {
        match e {
            Expr::Int(v) => Some(*v),
            Expr::Var(name, _) => self.consts.get(name).copied(),
            Expr::Unary(UnOp::Neg, inner, _) => Some(self.fold_const(inner)?.wrapping_neg()),
            Expr::Unary(UnOp::BitNot, inner, _) => Some(!self.fold_const(inner)?),
            Expr::Binary(op, l, r, _) => {
                let (a, b) = (self.fold_const(l)?, self.fold_const(r)?);
                Some(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div if b != 0 => a.wrapping_div(b),
                    BinOp::Rem if b != 0 => a.wrapping_rem(b),
                    BinOp::Shl => a.wrapping_shl(b as u32),
                    BinOp::Shr => a.wrapping_shr(b as u32),
                    BinOp::BitAnd => a & b,
                    BinOp::BitOr => a | b,
                    BinOp::BitXor => a ^ b,
                    _ => return None,
                })
            }
            _ => None,
        }
    }

    fn elem_type(&mut self) -> Result<ElemType, LangError> {
        let line = self.line();
        match self.next()? {
            Tok::KwInt => Ok(ElemType::Int),
            Tok::KwFloat => Ok(ElemType::Float),
            Tok::KwChar => Ok(ElemType::Char),
            other => Err(LangError::new(
                line,
                format!("expected a type, found `{other}`"),
            )),
        }
    }

    fn scalar_type(&mut self) -> Result<Type, LangError> {
        let line = self.line();
        match self.elem_type()? {
            ElemType::Int => Ok(Type::Int),
            ElemType::Float => Ok(Type::Float),
            ElemType::Char => Err(LangError::new(
                line,
                "`char` is only allowed as an array element type",
            )),
        }
    }

    fn global(&mut self) -> Result<Global, LangError> {
        let line = self.line();
        self.expect(&Tok::Global)?;
        let elem = self.elem_type()?;
        let name = self.ident()?;
        let len = if self.eat(&Tok::LBracket) {
            let n = self.const_int()?;
            self.expect(&Tok::RBracket)?;
            if n <= 0 {
                return Err(LangError::new(
                    line,
                    format!("array `{name}` must have positive length"),
                ));
            }
            Some(n as u64)
        } else {
            None
        };
        if elem == ElemType::Char && len.is_none() {
            return Err(LangError::new(line, "`char` globals must be arrays"));
        }
        let init = if self.eat(&Tok::Assign) {
            match self.peek() {
                Some(Tok::LBrace) => {
                    self.next()?;
                    let mut items = Vec::new();
                    if !self.eat(&Tok::RBrace) {
                        loop {
                            items.push(self.literal()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RBrace)?;
                    }
                    Init::List(items)
                }
                Some(Tok::Str(_)) => {
                    let Tok::Str(s) = self.next()? else {
                        unreachable!()
                    };
                    Init::Str(s)
                }
                _ => Init::Scalar(self.literal()?),
            }
        } else {
            Init::None
        };
        self.expect(&Tok::Semi)?;
        Ok(Global {
            name,
            elem,
            len,
            init,
            line,
        })
    }

    fn literal(&mut self) -> Result<Literal, LangError> {
        let line = self.line();
        let neg = self.eat(&Tok::Minus);
        match self.next()? {
            Tok::Int(v) => {
                // Fall back to const names for convenience.
                Ok(Literal::Int(if neg { -v } else { v }))
            }
            Tok::Float(v) => Ok(Literal::Float(if neg { -v } else { v })),
            Tok::Ident(name) => {
                let v = *self.consts.get(&name).ok_or_else(|| {
                    LangError::new(line, format!("unknown constant `{name}` in initializer"))
                })?;
                Ok(Literal::Int(if neg { -v } else { v }))
            }
            other => Err(LangError::new(
                line,
                format!("expected literal, found `{other}`"),
            )),
        }
    }

    fn func(&mut self) -> Result<Func, LangError> {
        let line = self.line();
        self.expect(&Tok::Fn)?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let ty = self.scalar_type()?;
                let pname = self.ident()?;
                params.push((pname, ty));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        let ret = if self.eat(&Tok::Arrow) {
            Some(self.scalar_type()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(Func {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        self.nested(Parser::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        match self.peek() {
            Some(Tok::KwInt | Tok::KwFloat | Tok::KwChar) => {
                let elem = self.elem_type()?;
                let name = self.ident()?;
                let len = if self.eat(&Tok::LBracket) {
                    let n = self.const_int()?;
                    self.expect(&Tok::RBracket)?;
                    if n <= 0 {
                        return Err(LangError::new(
                            line,
                            format!("array `{name}` must have positive length"),
                        ));
                    }
                    Some(n as u64)
                } else {
                    None
                };
                if elem == ElemType::Char && len.is_none() {
                    return Err(LangError::new(line, "`char` locals must be arrays"));
                }
                // Optional inline initialization sugar: `int x = e;`
                if self.eat(&Tok::Assign) {
                    if len.is_some() {
                        return Err(LangError::new(line, "array locals cannot be initialized"));
                    }
                    let expr = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    return Ok(Stmt::Block2(
                        Box::new(Stmt::Decl {
                            name: name.clone(),
                            elem,
                            len,
                            line,
                        }),
                        Box::new(Stmt::Assign {
                            lv: LValue::Var(name),
                            expr,
                            line,
                        }),
                    ));
                }
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Decl {
                    name,
                    elem,
                    len,
                    line,
                })
            }
            Some(Tok::If) => {
                self.next()?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then = self.stmt_or_block()?;
                let els = if self.eat(&Tok::Else) {
                    self.stmt_or_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then, els })
            }
            Some(Tok::While) => {
                self.next()?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.stmt_or_block()?;
                Ok(Stmt::While { cond, body })
            }
            Some(Tok::For) => {
                self.next()?;
                self.expect(&Tok::LParen)?;
                let init = if self.peek() == Some(&Tok::Semi) {
                    self.next()?;
                    None
                } else {
                    let s = self.simple_stmt()?;
                    self.expect(&Tok::Semi)?;
                    Some(Box::new(s))
                };
                let cond = if self.peek() == Some(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let step = if self.peek() == Some(&Tok::RParen) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.expect(&Tok::RParen)?;
                let body = self.stmt_or_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Some(Tok::Return) => {
                self.next()?;
                if self.eat(&Tok::Semi) {
                    Ok(Stmt::Return(None, line))
                } else {
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Return(Some(e), line))
                }
            }
            Some(Tok::Break) => {
                self.next()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break(line))
            }
            Some(Tok::Continue) => {
                self.next()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue(line))
            }
            Some(Tok::LBrace) => {
                let body = self.block()?;
                Ok(Stmt::If {
                    cond: Expr::Int(1),
                    then: body,
                    els: Vec::new(),
                })
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(&Tok::Semi)?;
                Ok(s)
            }
        }
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, LangError> {
        if self.peek() == Some(&Tok::LBrace) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// An assignment or expression statement, without the trailing `;`.
    fn simple_stmt(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        let e = self.expr()?;
        if self.eat(&Tok::Assign) {
            let lv = match e {
                Expr::Var(name, _) => LValue::Var(name),
                Expr::Index(name, idx, _) => LValue::Index(name, idx),
                _ => {
                    return Err(LangError::new(
                        line,
                        "left side of `=` must be a variable or array element",
                    ));
                }
            };
            let value = self.expr()?;
            return Ok(Stmt::Assign {
                lv,
                expr: value,
                line,
            });
        }
        Ok(Stmt::Expr(e))
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, LangError> {
        Ok(self.tree()?.0)
    }

    /// An expression, one nesting level deeper, and the height of its
    /// tree.
    fn tree(&mut self) -> Result<(Expr, usize), LangError> {
        self.nested(|p| p.binary(0))
    }

    /// Returns `expr`, a node whose tree is `height` levels high, or the
    /// nesting error if the levels open plus that height pass
    /// [`MAX_NESTING`]. Every operator node goes through here, so no
    /// expression tree taller than the limit is ever built.
    fn node(&self, expr: Expr, height: usize) -> Result<(Expr, usize), LangError> {
        if self.depth + height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok((expr, height))
    }

    /// An expression whose binary operators bind at precedence
    /// `min_level` or tighter.
    fn binary(&mut self, min_level: usize) -> Result<(Expr, usize), LangError> {
        let (mut lhs, mut height) = self.unary_expr()?;
        while let Some((level, op)) = self
            .peek()
            .and_then(binop)
            .filter(|&(level, _)| level >= min_level)
        {
            let line = self.line();
            self.next()?;
            let (rhs, rhs_height) = self.binary(level + 1)?;
            let e = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
            (lhs, height) = self.node(e, 1 + height.max(rhs_height))?;
        }
        Ok((lhs, height))
    }

    fn unary_expr(&mut self) -> Result<(Expr, usize), LangError> {
        let line = self.line();
        let op = match self.peek() {
            Some(Tok::Minus) => UnOp::Neg,
            Some(Tok::Bang) => UnOp::Not,
            Some(Tok::Tilde) => UnOp::BitNot,
            _ => return self.primary_expr(),
        };
        self.next()?;
        let (e, height) = self.nested(Parser::unary_expr)?;
        self.node(Expr::Unary(op, Box::new(e), line), height + 1)
    }

    fn primary_expr(&mut self) -> Result<(Expr, usize), LangError> {
        let line = self.line();
        match self.next()? {
            Tok::Int(v) => Ok((Expr::Int(v), 0)),
            Tok::Float(v) => Ok((Expr::Float(v), 0)),
            Tok::LParen => {
                let e = self.tree()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            // Casts spell the type name like a call: int(e), float(e).
            Tok::KwInt => {
                self.expect(&Tok::LParen)?;
                let (e, height) = self.tree()?;
                self.expect(&Tok::RParen)?;
                self.node(Expr::Cast(Type::Int, Box::new(e), line), height + 1)
            }
            Tok::KwFloat => {
                self.expect(&Tok::LParen)?;
                let (e, height) = self.tree()?;
                self.expect(&Tok::RParen)?;
                self.node(Expr::Cast(Type::Float, Box::new(e), line), height + 1)
            }
            Tok::Ident(name) => match self.peek() {
                Some(Tok::LParen) => {
                    self.next()?;
                    let mut args = Vec::new();
                    let mut height = 0;
                    if !self.eat(&Tok::RParen) {
                        loop {
                            let (arg, arg_height) = self.tree()?;
                            args.push(arg);
                            height = height.max(arg_height);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    self.node(Expr::Call(name, args, line), height + 1)
                }
                Some(Tok::LBracket) => {
                    self.next()?;
                    let (idx, height) = self.tree()?;
                    self.expect(&Tok::RBracket)?;
                    self.node(Expr::Index(name, Box::new(idx), line), height + 1)
                }
                _ => {
                    // Named constants fold to literals here.
                    if let Some(&v) = self.consts.get(&name) {
                        Ok((Expr::Int(v), 0))
                    } else {
                        Ok((Expr::Var(name, line), 0))
                    }
                }
            },
            other => Err(LangError::new(
                line,
                format!("expected expression, found `{other}`"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let ast = parse("fn main() { out(1); }").unwrap();
        assert_eq!(ast.funcs.len(), 1);
        assert_eq!(ast.funcs[0].name, "main");
    }

    #[test]
    fn parses_globals_and_consts() {
        let ast = parse(
            "const int N = 4 * 8;\n\
             global int x = 5;\n\
             global float f = -2.5;\n\
             global int a[N];\n\
             global char s[16] = \"hi\";\n\
             global int t[4] = {1, 2, 3, 4};\n\
             fn main() { }",
        )
        .unwrap();
        assert_eq!(ast.consts[0].value, 32);
        assert_eq!(ast.globals.len(), 5);
        assert_eq!(ast.globals[2].len, Some(32), "a[N] with N = 32");
        assert_eq!(ast.globals[3].len, Some(16), "s[16]");
        assert_eq!(
            ast.globals[4].init,
            Init::List(vec![
                Literal::Int(1),
                Literal::Int(2),
                Literal::Int(3),
                Literal::Int(4)
            ])
        );
    }

    #[test]
    fn precedence() {
        let ast = parse("fn main() { out(1 + 2 * 3); }").unwrap();
        let Stmt::Expr(Expr::Call(_, args, _)) = &ast.funcs[0].body[0] else {
            panic!("expected call stmt");
        };
        // 1 + (2 * 3)
        let Expr::Binary(BinOp::Add, lhs, rhs, _) = &args[0] else {
            panic!("expected add at top");
        };
        assert_eq!(**lhs, Expr::Int(1));
        assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn for_loop_parses() {
        let ast = parse("fn main() { int i; for (i = 0; i < 10; i = i + 1) { out(i); } }").unwrap();
        let body = &ast.funcs[0].body;
        assert!(matches!(body[1], Stmt::For { .. }));
    }

    #[test]
    fn decl_with_init_desugars() {
        let ast = parse("fn main() { int x = 5; out(x); }").unwrap();
        assert!(matches!(ast.funcs[0].body[0], Stmt::Block2(_, _)));
    }

    #[test]
    fn casts_parse() {
        let ast = parse("fn main() { float f; f = float(3); out(int(f)); }").unwrap();
        assert_eq!(ast.funcs.len(), 1);
    }

    #[test]
    fn errors_have_lines() {
        let err = parse("fn main() {\n out(1)\n}").unwrap_err();
        assert!(err.line() >= 2);
        let err = parse("global char c;").unwrap_err();
        assert!(err.to_string().contains("char"));
    }

    #[test]
    fn array_length_const_folding() {
        let ast = parse("const int W = 8; global int g[W * W]; fn main() {}").unwrap();
        assert_eq!(ast.globals[0].len, Some(64));
    }
}
