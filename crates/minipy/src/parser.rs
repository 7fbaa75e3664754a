//! Recursive-descent parser for minipy.

use crate::ast::{BinOp, BoolOpKind, CmpOp, Expr, Stmt, Target, UnaryOp};
use crate::error::{RunError, RunErrorKind};
use crate::lexer::tokenize;
use crate::token::{Kw, Op, TokKind, Token};

/// A call's positional arguments and `name=value` keyword arguments.
type CallArgs = (Vec<Expr>, Vec<(String, Expr)>);

/// Parser over a token stream. Construct with [`Parser::new`] and consume
/// with [`Parser::parse_program`].
pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
    lines: Vec<String>,
    max_line: u32,
}

impl Parser {
    /// Lex `src` and prepare to parse it.
    pub fn new(src: &str) -> Result<Self, RunError> {
        Ok(Parser {
            toks: tokenize(src)?,
            pos: 0,
            lines: src.lines().map(|l| l.to_string()).collect(),
            max_line: 0,
        })
    }

    /// Parse the whole input as a statement sequence.
    pub fn parse_program(mut self) -> Result<Vec<Stmt>, RunError> {
        let mut stmts = Vec::new();
        while !self.check(&TokKind::Eof) {
            stmts.push(self.statement()?);
        }
        Ok(stmts)
    }

    // ------------------------------------------------------------------
    // token plumbing

    fn peek(&self) -> &TokKind {
        &self.toks[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn advance(&mut self) -> TokKind {
        let tok = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        self.max_line = self.max_line.max(tok.line);
        tok.kind
    }

    fn check(&self, kind: &TokKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokKind, what: &str) -> Result<(), RunError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {}", self.peek())))
        }
    }

    fn eat_op(&mut self, op: Op) -> bool {
        self.eat(&TokKind::Op(op))
    }

    fn expect_op(&mut self, op: Op, what: &str) -> Result<(), RunError> {
        self.expect(&TokKind::Op(op), what)
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        self.eat(&TokKind::Keyword(kw))
    }

    fn err(&self, msg: impl Into<String>) -> RunError {
        RunError::new(RunErrorKind::SyntaxError, msg).at_line(self.line())
    }

    fn ident(&mut self) -> Result<String, RunError> {
        match self.peek().clone() {
            TokKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ------------------------------------------------------------------
    // statements

    fn statement(&mut self) -> Result<Stmt, RunError> {
        match self.peek().clone() {
            TokKind::Keyword(Kw::If) => self.if_stmt(),
            TokKind::Keyword(Kw::While) => self.while_stmt(),
            TokKind::Keyword(Kw::For) => self.for_stmt(),
            TokKind::Keyword(Kw::Def) => self.def_stmt(),
            _ => {
                let stmt = self.simple_stmt()?;
                self.expect(&TokKind::Newline, "end of statement")?;
                Ok(stmt)
            }
        }
    }

    fn simple_stmt(&mut self) -> Result<Stmt, RunError> {
        if self.eat_kw(Kw::Pass) {
            return Ok(Stmt::Pass);
        }
        if self.eat_kw(Kw::Break) {
            return Ok(Stmt::Break);
        }
        if self.eat_kw(Kw::Continue) {
            return Ok(Stmt::Continue);
        }
        if self.eat_kw(Kw::Return) {
            if self.check(&TokKind::Newline) {
                return Ok(Stmt::Return(None));
            }
            return Ok(Stmt::Return(Some(self.expression()?)));
        }
        if self.eat_kw(Kw::Global) {
            let mut names = vec![self.ident()?];
            while self.eat_op(Op::Comma) {
                names.push(self.ident()?);
            }
            return Ok(Stmt::Global(names));
        }
        if self.eat_kw(Kw::Del) {
            let mut targets = vec![self.target()?];
            while self.eat_op(Op::Comma) {
                targets.push(self.target()?);
            }
            return Ok(Stmt::Del(targets));
        }
        // expression, assignment, or augmented assignment
        let expr = self.expression()?;
        let aug = match self.peek() {
            TokKind::Op(Op::PlusEq) => Some(BinOp::Add),
            TokKind::Op(Op::MinusEq) => Some(BinOp::Sub),
            TokKind::Op(Op::StarEq) => Some(BinOp::Mul),
            TokKind::Op(Op::SlashEq) => Some(BinOp::Div),
            _ => None,
        };
        if let Some(op) = aug {
            self.advance();
            let value = self.expression()?;
            let target = self.expr_to_target(expr)?;
            return Ok(Stmt::AugAssign { target, op, value });
        }
        if self.eat_op(Op::Eq) {
            let value = self.expression()?;
            let target = self.expr_to_target(expr)?;
            return Ok(Stmt::Assign { target, value });
        }
        Ok(Stmt::Expr(expr))
    }

    fn target(&mut self) -> Result<Target, RunError> {
        let expr = self.postfix_expr()?;
        self.expr_to_target(expr)
    }

    fn expr_to_target(&self, expr: Expr) -> Result<Target, RunError> {
        match expr {
            Expr::Name(n) => Ok(Target::Name(n)),
            Expr::Attr(obj, attr) => Ok(Target::Attr(obj, attr)),
            Expr::Index(obj, idx) => Ok(Target::Index(obj, idx)),
            other => Err(self.err(format!("cannot assign to {other:?}"))),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, RunError> {
        self.expect(&TokKind::Newline, "newline before block")?;
        self.expect(&TokKind::Indent, "indented block")?;
        let mut body = Vec::new();
        while !self.check(&TokKind::Dedent) && !self.check(&TokKind::Eof) {
            body.push(self.statement()?);
        }
        self.expect(&TokKind::Dedent, "dedent")?;
        Ok(body)
    }

    fn if_stmt(&mut self) -> Result<Stmt, RunError> {
        self.advance(); // `if`
        let mut arms = Vec::new();
        let cond = self.expression()?;
        self.expect_op(Op::Colon, "`:` after if condition")?;
        arms.push((cond, self.block()?));
        let mut orelse = Vec::new();
        loop {
            if self.eat_kw(Kw::Elif) {
                let cond = self.expression()?;
                self.expect_op(Op::Colon, "`:` after elif condition")?;
                arms.push((cond, self.block()?));
            } else if self.eat_kw(Kw::Else) {
                self.expect_op(Op::Colon, "`:` after else")?;
                orelse = self.block()?;
                break;
            } else {
                break;
            }
        }
        Ok(Stmt::If { arms, orelse })
    }

    fn while_stmt(&mut self) -> Result<Stmt, RunError> {
        self.advance(); // `while`
        let cond = self.expression()?;
        self.expect_op(Op::Colon, "`:` after while condition")?;
        let body = self.block()?;
        Ok(Stmt::While { cond, body })
    }

    fn for_stmt(&mut self) -> Result<Stmt, RunError> {
        self.advance(); // `for`
        let var = self.ident()?;
        self.expect(&TokKind::Keyword(Kw::In), "`in`")?;
        let iter = self.expression()?;
        self.expect_op(Op::Colon, "`:` after for header")?;
        let body = self.block()?;
        Ok(Stmt::For { var, iter, body })
    }

    fn def_stmt(&mut self) -> Result<Stmt, RunError> {
        let start_line = self.line();
        self.advance(); // `def`
        let name = self.ident()?;
        self.expect_op(Op::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.check(&TokKind::Op(Op::RParen)) {
            params.push(self.ident()?);
            while self.eat_op(Op::Comma) {
                params.push(self.ident()?);
            }
        }
        self.expect_op(Op::RParen, "`)`")?;
        self.expect_op(Op::Colon, "`:` after def header")?;
        self.max_line = start_line;
        let body = self.block()?;
        let end_line = self.max_line;
        let source = self.extract_source(start_line, end_line);
        Ok(Stmt::FuncDef {
            name,
            params,
            body,
            source,
        })
    }

    /// Slice the original source lines of a definition, stripping the common
    /// leading indentation so the text re-parses standalone (needed when a
    /// nested `def`'s source is pickled).
    fn extract_source(&self, start_line: u32, end_line: u32) -> String {
        let lo = (start_line as usize).saturating_sub(1);
        let hi = (end_line as usize).min(self.lines.len());
        let slice = &self.lines[lo..hi];
        let indent = slice
            .iter()
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.len() - l.trim_start().len())
            .min()
            .unwrap_or(0);
        let mut out = String::new();
        for l in slice {
            if l.len() >= indent {
                out.push_str(&l[indent..]);
            } else {
                out.push_str(l.trim_start());
            }
            out.push('\n');
        }
        out
    }

    // ------------------------------------------------------------------
    // expressions (precedence climbing, loosest first)

    fn expression(&mut self) -> Result<Expr, RunError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, RunError> {
        let first = self.and_expr()?;
        if !self.check(&TokKind::Keyword(Kw::Or)) {
            return Ok(first);
        }
        let mut operands = vec![first];
        while self.eat_kw(Kw::Or) {
            operands.push(self.and_expr()?);
        }
        Ok(Expr::BoolOp {
            op: BoolOpKind::Or,
            operands,
        })
    }

    fn and_expr(&mut self) -> Result<Expr, RunError> {
        let first = self.not_expr()?;
        if !self.check(&TokKind::Keyword(Kw::And)) {
            return Ok(first);
        }
        let mut operands = vec![first];
        while self.eat_kw(Kw::And) {
            operands.push(self.not_expr()?);
        }
        Ok(Expr::BoolOp {
            op: BoolOpKind::And,
            operands,
        })
    }

    fn not_expr(&mut self) -> Result<Expr, RunError> {
        if self.eat_kw(Kw::Not) {
            let operand = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(operand),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, RunError> {
        let left = self.add_expr()?;
        let mut rest = Vec::new();
        loop {
            let op = match self.peek() {
                TokKind::Op(Op::EqEq) => CmpOp::Eq,
                TokKind::Op(Op::NotEq) => CmpOp::Ne,
                TokKind::Op(Op::Lt) => CmpOp::Lt,
                TokKind::Op(Op::LtEq) => CmpOp::Le,
                TokKind::Op(Op::Gt) => CmpOp::Gt,
                TokKind::Op(Op::GtEq) => CmpOp::Ge,
                TokKind::Keyword(Kw::In) => CmpOp::In,
                TokKind::Keyword(Kw::Not) => {
                    // `not in`
                    if self.toks.get(self.pos + 1).map(|t| &t.kind)
                        == Some(&TokKind::Keyword(Kw::In))
                    {
                        self.advance();
                        CmpOp::NotIn
                    } else {
                        break;
                    }
                }
                _ => break,
            };
            self.advance();
            rest.push((op, self.add_expr()?));
        }
        if rest.is_empty() {
            Ok(left)
        } else {
            Ok(Expr::Compare {
                left: Box::new(left),
                rest,
            })
        }
    }

    fn add_expr(&mut self) -> Result<Expr, RunError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokKind::Op(Op::Plus) => BinOp::Add,
                TokKind::Op(Op::Minus) => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.mul_expr()?;
            left = Expr::BinOp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, RunError> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokKind::Op(Op::Star) => BinOp::Mul,
                TokKind::Op(Op::Slash) => BinOp::Div,
                TokKind::Op(Op::DoubleSlash) => BinOp::FloorDiv,
                TokKind::Op(Op::Percent) => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.unary_expr()?;
            left = Expr::BinOp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, RunError> {
        if self.eat_op(Op::Minus) {
            let operand = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(operand),
            });
        }
        self.power_expr()
    }

    fn power_expr(&mut self) -> Result<Expr, RunError> {
        let base = self.postfix_expr()?;
        if self.eat_op(Op::DoubleStar) {
            let exp = self.unary_expr()?; // right-associative
            return Ok(Expr::BinOp {
                op: BinOp::Pow,
                left: Box::new(base),
                right: Box::new(exp),
            });
        }
        Ok(base)
    }

    fn postfix_expr(&mut self) -> Result<Expr, RunError> {
        let mut expr = self.atom()?;
        loop {
            if self.eat_op(Op::Dot) {
                let attr = self.ident()?;
                expr = Expr::Attr(Box::new(expr), attr);
            } else if self.eat_op(Op::LParen) {
                let (args, kwargs) = self.call_args()?;
                expr = Expr::Call {
                    func: Box::new(expr),
                    args,
                    kwargs,
                };
            } else if self.eat_op(Op::LBracket) {
                let idx = self.subscript()?;
                self.expect_op(Op::RBracket, "`]`")?;
                expr = Expr::Index(Box::new(expr), Box::new(idx));
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn subscript(&mut self) -> Result<Expr, RunError> {
        // `a[:hi]`, `a[lo:]`, `a[lo:hi]`, `a[:]`, or a plain index.
        if self.eat_op(Op::Colon) {
            let hi = if self.check(&TokKind::Op(Op::RBracket)) {
                None
            } else {
                Some(Box::new(self.expression()?))
            };
            return Ok(Expr::Slice(None, hi));
        }
        let lo = self.expression()?;
        if self.eat_op(Op::Colon) {
            let hi = if self.check(&TokKind::Op(Op::RBracket)) {
                None
            } else {
                Some(Box::new(self.expression()?))
            };
            return Ok(Expr::Slice(Some(Box::new(lo)), hi));
        }
        Ok(lo)
    }

    fn call_args(&mut self) -> Result<CallArgs, RunError> {
        let mut args = Vec::new();
        let mut kwargs = Vec::new();
        if !self.check(&TokKind::Op(Op::RParen)) {
            loop {
                // kwarg if `ident =` (and not `==`)
                if let TokKind::Ident(name) = self.peek().clone() {
                    if self.toks.get(self.pos + 1).map(|t| &t.kind) == Some(&TokKind::Op(Op::Eq)) {
                        self.advance();
                        self.advance();
                        kwargs.push((name, self.expression()?));
                        if self.eat_op(Op::Comma) {
                            continue;
                        }
                        break;
                    }
                }
                if !kwargs.is_empty() {
                    return Err(self.err("positional argument after keyword argument"));
                }
                args.push(self.expression()?);
                if self.eat_op(Op::Comma) {
                    continue;
                }
                break;
            }
        }
        self.expect_op(Op::RParen, "`)`")?;
        Ok((args, kwargs))
    }

    fn atom(&mut self) -> Result<Expr, RunError> {
        match self.peek().clone() {
            TokKind::Int(v) => {
                self.advance();
                Ok(Expr::Int(v))
            }
            TokKind::Float(v) => {
                self.advance();
                Ok(Expr::Float(v))
            }
            TokKind::Str(s) => {
                self.advance();
                Ok(Expr::Str(s))
            }
            TokKind::Keyword(Kw::True) => {
                self.advance();
                Ok(Expr::Bool(true))
            }
            TokKind::Keyword(Kw::False) => {
                self.advance();
                Ok(Expr::Bool(false))
            }
            TokKind::Keyword(Kw::None) => {
                self.advance();
                Ok(Expr::None)
            }
            TokKind::Ident(name) => {
                self.advance();
                Ok(Expr::Name(name))
            }
            TokKind::Op(Op::LParen) => {
                self.advance();
                if self.eat_op(Op::RParen) {
                    return Ok(Expr::Tuple(Vec::new()));
                }
                let first = self.expression()?;
                if self.eat_op(Op::Comma) {
                    let mut items = vec![first];
                    while !self.check(&TokKind::Op(Op::RParen)) {
                        items.push(self.expression()?);
                        if !self.eat_op(Op::Comma) {
                            break;
                        }
                    }
                    self.expect_op(Op::RParen, "`)`")?;
                    return Ok(Expr::Tuple(items));
                }
                self.expect_op(Op::RParen, "`)`")?;
                Ok(first)
            }
            TokKind::Op(Op::LBracket) => {
                self.advance();
                let mut items = Vec::new();
                while !self.check(&TokKind::Op(Op::RBracket)) {
                    items.push(self.expression()?);
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
                self.expect_op(Op::RBracket, "`]`")?;
                Ok(Expr::List(items))
            }
            TokKind::Op(Op::LBrace) => {
                self.advance();
                if self.eat_op(Op::RBrace) {
                    return Ok(Expr::Dict(Vec::new()));
                }
                let first = self.expression()?;
                if self.eat_op(Op::Colon) {
                    // dict
                    let v = self.expression()?;
                    let mut pairs = vec![(first, v)];
                    while self.eat_op(Op::Comma) {
                        if self.check(&TokKind::Op(Op::RBrace)) {
                            break;
                        }
                        let k = self.expression()?;
                        self.expect_op(Op::Colon, "`:` in dict literal")?;
                        let v = self.expression()?;
                        pairs.push((k, v));
                    }
                    self.expect_op(Op::RBrace, "`}`")?;
                    Ok(Expr::Dict(pairs))
                } else {
                    // set
                    let mut items = vec![first];
                    while self.eat_op(Op::Comma) {
                        if self.check(&TokKind::Op(Op::RBrace)) {
                            break;
                        }
                        items.push(self.expression()?);
                    }
                    self.expect_op(Op::RBrace, "`}`")?;
                    Ok(Expr::Set(items))
                }
            }
            other => Err(self.err(format!("unexpected {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<Stmt> {
        Parser::new(src).expect("lexes").parse_program().expect("parses")
    }

    #[test]
    fn assignment_and_expression() {
        let p = parse("x = 1 + 2 * 3\nx\n");
        assert_eq!(p.len(), 2);
        match &p[0] {
            Stmt::Assign { target: Target::Name(n), value } => {
                assert_eq!(n, "x");
                // 1 + (2*3) by precedence
                match value {
                    Expr::BinOp { op: BinOp::Add, right, .. } => {
                        assert!(matches!(**right, Expr::BinOp { op: BinOp::Mul, .. }));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attribute_and_subscript_targets() {
        let p = parse("a.b = 1\nc[0] = 2\n");
        assert!(matches!(&p[0], Stmt::Assign { target: Target::Attr(..), .. }));
        assert!(matches!(&p[1], Stmt::Assign { target: Target::Index(..), .. }));
    }

    #[test]
    fn augmented_assignment() {
        let p = parse("x += 1\na[i] -= 2\n");
        assert!(matches!(&p[0], Stmt::AugAssign { op: BinOp::Add, .. }));
        assert!(matches!(&p[1], Stmt::AugAssign { op: BinOp::Sub, target: Target::Index(..), .. }));
    }

    #[test]
    fn if_elif_else() {
        let p = parse("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n");
        match &p[0] {
            Stmt::If { arms, orelse } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(orelse.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loops() {
        let p = parse("for i in range(10):\n    s += i\nwhile s > 0:\n    s -= 1\n");
        assert!(matches!(&p[0], Stmt::For { .. }));
        assert!(matches!(&p[1], Stmt::While { .. }));
    }

    #[test]
    fn function_definition_with_source() {
        let src = "def f(a, b):\n    return a + b\n";
        let p = parse(src);
        match &p[0] {
            Stmt::FuncDef { name, params, body, source } => {
                assert_eq!(name, "f");
                assert_eq!(params, &["a".to_string(), "b".to_string()]);
                assert_eq!(body.len(), 1);
                assert_eq!(source, src);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_def_source_is_dedented() {
        let src = "if x:\n    def g():\n        return 1\n";
        let p = parse(src);
        if let Stmt::If { arms, .. } = &p[0] {
            if let Stmt::FuncDef { source, .. } = &arms[0].1[0] {
                assert!(source.starts_with("def g():"));
                // It must re-parse standalone.
                assert!(Parser::new(source).expect("lexes").parse_program().is_ok());
                return;
            }
        }
        panic!("expected nested def");
    }

    #[test]
    fn calls_with_kwargs() {
        let p = parse("m = fit(df, k=3, seed=42)\n");
        if let Stmt::Assign { value: Expr::Call { args, kwargs, .. }, .. } = &p[0] {
            assert_eq!(args.len(), 1);
            assert_eq!(kwargs.len(), 2);
            assert_eq!(kwargs[0].0, "k");
        } else {
            panic!("expected call");
        }
    }

    #[test]
    fn method_chain_and_subscript() {
        let p = parse("y = df.col('a')[0]\n");
        if let Stmt::Assign { value, .. } = &p[0] {
            assert!(matches!(value, Expr::Index(..)));
        } else {
            panic!("expected assign");
        }
    }

    #[test]
    fn slices() {
        let p = parse("a[:10]\na[2:]\na[1:5]\na[:]\n");
        for stmt in &p {
            if let Stmt::Expr(Expr::Index(_, idx)) = stmt {
                assert!(matches!(**idx, Expr::Slice(..)));
            } else {
                panic!("expected subscript expr");
            }
        }
    }

    #[test]
    fn comparisons_chain() {
        let p = parse("ok = 0 <= x < 10\n");
        if let Stmt::Assign { value: Expr::Compare { rest, .. }, .. } = &p[0] {
            assert_eq!(rest.len(), 2);
        } else {
            panic!("expected chained compare");
        }
    }

    #[test]
    fn in_and_not_in() {
        let p = parse("a = x in ls\nb = x not in ls\n");
        if let Stmt::Assign { value: Expr::Compare { rest, .. }, .. } = &p[0] {
            assert_eq!(rest[0].0, CmpOp::In);
        } else {
            panic!();
        }
        if let Stmt::Assign { value: Expr::Compare { rest, .. }, .. } = &p[1] {
            assert_eq!(rest[0].0, CmpOp::NotIn);
        } else {
            panic!();
        }
    }

    #[test]
    fn collection_literals() {
        let p = parse("a = [1, 2]\nb = (1, 2)\nc = {'k': 1}\nd = {1, 2}\ne = {}\n");
        assert!(matches!(&p[0], Stmt::Assign { value: Expr::List(v), .. } if v.len() == 2));
        assert!(matches!(&p[1], Stmt::Assign { value: Expr::Tuple(v), .. } if v.len() == 2));
        assert!(matches!(&p[2], Stmt::Assign { value: Expr::Dict(v), .. } if v.len() == 1));
        assert!(matches!(&p[3], Stmt::Assign { value: Expr::Set(v), .. } if v.len() == 2));
        assert!(matches!(&p[4], Stmt::Assign { value: Expr::Dict(v), .. } if v.is_empty()));
    }

    #[test]
    fn del_and_global() {
        let p = parse("del x, y[0]\nglobal a, b\n");
        assert!(matches!(&p[0], Stmt::Del(ts) if ts.len() == 2));
        assert!(matches!(&p[1], Stmt::Global(ns) if ns.len() == 2));
    }

    #[test]
    fn boolean_operators_short_circuit_shape() {
        let p = parse("r = a and b or not c\n");
        if let Stmt::Assign { value: Expr::BoolOp { op: BoolOpKind::Or, operands }, .. } = &p[0] {
            assert_eq!(operands.len(), 2);
        } else {
            panic!("expected or at top");
        }
    }

    #[test]
    fn power_is_right_associative() {
        let p = parse("x = 2 ** 3 ** 2\n");
        if let Stmt::Assign { value: Expr::BinOp { op: BinOp::Pow, right, .. }, .. } = &p[0] {
            assert!(matches!(**right, Expr::BinOp { op: BinOp::Pow, .. }));
        } else {
            panic!("expected pow chain");
        }
    }

    #[test]
    fn syntax_errors_reported() {
        assert!(Parser::new("x = \n").expect("lexes").parse_program().is_err());
        assert!(Parser::new("1 = x\n").expect("lexes").parse_program().is_err());
        assert!(Parser::new("f(a=1, b)\n").expect("lexes").parse_program().is_err());
    }

    #[test]
    fn multiline_bracket_expression() {
        let p = parse("x = f(1,\n      2,\n      3)\n");
        assert_eq!(p.len(), 1);
    }
}
