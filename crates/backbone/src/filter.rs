//! Compiled content-based subscription filters.
//!
//! The paper's format-scoping (§4.4) narrows *which fields* a
//! subscriber sees; its §7 names content-based filtering as future
//! work. This module supplies it on the zero-copy path: a subscriber
//! passes a predicate such as `price > 100 && dest == "ATL"` at
//! subscribe time, the broker resolves field names against the
//! stream's clayout struct type, and compiles the expression into a
//! small flat op program that evaluates directly against the NDR wire
//! image — no decode, no allocation, only the referenced bytes
//! touched. Set membership (`price IN (100, 200, 300)`) and inclusive
//! ranges (`weight BETWEEN 1.0 AND 2.5`) compile to single ops — one
//! load, then immediate scans/compares — rather than chains of
//! comparisons and jumps. The same move PR 5 made for conversion
//! (`ConversionPlan`): compile per-format structure once, run a flat
//! program per message.
//!
//! Pipeline: lexer → Pratt-style recursive-descent parser (depth and
//! length limited, so adversarial input cannot recurse unboundedly) →
//! typecheck against the [`StructType`] → canonical normalization (the
//! dedup key) → per-architecture compilation to [`Op`] programs with
//! short-circuit jumps. Programs are cached per sender layout inside a
//! [`StreamFilter`] and shared across subscribers through the
//! [`FilterCache`], a [`Memo`] keyed by
//! `(struct fingerprint, normalized expression)` with hit/miss stats.
//!
//! Evaluation is fail-closed: a payload whose header does not parse,
//! whose fingerprint disagrees with the filter's struct type, or whose
//! string pointers are malformed simply does not match (and bumps an
//! error counter) — a filtering broker must never panic or allocate on
//! attacker-supplied bytes.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clayout::image::{get_int, get_uint};
use clayout::{Architecture, CType, Endianness, Layout, StructType, Value};
use pbio::header::WireHeader;
use pbio::{Memo, MemoStats};

/// Longest accepted predicate source, in bytes.
pub const MAX_EXPR_LEN: usize = 4096;
/// Deepest accepted nesting (parentheses and `!`), bounding parser
/// recursion on adversarial input.
pub const MAX_EXPR_DEPTH: usize = 64;

/// A typed error from predicate parsing, typechecking or compilation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FilterError {
    /// The expression exceeds [`MAX_EXPR_LEN`].
    TooLong {
        /// Bytes submitted.
        len: usize,
        /// The accepted maximum.
        max: usize,
    },
    /// Nesting exceeds [`MAX_EXPR_DEPTH`].
    TooDeep {
        /// The accepted maximum.
        max: usize,
    },
    /// The expression is not grammatical.
    Parse {
        /// Byte offset of the offending token.
        at: usize,
        /// What went wrong.
        detail: String,
    },
    /// A referenced field does not exist in the stream's struct type.
    UnknownField {
        /// The field name as written.
        field: String,
    },
    /// A comparison's literal type does not fit the field's type, or
    /// the operator is not defined for the field's type.
    TypeMismatch {
        /// The field being compared.
        field: String,
        /// What the field's type accepts.
        expected: &'static str,
        /// What the expression supplied.
        found: String,
    },
    /// The field's type cannot be filtered on (arrays, nested structs).
    Unsupported {
        /// The field being compared.
        field: String,
        /// Why it is unsupported.
        detail: String,
    },
    /// The predicate references a field hidden by the subscriber's
    /// format scope (see [`crate::scoping::FormatScope::permits_filter`]).
    HiddenField {
        /// The hidden field.
        field: String,
        /// The scope's label.
        scope: String,
    },
    /// The struct type has no valid layout on the sender architecture
    /// a program was requested for.
    Layout {
        /// The layout error, rendered.
        detail: String,
    },
    /// The stream's struct type was re-registered (see
    /// [`crate::Broker::register_stream_type`]) and this predicate no
    /// longer typechecks against the new type. The subscription is
    /// terminated with this error rather than left silently matching
    /// nothing against a fingerprint that will never arrive again.
    TypeChanged {
        /// The normalized predicate that stopped typechecking.
        expr: String,
        /// Why it fails against the new type, rendered.
        detail: String,
    },
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterError::TooLong { len, max } => {
                write!(f, "filter expression is {len} bytes (max {max})")
            }
            FilterError::TooDeep { max } => {
                write!(f, "filter expression nests deeper than {max}")
            }
            FilterError::Parse { at, detail } => {
                write!(f, "filter parse error at byte {at}: {detail}")
            }
            FilterError::UnknownField { field } => {
                write!(f, "filter references unknown field `{field}`")
            }
            FilterError::TypeMismatch { field, expected, found } => {
                write!(f, "filter field `{field}` expects {expected}, got {found}")
            }
            FilterError::Unsupported { field, detail } => {
                write!(f, "filter cannot use field `{field}`: {detail}")
            }
            FilterError::HiddenField { field, scope } => {
                write!(f, "filter references field `{field}` hidden by scope `{scope}`")
            }
            FilterError::Layout { detail } => {
                write!(f, "filter target layout failed: {detail}")
            }
            FilterError::TypeChanged { expr, detail } => {
                write!(
                    f,
                    "filter `{expr}` no longer typechecks after the stream's type changed: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for FilterError {}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// Comparison operators over scalar fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn render(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Operators defined over string fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StrOp {
    Eq,
    Ne,
    /// `^=`: the field starts with the literal.
    Prefix,
}

#[derive(Debug, Clone, PartialEq)]
enum Lit {
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
}

impl Lit {
    fn type_name(&self) -> &'static str {
        match self {
            Lit::Int(_) | Lit::UInt(_) => "integer literal",
            Lit::Float(_) => "float literal",
            Lit::Str(_) => "string literal",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Lit(Lit),
    AndAnd,
    OrOr,
    Bang,
    LParen,
    RParen,
    Comma,
    Cmp(CmpOp),
    PrefixEq,
}

fn err(at: usize, detail: impl Into<String>) -> FilterError {
    FilterError::Parse { at, detail: detail.into() }
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, FilterError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let at = i;
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'(' => {
                toks.push((at, Tok::LParen));
                i += 1;
            }
            b')' => {
                toks.push((at, Tok::RParen));
                i += 1;
            }
            b',' => {
                toks.push((at, Tok::Comma));
                i += 1;
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    toks.push((at, Tok::AndAnd));
                    i += 2;
                } else {
                    return Err(err(at, "expected `&&`"));
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    toks.push((at, Tok::OrOr));
                    i += 2;
                } else {
                    return Err(err(at, "expected `||`"));
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((at, Tok::Cmp(CmpOp::Ne)));
                    i += 2;
                } else {
                    toks.push((at, Tok::Bang));
                    i += 1;
                }
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((at, Tok::Cmp(CmpOp::Eq)));
                    i += 2;
                } else {
                    return Err(err(at, "expected `==` (assignment is not an operator)"));
                }
            }
            b'^' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((at, Tok::PrefixEq));
                    i += 2;
                } else {
                    return Err(err(at, "expected `^=`"));
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((at, Tok::Cmp(CmpOp::Le)));
                    i += 2;
                } else {
                    toks.push((at, Tok::Cmp(CmpOp::Lt)));
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((at, Tok::Cmp(CmpOp::Ge)));
                    i += 2;
                } else {
                    toks.push((at, Tok::Cmp(CmpOp::Gt)));
                    i += 1;
                }
            }
            b'"' => {
                let (lit, next) = lex_string(src, i)?;
                toks.push((at, Tok::Lit(Lit::Str(lit))));
                i = next;
            }
            b'-' | b'0'..=b'9' => {
                let (lit, next) = lex_number(src, i)?;
                toks.push((at, Tok::Lit(lit)));
                i = next;
            }
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                let mut j = i + 1;
                while j < bytes.len()
                    && (bytes[j] == b'_' || bytes[j] == b'.' || bytes[j].is_ascii_alphanumeric())
                {
                    j += 1;
                }
                toks.push((at, Tok::Ident(src[i..j].to_owned())));
                i = j;
            }
            _ => return Err(err(at, format!("unexpected byte 0x{b:02x}"))),
        }
    }
    Ok(toks)
}

fn lex_string(src: &str, start: usize) -> Result<(String, usize), FilterError> {
    let bytes = src.as_bytes();
    let mut out = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((out, i + 1)),
            b'\\' => {
                let esc = bytes.get(i + 1).copied();
                match esc {
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    _ => return Err(err(i, "unknown escape in string literal")),
                }
                i += 2;
            }
            _ => {
                // Copy the whole UTF-8 character, not just a byte.
                let ch = src[i..].chars().next().expect("in-bounds char");
                out.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    Err(err(start, "unterminated string literal"))
}

fn lex_number(src: &str, start: usize) -> Result<(Lit, usize), FilterError> {
    let bytes = src.as_bytes();
    let mut i = start;
    if bytes[i] == b'-' {
        i += 1;
        if i >= bytes.len() || !bytes[i].is_ascii_digit() {
            return Err(err(start, "`-` must begin a numeric literal"));
        }
    }
    let mut float = false;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => i += 1,
            b'.' | b'e' | b'E' => {
                float = true;
                i += 1;
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    let text = &src[start..i];
    if float {
        let v: f64 = text
            .parse()
            .map_err(|_| err(start, format!("bad float literal `{text}`")))?;
        if !v.is_finite() {
            return Err(err(start, format!("float literal `{text}` overflows f64")));
        }
        return Ok((Lit::Float(v), i));
    }
    if let Ok(v) = text.parse::<i64>() {
        return Ok((Lit::Int(v), i));
    }
    if let Ok(v) = text.parse::<u64>() {
        return Ok((Lit::UInt(v), i));
    }
    Err(err(start, format!("integer literal `{text}` overflows 64 bits")))
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Cmp { field: String, op: CmpOp, lit: Lit },
    StrPrefix { field: String, lit: String },
    /// `field IN (a, b, c)` — set membership in one op.
    In { field: String, items: Vec<Lit> },
    /// `field BETWEEN lo AND hi` — inclusive range in one op.
    Between { field: String, lo: Lit, hi: Lit },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    end: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn at(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end, |(at, _)| *at)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn parse_or(&mut self, depth: usize) -> Result<Expr, FilterError> {
        let mut lhs = self.parse_and(depth)?;
        while matches!(self.peek(), Some(Tok::OrOr)) {
            self.bump();
            let rhs = self.parse_and(depth)?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self, depth: usize) -> Result<Expr, FilterError> {
        let mut lhs = self.parse_unary(depth)?;
        while matches!(self.peek(), Some(Tok::AndAnd)) {
            self.bump();
            let rhs = self.parse_unary(depth)?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self, depth: usize) -> Result<Expr, FilterError> {
        if depth >= MAX_EXPR_DEPTH {
            return Err(FilterError::TooDeep { max: MAX_EXPR_DEPTH });
        }
        match self.peek() {
            Some(Tok::Bang) => {
                self.bump();
                Ok(Expr::Not(Box::new(self.parse_unary(depth + 1)?)))
            }
            Some(Tok::LParen) => {
                self.bump();
                let inner = self.parse_or(depth + 1)?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => Err(err(self.at(), "expected `)`")),
                }
            }
            Some(Tok::Ident(_)) => self.parse_cmp(),
            _ => Err(err(self.at(), "expected a comparison, `!` or `(`")),
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr, FilterError> {
        let field = match self.bump() {
            Some(Tok::Ident(name)) => name,
            _ => return Err(err(self.at(), "expected a field name")),
        };
        match self.peek() {
            Some(Tok::Ident(kw)) if kw == "IN" => {
                self.bump();
                return self.parse_in(field);
            }
            Some(Tok::Ident(kw)) if kw == "BETWEEN" => {
                self.bump();
                return self.parse_between(field);
            }
            _ => {}
        }
        let op = self.bump();
        let lit_at = self.at();
        let lit = match self.bump() {
            Some(Tok::Lit(lit)) => lit,
            _ => return Err(err(lit_at, "expected a literal after the operator")),
        };
        match op {
            Some(Tok::Cmp(op)) => Ok(Expr::Cmp { field, op, lit }),
            Some(Tok::PrefixEq) => match lit {
                Lit::Str(s) => Ok(Expr::StrPrefix { field, lit: s }),
                other => Err(FilterError::TypeMismatch {
                    field,
                    expected: "a string literal after `^=`",
                    found: other.type_name().to_owned(),
                }),
            },
            _ => Err(err(lit_at, "expected a comparison operator")),
        }
    }

    fn parse_in(&mut self, field: String) -> Result<Expr, FilterError> {
        if !matches!(self.bump(), Some(Tok::LParen)) {
            return Err(err(self.at(), "expected `(` after `IN`"));
        }
        let mut items = Vec::new();
        loop {
            let lit_at = self.at();
            let lit = match self.bump() {
                Some(Tok::Lit(lit)) => lit,
                _ => return Err(err(lit_at, "expected a literal in the `IN` list")),
            };
            items.push(lit);
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                _ => return Err(err(self.at(), "expected `,` or `)` in the `IN` list")),
            }
        }
        Ok(Expr::In { field, items })
    }

    fn parse_between(&mut self, field: String) -> Result<Expr, FilterError> {
        let lo_at = self.at();
        let lo = match self.bump() {
            Some(Tok::Lit(lit)) => lit,
            _ => return Err(err(lo_at, "expected a literal after `BETWEEN`")),
        };
        match self.bump() {
            Some(Tok::Ident(kw)) if kw == "AND" => {}
            _ => return Err(err(self.at(), "expected `AND` between the `BETWEEN` bounds")),
        }
        let hi_at = self.at();
        let hi = match self.bump() {
            Some(Tok::Lit(lit)) => lit,
            _ => return Err(err(hi_at, "expected a literal after `AND`")),
        };
        Ok(Expr::Between { field, lo, hi })
    }
}

fn parse(src: &str) -> Result<Expr, FilterError> {
    if src.len() > MAX_EXPR_LEN {
        return Err(FilterError::TooLong { len: src.len(), max: MAX_EXPR_LEN });
    }
    let toks = lex(src)?;
    if toks.is_empty() {
        return Err(err(0, "empty filter expression"));
    }
    let mut parser = Parser { toks, pos: 0, end: src.len() };
    let expr = parser.parse_or(0)?;
    if parser.pos != parser.toks.len() {
        return Err(err(parser.at(), "trailing input after expression"));
    }
    Ok(expr)
}

/// Renders the canonical form of an expression: fully parenthesized
/// binary operators, round-trippable literals. Two sources that parse
/// to the same tree render identically, which makes this the dedup key
/// half of the [`FilterCache`].
fn render(expr: &Expr, out: &mut String) {
    match expr {
        Expr::Cmp { field, op, lit } => {
            out.push_str(field);
            out.push(' ');
            out.push_str(op.render());
            out.push(' ');
            render_lit(lit, out);
        }
        Expr::StrPrefix { field, lit } => {
            out.push_str(field);
            out.push_str(" ^= ");
            render_lit(&Lit::Str(lit.clone()), out);
        }
        Expr::In { field, items } => {
            out.push_str(field);
            out.push_str(" IN (");
            for (i, lit) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_lit(lit, out);
            }
            out.push(')');
        }
        Expr::Between { field, lo, hi } => {
            out.push_str(field);
            out.push_str(" BETWEEN ");
            render_lit(lo, out);
            out.push_str(" AND ");
            render_lit(hi, out);
        }
        Expr::And(l, r) => {
            out.push('(');
            render(l, out);
            out.push_str(" && ");
            render(r, out);
            out.push(')');
        }
        Expr::Or(l, r) => {
            out.push('(');
            render(l, out);
            out.push_str(" || ");
            render(r, out);
            out.push(')');
        }
        Expr::Not(inner) => {
            out.push_str("!(");
            render(inner, out);
            out.push(')');
        }
    }
}

fn render_lit(lit: &Lit, out: &mut String) {
    match lit {
        Lit::Int(v) => out.push_str(&v.to_string()),
        Lit::UInt(v) => out.push_str(&v.to_string()),
        Lit::Float(v) => out.push_str(&format!("{v:?}")),
        Lit::Str(s) => {
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    other => out.push(other),
                }
            }
            out.push('"');
        }
    }
}

// ---------------------------------------------------------------------------
// Typecheck
// ---------------------------------------------------------------------------

/// A typechecked expression: fields resolved to indices in the struct
/// type, literals coerced to the field's value class. Architecture
/// independent — per-arch offsets are bound at [`compile`] time.
#[derive(Debug, Clone)]
enum TExpr {
    Int { field: usize, op: CmpOp, rhs: i64 },
    UInt { field: usize, op: CmpOp, rhs: u64 },
    Float { field: usize, op: CmpOp, rhs: f64 },
    Str { field: usize, op: StrOp, rhs: String },
    InInt { field: usize, set: Vec<i64> },
    InUInt { field: usize, set: Vec<u64> },
    InFloat { field: usize, set: Vec<f64> },
    InStr { field: usize, set: Vec<String> },
    BetweenInt { field: usize, lo: i64, hi: i64 },
    BetweenUInt { field: usize, lo: u64, hi: u64 },
    BetweenFloat { field: usize, lo: f64, hi: f64 },
    And(Box<TExpr>, Box<TExpr>),
    Or(Box<TExpr>, Box<TExpr>),
    Not(Box<TExpr>),
}

fn typecheck(expr: &Expr, st: &StructType) -> Result<TExpr, FilterError> {
    match expr {
        Expr::And(l, r) => Ok(TExpr::And(
            Box::new(typecheck(l, st)?),
            Box::new(typecheck(r, st)?),
        )),
        Expr::Or(l, r) => Ok(TExpr::Or(
            Box::new(typecheck(l, st)?),
            Box::new(typecheck(r, st)?),
        )),
        Expr::Not(inner) => Ok(TExpr::Not(Box::new(typecheck(inner, st)?))),
        Expr::StrPrefix { field, lit } => {
            let idx = resolve_string_field(field, st, "`^=` works on string fields only")?;
            Ok(TExpr::Str { field: idx, op: StrOp::Prefix, rhs: lit.clone() })
        }
        Expr::Cmp { field, op, lit } => typecheck_cmp(field, *op, lit, st),
        Expr::In { field, items } => typecheck_in(field, items, st),
        Expr::Between { field, lo, hi } => typecheck_between(field, lo, hi, st),
    }
}

fn resolve_field<'a>(
    field: &str,
    st: &'a StructType,
) -> Result<(usize, &'a CType), FilterError> {
    let idx = st
        .field_index(field)
        .ok_or_else(|| FilterError::UnknownField { field: field.to_owned() })?;
    Ok((idx, &st.fields[idx].ty))
}

fn resolve_string_field(
    field: &str,
    st: &StructType,
    why: &'static str,
) -> Result<usize, FilterError> {
    match resolve_field(field, st)? {
        (idx, CType::String) => Ok(idx),
        (_, other) => Err(FilterError::TypeMismatch {
            field: field.to_owned(),
            expected: why,
            found: type_label(other).to_owned(),
        }),
    }
}

fn type_label(ty: &CType) -> &'static str {
    match ty {
        CType::Prim(p) if p.is_float() => "a float field",
        CType::Prim(p) if p.is_signed_integer() => "a signed integer field",
        CType::Prim(_) => "an unsigned integer field",
        CType::String => "a string field",
        CType::Array { .. } => "an array field",
        CType::Struct(_) => "a nested struct field",
    }
}

fn typecheck_cmp(
    field: &str,
    op: CmpOp,
    lit: &Lit,
    st: &StructType,
) -> Result<TExpr, FilterError> {
    let (idx, ty) = resolve_field(field, st)?;
    let mismatch = |expected: &'static str| FilterError::TypeMismatch {
        field: field.to_owned(),
        expected,
        found: lit.type_name().to_owned(),
    };
    match ty {
        CType::Prim(p) if p.is_float() => {
            let rhs = match lit {
                Lit::Int(v) => *v as f64,
                Lit::UInt(v) => *v as f64,
                Lit::Float(v) => *v,
                Lit::Str(_) => return Err(mismatch("a numeric literal")),
            };
            Ok(TExpr::Float { field: idx, op, rhs })
        }
        CType::Prim(p) if p.is_signed_integer() => {
            let rhs = match lit {
                Lit::Int(v) => *v,
                Lit::UInt(_) => return Err(mismatch("an integer literal in i64 range")),
                _ => return Err(mismatch("an integer literal")),
            };
            Ok(TExpr::Int { field: idx, op, rhs })
        }
        CType::Prim(_) => {
            let rhs = match lit {
                Lit::Int(v) if *v >= 0 => *v as u64,
                Lit::UInt(v) => *v,
                Lit::Int(_) => return Err(mismatch("a non-negative integer literal")),
                _ => return Err(mismatch("an integer literal")),
            };
            Ok(TExpr::UInt { field: idx, op, rhs })
        }
        CType::String => match (op, lit) {
            (CmpOp::Eq, Lit::Str(s)) => {
                Ok(TExpr::Str { field: idx, op: StrOp::Eq, rhs: s.clone() })
            }
            (CmpOp::Ne, Lit::Str(s)) => {
                Ok(TExpr::Str { field: idx, op: StrOp::Ne, rhs: s.clone() })
            }
            (_, Lit::Str(_)) => Err(FilterError::TypeMismatch {
                field: field.to_owned(),
                expected: "`==`, `!=` or `^=` (strings have no ordering on the wire)",
                found: op.render().to_owned(),
            }),
            _ => Err(mismatch("a string literal")),
        },
        CType::Array { .. } => Err(FilterError::Unsupported {
            field: field.to_owned(),
            detail: "array fields cannot be filtered on".to_owned(),
        }),
        CType::Struct(_) => Err(FilterError::Unsupported {
            field: field.to_owned(),
            detail: "nested struct fields cannot be filtered on".to_owned(),
        }),
    }
}

/// Coerces one literal to the field's value class with exactly the
/// rules `typecheck_cmp` applies, so `IN`/`BETWEEN` accept and reject
/// the same literals a chain of `==`/`<=` comparisons would.
fn coerce_int(lit: &Lit) -> Result<i64, &'static str> {
    match lit {
        Lit::Int(v) => Ok(*v),
        Lit::UInt(_) => Err("an integer literal in i64 range"),
        _ => Err("an integer literal"),
    }
}

fn coerce_uint(lit: &Lit) -> Result<u64, &'static str> {
    match lit {
        Lit::Int(v) if *v >= 0 => Ok(*v as u64),
        Lit::UInt(v) => Ok(*v),
        Lit::Int(_) => Err("a non-negative integer literal"),
        _ => Err("an integer literal"),
    }
}

fn coerce_float(lit: &Lit) -> Result<f64, &'static str> {
    match lit {
        Lit::Int(v) => Ok(*v as f64),
        Lit::UInt(v) => Ok(*v as f64),
        Lit::Float(v) => Ok(*v),
        Lit::Str(_) => Err("a numeric literal"),
    }
}

fn typecheck_in(field: &str, items: &[Lit], st: &StructType) -> Result<TExpr, FilterError> {
    let (idx, ty) = resolve_field(field, st)?;
    let mismatch = |expected: &'static str, found: &Lit| FilterError::TypeMismatch {
        field: field.to_owned(),
        expected,
        found: found.type_name().to_owned(),
    };
    fn coerce_all<T>(
        items: &[Lit],
        f: fn(&Lit) -> Result<T, &'static str>,
        mismatch: &impl Fn(&'static str, &Lit) -> FilterError,
    ) -> Result<Vec<T>, FilterError> {
        items
            .iter()
            .map(|lit| f(lit).map_err(|expected| mismatch(expected, lit)))
            .collect()
    }
    match ty {
        CType::Prim(p) if p.is_float() => {
            Ok(TExpr::InFloat { field: idx, set: coerce_all(items, coerce_float, &mismatch)? })
        }
        CType::Prim(p) if p.is_signed_integer() => {
            Ok(TExpr::InInt { field: idx, set: coerce_all(items, coerce_int, &mismatch)? })
        }
        CType::Prim(_) => {
            Ok(TExpr::InUInt { field: idx, set: coerce_all(items, coerce_uint, &mismatch)? })
        }
        CType::String => {
            let set = items
                .iter()
                .map(|lit| match lit {
                    Lit::Str(s) => Ok(s.clone()),
                    other => Err(mismatch("a string literal", other)),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TExpr::InStr { field: idx, set })
        }
        CType::Array { .. } => Err(FilterError::Unsupported {
            field: field.to_owned(),
            detail: "array fields cannot be filtered on".to_owned(),
        }),
        CType::Struct(_) => Err(FilterError::Unsupported {
            field: field.to_owned(),
            detail: "nested struct fields cannot be filtered on".to_owned(),
        }),
    }
}

fn typecheck_between(
    field: &str,
    lo: &Lit,
    hi: &Lit,
    st: &StructType,
) -> Result<TExpr, FilterError> {
    let (idx, ty) = resolve_field(field, st)?;
    let mismatch = |expected: &'static str, found: &Lit| FilterError::TypeMismatch {
        field: field.to_owned(),
        expected,
        found: found.type_name().to_owned(),
    };
    match ty {
        CType::Prim(p) if p.is_float() => {
            let lo = coerce_float(lo).map_err(|e| mismatch(e, lo))?;
            let hi = coerce_float(hi).map_err(|e| mismatch(e, hi))?;
            Ok(TExpr::BetweenFloat { field: idx, lo, hi })
        }
        CType::Prim(p) if p.is_signed_integer() => {
            let lo = coerce_int(lo).map_err(|e| mismatch(e, lo))?;
            let hi = coerce_int(hi).map_err(|e| mismatch(e, hi))?;
            Ok(TExpr::BetweenInt { field: idx, lo, hi })
        }
        CType::Prim(_) => {
            let lo = coerce_uint(lo).map_err(|e| mismatch(e, lo))?;
            let hi = coerce_uint(hi).map_err(|e| mismatch(e, hi))?;
            Ok(TExpr::BetweenUInt { field: idx, lo, hi })
        }
        CType::String => Err(FilterError::TypeMismatch {
            field: field.to_owned(),
            expected: "`IN` for string sets (strings have no ordering on the wire)",
            found: "BETWEEN".to_owned(),
        }),
        CType::Array { .. } => Err(FilterError::Unsupported {
            field: field.to_owned(),
            detail: "array fields cannot be filtered on".to_owned(),
        }),
        CType::Struct(_) => Err(FilterError::Unsupported {
            field: field.to_owned(),
            detail: "nested struct fields cannot be filtered on".to_owned(),
        }),
    }
}

fn collect_fields(expr: &TExpr, st: &StructType, out: &mut Vec<String>) {
    match expr {
        TExpr::Int { field, .. }
        | TExpr::UInt { field, .. }
        | TExpr::Float { field, .. }
        | TExpr::Str { field, .. }
        | TExpr::InInt { field, .. }
        | TExpr::InUInt { field, .. }
        | TExpr::InFloat { field, .. }
        | TExpr::InStr { field, .. }
        | TExpr::BetweenInt { field, .. }
        | TExpr::BetweenUInt { field, .. }
        | TExpr::BetweenFloat { field, .. } => {
            let name = &st.fields[*field].name;
            if !out.iter().any(|f| f == name) {
                out.push(name.clone());
            }
        }
        TExpr::And(l, r) | TExpr::Or(l, r) => {
            collect_fields(l, st, out);
            collect_fields(r, st, out);
        }
        TExpr::Not(inner) => collect_fields(inner, st, out),
    }
}

// ---------------------------------------------------------------------------
// Compiler + evaluator
// ---------------------------------------------------------------------------

/// One op of a compiled program. Comparisons fuse the load (offset,
/// width, byte order all baked in at compile time) with the
/// compare-immediate and write the boolean accumulator; jumps give
/// `&&`/`||` short-circuit without a value stack.
#[derive(Debug, Clone)]
enum Op {
    CmpI { at: u32, size: u8, op: CmpOp, rhs: i64 },
    CmpU { at: u32, size: u8, op: CmpOp, rhs: u64 },
    CmpF32 { at: u32, op: CmpOp, rhs: f64 },
    CmpF64 { at: u32, op: CmpOp, rhs: f64 },
    Str { at: u32, op: StrOp, rhs: Box<[u8]> },
    /// `IN` set membership: one load, one linear scan over the
    /// immediates (the sets are tiny — written out by hand in a
    /// predicate), no jump scaffolding per alternative.
    InI { at: u32, size: u8, set: Box<[i64]> },
    InU { at: u32, size: u8, set: Box<[u64]> },
    InF32 { at: u32, set: Box<[f64]> },
    InF64 { at: u32, set: Box<[f64]> },
    InStr { at: u32, set: Box<[Box<[u8]>]> },
    /// `BETWEEN`: one load, two immediate compares, inclusive.
    BetweenI { at: u32, size: u8, lo: i64, hi: i64 },
    BetweenU { at: u32, size: u8, lo: u64, hi: u64 },
    BetweenF32 { at: u32, lo: f64, hi: f64 },
    BetweenF64 { at: u32, lo: f64, hi: f64 },
    Not,
    JmpFalse { to: u32 },
    JmpTrue { to: u32 },
}

/// A predicate compiled against one sender architecture: a flat op
/// program evaluated directly over the NDR payload image.
#[derive(Debug)]
struct FilterProgram {
    ops: Vec<Op>,
    /// The fixed-part size on this architecture; shorter payloads
    /// fail closed before any op runs, which makes every scalar load
    /// in-bounds by construction.
    min_len: usize,
    ptr_size: u8,
    endianness: Endianness,
}

impl FilterProgram {
    /// Evaluates the program against a bare NDR payload image (header
    /// already stripped). Zero allocations; touches only the bytes the
    /// predicate references. Fail-closed: truncated images and
    /// malformed string pointers do not match.
    pub fn eval(&self, image: &[u8]) -> bool {
        if image.len() < self.min_len {
            return false;
        }
        let e = self.endianness;
        let mut acc = false;
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                Op::CmpI { at, size, op, rhs } => {
                    let v = get_int(image, *at as usize, *size as usize, e);
                    acc = cmp_ord(v, *rhs, *op);
                }
                Op::CmpU { at, size, op, rhs } => {
                    let v = get_uint(image, *at as usize, *size as usize, e);
                    acc = cmp_ord(v, *rhs, *op);
                }
                Op::CmpF32 { at, op, rhs } => {
                    let v = f32::from_bits(get_uint(image, *at as usize, 4, e) as u32) as f64;
                    acc = cmp_float(v, *rhs, *op);
                }
                Op::CmpF64 { at, op, rhs } => {
                    let v = f64::from_bits(get_uint(image, *at as usize, 8, e));
                    acc = cmp_float(v, *rhs, *op);
                }
                Op::Str { at, op, rhs } => {
                    let target = get_uint(image, *at as usize, self.ptr_size as usize, e);
                    let Some(s) = str_bytes(image, target) else {
                        // Bad pointer / unterminated / non-UTF-8: the
                        // reference decoder errors here, so the whole
                        // verdict is a fail-closed non-match.
                        return false;
                    };
                    acc = match op {
                        StrOp::Eq => s == &rhs[..],
                        StrOp::Ne => s != &rhs[..],
                        StrOp::Prefix => s.starts_with(rhs),
                    };
                }
                Op::InI { at, size, set } => {
                    let v = get_int(image, *at as usize, *size as usize, e);
                    acc = set.contains(&v);
                }
                Op::InU { at, size, set } => {
                    let v = get_uint(image, *at as usize, *size as usize, e);
                    acc = set.contains(&v);
                }
                Op::InF32 { at, set } => {
                    let v = f32::from_bits(get_uint(image, *at as usize, 4, e) as u32) as f64;
                    acc = set.contains(&v);
                }
                Op::InF64 { at, set } => {
                    let v = f64::from_bits(get_uint(image, *at as usize, 8, e));
                    acc = set.contains(&v);
                }
                Op::InStr { at, set } => {
                    let target = get_uint(image, *at as usize, self.ptr_size as usize, e);
                    let Some(s) = str_bytes(image, target) else {
                        return false;
                    };
                    acc = set.iter().any(|x| &x[..] == s);
                }
                Op::BetweenI { at, size, lo, hi } => {
                    let v = get_int(image, *at as usize, *size as usize, e);
                    acc = *lo <= v && v <= *hi;
                }
                Op::BetweenU { at, size, lo, hi } => {
                    let v = get_uint(image, *at as usize, *size as usize, e);
                    acc = *lo <= v && v <= *hi;
                }
                Op::BetweenF32 { at, lo, hi } => {
                    let v = f32::from_bits(get_uint(image, *at as usize, 4, e) as u32) as f64;
                    acc = v >= *lo && v <= *hi;
                }
                Op::BetweenF64 { at, lo, hi } => {
                    let v = f64::from_bits(get_uint(image, *at as usize, 8, e));
                    acc = v >= *lo && v <= *hi;
                }
                Op::Not => acc = !acc,
                Op::JmpFalse { to } => {
                    if !acc {
                        pc = *to as usize;
                        continue;
                    }
                }
                Op::JmpTrue { to } => {
                    if acc {
                        pc = *to as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        acc
    }
}

fn cmp_ord<T: Ord>(lhs: T, rhs: T, op: CmpOp) -> bool {
    match op {
        CmpOp::Eq => lhs == rhs,
        CmpOp::Ne => lhs != rhs,
        CmpOp::Lt => lhs < rhs,
        CmpOp::Le => lhs <= rhs,
        CmpOp::Gt => lhs > rhs,
        CmpOp::Ge => lhs >= rhs,
    }
}

fn cmp_float(lhs: f64, rhs: f64, op: CmpOp) -> bool {
    // IEEE semantics: every comparison with NaN is false except `!=`.
    match op {
        CmpOp::Eq => lhs == rhs,
        CmpOp::Ne => lhs != rhs,
        CmpOp::Lt => lhs < rhs,
        CmpOp::Le => lhs <= rhs,
        CmpOp::Gt => lhs > rhs,
        CmpOp::Ge => lhs >= rhs,
    }
}

/// Borrows the NUL-terminated string bytes at swizzled pointer
/// `target`, mirroring `RecordView`'s `str_at`: 0 is the null pointer
/// (empty string); anything out of bounds, unterminated or non-UTF-8
/// is `None`.
fn str_bytes(image: &[u8], target: u64) -> Option<&[u8]> {
    if target == 0 {
        return Some(&[]);
    }
    let start = usize::try_from(target).ok().filter(|t| *t < image.len())?;
    let rel = image[start..].iter().position(|b| *b == 0)?;
    let bytes = &image[start..start + rel];
    std::str::from_utf8(bytes).ok()?;
    Some(bytes)
}

fn compile(
    expr: &TExpr,
    st: &StructType,
    arch: &Architecture,
) -> Result<FilterProgram, FilterError> {
    let layout = Layout::of_struct(st, arch)
        .map_err(|e| FilterError::Layout { detail: e.to_string() })?;
    let mut ops = Vec::new();
    emit(expr, &layout, &mut ops);
    Ok(FilterProgram {
        ops,
        min_len: layout.size,
        ptr_size: arch.pointer.size as u8,
        endianness: arch.endianness,
    })
}

fn emit(expr: &TExpr, layout: &Layout, ops: &mut Vec<Op>) {
    let offset_of = |idx: usize| layout.fields[idx].offset as u32;
    match expr {
        TExpr::Int { field, op, rhs } => {
            let size = layout.fields[*field].size as u8;
            ops.push(Op::CmpI { at: offset_of(*field), size, op: *op, rhs: *rhs });
        }
        TExpr::UInt { field, op, rhs } => {
            let size = layout.fields[*field].size as u8;
            ops.push(Op::CmpU { at: offset_of(*field), size, op: *op, rhs: *rhs });
        }
        TExpr::Float { field, op, rhs } => {
            let at = offset_of(*field);
            if layout.fields[*field].size == 4 {
                ops.push(Op::CmpF32 { at, op: *op, rhs: *rhs });
            } else {
                ops.push(Op::CmpF64 { at, op: *op, rhs: *rhs });
            }
        }
        TExpr::Str { field, op, rhs } => {
            ops.push(Op::Str {
                at: offset_of(*field),
                op: *op,
                rhs: rhs.as_bytes().to_vec().into_boxed_slice(),
            });
        }
        TExpr::InInt { field, set } => {
            let size = layout.fields[*field].size as u8;
            ops.push(Op::InI {
                at: offset_of(*field),
                size,
                set: set.clone().into_boxed_slice(),
            });
        }
        TExpr::InUInt { field, set } => {
            let size = layout.fields[*field].size as u8;
            ops.push(Op::InU {
                at: offset_of(*field),
                size,
                set: set.clone().into_boxed_slice(),
            });
        }
        TExpr::InFloat { field, set } => {
            let at = offset_of(*field);
            let set = set.clone().into_boxed_slice();
            if layout.fields[*field].size == 4 {
                ops.push(Op::InF32 { at, set });
            } else {
                ops.push(Op::InF64 { at, set });
            }
        }
        TExpr::InStr { field, set } => {
            ops.push(Op::InStr {
                at: offset_of(*field),
                set: set
                    .iter()
                    .map(|s| s.as_bytes().to_vec().into_boxed_slice())
                    .collect(),
            });
        }
        TExpr::BetweenInt { field, lo, hi } => {
            let size = layout.fields[*field].size as u8;
            ops.push(Op::BetweenI { at: offset_of(*field), size, lo: *lo, hi: *hi });
        }
        TExpr::BetweenUInt { field, lo, hi } => {
            let size = layout.fields[*field].size as u8;
            ops.push(Op::BetweenU { at: offset_of(*field), size, lo: *lo, hi: *hi });
        }
        TExpr::BetweenFloat { field, lo, hi } => {
            let at = offset_of(*field);
            if layout.fields[*field].size == 4 {
                ops.push(Op::BetweenF32 { at, lo: *lo, hi: *hi });
            } else {
                ops.push(Op::BetweenF64 { at, lo: *lo, hi: *hi });
            }
        }
        TExpr::Not(inner) => {
            emit(inner, layout, ops);
            ops.push(Op::Not);
        }
        TExpr::And(l, r) => {
            emit(l, layout, ops);
            let jmp = ops.len();
            ops.push(Op::JmpFalse { to: 0 });
            emit(r, layout, ops);
            let to = ops.len() as u32;
            ops[jmp] = Op::JmpFalse { to };
        }
        TExpr::Or(l, r) => {
            emit(l, layout, ops);
            let jmp = ops.len();
            ops.push(Op::JmpTrue { to: 0 });
            emit(r, layout, ops);
            let to = ops.len() as u32;
            ops[jmp] = Op::JmpTrue { to };
        }
    }
}

// ---------------------------------------------------------------------------
// StreamFilter: the shared, per-arch-cached compiled predicate
// ---------------------------------------------------------------------------

/// Evaluation counters for one [`StreamFilter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Events evaluated.
    pub evals: u64,
    /// Events that matched.
    pub matches: u64,
    /// Events rejected before evaluation: unparsable header, wrong
    /// struct fingerprint, or no layout for the sender architecture.
    pub errors: u64,
}

/// A compiled, shareable subscription predicate bound to one struct
/// type. Holds one [`FilterProgram`] per sender architecture seen: the
/// host's compiled eagerly and read without a lock, every other one
/// compiled lazily on first contact and kept per layout (at most 384 of
/// them, whatever descriptors senders claim). All subscribers passing the
/// same `(format, normalized expression)` share one `Arc<StreamFilter>`
/// via the [`FilterCache`], which is what lets fanout evaluate each
/// unique predicate once per event rather than once per subscriber.
#[derive(Debug)]
pub struct StreamFilter {
    normalized: String,
    fingerprint: u64,
    struct_type: Arc<StructType>,
    typed: TExpr,
    fields: Vec<String>,
    /// The host architecture's descriptor and program.
    host: ([u8; 6], FilterProgram),
    /// Programs for foreign sender architectures, by canonical
    /// descriptor: one per layout, however many descriptors map to it.
    programs: Memo<[u8; 6], FilterProgram>,
    evals: AtomicU64,
    matches: AtomicU64,
    errors: AtomicU64,
}

/// A resolved program: the host's, borrowed from its filter, or a share
/// of one compiled for a foreign sender.
enum Program<'a> {
    Host(&'a FilterProgram),
    Foreign(Arc<FilterProgram>),
}

impl std::ops::Deref for Program<'_> {
    type Target = FilterProgram;

    fn deref(&self) -> &FilterProgram {
        match self {
            Program::Host(program) => program,
            Program::Foreign(program) => program,
        }
    }
}

impl StreamFilter {
    /// Parses, typechecks and prepares `expr` against `st`. The host
    /// program is compiled eagerly, so layout errors surface at
    /// subscribe time; every other architecture's program is compiled
    /// on the first event from a sender of that architecture.
    ///
    /// # Errors
    ///
    /// Everything [`FilterError`] can carry: limits, parse errors,
    /// unknown fields, type mismatches, unsupported field kinds.
    pub fn compile(expr: &str, st: &StructType) -> Result<StreamFilter, FilterError> {
        let ast = parse(expr)?;
        let typed = typecheck(&ast, st)?;
        let mut normalized = String::new();
        render(&ast, &mut normalized);
        let mut fields = Vec::new();
        collect_fields(&typed, st, &mut fields);
        let host = Architecture::host();
        let host = (host.descriptor(), compile(&typed, st, &host)?);
        Ok(StreamFilter {
            normalized,
            fingerprint: pbio::format::struct_fingerprint(st),
            struct_type: Arc::new(st.clone()),
            typed,
            fields,
            host,
            programs: Memo::default(),
            evals: AtomicU64::new(0),
            matches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// The canonical form of the expression — the cache key half.
    pub fn normalized(&self) -> &str {
        &self.normalized
    }

    /// The fingerprint of the struct type this filter was checked
    /// against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Field names the predicate references, in first-use order.
    pub fn referenced_fields(&self) -> &[String] {
        &self.fields
    }

    /// Evaluation counters.
    pub fn stats(&self) -> FilterStats {
        FilterStats {
            evals: self.evals.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// The program for senders with `descriptor`: the host's without a
    /// lock, any other from the memo.
    fn program_for(&self, descriptor: [u8; 6]) -> Result<Program<'_>, FilterError> {
        if descriptor == self.host.0 {
            return Ok(Program::Host(&self.host.1));
        }
        self.foreign_program(descriptor)
    }

    /// A foreign sender's program, memoized under its layout's canonical
    /// descriptor (a forged header cannot add a layout) and compiled on
    /// first contact. Out of line: inlined into `select`, it slowed the
    /// host-only loop (`fanout_filtered` p50 +2.7 %, worse in 17 of 20
    /// pairs on a 2-core x86-64 box).
    #[inline(never)]
    fn foreign_program(&self, descriptor: [u8; 6]) -> Result<Program<'_>, FilterError> {
        let arch = Architecture::from_descriptor(descriptor);
        let build = || compile(&self.typed, &self.struct_type, &arch);
        Ok(Program::Foreign(self.programs.get_or_build(arch.descriptor(), build)?))
    }

    /// Evaluates the predicate over a run of full NDR messages (wire
    /// header plus payload image) and pushes the key of every message
    /// that matches onto `out`, in run order — the broker's entry point,
    /// called once per (unique program, dispatch run).
    ///
    /// Per message only the header peek, the fingerprint check and the
    /// program remain: the program is resolved once per run of equal
    /// sender descriptors, and the counters are added once per call.
    /// Zero allocations beyond `out`'s growth once each sender
    /// architecture has been seen. Fail-closed: a malformed header, a
    /// fingerprint that differs from the filter's struct type or an
    /// un-layout-able architecture counts as an error and does not
    /// match.
    pub fn select<'m, K>(
        &self,
        messages: impl IntoIterator<Item = (K, &'m [u8])>,
        out: &mut Vec<K>,
    ) {
        let (mut evals, mut matches, mut errors) = (0, 0, 0);
        let mut run: Option<([u8; 6], Option<Program<'_>>)> = None;
        for (key, message) in messages {
            evals += 1;
            let peek = match WireHeader::peek(message) {
                Ok(peek) if peek.fingerprint == self.fingerprint => peek,
                _ => {
                    errors += 1;
                    continue;
                }
            };
            if run
                .as_ref()
                .is_none_or(|(descriptor, _)| *descriptor != peek.descriptor)
            {
                run = Some((peek.descriptor, self.program_for(peek.descriptor).ok()));
            }
            let Some((_, Some(program))) = &run else {
                errors += 1;
                continue;
            };
            if program.eval(&message[peek.header_len..]) {
                matches += 1;
                out.push(key);
            }
        }
        for (counter, n) in [
            (&self.evals, evals),
            (&self.matches, matches),
            (&self.errors, errors),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// [`select`](Self::select) over one message: whether it matches.
    pub fn matches_message(&self, message: &[u8]) -> bool {
        // A `Vec<()>` never allocates.
        let mut hit = Vec::new();
        self.select([((), message)], &mut hit);
        !hit.is_empty()
    }

    /// The naive decode-then-eval reference oracle: evaluates the
    /// typechecked expression over an eagerly decoded [`clayout::Record`].
    /// Differential tests pin [`Self::matches_message`] against this
    /// across formats × architectures × expressions. Missing fields and
    /// class mismatches fail closed, mirroring the compiled path.
    pub fn eval_record(&self, record: &clayout::Record) -> bool {
        eval_record(&self.typed, &self.struct_type, record)
    }
}

fn eval_record(expr: &TExpr, st: &StructType, record: &clayout::Record) -> bool {
    match expr {
        TExpr::And(l, r) => eval_record(l, st, record) && eval_record(r, st, record),
        TExpr::Or(l, r) => eval_record(l, st, record) || eval_record(r, st, record),
        TExpr::Not(inner) => !eval_record(inner, st, record),
        TExpr::Int { field, op, rhs } => match record.get(&st.fields[*field].name) {
            Some(Value::Int(v)) => cmp_ord(*v, *rhs, *op),
            _ => false,
        },
        TExpr::UInt { field, op, rhs } => match record.get(&st.fields[*field].name) {
            Some(Value::UInt(v)) => cmp_ord(*v, *rhs, *op),
            _ => false,
        },
        TExpr::Float { field, op, rhs } => match record.get(&st.fields[*field].name) {
            Some(Value::Float(v)) => cmp_float(*v, *rhs, *op),
            _ => false,
        },
        TExpr::Str { field, op, rhs } => match record.get(&st.fields[*field].name) {
            Some(Value::String(s)) => match op {
                StrOp::Eq => s == rhs,
                StrOp::Ne => s != rhs,
                StrOp::Prefix => s.starts_with(rhs.as_str()),
            },
            _ => false,
        },
        TExpr::InInt { field, set } => match record.get(&st.fields[*field].name) {
            Some(Value::Int(v)) => set.contains(v),
            _ => false,
        },
        TExpr::InUInt { field, set } => match record.get(&st.fields[*field].name) {
            Some(Value::UInt(v)) => set.contains(v),
            _ => false,
        },
        TExpr::InFloat { field, set } => match record.get(&st.fields[*field].name) {
            Some(Value::Float(v)) => set.iter().any(|x| x == v),
            _ => false,
        },
        TExpr::InStr { field, set } => match record.get(&st.fields[*field].name) {
            Some(Value::String(s)) => set.iter().any(|x| x == s),
            _ => false,
        },
        TExpr::BetweenInt { field, lo, hi } => match record.get(&st.fields[*field].name) {
            Some(Value::Int(v)) => *lo <= *v && *v <= *hi,
            _ => false,
        },
        TExpr::BetweenUInt { field, lo, hi } => match record.get(&st.fields[*field].name) {
            Some(Value::UInt(v)) => *lo <= *v && *v <= *hi,
            _ => false,
        },
        TExpr::BetweenFloat { field, lo, hi } => match record.get(&st.fields[*field].name) {
            Some(Value::Float(v)) => *v >= *lo && *v <= *hi,
            _ => false,
        },
    }
}

// ---------------------------------------------------------------------------
// FilterCache
// ---------------------------------------------------------------------------

/// A cache of compiled filters, a [`Memo`] keyed by
/// `(struct fingerprint, normalized expression)`. Subscribers that pass
/// equivalent predicates against the same format share one
/// [`StreamFilter`] — the dedup that makes predicate-indexed fanout
/// evaluate each unique program once per event. Building a filter
/// forgets those only the cache still holds, so predicates compiled and
/// dropped (a federation peer's among them) do not pile up.
#[derive(Debug, Default)]
pub struct FilterCache {
    filters: Memo<(u64, String), StreamFilter>,
}

impl FilterCache {
    /// Creates an empty cache.
    pub fn new() -> FilterCache {
        FilterCache::default()
    }

    /// Returns the shared compiled filter for `(st, expr)`, compiling
    /// and caching it on first sight.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamFilter::compile`] failures; only successful
    /// compilations are cached.
    pub fn get_or_compile(
        &self,
        st: &StructType,
        expr: &str,
    ) -> Result<Arc<StreamFilter>, FilterError> {
        // Parse first: the cache key needs the canonical form, and the
        // parse also enforces the length/depth limits before any lock.
        let ast = parse(expr)?;
        let mut normalized = String::new();
        render(&ast, &mut normalized);
        let key = (pbio::format::struct_fingerprint(st), normalized);
        let mut built = false;
        let filter = self.filters.get_or_build(key, || {
            built = true;
            StreamFilter::compile(expr, st)
        })?;
        if built {
            // Forget the filters no subscriber or forwarder holds any more.
            self.filters.retain(|filter| Arc::strong_count(filter) > 1);
        }
        Ok(filter)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        self.filters.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::{Primitive, StructField};
    use pbio::format::{Format, FormatId};

    impl FilterProgram {
        /// Number of ops in the program.
        fn len(&self) -> usize {
            self.ops.len()
        }
    }

    fn ticks() -> StructType {
        StructType::new(
            "Tick",
            vec![
                StructField::new("price", CType::Prim(Primitive::Long)),
                StructField::new("qty", CType::Prim(Primitive::UInt)),
                StructField::new("weight", CType::Prim(Primitive::Double)),
                StructField::new("dest", CType::String),
            ],
        )
    }

    fn encode(
        price: i64,
        qty: u64,
        weight: f64,
        dest: &str,
        arch: Architecture,
    ) -> Vec<u8> {
        let mut record = clayout::Record::new();
        record.set("price", Value::Int(price));
        record.set("qty", Value::UInt(qty));
        record.set("weight", Value::Float(weight));
        record.set("dest", Value::String(dest.to_owned()));
        let format = Format::new(FormatId(7), ticks(), arch).unwrap();
        pbio::ndr::encode(&record, &format).unwrap()
    }

    fn filter(expr: &str) -> StreamFilter {
        StreamFilter::compile(expr, &ticks()).expect("compile")
    }

    #[test]
    fn scalar_string_and_logic_verdicts() {
        let f = filter("price > 100 && dest == \"ATL\"");
        assert!(f.matches_message(&encode(150, 1, 0.0, "ATL", Architecture::host())));
        assert!(!f.matches_message(&encode(150, 1, 0.0, "BOS", Architecture::host())));
        assert!(!f.matches_message(&encode(50, 1, 0.0, "ATL", Architecture::host())));
        let stats = f.stats();
        assert_eq!(stats.evals, 3);
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn verdicts_are_arch_independent() {
        let f = filter("(price <= -5 || weight >= 2.5) && !(dest ^= \"B\")");
        for arch in Architecture::ALL {
            for (price, weight, dest, want) in [
                (-10, 0.0, "ATL", true),
                (-10, 0.0, "BOS", false),
                (0, 3.0, "ATL", true),
                (0, 1.0, "ATL", false),
            ] {
                let msg = encode(price, 7, weight, dest, arch);
                assert_eq!(f.matches_message(&msg), want, "{arch} {price} {weight} {dest}");
            }
        }
    }

    #[test]
    fn unsigned_and_prefix_ops() {
        let f = filter("qty >= 3 && dest ^= \"AT\"");
        assert!(f.matches_message(&encode(0, 3, 0.0, "ATL", Architecture::host())));
        assert!(!f.matches_message(&encode(0, 2, 0.0, "ATL", Architecture::host())));
        assert!(!f.matches_message(&encode(0, 3, 0.0, "A", Architecture::host())));
    }

    #[test]
    fn normalization_dedups_equivalent_spellings() {
        let cache = FilterCache::new();
        let st = ticks();
        let a = cache.get_or_compile(&st, "price > 100 && dest == \"ATL\"").unwrap();
        let b = cache.get_or_compile(&st, "((price>100)&&(dest==\"ATL\"))").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "equivalent spellings must share a filter");
        let c = cache.get_or_compile(&st, "price > 101 && dest == \"ATL\"").unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.built, stats.resident), (1, 2, 2, 2));
    }

    #[test]
    fn the_cache_forgets_predicates_only_it_holds() {
        let cache = FilterCache::new();
        let st = ticks();
        let live = cache.get_or_compile(&st, "price > -1").unwrap();
        for threshold in 0..1000 {
            drop(cache.get_or_compile(&st, &format!("price > {threshold}")).unwrap());
        }
        let stats = cache.stats();
        assert!(stats.resident <= 2, "{stats:?}");
        assert!(Arc::ptr_eq(&live, &cache.get_or_compile(&st, "price>-1").unwrap()));
    }

    #[test]
    fn forged_descriptors_share_their_layouts_program() {
        // 1 020 distinct descriptors, every one of them SPARC32's layout.
        let f = filter("price > 100 && dest ^= \"AT\"");
        let sparc = Architecture::SPARC32;
        let samples = [(150, "ATL", true), (50, "ATL", false), (150, "BOS", false)]
            .map(|(price, dest, want)| (encode(price, 1, 0.0, dest, sparc), want));
        let mut sent = 0;
        for first in 1..=255u8 {
            for last in 4..=7u8 {
                let (message, want) = &samples[sent % samples.len()];
                let mut message = message.clone();
                (message[8], message[13]) = (first, last);
                let descriptor: [u8; 6] = message[8..14].try_into().unwrap();
                let layout = Architecture::from_descriptor(descriptor);
                assert_eq!(layout.descriptor(), sparc.descriptor());
                assert_eq!(f.matches_message(&message), *want, "{descriptor:?}");
                sent += 1;
            }
        }
        assert_eq!(sent, 1020);
        assert_eq!(f.programs.stats().resident, 1, "one layout, one program");
        assert_eq!(f.stats().errors, 0);
    }

    #[test]
    fn wrong_fingerprint_fails_closed() {
        let f = filter("price > 0");
        let other = StructType::new(
            "Other",
            vec![StructField::new("price", CType::Prim(Primitive::Long))],
        );
        let mut record = clayout::Record::new();
        record.set("price", Value::Int(5));
        let format = Format::new(FormatId(9), other, Architecture::host()).unwrap();
        let msg = pbio::ndr::encode(&record, &format).unwrap();
        assert!(!f.matches_message(&msg));
        assert_eq!(f.stats().errors, 1);
    }

    #[test]
    fn garbage_messages_fail_closed_not_loud() {
        let f = filter("price > 0");
        assert!(!f.matches_message(b""));
        assert!(!f.matches_message(b"XY"));
        assert!(!f.matches_message(&[0u8; 64]));
        let mut msg = encode(5, 1, 0.0, "ATL", Architecture::host());
        msg.truncate(40);
        assert!(!f.matches_message(&msg));
    }

    #[test]
    fn short_circuit_skips_rhs() {
        // `dest == "ATL" || price > 0` on a message whose dest matches:
        // the program must exit through the JmpTrue without evaluating
        // the price comparison. Observable via op count only, so assert
        // the program shape: Str, JmpTrue, CmpI.
        let f = filter("dest == \"ATL\" || price > 0");
        let host = Architecture::host();
        let program = f.program_for(host.descriptor()).unwrap();
        assert_eq!(program.len(), 3);
        assert!(f.matches_message(&encode(-1, 1, 0.0, "ATL", host)));
    }

    #[test]
    fn in_and_between_compile_to_single_ops() {
        let host = Architecture::host();
        for expr in [
            "price IN (1, 2, 3)",
            "qty IN (1, 2)",
            "weight IN (0.5, 1.5)",
            "dest IN (\"ATL\", \"BOS\")",
            "price BETWEEN -5 AND 5",
            "qty BETWEEN 1 AND 4",
            "weight BETWEEN 0.0 AND 1.0",
        ] {
            let f = filter(expr);
            let program = f.program_for(host.descriptor()).unwrap();
            assert_eq!(program.len(), 1, "{expr} must be one op, got {}", program.len());
        }
    }

    #[test]
    fn in_and_between_verdicts() {
        let host = Architecture::host();
        let f = filter("price IN (100, 200) && weight BETWEEN 1.0 AND 2.0");
        assert!(f.matches_message(&encode(100, 1, 1.0, "ATL", host)));
        assert!(f.matches_message(&encode(200, 1, 2.0, "ATL", host)));
        assert!(!f.matches_message(&encode(150, 1, 1.5, "ATL", host)));
        assert!(!f.matches_message(&encode(100, 1, 2.5, "ATL", host)));
        let g = filter("dest IN (\"ATL\", \"BOS\")");
        assert!(g.matches_message(&encode(0, 0, 0.0, "BOS", host)));
        assert!(!g.matches_message(&encode(0, 0, 0.0, "LAX", host)));
    }

    #[test]
    fn in_and_between_type_errors() {
        let st = ticks();
        assert!(matches!(
            StreamFilter::compile("dest BETWEEN \"A\" AND \"B\"", &st),
            Err(FilterError::TypeMismatch { .. })
        ));
        assert!(matches!(
            StreamFilter::compile("price IN (1, \"x\")", &st),
            Err(FilterError::TypeMismatch { .. })
        ));
        assert!(matches!(
            StreamFilter::compile("qty IN (1, -2)", &st),
            Err(FilterError::TypeMismatch { .. })
        ));
        assert!(matches!(
            StreamFilter::compile("price IN ()", &st),
            Err(FilterError::Parse { .. })
        ));
        assert!(matches!(
            StreamFilter::compile("price BETWEEN 1 2", &st),
            Err(FilterError::Parse { .. })
        ));
    }

    #[test]
    fn in_normalization_dedups_spellings() {
        let cache = FilterCache::new();
        let st = ticks();
        let a = cache.get_or_compile(&st, "price IN (1, 2)").unwrap();
        let b = cache.get_or_compile(&st, "price IN ( 1 ,2 )").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "equivalent IN spellings must share a filter");
    }

    #[test]
    fn compiled_matches_oracle_on_the_matrix() {
        let exprs = [
            "price > 100",
            "price != -3",
            "qty <= 9",
            "weight < 1.25",
            "dest == \"\"",
            "dest ^= \"AT\"",
            "!(price >= 0) || (qty == 4 && dest != \"X\")",
            "price IN (-3, 100, 150)",
            "qty IN (0, 10)",
            "weight IN (1.25, -2.0)",
            "dest IN (\"ATL\", \"X\", \"\")",
            "price BETWEEN 0 AND 120",
            "qty BETWEEN 4 AND 9",
            "weight BETWEEN -2.0 AND 1.0",
            "price IN (150) || (qty BETWEEN 9 AND 10 && !(dest IN (\"ATLANTA\")))",
        ];
        let cases = [
            (150i64, 4u64, 1.0f64, "ATL"),
            (-3, 9, 1.25, "X"),
            (0, 0, -2.0, ""),
            (100, 10, 100.0, "ATLANTA"),
        ];
        for expr in exprs {
            let f = filter(expr);
            for arch in Architecture::ALL {
                for (price, qty, weight, dest) in cases {
                    let msg = encode(price, qty, weight, dest, arch);
                    let format = Format::new(FormatId(7), ticks(), arch).unwrap();
                    let record = pbio::ndr::decode_with(&msg, &format).unwrap();
                    assert_eq!(
                        f.matches_message(&msg),
                        f.eval_record(&record),
                        "{expr} on {arch} {price} {qty} {weight} {dest}"
                    );
                }
            }
        }
    }
}
