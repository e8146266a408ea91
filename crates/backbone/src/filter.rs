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
//! short-circuit jumps. Every leaf is one `(field, Test)`: typecheck
//! coerces the literals once to the field's class. Compilation turns a
//! set of predicates into one slot table of the distinct loads they
//! make (offset and [`ScalarCode`] from the sender's layout, which the
//! encoder and the view use) and each leaf into a test specialised to
//! its field's class, a same-field `>=`/`<` pair folded into one range
//! test; the decode-side oracle runs the unspecialised `Test` instead.
//! A [`StreamFilter`] holds its own program as a set of one per sender
//! layout; a [`FilterSet`] compiles a stream's unique filters together,
//! so each message's header is peeked once and each field loaded at
//! most once. Filters are shared across subscribers through the
//! [`FilterCache`], a [`Memo`] keyed by `(struct fingerprint, normalized
//! expression)` with hit/miss stats.
//!
//! Evaluation is fail-closed: a payload whose header does not parse,
//! whose fingerprint disagrees with the filter's struct type, or whose
//! string pointers are malformed simply does not match (and bumps an
//! error counter) — a filtering broker must never panic or allocate on
//! attacker-supplied bytes.

use std::cmp::Ordering as Order;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clayout::{Access, Architecture, CType, Layout, Scalar, ScalarCode, StructType, Value};
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
            FilterError::TypeMismatch {
                field,
                expected,
                found,
            } => {
                write!(f, "filter field `{field}` expects {expected}, got {found}")
            }
            FilterError::Unsupported { field, detail } => {
                write!(f, "filter cannot use field `{field}`: {detail}")
            }
            FilterError::HiddenField { field, scope } => {
                write!(
                    f,
                    "filter references field `{field}` hidden by scope `{scope}`"
                )
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

    /// Whether a value ordered `ord` against the key passes. `None` is
    /// unordered (a NaN): IEEE makes every comparison false but `!=`.
    fn holds(self, ord: Option<Order>) -> bool {
        let Some(ord) = ord else {
            return self == CmpOp::Ne;
        };
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
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
    FilterError::Parse {
        at,
        detail: detail.into(),
    }
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, FilterError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let b = bytes[at];
        let then = |c: u8| bytes.get(at + 1) == Some(&c);
        let (tok, len) = match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                at += 1;
                continue;
            }
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b',' => (Tok::Comma, 1),
            b'&' if then(b'&') => (Tok::AndAnd, 2),
            b'|' if then(b'|') => (Tok::OrOr, 2),
            b'!' if then(b'=') => (Tok::Cmp(CmpOp::Ne), 2),
            b'!' => (Tok::Bang, 1),
            b'=' if then(b'=') => (Tok::Cmp(CmpOp::Eq), 2),
            b'^' if then(b'=') => (Tok::PrefixEq, 2),
            b'<' if then(b'=') => (Tok::Cmp(CmpOp::Le), 2),
            b'<' => (Tok::Cmp(CmpOp::Lt), 1),
            b'>' if then(b'=') => (Tok::Cmp(CmpOp::Ge), 2),
            b'>' => (Tok::Cmp(CmpOp::Gt), 1),
            b'&' => return Err(err(at, "expected `&&`")),
            b'|' => return Err(err(at, "expected `||`")),
            b'=' => return Err(err(at, "expected `==` (assignment is not an operator)")),
            b'^' => return Err(err(at, "expected `^=`")),
            b'"' => {
                let (lit, next) = lex_string(src, at)?;
                (Tok::Lit(Lit::Str(lit)), next - at)
            }
            b'-' | b'0'..=b'9' => {
                let (lit, next) = lex_number(src, at)?;
                (Tok::Lit(lit), next - at)
            }
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                let name = bytes[at..]
                    .iter()
                    .take_while(|c| **c == b'_' || **c == b'.' || c.is_ascii_alphanumeric());
                let len = name.count();
                (Tok::Ident(src[at..at + len].to_owned()), len)
            }
            _ => return Err(err(at, format!("unexpected byte 0x{b:02x}"))),
        };
        toks.push((at, tok));
        at += len;
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
    Err(err(
        start,
        format!("integer literal `{text}` overflows 64 bits"),
    ))
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    /// One field tested against literals as written.
    Leaf(String, Form),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
}

/// What a leaf asks of its field, before typecheck: the source's
/// literals, not yet coerced to the field's class.
#[derive(Debug, Clone, PartialEq)]
enum Form {
    Cmp(CmpOp, Lit),
    /// `^=`: the field starts with the string.
    Prefix(String),
    /// `field IN (a, b, c)` — set membership in one op.
    In(Vec<Lit>),
    /// `field BETWEEN lo AND hi` — inclusive range in one op.
    Between(Lit, Lit),
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

    /// The next token as a literal; anything else is a parse error
    /// saying what was expected.
    fn lit(&mut self, expected: &str) -> Result<Lit, FilterError> {
        let at = self.at();
        match self.bump() {
            Some(Tok::Lit(lit)) => Ok(lit),
            _ => Err(err(at, expected)),
        }
    }

    fn parse_or(&mut self, depth: usize) -> Result<Expr, FilterError> {
        let mut lhs = self.parse_and(depth)?;
        while matches!(self.peek(), Some(Tok::OrOr)) {
            self.bump();
            let rhs = self.parse_and(depth)?;
            lhs = Expr::Or(lhs.into(), rhs.into());
        }
        Ok(lhs)
    }

    fn parse_and(&mut self, depth: usize) -> Result<Expr, FilterError> {
        let mut lhs = self.parse_unary(depth)?;
        while matches!(self.peek(), Some(Tok::AndAnd)) {
            self.bump();
            let rhs = self.parse_unary(depth)?;
            lhs = Expr::And(lhs.into(), rhs.into());
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self, depth: usize) -> Result<Expr, FilterError> {
        if depth >= MAX_EXPR_DEPTH {
            return Err(FilterError::TooDeep {
                max: MAX_EXPR_DEPTH,
            });
        }
        match self.peek() {
            Some(Tok::Bang) => {
                self.bump();
                Ok(Expr::Not(self.parse_unary(depth + 1)?.into()))
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
        let lit = self.lit("expected a literal after the operator")?;
        match op {
            Some(Tok::Cmp(op)) => Ok(Expr::Leaf(field, Form::Cmp(op, lit))),
            Some(Tok::PrefixEq) => match lit {
                Lit::Str(s) => Ok(Expr::Leaf(field, Form::Prefix(s))),
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
            items.push(self.lit("expected a literal in the `IN` list")?);
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                _ => return Err(err(self.at(), "expected `,` or `)` in the `IN` list")),
            }
        }
        Ok(Expr::Leaf(field, Form::In(items)))
    }

    fn parse_between(&mut self, field: String) -> Result<Expr, FilterError> {
        let lo = self.lit("expected a literal after `BETWEEN`")?;
        match self.bump() {
            Some(Tok::Ident(kw)) if kw == "AND" => {}
            _ => {
                return Err(err(
                    self.at(),
                    "expected `AND` between the `BETWEEN` bounds",
                ))
            }
        }
        let hi = self.lit("expected a literal after `AND`")?;
        Ok(Expr::Leaf(field, Form::Between(lo, hi)))
    }
}

fn parse(src: &str) -> Result<Expr, FilterError> {
    if src.len() > MAX_EXPR_LEN {
        return Err(FilterError::TooLong {
            len: src.len(),
            max: MAX_EXPR_LEN,
        });
    }
    let toks = lex(src)?;
    if toks.is_empty() {
        return Err(err(0, "empty filter expression"));
    }
    let mut parser = Parser {
        toks,
        pos: 0,
        end: src.len(),
    };
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
        Expr::Leaf(field, form) => {
            out.push_str(field);
            match form {
                Form::Cmp(op, lit) => {
                    out.push(' ');
                    out.push_str(op.render());
                    out.push(' ');
                    render_lit(lit, out);
                }
                Form::Prefix(s) => {
                    out.push_str(" ^= ");
                    render_str(s, out);
                }
                Form::In(items) => {
                    out.push_str(" IN (");
                    for (i, lit) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        render_lit(lit, out);
                    }
                    out.push(')');
                }
                Form::Between(lo, hi) => {
                    out.push_str(" BETWEEN ");
                    render_lit(lo, out);
                    out.push_str(" AND ");
                    render_lit(hi, out);
                }
            }
        }
        Expr::And(l, r) | Expr::Or(l, r) => {
            out.push('(');
            render(l, out);
            out.push_str(if matches!(expr, Expr::And(..)) {
                " && "
            } else {
                " || "
            });
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
        Lit::Str(s) => render_str(s, out),
    }
}

fn render_str(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// Typecheck
// ---------------------------------------------------------------------------

/// The value class of a filterable field, which its literals are
/// coerced to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Int,
    UInt,
    Float,
    Str,
}

/// A literal coerced once to its field's class.
#[derive(Debug, Clone)]
enum Key {
    Num(Scalar),
    Str(Box<[u8]>),
}

/// What a leaf asks of its field's value.
#[derive(Debug, Clone)]
enum Test {
    Cmp(CmpOp, Key),
    /// The string field starts with these bytes.
    Prefix(Box<[u8]>),
    /// Set membership: one load, one scan over the keys (the sets are
    /// tiny — written out by hand in a predicate).
    In(Box<[Key]>),
    /// Inclusive range: one load, two compares.
    Between(Key, Key),
}

/// A field's value as a [`Test`] sees it: a scalar, or a string's bytes.
#[derive(Debug, Clone, Copy)]
enum Field<'a> {
    Num(Scalar),
    Str(&'a [u8]),
}

/// How `value` orders against `key`: `None` when unordered (a NaN, or
/// a key of another class, which typecheck never produces).
fn order(value: Field<'_>, key: &Key) -> Option<Order> {
    match (value, key) {
        (Field::Num(Scalar::Int(v)), Key::Num(Scalar::Int(k))) => Some(v.cmp(k)),
        (Field::Num(Scalar::UInt(v)), Key::Num(Scalar::UInt(k))) => Some(v.cmp(k)),
        (Field::Num(Scalar::Float(v)), Key::Num(Scalar::Float(k))) => v.partial_cmp(k),
        (Field::Str(v), Key::Str(k)) => Some(v.cmp(k)),
        _ => None,
    }
}

impl Test {
    /// Whether `value` passes — the one test behind the wire program
    /// and the [`StreamFilter::eval_record`] oracle. IEEE throughout:
    /// a NaN is in no set or range and `-0.0` equals `0.0`.
    fn holds(&self, value: Field<'_>) -> bool {
        match self {
            Test::Cmp(op, key) => op.holds(order(value, key)),
            Test::Prefix(prefix) => matches!(value, Field::Str(s) if s.starts_with(prefix)),
            Test::In(keys) => keys
                .iter()
                .any(|key| order(value, key) == Some(Order::Equal)),
            Test::Between(lo, hi) => {
                order(value, lo).is_some_and(Order::is_ge)
                    && order(value, hi).is_some_and(Order::is_le)
            }
        }
    }
}

/// A typechecked expression: fields resolved to indices in the struct
/// type, literals coerced to the field's value class. Architecture
/// independent — per-arch offsets are bound at [`compile`] time.
#[derive(Debug, Clone)]
enum TExpr {
    Leaf { field: usize, test: Test },
    And(Box<TExpr>, Box<TExpr>),
    Or(Box<TExpr>, Box<TExpr>),
    Not(Box<TExpr>),
}

fn typecheck(expr: &Expr, st: &StructType) -> Result<TExpr, FilterError> {
    let sub = |e: &Expr| typecheck(e, st).map(Box::new);
    match expr {
        Expr::And(l, r) => Ok(TExpr::And(sub(l)?, sub(r)?)),
        Expr::Or(l, r) => Ok(TExpr::Or(sub(l)?, sub(r)?)),
        Expr::Not(inner) => Ok(TExpr::Not(sub(inner)?)),
        Expr::Leaf(field, form) => typecheck_leaf(field, form, st),
    }
}

/// Resolves the field, refuses the kinds no test applies to, and
/// coerces every literal to the field's class.
fn typecheck_leaf(name: &str, form: &Form, st: &StructType) -> Result<TExpr, FilterError> {
    let field = st
        .field_index(name)
        .ok_or_else(|| FilterError::UnknownField {
            field: name.to_owned(),
        })?;
    let ty = &st.fields[field].ty;
    let mismatch = |expected: &'static str, found: &str| FilterError::TypeMismatch {
        field: name.to_owned(),
        expected,
        found: found.to_owned(),
    };
    let class = class_of(ty);
    if matches!(form, Form::Prefix(_)) && class != Ok(Class::Str) {
        return Err(mismatch("`^=` works on string fields only", type_label(ty)));
    }
    let class = class.map_err(|detail| FilterError::Unsupported {
        field: name.to_owned(),
        detail: detail.to_owned(),
    })?;
    let key =
        |lit: &Lit| coerce(lit, class).map_err(|expected| mismatch(expected, lit.type_name()));
    let test = match form {
        Form::Prefix(s) => Test::Prefix(s.as_bytes().into()),
        Form::Cmp(op, lit) => {
            let key = key(lit)?;
            if class == Class::Str && !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                return Err(mismatch(
                    "`==`, `!=` or `^=` (strings have no ordering on the wire)",
                    op.render(),
                ));
            }
            Test::Cmp(*op, key)
        }
        Form::In(items) => Test::In(items.iter().map(key).collect::<Result<_, _>>()?),
        Form::Between(..) if class == Class::Str => {
            return Err(mismatch(
                "`IN` for string sets (strings have no ordering on the wire)",
                "BETWEEN",
            ))
        }
        Form::Between(lo, hi) => Test::Between(key(lo)?, key(hi)?),
    };
    Ok(TExpr::Leaf { field, test })
}

/// The class of a field's values, or why the field cannot be tested.
fn class_of(ty: &CType) -> Result<Class, &'static str> {
    match ty {
        CType::Prim(p) if p.is_float() => Ok(Class::Float),
        CType::Prim(p) if p.is_signed_integer() => Ok(Class::Int),
        CType::Prim(_) => Ok(Class::UInt),
        CType::String => Ok(Class::Str),
        CType::Array { .. } => Err("array fields cannot be filtered on"),
        CType::Struct(_) => Err("nested struct fields cannot be filtered on"),
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

/// Coerces one literal to `class`: the accept/refuse rules every test
/// shares, so `IN`/`BETWEEN` take exactly the literals a chain of
/// `==`/`<=` comparisons would. A refusal names what the class expects.
fn coerce(lit: &Lit, class: Class) -> Result<Key, &'static str> {
    let num = |v| Ok(Key::Num(v));
    match (class, lit) {
        (Class::Int, Lit::Int(v)) => num(Scalar::Int(*v)),
        (Class::Int, Lit::UInt(_)) => Err("an integer literal in i64 range"),
        (Class::UInt, Lit::Int(v)) if *v >= 0 => num(Scalar::UInt(*v as u64)),
        (Class::UInt, Lit::UInt(v)) => num(Scalar::UInt(*v)),
        (Class::UInt, Lit::Int(_)) => Err("a non-negative integer literal"),
        (Class::Int | Class::UInt, _) => Err("an integer literal"),
        (Class::Float, Lit::Int(v)) => num(Scalar::Float(*v as f64)),
        (Class::Float, Lit::UInt(v)) => num(Scalar::Float(*v as f64)),
        (Class::Float, Lit::Float(v)) => num(Scalar::Float(*v)),
        (Class::Float, Lit::Str(_)) => Err("a numeric literal"),
        (Class::Str, Lit::Str(s)) => Ok(Key::Str(s.as_bytes().into())),
        (Class::Str, _) => Err("a string literal"),
    }
}

fn collect_fields(expr: &TExpr, st: &StructType, out: &mut Vec<String>) {
    match expr {
        TExpr::Leaf { field, .. } => {
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

/// One distinct load of a compiled set: where a field sits on the
/// sender's layout and how it loads — its number's code, or for a string
/// its pointer's, which evaluation follows to the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    at: u32,
    load: ScalarCode,
    string: bool,
}

/// A numeric test specialised to its field's value class.
#[derive(Debug, Clone)]
enum Num<T> {
    Cmp(CmpOp, T),
    /// A lower and an upper bound that must both hold: `BETWEEN`, and a
    /// folded `x >= lo && x < hi`.
    Range((CmpOp, T), (CmpOp, T)),
    In(Box<[T]>),
}

impl<T: Copy + PartialOrd> Num<T> {
    /// The test for `test`, each key taken out of its class by `key`.
    fn of(test: &Test, key: impl Fn(&Key) -> T) -> Num<T> {
        match test {
            Test::Cmp(op, k) => Num::Cmp(*op, key(k)),
            Test::In(keys) => Num::In(keys.iter().map(key).collect()),
            Test::Between(lo, hi) => Num::Range((CmpOp::Ge, key(lo)), (CmpOp::Le, key(hi))),
            Test::Prefix(_) => unreachable!("typecheck admits `^=` on strings only"),
        }
    }

    /// [`Test::holds`] for a value of this class: IEEE for floats.
    #[inline(always)]
    fn holds(&self, v: T) -> bool {
        match self {
            Num::Cmp(op, k) => op.holds(v.partial_cmp(k)),
            Num::Range((lo_op, lo), (hi_op, hi)) => {
                lo_op.holds(v.partial_cmp(lo)) && hi_op.holds(v.partial_cmp(hi))
            }
            Num::In(keys) => keys.contains(&v),
        }
    }
}

/// A string test.
#[derive(Debug, Clone)]
enum Text {
    Eq(Box<[u8]>),
    Ne(Box<[u8]>),
    Prefix(Box<[u8]>),
    In(Box<[Box<[u8]>]>),
}

impl Text {
    #[inline(always)]
    fn holds(&self, s: &[u8]) -> bool {
        match self {
            Text::Eq(k) => s == &**k,
            Text::Ne(k) => s != &**k,
            Text::Prefix(k) => s.starts_with(k),
            Text::In(keys) => keys.iter().any(|k| s == &**k),
        }
    }
}

/// A leaf's test, specialised at compile time by the field's class.
#[derive(Debug, Clone)]
enum Check {
    Int(Num<i64>),
    UInt(Num<u64>),
    Float(Num<f64>),
    Str(Text),
}

impl Check {
    fn of(test: &Test, class: Class) -> Check {
        fn mismatch<T>() -> T {
            unreachable!("typecheck coerces every key to its field's class")
        }
        match class {
            Class::Int => Check::Int(Num::of(test, |k| match k {
                Key::Num(Scalar::Int(v)) => *v,
                _ => mismatch(),
            })),
            Class::UInt => Check::UInt(Num::of(test, |k| match k {
                Key::Num(Scalar::UInt(v)) => *v,
                _ => mismatch(),
            })),
            Class::Float => Check::Float(Num::of(test, |k| match k {
                Key::Num(Scalar::Float(v)) => *v,
                _ => mismatch(),
            })),
            Class::Str => {
                let bytes = |k: &Key| match k {
                    Key::Str(s) => s.clone(),
                    Key::Num(_) => mismatch(),
                };
                Check::Str(match test {
                    Test::Cmp(CmpOp::Eq, k) => Text::Eq(bytes(k)),
                    Test::Cmp(_, k) => Text::Ne(bytes(k)),
                    Test::Prefix(s) => Text::Prefix(s.clone()),
                    Test::In(keys) => Text::In(keys.iter().map(bytes).collect()),
                    Test::Between(..) => mismatch(),
                })
            }
        }
    }
}

/// One op of a compiled program. A test reads its slot and writes the
/// boolean accumulator; jumps give `&&`/`||` short-circuit without a
/// value stack.
#[derive(Debug, Clone)]
enum Op {
    Test {
        slot: u32,
        check: Check,
    },
    Not,
    /// Jump to the op at the index when the accumulator is false.
    JmpFalse(u32),
    /// Jump to the op at the index when the accumulator is true.
    JmpTrue(u32),
}

/// A slot's value in the message being evaluated.
#[derive(Debug, Clone, Copy)]
enum Loaded {
    /// Not read yet.
    No,
    Num(Scalar),
    /// A string's bytes: `image[start..end]`.
    Str(usize, usize),
    /// A string pointer out of bounds, unterminated or to non-UTF-8.
    Bad,
}

/// Predicates compiled against one sender layout: the distinct loads
/// they make, and every program's ops over those slots. A filter's own
/// programs are a set of one; a [`FilterSet`] compiles a stream's unique
/// filters into one.
#[derive(Debug)]
struct Compiled {
    /// The loads, those more than one test reads first.
    slots: Box<[Slot]>,
    /// How many slots more than one test reads: a [`FilterSet`] keeps
    /// their values for the message; every other load is made where it
    /// is tested.
    cached: usize,
    ops: Box<[Op]>,
    /// Where each program's ops end: program `p` runs `ops[ends[p - 1]..ends[p]]`.
    ends: Box<[u32]>,
    /// The fixed-part size on this layout; shorter payloads match
    /// nothing, which makes every scalar load in-bounds by construction.
    min_len: usize,
}

impl Compiled {
    /// Evaluates every program against a bare NDR payload image (header
    /// already stripped) and calls `hit` with the index of each that
    /// matches. Loads a slot only when a program reaches it: a slot kept
    /// in `cache` (those below `cached` that it has room for) at most
    /// once, any other where it is tested; zero allocations. Fail-closed:
    /// a truncated image matches nothing, and a bad string fails exactly
    /// the programs that reach it.
    #[inline(always)]
    fn eval(&self, image: &[u8], cache: &mut [Loaded], mut hit: impl FnMut(usize)) {
        if image.len() < self.min_len {
            return;
        }
        let kept = self.cached.min(cache.len());
        let cache = &mut cache[..kept];
        cache.fill(Loaded::No);
        let mut pc = 0usize;
        for (p, &end) in self.ends.iter().enumerate() {
            let end = end as usize;
            let mut acc = false;
            while pc < end {
                match &self.ops[pc] {
                    Op::Test { slot, check } => {
                        let slot = *slot as usize;
                        let value = match cache.get(slot) {
                            Some(Loaded::No) => {
                                cache[slot] = self.load(slot, image);
                                cache[slot]
                            }
                            Some(value) => *value,
                            None => self.load(slot, image),
                        };
                        acc = match (check, value) {
                            (Check::Int(t), Loaded::Num(Scalar::Int(v))) => t.holds(v),
                            (Check::UInt(t), Loaded::Num(Scalar::UInt(v))) => t.holds(v),
                            (Check::Float(t), Loaded::Num(Scalar::Float(v))) => t.holds(v),
                            (Check::Str(t), Loaded::Str(from, to)) => t.holds(&image[from..to]),
                            // A bad string: the reference decoder errors
                            // here, so this program's verdict is a
                            // fail-closed non-match.
                            _ => {
                                acc = false;
                                break;
                            }
                        };
                    }
                    Op::Not => acc = !acc,
                    Op::JmpFalse(to) => {
                        if !acc {
                            pc = *to as usize;
                            continue;
                        }
                    }
                    Op::JmpTrue(to) => {
                        if acc {
                            pc = *to as usize;
                            continue;
                        }
                    }
                }
                pc += 1;
            }
            if acc {
                hit(p);
            }
            pc = end;
        }
    }

    /// Reads slot `slot` of `image` (at least `min_len` bytes long).
    #[inline(always)]
    fn load(&self, slot: usize, image: &[u8]) -> Loaded {
        let Slot { at, load, string } = self.slots[slot];
        match load.read(image, at as usize) {
            Scalar::UInt(target) if string => match str_range(image, target) {
                Some((start, end)) => Loaded::Str(start, end),
                None => Loaded::Bad,
            },
            scalar => Loaded::Num(scalar),
        }
    }
}

/// Where the NUL-terminated string at swizzled pointer `target` lies,
/// mirroring `RecordView`'s `str_at`: 0 is the null pointer (empty
/// string); anything out of bounds, unterminated or non-UTF-8 is `None`.
fn str_range(image: &[u8], target: u64) -> Option<(usize, usize)> {
    if target == 0 {
        return Some((0, 0));
    }
    let start = usize::try_from(target).ok().filter(|t| *t < image.len())?;
    let end = start + image[start..].iter().position(|b| *b == 0)?;
    let bytes = &image[start..end];
    std::str::from_utf8(bytes).is_ok().then_some((start, end))
}

/// Compiles `exprs`, all typechecked against `st`, into one set for
/// senders of `arch`: program `p` is `exprs[p]`.
fn compile(
    exprs: &[&TExpr],
    st: &StructType,
    arch: &Architecture,
) -> Result<Compiled, FilterError> {
    let layout = Layout::of_struct(st, arch).map_err(|e| FilterError::Layout {
        detail: e.to_string(),
    })?;
    let mut emitter = Emitter {
        st,
        layout: &layout,
        slots: Vec::new(),
        ops: Vec::new(),
    };
    let ends = exprs
        .iter()
        .map(|expr| {
            emitter.emit(expr);
            emitter.ops.len() as u32
        })
        .collect();
    let Emitter {
        mut slots, mut ops, ..
    } = emitter;
    // Renumber the slots, those read by more than one test first: each
    // slot's use count becomes its new index.
    let cached = slots.iter().filter(|(_, uses)| *uses > 1).count();
    let mut next = [cached, 0];
    for (_, uses) in &mut slots {
        let next = &mut next[usize::from(*uses > 1)];
        (*uses, *next) = (*next as u32, *next + 1);
    }
    for op in &mut ops {
        if let Op::Test { slot, .. } = op {
            *slot = slots[*slot as usize].1;
        }
    }
    let mut ordered = vec![slots[0].0; slots.len()];
    for (slot, new) in slots {
        ordered[new as usize] = slot;
    }
    Ok(Compiled {
        slots: ordered.into(),
        cached,
        ops: ops.into(),
        ends,
        min_len: layout.size,
    })
}

struct Emitter<'a> {
    st: &'a StructType,
    layout: &'a Layout,
    /// Each slot and how many tests read it.
    slots: Vec<(Slot, u32)>,
    ops: Vec<Op>,
}

impl Emitter<'_> {
    /// The slot of `field`'s load, added on first use.
    fn slot(&mut self, field: usize) -> u32 {
        let place = &self.layout.fields[field];
        let (load, string) = match place.access {
            Access::Scalar(load) => (load, false),
            Access::Str(pointer) => (pointer, true),
            _ => unreachable!("typecheck admits only number and string fields"),
        };
        let at = place.offset as u32;
        let slot = Slot { at, load, string };
        let index = self.slots.iter().position(|(s, _)| *s == slot);
        let index = index.unwrap_or_else(|| {
            self.slots.push((slot, 0));
            self.slots.len() - 1
        });
        self.slots[index].1 += 1;
        index as u32
    }

    fn test(&mut self, field: usize, check: Check) {
        let slot = self.slot(field);
        self.ops.push(Op::Test { slot, check });
    }

    fn emit(&mut self, expr: &TExpr) {
        let (l, r, jump): (_, _, fn(u32) -> Op) = match expr {
            TExpr::Leaf { field, test } => {
                let class = class_of(&self.st.fields[*field].ty).expect("typechecked field");
                return self.test(*field, Check::of(test, class));
            }
            TExpr::Not(inner) => {
                self.emit(inner);
                return self.ops.push(Op::Not);
            }
            TExpr::And(l, r) => match range_of(l, r) {
                Some((field, check)) => return self.test(field, check),
                None => (l, r, Op::JmpFalse),
            },
            TExpr::Or(l, r) => (l, r, Op::JmpTrue),
        };
        self.emit(l);
        let at = self.ops.len();
        self.ops.push(Op::Not); // patched below, once the target is known
        self.emit(r);
        self.ops[at] = jump(self.ops.len() as u32);
    }
}

/// `l && r` as one range test, when they bound one numeric field from
/// below and from above: both read the same slot and neither can fail,
/// so the fold keeps every verdict.
fn range_of(l: &TExpr, r: &TExpr) -> Option<(usize, Check)> {
    let bound = |e: &TExpr| match e {
        TExpr::Leaf {
            field,
            test: Test::Cmp(op, Key::Num(key)),
        } => Some((*field, *op, *key)),
        _ => None,
    };
    let lower = |op| matches!(op, CmpOp::Gt | CmpOp::Ge);
    let upper = |op| matches!(op, CmpOp::Lt | CmpOp::Le);
    let ((field, lo, l), (other, hi, h)) = match (bound(l)?, bound(r)?) {
        (a, b) if lower(a.1) && upper(b.1) => (a, b),
        (a, b) if lower(b.1) && upper(a.1) => (b, a),
        _ => return None,
    };
    let check = match (l, h) {
        _ if field != other => return None,
        (Scalar::Int(l), Scalar::Int(h)) => Check::Int(Num::Range((lo, l), (hi, h))),
        (Scalar::UInt(l), Scalar::UInt(h)) => Check::UInt(Num::Range((lo, l), (hi, h))),
        (Scalar::Float(l), Scalar::Float(h)) => Check::Float(Num::Range((lo, l), (hi, h))),
        _ => return None,
    };
    Some((field, check))
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
/// type. Holds its program as a set of one per sender architecture seen:
/// the host's compiled eagerly and read without a lock, every other one
/// compiled lazily on first contact and kept per layout (at most 384 of
/// them, whatever descriptors senders claim). All subscribers passing the
/// same `(format, normalized expression)` share one `Arc<StreamFilter>`
/// via the [`FilterCache`], which is what lets fanout evaluate each
/// unique predicate once per event rather than once per subscriber; a
/// [`FilterSet`] evaluates a stream's unique predicates together.
#[derive(Debug)]
pub struct StreamFilter {
    normalized: String,
    fingerprint: u64,
    struct_type: Arc<StructType>,
    typed: TExpr,
    fields: Vec<String>,
    /// The host architecture's descriptor and program.
    host: ([u8; 6], Compiled),
    /// Programs for foreign sender architectures, by canonical
    /// descriptor: one per layout, however many descriptors map to it.
    programs: Memo<[u8; 6], Compiled>,
    evals: AtomicU64,
    matches: AtomicU64,
    errors: AtomicU64,
}

/// A resolved program: the host's, borrowed from its filter, or a share
/// of one compiled for a foreign sender.
enum Program<'a> {
    Host(&'a Compiled),
    Foreign(Arc<Compiled>),
}

impl std::ops::Deref for Program<'_> {
    type Target = Compiled;

    fn deref(&self) -> &Compiled {
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
        let host = (host.descriptor(), compile(&[&typed], st, &host)?);
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

    /// Adds one call's counts to the counters.
    fn count(&self, evals: u64, matches: u64, errors: u64) {
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
        let build = || compile(&[&self.typed], &self.struct_type, &arch);
        Ok(Program::Foreign(
            self.programs.get_or_build(arch.descriptor(), build)?,
        ))
    }

    /// Evaluates the predicate over a run of full NDR messages (wire
    /// header plus payload image) and pushes the key of every message
    /// that matches onto `out`, in run order: a [`FilterSet`] of this
    /// one filter, without the set.
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
            let mut hit = false;
            program.eval(&message[peek.header_len..], &mut [], |_| hit = true);
            if hit {
                matches += 1;
                out.push(key);
            }
        }
        self.count(evals, matches, errors);
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
        TExpr::Leaf { field, test } => {
            let field = &st.fields[*field];
            // The oracle's own load: the decoded value, of the field's class.
            let value = match (class_of(&field.ty), record.get(&field.name)) {
                (Ok(Class::Int), Some(Value::Int(v))) => Field::Num(Scalar::Int(*v)),
                (Ok(Class::UInt), Some(Value::UInt(v))) => Field::Num(Scalar::UInt(*v)),
                (Ok(Class::Float), Some(Value::Float(v))) => Field::Num(Scalar::Float(*v)),
                (Ok(Class::Str), Some(Value::String(s))) => Field::Str(s.as_bytes()),
                _ => return false,
            };
            test.holds(value)
        }
    }
}

// ---------------------------------------------------------------------------
// FilterSet: a stream's unique filters evaluated together
// ---------------------------------------------------------------------------

/// A stream's unique filters compiled into one predicate set per sender
/// layout — what the broker's shard worker evaluates per dispatch run.
///
/// Per message the set peeks the wire header once, and each distinct
/// field load is made at most once, only when a program reaches it:
/// sixteen predicates over three fields cost one peek and at most three
/// loads, not sixteen and twenty. Verdicts and counters are each
/// filter's own, exactly as if each ran [`StreamFilter::select`] over
/// the run, and they are added to each filter's [`FilterStats`] once per
/// call. Filters of another struct type than a message's fingerprint
/// count it as an error, as a lone filter does.
///
/// The host layout's set is compiled here; a foreign sender's on its
/// first message, kept per canonical descriptor.
#[derive(Debug)]
pub struct FilterSet {
    filters: Vec<Arc<StreamFilter>>,
    /// The filters grouped by struct type.
    parts: Vec<Part>,
    /// The slot values of the message being evaluated.
    cache: Vec<Loaded>,
    /// Per filter: matches in the current call.
    matches: Vec<u64>,
}

/// A set's filters of one struct type, compiled per sender layout.
#[derive(Debug)]
struct Part {
    fingerprint: u64,
    /// Indices into the set's filters, in the order of the programs.
    members: Vec<usize>,
    /// Compiled sets by canonical sender descriptor, the host's first;
    /// `None` for an architecture the struct type has no layout on.
    layouts: Vec<([u8; 6], Option<Compiled>)>,
    /// Messages of this part evaluated in the current call.
    evaluated: u64,
}

impl FilterSet {
    /// Compiles `filters` into one set. Each should appear once: a
    /// duplicate is evaluated, and counted, twice.
    pub fn new(filters: Vec<Arc<StreamFilter>>) -> FilterSet {
        let mut parts: Vec<Part> = Vec::new();
        for (k, filter) in filters.iter().enumerate() {
            match parts
                .iter_mut()
                .find(|p| p.fingerprint == filter.fingerprint)
            {
                Some(part) => part.members.push(k),
                None => parts.push(Part {
                    fingerprint: filter.fingerprint,
                    members: vec![k],
                    layouts: Vec::new(),
                    evaluated: 0,
                }),
            }
        }
        let host = Architecture::host();
        for part in &mut parts {
            let compiled = compile_part(part, &filters, &host);
            part.layouts.push((host.descriptor(), compiled));
        }
        let cached = parts
            .iter()
            .flat_map(|p| &p.layouts)
            .filter_map(|(_, c)| c.as_ref().map(|c| c.cached))
            .max();
        FilterSet {
            matches: vec![0; filters.len()],
            cache: vec![Loaded::No; cached.unwrap_or(0)],
            filters,
            parts,
        }
    }

    /// Evaluates every filter over a run of full NDR messages and pushes
    /// the key of each message filter `p` matches onto `out[p]`, in run
    /// order. `out` has one list per filter.
    ///
    /// Zero allocations beyond `out`'s growth once each sender
    /// architecture has been seen.
    pub fn select<'m, K: Copy>(
        &mut self,
        messages: impl IntoIterator<Item = (K, &'m [u8])>,
        out: &mut [Vec<K>],
    ) {
        let mut n = 0;
        // The sender of the current run, (fingerprint, descriptor), and its
        // (part, layout), resolved when either changes.
        let (mut sender, mut at) = (None, None);
        for (key, message) in messages {
            n += 1;
            let Ok(peek) = WireHeader::peek(message) else {
                continue;
            };
            if sender != Some((peek.fingerprint, peek.descriptor)) {
                sender = Some((peek.fingerprint, peek.descriptor));
                at = self.resolve(&peek);
            }
            let Some((p, l)) = at else {
                continue;
            };
            let part = &mut self.parts[p];
            let Some(compiled) = &part.layouts[l].1 else {
                continue;
            };
            part.evaluated += 1;
            let (members, matches) = (&part.members, &mut self.matches);
            compiled.eval(&message[peek.header_len..], &mut self.cache, |i| {
                let k = members[i];
                matches[k] += 1;
                out[k].push(key);
            });
        }
        for part in &mut self.parts {
            for &k in part.members.iter() {
                let matches = std::mem::take(&mut self.matches[k]);
                self.filters[k].count(n, matches, n - part.evaluated);
            }
            part.evaluated = 0;
        }
    }

    /// The part and layout for a message's fingerprint and sender: the
    /// host's without a search, a foreign one compiled on first contact
    /// under its canonical descriptor. `None` when no filter has the
    /// fingerprint.
    fn resolve(&mut self, peek: &pbio::header::WirePeek) -> Option<(usize, usize)> {
        let p = self
            .parts
            .iter()
            .position(|p| p.fingerprint == peek.fingerprint)?;
        if self.parts[p].layouts[0].0 == peek.descriptor {
            return Some((p, 0));
        }
        Some((p, self.foreign_layout(p, peek.descriptor)))
    }

    /// Part `p`'s layout for a foreign sender, compiled on first contact.
    /// Out of line: it runs once per change of sender, not per message.
    #[inline(never)]
    fn foreign_layout(&mut self, p: usize, descriptor: [u8; 6]) -> usize {
        let arch = Architecture::from_descriptor(descriptor);
        let part = &self.parts[p];
        if let Some(l) = part
            .layouts
            .iter()
            .position(|(d, _)| *d == arch.descriptor())
        {
            return l;
        }
        let compiled = compile_part(part, &self.filters, &arch);
        if let Some(compiled) = &compiled {
            let cached = compiled.cached.max(self.cache.len());
            self.cache.resize(cached, Loaded::No);
        }
        let part = &mut self.parts[p];
        part.layouts.push((arch.descriptor(), compiled));
        part.layouts.len() - 1
    }
}

/// A part's programs compiled for senders of `arch`, or `None` when the
/// struct type has no layout there.
fn compile_part(
    part: &Part,
    filters: &[Arc<StreamFilter>],
    arch: &Architecture,
) -> Option<Compiled> {
    let exprs: Vec<&TExpr> = part.members.iter().map(|&k| &filters[k].typed).collect();
    compile(&exprs, &filters[part.members[0]].struct_type, arch).ok()
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

    impl Compiled {
        /// Number of ops in the set's programs.
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

    fn encode(price: i64, qty: u64, weight: f64, dest: &str, arch: Architecture) -> Vec<u8> {
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
                assert_eq!(
                    f.matches_message(&msg),
                    want,
                    "{arch} {price} {weight} {dest}"
                );
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
        let a = cache
            .get_or_compile(&st, "price > 100 && dest == \"ATL\"")
            .unwrap();
        let b = cache
            .get_or_compile(&st, "((price>100)&&(dest==\"ATL\"))")
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "equivalent spellings must share a filter"
        );
        let c = cache
            .get_or_compile(&st, "price > 101 && dest == \"ATL\"")
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.built, stats.resident),
            (1, 2, 2, 2)
        );
    }

    #[test]
    fn the_cache_forgets_predicates_only_it_holds() {
        let cache = FilterCache::new();
        let st = ticks();
        let live = cache.get_or_compile(&st, "price > -1").unwrap();
        for threshold in 0..1000 {
            drop(
                cache
                    .get_or_compile(&st, &format!("price > {threshold}"))
                    .unwrap(),
            );
        }
        let stats = cache.stats();
        assert!(stats.resident <= 2, "{stats:?}");
        assert!(Arc::ptr_eq(
            &live,
            &cache.get_or_compile(&st, "price>-1").unwrap()
        ));
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
        // the program shape: Test, JmpTrue, Test.
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
            assert_eq!(
                program.len(),
                1,
                "{expr} must be one op, got {}",
                program.len()
            );
        }
    }

    #[test]
    fn a_bound_pair_on_one_field_folds_into_one_range_test() {
        let host = Architecture::host();
        for (expr, ops) in [
            ("price >= 1 && price < 5", 1),
            ("price < 5 && price > 1", 1),
            ("weight > 0.5 && weight <= 1.5", 1),
            ("price >= 1 && qty < 5", 3),
            ("price != 1 && price < 5", 3),
            ("price >= 1 || price < 5", 3),
        ] {
            let f = filter(expr);
            assert_eq!(
                f.program_for(host.descriptor()).unwrap().len(),
                ops,
                "{expr}"
            );
        }
        let f = filter("price >= 1 && price < 5");
        for (price, want) in [(0, false), (1, true), (4, true), (5, false)] {
            assert_eq!(
                f.matches_message(&encode(price, 0, 0.0, "", host)),
                want,
                "{price}"
            );
        }
    }

    #[test]
    fn a_set_loads_each_field_once() {
        let st = ticks();
        let exprs = [
            "price > 1",
            "price BETWEEN 0 AND 9",
            "dest == \"A\" || qty < 3",
            "dest IN (\"B\", \"C\")",
        ];
        let filters = exprs
            .iter()
            .map(|e| Arc::new(StreamFilter::compile(e, &st).unwrap()))
            .collect();
        let set = FilterSet::new(filters);
        let compiled = set.parts[0].layouts[0].1.as_ref().unwrap();
        // Three fields, two of them read by more than one test.
        assert_eq!((compiled.slots.len(), compiled.cached), (3, 2));
        assert_eq!(compiled.ends.len(), exprs.len());
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
        assert!(
            Arc::ptr_eq(&a, &b),
            "equivalent IN spellings must share a filter"
        );
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
