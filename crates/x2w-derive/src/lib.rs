//! `#[derive(Xml2WireRecord)]`: compile-time typed wire bindings.
//!
//! The derive implements `pbio::Xml2WireRecord` for a plain Rust
//! struct. It emits data and glue, never a codec:
//!
//! * the struct's definition as a `const`-constructed
//!   `clayout::ConstStructType` (counts for `Vec` fields synthesized as
//!   `<field>_count`, appended after the declared fields, exactly like
//!   the XSD binder does for `maxOccurs="*"` elements);
//! * a `clayout::Source`, one match arm per field, handing the encoder
//!   a borrowed scalar, string, slice or nested record (a count is
//!   absent, so the encoder writes it from its array);
//! * `from_view`, one line per field, reading a `pbio::RecordView`'s
//!   fields in declaration order.
//!
//! Offsets, alignment, pointers and byte order are the business of the
//! format's `clayout::Layout`, as for every other record.
//!
//! Supported field types: `i8`/`u8`/`i16`/`u16`/`i32`/`u32`/`i64`/
//! `u64`/`f32`/`f64`, `String`, `[scalar-or-String; N]`,
//! `Vec<scalar-or-String>`, and nested `Xml2WireRecord` structs.
//! `i64`/`u64` bind to C `long` (the widest type the XSD binding round
//! trips), which is 4 bytes on ILP32 architectures.
//!
//! The crate is deliberately dependency-free: input is parsed and code
//! is generated directly on `proc_macro::TokenStream` so the workspace
//! builds offline. A crate that derives depends on `clayout` and `pbio`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Field types
// ---------------------------------------------------------------------------

/// Rust scalar → `clayout::Primitive` variant: the correspondence the
/// dynamic binder uses in both directions, so a peer that discovers the
/// type's schema binds to an identical `StructType`.
const PRIMS: &[(&str, &str)] = &[
    ("i8", "Char"),
    ("u8", "UChar"),
    ("i16", "Short"),
    ("u16", "UShort"),
    ("i32", "Int"),
    ("u32", "UInt"),
    ("i64", "Long"),
    ("u64", "ULong"),
    ("f32", "Float"),
    ("f64", "Double"),
];

/// Idents that look like types but have no wire binding; named
/// explicitly so the error says *why* instead of failing a trait bound.
const REJECTED_SCALARS: &[&str] = &[
    "bool", "char", "str", "usize", "isize", "u128", "i128", "f16", "f128",
];

const SUPPORTED: &str = "supported types are i8/u8/i16/u16/i32/u32/i64/u64/f32/f64, String, \
     [scalar; N], Vec<scalar-or-String>, and nested Xml2WireRecord structs";

/// A scalar or string: what a field, or an array's element, holds.
#[derive(Clone, Copy)]
enum Elem {
    /// The `clayout::Primitive` variant.
    Prim(&'static str),
    Str,
}

enum Kind {
    One(Elem),
    Fixed(Elem, usize),
    Vec(Elem),
    Nested(String),
}

struct Field {
    /// The Rust field identifier as written (including any `r#`).
    rust: String,
    /// The wire name (`#[x2w(name = "...")]` or the ident).
    wire: String,
    kind: Kind,
}

struct Input {
    rust_name: String,
    wire_name: String,
    fields: Vec<Field>,
    /// Wire names of synthesized count fields, one per `Vec` field, in
    /// declaration order of their arrays.
    counts: Vec<String>,
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Derives `pbio::Xml2WireRecord` (and the `clayout::Source` it rests
/// on) for a struct with named fields.
///
/// Struct- and field-level `#[x2w(name = "...")]` attributes override
/// the wire names.
#[proc_macro_derive(Xml2WireRecord, attributes(x2w))]
pub fn derive_xml2wire_record(input: TokenStream) -> TokenStream {
    match parse(input).map(|input| generate(&input)) {
        Ok(out) => match out.parse() {
            Ok(ts) => ts,
            Err(e) => fail(&format!(
                "internal error: generated code failed to parse: {e}"
            )),
        },
        Err(msg) => fail(&msg),
    }
}

fn fail(msg: &str) -> TokenStream {
    format!("::core::compile_error!({msg:?});")
        .parse()
        .expect("compile_error tokens always parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse(input: TokenStream) -> Result<Input, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    let struct_rename = parse_outer_attrs(&toks, &mut pos)?;
    skip_visibility(&toks, &mut pos);

    match ident_at(&toks, pos).as_deref() {
        Some("struct") => pos += 1,
        Some("enum") => {
            return Err(
                "Xml2WireRecord cannot be derived for enums: only structs with named fields are supported"
                    .to_owned(),
            )
        }
        Some("union") => {
            return Err(
                "Xml2WireRecord cannot be derived for unions: only structs with named fields are supported"
                    .to_owned(),
            )
        }
        _ => return Err("expected a struct definition".to_owned()),
    }

    let rust_name = ident_at(&toks, pos).ok_or("expected a struct name")?;
    pos += 1;

    let body = match toks.get(pos) {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err("Xml2WireRecord cannot be derived for generic structs".to_owned())
        }
        Some(TokenTree::Ident(id)) if id.to_string() == "where" => {
            return Err("Xml2WireRecord cannot be derived for generic structs".to_owned())
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
            return Err(
                "Xml2WireRecord requires named fields: unit structs are not supported".to_owned(),
            )
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            return Err(
                "Xml2WireRecord requires named fields: tuple structs are not supported".to_owned(),
            )
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => return Err("expected a struct body".to_owned()),
    };

    let wire_name = match struct_rename {
        Some(name) => name,
        None => strip_raw(&rust_name),
    };
    check_wire_name(&wire_name)?;

    let mut fields = Vec::new();
    let body: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    while i < body.len() {
        let rename = parse_outer_attrs(&body, &mut i)?;
        skip_visibility(&body, &mut i);
        let rust = match body.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => return Err("expected a named field".to_owned()),
        };
        i += 1;
        match body.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{rust}`")),
        }
        let mut ty = Vec::new();
        let mut depth = 0i32;
        while i < body.len() {
            match &body[i] {
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                _ => {}
            }
            ty.push(body[i].clone());
            i += 1;
        }
        if i < body.len() {
            i += 1; // the comma
        }
        let wire = match rename {
            Some(name) => name,
            None => strip_raw(&rust),
        };
        check_wire_name(&wire)?;
        let kind = classify(&ty)?;
        fields.push(Field { rust, wire, kind });
    }

    let counts: Vec<String> = fields
        .iter()
        .filter(|field| matches!(field.kind, Kind::Vec(_)))
        .map(|field| format!("{}_count", field.wire))
        .collect();
    let mut seen = Vec::new();
    for name in fields
        .iter()
        .map(|f| f.wire.as_str())
        .chain(counts.iter().map(String::as_str))
    {
        if seen.contains(&name) {
            return Err(format!(
                "duplicate wire field name `{name}` (count fields for Vec arrays are synthesized as `<field>_count`)"
            ));
        }
        seen.push(name);
    }

    Ok(Input {
        rust_name,
        wire_name,
        fields,
        counts,
    })
}

fn ident_at(toks: &[TokenTree], pos: usize) -> Option<String> {
    match toks.get(pos) {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

fn skip_visibility(toks: &[TokenTree], pos: &mut usize) {
    if ident_at(toks, *pos).as_deref() == Some("pub") {
        *pos += 1;
        if let Some(TokenTree::Group(g)) = toks.get(*pos) {
            if g.delimiter() == Delimiter::Parenthesis {
                *pos += 1;
            }
        }
    }
}

fn strip_raw(ident: &str) -> String {
    ident.strip_prefix("r#").unwrap_or(ident).to_owned()
}

fn check_wire_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if head_ok && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')) {
        Ok(())
    } else {
        Err(format!(
            "wire name `{name}` is not XML-name safe: use ASCII letters, digits, `_`, `-`, `.`"
        ))
    }
}

/// Consumes leading `#[...]` attributes; returns the `#[x2w(name)]`
/// override if present, errors on malformed `#[x2w]` forms, skips
/// everything else (doc comments, lint attributes, ...).
fn parse_outer_attrs(toks: &[TokenTree], pos: &mut usize) -> Result<Option<String>, String> {
    let mut rename = None;
    loop {
        match toks.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {}
            _ => return Ok(rename),
        }
        let Some(TokenTree::Group(g)) = toks.get(*pos + 1) else {
            return Err("malformed attribute".to_owned());
        };
        *pos += 2;
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if ident_at(&inner, 0).as_deref() == Some("x2w") {
            let name = parse_x2w_attr(&inner)?;
            if rename.replace(name).is_some() {
                return Err("duplicate #[x2w(name)] attribute".to_owned());
            }
        }
    }
}

fn parse_x2w_attr(inner: &[TokenTree]) -> Result<String, String> {
    const MALFORMED: &str = "malformed #[x2w] attribute: expected #[x2w(name = \"...\")]";
    let args = match (inner.len(), inner.get(1)) {
        (2, Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        _ => return Err(MALFORMED.to_owned()),
    };
    let args: Vec<TokenTree> = args.into_iter().collect();
    if args.len() != 3
        || ident_at(&args, 0).as_deref() != Some("name")
        || !matches!(&args[1], TokenTree::Punct(p) if p.as_char() == '=')
    {
        return Err(MALFORMED.to_owned());
    }
    match &args[2] {
        TokenTree::Literal(lit) => {
            let text = lit.to_string();
            if text.len() >= 2 && text.starts_with('"') && text.ends_with('"') {
                let name = &text[1..text.len() - 1];
                if name.contains('\\') {
                    return Err(MALFORMED.to_owned());
                }
                Ok(name.to_owned())
            } else {
                Err(MALFORMED.to_owned())
            }
        }
        _ => Err(MALFORMED.to_owned()),
    }
}

fn tokens_to_string(toks: &[TokenTree]) -> String {
    toks.iter().cloned().collect::<TokenStream>().to_string()
}

/// The scalar or string a lone ident names.
fn elem(toks: &[TokenTree]) -> Option<Elem> {
    let [TokenTree::Ident(id)] = toks else {
        return None;
    };
    let name = id.to_string();
    if name == "String" {
        return Some(Elem::Str);
    }
    PRIMS
        .iter()
        .find(|(rust, _)| *rust == name)
        .map(|(_, variant)| Elem::Prim(variant))
}

fn classify(ty: &[TokenTree]) -> Result<Kind, String> {
    match ty {
        [] => Err("expected a field type".to_owned()),
        // `i32`, `String`, `Inner`
        [TokenTree::Ident(id)] => {
            let name = id.to_string();
            if let Some(elem) = elem(ty) {
                Ok(Kind::One(elem))
            } else if REJECTED_SCALARS.contains(&name.as_str()) {
                Err(format!(
                    "unsupported field type `{name}` for Xml2WireRecord: {SUPPORTED}"
                ))
            } else {
                Ok(Kind::Nested(name))
            }
        }
        // `Vec<T>`
        [TokenTree::Ident(vec), TokenTree::Punct(lt), inner @ .., TokenTree::Punct(gt)]
            if vec.to_string() == "Vec" && lt.as_char() == '<' && gt.as_char() == '>' =>
        {
            elem(inner).map(Kind::Vec).ok_or_else(|| {
                format!(
                    "unsupported Vec element type `{}`: Vec fields must hold scalars or String",
                    tokens_to_string(inner)
                )
            })
        }
        // `[T; N]`
        [TokenTree::Group(g)] if g.delimiter() == Delimiter::Bracket => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            let semi = inner
                .iter()
                .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ';'))
                .ok_or_else(|| {
                    format!(
                        "unsupported field type `{}`: {SUPPORTED}",
                        tokens_to_string(ty)
                    )
                })?;
            let (item, len_toks) = (&inner[..semi], &inner[semi + 1..]);
            let len = match len_toks {
                [TokenTree::Literal(lit)] => lit
                    .to_string()
                    .trim_end_matches("usize")
                    .parse::<usize>()
                    .map_err(|_| "fixed array length must be an integer literal".to_owned())?,
                _ => return Err("fixed array length must be an integer literal".to_owned()),
            };
            if len == 0 {
                return Err("fixed arrays must have nonzero length".to_owned());
            }
            elem(item)
                .map(|elem| Kind::Fixed(elem, len))
                .ok_or_else(|| {
                    format!(
                    "unsupported array element type `{}`: array fields must hold scalars or String",
                    tokens_to_string(item)
                )
                })
        }
        _ => Err(format!(
            "unsupported field type `{}` for Xml2WireRecord: {SUPPORTED}",
            tokens_to_string(ty)
        )),
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

impl Elem {
    fn const_type(self) -> String {
        match self {
            Elem::Prim(variant) => {
                format!("::clayout::ConstCType::Prim(::clayout::Primitive::{variant})")
            }
            Elem::Str => "::clayout::ConstCType::String".to_owned(),
        }
    }
}

fn generate(input: &Input) -> String {
    let Input {
        rust_name,
        wire_name,
        ..
    } = input;
    // Per field: its descriptor entry, the `Source` arm handing the
    // encoder its value, and the `from_view` line reading it back.
    let (mut descriptor, mut arms, mut reads) = (String::new(), String::new(), String::new());
    for (idx, Field { rust, wire, kind }) in input.fields.iter().enumerate() {
        let (ty, source) = match kind {
            Kind::One(elem) => (elem.const_type(), format!("from(&self.{rust})")),
            Kind::Fixed(elem, len) => (
                format!(
                    "::clayout::ConstCType::FixedArray {{ elem: &{}, len: {len} }}",
                    elem.const_type()
                ),
                format!("from(&self.{rust}[..])"),
            ),
            Kind::Vec(elem) => (
                format!(
                    "::clayout::ConstCType::DynArray {{ elem: &{}, count: \"{wire}_count\" }}",
                    elem.const_type()
                ),
                format!("from(&self.{rust}[..])"),
            ),
            Kind::Nested(t) => (
                format!(
                    "::clayout::ConstCType::Struct(<{t} as ::pbio::Xml2WireRecord>::DESCRIPTOR)"
                ),
                format!("Record(&self.{rust})"),
            ),
        };
        descriptor.push_str(&format!(
            "::clayout::ConstField {{ name: {wire:?}, ty: {ty} }},\n"
        ));
        arms.push_str(&format!(
            "{idx} => ::std::option::Option::Some(::clayout::SourceValue::{source}),\n"
        ));
        reads.push_str(&format!(
            "{rust}: ::pbio::typed::FromField::read(__x2w_view, {idx})?,\n"
        ));
    }
    for count in &input.counts {
        descriptor.push_str(&format!(
            "::clayout::ConstField {{ name: {count:?}, ty: ::clayout::ConstCType::Prim(::clayout::Primitive::Int) }},\n"
        ));
    }
    format!(
        "#[automatically_derived]
impl ::clayout::Source for {rust_name} {{
    fn field(&self, __x2w_idx: usize, _: &str) -> ::std::option::Option<::clayout::SourceValue<'_>> {{
        match __x2w_idx {{
{arms}            _ => ::std::option::Option::None,
        }}
    }}
}}
#[automatically_derived]
impl ::pbio::Xml2WireRecord for {rust_name} {{
    const DESCRIPTOR: &'static ::clayout::ConstStructType = &::clayout::ConstStructType {{
        name: {wire_name:?},
        fields: &[
{descriptor}        ],
    }};
    fn from_view(__x2w_view: &::pbio::RecordView<'_>) -> ::std::result::Result<Self, ::pbio::PbioError> {{
        ::std::result::Result::Ok(Self {{
{reads}        }})
    }}
}}
"
    )
}
