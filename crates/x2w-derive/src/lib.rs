//! `#[derive(Xml2WireRecord)]`: compile-time typed wire bindings.
//!
//! The derive implements `clayout::Xml2WireRecord` for a plain Rust
//! struct, emitting at compile time what the dynamic pipeline computes
//! at bind time:
//!
//! * the `clayout` field list as a `const`-constructed
//!   `ConstStructType` in static memory (counts for `Vec` fields
//!   synthesized as `<field>_count`, appended after the declared
//!   fields, exactly like the XSD binder does for `maxOccurs="*"`
//!   elements),
//! * the `<xsd:complexType>` fragment for metadata-server registration
//!   as a string literal, and
//! * straight-line `encode_fields`/`decode_fields` code that writes the
//!   native byte image directly — no format reflection, no `Record`,
//!   no plan-cache lookup on the publish path.
//!
//! Supported field types: `i8`/`u8`/`i16`/`u16`/`i32`/`u32`/`i64`/
//! `u64`/`f32`/`f64`, `String`, `[scalar-or-String; N]`,
//! `Vec<scalar-or-String>`, and nested `Xml2WireRecord` structs.
//! `i64`/`u64` bind to C `long` (the widest type the XSD binding round
//! trips), which is 4 bytes on ILP32 architectures.
//!
//! The crate is deliberately dependency-free: input is parsed and code
//! is generated directly on `proc_macro::TokenStream` so the workspace
//! builds offline.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Scalar table
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Signed,
    Unsigned,
    Float,
}

#[derive(Clone, Copy)]
struct Prim {
    rust: &'static str,
    variant: &'static str,
    xsd: &'static str,
    class: Class,
}

/// Rust scalar → C primitive → XSD simple type. This is the same
/// correspondence the dynamic binder uses in both directions, so a
/// peer that discovers the emitted schema binds to an identical
/// `StructType` (same fingerprint, byte-identical wire images).
const PRIMS: &[Prim] = &[
    Prim { rust: "i8", variant: "Char", xsd: "byte", class: Class::Signed },
    Prim { rust: "u8", variant: "UChar", xsd: "unsignedByte", class: Class::Unsigned },
    Prim { rust: "i16", variant: "Short", xsd: "short", class: Class::Signed },
    Prim { rust: "u16", variant: "UShort", xsd: "unsignedShort", class: Class::Unsigned },
    Prim { rust: "i32", variant: "Int", xsd: "int", class: Class::Signed },
    Prim { rust: "u32", variant: "UInt", xsd: "unsignedInt", class: Class::Unsigned },
    Prim { rust: "i64", variant: "Long", xsd: "long", class: Class::Signed },
    Prim { rust: "u64", variant: "ULong", xsd: "unsignedLong", class: Class::Unsigned },
    Prim { rust: "f32", variant: "Float", xsd: "float", class: Class::Float },
    Prim { rust: "f64", variant: "Double", xsd: "double", class: Class::Float },
];

fn prim_of(ident: &str) -> Option<&'static Prim> {
    PRIMS.iter().find(|p| p.rust == ident)
}

/// Idents that look like types but have no wire binding; named
/// explicitly so the error says *why* instead of failing a trait bound.
const REJECTED_SCALARS: &[&str] =
    &["bool", "char", "str", "usize", "isize", "u128", "i128", "f16", "f128"];

const SUPPORTED: &str = "supported types are i8/u8/i16/u16/i32/u32/i64/u64/f32/f64, String, \
     [scalar; N], Vec<scalar-or-String>, and nested Xml2WireRecord structs";

// ---------------------------------------------------------------------------
// Parsed model
// ---------------------------------------------------------------------------

enum Kind {
    Prim(&'static Prim),
    Str,
    FixedPrim(&'static Prim, usize),
    FixedStr(usize),
    VecPrim(&'static Prim),
    VecStr,
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

/// Derives `clayout::Xml2WireRecord` for a struct with named fields.
///
/// Struct- and field-level `#[x2w(name = "...")]` attributes override
/// the wire names (nested record types must keep their default name,
/// enforced at compile time, because the emitted schema references them
/// by Rust identifier).
#[proc_macro_derive(Xml2WireRecord, attributes(x2w))]
pub fn derive_xml2wire_record(input: TokenStream) -> TokenStream {
    match parse(input).map(|input| generate(&input)) {
        Ok(out) => match out.parse() {
            Ok(ts) => ts,
            Err(e) => fail(&format!("internal error: generated code failed to parse: {e}")),
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
                    "Xml2WireRecord requires named fields: unit structs are not supported"
                        .to_owned(),
                )
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(
                    "Xml2WireRecord requires named fields: tuple structs are not supported"
                        .to_owned(),
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

    let mut counts = Vec::new();
    for field in &fields {
        if matches!(field.kind, Kind::VecPrim(_) | Kind::VecStr) {
            counts.push(format!("{}_count", field.wire));
        }
    }
    let mut seen = Vec::new();
    for name in fields.iter().map(|f| f.wire.as_str()).chain(counts.iter().map(String::as_str)) {
        if seen.contains(&name) {
            return Err(format!(
                "duplicate wire field name `{name}` (count fields for Vec arrays are synthesized as `<field>_count`)"
            ));
        }
        seen.push(name);
    }

    Ok(Input { rust_name, wire_name, fields, counts })
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
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
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

fn classify(ty: &[TokenTree]) -> Result<Kind, String> {
    match ty {
        [] => Err("expected a field type".to_owned()),
        // `i32`, `String`, `Inner`
        [TokenTree::Ident(id)] => {
            let name = id.to_string();
            if let Some(prim) = prim_of(&name) {
                Ok(Kind::Prim(prim))
            } else if name == "String" {
                Ok(Kind::Str)
            } else if REJECTED_SCALARS.contains(&name.as_str()) {
                Err(format!("unsupported field type `{name}` for Xml2WireRecord: {SUPPORTED}"))
            } else {
                Ok(Kind::Nested(name))
            }
        }
        // `Vec<T>`
        [TokenTree::Ident(vec), TokenTree::Punct(lt), elem @ .., TokenTree::Punct(gt)]
            if vec.to_string() == "Vec" && lt.as_char() == '<' && gt.as_char() == '>' =>
        {
            match elem {
                [TokenTree::Ident(id)] => {
                    let name = id.to_string();
                    if let Some(prim) = prim_of(&name) {
                        Ok(Kind::VecPrim(prim))
                    } else if name == "String" {
                        Ok(Kind::VecStr)
                    } else {
                        Err(format!(
                            "unsupported Vec element type `{}`: Vec fields must hold scalars or String",
                            tokens_to_string(elem)
                        ))
                    }
                }
                _ => Err(format!(
                    "unsupported Vec element type `{}`: Vec fields must hold scalars or String",
                    tokens_to_string(elem)
                )),
            }
        }
        // `[T; N]`
        [TokenTree::Group(g)] if g.delimiter() == Delimiter::Bracket => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            let semi = inner
                .iter()
                .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ';'))
                .ok_or_else(|| {
                    format!("unsupported field type `{}`: {SUPPORTED}", tokens_to_string(ty))
                })?;
            let (elem, len_toks) = (&inner[..semi], &inner[semi + 1..]);
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
            match elem {
                [TokenTree::Ident(id)] => {
                    let name = id.to_string();
                    if let Some(prim) = prim_of(&name) {
                        Ok(Kind::FixedPrim(prim, len))
                    } else if name == "String" {
                        Ok(Kind::FixedStr(len))
                    } else {
                        Err(format!(
                            "unsupported array element type `{}`: array fields must hold scalars or String",
                            tokens_to_string(elem)
                        ))
                    }
                }
                _ => Err(format!(
                    "unsupported array element type `{}`: array fields must hold scalars or String",
                    tokens_to_string(elem)
                )),
            }
        }
        _ => Err(format!("unsupported field type `{}` for Xml2WireRecord: {SUPPORTED}", tokens_to_string(ty))),
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

impl Prim {
    fn variant_path(&self) -> String {
        format!("::clayout::Primitive::{}", self.variant)
    }

    /// Widens an expression of this scalar to the helper's i64/u64/f64.
    fn widen(&self, expr: &str) -> String {
        let (wide, class) = match self.class {
            Class::Signed => ("i64", "i64"),
            Class::Unsigned => ("u64", "u64"),
            Class::Float => ("f64", "f64"),
        };
        if self.rust == wide {
            expr.to_owned()
        } else {
            format!("{class}::from({expr})")
        }
    }

    /// Narrowing cast appended to a helper read (`""` for 64-bit).
    fn narrow(&self) -> String {
        if matches!(self.rust, "i64" | "u64" | "f64") {
            String::new()
        } else {
            format!(" as {}", self.rust)
        }
    }

    fn getter(&self) -> &'static str {
        match self.class {
            Class::Signed => "::clayout::typed::get_signed",
            Class::Unsigned => "::clayout::typed::get_unsigned",
            Class::Float => "::clayout::typed::get_float",
        }
    }

    fn zero(&self) -> String {
        match self.class {
            Class::Float => format!("0.0{}", self.rust),
            _ => format!("0{}", self.rust),
        }
    }

    /// A `put_*` call writing `expr` (already widened) at `at`.
    fn putter(&self, at: &str, expr: &str, wire: &str) -> String {
        match self.class {
            Class::Signed => format!(
                "::clayout::typed::put_signed(buf, {at}, __x2w_sa.size, __x2w_e, {expr}, {wire:?})?;"
            ),
            Class::Unsigned => format!(
                "::clayout::typed::put_unsigned(buf, {at}, __x2w_sa.size, __x2w_e, {expr}, {wire:?})?;"
            ),
            Class::Float => {
                format!("::clayout::typed::put_float(buf, {at}, __x2w_sa.size, __x2w_e, {expr});")
            }
        }
    }
}

/// Same, but for array elements sized by `__x2w_esa`.
fn elem_putter(prim: &Prim, at: &str, expr: &str, wire: &str) -> String {
    match prim.class {
        Class::Signed => format!(
            "::clayout::typed::put_signed(buf, {at}, __x2w_esa.size, __x2w_e, {expr}, {wire:?})?;"
        ),
        Class::Unsigned => format!(
            "::clayout::typed::put_unsigned(buf, {at}, __x2w_esa.size, __x2w_e, {expr}, {wire:?})?;"
        ),
        Class::Float => {
            format!("::clayout::typed::put_float(buf, {at}, __x2w_esa.size, __x2w_e, {expr});")
        }
    }
}

fn generate(input: &Input) -> String {
    let rust_name = &input.rust_name;
    let wire_name = &input.wire_name;

    let mut descriptor_entries = String::new();
    for field in &input.fields {
        let const_ty = match &field.kind {
            Kind::Prim(p) => format!("::clayout::ConstCType::Prim({})", p.variant_path()),
            Kind::Str => "::clayout::ConstCType::String".to_owned(),
            Kind::FixedPrim(p, n) => format!(
                "::clayout::ConstCType::FixedArray {{ elem: &::clayout::ConstCType::Prim({}), len: {n}usize }}",
                p.variant_path()
            ),
            Kind::FixedStr(n) => format!(
                "::clayout::ConstCType::FixedArray {{ elem: &::clayout::ConstCType::String, len: {n}usize }}"
            ),
            Kind::VecPrim(p) => format!(
                "::clayout::ConstCType::DynArray {{ elem: &::clayout::ConstCType::Prim({}), count: \"{}_count\" }}",
                p.variant_path(),
                field.wire
            ),
            Kind::VecStr => format!(
                "::clayout::ConstCType::DynArray {{ elem: &::clayout::ConstCType::String, count: \"{}_count\" }}",
                field.wire
            ),
            Kind::Nested(t) => {
                format!("::clayout::ConstCType::Struct(<{t} as ::clayout::Xml2WireRecord>::DESCRIPTOR)")
            }
        };
        descriptor_entries.push_str(&format!(
            "        ::clayout::ConstField {{ name: {:?}, ty: {const_ty} }},\n",
            field.wire
        ));
    }
    for count in &input.counts {
        descriptor_entries.push_str(&format!(
            "        ::clayout::ConstField {{ name: {count:?}, ty: ::clayout::ConstCType::Prim(::clayout::Primitive::Int) }},\n"
        ));
    }
    let field_total = input.fields.len() + input.counts.len();

    // The XSD fragment: what the dynamic writer would produce for the
    // materialized StructType, as a compile-time literal.
    let mut fragment = format!("  <xsd:complexType name=\"{wire_name}\">\n");
    for field in &input.fields {
        let line = match &field.kind {
            Kind::Prim(p) => {
                format!("    <xsd:element name=\"{}\" type=\"xsd:{}\"/>\n", field.wire, p.xsd)
            }
            Kind::Str => {
                format!("    <xsd:element name=\"{}\" type=\"xsd:string\"/>\n", field.wire)
            }
            Kind::FixedPrim(p, n) => format!(
                "    <xsd:element name=\"{}\" type=\"xsd:{}\" minOccurs=\"{n}\" maxOccurs=\"{n}\"/>\n",
                field.wire, p.xsd
            ),
            Kind::FixedStr(n) => format!(
                "    <xsd:element name=\"{}\" type=\"xsd:string\" minOccurs=\"{n}\" maxOccurs=\"{n}\"/>\n",
                field.wire
            ),
            Kind::VecPrim(p) => format!(
                "    <xsd:element name=\"{}\" type=\"xsd:{}\" maxOccurs=\"{}_count\"/>\n",
                field.wire, p.xsd, field.wire
            ),
            Kind::VecStr => format!(
                "    <xsd:element name=\"{}\" type=\"xsd:string\" maxOccurs=\"{}_count\"/>\n",
                field.wire, field.wire
            ),
            Kind::Nested(t) => {
                format!("    <xsd:element name=\"{}\" type=\"{t}\"/>\n", field.wire)
            }
        };
        fragment.push_str(&line);
    }
    for count in &input.counts {
        fragment.push_str(&format!("    <xsd:element name=\"{count}\" type=\"xsd:int\"/>\n"));
    }
    fragment.push_str("  </xsd:complexType>\n");

    // Nested record types, deduplicated, in first-reference order.
    let mut nested = Vec::new();
    for field in &input.fields {
        if let Kind::Nested(t) = &field.kind {
            if !nested.contains(t) {
                nested.push(t.clone());
            }
        }
    }

    let mut name_checks = String::new();
    for t in &nested {
        name_checks.push_str(&format!(
            "    const _: () = assert!(::clayout::typed::const_name_matches(<{t} as ::clayout::Xml2WireRecord>::FORMAT_NAME, \"{t}\"), \"nested Xml2WireRecord types must not override #[x2w(name)]: the emitted schema references them by Rust identifier\");\n"
        ));
    }

    let mut collect_body = String::new();
    for t in &nested {
        collect_body.push_str(&format!(
            "            <{t} as ::clayout::Xml2WireRecord>::collect_complex_types(out);\n"
        ));
    }
    collect_body.push_str(
        "            if !out.iter().any(|(n, _)| *n == Self::FORMAT_NAME) {\n                out.push((Self::FORMAT_NAME, Self::COMPLEX_TYPE_XML));\n            }\n",
    );

    let layout_body = gen_layout(input);
    let encode_body = gen_encode(input);
    let decode_body = gen_decode(input);

    format!(
        "const _: () = {{\n\
         \x20   static __X2W_FIELDS: [::clayout::ConstField; {field_total}] = [\n{descriptor_entries}    ];\n\
         \x20   static __X2W_DESC: ::clayout::ConstStructType = ::clayout::ConstStructType {{ name: {wire_name:?}, fields: &__X2W_FIELDS }};\n\
         {name_checks}\
         \x20   #[automatically_derived]\n\
         \x20   impl ::clayout::Xml2WireRecord for {rust_name} {{\n\
         \x20       const FORMAT_NAME: &'static str = {wire_name:?};\n\
         \x20       const DESCRIPTOR: &'static ::clayout::ConstStructType = &__X2W_DESC;\n\
         \x20       const COMPLEX_TYPE_XML: &'static str = {fragment:?};\n\
         \x20       fn collect_complex_types(out: &mut ::std::vec::Vec<(&'static str, &'static str)>) {{\n{collect_body}        }}\n\
         \x20       fn layout_size_align(arch: &::clayout::Architecture) -> (usize, usize) {{\n{layout_body}        }}\n\
         \x20       fn encode_fields(&self, buf: &mut ::std::vec::Vec<u8>, image_start: usize, base: usize, arch: &::clayout::Architecture) -> ::std::result::Result<(), ::clayout::LayoutError> {{\n{encode_body}        }}\n\
         \x20       fn decode_fields(payload: &[u8], base: usize, arch: &::clayout::Architecture) -> ::std::result::Result<Self, ::clayout::LayoutError> {{\n{decode_body}        }}\n\
         \x20   }}\n\
         }};\n"
    )
}

/// Layout slots shared by the three generated passes: every field (and
/// synthesized count) occupies one slot laid out by the C algorithm.
enum Slot<'a> {
    Prim(&'a Prim),
    Ptr,
    Fixed { elem_sa: String, len: usize },
    Nested(&'a str),
}

fn slots(input: &Input) -> Vec<Slot<'_>> {
    let mut out = Vec::new();
    for field in &input.fields {
        out.push(match &field.kind {
            Kind::Prim(p) => Slot::Prim(p),
            Kind::Str | Kind::VecPrim(_) | Kind::VecStr => Slot::Ptr,
            Kind::FixedPrim(p, n) => Slot::Fixed {
                elem_sa: format!("arch.primitive({})", p.variant_path()),
                len: *n,
            },
            Kind::FixedStr(n) => Slot::Fixed { elem_sa: "arch.pointer".to_owned(), len: *n },
            Kind::Nested(t) => Slot::Nested(t),
        });
    }
    for _ in &input.counts {
        out.push(Slot::Prim(&PRIMS[4])); // Int
    }
    out
}

fn sa_expr(slot: &Slot) -> String {
    match slot {
        Slot::Prim(p) => format!("arch.primitive({})", p.variant_path()),
        Slot::Ptr => "arch.pointer".to_owned(),
        Slot::Fixed { elem_sa, .. } => elem_sa.clone(),
        Slot::Nested(_) => unreachable!("nested slots are emitted separately"),
    }
}

fn gen_layout(input: &Input) -> String {
    let slots = slots(input);
    if slots.is_empty() {
        return "            let _ = arch;\n            (0usize, 1usize)\n".to_owned();
    }
    let mut out = String::from(
        "            let mut __x2w_off = 0usize;\n            let mut __x2w_max = 1usize;\n",
    );
    for slot in &slots {
        match slot {
            Slot::Nested(t) => out.push_str(&format!(
                "            {{ let (__x2w_s, __x2w_a) = <{t} as ::clayout::Xml2WireRecord>::layout_size_align(arch); __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_a) + __x2w_s; if __x2w_a > __x2w_max {{ __x2w_max = __x2w_a; }} }}\n"
            )),
            Slot::Fixed { len, .. } => out.push_str(&format!(
                "            {{ let __x2w_sa = {}; __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_sa.align) + __x2w_sa.size * {len}usize; if __x2w_sa.align > __x2w_max {{ __x2w_max = __x2w_sa.align; }} }}\n",
                sa_expr(slot)
            )),
            _ => out.push_str(&format!(
                "            {{ let __x2w_sa = {}; __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_sa.align) + __x2w_sa.size; if __x2w_sa.align > __x2w_max {{ __x2w_max = __x2w_sa.align; }} }}\n",
                sa_expr(slot)
            )),
        }
    }
    out.push_str("            (::clayout::layout::align_up(__x2w_off, __x2w_max), __x2w_max)\n");
    out
}

fn gen_encode(input: &Input) -> String {
    if input.fields.is_empty() {
        return "            let _ = (buf, image_start, base, arch);\n            ::std::result::Result::Ok(())\n".to_owned();
    }
    let mut out = String::from(
        "            let __x2w_e = arch.endianness;\n            let mut __x2w_off = 0usize;\n",
    );
    let mut vec_fields = Vec::new();
    for field in &input.fields {
        let wire = &field.wire;
        let rust = &field.rust;
        match &field.kind {
            Kind::Prim(p) => {
                let put = p.putter(
                    "image_start + base + __x2w_off",
                    &p.widen(&format!("self.{rust}")),
                    wire,
                );
                out.push_str(&format!(
                    "            {{ let __x2w_sa = arch.primitive({}); __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_sa.align); {put} __x2w_off += __x2w_sa.size; }}\n",
                    p.variant_path()
                ));
            }
            Kind::Str => out.push_str(&format!(
                "            {{ let __x2w_sa = arch.pointer; __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_sa.align); ::clayout::typed::put_string(buf, image_start, image_start + base + __x2w_off, arch, &self.{rust}, {wire:?})?; __x2w_off += __x2w_sa.size; }}\n"
            )),
            Kind::FixedPrim(p, n) => {
                let put = elem_putter(
                    p,
                    "image_start + base + __x2w_off + __x2w_i * __x2w_esa.size",
                    &p.widen("*__x2w_v"),
                    wire,
                );
                out.push_str(&format!(
                    "            {{ let __x2w_esa = arch.primitive({}); __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_esa.align); for (__x2w_i, __x2w_v) in self.{rust}.iter().enumerate() {{ {put} }} __x2w_off += __x2w_esa.size * {n}usize; }}\n",
                    p.variant_path()
                ));
            }
            Kind::FixedStr(n) => out.push_str(&format!(
                "            {{ let __x2w_esa = arch.pointer; __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_esa.align); for (__x2w_i, __x2w_v) in self.{rust}.iter().enumerate() {{ ::clayout::typed::put_string(buf, image_start, image_start + base + __x2w_off + __x2w_i * __x2w_esa.size, arch, __x2w_v, {wire:?})?; }} __x2w_off += __x2w_esa.size * {n}usize; }}\n"
            )),
            Kind::VecPrim(p) => {
                let put = elem_putter(
                    p,
                    "__x2w_r + __x2w_i * __x2w_esa.size",
                    &p.widen("*__x2w_v"),
                    wire,
                );
                out.push_str(&format!(
                    "            {{ let __x2w_sa = arch.pointer; __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_sa.align); let __x2w_esa = arch.primitive({}); if let ::std::option::Option::Some(__x2w_r) = ::clayout::typed::begin_dyn_region(buf, image_start, image_start + base + __x2w_off, arch, __x2w_esa.size, __x2w_esa.align, self.{rust}.len(), {wire:?})? {{ for (__x2w_i, __x2w_v) in self.{rust}.iter().enumerate() {{ {put} }} }} __x2w_off += __x2w_sa.size; }}\n",
                    p.variant_path()
                ));
                vec_fields.push(field);
            }
            Kind::VecStr => {
                out.push_str(&format!(
                    "            {{ let __x2w_sa = arch.pointer; __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_sa.align); let __x2w_esa = arch.pointer; if let ::std::option::Option::Some(__x2w_r) = ::clayout::typed::begin_dyn_region(buf, image_start, image_start + base + __x2w_off, arch, __x2w_esa.size, __x2w_esa.align, self.{rust}.len(), {wire:?})? {{ for (__x2w_i, __x2w_v) in self.{rust}.iter().enumerate() {{ ::clayout::typed::put_string(buf, image_start, __x2w_r + __x2w_i * __x2w_esa.size, arch, __x2w_v, {wire:?})?; }} }} __x2w_off += __x2w_sa.size; }}\n"
                ));
                vec_fields.push(field);
            }
            Kind::Nested(t) => out.push_str(&format!(
                "            {{ let (__x2w_s, __x2w_a) = <{t} as ::clayout::Xml2WireRecord>::layout_size_align(arch); __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_a); self.{rust}.encode_fields(buf, image_start, base + __x2w_off, arch)?; __x2w_off += __x2w_s; }}\n"
            )),
        }
    }
    for (field, count) in vec_fields.iter().zip(&input.counts) {
        out.push_str(&format!(
            "            {{ let __x2w_sa = arch.primitive(::clayout::Primitive::Int); __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_sa.align); ::clayout::typed::put_signed(buf, image_start + base + __x2w_off, __x2w_sa.size, __x2w_e, self.{}.len() as i64, {count:?})?; __x2w_off += __x2w_sa.size; }}\n",
            field.rust
        ));
    }
    out.push_str("            let _ = __x2w_off;\n            ::std::result::Result::Ok(())\n");
    out
}

fn gen_decode(input: &Input) -> String {
    if input.fields.is_empty() {
        return "            let _ = (payload, base, arch);\n            ::std::result::Result::Ok(Self {})\n".to_owned();
    }
    let mut out = String::from(
        "            let __x2w_e = arch.endianness;\n            let mut __x2w_off = 0usize;\n",
    );

    // Pass 1: field offsets (and slot sizes where the read needs them),
    // straight-line, in wire order — counts included so dyn-array reads
    // below can reach forward to them.
    let all = slots(input);
    for (i, slot) in all.iter().enumerate() {
        match slot {
            Slot::Nested(t) => out.push_str(&format!(
                "            let __x2w_o{i} = {{ let (__x2w_s, __x2w_a) = <{t} as ::clayout::Xml2WireRecord>::layout_size_align(arch); __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_a); let __x2w_o = __x2w_off; __x2w_off += __x2w_s; __x2w_o }};\n"
            )),
            Slot::Fixed { len, .. } => out.push_str(&format!(
                "            let (__x2w_o{i}, __x2w_s{i}) = {{ let __x2w_sa = {}; __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_sa.align); let __x2w_o = __x2w_off; __x2w_off += __x2w_sa.size * {len}usize; (__x2w_o, __x2w_sa.size) }};\n",
                sa_expr(slot)
            )),
            _ => out.push_str(&format!(
                "            let (__x2w_o{i}, __x2w_s{i}) = {{ let __x2w_sa = {}; __x2w_off = ::clayout::layout::align_up(__x2w_off, __x2w_sa.align); let __x2w_o = __x2w_off; __x2w_off += __x2w_sa.size; (__x2w_o, __x2w_sa.size) }};\n",
                sa_expr(slot)
            )),
        }
    }
    out.push_str("            let _ = __x2w_off;\n");

    // Pass 2: reads.
    let count_base = input.fields.len();
    let mut vec_seen = 0usize;
    for (i, field) in input.fields.iter().enumerate() {
        let wire = &field.wire;
        match &field.kind {
            Kind::Prim(p) => out.push_str(&format!(
                "            let __x2w_f{i} = {}(payload, base + __x2w_o{i}, __x2w_s{i}, __x2w_e, {wire:?})?{};\n",
                p.getter(),
                p.narrow()
            )),
            Kind::Str => out.push_str(&format!(
                "            let __x2w_f{i} = ::clayout::typed::read_str(payload, base + __x2w_o{i}, arch, {wire:?})?;\n"
            )),
            Kind::FixedPrim(p, n) => out.push_str(&format!(
                "            let __x2w_f{i} = {{ let mut __x2w_a = [{}; {n}usize]; for (__x2w_i, __x2w_slot) in __x2w_a.iter_mut().enumerate() {{ *__x2w_slot = {}(payload, base + __x2w_o{i} + __x2w_i * __x2w_s{i}, __x2w_s{i}, __x2w_e, {wire:?})?{}; }} __x2w_a }};\n",
                p.zero(),
                p.getter(),
                p.narrow()
            )),
            Kind::FixedStr(n) => out.push_str(&format!(
                "            let __x2w_f{i} = {{ let mut __x2w_v = ::std::vec::Vec::with_capacity({n}usize); for __x2w_i in 0..{n}usize {{ __x2w_v.push(::clayout::typed::read_str(payload, base + __x2w_o{i} + __x2w_i * __x2w_s{i}, arch, {wire:?})?); }} match <[::std::string::String; {n}usize] as ::std::convert::TryFrom<::std::vec::Vec<::std::string::String>>>::try_from(__x2w_v) {{ ::std::result::Result::Ok(__x2w_a) => __x2w_a, ::std::result::Result::Err(_) => ::std::unreachable!(), }} }};\n"
            )),
            Kind::VecPrim(p) => {
                let c = count_base + vec_seen;
                vec_seen += 1;
                out.push_str(&format!(
                    "            let __x2w_f{i} = {{ let __x2w_esa = arch.primitive({}); match ::clayout::typed::dyn_array_region(payload, base + __x2w_o{i}, base + __x2w_o{c}, __x2w_s{c}, __x2w_esa.size, arch, {wire:?}, \"{wire}_count\")? {{ ::std::option::Option::None => ::std::vec::Vec::new(), ::std::option::Option::Some((__x2w_r, __x2w_n)) => {{ let mut __x2w_v = ::std::vec::Vec::with_capacity(__x2w_n); for __x2w_i in 0..__x2w_n {{ __x2w_v.push({}(payload, __x2w_r + __x2w_i * __x2w_esa.size, __x2w_esa.size, __x2w_e, {wire:?})?{}); }} __x2w_v }} }} }};\n",
                    p.variant_path(),
                    p.getter(),
                    p.narrow()
                ));
            }
            Kind::VecStr => {
                let c = count_base + vec_seen;
                vec_seen += 1;
                out.push_str(&format!(
                    "            let __x2w_f{i} = {{ let __x2w_esa = arch.pointer; match ::clayout::typed::dyn_array_region(payload, base + __x2w_o{i}, base + __x2w_o{c}, __x2w_s{c}, __x2w_esa.size, arch, {wire:?}, \"{wire}_count\")? {{ ::std::option::Option::None => ::std::vec::Vec::new(), ::std::option::Option::Some((__x2w_r, __x2w_n)) => {{ let mut __x2w_v = ::std::vec::Vec::with_capacity(__x2w_n); for __x2w_i in 0..__x2w_n {{ __x2w_v.push(::clayout::typed::read_str(payload, __x2w_r + __x2w_i * __x2w_esa.size, arch, {wire:?})?); }} __x2w_v }} }} }};\n"
                ));
            }
            Kind::Nested(t) => out.push_str(&format!(
                "            let __x2w_f{i} = <{t} as ::clayout::Xml2WireRecord>::decode_fields(payload, base + __x2w_o{i}, arch)?;\n"
            )),
        }
    }

    out.push_str("            ::std::result::Result::Ok(Self {");
    for (i, field) in input.fields.iter().enumerate() {
        out.push_str(&format!(" {}: __x2w_f{i},", field.rust));
    }
    out.push_str(" })\n");
    out
}
