//! Compiling schema documents into the [`Schema`] model.
//!
//! There is one compiler, `Compiler`: a state machine fed start tags,
//! end tags and character data. It reads the attributes it needs
//! straight off the tokenizer's attribute slices and emits
//! [`ComplexType`] and [`SimpleType`] values directly — no DOM, no owned
//! copy of the document's markup. Two front-ends drive it:
//! [`parse_schema_str`] from [`xmlparse::Reader::next_borrowed`] over a
//! document already in memory, and [`parse_schema_stream`] from
//! [`xmlparse::StreamingReader`] over any [`std::io::Read`] at bounded
//! memory.
//!
//! A document must be well-formed before anything else is said about it:
//! the compiler holds on to the first schema-level problem while the
//! front-end reads the document to its end, so a malformed document is
//! reported as [`SchemaError::Xml`] whatever else is wrong with it.
//!
//! The in-memory front-end can also compile only what the document's
//! first complex type needs ([`crate::Schema::parse_reachable`]): the
//! same driver reads the whole document, but every later top-level
//! complex type is skipped where it stands — its name and where its
//! start tag is go into an index, and [`xmlparse::Reader::skip_element`]
//! checks its body without building events — and after the end of the
//! document the skipped types the first one transitively names are
//! compiled from there.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, RandomState};

use xmlparse::{Attribute, BorrowedAttr, BorrowedEvent, Event, Reader, StreamingReader};

use crate::datatypes::{is_xsd_namespace, XsdType};
use crate::error::SchemaError;
use crate::model::{ComplexType, ElementDecl, Facet, Occurs, Schema, SimpleType, TypeRef};

/// Parses a schema from its textual XML form.
///
/// # Errors
///
/// See [`SchemaError`].
pub fn parse_schema_str(input: &str) -> Result<Schema, SchemaError> {
    compile_str(input, Compiler::default())
}

/// Parses the closure of the document's first complex type. See
/// [`crate::Schema::parse_reachable`].
pub(crate) fn parse_reachable_str(input: &str) -> Result<Schema, SchemaError> {
    compile_str(input, Compiler { index: Some(Index::new()), ..Compiler::default() })
}

/// The in-memory driver: the whole document through `compiler`, then
/// whatever its index left for pass 2.
fn compile_str(input: &str, mut compiler: Compiler) -> Result<Schema, SchemaError> {
    let mut reader = Reader::new(input);
    while !compiler.pull(&mut reader)? {}
    compiler.finish(input)
}

/// Parses a schema from an incremental byte source at bounded peak
/// memory: one [`StreamingReader`] window (128 KiB unless a single tag
/// or text run is larger) plus the schema being built, however long the
/// document.
///
/// # Errors
///
/// See [`SchemaError`]. Error *kinds* match [`parse_schema_str`] on the
/// same bytes; XML error positions are window-relative.
pub fn parse_schema_stream<R: std::io::Read>(source: R) -> Result<Schema, SchemaError> {
    let mut reader = StreamingReader::new(source);
    let mut compiler = Compiler::default();
    loop {
        match &reader.next_event()? {
            Event::StartElement { name, attributes } => compiler.start(name, attributes, 0),
            Event::EndElement { .. } => compiler.end(),
            Event::Text(text) => compiler.text(text),
            Event::CData(text) => compiler.cdata(text),
            Event::Eof => return compiler.finish(""),
            _ => {}
        }
    }
}

/// An attribute as either reader hands it over.
trait Attr {
    fn name(&self) -> &str;
    fn value(&self) -> &str;
}

impl Attr for BorrowedAttr<'_> {
    fn name(&self) -> &str {
        self.name
    }
    fn value(&self) -> &str {
        &self.value
    }
}

impl Attr for Attribute {
    fn name(&self) -> &str {
        &self.name
    }
    fn value(&self) -> &str {
        &self.value
    }
}

fn attr<'e, A: Attr>(attrs: &'e [A], name: &str) -> Option<&'e str> {
    attrs.iter().find(|a| a.name() == name).map(Attr::value)
}

fn missing(element: impl Into<String>, attribute: &str) -> SchemaError {
    SchemaError::MissingAttribute { element: element.into(), attribute: attribute.to_owned() }
}

/// What the compiler is inside of: one entry per open element.
#[derive(Clone, Copy)]
enum Open {
    /// The `xsd:schema` root.
    Schema,
    /// An `xsd:annotation` of the schema or of the open complex type.
    Annotation,
    /// The first `documentation` child of an annotation, or anything
    /// below it: character data here is the documentation text.
    Documentation,
    /// An `xsd:complexType`.
    ComplexType,
    /// An `xsd:sequence` / `xsd:all` wrapper inside a complex type.
    Wrapper,
    /// An `xsd:simpleType`.
    SimpleType,
    /// The first `restriction` child of a simple type; its children are
    /// facets.
    Restriction,
    /// A subtree the dialect has no use for (the children of an
    /// `xsd:element`, unknown top-level declarations, ...).
    Ignored,
}

/// Element counts up to this are checked for a repeated name by
/// scanning.
const NAME_SCAN_LIMIT: usize = 32;

/// Pass-1 state of a reachable-only compile: the top-level complex types
/// met so far, by name — their position among the document's complex
/// types and, while skipped and not yet compiled, the offset of their
/// start tag. The map is also what catches a name declared twice
/// anywhere in the document.
type Index = HashMap<Box<str>, (usize, Option<usize>)>;

/// Indexes the complex type `name` whose start tag is at `at`; whether
/// to compile it now (it is the first, the root) or skip it.
fn admit(index: &mut Index, name: &str, at: usize) -> Result<bool, SchemaError> {
    let now = index.is_empty();
    if index.insert(name.into(), (index.len(), (!now).then_some(at))).is_some() {
        return Err(SchemaError::DuplicateType { name: name.to_owned() });
    }
    Ok(now)
}

/// The schema compiler. Fed events in document order; [`finish`] hands
/// the schema over or reports the first thing that was wrong with it.
///
/// [`finish`]: Compiler::finish
#[derive(Default)]
struct Compiler {
    /// `Some` when only the first complex type's closure is wanted;
    /// every complex type is compiled where it stands otherwise.
    index: Option<Index>,
    schema: Schema,
    open: Vec<Open>,
    /// Namespace declarations in scope, outermost first: the depth of
    /// the declaring element, the prefix (`""` for the default
    /// namespace) and whether the URI is an XML Schema namespace — the
    /// one thing the compiler ever asks about a namespace, answered once
    /// per declaration rather than once per element. Only elements that
    /// declare something add entries.
    bindings: Vec<(usize, Box<str>, bool)>,
    /// The open complex type; its element declarations collect in
    /// `elements` and move into an exactly sized vector when it closes.
    complex: Option<ComplexType>,
    elements: Vec<ElementDecl>,
    /// Hashes of `elements`' names, kept only while the open type has
    /// more than [`NAME_SCAN_LIMIT`] of them; pooled across types.
    element_names: HashSet<u64>,
    name_hasher: RandomState,
    /// The open simple type: its name, the base and facets once its
    /// restriction has been seen, and the enumeration values so far.
    simple_name: String,
    restriction: Option<(XsdType, Vec<Facet>)>,
    enumeration: Vec<String>,
    /// Text of the open annotation's documentation, if it has any.
    documentation: Option<String>,
    /// The first schema-level problem; nothing is compiled after it.
    failed: Option<SchemaError>,
}

impl Compiler {
    /// Feeds the in-memory reader's next event; whether it was the end of
    /// the document. An element the compiler has no use for is read to
    /// its end right away by [`Reader::skip_element`], which checks it as
    /// the events would have been checked but builds none of them: every
    /// skipped complex type and every `xsd:element` body goes that way.
    fn pull(&mut self, reader: &mut Reader<'_>) -> Result<bool, xmlparse::XmlError> {
        let at = reader.offset();
        match &reader.next_borrowed()? {
            BorrowedEvent::StartElement { name, attributes } => self.start(name, attributes, at),
            BorrowedEvent::EndElement { .. } => self.end(),
            BorrowedEvent::Text(text) => self.text(text),
            BorrowedEvent::CData(text) => self.cdata(text),
            BorrowedEvent::Eof => return Ok(true),
            _ => {}
        }
        if self.failed.is_none() && matches!(self.open.last(), Some(Open::Ignored)) {
            reader.skip_element()?;
            self.end();
        }
        Ok(false)
    }

    /// A start tag, which begins at byte `at` of the document.
    fn start<A: Attr>(&mut self, name: &str, attrs: &[A], at: usize) {
        if self.failed.is_some() {
            return;
        }
        match self.enter(name, attrs, at) {
            Ok(open) => self.open.push(open),
            Err(e) => self.failed = Some(e),
        }
    }

    fn end(&mut self) {
        if self.failed.is_some() {
            return;
        }
        let closed = self.open.pop();
        // The schema element's own declarations stay: pass 2 compiles
        // skipped types in their scope.
        while self.bindings.last().is_some_and(|b| b.0 == self.open.len() && b.0 > 0) {
            self.bindings.pop();
        }
        if let Err(e) = self.leave(closed) {
            self.failed = Some(e);
        }
    }

    /// Character data. Whitespace-only runs between markup are
    /// indentation, not documentation.
    fn text(&mut self, text: &str) {
        if !text.bytes().all(|b| b.is_ascii_whitespace()) {
            self.cdata(text);
        }
    }

    fn cdata(&mut self, text: &str) {
        if let (Some(Open::Documentation), Some(doc)) = (self.open.last(), &mut self.documentation) {
            doc.push_str(text);
        }
    }

    /// The document `input` ended (well-formed): compile what pass 1
    /// skipped but the root needs, then resolve what was compiled.
    fn finish(mut self, input: &str) -> Result<Schema, SchemaError> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        if let Some(index) = self.index.take() {
            self.compile_closure(index, input)?;
        }
        let mut schema = self.schema;
        rewrite_simple_refs(&mut schema);
        resolve_schema(&schema)?;
        Ok(schema)
    }

    /// Pass 2: compiles every skipped type that a compiled one names —
    /// the root's transitive closure — and puts the compiled types in
    /// document order. A name that matches a simple type is a reference
    /// to that simple type, as [`rewrite_simple_refs`] decides.
    fn compile_closure(&mut self, mut index: Index, input: &str) -> Result<(), SchemaError> {
        // Indices, not iterators: compiling a skipped type pushes it onto
        // `complex_types`, where this loop then reads its references too.
        let mut next = 0;
        while next < self.schema.complex_types.len() {
            for e in 0..self.schema.complex_types[next].elements.len() {
                let TypeRef::Named(target) = &self.schema.complex_types[next].elements[e].type_ref
                else {
                    continue;
                };
                if self.schema.simple_type(target).is_some() {
                    continue;
                }
                if let Some(at) = index.get_mut(target.as_str()).and_then(|t| t.1.take()) {
                    self.compile_skipped(&input[at..])?;
                }
            }
            next += 1;
        }
        self.schema.complex_types.sort_unstable_by_key(|ty| index[ty.name.as_str()].0);
        Ok(())
    }

    /// Compiles the one complex type `fragment` starts with, in the scope
    /// of the schema element's namespace declarations, and stops reading
    /// where it closes. Pass 1 read these bytes already, so they are
    /// well-formed.
    fn compile_skipped(&mut self, fragment: &str) -> Result<(), SchemaError> {
        let mut reader = Reader::new(fragment);
        self.open.push(Open::Schema);
        loop {
            let eof = self.pull(&mut reader)?;
            if let Some(e) = self.failed.take() {
                return Err(e);
            }
            if eof || self.open.len() == 1 {
                break;
            }
        }
        self.open.pop();
        Ok(())
    }

    /// Whether an element name with this prefix is in an XML Schema
    /// namespace. Undeclared conventional prefixes are tolerated; real
    /// documents from the paper's era were frequently sloppy about this.
    fn element_is_xsd(&self, prefix: Option<&str>) -> bool {
        self.binding(prefix.unwrap_or(""))
            .unwrap_or(matches!(prefix, None | Some("xsd" | "xs")))
    }

    fn binding(&self, prefix: &str) -> Option<bool> {
        self.bindings.iter().rev().find(|b| *b.1 == *prefix).map(|b| b.2)
    }

    /// Handles a start tag at byte `at`: what kind of element it opens,
    /// given what it is inside of. Everything a declaration says is in
    /// its attributes, so `xsd:element` and the facets are compiled right
    /// here.
    fn enter<A: Attr>(&mut self, name: &str, attrs: &[A], at: usize) -> Result<Open, SchemaError> {
        // Nothing below an ignored element is read, so its namespace
        // declarations need not be either.
        if let Some(Open::Ignored) = self.open.last() {
            return Ok(Open::Ignored);
        }
        for a in attrs {
            let prefix = match a.name().strip_prefix("xmlns") {
                Some("") => "",
                Some(rest) => match rest.strip_prefix(':') {
                    Some(prefix) if !prefix.is_empty() => prefix,
                    _ => continue,
                },
                None => continue,
            };
            self.bindings.push((self.open.len(), prefix.into(), is_xsd_namespace(a.value())));
        }
        let (prefix, local) = xmlparse::qname::split(name);
        let Some(&parent) = self.open.last() else {
            if local != "schema" || !self.element_is_xsd(prefix) {
                return Err(SchemaError::NotASchema { found: name.to_owned() });
            }
            self.schema.target_namespace = attr(attrs, "targetNamespace").map(str::to_owned);
            return Ok(Open::Schema);
        };
        Ok(match parent {
            // This is a subset processor: top-level declarations other
            // than these are skipped, as the paper's tool skipped them.
            Open::Schema => match local {
                "annotation" if self.element_is_xsd(prefix) => self.enter_annotation(),
                "complexType" if self.element_is_xsd(prefix) => {
                    let type_name = attr(attrs, "name").ok_or_else(|| missing(name, "name"))?;
                    if let Some(index) = &mut self.index {
                        if !admit(index, type_name, at)? {
                            return Ok(Open::Ignored);
                        }
                    }
                    self.complex = Some(ComplexType::new(type_name, Vec::new()));
                    Open::ComplexType
                }
                "simpleType" if self.element_is_xsd(prefix) => {
                    let type_name = attr(attrs, "name").ok_or_else(|| missing(name, "name"))?;
                    type_name.clone_into(&mut self.simple_name);
                    self.restriction = None;
                    Open::SimpleType
                }
                _ => Open::Ignored,
            },
            Open::ComplexType | Open::Wrapper => match local {
                "annotation" if self.element_is_xsd(prefix) => self.enter_annotation(),
                "sequence" | "all" if self.element_is_xsd(prefix) => Open::Wrapper,
                "element" if self.element_is_xsd(prefix) => {
                    let decl = self.element_decl(name, attrs)?;
                    if self.repeats_a_sibling(&decl.name) {
                        return Err(SchemaError::DuplicateElement {
                            complex_type: self.complex_name().to_owned(),
                            element: decl.name,
                        });
                    }
                    self.elements.push(decl);
                    Open::Ignored
                }
                other => {
                    return Err(SchemaError::Invalid {
                        detail: format!(
                            "unsupported construct <{other}> inside complexType {:?}",
                            self.complex_name()
                        ),
                    })
                }
            },
            Open::Annotation if local == "documentation" && self.documentation.is_none() => {
                self.documentation = Some(String::new());
                Open::Documentation
            }
            Open::Documentation => Open::Documentation,
            // Only restriction is supported, and only the first one counts.
            Open::SimpleType if local == "restriction" && self.restriction.is_none() => {
                self.restriction = Some(self.restriction_base(attrs)?);
                Open::Restriction
            }
            Open::Restriction => {
                self.facet(name, local, attrs)?;
                Open::Ignored
            }
            Open::Annotation | Open::SimpleType | Open::Ignored => Open::Ignored,
        })
    }

    /// Whether the open type already declares an element called `name`.
    /// A scan while the type is small (allocation-free, and faster than
    /// hashing on the types messages actually have); past
    /// [`NAME_SCAN_LIMIT`] siblings a set of name hashes answers, and a
    /// hash seen before is confirmed by the scan (the hasher is randomly
    /// keyed, so names cannot be crafted to collide).
    fn repeats_a_sibling(&mut self, name: &str) -> bool {
        let scan = |elements: &[ElementDecl]| elements.iter().any(|e| e.name == name);
        if self.elements.len() < NAME_SCAN_LIMIT {
            return scan(&self.elements);
        }
        if self.elements.len() == NAME_SCAN_LIMIT {
            self.element_names.clear();
            let hashes = self.elements.iter().map(|e| self.name_hasher.hash_one(&e.name));
            self.element_names.extend(hashes);
        }
        !self.element_names.insert(self.name_hasher.hash_one(name)) && scan(&self.elements)
    }

    fn enter_annotation(&mut self) -> Open {
        self.documentation = None;
        Open::Annotation
    }

    /// Handles the end tag of `closed`; `self.open` is already back to
    /// its parent.
    fn leave(&mut self, closed: Option<Open>) -> Result<(), SchemaError> {
        match closed {
            Some(Open::Annotation) => {
                let text = self.documentation.take();
                let text = text.map(|t| t.trim().to_owned()).filter(|t| !t.is_empty());
                match (self.open.last(), &mut self.complex) {
                    (Some(Open::Schema), _) => self.schema.documentation = text,
                    (_, Some(ty)) if ty.documentation.is_none() => ty.documentation = text,
                    _ => {}
                }
                Ok(())
            }
            Some(Open::ComplexType) => {
                let mut ty = self.complex.take().expect("a complex type is open");
                ty.elements = self.elements.drain(..).collect();
                self.schema.add_complex_type(ty)
            }
            Some(Open::SimpleType) => {
                let name = std::mem::take(&mut self.simple_name);
                let (base, mut facets) =
                    self.restriction.take().ok_or_else(|| SchemaError::Invalid {
                        detail: format!(
                            "simpleType {name:?} has no <restriction> (only restriction is supported)"
                        ),
                    })?;
                let own = std::mem::take(&mut self.enumeration);
                if let Some(values) = enumeration(&name, &mut facets, own)? {
                    facets.push(Facet::Enumeration(values));
                }
                // Skipped complex types are in the index, not the schema.
                if self.index.as_ref().is_some_and(|i| i.contains_key(name.as_str())) {
                    return Err(SchemaError::DuplicateType { name });
                }
                self.schema.add_simple_type(SimpleType { name, base, facets })
            }
            _ => Ok(()),
        }
    }

    fn complex_name(&self) -> &str {
        self.complex.as_ref().map_or("", |ty| &ty.name)
    }

    /// Compiles one `<xsd:element name=".." type=".." [minOccurs] [maxOccurs]/>`.
    fn element_decl<A: Attr>(&self, tag: &str, attrs: &[A]) -> Result<ElementDecl, SchemaError> {
        let (mut name, mut type_attr, mut min, mut max) = (None, None, None, None);
        for a in attrs {
            match a.name() {
                "name" => name = Some(a.value()),
                "type" => type_attr = Some(a.value()),
                "minOccurs" => min = Some(a.value()),
                "maxOccurs" => max = Some(a.value()),
                _ => {}
            }
        }
        let name = name.ok_or_else(|| missing(tag, "name"))?;
        let type_attr =
            type_attr.ok_or_else(|| missing(format!("{tag} name=\"{name}\""), "type"))?;
        let type_ref = self.resolve_type_ref(type_attr, name)?;
        let occurs = parse_occurs(min, max, name)?;
        Ok(ElementDecl { name: name.to_owned(), type_ref, occurs })
    }

    /// Resolves the `base` of the open simple type's restriction: a
    /// primitive, or a previously defined simple type (facets accumulate
    /// and the base bottoms out at the primitive).
    fn restriction_base<A: Attr>(&self, attrs: &[A]) -> Result<(XsdType, Vec<Facet>), SchemaError> {
        let name = &self.simple_name;
        let base_attr = attr(attrs, "base")
            .ok_or_else(|| missing(format!("restriction in simpleType {name:?}"), "base"))?;
        match self.resolve_type_ref(base_attr, name)? {
            TypeRef::Primitive(p) => Ok((p, Vec::new())),
            TypeRef::Named(base) | TypeRef::Simple(base) => match self.schema.simple_type(&base) {
                Some(parent) => Ok((parent.base, parent.facets.clone())),
                None => Err(SchemaError::UnknownType {
                    element: format!("simpleType {name}"),
                    type_name: base_attr.to_owned(),
                }),
            },
        }
    }

    /// Compiles one facet of the open restriction.
    fn facet<A: Attr>(&mut self, tag: &str, local: &str, attrs: &[A]) -> Result<(), SchemaError> {
        let name = &self.simple_name;
        let value = || attr(attrs, "value").ok_or_else(|| missing(tag, "value"));
        let numeric = |v: &str| {
            v.trim().parse::<f64>().map_err(|_| SchemaError::Invalid {
                detail: format!("facet <{tag}> of simpleType {name:?} has non-numeric value {v:?}"),
            })
        };
        let length = |v: &str| {
            v.trim().parse::<usize>().map_err(|_| SchemaError::Invalid {
                detail: format!("facet <{tag}> of simpleType {name:?} has non-integer value {v:?}"),
            })
        };
        let facet = match local {
            "minInclusive" => Facet::MinInclusive(numeric(value()?)?),
            "maxInclusive" => Facet::MaxInclusive(numeric(value()?)?),
            "minExclusive" => Facet::MinExclusive(numeric(value()?)?),
            "maxExclusive" => Facet::MaxExclusive(numeric(value()?)?),
            "minLength" => Facet::MinLength(length(value()?)?),
            "maxLength" => Facet::MaxLength(length(value()?)?),
            "enumeration" => {
                self.enumeration.push(value()?.to_owned());
                return Ok(());
            }
            "annotation" => return Ok(()),
            other => {
                return Err(SchemaError::Invalid {
                    detail: format!("unsupported facet <{other}> in simpleType {name:?}"),
                })
            }
        };
        let (_, facets) = self.restriction.as_mut().expect("a restriction is open");
        facets.push(facet);
        Ok(())
    }

    fn resolve_type_ref(&self, type_attr: &str, element: &str) -> Result<TypeRef, SchemaError> {
        let (prefix, local) = xmlparse::qname::split(type_attr);
        // Unprefixed type names reference user-defined types, as in the
        // paper's `type="ASDOffEvent"`.
        let is_xsd = prefix.is_some_and(|p| self.binding(p).unwrap_or(p == "xsd" || p == "xs"));
        if is_xsd {
            XsdType::from_name(local).map(TypeRef::Primitive).ok_or_else(|| {
                SchemaError::UnknownType {
                    element: element.to_owned(),
                    type_name: type_attr.to_owned(),
                }
            })
        } else {
            Ok(TypeRef::Named(local.to_owned()))
        }
    }
}

/// Element type references are compiled as `Named`; those that match a
/// user-defined simple type are really `Simple` references.
fn rewrite_simple_refs(schema: &mut Schema) {
    let Schema { simple_types, complex_types, .. } = schema;
    if simple_types.is_empty() {
        return;
    }
    for el in complex_types.iter_mut().flat_map(|ty| &mut ty.elements) {
        if let TypeRef::Named(name) = &mut el.type_ref {
            if simple_types.iter().any(|s| s.name == *name) {
                el.type_ref = TypeRef::Simple(std::mem::take(name));
            }
        }
    }
}

fn parse_occurs(min: Option<&str>, max: Option<&str>, name: &str) -> Result<Occurs, SchemaError> {
    let Some(max) = max else {
        // No maxOccurs: scalar regardless of minOccurs (minOccurs="0"
        // optionality is not representable in a C struct; treat as 1).
        return Ok(Occurs::Scalar);
    };
    if max == "*" || max == "unbounded" {
        return Ok(Occurs::Unbounded);
    }
    if let Ok(n) = max.parse::<usize>() {
        if n == 0 {
            return Err(SchemaError::BadOccurs {
                element: name.to_owned(),
                detail: "maxOccurs=\"0\" declares no storage".to_owned(),
            });
        }
        // A fixed array must be genuinely fixed: when minOccurs is also
        // numeric it must agree, otherwise the length is not static.
        if let Some(min) = min {
            if let Ok(m) = min.parse::<usize>() {
                if m != n && n != 1 {
                    return Err(SchemaError::BadOccurs {
                        element: name.to_owned(),
                        detail: format!(
                            "minOccurs={m} differs from numeric maxOccurs={n}; \
                             use maxOccurs=\"*\" or a count-field name for variable arrays"
                        ),
                    });
                }
            }
        }
        return Ok(if n == 1 { Occurs::Scalar } else { Occurs::Fixed(n) });
    }
    // A non-numeric, non-wildcard maxOccurs names the count element
    // (paper §4.1.1: "if the value is a string, an element of type
    // xsd:integer with an identical name attribute must be present").
    Ok(Occurs::CountField(max.to_owned()))
}

/// A simple type's one enumeration, taken out of `facets` (what its
/// base passed down) and merged with its `own` values: a value must be in
/// both lists, so the merged list is the own values the base's list also
/// has. The caller puts it after the other facets, where the writer
/// writes it, so a written schema reads back as the same one.
///
/// # Errors
///
/// A type whose own values are all outside its base's enumeration: it
/// admits no value at all.
fn enumeration(
    name: &str,
    facets: &mut Vec<Facet>,
    mut own: Vec<String>,
) -> Result<Option<Vec<String>>, SchemaError> {
    let inherited = facets.iter().position(|f| matches!(f, Facet::Enumeration(_)));
    let Some(Facet::Enumeration(base)) = inherited.map(|at| facets.remove(at)) else {
        return Ok((!own.is_empty()).then_some(own));
    };
    if own.is_empty() {
        return Ok(Some(base));
    }
    own.retain(|value| base.contains(value));
    if own.is_empty() {
        return Err(SchemaError::Invalid {
            detail: format!(
                "simpleType {name:?} admits no value: none of its enumeration values is in its \
                 base's enumeration"
            ),
        });
    }
    Ok(Some(own))
}

/// Verifies cross-type constraints over a complete schema: unique type
/// names, resolvable references, integer count fields, and no recursion.
///
/// # Errors
///
/// See [`SchemaError`].
pub fn resolve_schema(schema: &Schema) -> Result<(), SchemaError> {
    // Unique type names.
    let mut by_name: HashMap<&str, &ComplexType> = HashMap::new();
    for ty in &schema.complex_types {
        if by_name.insert(ty.name.as_str(), ty).is_some() {
            return Err(SchemaError::DuplicateType { name: ty.name.clone() });
        }
    }

    for ty in &schema.complex_types {
        for el in &ty.elements {
            match &el.type_ref {
                TypeRef::Named(target) => {
                    if !by_name.contains_key(target.as_str()) {
                        return Err(SchemaError::UnknownType {
                            element: format!("{}.{}", ty.name, el.name),
                            type_name: target.clone(),
                        });
                    }
                }
                TypeRef::Simple(target) => {
                    if schema.simple_type(target).is_none() {
                        return Err(SchemaError::UnknownType {
                            element: format!("{}.{}", ty.name, el.name),
                            type_name: target.clone(),
                        });
                    }
                }
                TypeRef::Primitive(_) => {}
            }
            if let Occurs::CountField(count) = &el.occurs {
                match ty.element(count) {
                    None => {
                        return Err(SchemaError::BadCountReference {
                            element: el.name.to_string(),
                            count: count.clone(),
                            reason: "no element of that name in the same complex type",
                        })
                    }
                    Some(count_el) => {
                        let integer_typed = match &count_el.type_ref {
                            TypeRef::Primitive(p) => p.is_integer(),
                            TypeRef::Simple(s) => schema
                                .simple_type(s)
                                .is_some_and(|st| st.base.is_integer()),
                            TypeRef::Named(_) => false,
                        };
                        let ok = integer_typed && count_el.occurs == Occurs::Scalar;
                        if !ok {
                            return Err(SchemaError::BadCountReference {
                                element: el.name.to_string(),
                                count: count.clone(),
                                reason: "count element must be a scalar integer",
                            });
                        }
                    }
                }
            }
        }
    }

    // Cycle detection over named references.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    fn visit<'s>(
        name: &'s str,
        by_name: &HashMap<&str, &'s ComplexType>,
        marks: &mut HashMap<&'s str, Mark>,
    ) -> Result<(), SchemaError> {
        match marks.get(name).copied().unwrap_or(Mark::White) {
            Mark::Black => return Ok(()),
            Mark::Grey => return Err(SchemaError::RecursiveType { name: name.to_owned() }),
            Mark::White => {}
        }
        marks.insert(name, Mark::Grey);
        if let Some(ty) = by_name.get(name) {
            for el in &ty.elements {
                if let TypeRef::Named(target) = &el.type_ref {
                    visit(target, by_name, marks)?;
                }
            }
        }
        marks.insert(name, Mark::Black);
        Ok(())
    }
    let mut marks = HashMap::new();
    for ty in &schema.complex_types {
        visit(&ty.name, &by_name, &mut marks)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both front-ends compile the same schema value, on real and
    /// generated schema sets.
    #[test]
    fn streaming_matches_whole_document_parse() {
        let by_str = parse_schema_str(FIGURE_9).unwrap();
        let by_stream = parse_schema_stream(FIGURE_9.as_bytes()).unwrap();
        assert_eq!(by_str, by_stream);

        // A multi-type generated set with annotations and simple types.
        let mut doc = String::from(
            "<?xml version=\"1.0\"?>\n\
             <xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"\n\
                         targetNamespace=\"urn:stream-test\">\n\
             <xsd:annotation><xsd:documentation>generated</xsd:documentation></xsd:annotation>\n\
             <xsd:simpleType name=\"Code\"><xsd:restriction base=\"xsd:string\">\
             <xsd:maxLength value=\"8\"/></xsd:restriction></xsd:simpleType>\n",
        );
        for t in 0..40 {
            doc.push_str(&format!("<xsd:complexType name=\"T{t}\">"));
            for f in 0..25 {
                doc.push_str(&format!(
                    "<xsd:element name=\"field{f}\" type=\"xsd:string\"/>"
                ));
            }
            doc.push_str("<xsd:element name=\"code\" type=\"Code\"/>");
            doc.push_str("</xsd:complexType>\n");
        }
        doc.push_str("</xsd:schema>\n");
        let by_str = parse_schema_str(&doc).unwrap();
        let by_stream = parse_schema_stream(doc.as_bytes()).unwrap();
        assert_eq!(by_str, by_stream);
        assert_eq!(by_stream.complex_types.len(), 40);
        assert_eq!(by_stream.simple_types.len(), 1);
    }

    /// Malformed inputs fail through the streaming front-end with the
    /// same error classification as through the in-memory one.
    #[test]
    fn streaming_matches_whole_document_errors() {
        // The last case is doubly invalid — a schema-level defect and,
        // after it, malformed XML: both front-ends read to the end and
        // report the document as not well-formed.
        let cases = [
            "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\">\
             <xsd:complexType name=\"T\"/>",
            "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\">\
             <xsd:complexType/></xsd:schema>",
            "<notaschema/>",
            "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\">\
             <xsd:complexType name=\"T\"><xsd:element name=\"f\" type=\"xsd:nosuch\"/>\
             </xsd:complexType></xsd:schema>",
            "junk",
            "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\">\
             <xsd:complexType/><unclosed></xsd:schema>",
        ];
        assert!(matches!(parse_schema_str(cases[5]), Err(SchemaError::Xml(_))));
        for doc in cases {
            let by_str = parse_schema_str(doc).unwrap_err();
            let by_stream = parse_schema_stream(doc.as_bytes()).unwrap_err();
            assert_eq!(
                std::mem::discriminant(&by_str),
                std::mem::discriminant(&by_stream),
                "error classes diverge on {doc:?}: {by_str:?} vs {by_stream:?}"
            );
        }
    }

    /// The paper's Figure 9 schema (Structure B), verbatim apart from the
    /// URL whitespace glitch in the original listing.
    const FIGURE_9: &str = r#"<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="http://www.cc.gatech.edu/~pmw/schemas">
  <xsd:annotation>
    <xsd:documentation>
      ASDOff
    </xsd:documentation>
  </xsd:annotation>
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" minOccurs="5" maxOccurs="5" />
    <xsd:element name="eta" type="xsd:unsigned-long" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>"#;

    #[test]
    fn parses_the_papers_figure_9() {
        let schema = parse_schema_str(FIGURE_9).unwrap();
        assert_eq!(
            schema.target_namespace.as_deref(),
            Some("http://www.cc.gatech.edu/~pmw/schemas")
        );
        assert_eq!(schema.documentation.as_deref(), Some("ASDOff"));
        let ty = schema.complex_type("ASDOffEvent").unwrap();
        assert_eq!(ty.elements.len(), 8);
        assert_eq!(ty.element("off").unwrap().occurs, Occurs::Fixed(5));
        assert_eq!(ty.element("eta").unwrap().occurs, Occurs::Unbounded);
        assert_eq!(
            ty.element("fltNum").unwrap().type_ref,
            TypeRef::Primitive(XsdType::Integer)
        );
        assert_eq!(
            ty.element("off").unwrap().type_ref,
            TypeRef::Primitive(XsdType::UnsignedLong)
        );
    }

    #[test]
    fn parses_nested_composition_figure_12() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string"/>
  </xsd:complexType>
  <xsd:complexType name="threeASDOffs">
    <xsd:element name="one" type="ASDOffEvent"/>
    <xsd:element name="bart" type="xsd:double"/>
    <xsd:element name="two" type="ASDOffEvent"/>
    <xsd:element name="lisa" type="xsd:double"/>
    <xsd:element name="three" type="ASDOffEvent"/>
  </xsd:complexType>
</xsd:schema>"#;
        let schema = parse_schema_str(doc).unwrap();
        let ty = schema.complex_type("threeASDOffs").unwrap();
        assert_eq!(ty.element("one").unwrap().type_ref, TypeRef::Named("ASDOffEvent".into()));
        assert_eq!(
            ty.element("bart").unwrap().type_ref,
            TypeRef::Primitive(XsdType::Double)
        );
    }

    #[test]
    fn count_field_max_occurs_is_recognized() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="eta" type="xsd:unsignedLong" maxOccurs="eta_count"/>
    <xsd:element name="eta_count" type="xsd:integer"/>
  </xsd:complexType>
</xsd:schema>"#;
        let schema = parse_schema_str(doc).unwrap();
        let ty = schema.complex_type("T").unwrap();
        assert_eq!(ty.element("eta").unwrap().occurs, Occurs::CountField("eta_count".into()));
    }

    #[test]
    fn count_field_must_exist() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="eta" type="xsd:unsignedLong" maxOccurs="missing"/>
  </xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(
            parse_schema_str(doc),
            Err(SchemaError::BadCountReference { .. })
        ));
    }

    #[test]
    fn count_field_must_be_integer() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="eta" type="xsd:unsignedLong" maxOccurs="n"/>
    <xsd:element name="n" type="xsd:string"/>
  </xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(
            parse_schema_str(doc),
            Err(SchemaError::BadCountReference { reason, .. })
                if reason.contains("integer")
        ));
    }

    #[test]
    fn unknown_named_type_is_rejected() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="x" type="NoSuch"/>
  </xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(parse_schema_str(doc), Err(SchemaError::UnknownType { .. })));
    }

    #[test]
    fn unknown_primitive_is_rejected() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="x" type="xsd:quaternion"/>
  </xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(parse_schema_str(doc), Err(SchemaError::UnknownType { .. })));
    }

    #[test]
    fn recursive_types_are_rejected() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="A">
    <xsd:element name="b" type="B"/>
  </xsd:complexType>
  <xsd:complexType name="B">
    <xsd:element name="a" type="A"/>
  </xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(parse_schema_str(doc), Err(SchemaError::RecursiveType { .. })));
    }

    #[test]
    fn self_recursion_is_rejected() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="A">
    <xsd:element name="next" type="A"/>
  </xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(parse_schema_str(doc), Err(SchemaError::RecursiveType { .. })));
    }

    #[test]
    fn forward_references_resolve() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Outer">
    <xsd:element name="in" type="Inner"/>
  </xsd:complexType>
  <xsd:complexType name="Inner">
    <xsd:element name="x" type="xsd:int"/>
  </xsd:complexType>
</xsd:schema>"#;
        assert!(parse_schema_str(doc).is_ok());
    }

    #[test]
    fn sequence_wrapper_is_descended() {
        let doc = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="x" type="xs:int"/>
      <xs:element name="y" type="xs:int"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>"#;
        let schema = parse_schema_str(doc).unwrap();
        assert_eq!(schema.complex_type("T").unwrap().elements.len(), 2);
    }

    #[test]
    fn non_schema_root_is_rejected() {
        assert!(matches!(
            parse_schema_str("<not-a-schema/>"),
            Err(SchemaError::NotASchema { .. })
        ));
    }

    #[test]
    fn duplicate_elements_are_rejected() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="x" type="xsd:int"/>
    <xsd:element name="x" type="xsd:int"/>
  </xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(
            parse_schema_str(doc),
            Err(SchemaError::DuplicateElement { .. })
        ));
    }

    #[test]
    fn duplicate_types_are_rejected() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T"><xsd:element name="x" type="xsd:int"/></xsd:complexType>
  <xsd:complexType name="T"><xsd:element name="y" type="xsd:int"/></xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(parse_schema_str(doc), Err(SchemaError::DuplicateType { .. })));
    }

    #[test]
    fn missing_type_attribute_is_rejected() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T"><xsd:element name="x"/></xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(
            parse_schema_str(doc),
            Err(SchemaError::MissingAttribute { .. })
        ));
    }

    #[test]
    fn mismatched_fixed_occurs_is_rejected() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="x" type="xsd:int" minOccurs="2" maxOccurs="7"/>
  </xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(parse_schema_str(doc), Err(SchemaError::BadOccurs { .. })));
    }

    #[test]
    fn max_occurs_one_is_scalar() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="x" type="xsd:int" minOccurs="1" maxOccurs="1"/>
  </xsd:complexType>
</xsd:schema>"#;
        let schema = parse_schema_str(doc).unwrap();
        assert_eq!(schema.complex_type("T").unwrap().element("x").unwrap().occurs, Occurs::Scalar);
    }

    #[test]
    fn malformed_xml_is_reported_as_xml_error() {
        assert!(matches!(parse_schema_str("<xsd:schema"), Err(SchemaError::Xml(_))));
    }

    #[test]
    fn unsupported_construct_inside_complex_type_is_rejected() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T"><xsd:attribute name="x" type="xsd:int"/></xsd:complexType>
</xsd:schema>"#;
        assert!(matches!(parse_schema_str(doc), Err(SchemaError::Invalid { .. })));
    }
}
