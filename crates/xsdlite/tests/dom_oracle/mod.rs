//! The differential oracle for the schema compiler: the DOM-walking
//! compile that `xsdlite::parser` used before it was rewritten over
//! borrowed events, kept as it was but for the tree type and the
//! namespace resolver, which lives below now that nothing in the library
//! walks a tree with namespace scopes. It builds a whole
//! [`xmlparse::Element`] tree first and walks it, which is slow and
//! simple — what an oracle should be.

use xmlparse::qname;
use xmlparse::Element;

use xsdlite::datatypes::{is_xsd_namespace, XsdType};
use xsdlite::model::{Facet, SimpleType};
use xsdlite::{ComplexType, ElementDecl, Occurs, Schema, SchemaError, TypeRef};

/// In-scope namespace declarations: push an element's `xmlns` and
/// `xmlns:prefix` attributes on entering it, pop them on leaving it.
#[derive(Default)]
struct NamespaceResolver<'t> {
    /// Declarations, outermost first; a `None` prefix is the default
    /// namespace.
    bindings: Vec<(Option<&'t str>, &'t str)>,
    /// `bindings.len()` on entry to each open scope.
    scopes: Vec<usize>,
}

impl<'t> NamespaceResolver<'t> {
    fn push_scope(&mut self, element: &'t Element<'_>) {
        self.scopes.push(self.bindings.len());
        for attr in &element.attributes {
            if attr.name == "xmlns" {
                self.bindings.push((None, attr.value.as_ref()));
            } else if let Some(prefix) = attr.name.strip_prefix("xmlns:") {
                self.bindings.push((Some(prefix), attr.value.as_ref()));
            }
        }
    }

    fn pop_scope(&mut self) {
        let mark = self.scopes.pop().expect("pop_scope without matching push_scope");
        self.bindings.truncate(mark);
    }

    /// The URI bound to `prefix` (or the default namespace for `None`).
    fn uri_for(&self, prefix: Option<&str>) -> Option<&'t str> {
        self.bindings.iter().rev().find(|(bound, _)| *bound == prefix).map(|(_, uri)| *uri)
    }
}

/// Parses a schema by way of a whole tree.
pub fn parse_schema_str(input: &str) -> Result<Schema, SchemaError> {
    let root = Element::parse(input)?;
    let mut resolver = NamespaceResolver::default();
    resolver.push_scope(&root);

    if root.local_name() != "schema" || !in_xsd_namespace(&root, &resolver) {
        return Err(SchemaError::NotASchema { found: root.name.to_string() });
    }

    let mut schema = Schema {
        target_namespace: root.attr("targetNamespace").map(str::to_owned),
        documentation: None,
        complex_types: Vec::new(),
        simple_types: Vec::new(),
    };

    for child in root.child_elements() {
        process_top_level_child(child, &mut resolver, &mut schema)?;
    }

    finish_schema(schema)
}

/// Compiles one top-level schema child (`annotation`, `complexType`,
/// `simpleType`; anything else is skipped — this is a subset processor,
/// and the paper's tool likewise only consumed complexType definitions).
fn process_top_level_child<'t>(
    child: &'t Element<'_>,
    resolver: &mut NamespaceResolver<'t>,
    schema: &mut Schema,
) -> Result<(), SchemaError> {
    resolver.push_scope(child);
    let result = match child.local_name() {
        "annotation" if in_xsd_namespace(child, resolver) => {
            schema.documentation = documentation_text(child);
            Ok(())
        }
        "complexType" if in_xsd_namespace(child, resolver) => {
            parse_complex_type(child, resolver).and_then(|ty| schema.add_complex_type(ty))
        }
        "simpleType" if in_xsd_namespace(child, resolver) => {
            parse_simple_type(child, resolver, schema).and_then(|ty| schema.add_simple_type(ty))
        }
        _ => Ok(()),
    };
    resolver.pop_scope();
    result
}

/// Post-pass: element type references were
/// parsed as Named; those that match a user-defined simple type are
/// really Simple references. Then resolve and validate.
fn finish_schema(mut schema: Schema) -> Result<Schema, SchemaError> {
    rewrite_simple_refs(&mut schema);
    schema.resolve()?;
    Ok(schema)
}

/// Rewrites `Named` references that target simple types into `Simple`.
fn rewrite_simple_refs(schema: &mut Schema) {
    let simple_names: Vec<String> =
        schema.simple_types.iter().map(|t| t.name.clone()).collect();
    for ty in &mut schema.complex_types {
        for el in &mut ty.elements {
            if let TypeRef::Named(name) = &el.type_ref {
                if simple_names.iter().any(|s| s == name) {
                    el.type_ref = TypeRef::Simple(name.clone());
                }
            }
        }
    }
}

/// Parses `<xsd:simpleType name="..."><xsd:restriction base="...">
/// facets... </xsd:restriction></xsd:simpleType>`. The base may be a
/// primitive or a previously defined simple type (facets accumulate and
/// the base bottoms out at the primitive).
fn parse_simple_type(
    el: &Element<'_>,
    resolver: &NamespaceResolver<'_>,
    schema: &Schema,
) -> Result<SimpleType, SchemaError> {
    let name = el
        .attr("name")
        .ok_or_else(|| SchemaError::MissingAttribute {
            element: el.name.to_string(),
            attribute: "name".to_owned(),
        })?
        .to_owned();
    let restriction = el
        .child_elements()
        .find(|c| c.local_name() == "restriction")
        .ok_or_else(|| SchemaError::Invalid {
            detail: format!(
                "simpleType {name:?} has no <restriction> (only restriction is supported)"
            ),
        })?;
    let base_attr = restriction.attr("base").ok_or_else(|| SchemaError::MissingAttribute {
        element: format!("restriction in simpleType {name:?}"),
        attribute: "base".to_owned(),
    })?;

    // Resolve the base: primitive, or a prior simple type (chained).
    let (base, mut facets) = match resolve_type_ref(base_attr, resolver, &name)? {
        TypeRef::Primitive(p) => (p, Vec::new()),
        TypeRef::Named(base_name) | TypeRef::Simple(base_name) => {
            match schema.simple_type(&base_name) {
                Some(parent) => (parent.base, parent.facets.clone()),
                None => {
                    return Err(SchemaError::UnknownType {
                        element: format!("simpleType {name}"),
                        type_name: base_attr.to_owned(),
                    })
                }
            }
        }
    };

    let mut enumeration: Vec<String> = Vec::new();
    for facet_el in restriction.child_elements() {
        let value = || -> Result<&str, SchemaError> {
            facet_el.attr("value").ok_or_else(|| SchemaError::MissingAttribute {
                element: facet_el.name.to_string(),
                attribute: "value".to_owned(),
            })
        };
        let numeric = |v: &str| -> Result<f64, SchemaError> {
            v.trim().parse::<f64>().map_err(|_| SchemaError::Invalid {
                detail: format!(
                    "facet <{}> of simpleType {name:?} has non-numeric value {v:?}",
                    facet_el.name
                ),
            })
        };
        let length = |v: &str| -> Result<usize, SchemaError> {
            v.trim().parse::<usize>().map_err(|_| SchemaError::Invalid {
                detail: format!(
                    "facet <{}> of simpleType {name:?} has non-integer value {v:?}",
                    facet_el.name
                ),
            })
        };
        match facet_el.local_name() {
            "minInclusive" => facets.push(Facet::MinInclusive(numeric(value()?)?)),
            "maxInclusive" => facets.push(Facet::MaxInclusive(numeric(value()?)?)),
            "minExclusive" => facets.push(Facet::MinExclusive(numeric(value()?)?)),
            "maxExclusive" => facets.push(Facet::MaxExclusive(numeric(value()?)?)),
            "minLength" => facets.push(Facet::MinLength(length(value()?)?)),
            "maxLength" => facets.push(Facet::MaxLength(length(value()?)?)),
            "enumeration" => enumeration.push(value()?.to_owned()),
            "annotation" => {}
            other => {
                return Err(SchemaError::Invalid {
                    detail: format!(
                        "unsupported facet <{other}> in simpleType {name:?}"
                    ),
                })
            }
        }
    }
    if !enumeration.is_empty() {
        facets.push(Facet::Enumeration(enumeration));
    }
    Ok(SimpleType { name, base, facets })
}

fn in_xsd_namespace(el: &Element<'_>, resolver: &NamespaceResolver<'_>) -> bool {
    let prefix = qname::split(el.name).0;
    match resolver.uri_for(prefix) {
        Some(uri) => is_xsd_namespace(uri),
        // Tolerate undeclared-but-conventional prefixes; real documents
        // from the paper's era were frequently sloppy about this.
        None => matches!(prefix, Some("xsd") | Some("xs") | None),
    }
}

fn documentation_text(annotation: &Element<'_>) -> Option<String> {
    annotation
        .child_elements()
        .find(|el| el.local_name() == "documentation")
        .map(|d| d.text_content().trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn parse_complex_type<'t>(
    el: &'t Element<'_>,
    resolver: &mut NamespaceResolver<'t>,
) -> Result<ComplexType, SchemaError> {
    let name = el
        .attr("name")
        .ok_or_else(|| SchemaError::MissingAttribute {
            element: el.name.to_string(),
            attribute: "name".to_owned(),
        })?
        .to_owned();
    let mut ty = ComplexType::new(name, Vec::new());
    collect_elements(el, resolver, &mut ty)?;
    Ok(ty)
}

/// Gathers `xsd:element` children, descending through an optional
/// `xsd:sequence`/`xsd:all` wrapper (2001-style schemas) and skipping
/// annotations.
fn collect_elements<'t>(
    parent: &'t Element<'_>,
    resolver: &mut NamespaceResolver<'t>,
    ty: &mut ComplexType,
) -> Result<(), SchemaError> {
    for child in parent.child_elements() {
        resolver.push_scope(child);
        let result = match child.local_name() {
            "annotation" if in_xsd_namespace(child, resolver) => {
                if ty.documentation.is_none() {
                    ty.documentation = documentation_text(child);
                }
                Ok(())
            }
            "sequence" | "all" if in_xsd_namespace(child, resolver) => {
                collect_elements(child, resolver, ty)
            }
            "element" if in_xsd_namespace(child, resolver) => {
                parse_element(child, resolver).and_then(|decl| {
                    if ty.element(&decl.name).is_some() {
                        Err(SchemaError::DuplicateElement {
                            complex_type: ty.name.clone(),
                            element: decl.name,
                        })
                    } else {
                        ty.elements.push(decl);
                        Ok(())
                    }
                })
            }
            other => Err(SchemaError::Invalid {
                detail: format!(
                    "unsupported construct <{other}> inside complexType {:?}",
                    ty.name
                ),
            }),
        };
        resolver.pop_scope();
        result?;
    }
    Ok(())
}

fn parse_element(
    el: &Element<'_>,
    resolver: &NamespaceResolver<'_>,
) -> Result<ElementDecl, SchemaError> {
    let name = el
        .attr("name")
        .ok_or_else(|| SchemaError::MissingAttribute {
            element: el.name.to_string(),
            attribute: "name".to_owned(),
        })?
        .to_owned();
    let type_attr = el.attr("type").ok_or_else(|| SchemaError::MissingAttribute {
        element: format!("{} name=\"{name}\"", el.name),
        attribute: "type".to_owned(),
    })?;

    let type_ref = resolve_type_ref(type_attr, resolver, &name)?;
    let occurs = parse_occurs(el, &name)?;
    Ok(ElementDecl { name, type_ref, occurs })
}

fn resolve_type_ref(
    type_attr: &str,
    resolver: &NamespaceResolver<'_>,
    element: &str,
) -> Result<TypeRef, SchemaError> {
    let (prefix, local) = match type_attr.split_once(':') {
        Some((p, l)) if !p.is_empty() => (Some(p), l),
        _ => (None, type_attr),
    };
    let is_xsd = match prefix {
        Some(p) => match resolver.uri_for(Some(p)) {
            Some(uri) => is_xsd_namespace(uri),
            None => p == "xsd" || p == "xs",
        },
        // Unprefixed type names reference user-defined complex types, as
        // in the paper's `type="ASDOffEvent"`.
        None => false,
    };
    if is_xsd {
        XsdType::from_name(local)
            .map(TypeRef::Primitive)
            .ok_or_else(|| SchemaError::UnknownType {
                element: element.to_owned(),
                type_name: type_attr.to_owned(),
            })
    } else {
        Ok(TypeRef::Named(local.to_owned()))
    }
}

fn parse_occurs(el: &Element<'_>, name: &str) -> Result<Occurs, SchemaError> {
    let min = el.attr("minOccurs");
    let max = el.attr("maxOccurs");
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

