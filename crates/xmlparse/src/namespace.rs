//! Namespace resolution per "Namespaces in XML" (the `xmlns` convention
//! the paper relies on to reference XML Schema datatypes).

use crate::dom::Element;
use crate::error::{ErrorKind, Position, XmlError};

/// The reserved `xml` prefix URI.
pub const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";

/// A stack of in-scope namespace declarations.
///
/// Push a scope when entering an element (with that element's `xmlns`
/// attributes), pop when leaving it, and [`resolve`](Self::resolve) any
/// qualified name in between. Declarations live in one flat list, so
/// entering an element that declares nothing allocates nothing, and
/// lookups borrow: names in, slices of the stored declarations out.
#[derive(Debug, Clone)]
pub struct NamespaceResolver {
    /// In-scope declarations, outermost first; a `None` prefix is the
    /// default namespace.
    bindings: Vec<(Option<String>, String)>,
    /// `bindings.len()` on entry to each open scope.
    scopes: Vec<usize>,
}

impl Default for NamespaceResolver {
    fn default() -> Self {
        NamespaceResolver::new()
    }
}

impl NamespaceResolver {
    /// Creates an empty resolver with only the built-in `xml` binding.
    pub fn new() -> Self {
        NamespaceResolver {
            bindings: vec![(Some("xml".to_owned()), XML_NS.to_owned())],
            scopes: Vec::new(),
        }
    }

    /// Enters an element scope, reading its `xmlns` / `xmlns:prefix`
    /// attributes.
    pub fn push_scope(&mut self, element: &Element) {
        self.scopes.push(self.bindings.len());
        for attr in &element.attributes {
            if attr.name == "xmlns" {
                self.bindings.push((None, attr.value.clone()));
            } else if let Some(prefix) = attr.name.strip_prefix("xmlns:") {
                self.bindings.push((Some(prefix.to_owned()), attr.value.clone()));
            }
        }
    }

    /// Leaves the innermost element scope.
    ///
    /// # Panics
    ///
    /// Panics if called more times than [`push_scope`](Self::push_scope);
    /// the built-in scope is never popped.
    pub fn pop_scope(&mut self) {
        let mark = self.scopes.pop().expect("pop_scope without matching push_scope");
        self.bindings.truncate(mark);
    }

    /// The URI bound to `prefix` (or the default namespace for `None`).
    pub fn uri_for(&self, prefix: Option<&str>) -> Option<&str> {
        self.bindings
            .iter()
            .rev()
            .find(|(bound, _)| bound.as_deref() == prefix)
            .map(|(_, uri)| uri.as_str())
    }

    /// Resolves a qualified name to `(namespace uri, local part)`.
    ///
    /// Unprefixed names resolve to the default namespace if one is in
    /// scope, otherwise to no namespace.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::UndeclaredPrefix`] when a prefix has no
    /// binding in scope.
    pub fn resolve<'a>(&'a self, name: &'a str) -> Result<(Option<&'a str>, &'a str), XmlError> {
        let (prefix, local) = crate::qname::split(name);
        match (prefix, self.uri_for(prefix)) {
            (Some(prefix), None) => Err(XmlError::new(
                ErrorKind::UndeclaredPrefix { prefix: prefix.to_owned() },
                Position::start(),
            )),
            (_, uri) => Ok((uri, local)),
        }
    }

    /// Finds a prefix currently bound to `uri` (`Some(None)` means the
    /// default namespace). Returns `None` if nothing is bound to `uri`.
    pub fn prefix_for(&self, uri: &str) -> Option<Option<&str>> {
        self.bindings
            .iter()
            .rev()
            .find(|(_, bound)| bound == uri)
            .map(|(prefix, _)| prefix.as_deref())
    }
}

/// Walks `element` and its descendants with namespace scoping, invoking
/// `visit` with each element and the resolver state at that element.
///
/// # Errors
///
/// Propagates the first error returned by `visit`.
pub fn walk_with_namespaces<F>(element: &Element, visit: &mut F) -> Result<(), XmlError>
where
    F: FnMut(&Element, &NamespaceResolver) -> Result<(), XmlError>,
{
    fn go<F>(
        element: &Element,
        resolver: &mut NamespaceResolver,
        visit: &mut F,
    ) -> Result<(), XmlError>
    where
        F: FnMut(&Element, &NamespaceResolver) -> Result<(), XmlError>,
    {
        resolver.push_scope(element);
        let result = visit(element, resolver).and_then(|_| {
            for child in element.child_elements() {
                go(child, resolver, visit)?;
            }
            Ok(())
        });
        resolver.pop_scope();
        result
    }
    let mut resolver = NamespaceResolver::new();
    go(element, &mut resolver, visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Document;

    fn doc(s: &str) -> Document {
        Document::parse_str(s).unwrap()
    }

    #[test]
    fn default_namespace_applies_to_unprefixed() {
        let d = doc("<root xmlns=\"urn:d\"><child/></root>");
        let mut r = NamespaceResolver::new();
        r.push_scope(&d.root);
        assert_eq!(r.resolve("child").unwrap(), (Some("urn:d"), "child"));
    }

    #[test]
    fn prefixed_resolution_and_shadowing() {
        let d = doc(
            "<a xmlns:p=\"urn:outer\"><b xmlns:p=\"urn:inner\"><c/></b></a>",
        );
        let mut r = NamespaceResolver::new();
        r.push_scope(&d.root);
        assert_eq!(r.resolve("p:x").unwrap().0, Some("urn:outer"));
        let b = d.root.find_child("b").unwrap();
        r.push_scope(b);
        assert_eq!(r.resolve("p:x").unwrap().0, Some("urn:inner"));
        r.pop_scope();
        assert_eq!(r.resolve("p:x").unwrap().0, Some("urn:outer"));
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        let r = NamespaceResolver::new();
        assert!(matches!(
            r.resolve("nope:x").unwrap_err().kind(),
            ErrorKind::UndeclaredPrefix { .. }
        ));
    }

    #[test]
    fn xml_prefix_is_predeclared() {
        let r = NamespaceResolver::new();
        assert_eq!(r.resolve("xml:lang").unwrap().0, Some(XML_NS));
    }

    #[test]
    fn walk_visits_every_element_with_correct_scope() {
        let d = doc(
            "<xsd:schema xmlns:xsd=\"urn:schema\"><xsd:complexType><xsd:element/></xsd:complexType></xsd:schema>",
        );
        let mut seen = Vec::new();
        walk_with_namespaces(&d.root, &mut |el, r| {
            let (uri, local) = r.resolve(&el.name)?;
            seen.push((uri.map(str::to_owned), local.to_owned()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|(uri, _)| uri.as_deref() == Some("urn:schema")));
        assert_eq!(seen[2].1, "element");
    }

    #[test]
    fn prefix_for_finds_binding() {
        let d = doc("<a xmlns:q=\"urn:q\"/>");
        let mut r = NamespaceResolver::new();
        r.push_scope(&d.root);
        assert_eq!(r.prefix_for("urn:q"), Some(Some("q")));
        assert_eq!(r.prefix_for("urn:absent"), None);
    }

    #[test]
    fn no_namespace_when_nothing_declared() {
        let r = NamespaceResolver::new();
        assert_eq!(r.resolve("plain").unwrap(), (None, "plain"));
    }
}
