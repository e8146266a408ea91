//! Interned XML names.
//!
//! Schema documents and records repeat the same small vocabulary of
//! element and attribute names hundreds of times (`xs:element`, `name`,
//! `type`, field names). [`Atoms`] deduplicates those names into
//! reference-counted [`Atom`]s so DOM construction and the `xsdlite`
//! schema compiler allocate each distinct name once per interner instead
//! of once per occurrence, and equality checks between interned names
//! are usually a pointer comparison.

use std::borrow::{Borrow, Cow};
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable string intended for repeated XML
/// names. Semantically a `&str`: it derefs, compares, hashes and
/// displays as its text. Two atoms from the same [`Atoms`] interner
/// compare equal by pointer; atoms from different interners still
/// compare equal by content.
#[derive(Clone)]
pub struct Atom(Arc<str>);

impl Atom {
    /// Creates a standalone (un-interned) atom from `text`.
    pub fn new(text: &str) -> Self {
        Atom(Arc::from(text))
    }

    /// The atom's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Atom {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Atom {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Atom {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Atom {}

// Hashes as the text so `HashSet<Atom>` lookups can use `&str` keys via
// `Borrow<str>` (str and Atom must produce identical hashes).
impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for Atom {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Atom {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Atom {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Atom> for str {
    fn eq(&self, other: &Atom) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Atom> for &str {
    fn eq(&self, other: &Atom) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Atom> for String {
    fn eq(&self, other: &Atom) -> bool {
        self.as_str() == other.as_str()
    }
}

impl From<&str> for Atom {
    fn from(text: &str) -> Self {
        Atom::new(text)
    }
}

impl From<String> for Atom {
    fn from(text: String) -> Self {
        Atom(Arc::from(text))
    }
}

impl From<&String> for Atom {
    fn from(text: &String) -> Self {
        Atom::new(text)
    }
}

impl From<Cow<'_, str>> for Atom {
    fn from(text: Cow<'_, str>) -> Self {
        match text {
            Cow::Borrowed(s) => Atom::new(s),
            Cow::Owned(s) => Atom::from(s),
        }
    }
}

impl From<Atom> for String {
    fn from(atom: Atom) -> Self {
        atom.as_str().to_owned()
    }
}

/// A deduplicating interner for [`Atom`]s.
///
/// `intern` returns the existing atom for previously seen text (a hash
/// lookup plus an `Arc` clone — no allocation) and allocates exactly
/// once for each distinct name.
#[derive(Debug, Default)]
pub struct Atoms {
    set: HashSet<Atom>,
}

impl Atoms {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Atoms::default()
    }

    /// Returns the interned atom for `text`, allocating only on first
    /// sight.
    pub fn intern(&mut self, text: &str) -> Atom {
        if let Some(existing) = self.set.get(text) {
            return existing.clone();
        }
        let atom = Atom::new(text);
        self.set.insert(atom.clone());
        atom
    }

    /// The number of distinct names retained.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no names are retained.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut atoms = Atoms::new();
        let a = atoms.intern("xs:element");
        let b = atoms.intern("xs:element");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(atoms.len(), 1);
        atoms.intern("name");
        assert_eq!(atoms.len(), 2);
    }

    #[test]
    fn atoms_compare_by_content_across_interners() {
        let a = Atom::new("field");
        let b = Atoms::new().intern("field");
        assert_eq!(a, b);
        assert_eq!(a, "field");
        assert_eq!("field", a);
        assert_eq!(a, String::from("field"));
    }

    #[test]
    fn atom_behaves_like_str() {
        let a = Atom::new("xs:complexType");
        assert_eq!(a.split_once(':'), Some(("xs", "complexType")));
        assert_eq!(format!("{a}"), "xs:complexType");
        assert_eq!(format!("{a:?}"), "\"xs:complexType\"");
        let mut sorted = [Atom::new("b"), Atom::new("a")];
        sorted.sort();
        assert_eq!(sorted[0], "a");
    }

    #[test]
    fn interner_never_evicts() {
        let mut atoms = Atoms::new();
        let first = atoms.intern("keep");
        for i in 0..10_000 {
            atoms.intern(&format!("n{i}"));
        }
        assert_eq!(atoms.len(), 10_001);
        assert!(Arc::ptr_eq(&first.0, &atoms.intern("keep").0));
    }

    #[test]
    fn hashset_lookup_by_str_key_works() {
        let mut set = HashSet::new();
        set.insert(Atom::new("type"));
        assert!(set.contains("type"));
        assert!(!set.contains("other"));
        assert_eq!(set.get("type").map(|a| a.as_str()), Some("type"));
    }
}
