//! The Catalog of known format definitions (paper §4.2.2: "For data types
//! that are built by composition of other previously defined data types,
//! a Catalog is kept of known format definitions").

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use clayout::StructType;

use crate::error::PbioError;
use crate::unpoisoned;

/// A thread-safe map from format name to its (fully resolved) struct
/// type, consulted when a new format composes previously defined ones.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: RwLock<HashMap<String, Arc<StructType>>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds (or replaces) a definition under its own name. An
    /// `Arc<StructType>` is shared as it is, not copied.
    pub fn insert(&self, st: impl Into<Arc<StructType>>) -> Arc<StructType> {
        let entry = st.into();
        unpoisoned(self.entries.write()).insert(entry.name.clone(), Arc::clone(&entry));
        entry
    }

    /// Looks up a definition by name.
    pub fn get(&self, name: &str) -> Option<Arc<StructType>> {
        unpoisoned(self.entries.read()).get(name).cloned()
    }

    /// Looks up a definition, reporting an error for unknown names — the
    /// paper's "this name is used to retrieve size information from the
    /// Catalog".
    ///
    /// # Errors
    ///
    /// Returns [`PbioError::UnknownFormat`].
    pub fn require(&self, name: &str) -> Result<Arc<StructType>, PbioError> {
        self.get(name).ok_or_else(|| PbioError::UnknownFormat { name: name.to_owned() })
    }

    /// Whether a name is defined.
    pub fn contains(&self, name: &str) -> bool {
        unpoisoned(self.entries.read()).contains_key(name)
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        unpoisoned(self.entries.read()).len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All defined names, sorted (deterministic for tooling output).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = unpoisoned(self.entries.read()).keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::{CType, Primitive, StructField};

    fn ty(name: &str) -> StructType {
        StructType::new(name, vec![StructField::new("x", CType::Prim(Primitive::Int))])
    }

    #[test]
    fn insert_then_get() {
        let c = Catalog::new();
        c.insert(ty("A"));
        assert!(c.contains("A"));
        assert_eq!(c.get("A").unwrap().name, "A");
        assert!(c.get("B").is_none());
    }

    #[test]
    fn require_errors_on_unknown() {
        let c = Catalog::new();
        assert!(matches!(c.require("Z"), Err(PbioError::UnknownFormat { .. })));
    }

    #[test]
    fn replacement_updates_definition() {
        let c = Catalog::new();
        c.insert(ty("A"));
        let replacement = StructType::new(
            "A",
            vec![StructField::new("y", CType::Prim(Primitive::Double))],
        );
        c.insert(replacement);
        assert_eq!(c.get("A").unwrap().fields[0].name, "y");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn names_are_sorted() {
        let c = Catalog::new();
        c.insert(ty("zeta"));
        c.insert(ty("alpha"));
        assert_eq!(c.names(), vec!["alpha", "zeta"]);
    }
}
