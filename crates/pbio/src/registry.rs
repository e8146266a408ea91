//! The format registry: id assignment and lookup.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use clayout::{Architecture, StructType};

use crate::error::PbioError;
use crate::format::{Format, FormatId};
use crate::unpoisoned;

/// A thread-safe registry of message formats.
///
/// Ids are this registry's own: it assigns them counting up, and a
/// message's header carries its sender's. Across processes a format is
/// known by its name and structure fingerprint, which every header also
/// carries ([`by_fingerprint`](Self::by_fingerprint)); the id is only the
/// fast path for traffic within one registry.
///
/// Registration is idempotent for identical definitions: registering the
/// same struct type on the same architecture returns the existing format.
/// Registering a *different* definition under an existing name assigns a
/// fresh id and makes the new definition the name's current version —
/// this is how PBIO's restricted format evolution enters the system (old
/// ids keep resolving, so in-flight messages still decode).
#[derive(Debug, Default)]
pub struct FormatRegistry {
    inner: RwLock<Inner>,
}

/// The first id a registry assigns. The committed wire corpus
/// (`tests/corpus`) carries ids counted from here in its NDR headers,
/// which freezes the value.
const LOCAL_ID_BASE: u32 = 0x8000_0000;

#[derive(Debug)]
struct Inner {
    by_id: HashMap<FormatId, Arc<Format>>,
    /// The first format registered with each structure fingerprint (the
    /// fingerprint covers the name; later bindings of the definition to
    /// other architectures or ids resolve to the first).
    by_fingerprint: HashMap<u64, FormatId>,
    current_by_name: HashMap<String, FormatId>,
    next_id: u32,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            by_id: HashMap::new(),
            by_fingerprint: HashMap::new(),
            current_by_name: HashMap::new(),
            next_id: LOCAL_ID_BASE,
        }
    }
}

impl Inner {
    fn insert(&mut self, format: &Arc<Format>) {
        self.by_id.insert(format.id(), Arc::clone(format));
        self.by_fingerprint.entry(format.fingerprint()).or_insert(format.id());
        self.current_by_name.insert(format.name().to_owned(), format.id());
    }
}

impl FormatRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        FormatRegistry::default()
    }

    /// Registers `struct_type` bound to `arch`, assigning an id.
    ///
    /// # Errors
    ///
    /// Propagates layout validation failures; the registry is unchanged
    /// on error.
    pub fn register(
        &self,
        struct_type: impl Into<Arc<StructType>>,
        arch: Architecture,
    ) -> Result<Arc<Format>, PbioError> {
        let struct_type = struct_type.into();
        let mut inner = unpoisoned(self.inner.write());
        if let Some(id) = inner.current_by_name.get(&struct_type.name) {
            let existing = &inner.by_id[id];
            if existing.struct_type() == &*struct_type && existing.arch() == &arch {
                return Ok(Arc::clone(existing));
            }
        }
        let id = FormatId(inner.next_id);
        let format = Arc::new(Format::new(id, struct_type, arch)?);
        inner.next_id += 1;
        inner.insert(&format);
        Ok(format)
    }

    /// Looks a format up by id (any version ever registered).
    pub fn by_id(&self, id: FormatId) -> Option<Arc<Format>> {
        unpoisoned(self.inner.read()).by_id.get(&id).cloned()
    }

    /// Finds the format with this name and structure fingerprint (any
    /// version, any id; the earliest registered when several bind the
    /// definition) — how receivers pin the exact *definition* a message
    /// was encoded with. Two hash probes; a scan only if two names'
    /// fingerprints ever collide.
    pub fn by_fingerprint(&self, name: &str, fingerprint: u64) -> Option<Arc<Format>> {
        let inner = unpoisoned(self.inner.read());
        let first = inner.by_id.get(inner.by_fingerprint.get(&fingerprint)?)?;
        if first.name() == name {
            return Some(Arc::clone(first));
        }
        inner.by_id.values().find(|f| f.name() == name && f.fingerprint() == fingerprint).cloned()
    }

    /// Looks up the *current* version of a name.
    pub fn by_name(&self, name: &str) -> Option<Arc<Format>> {
        let inner = unpoisoned(self.inner.read());
        let id = inner.current_by_name.get(name)?;
        inner.by_id.get(id).cloned()
    }

    /// Resolves a format by name, as an error-returning convenience.
    ///
    /// # Errors
    ///
    /// Returns [`PbioError::UnknownFormat`].
    pub fn require(&self, name: &str) -> Result<Arc<Format>, PbioError> {
        self.by_name(name).ok_or_else(|| PbioError::UnknownFormat { name: name.to_owned() })
    }

    /// Number of formats (all versions) registered.
    pub fn len(&self) -> usize {
        unpoisoned(self.inner.read()).by_id.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names with a current registration, in no particular order.
    pub fn names(&self) -> Vec<String> {
        unpoisoned(self.inner.read()).current_by_name.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::{CType, Primitive, StructField};

    fn ty(name: &str, field: &str) -> StructType {
        StructType::new(name, vec![StructField::new(field, CType::Prim(Primitive::Int))])
    }

    #[test]
    fn register_assigns_distinct_local_ids() {
        let r = FormatRegistry::new();
        let a = r.register(ty("A", "x"), Architecture::X86_64).unwrap();
        let b = r.register(ty("B", "x"), Architecture::X86_64).unwrap();
        assert_ne!(a.id(), b.id());
        assert_eq!(r.len(), 2);
        // Ids count up from the base the wire corpus pins.
        assert_eq!(a.id(), FormatId(LOCAL_ID_BASE));
        assert_eq!(b.id(), FormatId(LOCAL_ID_BASE + 1));
    }

    #[test]
    fn identical_registration_is_idempotent() {
        let r = FormatRegistry::new();
        let a1 = r.register(ty("A", "x"), Architecture::X86_64).unwrap();
        let a2 = r.register(ty("A", "x"), Architecture::X86_64).unwrap();
        assert_eq!(a1.id(), a2.id());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn evolution_creates_a_new_version_keeping_the_old_id_alive() {
        let r = FormatRegistry::new();
        let v1 = r.register(ty("A", "x"), Architecture::X86_64).unwrap();
        let v2 = r.register(ty("A", "renamed"), Architecture::X86_64).unwrap();
        assert_ne!(v1.id(), v2.id());
        // Current name resolves to v2; the old id still resolves to v1.
        assert_eq!(r.by_name("A").unwrap().id(), v2.id());
        assert_eq!(r.by_id(v1.id()).unwrap().struct_type().fields[0].name, "x");
    }

    #[test]
    fn require_reports_unknown_names() {
        let r = FormatRegistry::new();
        assert!(matches!(r.require("nope"), Err(PbioError::UnknownFormat { .. })));
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = Arc::new(FormatRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    r.register(ty(&format!("T{}", i % 4), "x"), Architecture::X86_64).unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.names().len(), 4);
    }

    #[test]
    fn different_arch_same_type_is_a_new_version() {
        let r = FormatRegistry::new();
        let a = r.register(ty("A", "x"), Architecture::X86_64).unwrap();
        let b = r.register(ty("A", "x"), Architecture::SPARC32).unwrap();
        assert_ne!(a.id(), b.id());
    }
}
