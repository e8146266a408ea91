//! Registered message formats.

use std::fmt;
use std::sync::Arc;

use clayout::{Architecture, Layout, StructType};

use crate::error::PbioError;
use crate::field::{field_table, IoField};

/// A registry-assigned format identifier, carried in wire headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FormatId(pub u32);

impl fmt::Display for FormatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A message format: a struct type bound to an architecture, with its
/// [`Layout`] compiled once. This is the object a PBIO format
/// registration returns and what xml2wire's binding step produces.
///
/// The struct type sits behind an [`Arc`]: the binder builds each
/// definition once and the catalog, the registry and the format share
/// it, so registering a type never deep-copies its fields.
///
/// The layout is the format's one compiled plan: every field's offset
/// and accessor, which [`ndr::encode_into`](crate::ndr::encode_into)
/// writes through and [`RecordView`](crate::view::RecordView) reads
/// through.
#[derive(Debug, Clone)]
pub struct Format {
    id: FormatId,
    struct_type: Arc<StructType>,
    arch: Architecture,
    layout: Layout,
    fingerprint: u64,
    /// `arch`'s wire descriptor, when it maps back to an architecture
    /// layout-compatible with `arch` (every preset's does; a custom
    /// architecture's may not): a message carrying it is laid out for
    /// this format's own layout.
    own_descriptor: Option<[u8; 6]>,
    /// Memoized wire-header bytes: everything in this format's header —
    /// magic, id, arch descriptor, name, fingerprint — is per-format
    /// constant except the two length fields, which encoders patch after
    /// the payload is built. One memcpy replaces per-message header
    /// assembly.
    header_prefix: Vec<u8>,
}

/// A stable fingerprint of a struct *definition* (independent of
/// architecture and registry). Carried in wire headers so receivers can
/// tell format versions apart even when ids collide across registries.
pub fn struct_fingerprint(st: &StructType) -> u64 {
    use std::hash::{Hash, Hasher};
    // DefaultHasher::new() uses fixed keys, so this is stable across
    // processes (unlike hashes from a HashMap's RandomState).
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    st.hash(&mut hasher);
    hasher.finish()
}

impl Format {
    /// Binds `struct_type` to `arch`, computing and validating its
    /// layout.
    ///
    /// Most callers go through [`FormatRegistry::register`] instead,
    /// which also assigns a fresh id.
    ///
    /// [`FormatRegistry::register`]: crate::registry::FormatRegistry::register
    ///
    /// # Errors
    ///
    /// Propagates layout validation failures (duplicate fields, bad
    /// count references, arrays of arrays).
    pub fn new(
        id: FormatId,
        struct_type: impl Into<Arc<StructType>>,
        arch: Architecture,
    ) -> Result<Format, PbioError> {
        let struct_type = struct_type.into();
        // The wire header stores the name length in 2 bytes; a longer
        // name would silently truncate into a header that cannot
        // round-trip, so reject it before any header is ever written.
        if struct_type.name.len() > crate::header::MAX_FORMAT_NAME_LEN {
            return Err(PbioError::FormatNameTooLong {
                len: struct_type.name.len(),
                max: crate::header::MAX_FORMAT_NAME_LEN,
            });
        }
        let layout = Layout::of_struct(&struct_type, &arch)?;
        let fingerprint = struct_fingerprint(&struct_type);
        let header = crate::header::WireHeader {
            format_id: id,
            arch,
            format_name: struct_type.name.clone(),
            fingerprint,
            fixed_len: 0,
            payload_len: 0,
        };
        let mut header_prefix = Vec::with_capacity(header.encoded_len());
        header.write_to(&mut header_prefix);
        let descriptor = arch.descriptor();
        let own_descriptor = Architecture::from_descriptor(descriptor)
            .layout_compatible(&arch)
            .then_some(descriptor);
        Ok(Format {
            id,
            struct_type,
            arch,
            layout,
            fingerprint,
            own_descriptor,
            header_prefix,
        })
    }

    /// The wire descriptor of messages laid out for this format's own
    /// architecture, or `None` when the architecture's descriptor does
    /// not map back to it.
    #[inline]
    pub(crate) fn own_descriptor(&self) -> Option<[u8; 6]> {
        self.own_descriptor
    }

    /// The memoized wire-header bytes for this format, with the two
    /// per-message length fields (`fixed_len` at offset 16, `payload_len`
    /// at offset 20) left zero for the encoder to patch.
    #[inline]
    pub fn header_prefix(&self) -> &[u8] {
        &self.header_prefix
    }

    /// The registry-assigned id.
    #[inline]
    pub fn id(&self) -> FormatId {
        self.id
    }

    /// The format (struct) name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.struct_type.name
    }

    /// The underlying struct type.
    #[inline]
    pub fn struct_type(&self) -> &StructType {
        &self.struct_type
    }

    /// The architecture this format is bound to.
    #[inline]
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The compiled layout on [`arch`](Self::arch).
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// A stable fingerprint of the struct definition (see
    /// [`struct_fingerprint`]); equal across architectures and
    /// registries, different across format versions.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `sizeof` the fixed part of a record in this format.
    #[inline]
    pub fn record_size(&self) -> usize {
        self.layout.size
    }

    /// The PBIO field table (the paper's `IOField` array, computed at
    /// runtime).
    pub fn field_table(&self) -> Vec<IoField> {
        field_table(&self.struct_type, &self.layout)
    }

    /// Rebinds this format's struct type to a different architecture
    /// under the same id — how a receiver materializes "the same format,
    /// as it would look here".
    ///
    /// # Errors
    ///
    /// Propagates layout failures on the new architecture.
    pub fn rebind(&self, arch: Architecture) -> Result<Format, PbioError> {
        Format::new(self.id, Arc::clone(&self.struct_type), arch)
    }
}

/// Formats are equal when they bind the same definition to the same
/// architecture under the same id; everything else is derived from
/// those.
impl PartialEq for Format {
    fn eq(&self, other: &Format) -> bool {
        self.id == other.id && self.arch == other.arch && self.struct_type == other.struct_type
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "format {} {} on {} ({} bytes fixed)",
            self.id,
            self.name(),
            self.arch,
            self.record_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::{CType, Primitive, SizeAlign, StructField};

    fn point() -> StructType {
        StructType::new(
            "Point",
            vec![
                StructField::new("x", CType::Prim(Primitive::Double)),
                StructField::new("tag", CType::Prim(Primitive::Char)),
            ],
        )
    }

    #[test]
    fn new_precomputes_layout() {
        let f = Format::new(FormatId(1), point(), Architecture::X86_64).unwrap();
        assert_eq!(f.record_size(), 16);
        assert_eq!(f.layout().fields[1].offset, 8);
        assert_eq!(f.name(), "Point");
    }

    #[test]
    fn rebind_keeps_id_and_type_changes_layout() {
        let f = Format::new(FormatId(7), point(), Architecture::X86_64).unwrap();
        let g = f.rebind(Architecture::I386).unwrap();
        assert_eq!(g.id(), FormatId(7));
        assert_eq!(g.struct_type(), f.struct_type());
        assert_eq!(g.record_size(), 12); // double aligned to 4 on i386
    }

    #[test]
    fn invalid_struct_is_rejected_at_construction() {
        let bad = StructType::new(
            "bad",
            vec![StructField::new(
                "xs",
                CType::dynamic_array(CType::Prim(Primitive::Int), "missing"),
            )],
        );
        assert!(Format::new(FormatId(1), bad, Architecture::X86_64).is_err());
    }

    #[test]
    fn format_name_length_is_validated_at_the_header_boundary() {
        let fields = || vec![StructField::new("x", CType::Prim(Primitive::Int))];
        // 65535 bytes: the longest name the header can carry — accepted,
        // and its memoized header prefix parses back intact.
        let longest = "n".repeat(crate::header::MAX_FORMAT_NAME_LEN);
        let ok = Format::new(
            FormatId(1),
            StructType::new(longest.clone(), fields()),
            Architecture::X86_64,
        )
        .unwrap();
        let peek = crate::header::WireHeader::peek(ok.header_prefix()).unwrap();
        assert_eq!(peek.format_name(ok.header_prefix()).unwrap(), longest);
        // 65536 bytes: one past the boundary — rejected, not truncated.
        let too_long = "n".repeat(crate::header::MAX_FORMAT_NAME_LEN + 1);
        let err = Format::new(
            FormatId(1),
            StructType::new(too_long, fields()),
            Architecture::X86_64,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PbioError::FormatNameTooLong {
                    len: 65536,
                    max: 65535
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn own_descriptor_only_when_it_maps_back() {
        for arch in Architecture::ALL {
            let f = Format::new(FormatId(1), point(), arch).unwrap();
            assert_eq!(f.own_descriptor(), Some(arch.descriptor()), "{arch}");
        }
        // The descriptor carries an int's size, not its alignment.
        let packed = Architecture {
            name: "packed",
            int: SizeAlign::with_align(4, 2),
            ..Architecture::X86_64
        };
        let f = Format::new(FormatId(1), point(), packed).unwrap();
        assert_eq!(f.own_descriptor(), None);
    }

    #[test]
    fn display_mentions_name_id_and_size() {
        let f = Format::new(FormatId(3), point(), Architecture::SPARC32).unwrap();
        let s = f.to_string();
        assert!(
            s.contains("#3") && s.contains("Point") && s.contains("sparc32"),
            "{s}"
        );
    }
}
