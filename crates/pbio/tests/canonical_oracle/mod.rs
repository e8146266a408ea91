//! The hand-written XDR and CDR walkers the shared canonical walk
//! replaced, kept as `canonical_differential.rs`'s oracle: each module
//! is the library file as it last stood, but for its unit tests (which
//! stayed behind and now run against the canonical walk), the import of
//! `PbioError`, and the raw integer helpers, which come from the image
//! oracle (`clayout/tests/oracle`) since the library no longer exports
//! them.
//!
//! One difference is known and by design: these walkers write a count
//! field the record supplies without holding it to its array, where the
//! canonical walk refuses a contradicting count as NDR does.

pub mod cdr;
pub mod xdr;
