//! A re-implementation of PBIO (Portable Binary I/O), the binary
//! communication mechanism underneath xml2wire, plus the baseline wire
//! formats the paper compares against.
//!
//! PBIO (Eisenhauer & Daley, "Fast heterogeneous binary data
//! interchange") encodes application structures for transmission in
//! binary form across heterogeneous machines. Its distinguishing choice —
//! which this crate reproduces — is **NDR, Natural Data Representation**:
//! the sender transmits data in its *own* native memory layout, together
//! with compact metadata identifying that layout, and the *receiver*
//! performs whatever conversion is necessary ("reader makes right"),
//! using conversion routines generated on first contact with a format.
//!
//! The pieces:
//!
//! * [`Format`] / [`FormatRegistry`] — registered message formats: a
//!   named field list ([`StructType`](clayout::StructType)) bound to an
//!   architecture, with its [`Layout`](clayout::Layout) compiled once —
//!   the one plan its encoder and views read — and PBIO-style field
//!   tables ([`field::IoField`]).
//! * [`ndr`] — the NDR wire codec: header + native byte image.
//! * [`convert`] — receiver-side [`ConversionPlan`]s: flat op programs
//!   compiled once per (wire format, native format) pair, by zipping the
//!   two architectures' layouts, and cached in a [`Memo`]; the
//!   memory-safe stand-in for PBIO's dynamic code generation. A plan
//!   checks the sender's bytes by the view's own rules.
//! * [`xdr`] — an XDR (RFC 1014) codec, the canonical-wire-format
//!   baseline used by Sun RPC and "commercial platforms" in the paper.
//! * [`textxml`] — an XML text codec in the style of XML-RPC, the
//!   text-wire-format baseline (§6's 6–8× expansion).
//! * [`cdr`] — a CORBA/IIOP-style CDR codec: reader-makes-right byte
//!   order behind a flag byte, but still a canonical walk-and-copy on
//!   both ends (the paper's object-system comparison class).
//!
//!   The three baselines share one walk of the record: it type-checks,
//!   synthesizes or checks count fields (refusing a count that
//!   contradicts its array, as NDR does) and checks fixed lengths once,
//!   and each codec supplies only a sink — XDR and CDR one byte sink
//!   under their own rules (byte order, unit, alignment, string form),
//!   which range-checks each number at the wire's width as it stores it
//!   and which their one reader also follows, text XML the `xmlparse`
//!   writer.
//! * [`evolution`] — PBIO's restricted format evolution: receivers keep
//!   working when senders add fields.
//! * [`typed`] — [`Xml2WireRecord`], the binding `#[derive(Xml2WireRecord)]`
//!   implements: a Rust struct marshaled through its format's layout, like a
//!   [`Record`](clayout::Record).
//!
//! PBIO's file half — NDR messages written to data files — is
//! `xml2wire::archive`: the messages in CRC-checked frames behind the
//! schema documents that describe them.
//!
//! # Examples
//!
//! ```
//! use clayout::{Architecture, CType, Primitive, Record, StructField, StructType};
//! use pbio::{FormatRegistry, ndr};
//!
//! # fn main() -> Result<(), pbio::PbioError> {
//! let registry = FormatRegistry::new();
//! let format = registry.register(
//!     StructType::new("Point", vec![
//!         StructField::new("x", CType::Prim(Primitive::Double)),
//!         StructField::new("y", CType::Prim(Primitive::Double)),
//!     ]),
//!     Architecture::host(),
//! )?;
//! let record = Record::new().with("x", 1.0f64).with("y", 2.0f64);
//! let wire = ndr::encode(&record, &format)?;
//! let back = ndr::decode_with(&wire, &format)?;
//! assert_eq!(back.get("x").unwrap().as_f64(), Some(1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
pub mod catalog;
pub mod cdr;
pub mod convert;
pub mod error;
pub mod evolution;
pub mod field;
pub mod format;
pub mod header;
pub mod memo;
pub mod ndr;
pub mod registry;
pub mod textxml;
pub mod typed;
pub mod view;
pub mod xdr;

pub use catalog::Catalog;
pub use convert::{ConversionPlan, ImageCow, PlanCache, PlanTier};
pub use error::PbioError;
pub use field::IoField;
pub use format::{Format, FormatId};
pub use memo::{Memo, MemoStats};
pub use registry::FormatRegistry;
pub use typed::Xml2WireRecord;
pub use view::{ArrayView, FieldView, RecordView};

/// Unwraps a `std::sync` lock result, using the data even when a thread
/// panicked while it held the lock.
fn unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
