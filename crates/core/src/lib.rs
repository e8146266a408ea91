//! xml2wire: runtime discovery of XML Schema message metadata, bound to
//! an efficient binary communication mechanism.
//!
//! This crate is the primary contribution of *"Open Metadata Formats:
//! Efficient XML-Based Communication for Heterogeneous Distributed
//! Systems"* (Widener, Schwan & Eisenhauer, GIT-CC-00-21). The paper
//! decomposes the handling of message metadata into three orthogonal
//! steps and makes the first one *open* without touching the cost of the
//! third:
//!
//! 1. **Discovery** ([`discovery`]) — metadata lives in XML Schema
//!    documents, found through a chain of [`DiscoverySource`]s: local
//!    files, remote URLs served by a [`server::MetadataServer`], or
//!    compiled-in fallback definitions for degraded operation when the
//!    network is down (§3.3).
//! 2. **Binding** ([`binding`]) — each `xsd:complexType` is mapped to a
//!    C-level structure, laid out for the *local* architecture (the
//!    paper's runtime `sizeof`/`IOOffset` computations), recorded in a
//!    [`Catalog`](pbio::Catalog), and registered with the BCM.
//! 3. **Marshaling** (delegated to [`pbio`]) — messages travel in NDR
//!    binary form; the XML metadata never appears on the per-message wire
//!    path, which is why the flexibility costs nothing per message.
//!
//! The [`Xml2Wire`] session object ties the three together.
//!
//! # Examples
//!
//! ```
//! use xml2wire::Xml2Wire;
//! use clayout::Record;
//!
//! # fn main() -> Result<(), xml2wire::X2wError> {
//! let schema = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
//!   <xsd:complexType name="Quote">
//!     <xsd:element name="symbol" type="xsd:string"/>
//!     <xsd:element name="price" type="xsd:double"/>
//!   </xsd:complexType>
//! </xsd:schema>"#;
//!
//! let x2w = Xml2Wire::builder().build();
//! x2w.register_schema_str(schema)?;
//!
//! let record = Record::new().with("symbol", "GT").with("price", 101.25f64);
//! let wire = x2w.encode(&record, "Quote")?;
//! let (format, decoded) = x2w.decode(&wire)?;
//! assert_eq!(format.name(), "Quote");
//! assert_eq!(decoded.get("price").unwrap().as_f64(), Some(101.25));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod binding;
mod cache;
mod client;
pub mod discovery;
#[doc(hidden)]
pub mod driver;
pub mod error;
pub mod seglog;
pub mod server;
pub mod session;
pub mod url;

pub use binding::{
    bind_complex_type, bind_schema, complex_type_for_struct, schema_for_struct, Binder,
};
pub use discovery::{
    CompiledSource, DiscoveryChain, DiscoveryPolicy, DiscoverySource, DiscoveryStats,
    DiscoveryStatsSnapshot, FileSource, SourceStatsSnapshot, UrlSource,
};
pub use archive::{ArchiveReader, ArchiveRecords, ArchiveWriter};
pub use error::X2wError;
pub use seglog::{FsyncPolicy, Retention, SegLogConfig, SegReplay, SegmentLog};
pub use server::MetadataServer;
pub use session::{Xml2Wire, Xml2WireBuilder};
pub use url::Locator;

// Compile-time typed bindings: the trait (from pbio) and the derive
// macro (from x2w-derive) share one name, so `use xml2wire::Xml2WireRecord;`
// brings in both — the serde convention.
pub use pbio::Xml2WireRecord;
pub use x2w_derive::Xml2WireRecord;

/// Unwraps a `std::sync` lock result, using the data even when a thread
/// panicked while it held the lock.
fn unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
