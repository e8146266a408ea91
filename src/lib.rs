//! Open Metadata Formats — a full reproduction of Widener, Schwan &
//! Eisenhauer, *"Open Metadata Formats: Efficient XML-Based Communication
//! for Heterogeneous Distributed Systems"* (Georgia Tech GIT-CC-00-21 /
//! ICDCS 2001), in Rust.
//!
//! This umbrella crate re-exports the whole stack so applications can
//! depend on one crate:
//!
//! * [`xmlparse`] — the XML 1.0 parser/writer substrate.
//! * [`clayout`] — architecture descriptions, C struct layout, native
//!   byte images (the Natural Data Representation substrate).
//! * [`xsdlite`] — the XML Schema subset used as the open metadata
//!   language.
//! * [`pbio`] — the binary communication mechanism: NDR wire codec,
//!   receiver-side conversion plans, plus XDR and text-XML baselines.
//! * [`xml2wire`] — the paper's contribution: runtime metadata
//!   discovery and binding over the BCM.
//! * [`backbone`] — the event backbone and airline scenario the paper
//!   motivates the design with.
//!
//! # Quickstart
//!
//! ```
//! use openmeta::prelude::*;
//!
//! # fn main() -> Result<(), xml2wire::X2wError> {
//! let schema = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
//!   <xsd:complexType name="Quote">
//!     <xsd:element name="symbol" type="xsd:string"/>
//!     <xsd:element name="price" type="xsd:double"/>
//!   </xsd:complexType>
//! </xsd:schema>"#;
//! let x2w = Xml2Wire::builder().build();
//! x2w.register_schema_str(schema)?;
//! let wire = x2w.encode(&Record::new().with("symbol", "GT").with("price", 42.5f64), "Quote")?;
//! let (_, decoded) = x2w.decode(&wire)?;
//! assert_eq!(decoded.get("price").unwrap().as_f64(), Some(42.5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use backbone;
pub use clayout;
pub use pbio;
pub use xml2wire;
pub use xmlparse;
pub use xsdlite;

/// The common imports applications need.
pub mod prelude {
    pub use backbone::{Broker, CapturePoint, Consumer, Event, FormatScope};
    pub use clayout::{Architecture, CType, Primitive, Record, StructField, StructType, Value};
    pub use pbio::{Format, FormatRegistry};
    pub use xml2wire::{
        CompiledSource, DiscoveryChain, FileSource, MetadataServer, UrlSource, X2wError,
        Xml2Wire,
    };
    pub use xsdlite::Schema;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports_are_reachable() {
        use crate::prelude::*;
        let _broker = Broker::new();
        let _arch = Architecture::host();
        let _registry = FormatRegistry::new();
        let _session = Xml2Wire::builder().build();
    }
}
