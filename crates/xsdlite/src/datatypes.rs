//! XML Schema primitive datatypes (the subset useful for binary message
//! metadata).

use std::fmt;

/// The XML Schema namespace URI of the 1999 working draft the paper's
/// appendix uses.
const XSD_NS_1999: &str = "http://www.w3.org/1999/XMLSchema";
/// The XML Schema namespace URI of the 2001 recommendation.
pub const XSD_NS_2001: &str = "http://www.w3.org/2001/XMLSchema";

/// Whether `uri` is a recognized XML Schema namespace.
pub fn is_xsd_namespace(uri: &str) -> bool {
    uri == XSD_NS_1999 || uri == XSD_NS_2001
}

/// An XML Schema primitive datatype.
///
/// `Integer` is XML Schema's unbounded `xsd:integer`; following the
/// paper's "straightforward mapping" it binds to a C `int`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XsdType {
    /// `xsd:string`.
    String,
    /// `xsd:boolean`.
    Boolean,
    /// `xsd:byte` (signed 8-bit).
    Byte,
    /// `xsd:unsignedByte` / `xsd:unsigned-byte`.
    UnsignedByte,
    /// `xsd:short`.
    Short,
    /// `xsd:unsignedShort` / `xsd:unsigned-short`.
    UnsignedShort,
    /// `xsd:int` (32-bit).
    Int,
    /// `xsd:integer` (unbounded; bound as C `int` per the paper).
    Integer,
    /// `xsd:unsignedInt` / `xsd:unsigned-int`.
    UnsignedInt,
    /// `xsd:long`.
    Long,
    /// `xsd:unsignedLong` / `xsd:unsigned-long`.
    UnsignedLong,
    /// `xsd:float`.
    Float,
    /// `xsd:double`.
    Double,
}

impl XsdType {
    /// Every supported datatype.
    pub const ALL: [XsdType; 13] = [
        XsdType::String,
        XsdType::Boolean,
        XsdType::Byte,
        XsdType::UnsignedByte,
        XsdType::Short,
        XsdType::UnsignedShort,
        XsdType::Int,
        XsdType::Integer,
        XsdType::UnsignedInt,
        XsdType::Long,
        XsdType::UnsignedLong,
        XsdType::Float,
        XsdType::Double,
    ];

    /// Parses a local type name in either the 1999 or 2001 spelling.
    pub fn from_name(name: &str) -> Option<XsdType> {
        Some(match name {
            "string" => XsdType::String,
            "boolean" => XsdType::Boolean,
            "byte" => XsdType::Byte,
            "unsignedByte" | "unsigned-byte" => XsdType::UnsignedByte,
            "short" => XsdType::Short,
            "unsignedShort" | "unsigned-short" => XsdType::UnsignedShort,
            "int" => XsdType::Int,
            "integer" => XsdType::Integer,
            "unsignedInt" | "unsigned-int" => XsdType::UnsignedInt,
            "long" => XsdType::Long,
            "unsignedLong" | "unsigned-long" => XsdType::UnsignedLong,
            "float" => XsdType::Float,
            "double" => XsdType::Double,
            _ => return None,
        })
    }

    /// The canonical (2001 recommendation) name of the datatype.
    pub fn canonical_name(self) -> &'static str {
        match self {
            XsdType::String => "string",
            XsdType::Boolean => "boolean",
            XsdType::Byte => "byte",
            XsdType::UnsignedByte => "unsignedByte",
            XsdType::Short => "short",
            XsdType::UnsignedShort => "unsignedShort",
            XsdType::Int => "int",
            XsdType::Integer => "integer",
            XsdType::UnsignedInt => "unsignedInt",
            XsdType::Long => "long",
            XsdType::UnsignedLong => "unsignedLong",
            XsdType::Float => "float",
            XsdType::Double => "double",
        }
    }

    /// Whether the type is any integer (signed or unsigned, any width).
    pub fn is_integer(self) -> bool {
        matches!(
            self,
            XsdType::Byte
                | XsdType::UnsignedByte
                | XsdType::Short
                | XsdType::UnsignedShort
                | XsdType::Int
                | XsdType::Integer
                | XsdType::UnsignedInt
                | XsdType::Long
                | XsdType::UnsignedLong
        )
    }

    /// Whether the type is floating-point.
    pub fn is_float(self) -> bool {
        matches!(self, XsdType::Float | XsdType::Double)
    }

    /// Whether `lexical` is a valid lexical form of this datatype
    /// (used by instance validation).
    pub fn accepts_lexical(self, lexical: &str) -> bool {
        let t = lexical.trim();
        match self {
            XsdType::String => true,
            XsdType::Boolean => matches!(t, "true" | "false" | "0" | "1"),
            XsdType::Byte => t.parse::<i8>().is_ok(),
            XsdType::UnsignedByte => t.parse::<u8>().is_ok(),
            XsdType::Short => t.parse::<i16>().is_ok(),
            XsdType::UnsignedShort => t.parse::<u16>().is_ok(),
            XsdType::Int | XsdType::Integer => t.parse::<i64>().is_ok(),
            XsdType::UnsignedInt => t.parse::<u32>().is_ok(),
            XsdType::Long => t.parse::<i64>().is_ok(),
            XsdType::UnsignedLong => t.parse::<u64>().is_ok(),
            XsdType::Float | XsdType::Double => {
                t.parse::<f64>().is_ok() || matches!(t, "NaN" | "INF" | "-INF")
            }
        }
    }
}

impl fmt::Display for XsdType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xsd:{}", self.canonical_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_spellings_parse_to_the_same_type() {
        assert_eq!(XsdType::from_name("unsigned-long"), Some(XsdType::UnsignedLong));
        assert_eq!(XsdType::from_name("unsignedLong"), Some(XsdType::UnsignedLong));
        assert_eq!(XsdType::from_name("nosuch"), None);
    }

    #[test]
    fn canonical_names_round_trip() {
        for ty in XsdType::ALL {
            assert_eq!(XsdType::from_name(ty.canonical_name()), Some(ty));
        }
        // The 1999 working draft's spellings, which the paper's appendix
        // uses, are still read.
        for (legacy, ty) in [
            ("unsigned-byte", XsdType::UnsignedByte),
            ("unsigned-short", XsdType::UnsignedShort),
            ("unsigned-int", XsdType::UnsignedInt),
            ("unsigned-long", XsdType::UnsignedLong),
        ] {
            assert_eq!(XsdType::from_name(legacy), Some(ty));
        }
    }

    #[test]
    fn classification() {
        assert!(XsdType::UnsignedLong.is_integer());
        assert!(!XsdType::String.is_integer());
        assert!(XsdType::Double.is_float());
        assert!(!XsdType::Integer.is_float());
    }

    #[test]
    fn lexical_validation() {
        assert!(XsdType::Int.accepts_lexical(" -42 "));
        assert!(!XsdType::UnsignedInt.accepts_lexical("-1"));
        assert!(XsdType::Boolean.accepts_lexical("true"));
        assert!(!XsdType::Boolean.accepts_lexical("yes"));
        assert!(XsdType::Double.accepts_lexical("1.5e3"));
        assert!(XsdType::Double.accepts_lexical("NaN"));
        assert!(!XsdType::Byte.accepts_lexical("200"));
        assert!(XsdType::String.accepts_lexical("anything at all"));
    }

    #[test]
    fn namespace_recognition() {
        assert!(is_xsd_namespace(XSD_NS_1999));
        assert!(is_xsd_namespace(XSD_NS_2001));
        assert!(!is_xsd_namespace("urn:other"));
    }
}
