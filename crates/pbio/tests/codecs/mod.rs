//! The four wire codecs as one table, for the tests that hold every
//! codec to the same property (included by `#[path]`, like the
//! `clayout/tests/oracle` interpreter). The library has no such
//! switch: nothing outside tests picks a codec at run time.

use clayout::Record;
use pbio::{cdr, ndr, textxml, xdr, Format, PbioError};

pub type Encode = fn(&Record, &Format) -> Result<Vec<u8>, PbioError>;
pub type Decode = fn(&[u8], &Format) -> Result<Record, PbioError>;

/// `(name, encode, decode)`; CDR encodes in the format's own byte
/// order (the sender's, per IIOP).
pub const CODECS: [(&str, Encode, Decode); 4] = [
    ("ndr", ndr::encode, ndr::decode_with),
    ("xdr", |r, f| xdr::encode(r, f.struct_type()), |b, f| xdr::decode(b, f.struct_type())),
    (
        "cdr",
        |r, f| cdr::encode(r, f.struct_type(), f.arch().endianness),
        |b, f| cdr::decode(b, f.struct_type()),
    ),
    (
        "xml-text",
        |r, f| textxml::encode(r, f.struct_type()).map(String::into_bytes),
        |b, f| {
            let text = std::str::from_utf8(b)
                .map_err(|_| PbioError::Text { detail: "message is not UTF-8".to_owned() })?;
            textxml::decode(text, f.struct_type())
        },
    ),
];
