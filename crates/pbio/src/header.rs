//! The NDR wire header.
//!
//! The header is the "efficiently represented meta-information that
//! identifies the precise formats of transmitted data" (§1): a format id
//! and name, the sender's architecture descriptor, and section lengths.
//! Header fields themselves are fixed little-endian so the header can be
//! parsed before anything is known about the sender.

use clayout::image::put_uint;
use clayout::{Architecture, Endianness};

use crate::error::PbioError;
use crate::format::FormatId;

/// The two magic bytes beginning every NDR message (`"ND"`).
const MAGIC: [u8; 2] = *b"ND";
/// The protocol version this build speaks.
const VERSION: u8 = 1;
/// Size of the fixed portion of the header, before the format name.
pub const FIXED_HEADER_LEN: usize = 32;
/// Byte offset of the `fixed_len` field — with [`PAYLOAD_LEN_OFFSET`],
/// one of the only two header fields that vary per message (everything
/// else is per-format constant; see `Format::header_prefix`).
pub const FIXED_LEN_OFFSET: usize = 16;
/// Byte offset of the `payload_len` field (see [`FIXED_LEN_OFFSET`]).
pub const PAYLOAD_LEN_OFFSET: usize = 20;
/// The longest format name the header's 2-byte `name_len` field can
/// carry. [`crate::format::Format::new`] rejects longer names so a
/// truncated, non-round-trippable header is never produced.
pub const MAX_FORMAT_NAME_LEN: usize = u16::MAX as usize;

/// An NDR message header to be written ([`WirePeek`] is what reading
/// one yields).
#[derive(Debug, Clone, PartialEq)]
pub struct WireHeader {
    /// The sender's registry id for the format.
    pub format_id: FormatId,
    /// The sender's architecture (reconstructed from its descriptor).
    pub arch: Architecture,
    /// The format name, so receivers with different registries can
    /// resolve the format without shared id space.
    pub format_name: String,
    /// A stable fingerprint of the struct definition (see
    /// [`crate::format::struct_fingerprint`]): distinguishes format
    /// *versions* that share a name, even across unrelated registries.
    pub fingerprint: u64,
    /// Length of the fixed part of the payload image.
    pub fixed_len: u32,
    /// Total payload length (fixed part + variable section).
    pub payload_len: u32,
}

/// A parsed header that borrows nothing and allocates nothing: the
/// fixed fields by value, and the format name as a range the caller
/// slices out of its own buffer ([`WirePeek::format_name`]). This is
/// what every receive path reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePeek {
    /// The sender's registry id for the format.
    pub format_id: FormatId,
    /// The sender's raw architecture descriptor (bytes 8..14).
    pub descriptor: [u8; 6],
    /// The struct-definition fingerprint.
    pub fingerprint: u64,
    /// Length of the format name, which starts at [`FIXED_HEADER_LEN`].
    pub name_len: u16,
    /// Bytes the header occupies (fixed part + padded name); the
    /// payload image starts here. Guaranteed `<= buf.len()`.
    pub header_len: usize,
    /// Length of the fixed part of the payload image.
    pub fixed_len: u32,
    /// Total payload length (fixed part + variable section).
    pub payload_len: u32,
}

impl WirePeek {
    /// The sender's architecture, reconstructed from its descriptor.
    pub fn arch(&self) -> Architecture {
        Architecture::from_descriptor(self.descriptor)
    }

    /// The format name, borrowed from `buf` — the buffer this header
    /// was peeked from.
    ///
    /// # Errors
    ///
    /// Reports a name that is not UTF-8.
    pub fn format_name<'a>(&self, buf: &'a [u8]) -> Result<&'a str, PbioError> {
        std::str::from_utf8(self.name_bytes(buf))
            .map_err(|_| PbioError::Text { detail: "format name is not UTF-8".to_owned() })
    }

    /// The format name's bytes in `buf`, unvalidated — enough to tell
    /// whether the message carries a name already in hand.
    pub(crate) fn name_bytes<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[FIXED_HEADER_LEN..FIXED_HEADER_LEN + usize::from(self.name_len)]
    }
}

impl WireHeader {
    /// Bytes this header occupies on the wire (fixed part + name, padded
    /// to 4 bytes).
    pub fn encoded_len(&self) -> usize {
        FIXED_HEADER_LEN + pad4(self.format_name.len())
    }

    /// Parses the header without allocating — see [`WirePeek`].
    /// Validates magic, version and that the whole header (including
    /// the name) is present.
    ///
    /// # Errors
    ///
    /// Reports bad magic, unsupported versions and truncation.
    pub fn peek(buf: &[u8]) -> Result<WirePeek, PbioError> {
        let Some(fixed) = buf.first_chunk::<FIXED_HEADER_LEN>() else {
            return Err(PbioError::Truncated { need: FIXED_HEADER_LEN, have: buf.len() });
        };
        if fixed[0..2] != MAGIC {
            return Err(PbioError::BadMagic { found: [fixed[0], fixed[1]] });
        }
        if fixed[2] != VERSION {
            return Err(PbioError::UnsupportedVersion { version: fixed[2] });
        }
        // Fixed-width little-endian fields at fixed offsets.
        fn le<const N: usize>(fixed: &[u8; FIXED_HEADER_LEN], at: usize) -> [u8; N] {
            fixed[at..at + N].try_into().expect("N bytes inside the fixed header")
        }
        let name_len = u16::from_le_bytes(le(fixed, 14));
        let header_len = FIXED_HEADER_LEN + pad4(usize::from(name_len));
        if buf.len() < header_len {
            return Err(PbioError::Truncated { need: header_len, have: buf.len() });
        }
        Ok(WirePeek {
            format_id: FormatId(u32::from_le_bytes(le(fixed, 4))),
            descriptor: le(fixed, 8),
            fingerprint: u64::from_le_bytes(le(fixed, 24)),
            name_len,
            header_len,
            fixed_len: u32::from_le_bytes(le(fixed, FIXED_LEN_OFFSET)),
            payload_len: u32::from_le_bytes(le(fixed, PAYLOAD_LEN_OFFSET)),
        })
    }

    /// Appends the encoded header to `out`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the format name fits the 2-byte length field
    /// ([`MAX_FORMAT_NAME_LEN`]); [`crate::format::Format`] construction
    /// guarantees this for every registered format.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        debug_assert!(
            self.format_name.len() <= MAX_FORMAT_NAME_LEN,
            "format name longer than the header's 2-byte length field"
        );
        let start = out.len();
        out.resize(start + self.encoded_len(), 0);
        let buf = &mut out[start..];
        buf[0..2].copy_from_slice(&MAGIC);
        buf[2] = VERSION;
        buf[3] = 0; // flags, reserved
        put_uint(buf, 4, 4, Endianness::Little, self.format_id.0 as u64);
        buf[8..14].copy_from_slice(&self.arch.descriptor());
        put_uint(buf, 14, 2, Endianness::Little, self.format_name.len() as u64);
        put_uint(buf, FIXED_LEN_OFFSET, 4, Endianness::Little, self.fixed_len as u64);
        put_uint(buf, PAYLOAD_LEN_OFFSET, 4, Endianness::Little, self.payload_len as u64);
        put_uint(buf, 24, 8, Endianness::Little, self.fingerprint);
        buf[FIXED_HEADER_LEN..FIXED_HEADER_LEN + self.format_name.len()]
            .copy_from_slice(self.format_name.as_bytes());
    }

}

/// Rounds `n` up to a multiple of 4 (XDR-style header padding).
fn pad4(n: usize) -> usize {
    (n + 3) & !3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WireHeader {
        WireHeader {
            format_id: FormatId(42),
            arch: Architecture::SPARC32,
            format_name: "ASDOffEvent".to_owned(),
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            fixed_len: 32,
            payload_len: 72,
        }
    }

    #[test]
    fn round_trip() {
        let header = sample();
        let mut buf = Vec::new();
        header.write_to(&mut buf);
        assert_eq!(buf.len(), header.encoded_len());
        let peek = WireHeader::peek(&buf).unwrap();
        assert_eq!(peek.header_len, buf.len());
        assert_eq!(peek.format_id, header.format_id);
        assert_eq!(peek.descriptor, header.arch.descriptor());
        assert_eq!(peek.arch(), header.arch);
        assert_eq!(peek.format_name(&buf).unwrap(), header.format_name);
        assert_eq!(peek.name_bytes(&buf), header.format_name.as_bytes());
        assert_eq!(peek.fingerprint, header.fingerprint);
        assert_eq!((peek.fixed_len, peek.payload_len), (header.fixed_len, header.payload_len));
    }

    #[test]
    fn header_len_is_padded_to_four() {
        let mut header = sample();
        for (name, expect) in [("a", 4), ("ab", 4), ("abc", 4), ("abcd", 4), ("abcde", 8)] {
            header.format_name = name.to_owned();
            assert_eq!(header.encoded_len() - FIXED_HEADER_LEN, expect, "{name}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf);
        buf[0] = b'X';
        assert!(matches!(WireHeader::peek(&buf), Err(PbioError::BadMagic { .. })));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf);
        buf[2] = 99;
        assert!(matches!(
            WireHeader::peek(&buf),
            Err(PbioError::UnsupportedVersion { version: 99 })
        ));
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf);
        for cut in 0..buf.len() {
            assert!(WireHeader::peek(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn name_at_the_two_byte_boundary_round_trips() {
        // 65535 bytes is the longest representable name; it must survive
        // a round trip exactly (no truncation into the length field).
        let header = WireHeader { format_name: "n".repeat(MAX_FORMAT_NAME_LEN), ..sample() };
        let mut buf = Vec::new();
        header.write_to(&mut buf);
        let peek = WireHeader::peek(&buf).unwrap();
        assert_eq!(peek.format_name(&buf).unwrap(), header.format_name);
        assert_eq!(peek.header_len, buf.len());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "2-byte length field")]
    fn name_past_the_boundary_is_refused_by_write_to() {
        let header =
            WireHeader { format_name: "n".repeat(MAX_FORMAT_NAME_LEN + 1), ..sample() };
        let mut buf = Vec::new();
        header.write_to(&mut buf);
    }

    #[test]
    fn a_name_that_is_not_utf8_is_reported_when_asked_for() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf);
        buf[FIXED_HEADER_LEN] = 0xff;
        let peek = WireHeader::peek(&buf).unwrap();
        assert!(matches!(peek.format_name(&buf), Err(PbioError::Text { .. })));
    }

    #[test]
    fn arch_descriptor_survives() {
        for arch in Architecture::ALL {
            let header = WireHeader { arch, ..sample() };
            let mut buf = Vec::new();
            header.write_to(&mut buf);
            assert!(WireHeader::peek(&buf).unwrap().arch().layout_compatible(&arch), "{arch}");
        }
    }
}
