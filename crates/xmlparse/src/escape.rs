//! Entity escaping and unescaping.
//!
//! Both directions are zero-copy when there is nothing to do:
//! [`unescape`] returns `Cow::Borrowed` for input without `&`, and the
//! escape functions return `Cow::Borrowed` for input without special
//! characters. The `_into` variants copy clean runs in bulk (located
//! with the SWAR byte search from [`crate::cursor`]) instead of pushing
//! character by character.

use std::borrow::Cow;

use crate::cursor::{find_byte, find_byte3};
use crate::error::{ErrorKind, Position, XmlError};

/// Escapes text content: `&`, `<`, `>` become entity references.
///
/// `>` is escaped too (it is only mandatory in the `]]>` sequence, but
/// escaping it unconditionally is harmless and keeps output canonical).
/// Returns the input unchanged (borrowed) when nothing needs escaping.
pub fn escape_text(raw: &str) -> Cow<'_, str> {
    match find_byte3(raw.as_bytes(), b'&', b'<', b'>') {
        None => Cow::Borrowed(raw),
        Some(_) => {
            let mut out = String::with_capacity(raw.len() + 8);
            escape_text_into(&mut out, raw);
            Cow::Owned(out)
        }
    }
}

/// Appends `raw` to `out` with text-content escaping applied, copying
/// clean runs in bulk.
pub fn escape_text_into(out: &mut String, raw: &str) {
    let bytes = raw.as_bytes();
    let mut start = 0;
    while let Some(rel) = find_byte3(&bytes[start..], b'&', b'<', b'>') {
        let at = start + rel;
        out.push_str(&raw[start..at]);
        out.push_str(match bytes[at] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            _ => "&gt;",
        });
        start = at + 1;
    }
    out.push_str(&raw[start..]);
}

/// Bytes needing escaping inside a double-quoted attribute value:
/// the markup specials plus literal whitespace that would otherwise be
/// normalized to spaces on re-parse.
const ATTR_SPECIAL: [bool; 256] = {
    let mut t = [false; 256];
    t[b'&' as usize] = true;
    t[b'<' as usize] = true;
    t[b'>' as usize] = true;
    t[b'"' as usize] = true;
    t[b'\n' as usize] = true;
    t[b'\r' as usize] = true;
    t[b'\t' as usize] = true;
    t
};

/// Escapes an attribute value for inclusion in double quotes. Returns
/// the input unchanged (borrowed) when nothing needs escaping.
pub fn escape_attribute(raw: &str) -> Cow<'_, str> {
    if raw.bytes().any(|b| ATTR_SPECIAL[b as usize]) {
        let mut out = String::with_capacity(raw.len() + 8);
        escape_attribute_into(&mut out, raw);
        Cow::Owned(out)
    } else {
        Cow::Borrowed(raw)
    }
}

/// Appends `raw` to `out` with attribute-value escaping applied, copying
/// clean runs in bulk.
pub fn escape_attribute_into(out: &mut String, raw: &str) {
    let bytes = raw.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if ATTR_SPECIAL[b as usize] {
            out.push_str(&raw[start..i]);
            out.push_str(match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' => "&quot;",
                b'\n' => "&#10;",
                b'\r' => "&#13;",
                _ => "&#9;",
            });
            start = i + 1;
        }
        i += 1;
    }
    out.push_str(&raw[start..]);
}

/// Resolves a single entity body (the text between `&` and `;`).
///
/// Handles the five predefined entities and decimal/hex character
/// references.
///
/// # Errors
///
/// Returns [`ErrorKind::UnknownEntity`] or [`ErrorKind::InvalidCharRef`]
/// at `pos`.
pub fn resolve_entity(entity: &str, pos: Position) -> Result<char, XmlError> {
    entity_char(entity).map_err(|kind| XmlError::new(kind, pos))
}

/// [`resolve_entity`] without a position: the error's kind alone.
fn entity_char(entity: &str) -> Result<char, ErrorKind> {
    match entity {
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "amp" => Ok('&'),
        "apos" => Ok('\''),
        "quot" => Ok('"'),
        _ => {
            if let Some(body) = entity.strip_prefix('#') {
                let value = if let Some(hex) = body.strip_prefix('x').or_else(|| body.strip_prefix('X')) {
                    u32::from_str_radix(hex, 16)
                } else {
                    body.parse::<u32>()
                };
                value
                    .ok()
                    .and_then(char::from_u32)
                    .filter(|ch| is_xml_char(*ch))
                    .ok_or_else(|| ErrorKind::InvalidCharRef { reference: entity.to_owned() })
            } else {
                Err(ErrorKind::UnknownEntity { entity: entity.to_owned() })
            }
        }
    }
}

/// Unescapes a string that may contain entity and character references.
///
/// Allocation-free when `raw` contains no `&`: the input is returned
/// borrowed.
///
/// # Errors
///
/// Propagates the errors of [`resolve_entity`], and reports an
/// [`ErrorKind::UnexpectedEof`] style error if a `&` is never closed by
/// `;`.
pub fn unescape(raw: &str, pos: Position) -> Result<Cow<'_, str>, XmlError> {
    unescape_kind(raw).map_err(|kind| XmlError::new(kind, pos))
}

/// [`unescape`] without a position: the error's kind alone, for the
/// tokenizer, which knows where a run began as a byte offset and builds
/// a [`Position`] from it only on error.
pub(crate) fn unescape_kind(raw: &str) -> Result<Cow<'_, str>, ErrorKind> {
    let first = match find_byte(raw.as_bytes(), b'&') {
        None => return Ok(Cow::Borrowed(raw)),
        Some(first) => first,
    };
    let mut out = String::with_capacity(raw.len());
    out.push_str(&raw[..first]);
    let mut rest = &raw[first..];
    while let Some(amp) = find_byte(rest.as_bytes(), b'&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = find_byte(after.as_bytes(), b';')
            .ok_or(ErrorKind::UnexpectedEof { expecting: "';' closing an entity" })?;
        out.push(entity_char(&after[..semi])?);
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Whether `ch` is a legal XML 1.0 character.
pub fn is_xml_char(ch: char) -> bool {
    matches!(ch,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Position {
        Position::start()
    }

    #[test]
    fn escape_then_unescape_is_identity_for_specials() {
        let raw = "a<b&c>\"d'e";
        assert_eq!(unescape(&escape_text(raw), p()).unwrap(), raw);
        assert_eq!(unescape(&escape_attribute(raw), p()).unwrap(), raw);
    }

    #[test]
    fn predefined_entities_resolve() {
        assert_eq!(unescape("&lt;&gt;&amp;&apos;&quot;", p()).unwrap(), "<>&'\"");
    }

    #[test]
    fn numeric_references_decimal_and_hex() {
        assert_eq!(unescape("&#65;&#x42;&#x63;", p()).unwrap(), "ABc");
    }

    #[test]
    fn unknown_entity_is_rejected() {
        let err = unescape("&nbsp;", p()).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::UnknownEntity { .. }));
    }

    #[test]
    fn char_ref_to_illegal_code_point_is_rejected() {
        // 0x0 is not an XML char; 0xD800 is a surrogate.
        assert!(unescape("&#0;", p()).is_err());
        assert!(unescape("&#xD800;", p()).is_err());
    }

    #[test]
    fn unterminated_entity_is_rejected() {
        assert!(unescape("tail &amp", p()).is_err());
    }

    #[test]
    fn attribute_escaping_preserves_whitespace_exactly() {
        let raw = "line1\nline2\ttabbed";
        assert_eq!(unescape(&escape_attribute(raw), p()).unwrap(), raw);
    }

    #[test]
    fn clean_input_round_trips_borrowed() {
        assert!(matches!(unescape("plain text", p()).unwrap(), Cow::Borrowed(_)));
        assert!(matches!(escape_text("plain"), Cow::Borrowed(_)));
        assert!(matches!(escape_attribute("plain value"), Cow::Borrowed(_)));
        // Multibyte content without specials stays borrowed too.
        assert!(matches!(escape_text("héllo wörld"), Cow::Borrowed(_)));
    }

    #[test]
    fn escaped_forms_match_the_per_char_reference() {
        let raw = "a<b&c>\"d'e\n\tf\rg";
        let mut text_ref = String::new();
        let mut attr_ref = String::new();
        for ch in raw.chars() {
            match ch {
                '&' => text_ref.push_str("&amp;"),
                '<' => text_ref.push_str("&lt;"),
                '>' => text_ref.push_str("&gt;"),
                _ => text_ref.push(ch),
            }
            match ch {
                '&' => attr_ref.push_str("&amp;"),
                '<' => attr_ref.push_str("&lt;"),
                '>' => attr_ref.push_str("&gt;"),
                '"' => attr_ref.push_str("&quot;"),
                '\n' => attr_ref.push_str("&#10;"),
                '\r' => attr_ref.push_str("&#13;"),
                '\t' => attr_ref.push_str("&#9;"),
                _ => attr_ref.push(ch),
            }
        }
        assert_eq!(escape_text(raw), text_ref);
        assert_eq!(escape_attribute(raw), attr_ref);
    }
}
