//! The NDR wire codec: header + native byte image.
//!
//! Encoding "moves data directly out of memory onto the transmission
//! medium" (§1): the payload *is* the sender's native image, so the
//! sender-side cost is building that image (one pass of the format's
//! compiled layout, no representation change). Decoding has two paths:
//!
//! * [`view_with`] — read values straight out of the wire image through
//!   the sender's layout (reader-makes-right at the value level),
//!   with [`decode`] / [`decode_with`] materializing the view as a
//!   [`Record`] and [`decode_typed`] reading it into a derived struct
//!   ([`decode_planned`] reads a foreign sender through the layout its
//!   cached conversion plan keeps), or
//! * [`to_native_image`] — produce a byte image in the *receiver's*
//!   layout via a cached [`ConversionPlan`](crate::convert::ConversionPlan),
//!   which is free (one bulk
//!   copy) between layout-compatible machines.
//!
//! Every receive path reads the header with [`WireHeader::peek`]: once,
//! without allocating.

use std::sync::Arc;

use clayout::{Architecture, Record, Source};

use crate::convert::{ImageCow, PlanCache};
use crate::error::PbioError;
use crate::format::Format;
use crate::header::{WireHeader, WirePeek};
use crate::registry::FormatRegistry;
use crate::typed::Xml2WireRecord;
use crate::view::RecordView;

/// Encodes `record` in `format` as a complete NDR message.
///
/// # Errors
///
/// Propagates image-encoding failures (missing fields, range overflow).
pub fn encode(record: &Record, format: &Format) -> Result<Vec<u8>, PbioError> {
    // The header and the fixed part are the message's known minimum.
    let mut out = Vec::with_capacity(format.header_prefix().len() + format.record_size());
    encode_into(&mut out, record, format)?;
    Ok(out)
}

/// Writes a message of `format` into `out` (cleared first): the
/// format's memoized header prefix, the payload image its layout writes
/// from `record`, and the two length fields — the only per-message
/// header work.
fn message_into<S: Source + ?Sized>(
    out: &mut Vec<u8>,
    record: &S,
    format: &Format,
) -> Result<(), PbioError> {
    use crate::header::{FIXED_LEN_OFFSET, PAYLOAD_LEN_OFFSET};

    out.clear();
    out.extend_from_slice(format.header_prefix());
    let header_len = out.len();
    let fixed_len = clayout::encode_record_into(out, record, format.layout())?;
    let payload_len = out.len() - header_len;
    out[FIXED_LEN_OFFSET..FIXED_LEN_OFFSET + 4].copy_from_slice(&(fixed_len as u32).to_le_bytes());
    out[PAYLOAD_LEN_OFFSET..PAYLOAD_LEN_OFFSET + 4]
        .copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(())
}

/// Encodes `record` in `format` into `out`, reusing the buffer's
/// capacity — the zero-allocation hot path behind [`encode`].
///
/// The buffer is cleared, the format's memoized header prefix is copied
/// in, and the format's compiled layout writes the payload image
/// directly after it in one pass; the only per-message header work is
/// patching the two length fields. A caller that keeps `out` pooled
/// (e.g. backbone's `CapturePoint`) performs no allocations per message
/// once the buffer has grown to the working-set size.
///
/// # Errors
///
/// As [`encode`]. On error `out` holds partially written bytes and must
/// not be transmitted (the next `encode_into` clears it).
#[inline]
pub fn encode_into(
    out: &mut Vec<u8>,
    record: &Record,
    format: &Format,
) -> Result<(), PbioError> {
    message_into(out, record, format)
}

/// Encodes a derived [`Xml2WireRecord`] in `format` into `out`: the
/// typed twin of [`encode_into`], through the same layout, which reads
/// the struct's fields where it reads a [`Record`]'s.
/// The bytes are [`encode_into`]'s for the equivalent record, and so are
/// the errors (range overflows, pointer-width overflows).
///
/// `format` must describe `T` (normally obtained by registering
/// `T::struct_type()`); the caller pins it once, exactly like the
/// dynamic publish path pins its resolved format.
///
/// # Errors
///
/// As [`encode_into`]. On error `out` holds partially written bytes and
/// must not be transmitted.
pub fn encode_typed_into<T: Xml2WireRecord>(
    out: &mut Vec<u8>,
    value: &T,
    format: &Format,
) -> Result<(), PbioError> {
    message_into(out, value, format)
}

/// Splits a message into its peeked header and payload bytes. Nothing
/// is allocated; the format name stays in `buf`
/// ([`WirePeek::format_name`]).
///
/// # Errors
///
/// Reports malformed or truncated headers and payloads.
#[inline]
pub fn split(buf: &[u8]) -> Result<(WirePeek, &[u8]), PbioError> {
    let peek = WireHeader::peek(buf)?;
    let need = peek.header_len + peek.payload_len as usize;
    if buf.len() < need {
        return Err(PbioError::Truncated { need, have: buf.len() });
    }
    let payload = &buf[peek.header_len..need];
    if (peek.fixed_len as usize) > payload.len() {
        return Err(PbioError::Truncated { need: peek.fixed_len as usize, have: payload.len() });
    }
    Ok((peek, payload))
}

/// [`split`], refusing a message that does not carry `format`'s name,
/// or carries it for another *version* of the definition: a view or a
/// conversion plan reads a payload through `format`'s struct type, so
/// it may only ever see payloads of that definition.
#[inline]
fn split_for<'a>(buf: &'a [u8], format: &Format) -> Result<(WirePeek, &'a [u8]), PbioError> {
    let (peek, payload) = split(buf)?;
    if peek.name_bytes(buf) != format.name().as_bytes() {
        return Err(PbioError::FormatMismatch {
            expected: format.name().to_owned(),
            found: peek.format_name(buf)?.to_owned(),
        });
    }
    if peek.fingerprint != format.fingerprint() {
        return Err(different_version(format.name()));
    }
    Ok((peek, payload))
}

/// The error for a message whose name is known but whose structure
/// fingerprint is not the one in hand.
fn different_version(name: &str) -> PbioError {
    PbioError::FormatMismatch {
        expected: name.to_owned(),
        found: format!("{name} (a different version: structure fingerprints differ)"),
    }
}

/// Decodes a message whose format the caller already holds (e.g. from a
/// subscription): [`view_with`], materialized. The payload is
/// interpreted with the *sender's* architecture from the header; the
/// caller's format supplies the struct type.
///
/// # Errors
///
/// Reports header problems, format-name and version mismatches, and
/// malformed payloads.
pub fn decode_with(buf: &[u8], format: &Format) -> Result<Record, PbioError> {
    view_with(buf, format)?.to_record()
}

/// Opens a borrowed [`RecordView`] over a message's payload: no
/// `Record` is materialized, fields decode lazily on access, and
/// strings come back as slices of `buf` itself. Between
/// layout-compatible machines nothing is allocated; a foreign sender's
/// layout is compiled for the view, per call (there is no plan cache
/// here to keep it — see [`decode_planned`]).
///
/// # Errors
///
/// Reports header problems, format-name and version mismatches, and
/// payloads shorter than the sender's fixed part.
#[inline]
pub fn view_with<'a>(buf: &'a [u8], format: &'a Format) -> Result<RecordView<'a>, PbioError> {
    let (peek, payload) = split_for(buf, format)?;
    RecordView::over_descriptor(payload, format, peek.descriptor)
}

/// Decodes a message of `format` into a derived [`Xml2WireRecord`]: the
/// typed twin of [`decode_with`], reading the same [`view_with`] view —
/// over the format's own layout when the sender shares it — field by
/// field into `T`. From a preset architecture it
/// succeeds exactly when [`decode_with`] does, with the same values; a
/// sender whose `int` is wider than an `i32` field gets a type mismatch
/// where [`decode_with`] would hand back the wide value.
///
/// `format` must describe `T`, as for [`encode_typed_into`].
///
/// # Errors
///
/// As [`decode_with`], and a type mismatch for a value `T`'s field cannot
/// hold.
pub fn decode_typed<T: Xml2WireRecord>(buf: &[u8], format: &Format) -> Result<T, PbioError> {
    T::from_view(&view_with(buf, format)?)
}

/// Resolves the format a message was encoded with in `registry`, and
/// splits the message.
///
/// Resolution pins the exact *definition*: first the header's id (fast
/// path when sender and receiver share an id space), then any
/// registered version whose name and structure fingerprint match the
/// header's. A registry that only holds a *different* version of the
/// name gets [`PbioError::FormatMismatch`] — never a silent mis-layout
/// read — prompting re-discovery.
///
/// # Errors
///
/// Header problems, unknown formats, version-fingerprint mismatches.
#[inline]
pub fn resolve<'a>(
    buf: &'a [u8],
    registry: &FormatRegistry,
) -> Result<(Arc<Format>, WirePeek, &'a [u8]), PbioError> {
    let (peek, payload) = split(buf)?;
    let name = peek.format_name(buf)?;
    let pinned = |f: &Arc<Format>| f.fingerprint() == peek.fingerprint && f.name() == name;
    match registry
        .by_id(peek.format_id)
        .filter(pinned)
        .or_else(|| registry.by_fingerprint(name, peek.fingerprint))
    {
        Some(format) => Ok((format, peek, payload)),
        // Distinguish "never heard of it" from "wrong version".
        None => Err(match registry.by_name(name) {
            Some(_) => different_version(name),
            None => PbioError::UnknownFormat { name: name.to_owned() },
        }),
    }
}

/// Decodes a message by resolving its format in `registry`
/// ([`resolve`]). A foreign sender's layout is compiled per call;
/// [`decode_planned`] keeps it in a [`PlanCache`].
///
/// # Errors
///
/// Unknown formats, version-fingerprint mismatches, malformed payloads.
pub fn decode(
    buf: &[u8],
    registry: &FormatRegistry,
) -> Result<(Arc<Format>, Record), PbioError> {
    let (format, peek, payload) = resolve(buf, registry)?;
    let record = RecordView::over_descriptor(payload, &format, peek.descriptor)?.to_record()?;
    Ok((format, record))
}

/// [`decode`] for a receiver that keeps a [`PlanCache`]: a payload from a
/// sender that is not laid out like the resolved format is read through
/// the source layout of the plan `plans` holds for the sender's
/// architecture — the plan [`to_native_image`] converts with, compiled
/// on the first such message — instead of a layout compiled per
/// message, as [`decode`] and [`view_with`] compile it. The records and
/// errors are [`decode`]'s.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_planned(
    buf: &[u8],
    registry: &FormatRegistry,
    plans: &PlanCache,
) -> Result<(Arc<Format>, Record), PbioError> {
    let (format, peek, payload) = resolve(buf, registry)?;
    let record = if format.own_descriptor() == Some(peek.descriptor) {
        RecordView::over_descriptor(payload, &format, peek.descriptor)?.to_record()?
    } else {
        let plan = plans.plan_for_format(&format, &peek.arch())?;
        RecordView::over_plan(payload, &format, &plan)?.to_record()?
    };
    Ok((format, record))
}

/// Converts a message's payload into a native image for
/// `native_format`'s architecture, using (and populating) `plans`.
///
/// Between layout-compatible architectures the returned [`ImageCow`]
/// *borrows* the payload in place — the paper's "directly from the
/// transmission medium into memory", with zero copies. Call
/// [`ImageCow::into_owned`] to detach from the wire buffer.
///
/// # Errors
///
/// Reports header problems, name and version mismatches, conversion
/// overflow and malformed payloads.
pub fn to_native_image<'a>(
    buf: &'a [u8],
    native_format: &Format,
    plans: &PlanCache,
) -> Result<ImageCow<'a>, PbioError> {
    let (peek, payload) = split_for(buf, native_format)?;
    plans.plan_for_format(native_format, &peek.arch())?.convert(payload)
}

/// Pooled-destination variant of [`to_native_image`]: converts the
/// payload into `out` (cleared first), reusing its allocation, and
/// returns the native image's fixed-part length. The steady-state
/// heterogeneous receive path does zero heap allocations per message
/// once `out` has grown to the working-set size.
///
/// Identity (layout-compatible) pairs copy the payload into `out`;
/// callers that can hold the source buffer should use
/// [`to_native_image`] there to borrow instead.
///
/// # Errors
///
/// As [`to_native_image`]; `out` contents are unspecified after an
/// error.
pub fn to_native_image_into(
    buf: &[u8],
    native_format: &Format,
    plans: &PlanCache,
    out: &mut Vec<u8>,
) -> Result<usize, PbioError> {
    let (peek, payload) = split_for(buf, native_format)?;
    plans.plan_for_format(native_format, &peek.arch())?.convert_into(payload, out)
}

/// Returns the sender architecture recorded in a message header.
///
/// # Errors
///
/// Reports malformed headers.
pub fn peek_arch(buf: &[u8]) -> Result<Architecture, PbioError> {
    Ok(WireHeader::peek(buf)?.arch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FormatId;
    use clayout::{CType, Primitive, StructField, StructType};

    fn structure_a() -> StructType {
        StructType::new(
            "ASDOffEvent",
            vec![
                StructField::new("cntrID", CType::String),
                StructField::new("arln", CType::String),
                StructField::new("fltNum", CType::Prim(Primitive::Int)),
                StructField::new("equip", CType::String),
                StructField::new("org", CType::String),
                StructField::new("dest", CType::String),
                StructField::new("off", CType::Prim(Primitive::ULong)),
                StructField::new("eta", CType::Prim(Primitive::ULong)),
            ],
        )
    }

    fn sample() -> Record {
        Record::new()
            .with("cntrID", "ZTL")
            .with("arln", "DL")
            .with("fltNum", 1202i64)
            .with("equip", "B752")
            .with("org", "ATL")
            .with("dest", "BOS")
            .with("off", 1748707200u64)
            .with("eta", 1748710800u64)
    }

    fn format_on(arch: Architecture) -> Format {
        Format::new(FormatId(1), structure_a(), arch).unwrap()
    }

    #[test]
    fn encode_decode_round_trip_homogeneous() {
        let format = format_on(Architecture::X86_64);
        let wire = encode(&sample(), &format).unwrap();
        let back = decode_with(&wire, &format).unwrap();
        assert_eq!(back.get("cntrID").unwrap().as_str(), Some("ZTL"));
        assert_eq!(back.get("eta").unwrap().as_u64(), Some(1748710800));
    }

    #[test]
    fn heterogeneous_decode_uses_the_header_arch() {
        // Sender on big-endian 32-bit, receiver format bound to x86-64.
        let sender = format_on(Architecture::SPARC32);
        let wire = encode(&sample(), &sender).unwrap();
        let receiver = format_on(Architecture::X86_64);
        let back = decode_with(&wire, &receiver).unwrap();
        assert_eq!(back.get("fltNum").unwrap().as_i64(), Some(1202));
        assert_eq!(back.get("dest").unwrap().as_str(), Some("BOS"));
    }

    #[test]
    fn registry_decode_resolves_by_name() {
        let sender_registry = FormatRegistry::new();
        let sender = sender_registry.register(structure_a(), Architecture::SPARC64).unwrap();
        // Receiver registered independently: different ids are fine.
        let receiver_registry = FormatRegistry::new();
        receiver_registry
            .register(
                StructType::new("Decoy", vec![StructField::new("x", CType::Prim(Primitive::Int))]),
                Architecture::X86_64,
            )
            .unwrap();
        let receiver_format =
            receiver_registry.register(structure_a(), Architecture::X86_64).unwrap();
        assert_ne!(sender.id(), receiver_format.id());

        let wire = encode(&sample(), &sender).unwrap();
        let (resolved, record) = decode(&wire, &receiver_registry).unwrap();
        assert_eq!(resolved.name(), "ASDOffEvent");
        assert_eq!(record.get("arln").unwrap().as_str(), Some("DL"));
    }

    #[test]
    fn unknown_format_is_reported() {
        let sender = format_on(Architecture::X86_64);
        let wire = encode(&sample(), &sender).unwrap();
        let empty = FormatRegistry::new();
        assert!(matches!(decode(&wire, &empty), Err(PbioError::UnknownFormat { .. })));
    }

    #[test]
    fn name_mismatch_is_reported() {
        let sender = format_on(Architecture::X86_64);
        let wire = encode(&sample(), &sender).unwrap();
        let other = Format::new(
            FormatId(9),
            StructType::new("Other", vec![StructField::new("x", CType::Prim(Primitive::Int))]),
            Architecture::X86_64,
        )
        .unwrap();
        assert!(matches!(
            decode_with(&wire, &other),
            Err(PbioError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn another_version_of_the_name_is_refused_not_misread() {
        // The sender's `T` grew a leading double; a receiver holding the
        // old `T` must not read the new layout through its own.
        let field = |name: &str, ty| StructField::new(name, ty);
        let held = StructType::new(
            "T",
            vec![field("a", CType::Prim(Primitive::Int)), field("s", CType::String)],
        );
        let mut sent = held.clone();
        sent.fields.insert(0, field("z", CType::Prim(Primitive::Double)));
        let sender = Format::new(FormatId(1), sent, Architecture::X86_64).unwrap();
        let record = Record::new().with("z", 2.5f64).with("a", 9i64).with("s", "long");
        let wire = encode(&record, &sender).unwrap();
        let held = Format::new(FormatId(1), held, Architecture::X86_64).unwrap();
        let plans = PlanCache::new();
        for err in [
            decode_with(&wire, &held).unwrap_err(),
            view_with(&wire, &held).unwrap_err(),
            to_native_image(&wire, &held, &plans).unwrap_err(),
        ] {
            assert!(err.to_string().contains("a different version"), "{err}");
        }
    }

    #[test]
    fn to_native_image_homogeneous_borrows_payload() {
        let format = format_on(Architecture::X86_64);
        let wire = encode(&sample(), &format).unwrap();
        let plans = PlanCache::new();
        let image = to_native_image(&wire, &format, &plans).unwrap();
        let (_, payload) = split(&wire).unwrap();
        assert_eq!(image.bytes, payload);
        // The homogeneous fast path aliases the wire buffer in place.
        assert!(image.is_borrowed());
        assert_eq!(image.bytes.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn to_native_image_heterogeneous_converts() {
        let sender = format_on(Architecture::SPARC32);
        let wire = encode(&sample(), &sender).unwrap();
        let native = format_on(Architecture::X86_64);
        let plans = PlanCache::new();
        let image = to_native_image(&wire, &native, &plans).unwrap();
        assert_eq!(image.fixed_len, native.record_size());
        let record =
            RecordView::over(&image.bytes, &native, native.arch()).unwrap().to_record().unwrap();
        assert_eq!(record.get("org").unwrap().as_str(), Some("ATL"));
        // Second message reuses the plan.
        assert_eq!(plans.stats().resident, 1);
        to_native_image(&wire, &native, &plans).unwrap();
        assert_eq!(plans.stats().resident, 1);
    }

    #[test]
    fn to_native_image_into_matches_and_reuses_buffer() {
        let sender = format_on(Architecture::SPARC32);
        let wire = encode(&sample(), &sender).unwrap();
        let native = format_on(Architecture::X86_64);
        let plans = PlanCache::new();
        let image = to_native_image(&wire, &native, &plans).unwrap();
        let mut pool = Vec::new();
        let fixed = to_native_image_into(&wire, &native, &plans, &mut pool).unwrap();
        assert_eq!(fixed, image.fixed_len);
        assert_eq!(pool.as_slice(), image.bytes.as_ref());
        let cap = pool.capacity();
        for _ in 0..8 {
            to_native_image_into(&wire, &native, &plans, &mut pool).unwrap();
        }
        assert_eq!(pool.capacity(), cap);
        let stats = plans.stats();
        assert_eq!(stats.built, 1);
        assert!(stats.hits >= 9);
    }

    #[test]
    fn truncated_messages_are_rejected_at_every_cut() {
        let format = format_on(Architecture::X86_64);
        let wire = encode(&sample(), &format).unwrap();
        for cut in 0..wire.len() {
            assert!(decode_with(&wire[..cut], &format).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn peek_arch_reads_the_sender() {
        let sender = format_on(Architecture::POWER64);
        let wire = encode(&sample(), &sender).unwrap();
        assert!(peek_arch(&wire).unwrap().layout_compatible(&Architecture::POWER64));
    }
}
