//! Adversarial-input hardening across every wire codec.
//!
//! A hostile sender controls every byte on the wire, so each decoder
//! must treat claimed lengths — string lengths, dynamic-array counts —
//! as untrusted until clamped against the input that actually arrived.
//! These tests take an honestly encoded message per codec, corrupt its
//! length/count words to absurd values (up to `0xFFFFFFFF`), and assert
//! the decoder rejects the message instead of attempting a multi-GB
//! allocation or a runaway decode loop.

mod codecs;
#[path = "../../clayout/tests/oracle/mod.rs"]
mod oracle;

use clayout::{Architecture, CType, Primitive, Record, StructField, StructType};
use codecs::CODECS;
use oracle::put_uint;
use pbio::format::{Format, FormatId};

fn adversarial_format() -> Format {
    Format::new(
        FormatId(9),
        StructType::new(
            "Adv",
            vec![
                StructField::new(
                    "xs",
                    CType::dynamic_array(CType::Prim(Primitive::Int), "n"),
                ),
                StructField::new("n", CType::Prim(Primitive::Int)),
                StructField::new("tag", CType::String),
            ],
        ),
        Architecture::host(),
    )
    .unwrap()
}

fn sample() -> Record {
    Record::new().with("xs", vec![1i64, 2, 3]).with("tag", "ok")
}

/// Patches the dynamic-array count inside an honestly encoded message
/// to `claimed`, per codec framing. Returns `None` for codecs whose
/// counts are not a fixed wire word (xml-text derives counts from the
/// elements present, so there is nothing to forge).
fn forge_count(codec: &str, wire: &mut [u8], format: &Format, claimed: u32) -> bool {
    match codec {
        "ndr" => {
            // The count field lives in the fixed region at its layout
            // offset, in the sender's byte order, after the header.
            let header_len = pbio::header::WireHeader::peek(wire).unwrap().header_len;
            let n = format.struct_type().field_index("n").unwrap();
            let field = &format.layout().fields[n];
            put_uint(
                wire,
                header_len + field.offset,
                field.size,
                format.arch().endianness,
                u64::from(claimed),
            );
            true
        }
        "xdr" => {
            // `xs` is the first field: its count word is bytes 0..4,
            // big-endian.
            wire[0..4].copy_from_slice(&claimed.to_be_bytes());
            true
        }
        "cdr" => {
            // Byte-order flag + 3 pad bytes, then the count word in the
            // flagged order.
            put_uint(wire, 4, 4, format.arch().endianness, u64::from(claimed));
            true
        }
        _ => false,
    }
}

#[test]
fn forged_u32_max_counts_are_rejected_by_every_binary_codec() {
    let format = adversarial_format();
    for (name, encode, decode) in CODECS {
        let mut wire = encode(&sample(), &format).unwrap();
        if !forge_count(name, &mut wire, &format, u32::MAX) {
            continue;
        }
        let err = decode(&wire, &format).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("count") || text.contains("truncated"),
            "{name}: unexpected error {text}"
        );
    }
}

#[test]
fn forged_counts_just_past_the_input_are_rejected() {
    // Not only the absurd extreme: a count that is merely one element
    // more than the input can back must also fail cleanly.
    let format = adversarial_format();
    for (name, encode, decode) in CODECS {
        let mut wire = encode(&sample(), &format).unwrap();
        let too_many = (wire.len() / 4 + 1) as u32;
        if !forge_count(name, &mut wire, &format, too_many) {
            continue;
        }
        assert!(decode(&wire, &format).is_err(), "{name}: accepted a count the input cannot back");
    }
}

#[test]
fn truncated_messages_are_rejected_at_every_cut_by_every_codec() {
    let format = adversarial_format();
    for (name, encode, decode) in CODECS {
        let wire = encode(&sample(), &format).unwrap();
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut], &format).is_err(), "{name} accepted a cut at {cut}");
        }
    }
}

#[test]
fn ndr_view_rejects_forged_counts_too() {
    // The zero-copy view path must apply the same clamp as the eager
    // decoder.
    let format = adversarial_format();
    let mut wire = pbio::ndr::encode(&sample(), &format).unwrap();
    assert!(forge_count("ndr", &mut wire, &format, u32::MAX));
    let view = pbio::ndr::view_with(&wire, &format).unwrap();
    assert!(view.get("xs").is_err(), "view served a forged count");
}

#[test]
fn conversion_plans_reject_forged_counts() {
    // The heterogeneous receive path runs ConversionPlan, not the eager
    // decoder — it must apply the same count clamp, across swapped and
    // resized pairs, to a payload the interpretive oracle refuses too.
    let st = adversarial_format().struct_type().clone();
    let src = *adversarial_format().arch();
    let native_wire = {
        let format = adversarial_format();
        let mut wire = pbio::ndr::encode(&sample(), &format).unwrap();
        assert!(forge_count("ndr", &mut wire, &format, u32::MAX));
        let header_len = pbio::header::WireHeader::peek(&wire).unwrap().header_len;
        wire.split_off(header_len)
    };
    assert!(matches!(
        oracle::decode_record(&native_wire, &st, &src),
        Err(clayout::LayoutError::BadCount { .. })
    ));
    for dst in Architecture::ALL {
        let plan = pbio::ConversionPlan::build(&st, &src, &dst).unwrap();
        if plan.is_identity() {
            continue; // identity borrows; the decoder clamps later
        }
        let err = plan.convert(&native_wire).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("count") || text.contains("truncated"),
            "{src} -> {dst}: unexpected error {text}"
        );
    }
}

#[test]
fn conversion_plans_reject_forged_string_pointers() {
    let st = StructType::new("P", vec![StructField::new("s", CType::String)]);
    let src = Architecture::X86_64;
    let rec = Record::new().with("s", "hi");
    let mut payload =
        clayout::encode_record(&rec, &st, &src).unwrap().bytes;
    // Point the string slot far past the payload.
    put_uint(&mut payload, 0, src.pointer.size, src.endianness, 1 << 40);
    for dst in [Architecture::SPARC32, Architecture::POWER64] {
        let plan = pbio::ConversionPlan::build(&st, &src, &dst).unwrap();
        assert!(
            plan.convert(&payload).is_err(),
            "{src} -> {dst}: followed a forged pointer"
        );
    }
}

#[test]
fn conversion_plans_reject_truncation_at_every_cut() {
    // A swap-only pair and a general pair: every prefix of an honest
    // payload must error, never panic — as it does in the interpretive
    // oracle's reader.
    let format = adversarial_format();
    let st = format.struct_type().clone();
    let src = *format.arch();
    let wire = pbio::ndr::encode(&sample(), &format).unwrap();
    let header_len = pbio::header::WireHeader::peek(&wire).unwrap().header_len;
    let payload = &wire[header_len..];
    for dst in [Architecture::POWER64, Architecture::SPARC32] {
        let plan = pbio::ConversionPlan::build(&st, &src, &dst).unwrap();
        for cut in 0..payload.len() {
            assert!(plan.convert(&payload[..cut]).is_err(), "{dst} cut {cut}");
            assert!(oracle::decode_record(&payload[..cut], &st, &src).is_err(), "oracle cut {cut}");
        }
    }
}

#[test]
fn xml_text_with_absurd_count_value_stays_bounded() {
    // The text codec derives array counts from the elements actually
    // present; a forged count *value* must not drive any allocation.
    let format = adversarial_format();
    let text = pbio::textxml::encode(&sample(), format.struct_type()).unwrap();
    let forged = text.replace(">3<", ">4294967295<");
    let out = pbio::textxml::decode(&forged, format.struct_type());
    // Either rejected or decoded with the three real elements — never a
    // 0xFFFFFFFF-element allocation.
    if let Ok(record) = out {
        assert_eq!(record.get("xs").unwrap().as_array().unwrap().len(), 3);
    }
}
