//! `Xml2Wire::decode` reads a foreign sender's payload through the
//! source layout of the session's cached conversion plan; `pbio::ndr::decode`
//! lays the sender's struct out again for every message. This holds the
//! two to one answer — the same record, or the same error — on the
//! golden corpus (Structures A, B and C+D as NDR from each of the six
//! architectures, read on each of the six), on every truncation of each
//! message, on every single-byte flip, and with every dynamic array's
//! count forged. It also pins that a session which converts a message
//! and decodes it, in either order, builds one plan between the two.

use std::path::Path;

use clayout::{Access, ArrayCount, Layout};
use openmeta::prelude::*;
use pbio::header::WireHeader;
use pbio::{ndr, PbioError};
use xml2wire::X2wError;

fn corpus(file: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(file stem, which of the document's types is the root)`.
const CASES: [(&str, usize); 3] = [("a", 0), ("b", 0), ("cd", 1)];

/// A session on `arch` with `stem`'s schema bound, and the root's name.
fn session(stem: &str, root: usize, arch: Architecture) -> (Xml2Wire, String) {
    let xsd = String::from_utf8(corpus(&format!("{stem}.xsd"))).unwrap();
    let session = Xml2Wire::builder().arch(arch).build();
    let name = session.register_schema_str(&xsd).unwrap()[root]
        .name()
        .to_owned();
    (session, name)
}

/// What a decode answers, comparable across the two decoders.
fn answer(
    result: Result<(std::sync::Arc<Format>, Record), PbioError>,
) -> Result<(String, Record), PbioError> {
    result.map(|(format, record)| (format.name().to_owned(), record))
}

/// Both decoders on `message`; panics where they differ.
fn agree(session: &Xml2Wire, message: &[u8], what: &str) {
    let planned = match session.decode(message) {
        Ok(decoded) => Ok(decoded),
        Err(X2wError::Bcm(e)) => Err(e),
        Err(other) => panic!("{what}: not a wire error: {other}"),
    };
    let unplanned = ndr::decode(message, session.registry());
    assert_eq!(answer(planned), answer(unplanned), "{what}");
}

/// Every dynamic array's count slot under `layout` at `base`: its
/// offset in the payload and its code.
fn count_slots(layout: &Layout, base: usize, out: &mut Vec<(usize, clayout::ScalarCode)>) {
    for field in &layout.fields {
        match &field.access {
            Access::Struct(inner) => count_slots(inner, base + field.offset, out),
            Access::Array(array) => {
                if let ArrayCount::Counted(c) = array.count {
                    out.push((base + c.offset, c.code));
                }
                // A fixed array of structs repeats its element's slots.
                if let (Access::Struct(inner), ArrayCount::Fixed(n)) = (&array.elem, array.count) {
                    for k in 0..n {
                        count_slots(inner, base + field.offset + k * array.stride, out);
                    }
                }
            }
            _ => {}
        }
    }
}

#[test]
fn the_planned_decode_answers_what_the_unplanned_one_does() {
    for (stem, root) in CASES {
        for receiver in Architecture::ALL {
            let (session, name) = session(stem, root, receiver);
            let st = session.require_format(&name).unwrap().struct_type().clone();
            for sender in Architecture::ALL {
                let file = format!("{stem}.{}.ndr", sender.name);
                let wire = corpus(&file);
                let what = format!("{file} read on {}", receiver.name);
                agree(&session, &wire, &what);

                for cut in 0..wire.len() {
                    agree(&session, &wire[..cut], &format!("{what}, cut to {cut}"));
                }
                let mut flipped = wire.clone();
                for at in 0..wire.len() {
                    flipped[at] ^= 0xA5;
                    agree(&session, &flipped, &format!("{what}, byte {at} flipped"));
                    flipped[at] = wire[at];
                }

                let header_len = WireHeader::peek(&wire).unwrap().header_len;
                let mut slots = Vec::new();
                count_slots(
                    &Layout::of_struct(&st, &sender).unwrap(),
                    header_len,
                    &mut slots,
                );
                assert_eq!(slots.is_empty(), stem == "a", "{file}: count slots");
                for (at, code) in slots {
                    let honest = code.read(&wire, at);
                    for forged in [0, 1, 4, 5, 0x7fff_ffff, u64::MAX] {
                        let mut mutant = wire.clone();
                        code.write_raw(&mut mutant, at, forged);
                        let how =
                            format!("{what}, count at {at} ({honest:?}) forged to {forged:#x}");
                        agree(&session, &mutant, &how);
                    }
                }
            }
        }
    }
}

#[test]
fn converting_and_decoding_build_one_plan_between_them() {
    for (stem, root) in CASES {
        for receiver in Architecture::ALL {
            for sender in Architecture::ALL {
                let wire = corpus(&format!("{stem}.{}.ndr", sender.name));
                let record = ndr::decode(&wire, session(stem, root, receiver).0.registry())
                    .unwrap()
                    .1;
                let what = format!("{stem} from {} on {}", sender.name, receiver.name);

                let (converts_first, _) = session(stem, root, receiver);
                converts_first.to_native_image(&wire).unwrap();
                assert_eq!(converts_first.decode(&wire).unwrap().1, record, "{what}");
                assert_eq!(
                    converts_first.plan_stats().built,
                    1,
                    "{what}: convert, decode"
                );

                // A session that only decodes builds the plan for a sender
                // whose header names another architecture, and none for a
                // message carrying its own descriptor.
                let (decodes_first, _) = session(stem, root, receiver);
                assert_eq!(decodes_first.decode(&wire).unwrap().1, record, "{what}");
                let built = u64::from(sender.descriptor() != receiver.descriptor());
                assert_eq!(decodes_first.plan_stats().built, built, "{what}: decode");
                decodes_first.to_native_image(&wire).unwrap();
                assert_eq!(
                    decodes_first.plan_stats().built,
                    1,
                    "{what}: decode, convert"
                );
            }
        }
    }
}
