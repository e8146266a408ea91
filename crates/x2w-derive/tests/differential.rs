//! Differential suite: the derived binding must be byte-identical on
//! the wire to the dynamic `clayout`/`pbio` path across the full
//! 6-architecture matrix, and its emitted schema must bind (through the
//! dynamic XSD binder) to the identical `StructType`.

use clayout::{Architecture, LayoutError, Record, Value, Xml2WireRecord};
use x2w_derive::Xml2WireRecord;

/// Every supported field kind in one record.
#[derive(Debug, Clone, PartialEq, Xml2WireRecord)]
struct Inner {
    kind: u8,
    weight: f64,
    label: String,
}

#[derive(Debug, Clone, PartialEq, Xml2WireRecord)]
struct Everything {
    tiny: i8,
    flag: u8,
    small: i16,
    usmall: u16,
    num: i32,
    unum: u32,
    big: i64,
    ubig: u64,
    ratio: f32,
    precise: f64,
    name: String,
    off: [u64; 5],
    pair: [f32; 2],
    tags: [String; 2],
    eta: Vec<u64>,
    temps: Vec<f32>,
    notes: Vec<String>,
    inner: Inner,
}

fn sample() -> Everything {
    Everything {
        tiny: -7,
        flag: 200,
        small: -12345,
        usmall: 54321,
        num: -100_000,
        unum: 3_000_000,
        // Values must fit the 4-byte C long of the ILP32 architectures:
        // the typed binding shares the dynamic path's xsd:long binding.
        big: -2_000_000_000,
        ubig: 4_000_000_000,
        ratio: 2.5,
        precise: -0.125,
        name: "ASDOffEvent".to_owned(),
        off: [1, 2, 3, 4, 5],
        pair: [1.5, -2.25],
        tags: ["north".to_owned(), String::new()],
        eta: vec![10, 20, 30],
        temps: vec![0.5, -40.0],
        notes: vec!["hold".to_owned(), "divert".to_owned(), String::new()],
        inner: Inner { kind: 3, weight: 77.5, label: "cargo".to_owned() },
    }
}

/// The same values as a dynamic `Record` (counts omitted: the dynamic
/// encoder synthesizes them from the array lengths, as the derive
/// does).
fn sample_record() -> Record {
    let s = sample();
    Record::new()
        .with("tiny", i64::from(s.tiny))
        .with("flag", u64::from(s.flag))
        .with("small", i64::from(s.small))
        .with("usmall", u64::from(s.usmall))
        .with("num", i64::from(s.num))
        .with("unum", u64::from(s.unum))
        .with("big", s.big)
        .with("ubig", s.ubig)
        .with("ratio", f64::from(s.ratio))
        .with("precise", s.precise)
        .with("name", s.name.as_str())
        .with("off", Value::Array(s.off.iter().map(|v| Value::UInt(*v)).collect()))
        .with("pair", Value::Array(s.pair.iter().map(|v| Value::Float(f64::from(*v))).collect()))
        .with(
            "tags",
            Value::Array(s.tags.iter().map(|v| Value::String(v.clone())).collect()),
        )
        .with("eta", Value::Array(s.eta.iter().map(|v| Value::UInt(*v)).collect()))
        .with(
            "temps",
            Value::Array(s.temps.iter().map(|v| Value::Float(f64::from(*v))).collect()),
        )
        .with(
            "notes",
            Value::Array(s.notes.iter().map(|v| Value::String(v.clone())).collect()),
        )
        .with(
            "inner",
            Value::Record(
                Record::new()
                    .with("kind", u64::from(s.inner.kind))
                    .with("weight", s.inner.weight)
                    .with("label", s.inner.label.as_str()),
            ),
        )
}

#[test]
fn derived_descriptor_matches_the_binder_conventions() {
    let st = Everything::struct_type();
    assert_eq!(st.name, "Everything");
    // Declared fields first, then one synthesized count per Vec field,
    // in array declaration order.
    let names: Vec<&str> = st.fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "tiny", "flag", "small", "usmall", "num", "unum", "big", "ubig", "ratio", "precise",
            "name", "off", "pair", "tags", "eta", "temps", "notes", "inner", "eta_count",
            "temps_count", "notes_count"
        ]
    );
    // The descriptor must be layoutable on every architecture (count
    // references resolve, no nested arrays, unique names).
    for arch in &Architecture::ALL {
        clayout::Layout::of_struct(&st, arch).unwrap();
    }
}

#[test]
fn derived_layout_matches_dynamic_layout_on_every_architecture() {
    let st = Everything::struct_type();
    for arch in &Architecture::ALL {
        let dynamic = clayout::Layout::of_struct(&st, arch).unwrap();
        let (size, align) = Everything::layout_size_align(arch);
        assert_eq!((size, align), (dynamic.size, dynamic.align), "arch {}", arch.name);
        let inner = clayout::Layout::of_struct(&Inner::struct_type(), arch).unwrap();
        assert_eq!(Inner::layout_size_align(arch), (inner.size, inner.align));
    }
}

#[test]
fn derived_encode_is_byte_identical_to_dynamic_encode_on_every_architecture() {
    let st = Everything::struct_type();
    let record = sample_record();
    let value = sample();
    for arch in &Architecture::ALL {
        let dynamic = clayout::encode_record(&record, &st, arch).unwrap().bytes;
        let mut derived = Vec::new();
        value.encode_image(&mut derived, arch).unwrap();
        assert_eq!(derived, dynamic, "wire image diverged on {}", arch.name);
    }
}

#[test]
fn derived_encode_dynamic_decode_round_trips_on_every_architecture() {
    let st = Everything::struct_type();
    let value = sample();
    for arch in &Architecture::ALL {
        let mut image = Vec::new();
        value.encode_image(&mut image, arch).unwrap();
        // Dynamic peer decodes the derived image reflectively.
        let format = pbio::Format::new(pbio::FormatId(42), st.clone(), *arch).unwrap();
        let decoded =
            pbio::RecordView::over(&image, &format, arch).unwrap().to_record().unwrap();
        assert_eq!(decoded.get("big").unwrap().as_i64(), Some(-2_000_000_000));
        assert_eq!(decoded.get("name").unwrap().as_str(), Some("ASDOffEvent"));
        assert_eq!(decoded.get("eta_count").unwrap().as_i64(), Some(3));
        // Derived peer decodes the dynamic image natively.
        let dynamic = clayout::encode_record(&sample_record(), &st, arch).unwrap().bytes;
        let back = Everything::decode_view(&dynamic, arch).unwrap();
        assert_eq!(back, value, "typed view of the dynamic image diverged on {}", arch.name);
        // And the derived view of its own image round-trips too.
        let own = Everything::decode_view(&image, arch).unwrap();
        assert_eq!(own, value);
    }
}

#[test]
fn emitted_schema_binds_to_the_identical_struct_type() {
    let xml = Everything::schema_xml();
    let schema = xsdlite::Schema::parse_str(&xml).unwrap();
    // Nested complex types are declared before the types that use them.
    let names: Vec<&str> = schema.complex_types.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["Inner", "Everything"]);
}

#[test]
fn full_wire_frames_match_the_dynamic_path() {
    let st = Everything::struct_type();
    let record = sample_record();
    let value = sample();
    for arch in &Architecture::ALL {
        let format =
            pbio::Format::new(pbio::FormatId(42), st.clone(), *arch).unwrap();
        let mut dynamic = Vec::new();
        pbio::ndr::encode_into(&mut dynamic, &record, &format).unwrap();
        let mut derived = Vec::new();
        pbio::ndr::encode_typed_into(&mut derived, &value, &format).unwrap();
        assert_eq!(derived, dynamic, "framed message diverged on {}", arch.name);
        // The frame decodes through the fully dynamic receive path.
        let (header, _) = pbio::ndr::split(&derived).unwrap();
        assert_eq!(header.format_name(&derived).unwrap(), "Everything");
    }
}

#[test]
fn encode_errors_match_the_dynamic_path_on_ilp32() {
    // i64 binds to C long: 4 bytes on I386, so a value needing 8 bytes
    // must fail exactly like the dynamic xsd:long binding does.
    let mut value = sample();
    value.big = i64::from(i32::MAX) + 1;
    let mut buf = Vec::new();
    match value.encode_image(&mut buf, &Architecture::I386) {
        Err(LayoutError::ValueOutOfRange { field, width, .. }) => {
            assert_eq!(field, "big");
            assert_eq!(width, 4);
        }
        other => panic!("expected ValueOutOfRange, got {other:?}"),
    }
    // Same value is fine on LP64.
    buf.clear();
    value.encode_image(&mut buf, &Architecture::X86_64).unwrap();
}

#[test]
fn decode_view_is_fail_closed_on_truncated_and_corrupt_images() {
    let value = sample();
    let arch = &Architecture::host();
    let mut image = Vec::new();
    value.encode_image(&mut image, arch).unwrap();
    // Truncated fixed part.
    assert!(matches!(
        Everything::decode_view(&image[..4], arch),
        Err(LayoutError::Truncated { .. })
    ));
    // Corrupt count: make eta_count negative.
    let st = Everything::struct_type();
    let layout = clayout::Layout::of_struct(&st, arch).unwrap();
    let count_field = layout.field("eta_count").unwrap();
    let mut corrupt = image.clone();
    clayout::image::put_int(&mut corrupt, count_field.offset, count_field.size, arch.endianness, -1);
    assert!(matches!(
        Everything::decode_view(&corrupt, arch),
        Err(LayoutError::BadCount { .. })
    ));
}

#[test]
fn renamed_formats_and_fields_carry_their_wire_names() {
    #[derive(Xml2WireRecord)]
    #[x2w(name = "FlightEvent")]
    struct Renamed {
        #[x2w(name = "fltNum")]
        flight_number: i32,
    }
    assert_eq!(Renamed::FORMAT_NAME, "FlightEvent");
    let st = Renamed::struct_type();
    assert_eq!(st.name, "FlightEvent");
    assert_eq!(st.fields[0].name, "fltNum");
    assert!(Renamed::schema_xml().contains("complexType name=\"FlightEvent\""));
    let _ = Renamed { flight_number: 7 };
}
