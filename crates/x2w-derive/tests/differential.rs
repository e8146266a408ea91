//! Differential suite: a derived record is marshaled by its format's
//! plans, so its bytes must be the dynamic path's across the full
//! 6-architecture matrix, its typed decode must agree with the dynamic
//! decode on every cut and seeded corruption of a frame, and its
//! descriptor's schema must bind (through the dynamic XSD binder) to the
//! identical `StructType`.

use clayout::{Architecture, LayoutError, Record, Value};
use pbio::{Format, FormatId, PbioError, Xml2WireRecord};
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

/// `s` as a dynamic `Record` (counts omitted: the encode plan writes
/// them from the array lengths, for both kinds of source).
fn record_of(s: &Everything) -> Record {
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
        .with("off", s.off.to_vec())
        .with("pair", s.pair.to_vec())
        .with("tags", s.tags.to_vec())
        .with("eta", s.eta.clone())
        .with("temps", s.temps.clone())
        .with("notes", s.notes.clone())
        .with(
            "inner",
            Record::new()
                .with("kind", u64::from(s.inner.kind))
                .with("weight", s.inner.weight)
                .with("label", s.inner.label.as_str()),
        )
}

/// What the dynamic decoder reads back for `s`: its record, counts
/// included.
fn decoded_everything(s: &Everything) -> Record {
    record_of(s)
        .with("eta_count", s.eta.len() as i64)
        .with("temps_count", s.temps.len() as i64)
        .with("notes_count", s.notes.len() as i64)
}

fn sample_record() -> Record {
    record_of(&sample())
}

/// Structure B, named as the corpus's `ASDOffEvent` from a Rust name of
/// its own, nested below: a nested record may rename itself.
#[derive(Debug, Clone, PartialEq, Xml2WireRecord)]
#[x2w(name = "ASDOffEvent")]
struct Asd {
    #[x2w(name = "cntrID")]
    cntr_id: String,
    arln: String,
    #[x2w(name = "fltNum")]
    flt_num: i32,
    equip: String,
    org: String,
    dest: String,
    off: [u64; 5],
    eta: Vec<u64>,
}

/// Structure C+D: three Structure Bs between two doubles.
#[derive(Debug, Clone, PartialEq, Xml2WireRecord)]
#[x2w(name = "threeASDOffs")]
struct ThreeAsdOffs {
    one: Asd,
    bart: f64,
    two: Asd,
    lisa: f64,
    three: Asd,
}

fn asd(flt_num: i32, dest: &str, eta: &[u64]) -> Asd {
    Asd {
        cntr_id: "ZTL".to_owned(),
        arln: "DL".to_owned(),
        flt_num,
        equip: "B752".to_owned(),
        org: "ATL".to_owned(),
        dest: dest.to_owned(),
        off: [10, 20, 30, 40, 50],
        eta: eta.to_vec(),
    }
}

fn three() -> ThreeAsdOffs {
    ThreeAsdOffs {
        one: asd(1202, "BOS", &[100, 200, 300]),
        bart: 1.5,
        two: asd(-7, "SFO", &[]),
        lisa: -2.5,
        three: asd(88, "<&>", &[u64::from(u32::MAX)]),
    }
}

fn asd_record(a: &Asd) -> Record {
    Record::new()
        .with("cntrID", a.cntr_id.as_str())
        .with("arln", a.arln.as_str())
        .with("fltNum", i64::from(a.flt_num))
        .with("equip", a.equip.as_str())
        .with("org", a.org.as_str())
        .with("dest", a.dest.as_str())
        .with("off", a.off.to_vec())
        .with("eta", a.eta.clone())
        .with("eta_count", a.eta.len() as i64)
}

fn three_record(t: &ThreeAsdOffs) -> Record {
    Record::new()
        .with("one", asd_record(&t.one))
        .with("bart", t.bart)
        .with("two", asd_record(&t.two))
        .with("lisa", t.lisa)
        .with("three", asd_record(&t.three))
}

fn format_on<T: Xml2WireRecord>(arch: Architecture) -> Format {
    Format::new(FormatId(42), T::struct_type(), arch).unwrap()
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
fn derived_encode_is_byte_identical_to_dynamic_encode_on_every_architecture() {
    let st = Everything::struct_type();
    let record = sample_record();
    let value = sample();
    for arch in &Architecture::ALL {
        let dynamic = clayout::encode_record(&record, &st, arch).unwrap().bytes;
        let layout = clayout::Layout::of_struct(&st, arch).unwrap();
        let mut derived = Vec::new();
        clayout::encode_record_into(&mut derived, &value, &layout).unwrap();
        assert_eq!(derived, dynamic, "wire image diverged on {}", arch.name);
    }
}

#[test]
fn derived_encode_dynamic_decode_round_trips_on_every_architecture() {
    let value = sample();
    for arch in &Architecture::ALL {
        let format = format_on::<Everything>(*arch);
        // Dynamic peer decodes the typed frame reflectively.
        let mut typed = Vec::new();
        pbio::ndr::encode_typed_into(&mut typed, &value, &format).unwrap();
        let decoded = pbio::ndr::decode_with(&typed, &format).unwrap();
        assert_eq!(decoded, decoded_everything(&value), "{}", arch.name);
        // Typed peer decodes the dynamic frame, on the sender's
        // architecture and on another one.
        let dynamic = pbio::ndr::encode(&sample_record(), &format).unwrap();
        for receiver in [format.clone(), format_on::<Everything>(Architecture::SPARC32)] {
            let back: Everything = pbio::ndr::decode_typed(&dynamic, &receiver).unwrap();
            assert_eq!(back, value, "typed read of the dynamic frame diverged on {}", arch.name);
        }
        // And the typed frame round-trips on its own.
        assert_eq!(pbio::ndr::decode_typed::<Everything>(&typed, &format).unwrap(), value);
    }
}

#[test]
fn emitted_schema_binds_to_the_identical_struct_type() {
    let st = Everything::struct_type();
    let xml = xml2wire::schema_for_struct(&st).to_xml_string();
    let session = xml2wire::Xml2Wire::builder().build();
    let formats = session.register_schema_str(&xml).unwrap();
    // Nested complex types are declared before the types that use them.
    let names: Vec<&str> = formats.iter().map(|f| f.name()).collect();
    assert_eq!(names, ["Inner", "Everything"]);
    assert_eq!(formats[1].struct_type(), &st);
}

#[test]
fn full_wire_frames_match_the_dynamic_path() {
    let record = sample_record();
    let value = sample();
    for arch in &Architecture::ALL {
        let format = format_on::<Everything>(*arch);
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
    let i386 = format_on::<Everything>(Architecture::I386);
    let mut buf = Vec::new();
    let typed = pbio::ndr::encode_typed_into(&mut buf, &value, &i386).unwrap_err();
    match &typed {
        PbioError::Layout(LayoutError::ValueOutOfRange { field, width, .. }) => {
            assert_eq!(field, "big");
            assert_eq!(*width, 4);
        }
        other => panic!("expected ValueOutOfRange, got {other:?}"),
    }
    let dynamic = pbio::ndr::encode(&record_of(&value), &i386).unwrap_err();
    assert_eq!(typed.to_string(), dynamic.to_string());
    // Same value is fine on LP64.
    pbio::ndr::encode_typed_into(&mut buf, &value, &format_on::<Everything>(Architecture::X86_64))
        .unwrap();
}

#[test]
fn decode_view_is_fail_closed_on_truncated_and_corrupt_images() {
    let format = format_on::<Everything>(Architecture::host());
    let mut wire = Vec::new();
    pbio::ndr::encode_typed_into(&mut wire, &sample(), &format).unwrap();
    let header_len = pbio::ndr::split(&wire).unwrap().0.header_len;
    // Truncated fixed part.
    assert!(matches!(
        pbio::ndr::decode_typed::<Everything>(&wire[..header_len + 4], &format),
        Err(PbioError::Truncated { .. })
    ));
    // Corrupt count: make eta_count negative.
    let count_idx = format.struct_type().field_index("eta_count").unwrap();
    let count_field = &format.layout().fields[count_idx];
    let mut corrupt = wire.clone();
    let at = header_len + count_field.offset;
    let code = clayout::ScalarCode::unsigned(count_field.size, format.arch().endianness);
    code.write_raw(&mut corrupt, at, -1i64 as u64);
    assert!(matches!(
        pbio::ndr::decode_typed::<Everything>(&corrupt, &format),
        Err(PbioError::Layout(LayoutError::BadCount { .. }))
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
    let _ = Renamed { flight_number: 7 };
    // A renamed record nests under its wire name.
    let three = ThreeAsdOffs::struct_type();
    assert!(matches!(&three.fields[0].ty, clayout::CType::Struct(inner) if inner.name == "ASDOffEvent"));
}

/// SplitMix64: picks the flipped bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Value equality, NaN equal to NaN: a flipped float byte may make one.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Value::Record(x), Value::Record(y)) => same_record(x, y),
        _ => a == b,
    }
}

fn same_record(a: &Record, b: &Record) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|((n, x), (m, y))| n == m && same(x, y))
}

const FLIPS: usize = 24;

/// Every cut and `FLIPS` seeded byte flips of `value`'s frame from each
/// architecture, read by a typed and a dynamic receiver holding `T` on
/// this host: the description of each mutant on which they disagree.
fn disagreements<T: Xml2WireRecord>(
    value: &T,
    record_of: fn(&T) -> Record,
    rng: &mut Rng,
) -> Vec<String> {
    let host = format_on::<T>(Architecture::host());
    let mut out = Vec::new();
    for arch in Architecture::ALL {
        let mut frame = Vec::new();
        pbio::ndr::encode_typed_into(&mut frame, value, &format_on::<T>(arch)).unwrap();
        let mut mutants: Vec<(String, Vec<u8>)> =
            (0..=frame.len()).map(|cut| (format!("cut {cut}"), frame[..cut].to_vec())).collect();
        for _ in 0..FLIPS {
            let mut mutant = frame.clone();
            let at = rng.below(mutant.len());
            let xor = 1 + rng.below(255) as u8;
            mutant[at] ^= xor;
            mutants.push((format!("byte {at} ^ {xor:#04x}"), mutant));
        }
        for (what, mutant) in &mutants {
            let typed = pbio::ndr::decode_typed::<T>(mutant, &host);
            let dynamic = pbio::ndr::decode_with(mutant, &host);
            // Errors may differ: a flipped architecture byte can widen
            // `int` past an `i32` field, which the typed read refuses at
            // that field and the dynamic one reads on to a later error.
            let agree = match (&typed, &dynamic) {
                (Ok(v), Ok(r)) => same_record(&record_of(v), r),
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !agree {
                out.push(format!(
                    "{} from {}, {what}: typed {:?}, dynamic {:?}",
                    T::FORMAT_NAME,
                    arch.name,
                    typed.map(|v| record_of(&v).to_string()),
                    dynamic.map(|r| r.to_string()),
                ));
            }
        }
        // The uncut, unflipped frame reads back as the value.
        assert!(same_record(&record_of(&pbio::ndr::decode_typed(&frame, &host).unwrap()), &record_of(value)));
    }
    out
}

#[test]
fn typed_decode_agrees_with_dynamic_decode_under_mutation() {
    let mut rng = Rng(0x0d1f_f5ee_d000_0027);
    let mut all = disagreements(&sample(), decoded_everything, &mut rng);
    all.extend(disagreements(&asd(1202, "BOS", &[100, 200, 300]), asd_record, &mut rng));
    all.extend(disagreements(&three(), three_record, &mut rng));
    assert!(all.is_empty(), "{} disagreements:\n{}", all.len(), all.join("\n"));
}
