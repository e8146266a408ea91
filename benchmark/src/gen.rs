//! Seeded input generation.
//!
//! Everything a workload feeds the system is built here from `--seed`:
//! vocabularies, field values, which record gets which string and
//! dynamic-array length, predicate constants, the catalogue's type
//! order and the choice between tier-equivalent sender architectures.
//! The system under test sees only these generated inputs, never the
//! seed. Lengths are dealt from fixed decks ([`Rng::lengths`]), so the
//! bytes one pass over a pool puts on the wire are the same for every
//! seed even though no two seeds produce the same records.
//!
//! Records live in a fixed pool of [`POOL`] entries. Event `i` of a
//! stream is pool entry `i % POOL`, and every entry carries a value in
//! its index field that no other entry has, so a receiver that counts
//! what it has seen can tell a lost, duplicated or reordered event from
//! the index alone — without the generator mutating (and allocating
//! for) a record per publish.

use clayout::{Architecture, Record, Value};

/// Records per pool; also the modulus of the per-event index check.
pub const POOL: usize = 4096;

/// The seed the unit tests hold out: inputs generated from it must
/// differ from those of [`REFERENCE_SEED`].
#[cfg(test)]
pub const HOLD_OUT_SEED: u64 = 0x0DD5_EED5;
/// The seed the committed tables were measured with.
pub const REFERENCE_SEED: u64 = 1;

/// SplitMix64, with one independent lane per input family so adding a
/// draw to one generator never shifts another's values.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `lane` under `seed`.
    pub fn new(seed: u64, lane: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        for b in lane.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// An upper-case ASCII word of `min..=max` letters.
    pub fn word(&mut self, min: u64, max: u64) -> String {
        let len = self.between(min, max);
        (0..len)
            .map(|_| (b'A' + self.below(26) as u8) as char)
            .collect()
    }

    /// `n` distinct words of `len` letters.
    pub fn vocabulary(&mut self, n: usize, len: u64) -> Vec<String> {
        let mut words: Vec<String> = Vec::with_capacity(n);
        while words.len() < n {
            let w = self.word(len, len);
            if !words.contains(&w) {
                words.push(w);
            }
        }
        words
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// One length per pool entry: every value of `lo..=hi` equally
    /// often, in seeded order. Which record gets which length depends
    /// on the seed; how many bytes a pass over the pool puts on the wire
    /// does not, so `wire_bytes_per_event` can be compared across seeds.
    pub fn lengths(&mut self, lo: u64, hi: u64) -> Vec<u64> {
        let span = hi - lo + 1;
        assert!(
            (POOL as u64).is_multiple_of(span),
            "{lo}..={hi} does not divide the pool evenly"
        );
        let mut lengths: Vec<u64> = (0..POOL as u64).map(|k| lo + k % span).collect();
        self.shuffle(&mut lengths);
        lengths
    }
}

// ---------------------------------------------------------------------------
// Structure B (the paper's ASDOffEvent)
// ---------------------------------------------------------------------------

/// Format and stream name of Structure B.
pub const B_FORMAT: &str = "ASDOffEvent";
/// The field that carries a B record's pool index.
pub const B_INDEX_FIELD: &str = "fltNum";

/// Structure B's complex type, as it appears inside a schema document.
const B_TYPE_XSD: &str = r#"  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" minOccurs="5" maxOccurs="5" />
    <xsd:element name="eta" type="xsd:unsigned-long" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
"#;

/// The word lists B's string fields draw from. Sizes are chosen so
/// that one value of `dest` and a pair of `org` values each select
/// about 1/16 of the pool.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    pub centers: Vec<String>,
    pub airlines: Vec<String>,
    pub equipment: Vec<String>,
    /// 32 airports; `dest` draws from the first 16, `org` from all.
    pub airports: Vec<String>,
}

impl Vocabulary {
    pub fn new(seed: u64) -> Vocabulary {
        let mut rng = Rng::new(seed, "vocabulary");
        Vocabulary {
            centers: rng.vocabulary(8, 3),
            airlines: rng.vocabulary(16, 2),
            equipment: rng.vocabulary(8, 4),
            airports: rng.vocabulary(32, 3),
        }
    }
}

/// The pool of Structure B records for `seed`. The `fltNum` values are
/// a seeded permutation of `0..POOL` — unique per entry, and shuffled
/// so that a predicate over a `fltNum` range selects events spread
/// evenly through the pool rather than one contiguous stretch of it.
/// `off`/`eta` values stay below 2^31 so the record encodes on ILP32
/// senders, whose `unsigned long` is four bytes.
pub fn b_pool(seed: u64, vocabulary: &Vocabulary) -> Vec<Record> {
    let mut rng = Rng::new(seed, "structure-b");
    let mut numbers: Vec<i64> = (0..POOL as i64).collect();
    rng.shuffle(&mut numbers);
    let eta_lengths = rng.lengths(0, 7);
    numbers
        .into_iter()
        .zip(eta_lengths)
        .map(|(number, eta_len)| {
            let base = 1_000_000_000 + rng.below(1_000_000);
            Record::new()
                .with("cntrID", rng.pick(&vocabulary.centers).as_str())
                .with("arln", rng.pick(&vocabulary.airlines).as_str())
                .with(B_INDEX_FIELD, number)
                .with("equip", rng.pick(&vocabulary.equipment).as_str())
                .with("org", rng.pick(&vocabulary.airports).as_str())
                .with("dest", rng.pick(&vocabulary.airports[..16]).as_str())
                .with("off", (0..5).map(|i| base + i * 60).collect::<Vec<u64>>())
                .with(
                    "eta",
                    (0..eta_len)
                        .map(|i| base + 3600 + i * 300)
                        .collect::<Vec<u64>>(),
                )
        })
        .collect()
}

/// A schema document holding only Structure B.
pub fn b_schema() -> String {
    schema_document(&[B_TYPE_XSD])
}

fn schema_document(types: &[&str]) -> String {
    let mut doc = String::from(
        "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"\n            \
         targetNamespace=\"http://www.cc.gatech.edu/~pmw/schemas\">\n",
    );
    for ty in types {
        doc.push_str(ty);
    }
    doc.push_str("</xsd:schema>\n");
    doc
}

// ---------------------------------------------------------------------------
// The site catalogue
// ---------------------------------------------------------------------------

/// The metadata document a site's server publishes: Structure B first
/// (a `Consumer` binds a stream to the first type of its document),
/// then `types` filler types of `fields` elements each.
///
/// The seed sets the order the filler types appear in and where each
/// one's cycle through the four element types starts. With `fields` a
/// multiple of four every type still has the same number of each
/// element type, so the document's size — the late joiner's
/// `wire_bytes_per_event` — does not depend on the seed.
pub fn catalogue(seed: u64, types: usize, fields: usize) -> String {
    const ELEMENT_TYPES: [&str; 4] = [
        "xsd:string",
        "xsd:integer",
        "xsd:double",
        "xsd:unsigned-long",
    ];
    let mut rng = Rng::new(seed, "catalogue");
    let mut order: Vec<usize> = (0..types).collect();
    rng.shuffle(&mut order);
    let width = types.max(1).to_string().len();
    let mut doc = schema_document(&[B_TYPE_XSD]);
    doc.truncate(doc.len() - "</xsd:schema>\n".len());
    for t in order {
        let rotation = rng.below(4) as usize;
        doc.push_str(&format!(
            "  <xsd:complexType name=\"Catalogue{t:0width$}\">\n"
        ));
        for f in 0..fields {
            let ty = ELEMENT_TYPES[(f + rotation) % 4];
            doc.push_str(&format!(
                "    <xsd:element name=\"f{f:02}\" type=\"{ty}\"/>\n"
            ));
        }
        doc.push_str("  </xsd:complexType>\n");
    }
    doc.push_str("</xsd:schema>\n");
    doc
}

// ---------------------------------------------------------------------------
// hetero_local's foreign streams
// ---------------------------------------------------------------------------

/// A fixed-size, pointer-free record: between two LP64 machines of
/// opposite byte order it converts on the PureSwap tier.
pub const TELEMETRY_FORMAT: &str = "Telemetry";
pub const TELEMETRY_INDEX_FIELD: &str = "seq";

const TELEMETRY_TYPE_XSD: &str = r#"  <xsd:complexType name="Telemetry">
    <xsd:element name="seq" type="xsd:unsigned-long" />
    <xsd:element name="ts" type="xsd:unsigned-long" />
    <xsd:element name="temp" type="xsd:double" />
    <xsd:element name="lat" type="xsd:double" />
    <xsd:element name="lon" type="xsd:double" />
    <xsd:element name="flags" type="xsd:unsigned-int" />
    <xsd:element name="mode" type="xsd:unsigned-int" />
    <xsd:element name="samples" type="xsd:double" minOccurs="32" maxOccurs="32" />
    <xsd:element name="counters" type="xsd:unsigned-long" minOccurs="16" maxOccurs="16" />
  </xsd:complexType>
"#;

pub fn telemetry_schema() -> String {
    schema_document(&[TELEMETRY_TYPE_XSD])
}

pub fn telemetry_pool(seed: u64) -> Vec<Record> {
    let mut rng = Rng::new(seed, "telemetry");
    (0..POOL)
        .map(|k| {
            Record::new()
                .with(TELEMETRY_INDEX_FIELD, k as u64)
                .with("ts", 1_748_000_000 + rng.below(1_000_000))
                .with("temp", rng.unit() * 60.0 - 20.0)
                .with("lat", rng.unit() * 180.0 - 90.0)
                .with("lon", rng.unit() * 360.0 - 180.0)
                .with("flags", rng.below(256))
                .with("mode", rng.below(8))
                .with(
                    "samples",
                    (0..32)
                        .map(|_| Value::Float(rng.unit() * 8.0 - 4.0))
                        .collect::<Vec<_>>(),
                )
                .with(
                    "counters",
                    (0..16)
                        .map(|_| Value::UInt(rng.below(1 << 40)))
                        .collect::<Vec<_>>(),
                )
        })
        .collect()
}

/// A record that is mostly variable section: two strings and a dynamic
/// `int` array. Its fixed part holds no 8-byte scalar, so the two ILP32
/// little-endian ABIs lay it out identically.
pub const NOTE_FORMAT: &str = "GateNote";
pub const NOTE_INDEX_FIELD: &str = "serial";

const NOTE_TYPE_XSD: &str = r#"  <xsd:complexType name="GateNote">
    <xsd:element name="serial" type="xsd:unsigned-int" />
    <xsd:element name="gate" type="xsd:string" />
    <xsd:element name="text" type="xsd:string" />
    <xsd:element name="codes" type="xsd:int" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
"#;

pub fn note_schema() -> String {
    schema_document(&[NOTE_TYPE_XSD])
}

pub fn note_pool(seed: u64) -> Vec<Record> {
    let mut rng = Rng::new(seed, "gate-note");
    let text_lengths = rng.lengths(16, 79);
    let code_counts = rng.lengths(4, 35);
    (0..POOL)
        .map(|k| {
            let codes = code_counts[k];
            Record::new()
                .with(NOTE_INDEX_FIELD, k as u64)
                .with("gate", rng.word(3, 3))
                .with("text", rng.word(text_lengths[k], text_lengths[k]))
                .with(
                    "codes",
                    (0..codes)
                        .map(|_| Value::Int(rng.below(20_000) as i64 - 10_000))
                        .collect::<Vec<_>>(),
                )
        })
        .collect()
}

/// The host-architecture stream of `hetero_local`: a compile-time
/// binding, published through `TypedCapture` and decoded by
/// `TypedSubscriber`.
#[derive(Debug, Clone, PartialEq, xml2wire::Xml2WireRecord)]
pub struct Position {
    pub serial: u32,
    pub callsign: String,
    pub lat: f64,
    pub lon: f64,
    pub alt_ft: i32,
    pub track: [f32; 4],
    pub waypoints: Vec<u32>,
}

pub fn position_pool(seed: u64) -> Vec<Position> {
    let mut rng = Rng::new(seed, "position");
    let callsign_lengths = rng.lengths(4, 7);
    let waypoint_counts = rng.lengths(0, 7);
    (0..POOL)
        .map(|k| {
            let waypoints = waypoint_counts[k];
            Position {
                serial: k as u32,
                callsign: rng.word(callsign_lengths[k], callsign_lengths[k]),
                lat: rng.unit() * 180.0 - 90.0,
                lon: rng.unit() * 360.0 - 180.0,
                alt_ft: rng.below(45_000) as i32,
                track: [0.0f32; 4].map(|_| (rng.unit() * 360.0) as f32),
                waypoints: (0..waypoints).map(|_| rng.below(100_000) as u32).collect(),
            }
        })
        .collect()
}

/// Which of two tier-equivalent architectures sends a stream. The pair
/// members describe the same layout for the record in question (or are
/// descriptor-identical), so the choice exercises architecture
/// assignment without moving any timing.
pub fn pick_arch(seed: u64, lane: &str, pair: [Architecture; 2]) -> Architecture {
    pair[Rng::new(seed, lane).below(2) as usize]
}

// ---------------------------------------------------------------------------
// fanout_filtered's predicates
// ---------------------------------------------------------------------------

/// The 16 distinct predicates of `fanout_filtered`, four of each form
/// the filter language has — comparison chains, `BETWEEN`, `IN` and
/// string equality — each selecting about 1/16 of the pool. The seed
/// picks the constants.
pub fn predicates(seed: u64, vocabulary: &Vocabulary) -> Vec<String> {
    let mut rng = Rng::new(seed, "predicates");
    let width = (POOL / 16) as u64;
    let window = |rng: &mut Rng| {
        let lo = rng.below(POOL as u64 - width);
        (lo, lo + width)
    };
    let mut out = Vec::with_capacity(16);
    for _ in 0..4 {
        let (lo, hi) = window(&mut rng);
        out.push(format!("{B_INDEX_FIELD} >= {lo} && {B_INDEX_FIELD} < {hi}"));
    }
    for _ in 0..4 {
        let (lo, hi) = window(&mut rng);
        out.push(format!("{B_INDEX_FIELD} BETWEEN {lo} AND {}", hi - 1));
    }
    let mut orgs: Vec<&String> = vocabulary.airports.iter().collect();
    rng.shuffle(&mut orgs);
    for pair in orgs.chunks(2).take(4) {
        out.push(format!("org IN (\"{}\", \"{}\")", pair[0], pair[1]));
    }
    let mut dests: Vec<&String> = vocabulary.airports[..16].iter().collect();
    rng.shuffle(&mut dests);
    for dest in dests.iter().take(4) {
        out.push(format!("dest == \"{dest}\""));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs_and_the_hold_out_differs() {
        let make = |seed| {
            let v = Vocabulary::new(seed);
            (
                b_pool(seed, &v),
                predicates(seed, &v),
                catalogue(seed, 8, 8),
                note_pool(seed),
            )
        };
        assert_eq!(make(REFERENCE_SEED), make(REFERENCE_SEED));
        let (a, b) = (make(REFERENCE_SEED), make(HOLD_OUT_SEED));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        assert_ne!(a.3, b.3);
    }

    #[test]
    fn bytes_per_pool_pass_do_not_depend_on_the_seed() {
        assert_eq!(catalogue(1, 64, 24).len(), catalogue(2, 64, 24).len());
        let pool_bytes = |seed: u64, arch: Architecture| -> usize {
            let session = xml2wire::Xml2Wire::builder().arch(arch).build();
            let v = Vocabulary::new(seed);
            [
                (b_schema(), b_pool(seed, &v)),
                (note_schema(), note_pool(seed)),
            ]
            .iter()
            .map(|(schema, pool)| {
                let format = session.register_schema_str(schema).unwrap().remove(0);
                pool.iter()
                    .map(|r| pbio::ndr::encode(r, &format).unwrap().len())
                    .sum::<usize>()
            })
            .sum()
        };
        for arch in [
            Architecture::host(),
            Architecture::SPARC32,
            Architecture::I386,
        ] {
            assert_eq!(
                pool_bytes(1, arch),
                pool_bytes(HOLD_OUT_SEED, arch),
                "{}",
                arch.name
            );
        }
    }

    #[test]
    fn pool_entries_carry_distinct_index_values() {
        let v = Vocabulary::new(7);
        let mut numbers: Vec<i64> = b_pool(7, &v)
            .iter()
            .filter_map(|r| r.get(B_INDEX_FIELD).and_then(Value::as_i64))
            .collect();
        numbers.sort_unstable();
        assert_eq!(numbers, (0..POOL as i64).collect::<Vec<_>>());
    }

    #[test]
    fn every_pool_encodes_on_every_architecture_that_sends_it() {
        use Architecture as A;
        let seed = 3;
        let v = Vocabulary::new(seed);
        // Telemetry's 40-bit counters need an LP64 sender's 8-byte
        // `unsigned long`; the other two pools fit ILP32.
        for (schema, name, pool, senders) in [
            (
                catalogue(seed, 4, 8),
                B_FORMAT,
                b_pool(seed, &v),
                vec![A::host(), A::SPARC32],
            ),
            (
                telemetry_schema(),
                TELEMETRY_FORMAT,
                telemetry_pool(seed),
                vec![A::POWER64, A::SPARC64],
            ),
            (
                note_schema(),
                NOTE_FORMAT,
                note_pool(seed),
                vec![A::I386, A::ARM32],
            ),
        ] {
            for arch in senders {
                let session = xml2wire::Xml2Wire::builder().arch(arch).build();
                session.register_schema_str(&schema).unwrap();
                for record in &pool {
                    session.encode(record, name).unwrap();
                }
            }
        }
    }

    #[test]
    fn each_predicate_selects_about_a_sixteenth() {
        let seed = 11;
        let v = Vocabulary::new(seed);
        let pool = b_pool(seed, &v);
        let session = xml2wire::Xml2Wire::builder().build();
        let format = session.register_schema_str(&b_schema()).unwrap().remove(0);
        for expr in predicates(seed, &v) {
            let filter = backbone::StreamFilter::compile(&expr, format.struct_type()).unwrap();
            let hits = pool.iter().filter(|r| filter.eval_record(r)).count();
            assert!((POOL / 32..=POOL / 8).contains(&hits), "{expr}: {hits}");
        }
    }
}
