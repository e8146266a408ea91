//! The seeded struct-type and record generator the differential suites
//! share (`plan_differential.rs`, `canonical_differential.rs`): every
//! primitive width, strings, fixed and dynamic arrays of primitives,
//! strings and structs, nested structs, empty arrays, count fields
//! before, right after or well after their arrays, and records with
//! count fields omitted, supplied, shuffled, or with one defect.

use clayout::{CType, Primitive, Record, StructField, StructType, Value};

/// SplitMix64: a few lines, good enough to pick shapes and offsets.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

const COUNT_TYPES: [Primitive; 6] = [
    Primitive::Int,
    Primitive::UInt,
    Primitive::Short,
    Primitive::UChar,
    Primitive::Long,
    Primitive::ULongLong,
];

/// A value of `p` that fits it on every architecture (ILP32 `long` is
/// 32 bits; floats stay binary32-exact). One integer in eight is a bound
/// of that range — zero, all ones, the least or the greatest — where a
/// range check that is off by one refuses an honest value.
fn prim_value(rng: &mut Rng, p: Primitive) -> Value {
    let raw = rng.next();
    if p.is_float() {
        return Value::Float((raw % 8192) as f64 * 0.25 - 1024.0);
    }
    let raw = match raw % 32 {
        0 => 0,
        1 => u64::MAX,
        2 => 1 << 63,
        3 => !(1 << 63),
        _ => raw,
    };
    let bits = common_bits(p);
    if p.is_unsigned_integer() {
        Value::UInt(if bits == 64 { raw } else { raw % (1 << bits) })
    } else {
        Value::Int((raw as i64) >> (64 - bits))
    }
}

/// The width in bits `p` has on every architecture: ILP32 `long` is 32.
fn common_bits(p: Primitive) -> u32 {
    match p {
        Primitive::Char | Primitive::UChar => 8,
        Primitive::Short | Primitive::UShort => 16,
        Primitive::LongLong | Primitive::ULongLong => 64,
        _ => 32,
    }
}

fn text(rng: &mut Rng) -> String {
    let len = rng.below(12);
    (0..len)
        .map(|_| rng.pick(&['a', 'Z', '7', ' ', '-', '\u{e9}', '\u{4e2d}']))
        .collect()
}

/// An element type (no arrays of arrays).
fn element(rng: &mut Rng, depth: usize) -> CType {
    match rng.below(if depth < 2 { 6 } else { 5 }) {
        0..=2 => CType::Prim(rng.pick(&Primitive::ALL)),
        3 | 4 => CType::String,
        _ => CType::Struct(structure(rng, depth + 1)),
    }
}

pub fn structure(rng: &mut Rng, depth: usize) -> StructType {
    let mut fields = Vec::new();
    let mut late_counts = Vec::new();
    let wanted = 1 + rng.below(6);
    for i in 0..wanted {
        let name = format!("f{depth}_{i}");
        match rng.below(8) {
            0..=3 => fields.push(StructField::new(name, element(rng, depth))),
            4 | 5 => {
                let elem = element(rng, depth);
                fields.push(StructField::new(
                    name,
                    CType::fixed_array(elem, rng.below(4)),
                ));
            }
            _ => {
                let count =
                    StructField::new(format!("{name}_count"), CType::Prim(rng.pick(&COUNT_TYPES)));
                let array = StructField::new(
                    name,
                    CType::dynamic_array(element(rng, depth), count.name.clone()),
                );
                // The count field before its array, right after it, or
                // at the end of the struct.
                match rng.below(3) {
                    0 => fields.extend([count, array]),
                    1 => fields.extend([array, count]),
                    _ => {
                        fields.push(array);
                        late_counts.push(count);
                    }
                }
            }
        }
    }
    fields.extend(late_counts);
    StructType::new(format!("Gen{depth}"), fields)
}

fn value_of(rng: &mut Rng, ty: &CType) -> Value {
    match ty {
        CType::Prim(p) => prim_value(rng, *p),
        CType::String => Value::String(text(rng)),
        CType::Struct(inner) => Value::Record(record_of(rng, inner)),
        CType::Array { elem, len } => {
            let n = match len {
                clayout::ArrayLen::Fixed(n) => *n,
                clayout::ArrayLen::CountField(_) => rng.below(4),
            };
            Value::Array((0..n).map(|_| value_of(rng, elem)).collect())
        }
    }
}

/// A record of `st` in declaration order with the count fields omitted.
pub fn record_of(rng: &mut Rng, st: &StructType) -> Record {
    let counts: Vec<&str> = st
        .fields
        .iter()
        .filter_map(|f| match &f.ty {
            CType::Array {
                len: clayout::ArrayLen::CountField(c),
                ..
            } => Some(c.as_str()),
            _ => None,
        })
        .collect();
    let mut record = Record::new();
    for field in &st.fields {
        if !counts.contains(&field.name.as_str()) {
            record.set(field.name.clone(), value_of(rng, &field.ty));
        }
    }
    record
}

/// `record` with every count field supplied, at its declared position.
pub fn with_counts(record: &Record, st: &StructType) -> Record {
    let mut full = Record::new();
    for field in &st.fields {
        let value = match record.get(&field.name) {
            Some(value) => value.clone(),
            None => {
                let array = st
                    .fields
                    .iter()
                    .find(|f| matches!(&f.ty, CType::Array { len: clayout::ArrayLen::CountField(c), .. } if *c == field.name))
                    .expect("an omitted field is a count field");
                Value::UInt(record.get(&array.name).unwrap().as_array().unwrap().len() as u64)
            }
        };
        full.set(field.name.clone(), value);
    }
    full
}

pub fn shuffled(rng: &mut Rng, record: &Record) -> Record {
    let mut fields: Vec<(String, Value)> = record
        .iter()
        .map(|(n, v)| (n.to_owned(), v.clone()))
        .collect();
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.below(i + 1));
    }
    fields.into_iter().collect()
}

/// `record` (count fields supplied) with one thing wrong with it.
pub fn with_one_defect(rng: &mut Rng, record: &Record, st: &StructType) -> Record {
    let mut broken = record.clone();
    let field = &st.fields[rng.below(st.fields.len())];
    match (&field.ty, rng.below(3)) {
        (_, 0) => {
            broken.remove(&field.name);
            // An omitted count field is synthesized, not missed.
            if record_is_count(st, &field.name) {
                broken.set(field.name.clone(), Value::String("not a count".into()));
            }
        }
        (CType::Prim(p), 1)
            if !p.is_float() && !matches!(p, Primitive::LongLong | Primitive::ULongLong) =>
        {
            // Out of range on every architecture, or a wrong count: one
            // past a bound where every architecture has that bound (a
            // range check that is off by one takes it), and beyond any
            // bound for a `long`, which LP64 makes 64 bits wide.
            let bits = common_bits(*p);
            let value = match (p, rng.below(2)) {
                (Primitive::Long | Primitive::ULong, _) => Value::UInt(u64::MAX),
                (p, _) if p.is_unsigned_integer() => Value::UInt(1 << bits),
                (_, 0) => Value::Int(1 << (bits - 1)),
                (_, _) => Value::Int(-(1 << (bits - 1)) - 1),
            };
            broken.set(field.name.clone(), value);
        }
        (CType::Array { .. }, 1) => {
            let mut items = record
                .get(&field.name)
                .unwrap()
                .as_array()
                .unwrap()
                .to_vec();
            items.push(items.first().cloned().unwrap_or(Value::Int(0)));
            broken.set(field.name.clone(), Value::Array(items));
        }
        (CType::String, _) => broken.set(field.name.clone(), Value::Float(1.5)),
        _ => broken.set(field.name.clone(), Value::String("wrong type".into())),
    }
    broken
}

fn record_is_count(st: &StructType, name: &str) -> bool {
    st.fields.iter().any(
        |f| matches!(&f.ty, CType::Array { len: clayout::ArrayLen::CountField(c), .. } if c == name),
    )
}
