//! The one walk behind the paper's three baselines (§1, §6): XDR,
//! CORBA/IIOP's CDR and XML-RPC-style text each visit every field of a
//! record and copy it into a representation no machine holds natively.
//!
//! [`encode`] does what the three share, once: the type check, the
//! fixed-length check, and count fields — synthesized from their array
//! when the record omits them, and held to it when it supplies them
//! (NDR's `ArrayLengthMismatch`, at whichever of the count and its array
//! comes first). What reaches the wire is the [`Sink`]'s business: XDR
//! and CDR are one byte sink under different [`Rules`], which stores
//! each number through [`ScalarCode`], range-checked at the wire's
//! width; text XML is `xmlparse`'s `Writer`. XDR and CDR also read
//! back through one [`decode`] under the same rules; text decodes by its
//! own walk over the parsed tree, because it finds fields by name.

use std::borrow::Cow;

use clayout::layout::align_up;
use clayout::{ArrayLen, CType, Endianness, LayoutError, Primitive, Record, Scalar, ScalarCode};
use clayout::{StructType, Value};

use crate::error::PbioError;
use crate::view::slot;

/// What a codec writes as the walk visits a record.
pub(crate) trait Sink {
    /// A struct begins: the root (named for its type) or a field's value.
    fn open(&mut self, _name: &str) {}
    /// The struct opened last ends.
    fn close(&mut self) {}
    /// A dynamic array of `n` elements begins.
    fn count(&mut self, _n: usize) {}
    /// One number of `field`, a `p`; refused if this wire cannot hold it.
    fn num(&mut self, field: &str, p: Primitive, n: Scalar) -> Result<(), PbioError>;
    /// One string of `field`.
    fn string(&mut self, field: &str, s: &str);
}

/// Walks `record` as an instance of `st` into `sink`; `name` is what the
/// struct is called there (the root: its type's name).
pub(crate) fn encode<S: Sink>(
    record: &Record,
    st: &StructType,
    name: &str,
    sink: &mut S,
) -> Result<(), PbioError> {
    sink.open(name);
    for field in &st.fields {
        let supplied = record.get(&field.name);
        let len = match &field.ty {
            CType::Array {
                len: ArrayLen::CountField(count),
                ..
            } => Some(array_len(record, &field.name, record.get(count))?),
            CType::Prim(_) => counted_array(st, &field.name)
                .map(|array| array_len(record, array, supplied))
                .transpose()?,
            _ => None,
        };
        let value = match (supplied, len) {
            (Some(value), _) => Cow::Borrowed(value),
            // Only a count field gets here: an absent array failed above.
            (None, Some(n)) => Cow::Owned(Value::UInt(n as u64)),
            (None, None) => return Err(missing(&field.name)),
        };
        encode_value(&value, &field.ty, &field.name, sink)?;
    }
    sink.close();
    Ok(())
}

/// The dynamic array of `st` whose count field is `name` (the first,
/// as in NDR's encoder), if any.
fn counted_array<'s>(st: &'s StructType, name: &str) -> Option<&'s str> {
    st.fields.iter().find_map(|f| match &f.ty {
        CType::Array {
            len: ArrayLen::CountField(count),
            ..
        } if count == name => Some(f.name.as_str()),
        _ => None,
    })
}

/// The length of the record's dynamic array `array`, refusing a
/// supplied `count` that says otherwise with the error NDR gives.
fn array_len(record: &Record, array: &str, count: Option<&Value>) -> Result<usize, PbioError> {
    let value = record.get(array).ok_or_else(|| missing(array))?;
    let len = value
        .as_array()
        .ok_or_else(|| type_mismatch(array, "array", value))?
        .len();
    match count.and_then(Value::as_u64) {
        Some(n) if n != len as u64 => Err(mismatched(array, n as usize, len)),
        _ => Ok(len),
    }
}

fn encode_value<S: Sink>(
    value: &Value,
    ty: &CType,
    field: &str,
    sink: &mut S,
) -> Result<(), PbioError> {
    match ty {
        CType::Prim(p) => {
            let n = if p.is_float() {
                Scalar::Float(
                    value
                        .as_f64()
                        .ok_or_else(|| type_mismatch(field, "float", value))?,
                )
            } else if p.is_signed_integer() {
                Scalar::Int(
                    value
                        .as_i64()
                        .ok_or_else(|| type_mismatch(field, "int", value))?,
                )
            } else {
                Scalar::UInt(
                    value
                        .as_u64()
                        .ok_or_else(|| type_mismatch(field, "uint", value))?,
                )
            };
            sink.num(field, *p, n)?;
        }
        CType::String => sink.string(
            field,
            value
                .as_str()
                .ok_or_else(|| type_mismatch(field, "string", value))?,
        ),
        CType::Array { elem, len } => {
            let items = value
                .as_array()
                .ok_or_else(|| type_mismatch(field, "array", value))?;
            match len {
                ArrayLen::Fixed(n) if items.len() != *n => {
                    return Err(mismatched(field, *n, items.len()))
                }
                ArrayLen::Fixed(_) => {}
                ArrayLen::CountField(_) => sink.count(items.len()),
            }
            for item in items {
                encode_value(item, elem, field, sink)?;
            }
        }
        CType::Struct(inner) => {
            let rec = value
                .as_record()
                .ok_or_else(|| type_mismatch(field, "record", value))?;
            encode(rec, inner, field, sink)?;
        }
    }
    Ok(())
}

fn mismatched(field: &str, declared: usize, actual: usize) -> PbioError {
    let field = field.to_owned();
    PbioError::Layout(LayoutError::ArrayLengthMismatch {
        field,
        declared,
        actual,
    })
}

fn missing(field: &str) -> PbioError {
    PbioError::Layout(LayoutError::MissingField {
        field: field.to_owned(),
    })
}

fn type_mismatch(field: &str, expected: &str, value: &Value) -> PbioError {
    PbioError::Layout(LayoutError::TypeMismatch {
        field: field.to_owned(),
        expected: expected.to_owned(),
        found: value.type_name().to_owned(),
    })
}

/// What tells XDR's bytes from CDR's: the byte sink and the reader both
/// follow it. Counts and string lengths are 4-byte unsigned numbers.
#[derive(Clone, Copy)]
pub(crate) struct Rules {
    /// The byte order of every number.
    pub order: Endianness,
    /// The narrowest number, and what a string pads to: XDR's 4-byte
    /// unit, or 1 (no padding).
    pub unit: usize,
    /// Numbers align to their width, counted from the body's first byte.
    pub align: bool,
    /// A NUL follows each string's bytes and is counted in its length.
    pub nul: bool,
}

impl Rules {
    /// The wire width of a `p`: its C size with `long` always 8 bytes
    /// (so no ABI loses data), widened to the unit.
    fn width(&self, p: Primitive) -> usize {
        let natural = match p {
            Primitive::Char | Primitive::UChar => 1,
            Primitive::Short | Primitive::UShort => 2,
            Primitive::Int | Primitive::UInt | Primitive::Enum | Primitive::Float => 4,
            _ => 8,
        };
        natural.max(self.unit)
    }

    /// The zero bytes after a string of `len` wire bytes.
    fn pad(&self, len: usize) -> usize {
        len.next_multiple_of(self.unit) - len
    }

    /// The fewest wire bytes any value of `ty` occupies (alignment
    /// ignored: undercounting only makes a clamp more permissive).
    fn min_size(&self, ty: &CType) -> usize {
        match ty {
            CType::Prim(p) => self.width(*p),
            CType::String => 4 + usize::from(self.nul),
            CType::Array {
                elem,
                len: ArrayLen::Fixed(n),
            } => n.saturating_mul(self.min_size(elem)),
            // The count; the array may be empty.
            CType::Array { .. } => 4,
            CType::Struct(inner) => inner.fields.iter().map(|f| self.min_size(&f.ty)).sum(),
        }
    }
}

/// Appends `record` to `out` as bytes under `rules`; the body, which
/// alignment counts from, starts at `out.len()`.
pub(crate) fn to_bytes(
    record: &Record,
    st: &StructType,
    rules: Rules,
    out: Vec<u8>,
) -> Result<Vec<u8>, PbioError> {
    let mut wire = Wire {
        base: out.len(),
        out,
        rules,
    };
    encode(record, st, &st.name, &mut wire)?;
    Ok(wire.out)
}

/// The byte sink.
struct Wire {
    out: Vec<u8>,
    base: usize,
    rules: Rules,
}

impl Wire {
    /// Room for one `width`-byte number, aligned under the rules: its
    /// offset and code. A store's range check follows the number's own
    /// signedness, so an unsigned code of the width serves every number.
    fn slot(&mut self, width: usize) -> (usize, ScalarCode) {
        if self.rules.align {
            let body = align_up(self.out.len() - self.base, width);
            self.out.resize(self.base + body, 0);
        }
        let at = self.out.len();
        self.out.resize(at + width, 0);
        (at, ScalarCode::unsigned(width, self.rules.order))
    }

    /// A 4-byte count or length.
    fn put_len(&mut self, n: usize) {
        let (at, code) = self.slot(4);
        code.write_raw(&mut self.out, at, n as u64);
    }
}

impl Sink for Wire {
    fn count(&mut self, n: usize) {
        self.put_len(n);
    }

    fn num(&mut self, field: &str, p: Primitive, n: Scalar) -> Result<(), PbioError> {
        let (at, code) = self.slot(self.rules.width(p));
        Ok(code.write(&mut self.out, at, n, field)?)
    }

    fn string(&mut self, _: &str, s: &str) {
        let len = s.len() + usize::from(self.rules.nul);
        self.put_len(len);
        self.out.extend_from_slice(s.as_bytes());
        // The NUL, then the padding.
        let zeros = len - s.len() + self.rules.pad(len);
        self.out.resize(self.out.len() + zeros, 0);
    }
}

/// Reads a record of `st` written under `rules` from `bytes`, whose body
/// starts at `body`.
///
/// # Errors
///
/// Truncation, counts and lengths the input cannot hold, and strings
/// that are not UTF-8 (or, under `nul`, not terminated).
pub(crate) fn decode(
    bytes: &[u8],
    body: usize,
    rules: Rules,
    st: &StructType,
) -> Result<Record, PbioError> {
    Reader {
        bytes,
        at: body,
        base: body,
        rules,
    }
    .record(st)
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    base: usize,
    rules: Rules,
}

impl<'a> Reader<'a> {
    /// Bytes left between the cursor and the end of input.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.at)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PbioError> {
        match self.at.checked_add(n) {
            Some(end) if end <= self.bytes.len() => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            _ => Err(PbioError::Truncated {
                need: self.at.saturating_add(n),
                have: self.bytes.len(),
            }),
        }
    }

    /// `n` numbers of `width` bytes as one slice, aligned (under the
    /// rules, when there are any) and bounds-checked once. A short input
    /// fails at the first number it cannot hold, as one-by-one reads do.
    fn numbers(&mut self, width: usize, n: usize) -> Result<&'a [u8], PbioError> {
        if self.rules.align && n > 0 {
            self.at = self.base + align_up(self.at - self.base, width);
        }
        let fit = self.remaining() / width;
        if n > fit {
            self.at += fit * width;
            return self.take(width);
        }
        self.take(n * width)
    }

    /// A count or a length.
    fn u32(&mut self) -> Result<usize, PbioError> {
        let code = ScalarCode::unsigned(4, self.rules.order);
        Ok(slot(code, self.numbers(4, 1)?, 0) as usize)
    }

    fn record(&mut self, st: &StructType) -> Result<Record, PbioError> {
        let mut record = Record::new();
        for field in &st.fields {
            let value = self.value(&field.ty, &field.name)?;
            record.set(field.name.clone(), value);
        }
        Ok(record)
    }

    fn value(&mut self, ty: &CType, field: &str) -> Result<Value, PbioError> {
        let bad_count = |count: usize| {
            PbioError::Layout(LayoutError::BadCount {
                field: field.to_owned(),
                count: count as i64,
            })
        };
        let bad_string = || {
            PbioError::Layout(LayoutError::BadString {
                field: field.to_owned(),
            })
        };
        Ok(match ty {
            CType::Prim(p) => {
                let width = self.rules.width(*p);
                ScalarCode::new(*p, width, self.rules.order)
                    .read(self.numbers(width, 1)?, 0)
                    .into()
            }
            CType::String => {
                let len = self.u32()?;
                // Clamped against the *remaining* input, so a hostile
                // length is refused before anything is allocated; a
                // length that counts a NUL cannot be 0.
                if len > self.remaining() || (self.rules.nul && len == 0) {
                    return Err(bad_count(len));
                }
                let raw = self.take(len)?;
                self.take(self.rules.pad(len))?;
                let raw = match self.rules.nul {
                    true => raw.strip_suffix(&[0]).ok_or_else(bad_string)?,
                    false => raw,
                };
                Value::String(
                    std::str::from_utf8(raw)
                        .map_err(|_| bad_string())?
                        .to_owned(),
                )
            }
            CType::Array { elem, len } => {
                let count = match len {
                    ArrayLen::Fixed(n) => *n,
                    ArrayLen::CountField(_) => {
                        let c = self.u32()?;
                        // Each element takes at least `min_size` bytes
                        // (`max(1)` guards zero-size ones), so a count of
                        // 0xFFFFFFFF fails here, before the allocation.
                        if c > self.remaining() / self.rules.min_size(elem).max(1) {
                            return Err(bad_count(c));
                        }
                        c
                    }
                };
                let mut items = Vec::with_capacity(count.min(4096));
                if let CType::Prim(p) = **elem {
                    let width = self.rules.width(p);
                    let code = ScalarCode::new(p, width, self.rules.order);
                    let run = self.numbers(width, count)?.chunks_exact(width);
                    items.extend(run.map(|b| Value::from(code.read(b, 0))));
                } else {
                    for _ in 0..count {
                        items.push(self.value(elem, field)?);
                    }
                }
                Value::Array(items)
            }
            CType::Struct(inner) => Value::Record(self.record(inner)?),
        })
    }
}
