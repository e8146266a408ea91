//! The dynamic value model carried through encode/decode.

use std::fmt;

use crate::layout::Scalar;

/// A dynamically-typed message value.
///
/// Application data enters the marshaling pipeline as a [`Record`] of
/// `Value`s (the reproduction's stand-in for "a region in the address
/// space of a process" — §3.2 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A signed integer (covers `char` through `long long`).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A floating-point number (covers `float` and `double`).
    Float(f64),
    /// A `char*` string.
    String(String),
    /// An array of homogeneous values.
    Array(Vec<Value>),
    /// A nested record.
    Record(Record),
}

impl Value {
    /// A short name for the value's runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::UInt(_) => "uint",
            Value::Float(_) => "float",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Record(_) => "record",
        }
    }

    /// The value as `i64` if it is an integer of either signedness that
    /// fits.
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            Value::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` if it is a float (integers are *not* coerced;
    /// the metadata decides representations, not the data).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    #[inline]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(vs) => Some(vs),
            _ => None,
        }
    }

    /// The value as a record if it is one.
    #[inline]
    pub fn as_record(&self) -> Option<&Record> {
        match self {
            Value::Record(r) => Some(r),
            _ => None,
        }
    }
}

impl From<Scalar> for Value {
    fn from(scalar: Scalar) -> Self {
        match scalar {
            Scalar::Int(v) => Value::Int(v),
            Scalar::UInt(v) => Value::UInt(v),
            Scalar::Float(v) => Value::Float(v),
        }
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v.into())
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v.into())
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v.into())
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl From<Record> for Value {
    fn from(v: Record) -> Self {
        Value::Record(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(vs: Vec<T>) -> Self {
        Value::Array(vs.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::UInt(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::String(s) => write!(f, "{s:?}"),
            Value::Array(vs) => {
                f.write_str("[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Record(r) => write!(f, "{r}"),
        }
    }
}

/// An ordered set of named values — one message instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// A record of `fields` in the given order, for callers whose names
    /// are known distinct (a decoder walking a validated struct type):
    /// skips the per-field search [`set`](Self::set) makes. Were a name
    /// repeated, [`get`](Self::get) would answer with its first value.
    pub fn from_distinct(fields: Vec<(String, Value)>) -> Self {
        Record { fields }
    }

    /// Builder-style: sets (or replaces) a field and returns `self`.
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Sets (or replaces) a field.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        match self.fields.iter_mut().find(|(n, _)| *n == name) {
            Some((_, slot)) => *slot = value,
            None => self.fields.push((name, value)),
        }
    }

    /// The value of field `name`, if present.
    #[inline]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The value of field `name`, trying slot `hint` before searching:
    /// a record built in a struct's declaration order answers each of
    /// the struct's fields at the field's own index.
    #[inline]
    pub(crate) fn get_hinted(&self, hint: usize, name: &str) -> Option<&Value> {
        match self.fields.get(hint) {
            Some((n, value)) if n == name => Some(value),
            _ => self.get(name),
        }
    }

    /// Whether the record has a field `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Removes a field, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(n, _)| n == name)?;
        Some(self.fields.remove(idx).1)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{name}: {value}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<(String, Value)> for Record {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut record = Record::new();
        for (name, value) in iter {
            record.set(name, value);
        }
        record
    }
}

impl Extend<(String, Value)> for Record {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        for (name, value) in iter {
            self.set(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_replaces_in_place_preserving_order() {
        let mut r = Record::new().with("a", 1).with("b", 2);
        r.set("a", 10);
        let names: Vec<_> = r.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(r.get("a").unwrap().as_i64(), Some(10));
    }

    #[test]
    fn conversions_from_rust_types() {
        let r = Record::new()
            .with("i", 5i32)
            .with("u", 7u64)
            .with("f", 1.5f64)
            .with("s", "hi")
            .with("a", vec![1i64, 2, 3]);
        assert_eq!(r.get("i").unwrap().as_i64(), Some(5));
        assert_eq!(r.get("u").unwrap().as_u64(), Some(7));
        assert_eq!(r.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(r.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(r.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn cross_signedness_accessors() {
        assert_eq!(Value::Int(5).as_u64(), Some(5));
        assert_eq!(Value::Int(-5).as_u64(), None);
        assert_eq!(Value::UInt(u64::MAX).as_i64(), None);
        assert_eq!(Value::UInt(9).as_i64(), Some(9));
    }

    #[test]
    fn floats_do_not_coerce_from_ints() {
        assert_eq!(Value::Int(1).as_f64(), None);
    }

    #[test]
    fn display_is_readable() {
        let r = Record::new().with("name", "AA112").with("alt", 31000i64);
        assert_eq!(r.to_string(), "{name: \"AA112\", alt: 31000}");
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut r: Record =
            vec![("x".to_owned(), Value::Int(1))].into_iter().collect();
        r.extend(vec![("y".to_owned(), Value::Int(2))]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn remove_returns_value() {
        let mut r = Record::new().with("x", 1);
        assert_eq!(r.remove("x"), Some(Value::Int(1)));
        assert!(r.is_empty());
        assert_eq!(r.remove("x"), None);
    }
}
