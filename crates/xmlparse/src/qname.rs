//! Qualified names (`prefix:local`).

use std::fmt;

/// A possibly-prefixed XML name, split into prefix and local part.
///
/// ```
/// use xmlparse::QName;
/// let q = QName::parse("xsd:element");
/// assert_eq!(q.prefix(), Some("xsd"));
/// assert_eq!(q.local(), "element");
/// assert_eq!(QName::parse("element").prefix(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    prefix: Option<String>,
    local: String,
}

impl QName {
    /// Splits `raw` on the first `:` into prefix and local part.
    ///
    /// A leading or trailing colon yields no prefix / an empty local part
    /// respectively; callers that care should validate with
    /// [`is_valid_name`].
    pub fn parse(raw: &str) -> Self {
        let (prefix, local) = split(raw);
        QName::new(prefix, local)
    }

    /// Builds a `QName` from explicit parts.
    pub fn new(prefix: Option<&str>, local: &str) -> Self {
        QName { prefix: prefix.map(str::to_owned), local: local.to_owned() }
    }

    /// The namespace prefix, if any.
    pub fn prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    /// The local part of the name.
    pub fn local(&self) -> &str {
        &self.local
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            Some(p) => write!(f, "{p}:{}", self.local),
            None => f.write_str(&self.local),
        }
    }
}

/// Splits `raw` on its first `:` into `(prefix, local part)` without
/// copying either; a leading colon means no prefix (as [`QName::parse`]).
#[inline]
pub fn split(raw: &str) -> (Option<&str>, &str) {
    match raw.split_once(':') {
        Some((prefix, local)) if !prefix.is_empty() => (Some(prefix), local),
        _ => (None, raw),
    }
}

/// Whether `ch` may start an XML name.
///
/// This follows the XML 1.0 (5th ed.) production with the usual
/// simplification of accepting all non-ASCII characters.
pub fn is_name_start_char(ch: char) -> bool {
    ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || !ch.is_ascii()
}

/// Whether `ch` may continue an XML name.
pub fn is_name_char(ch: char) -> bool {
    is_name_start_char(ch) || ch.is_ascii_digit() || ch == '-' || ch == '.'
}

/// Whether `name` is a syntactically valid XML name.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(first) if is_name_start_char(first) => chars.all(is_name_char),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_splits_on_first_colon() {
        let q = QName::parse("a:b:c");
        assert_eq!(q.prefix(), Some("a"));
        assert_eq!(q.local(), "b:c");
    }

    #[test]
    fn display_round_trips() {
        for raw in ["xsd:complexType", "element"] {
            assert_eq!(QName::parse(raw).to_string(), raw);
        }
    }

    #[test]
    fn name_validity() {
        assert!(is_valid_name("xsd:element"));
        assert!(is_valid_name("_private"));
        assert!(is_valid_name("a-b.c2"));
        assert!(!is_valid_name("2fast"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("-lead"));
        assert!(!is_valid_name("sp ace"));
    }

    #[test]
    fn leading_colon_means_no_prefix() {
        let q = QName::parse(":odd");
        assert_eq!(q.prefix(), None);
        assert_eq!(q.local(), ":odd");
    }
}
