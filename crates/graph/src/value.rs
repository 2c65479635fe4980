//! Attribute values.
//!
//! Data-graph nodes carry a tuple of attributes `A_i = a_i` (Section 2.1 of
//! the paper) where each `a_i` is a constant. Pattern predicates compare such
//! constants with the operators `<, <=, =, !=, >, >=`, so values need a total
//! comparison within a type; comparisons across incompatible types evaluate
//! to `false` rather than erroring (a node simply does not satisfy the
//! predicate), mirroring the paper's "v.A = a' is defined ... and a' op a".

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A constant attribute value stored on a data-graph node.
///
/// The paper's examples use strings (category names, uploader names), numbers
/// (rating, age in days, view counts) and implicitly booleans; floats are
/// included so rating-style attributes (e.g. `rate > 4.5`) work naturally.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// A signed integer constant (counts, days, hops...).
    Int(i64),
    /// A floating point constant (ratings, scores...).
    Float(f64),
    /// A string constant (labels, categories, user names...).
    Str(String),
    /// A boolean constant.
    Bool(bool),
}

/// The type of an [`AttrValue`], as named in dataset schemas.
///
/// The on-disk attribute-CSV format (see [`crate::dataset`]) declares one
/// type per column in its header (`rate:float`, `views:int`, …); this enum is
/// that declaration, and [`AttrType::parse_value`] is the typed field parser.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// A signed 64-bit integer column.
    Int,
    /// A 64-bit floating point column.
    Float,
    /// A string column.
    Str,
    /// A boolean column (`true` / `false`).
    Bool,
}

impl AttrType {
    /// The schema name of the type (`int`, `float`, `str`, `bool`).
    pub fn name(self) -> &'static str {
        match self {
            AttrType::Int => "int",
            AttrType::Float => "float",
            AttrType::Str => "str",
            AttrType::Bool => "bool",
        }
    }

    /// Parses a schema type name; returns `None` for unknown names.
    pub fn parse_name(name: &str) -> Option<AttrType> {
        match name {
            "int" => Some(AttrType::Int),
            "float" => Some(AttrType::Float),
            "str" => Some(AttrType::Str),
            "bool" => Some(AttrType::Bool),
            _ => None,
        }
    }

    /// Parses a raw field as a value of this type.
    ///
    /// `Str` accepts any text verbatim (CSV quoting is undone by the caller);
    /// `Bool` accepts exactly `true`/`false`; numeric types use the standard
    /// Rust parsers, so `Float` round-trips everything `f64`'s `Display`
    /// emits. Returns `None` when the text is not a value of the type.
    pub fn parse_value(self, text: &str) -> Option<AttrValue> {
        match self {
            AttrType::Int => text.parse::<i64>().ok().map(AttrValue::Int),
            AttrType::Float => text.parse::<f64>().ok().map(AttrValue::Float),
            AttrType::Str => Some(AttrValue::Str(text.to_string())),
            AttrType::Bool => match text {
                "true" => Some(AttrValue::Bool(true)),
                "false" => Some(AttrValue::Bool(false)),
                _ => None,
            },
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl AttrValue {
    /// The [`AttrType`] of this value.
    pub fn attr_type(&self) -> AttrType {
        match self {
            AttrValue::Int(_) => AttrType::Int,
            AttrValue::Float(_) => AttrType::Float,
            AttrValue::Str(_) => AttrType::Str,
            AttrValue::Bool(_) => AttrType::Bool,
        }
    }

    /// Returns the value as an `i64` if it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as an `f64` if it is numeric (int or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Int(v) => Some(*v as f64),
            AttrValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Compare two values if they are comparable.
    ///
    /// Numeric values (ints and floats) compare with each other; strings
    /// compare lexicographically; booleans compare as `false < true`.
    /// Values of incomparable kinds — and `NaN` floats — return `None`,
    /// which predicate evaluation treats as "does not satisfy".
    pub fn partial_cmp_value(&self, other: &AttrValue) -> Option<Ordering> {
        use AttrValue::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Equality in the sense used by predicates: numerically tolerant across
    /// int/float, otherwise structural.
    pub fn semantically_eq(&self, other: &AttrValue) -> bool {
        matches!(self.partial_cmp_value(other), Some(Ordering::Equal))
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v:?}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(AttrValue::from(3i64), AttrValue::Int(3));
        assert_eq!(AttrValue::from(3i32), AttrValue::Int(3));
        assert_eq!(AttrValue::from(3u32), AttrValue::Int(3));
        assert_eq!(AttrValue::from(2.5), AttrValue::Float(2.5));
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".into()));
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
    }

    #[test]
    fn accessors() {
        assert_eq!(AttrValue::Int(7).as_int(), Some(7));
        assert_eq!(AttrValue::Float(7.5).as_int(), None);
        assert_eq!(AttrValue::Int(7).as_f64(), Some(7.0));
        assert_eq!(AttrValue::Float(7.5).as_f64(), Some(7.5));
        assert_eq!(AttrValue::Str("a".into()).as_str(), Some("a"));
    }

    #[test]
    fn numeric_cross_type_comparison() {
        let a = AttrValue::Int(3);
        let b = AttrValue::Float(3.0);
        let c = AttrValue::Float(3.5);
        assert!(a.semantically_eq(&b));
        assert_eq!(a.partial_cmp_value(&c), Some(Ordering::Less));
        assert_eq!(c.partial_cmp_value(&a), Some(Ordering::Greater));
    }

    #[test]
    fn string_comparison() {
        let a = AttrValue::from("apple");
        let b = AttrValue::from("banana");
        assert_eq!(a.partial_cmp_value(&b), Some(Ordering::Less));
        assert!(!a.semantically_eq(&b));
        assert!(a.semantically_eq(&AttrValue::from("apple")));
    }

    #[test]
    fn incomparable_types_return_none() {
        assert_eq!(
            AttrValue::from("3").partial_cmp_value(&AttrValue::Int(3)),
            None
        );
        assert_eq!(
            AttrValue::Bool(true).partial_cmp_value(&AttrValue::Int(1)),
            None
        );
        assert!(!AttrValue::from("3").semantically_eq(&AttrValue::Int(3)));
    }

    #[test]
    fn nan_is_not_comparable() {
        let nan = AttrValue::Float(f64::NAN);
        assert_eq!(nan.partial_cmp_value(&AttrValue::Float(1.0)), None);
        assert!(!nan.semantically_eq(&nan));
    }

    #[test]
    fn display_formats() {
        assert_eq!(AttrValue::Int(3).to_string(), "3");
        assert_eq!(AttrValue::Float(2.5).to_string(), "2.5");
        assert_eq!(AttrValue::from("hi").to_string(), "\"hi\"");
        assert_eq!(AttrValue::Bool(false).to_string(), "false");
    }

    #[test]
    fn attr_type_names_roundtrip() {
        for ty in [
            AttrType::Int,
            AttrType::Float,
            AttrType::Str,
            AttrType::Bool,
        ] {
            assert_eq!(AttrType::parse_name(ty.name()), Some(ty));
            assert_eq!(ty.to_string(), ty.name());
        }
        assert_eq!(AttrType::parse_name("integer"), None);
        assert_eq!(AttrType::parse_name(""), None);
    }

    #[test]
    fn attr_type_of_value() {
        assert_eq!(AttrValue::Int(1).attr_type(), AttrType::Int);
        assert_eq!(AttrValue::Float(1.5).attr_type(), AttrType::Float);
        assert_eq!(AttrValue::from("x").attr_type(), AttrType::Str);
        assert_eq!(AttrValue::Bool(false).attr_type(), AttrType::Bool);
    }

    #[test]
    fn typed_field_parsing() {
        assert_eq!(AttrType::Int.parse_value("42"), Some(AttrValue::Int(42)));
        assert_eq!(AttrType::Int.parse_value("4.5"), None);
        assert_eq!(
            AttrType::Float.parse_value("4.5"),
            Some(AttrValue::Float(4.5))
        );
        assert_eq!(AttrType::Float.parse_value("x"), None);
        assert_eq!(
            AttrType::Str.parse_value("a, b"),
            Some(AttrValue::Str("a, b".into()))
        );
        assert_eq!(
            AttrType::Bool.parse_value("true"),
            Some(AttrValue::Bool(true))
        );
        assert_eq!(AttrType::Bool.parse_value("TRUE"), None);
        assert_eq!(AttrType::Bool.parse_value("1"), None);
    }

    #[test]
    fn float_display_reparses_exactly() {
        for v in [0.1f64, 4.5, -3.25, 1e-9, 123456789.125] {
            let text = AttrValue::Float(v).attr_type().name().to_string();
            assert_eq!(text, "float");
            let printed = format!("{v}");
            assert_eq!(
                AttrType::Float.parse_value(&printed),
                Some(AttrValue::Float(v))
            );
        }
    }
}
