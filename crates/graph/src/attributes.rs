//! Node attribute tuples.
//!
//! For each data-graph node `u`, `f_A(u)` is a tuple
//! `(A_1 = a_1, ..., A_n = a_n)` (Section 2.1). The number of attributes per
//! node is small in every workload of the paper (a handful of fields such as
//! `category`, `rate`, `age`), so attributes are stored as a sorted
//! `Vec<(String, AttrValue)>` — cheaper to build and iterate than a hash map
//! at these sizes, and deterministic to serialize.

use crate::value::AttrValue;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The attribute tuple `f_A(v)` of a data-graph node.
///
/// Keys are unique; inserting an existing key overwrites its value.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Attributes {
    /// Sorted by key: canonical serialization and key-ordered iteration.
    entries: Vec<(String, AttrValue)>,
}

impl Attributes {
    /// An empty attribute tuple.
    pub fn new() -> Self {
        Attributes {
            entries: Vec::new(),
        }
    }

    /// Builds an attribute tuple holding a single `label` attribute.
    ///
    /// Traditional graph patterns (and plain graph simulation) use the node
    /// label as the only attribute; this constructor covers that case.
    pub fn labeled(label: impl Into<AttrValue>) -> Self {
        let mut a = Attributes::new();
        a.set("label", label);
        a
    }

    /// Number of attributes in the tuple.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tuple carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets attribute `key` to `value`, overwriting any previous value.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> &mut Self {
        let key = key.into();
        let value = value.into();
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (key, value)),
        }
        self
    }

    /// Chainable variant of [`Attributes::set`] for builder-style construction.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Returns the value of attribute `key`, if defined.
    ///
    /// An equality scan, not a binary search: `str` equality compares the
    /// lengths before any byte, so at the handful of attributes a node
    /// carries most entries are ruled out without touching their heap
    /// buffers, where every probe of an ordered search is a full `str::cmp`.
    /// It serves per-tuple checks ([`Predicate::satisfied_by`](crate::Predicate::satisfied_by),
    /// [`DataGraph::satisfies`](crate::DataGraph::satisfies)); candidate
    /// selection over a whole graph
    /// ([`DataGraph::nodes_satisfying`](crate::DataGraph::nodes_satisfying))
    /// reads the graph's attribute index instead and never calls it.
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.entries
            .iter()
            .find(|(k, _)| k.as_str() == key)
            .map(|(_, v)| v)
    }

    /// Whether attribute `key` is defined on this node.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Removes attribute `key`, returning its previous value if present.
    pub fn remove(&mut self, key: &str) -> Option<AttrValue> {
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over attribute keys in key order.
    ///
    /// Used by the dataset writer to infer a column schema across nodes.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Convenience: the `label` attribute as a string, if present.
    pub fn label(&self) -> Option<&str> {
        self.get("label").and_then(AttrValue::as_str)
    }
}

impl<K: Into<String>, V: Into<AttrValue>, const N: usize> From<[(K, V); N]> for Attributes {
    fn from(items: [(K, V); N]) -> Self {
        let mut a = Attributes::new();
        for (k, v) in items {
            a.set(k, v);
        }
        a
    }
}

impl<K: Into<String>, V: Into<AttrValue>> FromIterator<(K, V)> for Attributes {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut a = Attributes::new();
        for (k, v) in iter {
            a.set(k, v);
        }
        a
    }
}

impl fmt::Display for Attributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_overwrite() {
        let mut a = Attributes::new();
        assert!(a.is_empty());
        a.set("category", "Music");
        a.set("rate", 4.5);
        a.set("category", "Comedy");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("category"), Some(&AttrValue::from("Comedy")));
        assert_eq!(a.get("rate"), Some(&AttrValue::Float(4.5)));
        assert_eq!(a.get("missing"), None);
        assert!(a.contains("rate"));
        assert!(!a.contains("missing"));
    }

    #[test]
    fn get_tells_prefix_and_equal_length_keys_apart() {
        // Keys that are prefixes of one another: the length test alone
        // separates them.
        let a = Attributes::from([("abc", 3), ("a", 1), ("ab", 2)]);
        assert_eq!(a.get("a"), Some(&AttrValue::Int(1)));
        assert_eq!(a.get("ab"), Some(&AttrValue::Int(2)));
        assert_eq!(a.get("abc"), Some(&AttrValue::Int(3)));
        assert_eq!(a.get(""), None);
        assert_eq!(a.get("abcd"), None);
        // Equal lengths: the bytes decide.
        let b = Attributes::from([("rate", 1), ("race", 2), ("rats", 3)]);
        assert_eq!(b.get("race"), Some(&AttrValue::Int(2)));
        assert_eq!(b.get("rate"), Some(&AttrValue::Int(1)));
        assert_eq!(b.get("rats"), Some(&AttrValue::Int(3)));
        assert_eq!(b.get("rack"), None);
        // The empty tuple has nothing to find.
        assert_eq!(Attributes::new().get("a"), None);
        assert_eq!(Attributes::new().get(""), None);
    }

    #[test]
    fn get_on_a_wide_tuple_agrees_with_iteration() {
        // 20 entries inserted out of order, with mixed key lengths.
        let a: Attributes = (0..20i64)
            .map(|i| (format!("k{}{}", "x".repeat((i * 7 % 5) as usize), i), i))
            .collect();
        assert_eq!(a.len(), 20);
        for (k, v) in a.iter() {
            assert_eq!(a.get(k), Some(v), "key {k}");
        }
        let keys: Vec<&str> = a.keys().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "storage stays sorted");
        assert_eq!(a.get("k20"), None);
        assert_eq!(a.get("kx"), None);
    }

    #[test]
    fn labeled_constructor() {
        let a = Attributes::labeled("AM");
        assert_eq!(a.label(), Some("AM"));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn from_array_and_iterator() {
        let a = Attributes::from([("x", 1), ("y", 2)]);
        assert_eq!(a.get("x"), Some(&AttrValue::Int(1)));
        let b: Attributes = vec![("a", 1i64), ("b", 2i64)].into_iter().collect();
        assert_eq!(b.get("b"), Some(&AttrValue::Int(2)));
    }

    #[test]
    fn remove_attribute() {
        let mut a = Attributes::from([("x", 1), ("y", 2)]);
        assert_eq!(a.remove("x"), Some(AttrValue::Int(1)));
        assert_eq!(a.remove("x"), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let a = Attributes::from([("z", 1), ("a", 2), ("m", 3)]);
        let keys: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
        assert_eq!(a.keys().collect::<Vec<_>>(), vec!["a", "m", "z"]);
    }

    #[test]
    fn display_is_readable() {
        let a = Attributes::from([("rate", 4)]).with("cat", "Music");
        assert_eq!(a.to_string(), "(cat=\"Music\", rate=4)");
    }

    #[test]
    fn builder_style_with() {
        let a = Attributes::new().with("x", 1).with("y", true);
        assert_eq!(a.get("y"), Some(&AttrValue::Bool(true)));
    }
}
