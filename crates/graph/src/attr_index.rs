//! The attribute index behind
//! [`DataGraph::nodes_satisfying`](crate::DataGraph::nodes_satisfying).
//!
//! Candidate selection (lines 4–5 of Fig. 4) asks, for every pattern node,
//! which data nodes satisfy a conjunction of atoms `A op a`. Evaluated node
//! by node that is one string-keyed [`Attributes::get`] and one
//! [`CmpOp::eval`](crate::CmpOp::eval) per node and atom. The index
//! factorises each key's column the way a factorised database does: the set
//! of nodes holding the key is the union of `{value} × nodes(value)` over
//! the key's distinct values. An atom is then evaluated once per distinct
//! value, and the nodes of the values that pass are read off their posting
//! lists. Most domains are far smaller than `V` (a `label` drawn from a few
//! hundred values); a key with a value per node (an id) costs one `eval` per
//! node, as before, but no string-keyed lookups.
//!
//! The index is derived data: [`DataGraph`](crate::DataGraph) builds it on
//! the first predicate query and drops it when an attribute tuple is written
//! or a node is added. Edge updates never touch it.

use crate::attributes::Attributes;
use crate::node_id::NodeId;
use crate::predicate::AtomicFormula;
use crate::value::AttrValue;
use rustc_hash::FxHashMap;

/// The code of a node that does not carry the key.
const NONE: u32 = u32::MAX;

/// One attribute column per key.
#[derive(Clone, Debug)]
pub(crate) struct AttrIndex {
    columns: FxHashMap<String, Column>,
}

/// A key's column, dictionary-encoded.
#[derive(Clone, Debug)]
struct Column {
    /// The key's distinct values; a value's position is its code.
    values: Vec<AttrValue>,
    /// Per node, the code of its value, or [`NONE`].
    codes: Vec<u32>,
    /// `postings[offsets[c]..offsets[c + 1]]`: the nodes holding code `c`,
    /// ascending.
    offsets: Vec<u32>,
    postings: Vec<NodeId>,
}

/// The identity of a value inside one column. Floats are keyed by their
/// bits, so two nodes share a code only when their values are the same
/// `AttrValue` (`0.0` and `-0.0`, or two NaN payloads, get codes of their
/// own) and every atom therefore treats them alike.
#[derive(PartialEq, Eq, Hash)]
enum ValueKey<'a> {
    Int(i64),
    Float(u64),
    Str(&'a str),
    Bool(bool),
}

impl<'a> ValueKey<'a> {
    fn of(value: &'a AttrValue) -> Self {
        match value {
            AttrValue::Int(i) => ValueKey::Int(*i),
            AttrValue::Float(f) => ValueKey::Float(f.to_bits()),
            AttrValue::Str(s) => ValueKey::Str(s),
            AttrValue::Bool(b) => ValueKey::Bool(*b),
        }
    }
}

impl AttrIndex {
    /// Indexes the attribute tuples of nodes `0..attrs.len()`.
    pub(crate) fn build(attrs: &[Attributes]) -> AttrIndex {
        let n = attrs.len();
        let mut building: FxHashMap<&str, (Column, FxHashMap<ValueKey<'_>, u32>)> =
            FxHashMap::default();
        for (v, tuple) in attrs.iter().enumerate() {
            for (key, value) in tuple.iter() {
                let (column, dictionary) = building.entry(key).or_insert_with(|| {
                    let column = Column {
                        values: Vec::new(),
                        codes: vec![NONE; n],
                        offsets: Vec::new(),
                        postings: Vec::new(),
                    };
                    (column, FxHashMap::default())
                });
                let code = *dictionary.entry(ValueKey::of(value)).or_insert_with(|| {
                    column.values.push(value.clone());
                    (column.values.len() - 1) as u32
                });
                column.codes[v] = code;
            }
        }
        let columns = building
            .into_iter()
            .map(|(key, (mut column, _))| {
                column.fill_postings();
                (key.to_string(), column)
            })
            .collect();
        AttrIndex { columns }
    }

    /// The nodes satisfying the conjunction `first ∧ rest`, ascending.
    ///
    /// `first` selects; each atom of `rest` filters the survivors through
    /// its key's code column. A key no node carries selects nothing.
    pub(crate) fn select(&self, first: &AtomicFormula, rest: &[AtomicFormula]) -> Vec<NodeId> {
        let Some(column) = self.columns.get(first.attr.as_str()) else {
            return Vec::new();
        };
        let mut selected = column.select(first);
        for atom in rest {
            let Some(column) = self.columns.get(atom.attr.as_str()) else {
                return Vec::new();
            };
            let pass = column.passing(atom);
            selected.retain(|v| Column::passes(&pass, column.codes[v.index()]));
        }
        selected
    }
}

impl Column {
    /// Counting sort of the nodes by code: `offsets` and `postings` from
    /// `codes`, each posting list ascending because nodes are visited in id
    /// order.
    fn fill_postings(&mut self) {
        let mut offsets = vec![0u32; self.values.len() + 1];
        for &c in self.codes.iter().filter(|&&c| c != NONE) {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..self.values.len() {
            offsets[c + 1] += offsets[c];
        }
        let mut next = offsets.clone();
        let mut postings = vec![NodeId::new(0); offsets[self.values.len()] as usize];
        for (v, &c) in self.codes.iter().enumerate().filter(|&(_, &c)| c != NONE) {
            postings[next[c as usize] as usize] = NodeId::new(v as u32);
            next[c as usize] += 1;
        }
        self.offsets = offsets;
        self.postings = postings;
    }

    /// The posting list of code `c`.
    fn posting(&self, c: usize) -> &[NodeId] {
        &self.postings[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// `atom` evaluated once per distinct value: `pass[c]` is whether the
    /// nodes holding code `c` satisfy it.
    fn passing(&self, atom: &AtomicFormula) -> Vec<bool> {
        self.values
            .iter()
            .map(|value| atom.op.eval(value, &atom.value))
            .collect()
    }

    /// Whether a node with `code` passes; [`NONE`] (the key is undefined)
    /// never does, whatever the operator.
    #[inline]
    fn passes(pass: &[bool], code: u32) -> bool {
        pass.get(code as usize).copied().unwrap_or(false)
    }

    /// The nodes satisfying `atom`, ascending, by whichever of two plans
    /// reads fewer entries. Both write the `m` nodes that pass. Merging the
    /// `k` passing posting lists reads those `m` entries once per merge
    /// pass, `⌈log₂ k⌉` passes (none for a single list); scanning reads all
    /// `|V|` codes.
    fn select(&self, atom: &AtomicFormula) -> Vec<NodeId> {
        let pass = self.passing(atom);
        let passing_codes = || (0..self.values.len()).filter(|&c| pass[c]);
        let k = passing_codes().count();
        let m: usize = passing_codes().map(|c| self.posting(c).len()).sum();
        let merge_passes = k.next_power_of_two().trailing_zeros() as usize;
        if m * merge_passes < self.codes.len() {
            let mut selected = Vec::with_capacity(m);
            for c in passing_codes() {
                selected.extend_from_slice(self.posting(c));
            }
            if k > 1 {
                // `k` ascending runs: the stable sort finds and merges them.
                selected.sort();
            }
            selected
        } else {
            self.codes
                .iter()
                .enumerate()
                .filter(|&(_, &c)| Self::passes(&pass, c))
                .map(|(v, _)| NodeId::new(v as u32))
                .collect()
        }
    }
}
