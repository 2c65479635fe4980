//! The attribute index behind
//! [`DataGraph::nodes_satisfying`](crate::DataGraph::nodes_satisfying).
//!
//! Candidate selection (lines 4–5 of Fig. 4) asks, for every pattern node,
//! which data nodes satisfy a conjunction of atoms `A op c`. The index keeps
//! one column per key, dictionary-encoded with *order-preserving* codes: the
//! key's distinct values are sorted once, a value's code is its rank, and the
//! posting lists are laid out in code order. The nodes of a code range
//! `lo..hi` are then the single slice `postings[offsets[lo]..offsets[hi]]`,
//! and its size is read in O(1). Each key's column is the union of
//! `{value} × nodes(value)` products, as in a factorised database; sorting
//! the values makes the products that pass a comparison one contiguous run.
//!
//! The order agrees with [`AttrValue::partial_cmp_value`] on every pair it
//! can compare:
//!
//! * **numeric** values first, `Int` and non-NaN `Float`, by their `f64`
//!   image; equal images put `Int`s before `Float`s, `Int`s by their `i64`
//!   and `Float`s by their bits;
//! * then NaN floats (by bits), then `Str` in byte order, then `Bool`.
//!
//! Two nodes share a code iff they hold the same `AttrValue`, floats compared
//! by their bits: `0.0` and `-0.0`, or two NaN payloads, get codes of their
//! own, and `Int(1)` and `Float(1.0)` do too.
//!
//! An atom `A op c` compiles by binary search to at most three ascending
//! code ranges. Only `c`'s own class can pass: a NaN constant selects
//! nothing, and so does a constant no value of the key is comparable with.
//! Each column stores where its four classes start, so the class is looked
//! up, not searched, and an atom costs two binary searches.
//! Inside the class, `c` splits the codes at its *tie band*, the entries
//! whose image equals `c`'s (for `Str` and `Bool`, the entry equal to `c`).
//! Below the band every entry compares `Less` and above it `Greater`, exactly,
//! because rounding to `f64` is monotone. Inside the band
//! [`CmpOp::eval`](crate::CmpOp::eval) decides entry by entry; this is the
//! only place the index calls it. The band holds 0–1 entries, and more only
//! when `Int`s beyond 2⁵³ or an `Int` and a `Float` share an image. A node
//! without the key holds no code and never passes, whatever the operator.
//!
//! A conjunction is planned before any node list is built. Every atom is
//! resolved to its code ranges and its posting count `m`, the summed size of
//! its passing products, read off `offsets`. The atom with the smallest `m`
//! drives (the earlier atom on a tie): its nodes come off its posting slices
//! or one scan of its code column. The other atoms then filter the survivors
//! in ascending `m`, each with a test on its own code column, so the widest
//! atom tests the fewest nodes. On a column whose whole posting array
//! ascends (node order follows value order, as for a key that numbers the
//! nodes) the driving atom copies its passing slices in code order, which is
//! already ascending: no merge and no scan, whatever its ranges. A key no
//! node carries, or an atom no node passes, ends the plan with no node
//! read. When an atom's passing codes form one range — every atom but a
//! `!=` on a value some node holds and some atoms whose tie band holds
//! more than one entry — a code is tested with one `wrapping_sub` and one
//! compare.
//!
//! The index is derived data: [`DataGraph`](crate::DataGraph) builds it on
//! the first predicate query and drops it when an attribute tuple is written
//! or a node is added. Edge updates never touch it.

use crate::attributes::Attributes;
use crate::node_id::NodeId;
use crate::predicate::AtomicFormula;
use crate::value::AttrValue;
use rustc_hash::FxHashMap;
use std::cmp::Ordering;

/// The code of a node that does not carry the key.
const NONE: u32 = u32::MAX;

/// One attribute column per key.
#[derive(Clone, Debug)]
pub(crate) struct AttrIndex {
    columns: FxHashMap<String, Column>,
}

/// A key's column, dictionary-encoded with order-preserving codes.
#[derive(Clone, Debug)]
struct Column {
    /// The key's distinct values in [`Rank`] order; a value's position is
    /// its code.
    values: Vec<AttrValue>,
    /// `classes[c]..classes[c + 1]`: the codes of [`Rank::class`] `c`.
    classes: [u32; 5],
    /// Per node, the code of its value, or [`NONE`].
    codes: Vec<u32>,
    /// `postings[offsets[c]..offsets[c + 1]]`: the nodes holding code `c`,
    /// ascending. Codes are laid out in order, so a code range is one slice.
    offsets: Vec<u32>,
    postings: Vec<NodeId>,
    /// Whether `postings` ascends as a whole, not only per code: node order
    /// follows value order, as for a key that numbers the nodes. Any code
    /// ranges' slices, copied in code order, are then ascending.
    ascending: bool,
}

/// A value's place in the dictionary order (see the module docs): the
/// derived `Ord` is that order, and two ranks are equal only for the same
/// value, floats compared by their bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rank<'a> {
    /// An `Int` or a non-NaN `Float`: its `f64` image as an order-preserving
    /// `u64`, then `Int`s (`false`) before `Float`s, then the `i64` (as an
    /// order-preserving `u64`) or the bits.
    Numeric(u64, bool, u64),
    Nan(u64),
    Str(&'a str),
    Bool(bool),
}

fn rank(value: &AttrValue) -> Rank<'_> {
    let image = |f: f64| {
        // `+ 0.0` maps `-0.0` to `0.0`; flipping the sign bit of positive
        // and every bit of negative images orders their bits like the values.
        let bits = (f + 0.0).to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    };
    match value {
        AttrValue::Int(i) => Rank::Numeric(image(*i as f64), false, *i as u64 ^ 1 << 63),
        AttrValue::Float(f) if f.is_nan() => Rank::Nan(f.to_bits()),
        AttrValue::Float(f) => Rank::Numeric(image(*f), true, f.to_bits()),
        AttrValue::Str(s) => Rank::Str(s),
        AttrValue::Bool(b) => Rank::Bool(*b),
    }
}

impl Rank<'_> {
    /// The value ranked: `rank` loses nothing.
    fn value(&self) -> AttrValue {
        match *self {
            Rank::Numeric(_, false, i) => AttrValue::Int((i ^ 1 << 63) as i64),
            Rank::Numeric(_, true, bits) | Rank::Nan(bits) => {
                AttrValue::Float(f64::from_bits(bits))
            }
            Rank::Str(s) => AttrValue::Str(s.to_string()),
            Rank::Bool(b) => AttrValue::Bool(b),
        }
    }

    /// The order class: numeric, NaN, `Str`, `Bool`. A constant compares
    /// only with values of its own class.
    fn class(&self) -> u8 {
        match self {
            Rank::Numeric(..) => 0,
            Rank::Nan(_) => 1,
            Rank::Str(_) => 2,
            Rank::Bool(_) => 3,
        }
    }

    /// Where this rank lies against `c`'s, of the same class, up to the tie
    /// band: numeric values by their image alone, the others exactly.
    fn band_cmp(&self, c: &Rank<'_>) -> Ordering {
        match (self, c) {
            (Rank::Numeric(x, ..), Rank::Numeric(y, ..)) => x.cmp(y),
            _ => self.cmp(c),
        }
    }
}

impl AttrIndex {
    /// Indexes the attribute tuples of nodes `0..attrs.len()`.
    pub(crate) fn build(attrs: &[Attributes]) -> AttrIndex {
        let mut entries: FxHashMap<&str, Vec<Entry<'_>>> = FxHashMap::default();
        for (v, tuple) in attrs.iter().enumerate() {
            for (key, value) in tuple.iter() {
                entries
                    .entry(key)
                    .or_default()
                    .push((rank(value), v as u32));
            }
        }
        let columns = entries
            .into_iter()
            .map(|(key, entries)| (key.to_string(), Column::build(attrs.len(), entries)))
            .collect();
        AttrIndex { columns }
    }

    /// The nodes satisfying the conjunction `first ∧ rest`, ascending.
    ///
    /// Plans first: every atom is resolved to its code ranges and its
    /// posting count `m`, and the plan ends empty at a key no node carries
    /// or an atom with `m = 0`. The atom with the smallest `m` selects (on a
    /// tie, the earlier atom); the others filter its survivors in ascending
    /// `m`, each with a test on its key's code column. The plans of up to
    /// [`INLINE_ATOMS`] atoms live on the stack.
    pub(crate) fn select(&self, first: &AtomicFormula, rest: &[AtomicFormula]) -> Vec<NodeId> {
        let Some(first) = self.plan(first) else {
            return Vec::new();
        };
        let mut inline;
        let mut spilled;
        let plans: &mut [Plan<'_>] = if rest.len() < INLINE_ATOMS {
            inline = [first; INLINE_ATOMS];
            &mut inline[..=rest.len()]
        } else {
            spilled = vec![first; 1 + rest.len()];
            &mut spilled
        };
        for (plan, atom) in plans[1..].iter_mut().zip(rest) {
            match self.plan(atom) {
                Some(resolved) => *plan = resolved,
                None => return Vec::new(),
            }
        }
        // A stable sort: a tie keeps the earlier atom first.
        plans.sort_by_key(|plan| plan.postings);
        let mut selected = plans[0].select();
        for plan in &plans[1..] {
            if selected.is_empty() {
                break;
            }
            plan.retain(&mut selected);
        }
        selected
    }

    /// `atom` resolved against its key's column, or `None` when no node
    /// passes it: the key is on no node, or no node holds a passing code.
    fn plan(&self, atom: &AtomicFormula) -> Option<Plan<'_>> {
        let column = self.columns.get(atom.attr.as_str())?;
        let ranges = column.ranges(atom);
        let postings = ranges.iter().map(|&r| column.postings_of(r).len()).sum();
        (postings > 0).then_some(Plan {
            column,
            ranges,
            postings,
        })
    }
}

/// How many atoms a conjunction plans without a heap allocation; a longer
/// one plans in one `Vec`. The pattern generators write one or two atoms.
const INLINE_ATOMS: usize = 4;

/// An atom resolved against its key's column.
#[derive(Clone, Copy)]
struct Plan<'a> {
    column: &'a Column,
    /// The codes that pass the atom.
    ranges: CodeRanges,
    /// `m`: the nodes holding a passing code, the summed size of the atom's
    /// `{value} × nodes(value)` products.
    postings: usize,
}

/// A node's entry in a key's column while the index is built: its value's
/// rank and its id.
type Entry<'a> = (Rank<'a>, u32);

/// The codes that satisfy an atom: up to three ascending, disjoint code
/// ranges `start..end`, unused ones empty. Three suffice: below the tie
/// band every entry compares `Less` and above it `Greater`, and inside it an
/// `Int` constant meets `Int`s in `i64` order (`Less`, then `Equal`, then
/// `Greater`) and then `Float`s (all `Equal`), any other constant only
/// `Equal`s; no operator's passing entries form more than three runs of
/// that sequence.
type CodeRanges = [(u32, u32); 3];

/// Whether `code` lies in one of `ranges`; [`NONE`] lies in none.
#[inline]
fn holds_code(ranges: &CodeRanges, code: u32) -> bool {
    ranges.iter().fold(false, |hit, &(start, end)| {
        hit | (code.wrapping_sub(start) < end - start)
    })
}

/// The nodes `0..codes.len()` whose code passes, ascending; `m` of them
/// pass.
///
/// Free of branches on the code, as is [`retain`]: both write every node
/// and advance past the ones that pass, because whether a node passes
/// follows no pattern a branch predictor could learn.
#[inline]
fn scan(codes: &[u32], m: usize, passes: impl Fn(u32) -> bool) -> Vec<NodeId> {
    let mut selected = vec![NodeId::new(0); m + 1];
    let mut kept = 0;
    for (v, &code) in codes.iter().enumerate() {
        selected[kept] = NodeId::new(v as u32);
        kept += passes(code) as usize;
    }
    selected.truncate(kept);
    selected
}

/// Keeps the nodes of `selected` whose code passes, in order.
#[inline]
fn retain(selected: &mut Vec<NodeId>, codes: &[u32], passes: impl Fn(u32) -> bool) {
    let mut kept = 0;
    for i in 0..selected.len() {
        let v = selected[i];
        selected[kept] = v;
        kept += passes(codes[v.index()]) as usize;
    }
    selected.truncate(kept);
}

impl Plan<'_> {
    /// `(start, end - start)` when the passing codes form the one range
    /// `start..end`. A code `c` then passes iff
    /// `c.wrapping_sub(start) < end - start`: one compare, which [`NONE`]
    /// fails because every `end` is below it.
    fn one_range(&self) -> Option<(u32, u32)> {
        let [(start, end), (next, next_end), _] = self.ranges;
        (next == next_end).then_some((start, end - start))
    }

    /// The nodes passing the atom, ascending, by whichever of two plans
    /// reads fewer entries. Both write the `m` nodes that pass. Merging the
    /// `k` passing posting lists reads those `m` entries once per merge
    /// pass, `⌈log₂ k⌉` passes (none for a single list, nor on an ascending
    /// column, whose slices in code order already ascend); scanning reads
    /// all `|V|` codes.
    fn select(&self) -> Vec<NodeId> {
        let (column, m) = (self.column, self.postings);
        let k: usize = self
            .ranges
            .iter()
            .map(|&(start, end)| (end - start) as usize)
            .sum();
        let merge_passes = match column.ascending {
            true => 0,
            false => k.next_power_of_two().trailing_zeros() as usize,
        };
        if m * merge_passes < column.codes.len() {
            let mut selected = Vec::with_capacity(m);
            for &r in &self.ranges {
                selected.extend_from_slice(column.postings_of(r));
            }
            if merge_passes > 0 {
                // `k` ascending runs: the stable sort finds and merges them.
                selected.sort();
            }
            selected
        } else {
            match self.one_range() {
                Some((start, len)) => scan(&column.codes, m, |c| c.wrapping_sub(start) < len),
                None => scan(&column.codes, m, |c| holds_code(&self.ranges, c)),
            }
        }
    }

    /// Keeps the nodes of `selected` that pass the atom.
    fn retain(&self, selected: &mut Vec<NodeId>) {
        let codes = &self.column.codes;
        match self.one_range() {
            Some((start, len)) => retain(selected, codes, |c| c.wrapping_sub(start) < len),
            None => retain(selected, codes, |c| holds_code(&self.ranges, c)),
        }
    }
}

impl Column {
    /// One sort of the key's `(value, node)` entries yields the dictionary,
    /// each node's code, the offsets, the postings and the class starts.
    fn build(n: usize, mut entries: Vec<Entry<'_>>) -> Column {
        entries.sort_unstable();
        let mut column = Column {
            values: Vec::new(),
            classes: [0; 5],
            codes: vec![NONE; n],
            offsets: Vec::new(),
            postings: Vec::with_capacity(entries.len()),
            ascending: false,
        };
        let mut last = None;
        for (rank, v) in entries {
            if last != Some(rank) {
                last = Some(rank);
                column.offsets.push(column.postings.len() as u32);
                column.values.push(rank.value());
            }
            column.codes[v as usize] = (column.values.len() - 1) as u32;
            column.postings.push(NodeId::new(v));
        }
        column.offsets.push(column.postings.len() as u32);
        column.ascending = column.postings.windows(2).all(|pair| pair[0] < pair[1]);
        let values = &column.values;
        column.classes = std::array::from_fn(|class| {
            values.partition_point(|v| rank(v).class() < class as u8) as u32
        });
        column
    }

    /// The codes whose values satisfy `atom`.
    fn ranges(&self, atom: &AtomicFormula) -> CodeRanges {
        let c = rank(&atom.value);
        let mut ranges = [(0, 0); 3];
        if let Rank::Nan(_) = c {
            return ranges;
        }
        let values = &self.values;
        let class = c.class() as usize;
        let (start, end) = (
            self.classes[class] as usize,
            self.classes[class + 1] as usize,
        );
        let lo = start + values[start..end].partition_point(|v| rank(v).band_cmp(&c).is_lt());
        let hi = lo + values[lo..end].partition_point(|v| rank(v).band_cmp(&c).is_eq());
        let mut used = 0;
        let mut push = |start: usize, end: usize| {
            let (start, end) = (start as u32, end as u32);
            if start == end {
                return;
            }
            if used > 0 && ranges[used - 1].1 == start {
                ranges[used - 1].1 = end;
            } else {
                ranges[used] = (start, end);
                used += 1;
            }
        };
        if atom.op.holds(Ordering::Less) {
            push(start, lo);
        }
        for (code, value) in (lo..hi).zip(&values[lo..hi]) {
            if atom.op.eval(value, &atom.value) {
                push(code, code + 1);
            }
        }
        if atom.op.holds(Ordering::Greater) {
            push(hi, end);
        }
        ranges
    }

    /// The postings of the codes `start..end`: one slice, ascending per
    /// code.
    fn postings_of(&self, (start, end): (u32, u32)) -> &[NodeId] {
        &self.postings[self.offsets[start as usize] as usize..self.offsets[end as usize] as usize]
    }
}
