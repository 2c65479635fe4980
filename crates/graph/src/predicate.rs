//! Search-condition predicates carried by pattern nodes.
//!
//! In a pattern graph `P = (V_p, E_p, f_v, f_e)`, `f_v(u)` is a conjunction of
//! atomic formulas of the form `A op a`, where `A` is an attribute name, `a` a
//! constant, and `op ∈ {<, <=, =, !=, >, >=}` (Section 2.1). A data node `v`
//! satisfies the predicate iff every atom `A op a` is satisfied: `v.A` must be
//! *defined* and `v.A op a` must hold.

use crate::attributes::Attributes;
use crate::value::AttrValue;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator of an atomic formula.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates `lhs op rhs`, returning `false` when the two values are not
    /// comparable (different incompatible types, or NaN).
    pub fn eval(self, lhs: &AttrValue, rhs: &AttrValue) -> bool {
        match lhs.partial_cmp_value(rhs) {
            Some(ord) => self.holds(ord),
            // `!=` over incomparable values: the paper requires `v.A = a'` to
            // be *defined* and `a' op a` to hold; an incomparable pair cannot
            // witness any comparison, so every operator fails.
            None => false,
        }
    }

    /// Whether `lhs op rhs` holds when `lhs` compares `ord` to `rhs`.
    pub(crate) fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The textual form of the operator (`"<"`, `"<="`, ...).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An atomic formula `A op a`: attribute `A` compared against constant `a`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AtomicFormula {
    /// The attribute name `A`.
    pub attr: String,
    /// The comparison operator `op`.
    pub op: CmpOp,
    /// The constant `a`.
    pub value: AttrValue,
}

impl AtomicFormula {
    /// Creates the atom `attr op value`.
    pub fn new(attr: impl Into<String>, op: CmpOp, value: impl Into<AttrValue>) -> Self {
        AtomicFormula {
            attr: attr.into(),
            op,
            value: value.into(),
        }
    }

    /// Whether the attribute tuple `attrs` satisfies this atom.
    ///
    /// Per the paper: `v.A = a'` must be defined in `f_A(v)` and `a' op a`
    /// must hold. An undefined attribute therefore never satisfies an atom,
    /// including `!=` atoms.
    pub fn satisfied_by(&self, attrs: &Attributes) -> bool {
        match attrs.get(&self.attr) {
            Some(actual) => self.op.eval(actual, &self.value),
            None => false,
        }
    }
}

impl fmt::Display for AtomicFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.op, self.value)
    }
}

/// The predicate `f_v(u)` of a pattern node: a conjunction of atoms.
///
/// The empty conjunction is the always-true predicate (a wildcard node).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    atoms: Vec<AtomicFormula>,
}

impl Predicate {
    /// The always-true predicate (no atoms).
    pub fn any() -> Self {
        Predicate { atoms: Vec::new() }
    }

    /// A predicate made of a single atom.
    pub fn atom(attr: impl Into<String>, op: CmpOp, value: impl Into<AttrValue>) -> Self {
        Predicate {
            atoms: vec![AtomicFormula::new(attr, op, value)],
        }
    }

    /// `attr = value` — the most common predicate shape.
    pub fn label_eq(attr: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        Predicate::atom(attr, CmpOp::Eq, value)
    }

    /// The traditional "node label" predicate `label = value`, used when data
    /// nodes carry a single `label` attribute (plain graph simulation and the
    /// subgraph-isomorphism baselines).
    pub fn label(value: impl Into<AttrValue>) -> Self {
        Predicate::label_eq("label", value)
    }

    /// Adds the atom `attr op value` to the conjunction (builder style).
    pub fn and(mut self, attr: impl Into<String>, op: CmpOp, value: impl Into<AttrValue>) -> Self {
        // A predicate holds one to three atoms: grow by exactly one, not to
        // `Vec`'s first capacity of four (168 bytes per one-atom predicate).
        self.atoms.reserve_exact(1);
        self.atoms.push(AtomicFormula::new(attr, op, value));
        self
    }

    /// The atoms of the conjunction, in insertion order.
    pub fn atoms(&self) -> &[AtomicFormula] {
        &self.atoms
    }

    /// Number of atoms in the conjunction.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the predicate is the always-true wildcard.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Whether the attribute tuple `attrs` satisfies every atom.
    pub fn satisfied_by(&self, attrs: &Attributes) -> bool {
        self.atoms.iter().all(|a| a.satisfied_by(attrs))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{atom}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video(category: &str, rate: f64, age: i64) -> Attributes {
        Attributes::from([("category", AttrValue::from(category))])
            .with("rate", rate)
            .with("age", age)
    }

    #[test]
    fn cmp_op_eval_all_operators() {
        let three = AttrValue::Int(3);
        let five = AttrValue::Int(5);
        assert!(CmpOp::Lt.eval(&three, &five));
        assert!(CmpOp::Le.eval(&three, &three));
        assert!(CmpOp::Eq.eval(&three, &three));
        assert!(CmpOp::Ne.eval(&three, &five));
        assert!(CmpOp::Gt.eval(&five, &three));
        assert!(CmpOp::Ge.eval(&five, &five));
        assert!(!CmpOp::Lt.eval(&five, &three));
        assert!(!CmpOp::Eq.eval(&five, &three));
    }

    #[test]
    fn cmp_op_parsing_and_display() {
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let shown: Vec<String> = ops.iter().map(CmpOp::to_string).collect();
        assert_eq!(shown, ["<", "<=", "=", "!=", ">", ">="]);
    }

    #[test]
    fn incomparable_values_fail_every_operator() {
        let s = AttrValue::from("abc");
        let i = AttrValue::Int(1);
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(!op.eval(&s, &i), "{op} should fail on str vs int");
        }
    }

    #[test]
    fn atom_satisfaction_requires_defined_attribute() {
        let atom = AtomicFormula::new("rate", CmpOp::Gt, 4.0);
        assert!(atom.satisfied_by(&video("Music", 4.5, 100)));
        assert!(!atom.satisfied_by(&video("Music", 3.5, 100)));
        // `rate` undefined -> not satisfied, even for !=.
        let no_rate = Attributes::from([("category", "Music")]);
        assert!(!atom.satisfied_by(&no_rate));
        let ne = AtomicFormula::new("rate", CmpOp::Ne, 4.0);
        assert!(!ne.satisfied_by(&no_rate));
    }

    #[test]
    fn conjunction_semantics() {
        let p = Predicate::label_eq("category", "Music").and("rate", CmpOp::Gt, 3.0);
        assert!(p.satisfied_by(&video("Music", 4.5, 10)));
        assert!(!p.satisfied_by(&video("Music", 2.0, 10)));
        assert!(!p.satisfied_by(&video("Comedy", 4.5, 10)));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn wildcard_predicate_matches_everything() {
        let p = Predicate::any();
        assert!(p.is_empty());
        assert!(p.satisfied_by(&Attributes::new()));
        assert!(p.satisfied_by(&video("X", 0.0, 0)));
    }

    #[test]
    fn label_predicate() {
        let p = Predicate::label("AM");
        assert!(p.satisfied_by(&Attributes::labeled("AM")));
        assert!(!p.satisfied_by(&Attributes::labeled("FW")));
    }

    #[test]
    fn display_roundtrip() {
        let p = Predicate::label_eq("category", "Music").and("rate", CmpOp::Gt, 4.5);
        let text = p.to_string();
        assert_eq!(text, "category = \"Music\" && rate > 4.5");
        assert_eq!(Predicate::any().to_string(), "true");
    }

    #[test]
    fn ne_operator_in_predicate() {
        let p = Predicate::atom("category", CmpOp::Ne, "Music");
        assert!(p.satisfied_by(&video("Comedy", 1.0, 1)));
        assert!(!p.satisfied_by(&video("Music", 1.0, 1)));
    }
}
