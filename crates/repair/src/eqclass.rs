//! Equivalence classes over cells (union-find), the core data structure of
//! the repair algorithm of \[8\]: cells that must end up equal (because a
//! variable CFD links them) are merged into one class; a class may be
//! *pinned* to a constant when a constant CFD forces its value.

use std::collections::HashMap;

use minidb::{RowId, Value};

/// A cell coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Row id.
    pub row: RowId,
    /// Column index.
    pub col: usize,
}

impl CellRef {
    /// Construct a cell reference.
    pub fn new(row: RowId, col: usize) -> CellRef {
        CellRef { row, col }
    }
}

/// Union-find over cells with per-class pin state.
#[derive(Debug, Clone, Default)]
pub struct EqClasses {
    ids: HashMap<CellRef, usize>,
    parent: Vec<usize>,
    rank: Vec<u8>,
    pin: Vec<Option<Value>>,
}

/// Result of a merge or pin attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum PinOutcome {
    /// Applied cleanly.
    Ok,
    /// The class was already pinned to a conflicting constant; the existing
    /// pin is kept and returned.
    Conflict(Value),
}

impl EqClasses {
    /// Empty structure.
    pub fn new() -> EqClasses {
        EqClasses::default()
    }

    fn id_of(&mut self, cell: CellRef) -> usize {
        if let Some(&i) = self.ids.get(&cell) {
            return i;
        }
        let i = self.parent.len();
        self.ids.insert(cell, i);
        self.parent.push(i);
        self.rank.push(0);
        self.pin.push(None);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]]; // path halving
            i = self.parent[i];
        }
        i
    }

    /// Representative of the cell's class (cells start in singletons).
    pub fn root(&mut self, cell: CellRef) -> usize {
        let i = self.id_of(cell);
        self.find(i)
    }

    /// Are two cells in the same class?
    pub fn same(&mut self, a: CellRef, b: CellRef) -> bool {
        self.root(a) == self.root(b)
    }

    /// Merge the classes of `a` and `b`. If both are pinned to different
    /// constants, the merge is **refused** and `Conflict` returned (the
    /// caller must resolve by changing an LHS cell instead).
    pub fn merge(&mut self, a: CellRef, b: CellRef) -> PinOutcome {
        let ra = self.root(a);
        let rb = self.root(b);
        if ra == rb {
            return PinOutcome::Ok;
        }
        match (&self.pin[ra], &self.pin[rb]) {
            (Some(x), Some(y)) if !x.strong_eq(y) => {
                return PinOutcome::Conflict(x.clone());
            }
            _ => {}
        }
        let pin = self.pin[ra].clone().or_else(|| self.pin[rb].clone());
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.pin[hi] = pin;
        PinOutcome::Ok
    }

    /// Pin a cell's class to a constant.
    pub fn pin(&mut self, cell: CellRef, value: Value) -> PinOutcome {
        let r = self.root(cell);
        match &self.pin[r] {
            Some(x) if !x.strong_eq(&value) => PinOutcome::Conflict(x.clone()),
            _ => {
                self.pin[r] = Some(value);
                PinOutcome::Ok
            }
        }
    }

    /// The pinned constant of the cell's class, if any.
    pub fn pinned(&mut self, cell: CellRef) -> Option<Value> {
        let r = self.root(cell);
        self.pin[r].clone()
    }

    /// Overwrite the class pin unconditionally. Used when a previously
    /// recorded pin has gone stale (the rule that forced it no longer
    /// applies after other repairs changed the tuple's LHS).
    pub fn repin(&mut self, cell: CellRef, value: Value) {
        let r = self.root(cell);
        self.pin[r] = Some(value);
    }

    /// Detach `cell` into a fresh singleton class, leaving its old class
    /// (and that class's pin) untouched. An LHS break separates a tuple
    /// from its group, so equality links through the broken cell no longer
    /// hold — without detaching, pinning the sentinel would poison every
    /// cell that was ever merged with this one.
    pub fn detach(&mut self, cell: CellRef) {
        let i = self.parent.len();
        self.parent.push(i);
        self.rank.push(0);
        self.pin.push(None);
        self.ids.insert(cell, i);
    }

    /// Number of registered cells.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// No cells registered yet?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// All registered cells in the same class as `cell` (including itself).
    pub fn members(&mut self, cell: CellRef) -> Vec<CellRef> {
        let root = self.root(cell);
        let cells: Vec<CellRef> = self.ids.keys().copied().collect();
        let mut out: Vec<CellRef> = cells
            .into_iter()
            .filter(|c| self.root(*c) == root)
            .collect();
        out.sort();
        out
    }

    /// Group all registered cells by class root.
    pub fn classes(&mut self) -> HashMap<usize, Vec<CellRef>> {
        let cells: Vec<CellRef> = self.ids.keys().copied().collect();
        let mut out: HashMap<usize, Vec<CellRef>> = HashMap::new();
        for c in cells {
            let r = self.root(c);
            out.entry(r).or_default().push(c);
        }
        for v in out.values_mut() {
            v.sort();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(r: u64, col: usize) -> CellRef {
        CellRef::new(RowId(r), col)
    }

    #[test]
    fn singletons_until_merged() {
        let mut eq = EqClasses::new();
        assert!(!eq.same(c(0, 1), c(0, 2)));
        assert_eq!(eq.merge(c(0, 1), c(0, 2)), PinOutcome::Ok);
        assert!(eq.same(c(0, 1), c(0, 2)));
    }

    #[test]
    fn pins_propagate_through_merges() {
        let mut eq = EqClasses::new();
        eq.pin(c(1, 0), Value::str("UK"));
        eq.merge(c(1, 0), c(2, 0));
        assert_eq!(eq.pinned(c(2, 0)), Some(Value::str("UK")));
    }

    #[test]
    fn conflicting_pins_refuse_merge() {
        let mut eq = EqClasses::new();
        eq.pin(c(1, 0), Value::str("UK"));
        eq.pin(c(2, 0), Value::str("US"));
        let out = eq.merge(c(1, 0), c(2, 0));
        assert!(matches!(out, PinOutcome::Conflict(_)));
        assert!(
            !eq.same(c(1, 0), c(2, 0)),
            "conflicting merge must not happen"
        );
    }

    #[test]
    fn pin_conflict_on_same_class() {
        let mut eq = EqClasses::new();
        eq.pin(c(1, 0), Value::str("UK"));
        assert_eq!(eq.pin(c(1, 0), Value::str("UK")), PinOutcome::Ok);
        assert!(matches!(
            eq.pin(c(1, 0), Value::str("US")),
            PinOutcome::Conflict(_)
        ));
    }

    #[test]
    fn classes_enumerates_groups() {
        let mut eq = EqClasses::new();
        eq.merge(c(0, 0), c(1, 0));
        eq.merge(c(1, 0), c(2, 0));
        eq.root(c(9, 9)); // singleton
        let classes = eq.classes();
        assert_eq!(classes.len(), 2);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = classes.values().map(Vec::len).collect();
            s.sort();
            s
        };
        assert_eq!(sizes, vec![1, 3]);
    }

    #[test]
    fn transitive_merges_keep_single_root() {
        let mut eq = EqClasses::new();
        for i in 0..50 {
            eq.merge(c(i, 0), c(i + 1, 0));
        }
        let r = eq.root(c(0, 0));
        for i in 0..=50 {
            assert_eq!(eq.root(c(i, 0)), r);
        }
    }
}
