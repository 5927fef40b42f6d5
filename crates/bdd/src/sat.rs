//! Assignment utilities shared by instruction encoding and compaction.

use crate::{Bdd, BddOverlay, VarId};

/// A partial assignment of Boolean variables, used to materialise a binary
/// partial instruction from an RT template's execution condition.
///
/// # Example
///
/// ```
/// use record_bdd::{BddManager, Assignment};
/// let mut m = BddManager::new();
/// let a = m.var("a");
/// let b = m.var("b");
/// let f = m.and(a, b);
/// let asg = Assignment::satisfying(&m, f).expect("f is satisfiable");
/// assert_eq!(asg.get(m.var_id("a")), Some(true));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    values: Vec<Option<bool>>,
}

impl Assignment {
    /// An empty assignment (all variables unconstrained).
    pub fn new() -> Self {
        Assignment { values: Vec::new() }
    }

    /// Extracts one satisfying assignment of `f`, or `None` if `f` is
    /// unsatisfiable.
    pub fn satisfying(manager: &BddOverlay<'_>, f: Bdd) -> Option<Assignment> {
        let lits = manager.one_sat(f)?;
        let mut asg = Assignment::new();
        for (var, phase) in lits {
            asg.set(var, phase);
        }
        Some(asg)
    }

    /// Value of `var`, or `None` if unconstrained.
    pub fn get(&self, var: VarId) -> Option<bool> {
        self.values.get(var.0 as usize).copied().flatten()
    }

    /// Fixes `var` to `value`.
    pub fn set(&mut self, var: VarId, value: bool) {
        let idx = var.0 as usize;
        if self.values.len() <= idx {
            self.values.resize(idx + 1, None);
        }
        self.values[idx] = Some(value);
    }

    /// Number of constrained variables.
    pub fn constrained(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// Renders the assignment as an instruction-word bit pattern of `width`
    /// bits where unconstrained bits show as `x`.  Bit `width - 1` is
    /// leftmost.  Variables beyond `width` (mode bits) are ignored.
    pub fn to_bit_pattern(&self, width: usize) -> String {
        (0..width)
            .rev()
            .map(|i| match self.values.get(i).copied().flatten() {
                Some(true) => '1',
                Some(false) => '0',
                None => 'x',
            })
            .collect()
    }
}

impl FromIterator<(VarId, bool)> for Assignment {
    fn from_iter<I: IntoIterator<Item = (VarId, bool)>>(iter: I) -> Self {
        let mut asg = Assignment::new();
        for (v, ph) in iter {
            asg.set(v, ph);
        }
        asg
    }
}
