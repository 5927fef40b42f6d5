//! The BDD node store and Boolean operations.

use crate::symbol::{Symbol, SymbolInterner};
use crate::table::{OpCache, UniqueTable, MANAGER_OP_CACHE, MANAGER_OP_CACHE_FIRST};
use std::collections::HashMap;
use std::fmt;

/// Index of a Boolean variable inside a [`BddManager`].
///
/// Variables are ordered by creation; the ordering is also the BDD variable
/// order.  In `record`, instruction-word bits are registered first (so they
/// sit at the top of every diagram) followed by mode-register bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// A handle to a BDD node owned by some [`BddManager`].
///
/// Handles are plain indices: they are `Copy`, cheap to store in the many
/// thousands of RT templates produced by instruction-set extraction, and two
/// handles from the same manager represent the same Boolean function if and
/// only if they are equal (canonicity of ROBDDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true function.
    pub const TRUE: Bdd = Bdd(1);

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub(crate) var: VarId,
    pub(crate) lo: Bdd,
    pub(crate) hi: Bdd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OpKey {
    And(Bdd, Bdd),
    Or(Bdd, Bdd),
    Xor(Bdd, Bdd),
    Not(Bdd),
}

/// Owner of all BDD nodes, the unique table and the operation caches.
///
/// All operations that may create nodes take `&mut self`; handles returned by
/// one manager must not be used with another (doing so yields wrong answers,
/// not undefined behaviour).
///
/// # Example
///
/// ```
/// use record_bdd::BddManager;
/// let mut m = BddManager::new();
/// let x = m.var("x");
/// let y = m.var("y");
/// let f = m.or(x, y);
/// assert!(m.is_sat(f));
/// assert_eq!(m.sat_count(f), 3); // 3 of the 4 assignments satisfy x|y
/// ```
#[derive(Debug, Clone)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    pub(crate) cache: OpCache,
    pub(crate) interner: SymbolInterner,
}

/// A point-in-time snapshot of the kernel's machine-independent work
/// counters.  Counters only grow, so the cost of a region of work is
/// `after.delta(&before)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddCounters {
    /// Live internal nodes (excluding terminals).
    pub nodes: u64,
    /// Op-cache lookups answered from the cache.
    pub op_hits: u64,
    /// Op-cache lookups that had to recompute.
    pub op_misses: u64,
    /// Probe steps taken across all unique-table lookups.
    pub unique_probes: u64,
    /// Unique-table lookups performed.
    pub unique_lookups: u64,
}

impl BddCounters {
    /// Counter growth since `earlier` (saturating, so a snapshot from a
    /// different manager cannot underflow).
    pub fn delta(&self, earlier: &BddCounters) -> BddCounters {
        BddCounters {
            nodes: self.nodes.saturating_sub(earlier.nodes),
            op_hits: self.op_hits.saturating_sub(earlier.op_hits),
            op_misses: self.op_misses.saturating_sub(earlier.op_misses),
            unique_probes: self.unique_probes.saturating_sub(earlier.unique_probes),
            unique_lookups: self.unique_lookups.saturating_sub(earlier.unique_lookups),
        }
    }

    /// Fraction of op-cache lookups answered from the cache.
    pub fn op_cache_hit_rate(&self) -> f64 {
        let total = self.op_hits + self.op_misses;
        if total == 0 {
            0.0
        } else {
            self.op_hits as f64 / total as f64
        }
    }

    /// Mean unique-table probe-chain length (1.0 = every lookup hit its
    /// home slot).
    pub fn unique_avg_probe_len(&self) -> f64 {
        if self.unique_lookups == 0 {
            0.0
        } else {
            self.unique_probes as f64 / self.unique_lookups as f64
        }
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager containing only the two terminal nodes.
    ///
    /// Its op cache starts small and grows with the work; the cache is
    /// lossy, so its size affects only speed, never results — a property
    /// the test suite pins.
    pub fn new() -> Self {
        // Slots 0 and 1 are the terminals; their `Node` payloads are dummies
        // that are never looked at (every accessor checks for terminals
        // first), they only keep indices aligned.
        let dummy = Node {
            var: VarId(u32::MAX),
            lo: Bdd::FALSE,
            hi: Bdd::FALSE,
        };
        BddManager {
            nodes: vec![dummy, dummy],
            unique: UniqueTable::default(),
            cache: OpCache::new(MANAGER_OP_CACHE_FIRST, MANAGER_OP_CACHE),
            interner: SymbolInterner::new(),
        }
    }

    /// Snapshot of all kernel counters at this instant.
    pub fn counters(&self) -> BddCounters {
        let (op_hits, op_misses) = self.cache.counters();
        let (unique_probes, unique_lookups) = self.unique.probe_counters();
        BddCounters {
            nodes: self.node_count() as u64,
            op_hits,
            op_misses,
            unique_probes,
            unique_lookups,
        }
    }

    /// Number of live (hash-consed) internal nodes, excluding terminals.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 2
    }

    /// Number of registered variables.
    pub fn var_count(&self) -> usize {
        self.interner.len()
    }

    /// Returns the function of a single variable, registering `name` on
    /// first use.  Calling `var` twice with the same name returns the same
    /// function.
    pub fn var(&mut self, name: &str) -> Bdd {
        let id = self.var_id(name);
        self.literal(id, true)
    }

    /// Registers (or looks up) a variable by name and returns its id.
    ///
    /// Variables are registered in interning order, so the returned id's
    /// index equals the name's [`Symbol`] index.
    pub fn var_id(&mut self, name: &str) -> VarId {
        VarId(self.interner.intern(name).0)
    }

    /// Name of a registered variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this manager.
    pub fn var_name(&self, id: VarId) -> &str {
        self.interner.resolve(Symbol(id.0))
    }

    /// The positive (`phase = true`) or negative literal of `id`.
    pub fn literal(&mut self, id: VarId, phase: bool) -> Bdd {
        assert!(
            (id.0 as usize) < self.interner.len(),
            "literal of unregistered variable {id:?}"
        );
        if phase {
            self.mk(id, Bdd::FALSE, Bdd::TRUE)
        } else {
            self.mk(id, Bdd::TRUE, Bdd::FALSE)
        }
    }

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Is `f` the constant-false function (i.e. unsatisfiable)?
    pub fn is_false(&self, f: Bdd) -> bool {
        f == Bdd::FALSE
    }

    /// Is `f` the constant-true function (i.e. a tautology)?
    pub fn is_true(&self, f: Bdd) -> bool {
        f == Bdd::TRUE
    }

    /// Is `f` satisfiable?
    pub fn is_sat(&self, f: Bdd) -> bool {
        f != Bdd::FALSE
    }

    fn mk(&mut self, var: VarId, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(b) = self.unique.get(&node, &self.nodes) {
            return b;
        }
        let b = Bdd(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(b, &self.nodes);
        b
    }

    /// Conjunction `a && b`.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        Apply::and_rec(self, a, b)
    }

    /// Disjunction `a || b`.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        Apply::or_rec(self, a, b)
    }

    /// Exclusive or `a ^ b`.
    pub fn xor(&mut self, a: Bdd, b: Bdd) -> Bdd {
        Apply::xor_rec(self, a, b)
    }

    /// Negation `!a`.
    pub fn not(&mut self, a: Bdd) -> Bdd {
        Apply::not_rec(self, a)
    }

    /// Logical equivalence `a <-> b`.
    pub fn iff(&mut self, a: Bdd, b: Bdd) -> Bdd {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// If-then-else `c ? t : e`.
    pub fn ite(&mut self, c: Bdd, t: Bdd, e: Bdd) -> Bdd {
        let ct = self.and(c, t);
        let nc = self.not(c);
        let ce = self.and(nc, e);
        self.or(ct, ce)
    }

    /// Restricts `f` by fixing `var` to `value` (Shannon cofactor).
    pub fn restrict(&mut self, f: Bdd, var: VarId, value: bool) -> Bdd {
        if f == Bdd::FALSE || f == Bdd::TRUE {
            return f;
        }
        let n = self.nodes[f.index()];
        if n.var > var {
            // `var` does not occur in `f` (ordering!).
            return f;
        }
        if n.var == var {
            return if value { n.hi } else { n.lo };
        }
        let lo = self.restrict(n.lo, var, value);
        let hi = self.restrict(n.hi, var, value);
        self.mk(n.var, lo, hi)
    }

    /// Existential quantification of `var` in `f`.
    pub fn exists(&mut self, f: Bdd, var: VarId) -> Bdd {
        let f0 = self.restrict(f, var, false);
        let f1 = self.restrict(f, var, true);
        self.or(f0, f1)
    }

    /// Evaluates `f` under a total assignment (`assignment[i]` is the value
    /// of variable `i`; missing variables default to `false`).
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f;
        loop {
            if cur == Bdd::FALSE {
                return false;
            }
            if cur == Bdd::TRUE {
                return true;
            }
            let n = self.nodes[cur.index()];
            let v = assignment.get(n.var.0 as usize).copied().unwrap_or(false);
            cur = if v { n.hi } else { n.lo };
        }
    }

    /// Number of satisfying assignments of `f` over all registered
    /// variables.
    pub fn sat_count(&self, f: Bdd) -> u128 {
        let nvars = self.interner.len() as u32;
        let mut memo: HashMap<Bdd, u128> = HashMap::new();
        self.sat_count_rec(f, 0, nvars, &mut memo)
    }

    fn sat_count_rec(&self, f: Bdd, from: u32, nvars: u32, memo: &mut HashMap<Bdd, u128>) -> u128 {
        if f == Bdd::FALSE {
            return 0;
        }
        if f == Bdd::TRUE {
            return 1u128 << (nvars - from);
        }
        let n = self.nodes[f.index()];
        let key = f;
        let below = if let Some(&c) = memo.get(&key) {
            c
        } else {
            let lo = self.sat_count_rec(n.lo, n.var.0 + 1, nvars, memo);
            let hi = self.sat_count_rec(n.hi, n.var.0 + 1, nvars, memo);
            let c = lo + hi;
            memo.insert(key, c);
            c
        };
        // Account for the skipped variables between `from` and the top var.
        below << (n.var.0 - from)
    }

    /// The set of variables `f` depends on, in ascending order.
    pub fn support(&self, f: Bdd) -> Vec<VarId> {
        let mut seen = std::collections::BTreeSet::new();
        let mut visited = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(b) = stack.pop() {
            if b == Bdd::FALSE || b == Bdd::TRUE || !visited.insert(b) {
                continue;
            }
            let n = self.nodes[b.index()];
            seen.insert(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        seen.into_iter().collect()
    }

    /// Returns one satisfying partial assignment of `f` (variables not
    /// mentioned may take any value), or `None` if `f` is unsatisfiable.
    pub fn one_sat(&self, f: Bdd) -> Option<Vec<(VarId, bool)>> {
        if f == Bdd::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while cur != Bdd::TRUE {
            let n = self.nodes[cur.index()];
            if n.hi != Bdd::FALSE {
                path.push((n.var, true));
                cur = n.hi;
            } else {
                path.push((n.var, false));
                cur = n.lo;
            }
        }
        Some(path)
    }

    /// Renders `f` as a sum-of-products string using variable names, mainly
    /// for diagnostics and golden tests.  The constant functions render as
    /// `"0"` and `"1"`.
    pub fn to_cubes(&self, f: Bdd) -> String {
        if f == Bdd::FALSE {
            return "0".to_owned();
        }
        if f == Bdd::TRUE {
            return "1".to_owned();
        }
        let mut cubes = Vec::new();
        let mut lits: Vec<(VarId, bool)> = Vec::new();
        self.cubes_rec(f, &mut lits, &mut cubes);
        cubes.join(" | ")
    }

    fn cubes_rec(&self, f: Bdd, lits: &mut Vec<(VarId, bool)>, out: &mut Vec<String>) {
        if f == Bdd::FALSE {
            return;
        }
        if f == Bdd::TRUE {
            let cube = lits
                .iter()
                .map(|&(v, ph)| {
                    if ph {
                        self.var_name(v).to_owned()
                    } else {
                        format!("!{}", self.var_name(v))
                    }
                })
                .collect::<Vec<_>>()
                .join("&");
            out.push(if cube.is_empty() { "1".into() } else { cube });
            return;
        }
        let n = self.nodes[f.index()];
        lits.push((n.var, false));
        self.cubes_rec(n.lo, lits, out);
        lits.pop();
        lits.push((n.var, true));
        self.cubes_rec(n.hi, lits, out);
        lits.pop();
    }

    /// Builds the condition "the bit-vector `bits` equals `value`", i.e.
    /// the conjunction over all bit positions of `bits[i] <-> value_i`.
    ///
    /// `bits[0]` is the least significant bit.  The algorithm lives in the
    /// [`BddOps`] default so manager and overlay can never diverge.
    pub fn vector_equals(&mut self, bits: &[Bdd], value: u64) -> Bdd {
        BddOps::vector_equals(self, bits, value)
    }

    /// Freezes this manager into an immutable, shareable node store.
    ///
    /// Every handle handed out so far stays valid against the frozen store;
    /// new nodes can only be created through per-session
    /// [`BddOverlay`](crate::BddOverlay)s layered on top of it.  The op
    /// cache's lines are freed (sessions look only in their own cache);
    /// its hit and miss counters stay, so [`crate::FrozenBdd::counters`]
    /// still reports this manager's work.
    pub fn freeze(mut self) -> crate::FrozenBdd {
        self.cache.release();
        crate::FrozenBdd::new(self)
    }
}

/// The shared apply recursion behind `and`/`or`/`xor`/`not`.
///
/// [`BddManager`] and [`crate::BddOverlay`] differ only in where nodes and
/// cache entries are *stored* (one flat store vs frozen-base-plus-local
/// pages); the reduction algorithm itself must be byte-identical in both,
/// or an overlay would stop producing the canonical handles its
/// unique-table lookups assume.  It therefore exists exactly once, as
/// default methods over the four storage primitives.
pub(crate) trait Apply {
    /// The node behind a non-terminal handle.
    fn node_of(&self, f: Bdd) -> Node;
    /// Operation-cache lookup (`&mut` so implementations can keep hit-rate
    /// counters in plain fields; every caller holds `&mut` anyway).
    fn cached(&mut self, key: OpKey) -> Option<Bdd>;
    /// Operation-cache insert.
    fn cache_insert(&mut self, key: OpKey, r: Bdd);
    /// Hash-consing node constructor.
    fn mk_node(&mut self, var: VarId, lo: Bdd, hi: Bdd) -> Bdd;

    /// Shannon cofactors of `f` with respect to `var` (assumes `var` is
    /// at or above the top variable of `f`).
    fn cofactors_of(&self, f: Bdd, var: VarId) -> (Bdd, Bdd) {
        if f == Bdd::FALSE || f == Bdd::TRUE {
            return (f, f);
        }
        let n = self.node_of(f);
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    fn and_rec(&mut self, a: Bdd, b: Bdd) -> Bdd {
        // Terminal cases.
        if a == Bdd::FALSE || b == Bdd::FALSE {
            return Bdd::FALSE;
        }
        if a == Bdd::TRUE {
            return b;
        }
        if b == Bdd::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(r) = self.cached(OpKey::And(a, b)) {
            return r;
        }
        let v = self.node_of(a).var.min(self.node_of(b).var);
        let (a0, a1) = self.cofactors_of(a, v);
        let (b0, b1) = self.cofactors_of(b, v);
        let lo = self.and_rec(a0, b0);
        let hi = self.and_rec(a1, b1);
        let r = self.mk_node(v, lo, hi);
        self.cache_insert(OpKey::And(a, b), r);
        r
    }

    fn or_rec(&mut self, a: Bdd, b: Bdd) -> Bdd {
        if a == Bdd::TRUE || b == Bdd::TRUE {
            return Bdd::TRUE;
        }
        if a == Bdd::FALSE {
            return b;
        }
        if b == Bdd::FALSE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(r) = self.cached(OpKey::Or(a, b)) {
            return r;
        }
        let v = self.node_of(a).var.min(self.node_of(b).var);
        let (a0, a1) = self.cofactors_of(a, v);
        let (b0, b1) = self.cofactors_of(b, v);
        let lo = self.or_rec(a0, b0);
        let hi = self.or_rec(a1, b1);
        let r = self.mk_node(v, lo, hi);
        self.cache_insert(OpKey::Or(a, b), r);
        r
    }

    fn xor_rec(&mut self, a: Bdd, b: Bdd) -> Bdd {
        if a == b {
            return Bdd::FALSE;
        }
        if a == Bdd::FALSE {
            return b;
        }
        if b == Bdd::FALSE {
            return a;
        }
        if a == Bdd::TRUE {
            return self.not_rec(b);
        }
        if b == Bdd::TRUE {
            return self.not_rec(a);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(r) = self.cached(OpKey::Xor(a, b)) {
            return r;
        }
        let v = self.node_of(a).var.min(self.node_of(b).var);
        let (a0, a1) = self.cofactors_of(a, v);
        let (b0, b1) = self.cofactors_of(b, v);
        let lo = self.xor_rec(a0, b0);
        let hi = self.xor_rec(a1, b1);
        let r = self.mk_node(v, lo, hi);
        self.cache_insert(OpKey::Xor(a, b), r);
        r
    }

    fn not_rec(&mut self, a: Bdd) -> Bdd {
        if a == Bdd::FALSE {
            return Bdd::TRUE;
        }
        if a == Bdd::TRUE {
            return Bdd::FALSE;
        }
        if let Some(r) = self.cached(OpKey::Not(a)) {
            return r;
        }
        let n = self.node_of(a);
        let lo = self.not_rec(n.lo);
        let hi = self.not_rec(n.hi);
        let r = self.mk_node(n.var, lo, hi);
        self.cache_insert(OpKey::Not(a), r);
        r
    }
}

impl Apply for BddManager {
    fn node_of(&self, f: Bdd) -> Node {
        self.nodes[f.index()]
    }

    fn cached(&mut self, key: OpKey) -> Option<Bdd> {
        self.cache.lookup(key)
    }

    fn cache_insert(&mut self, key: OpKey, r: Bdd) {
        self.cache.insert(key, r);
    }

    fn mk_node(&mut self, var: VarId, lo: Bdd, hi: Bdd) -> Bdd {
        self.mk(var, lo, hi)
    }
}

/// The node-creating Boolean operations shared by [`BddManager`] (the
/// retarget-time owner) and [`BddOverlay`](crate::BddOverlay) (the
/// per-compilation scratch arena).
///
/// Code that only *combines* conditions — emission folding instruction
/// fields into execution conditions, compaction conjoining word conditions
/// — is generic over this trait, so it runs unchanged against a mutable
/// manager (unit tests, retargeting) or a session overlay (compilation
/// against a frozen target).
pub trait BddOps {
    /// The function of a single variable, registering `name` on first use.
    fn var(&mut self, name: &str) -> Bdd;
    /// Registers (or looks up) a variable by name.
    fn var_id(&mut self, name: &str) -> VarId;
    /// The positive or negative literal of `id`.
    fn literal(&mut self, id: VarId, phase: bool) -> Bdd;
    /// Conjunction `a && b`.
    fn and(&mut self, a: Bdd, b: Bdd) -> Bdd;
    /// Disjunction `a || b`.
    fn or(&mut self, a: Bdd, b: Bdd) -> Bdd;
    /// Exclusive or `a ^ b`.
    fn xor(&mut self, a: Bdd, b: Bdd) -> Bdd;
    /// Negation `!a`.
    fn not(&mut self, a: Bdd) -> Bdd;

    /// Is `f` satisfiable?
    fn is_sat(&self, f: Bdd) -> bool {
        f != Bdd::FALSE
    }

    /// Is `f` the constant-false function?
    fn is_false(&self, f: Bdd) -> bool {
        f == Bdd::FALSE
    }

    /// Is `f` the constant-true function?
    fn is_true(&self, f: Bdd) -> bool {
        f == Bdd::TRUE
    }

    /// The condition "bit-vector `bits` equals `value`" (`bits[0]` is the
    /// least significant bit).
    fn vector_equals(&mut self, bits: &[Bdd], value: u64) -> Bdd {
        let mut acc = Bdd::TRUE;
        for (i, &b) in bits.iter().enumerate() {
            let want = (value >> i) & 1 == 1;
            let lit = if want { b } else { self.not(b) };
            acc = self.and(acc, lit);
            if acc == Bdd::FALSE {
                break;
            }
        }
        acc
    }
}

impl BddOps for BddManager {
    fn var(&mut self, name: &str) -> Bdd {
        BddManager::var(self, name)
    }

    fn var_id(&mut self, name: &str) -> VarId {
        BddManager::var_id(self, name)
    }

    fn literal(&mut self, id: VarId, phase: bool) -> Bdd {
        BddManager::literal(self, id, phase)
    }

    fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        BddManager::and(self, a, b)
    }

    fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        BddManager::or(self, a, b)
    }

    fn xor(&mut self, a: Bdd, b: Bdd) -> Bdd {
        BddManager::xor(self, a, b)
    }

    fn not(&mut self, a: Bdd) -> Bdd {
        BddManager::not(self, a)
    }
}

impl fmt::Display for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bdd::FALSE => write!(f, "bdd(false)"),
            Bdd::TRUE => write!(f, "bdd(true)"),
            other => write!(f, "bdd(#{})", other.0),
        }
    }
}
