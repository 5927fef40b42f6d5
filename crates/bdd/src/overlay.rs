//! The one node store: a frozen base and the overlays that extend it.
//!
//! Retargeting builds every execution condition once, in a
//! [`BddManager`](crate::BddManager).  Compilation then *combines* those
//! conditions over and over — emission conjoins instruction-field
//! constraints, compaction conjoins word conditions — and each
//! conjunction may create new nodes.
//! If the manager stayed shared, every compile would have to lock or own
//! it, serialising a workload that is conceptually read-only.
//!
//! [`FrozenBdd`] is the immutable snapshot: the manager's node page,
//! unique table and variable names, shareable across threads
//! (`Send + Sync`).  It holds no operation cache: the manager's is
//! dropped at freeze, and each overlay caches only its own results.
//! [`BddOverlay`] is the mutable arena layered on top: new nodes land in
//! overlay-local pages addressed *above* the frozen range, so every
//! frozen handle keeps its meaning and two sessions never observe each
//! other.  Because the overlay consults the frozen unique table before
//! allocating, a session that recreates a function already known to the
//! base gets the canonical frozen handle back — canonicity (equal handles
//! ⇔ equal functions) holds across the boundary for any *one* overlay
//! combined with its base.  A [`BddManager`](crate::BddManager) is the
//! same type over the empty base, so construction, apply, evaluation and
//! every query exist once.

use crate::manager::{Node, OpKey};
use crate::symbol::{Symbol, SymbolInterner};
use crate::table::{OpCache, UniqueTable};
use crate::{Bdd, BddCounters, VarId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Handles 0 and 1 are the terminals; node pages start after them.
const TERMINALS: u32 = 2;

/// An immutable, `Send + Sync` snapshot of a
/// [`BddManager`](crate::BddManager).
///
/// Produced by [`BddManager::freeze`](crate::BddManager::freeze); all
/// handles created before the freeze remain valid.  Queries and
/// node-creating operations run on an overlay from
/// [`FrozenBdd::overlay`], which opens without allocating.
///
/// It owns the manager's nodes, unique table, variable names and
/// counters, and no op cache: what a `Target` retains of its retarget's
/// BDD work is the nodes and their index.
#[derive(Debug, Clone)]
pub struct FrozenBdd {
    /// Frozen node page; handle = [`TERMINALS`] + index.
    pub(crate) nodes: Vec<Node>,
    /// Unique table over `nodes`.
    pub(crate) unique: UniqueTable,
    pub(crate) interner: SymbolInterner,
    /// The manager's counters at freeze.
    pub(crate) counters: BddCounters,
}

impl FrozenBdd {
    /// Opens a session-local overlay arena on top of this store.
    ///
    /// Opening is allocation-free: the local node page, unique table,
    /// op-cache and name interner all materialise on first use, so
    /// spinning up a batch of sessions costs nothing until they create
    /// nodes.  The overlay's op cache is its own fixed 4Ki lines; it
    /// never consults the base, which keeps none.
    pub fn overlay(&self) -> BddOverlay<'_> {
        self.overlay_from(OverlayPages::default())
    }

    /// Re-opens an overlay from pages returned by
    /// [`BddOverlay::into_pages`], keeping their allocations warm.
    ///
    /// The pages carry no handles, so they may come from an overlay of a
    /// *different* frozen base — only the capacity is reused.
    pub fn overlay_from(&self, pages: OverlayPages) -> BddOverlay<'_> {
        BddOverlay {
            base: self,
            first_local: TERMINALS + self.nodes.len() as u32,
            nodes: pages.nodes,
            unique: pages.unique,
            cache: pages.cache,
            interner: pages.interner,
        }
    }

    /// Fraction of op-cache lookups the retarget-time manager answered
    /// from cache before freezing.
    pub fn op_cache_hit_rate(&self) -> f64 {
        self.counters.op_cache_hit_rate()
    }

    /// Counter snapshot taken at freeze time (frozen counters no longer
    /// move; overlays account their own work separately).
    pub fn counters(&self) -> BddCounters {
        self.counters
    }

    /// Number of frozen internal nodes, excluding terminals.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of registered variables.
    pub fn var_count(&self) -> usize {
        self.interner.len()
    }

    /// Name of a registered variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by the frozen manager.
    pub fn var_name(&self, id: VarId) -> &str {
        self.interner.resolve(Symbol(id.0))
    }

    /// Looks up a variable id by name, if registered before the freeze.
    pub fn var_id_of(&self, name: &str) -> Option<VarId> {
        self.interner.lookup(name).map(|s| VarId(s.0))
    }
}

/// The lifetime-free storage of a reset [`BddOverlay`]: emptied pages
/// whose allocations stay warm for the next session.
///
/// Produced by [`BddOverlay::into_pages`] and turned back into an overlay
/// by [`FrozenBdd::overlay_from`].  Holding pages instead of overlays is
/// what lets a session pool own recycled arenas without borrowing the
/// frozen base.
#[derive(Debug, Default)]
pub struct OverlayPages {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    pub(crate) cache: OpCache,
    pub(crate) interner: SymbolInterner,
}

/// A mutable node store over a shared [`FrozenBdd`]: a per-session
/// arena, or over the empty base a [`BddManager`](crate::BddManager).
///
/// New nodes, operation-cache entries and late-registered variables live in
/// overlay-local pages; the frozen base is only ever read.  Handles
/// returned by an overlay are meaningful to that overlay (and, when they
/// fall in the frozen range, to the base and every other overlay of it).
///
/// # Example
///
/// ```
/// use record_bdd::BddManager;
///
/// let mut m = BddManager::new();
/// let x = m.var("x");
/// let y = m.var("y");
/// let frozen = m.freeze();
///
/// let mut session = frozen.overlay();
/// let f = session.and(x, y);
/// assert!(session.is_sat(f));
/// // A second session starts from the same base, unaffected.
/// let mut other = frozen.overlay();
/// assert_eq!(other.and(x, y), f); // deterministic handles
/// ```
#[derive(Debug, Clone)]
pub struct BddOverlay<'a> {
    pub(crate) base: &'a FrozenBdd,
    /// The handle of local node 0: [`TERMINALS`] + the frozen length.
    first_local: u32,
    /// Local node page; handle = `first_local` + index.
    pub(crate) nodes: Vec<Node>,
    /// Unique table over the local page.
    pub(crate) unique: UniqueTable,
    /// Local lossy op-cache (results may reference both frozen and local
    /// handles, which is safe because only this overlay consults it).
    pub(crate) cache: OpCache,
    /// Local variable names; global id = frozen count + local.
    pub(crate) interner: SymbolInterner,
}

impl<'a> BddOverlay<'a> {
    /// The frozen base this overlay extends.
    pub fn base(&self) -> &'a FrozenBdd {
        self.base
    }

    /// Nodes created by this overlay (excluding the frozen base).
    pub fn local_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total nodes visible to the overlay, excluding terminals.
    pub fn node_count(&self) -> usize {
        self.base.node_count() + self.nodes.len()
    }

    /// Total registered variables (frozen + local).
    pub fn var_count(&self) -> usize {
        self.base.var_count() + self.interner.len()
    }

    /// Snapshot of this overlay's own counters: nodes it allocated and
    /// lookups it performed, excluding everything frozen in the base.
    pub fn counters(&self) -> BddCounters {
        let (op_hits, op_misses) = self.cache.counters();
        let (unique_probes, unique_lookups) = self.unique.probe_counters();
        BddCounters {
            nodes: self.nodes.len() as u64,
            op_hits,
            op_misses,
            unique_probes,
            unique_lookups,
        }
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
    /// A name the base knows keeps its frozen id; a new one goes above
    /// the frozen range, in registration order.
    pub fn var_id(&mut self, name: &str) -> VarId {
        if let Some(id) = self.base.var_id_of(name) {
            return id;
        }
        let sym = self.interner.intern(name);
        VarId(self.base.var_count() as u32 + sym.0)
    }

    /// Name of a registered variable (frozen or local).
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to neither.
    pub fn var_name(&self, id: VarId) -> &str {
        let frozen = self.base.var_count() as u32;
        if id.0 < frozen {
            self.base.var_name(id)
        } else {
            self.interner.resolve(Symbol(id.0 - frozen))
        }
    }

    /// The positive (`phase = true`) or negative literal of `id`.
    pub fn literal(&mut self, id: VarId, phase: bool) -> Bdd {
        assert!(
            (id.0 as usize) < self.var_count(),
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

    /// The node behind a non-terminal handle: the base's page holds the
    /// frozen range, this overlay's page the rest.
    fn node(&self, f: Bdd) -> Node {
        match f.0.checked_sub(self.first_local) {
            Some(i) => self.nodes[i as usize],
            None => self.base.nodes[f.index() - TERMINALS as usize],
        }
    }

    /// The hash-consing constructor.  A function the frozen base already
    /// owns resolves to the frozen handle; only a new one lands in the
    /// local page.
    pub(crate) fn mk(&mut self, var: VarId, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(i) = self.base.unique.probe(&node, &self.base.nodes) {
            return Bdd(TERMINALS + i);
        }
        if let Some(i) = self.unique.get(&node, &self.nodes) {
            return Bdd(self.first_local + i);
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(node);
        self.unique.insert(i, &self.nodes);
        Bdd(self.first_local + i)
    }

    /// The top variable of two non-terminal operands and each operand's
    /// Shannon cofactors with respect to it.
    fn split(&self, a: Bdd, b: Bdd) -> (VarId, (Bdd, Bdd), (Bdd, Bdd)) {
        let (na, nb) = (self.node(a), self.node(b));
        let v = na.var.min(nb.var);
        let cofactors = |f: Bdd, n: Node| if n.var == v { (n.lo, n.hi) } else { (f, f) };
        (v, cofactors(a, na), cofactors(b, nb))
    }

    /// Conjunction `a && b`.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
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
        if let Some(r) = self.cache.lookup(OpKey::And(a, b)) {
            return r;
        }
        let (v, (a0, a1), (b0, b1)) = self.split(a, b);
        let lo = self.and(a0, b0);
        let hi = self.and(a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache.insert(OpKey::And(a, b), r);
        r
    }

    /// Disjunction `a || b`.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
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
        if let Some(r) = self.cache.lookup(OpKey::Or(a, b)) {
            return r;
        }
        let (v, (a0, a1), (b0, b1)) = self.split(a, b);
        let lo = self.or(a0, b0);
        let hi = self.or(a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache.insert(OpKey::Or(a, b), r);
        r
    }

    /// Exclusive or `a ^ b`.
    pub fn xor(&mut self, a: Bdd, b: Bdd) -> Bdd {
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
            return self.not(b);
        }
        if b == Bdd::TRUE {
            return self.not(a);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(r) = self.cache.lookup(OpKey::Xor(a, b)) {
            return r;
        }
        let (v, (a0, a1), (b0, b1)) = self.split(a, b);
        let lo = self.xor(a0, b0);
        let hi = self.xor(a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache.insert(OpKey::Xor(a, b), r);
        r
    }

    /// Negation `!a`.
    pub fn not(&mut self, a: Bdd) -> Bdd {
        if a == Bdd::FALSE {
            return Bdd::TRUE;
        }
        if a == Bdd::TRUE {
            return Bdd::FALSE;
        }
        if let Some(r) = self.cache.lookup(OpKey::Not(a)) {
            return r;
        }
        let n = self.node(a);
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.cache.insert(OpKey::Not(a), r);
        r
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
        let n = self.node(f);
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

    /// Builds the condition "the bit-vector `bits` equals `value`", i.e.
    /// the conjunction over all bit positions of `bits[i] <-> value_i`.
    ///
    /// `bits[0]` is the least significant bit.  Each bit may be any
    /// function, as the signals instruction-set extraction traces are;
    /// the build conjoins one bit at a time into the condition so far,
    /// in apply steps quadratic in the width.  When the bits are plain
    /// variables, [`BddOverlay::cube`] builds the same function with one
    /// node per variable.
    pub fn vector_equals(&mut self, bits: &[Bdd], value: u64) -> Bdd {
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

    /// The cube "variable `vars[i]` holds bit `i` of `value`" for every
    /// `i`: the function [`BddOverlay::vector_equals`] builds over the
    /// positive literals of `vars`, and so, in one store, the same
    /// handle.  Bits of `value` at or above `vars.len()` are ignored.
    ///
    /// `vars` must be strictly ascending in the variable order (checked
    /// in debug builds).  The cube is built from the last variable, the
    /// one nearest the terminals, up: one node per variable, with no
    /// apply step and no op-cache traffic.  A cube the frozen base holds
    /// comes back as frozen handles, with no local node made.
    pub fn cube(&mut self, vars: &[VarId], value: u64) -> Bdd {
        debug_assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "cube variables must ascend: {vars:?}"
        );
        let mut acc = Bdd::TRUE;
        for (i, &v) in vars.iter().enumerate().rev() {
            acc = if (value >> i) & 1 == 1 {
                self.mk(v, Bdd::FALSE, acc)
            } else {
                self.mk(v, acc, Bdd::FALSE)
            };
        }
        acc
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
            let n = self.node(cur);
            let v = assignment.get(n.var.0 as usize).copied().unwrap_or(false);
            cur = if v { n.hi } else { n.lo };
        }
    }

    /// Number of satisfying assignments of `f` over all registered
    /// variables.
    pub fn sat_count(&self, f: Bdd) -> u128 {
        let nvars = self.var_count() as u32;
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
        let n = self.node(f);
        let below = if let Some(&c) = memo.get(&f) {
            c
        } else {
            let lo = self.sat_count_rec(n.lo, n.var.0 + 1, nvars, memo);
            let hi = self.sat_count_rec(n.hi, n.var.0 + 1, nvars, memo);
            let c = lo + hi;
            memo.insert(f, c);
            c
        };
        // Account for the skipped variables between `from` and the top var.
        below << (n.var.0 - from)
    }

    /// The set of variables `f` depends on, in ascending order.
    pub fn support(&self, f: Bdd) -> Vec<VarId> {
        let mut seen = BTreeSet::new();
        let mut visited = HashSet::new();
        let mut stack = vec![f];
        while let Some(b) = stack.pop() {
            if b == Bdd::FALSE || b == Bdd::TRUE || !visited.insert(b) {
                continue;
            }
            let n = self.node(b);
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
            let n = self.node(cur);
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
        let n = self.node(f);
        lits.push((n.var, false));
        self.cubes_rec(n.lo, lits, out);
        lits.pop();
        lits.push((n.var, true));
        self.cubes_rec(n.hi, lits, out);
        lits.pop();
    }

    /// Rolls the overlay back to the frozen boundary: every local node,
    /// cache line and late-registered variable is dropped, but the pages
    /// keep their allocations so the next compilation on this arena skips
    /// the warm-up.  Frozen handles remain valid; handles above the
    /// boundary must not be used again.
    ///
    /// Because hash-consing is deterministic and the cleared tables read
    /// as fresh ones (the op cache moves to a new epoch, in which every
    /// old line misses), a reset overlay assigns *identical* handles to
    /// an identical operation sequence with the same op-cache hits and
    /// misses — pooled sessions are observationally fresh (the
    /// cumulative perf counters are the only thing that persists).  The
    /// reset writes no op-cache line.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.unique.clear();
        self.cache.clear();
        self.interner.clear();
    }

    /// Resets the overlay and releases its pages for reuse against any
    /// frozen base (see [`OverlayPages`]).
    pub fn into_pages(mut self) -> OverlayPages {
        self.reset();
        OverlayPages {
            nodes: self.nodes,
            unique: self.unique,
            cache: self.cache,
            interner: self.interner,
        }
    }
}
