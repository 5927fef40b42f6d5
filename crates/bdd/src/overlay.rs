//! The frozen node store and per-session overlay arenas.
//!
//! Retargeting builds every execution condition once, in a mutable
//! [`BddManager`].  Compilation then *combines* those conditions over and
//! over — emission conjoins instruction-field constraints, compaction
//! conjoins word conditions — and each conjunction may create new nodes.
//! If the manager stayed shared, every compile would have to lock or own
//! it, serialising a workload that is conceptually read-only.
//!
//! [`FrozenBdd`] is the immutable snapshot: the complete node store and
//! unique table of the retarget-time manager, shareable across threads
//! (`Send + Sync`).  It holds no operation cache: the manager's lines are
//! freed at freeze, and each overlay caches only its own results.
//! [`BddOverlay`] is the per-compilation scratch arena layered on top: new
//! nodes land in session-local pages addressed *above* the frozen range,
//! so every frozen handle keeps its meaning and two sessions never observe
//! each other.  Because the overlay consults the
//! frozen unique table before allocating, a session that recreates a
//! function already known to the base gets the canonical frozen handle
//! back — canonicity (equal handles ⇔ equal functions) holds across the
//! boundary for any *one* overlay combined with its base.

use crate::manager::{Apply, BddManager, BddOps, Node, OpKey};
use crate::symbol::SymbolInterner;
use crate::table::{OpCache, UniqueTable};
use crate::{Bdd, VarId};

/// An immutable, `Send + Sync` snapshot of a [`BddManager`].
///
/// Produced by [`BddManager::freeze`]; all handles created before the
/// freeze remain valid.  Read-only queries (satisfiability, evaluation,
/// support, rendering) are available directly; node-creating operations
/// require a per-session [`BddOverlay`] from [`FrozenBdd::overlay`].
///
/// It keeps the manager's nodes, unique table, variable names and
/// counters, but no op-cache lines: what a `Target` retains of its
/// retarget's BDD work is the nodes and their index.
#[derive(Debug, Clone)]
pub struct FrozenBdd {
    pub(crate) inner: BddManager,
}

impl FrozenBdd {
    pub(crate) fn new(inner: BddManager) -> FrozenBdd {
        FrozenBdd { inner }
    }

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
            nodes: pages.nodes,
            unique: pages.unique,
            cache: pages.cache,
            interner: pages.interner,
        }
    }

    /// Fraction of op-cache lookups the retarget-time manager answered
    /// from cache before freezing.
    pub fn op_cache_hit_rate(&self) -> f64 {
        self.counters().op_cache_hit_rate()
    }

    /// Counter snapshot taken at freeze time (frozen counters no longer
    /// move; overlays account their own work separately).
    pub fn counters(&self) -> crate::BddCounters {
        self.inner.counters()
    }

    /// Number of frozen internal nodes, excluding terminals.
    pub fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    /// Number of registered variables.
    pub fn var_count(&self) -> usize {
        self.inner.var_count()
    }

    /// Name of a registered variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by the frozen manager.
    pub fn var_name(&self, id: VarId) -> &str {
        self.inner.var_name(id)
    }

    /// Looks up a variable id by name, if registered before the freeze.
    pub fn var_id_of(&self, name: &str) -> Option<VarId> {
        self.inner.interner.lookup(name).map(|s| VarId(s.0))
    }

    /// Is `f` the constant-false function (i.e. unsatisfiable)?
    pub fn is_false(&self, f: Bdd) -> bool {
        self.inner.is_false(f)
    }

    /// Is `f` the constant-true function (i.e. a tautology)?
    pub fn is_true(&self, f: Bdd) -> bool {
        self.inner.is_true(f)
    }

    /// Is `f` satisfiable?
    pub fn is_sat(&self, f: Bdd) -> bool {
        self.inner.is_sat(f)
    }

    /// Evaluates `f` under a total assignment (missing variables default
    /// to `false`).
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        self.inner.eval(f, assignment)
    }

    /// Number of satisfying assignments of `f` over all registered
    /// variables.
    pub fn sat_count(&self, f: Bdd) -> u128 {
        self.inner.sat_count(f)
    }

    /// The set of variables `f` depends on, in ascending order.
    pub fn support(&self, f: Bdd) -> Vec<VarId> {
        self.inner.support(f)
    }

    /// One satisfying partial assignment of `f`, or `None` if
    /// unsatisfiable.
    pub fn one_sat(&self, f: Bdd) -> Option<Vec<(VarId, bool)>> {
        self.inner.one_sat(f)
    }

    /// Renders `f` as a sum-of-products string using variable names.
    pub fn to_cubes(&self, f: Bdd) -> String {
        self.inner.to_cubes(f)
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
    nodes: Vec<Node>,
    unique: UniqueTable,
    cache: OpCache,
    interner: SymbolInterner,
}

/// A per-session mutable arena over a shared [`FrozenBdd`].
///
/// New nodes, operation-cache entries and late-registered variables live in
/// session-local pages; the frozen base is only ever read.  Handles
/// returned by an overlay are meaningful to that overlay (and, when they
/// fall in the frozen range, to the base and every other overlay of it).
///
/// # Example
///
/// ```
/// use record_bdd::{BddManager, BddOps};
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
#[derive(Debug)]
pub struct BddOverlay<'a> {
    base: &'a FrozenBdd,
    /// Session-local node page; global index = frozen length + local index.
    nodes: Vec<Node>,
    /// Unique table over the local page; slots hold *local* indices.
    unique: UniqueTable,
    /// Session-local lossy op-cache (results may reference both frozen and
    /// local handles, which is safe because they are only consulted by
    /// this session).
    cache: OpCache,
    /// Session-local variable names; global id = frozen count + local.
    interner: SymbolInterner,
}

impl<'a> BddOverlay<'a> {
    /// The frozen base this overlay extends.
    pub fn base(&self) -> &'a FrozenBdd {
        self.base
    }

    /// Nodes created by this session (excluding the frozen base).
    pub fn local_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total nodes visible to the session, excluding terminals.
    pub fn node_count(&self) -> usize {
        self.base.node_count() + self.nodes.len()
    }

    /// Total registered variables (frozen + session-local).
    pub fn var_count(&self) -> usize {
        self.base.var_count() + self.interner.len()
    }

    /// Snapshot of this session's own counters: nodes it allocated and
    /// lookups it performed, excluding everything frozen in the base.
    pub fn counters(&self) -> crate::BddCounters {
        let (op_hits, op_misses) = self.cache.counters();
        let (unique_probes, unique_lookups) = self.unique.probe_counters();
        crate::BddCounters {
            nodes: self.local_node_count() as u64,
            op_hits,
            op_misses,
            unique_probes,
            unique_lookups,
        }
    }

    /// Name of a registered variable (frozen or session-local).
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to neither.
    pub fn var_name(&self, id: VarId) -> &str {
        let frozen = self.base.var_count() as u32;
        if id.0 < frozen {
            self.base.var_name(id)
        } else {
            self.interner.resolve(crate::Symbol(id.0 - frozen))
        }
    }

    fn frozen_len(&self) -> usize {
        self.base.inner.nodes.len()
    }

    fn node(&self, f: Bdd) -> Node {
        let i = f.index();
        let frozen = self.frozen_len();
        if i < frozen {
            self.base.inner.nodes[i]
        } else {
            self.nodes[i - frozen]
        }
    }

    /// Rolls the overlay back to the frozen boundary: every session-local
    /// node, cache line and late-registered variable is dropped, but the
    /// pages keep their allocations so the next compilation on this arena
    /// skips the warm-up.  Frozen handles remain valid; handles above the
    /// boundary must not be used again.
    ///
    /// Because hash-consing is deterministic and the cleared tables are
    /// contents-equal to fresh ones, a reset overlay assigns *identical*
    /// handles to an identical operation sequence — pooled sessions are
    /// observationally fresh (the cumulative perf counters are the only
    /// thing that persists).
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

    /// Evaluates `f` under a total assignment (missing variables default
    /// to `false`).
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
}

/// Storage primitives for the shared apply recursion: reads dispatch to
/// the frozen base or the local page by index; writes always go local.
impl Apply for BddOverlay<'_> {
    fn node_of(&self, f: Bdd) -> Node {
        self.node(f)
    }

    /// Cache lookup in the session's own cache only: the frozen base
    /// keeps no op-cache lines.
    fn cached(&mut self, key: OpKey) -> Option<Bdd> {
        self.cache.lookup(key)
    }

    fn cache_insert(&mut self, key: OpKey, r: Bdd) {
        self.cache.insert(key, r);
    }

    /// Hash-consing with cross-boundary canonicity: a function the frozen
    /// base already owns must resolve to the frozen handle.
    fn mk_node(&mut self, var: VarId, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(b) = self.base.inner.unique.probe(&node, &self.base.inner.nodes) {
            return b;
        }
        // The local table stores *local* page indices; translate to and
        // from global handles at the boundary.
        let frozen = self.frozen_len() as u32;
        if let Some(local) = self.unique.get(&node, &self.nodes) {
            return Bdd(frozen + local.0);
        }
        let local = Bdd(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(local, &self.nodes);
        Bdd(frozen + local.0)
    }
}

impl BddOps for BddOverlay<'_> {
    fn var(&mut self, name: &str) -> Bdd {
        let id = BddOps::var_id(self, name);
        BddOps::literal(self, id, true)
    }

    fn var_id(&mut self, name: &str) -> VarId {
        if let Some(id) = self.base.var_id_of(name) {
            return id;
        }
        let sym = self.interner.intern(name);
        VarId(self.base.var_count() as u32 + sym.0)
    }

    fn literal(&mut self, id: VarId, phase: bool) -> Bdd {
        assert!(
            (id.0 as usize) < self.base.var_count() + self.interner.len(),
            "literal of unregistered variable {id:?}"
        );
        if phase {
            self.mk_node(id, Bdd::FALSE, Bdd::TRUE)
        } else {
            self.mk_node(id, Bdd::TRUE, Bdd::FALSE)
        }
    }

    fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.and_rec(a, b)
    }

    fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.or_rec(a, b)
    }

    fn xor(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.xor_rec(a, b)
    }

    fn not(&mut self, a: Bdd) -> Bdd {
        self.not_rec(a)
    }
}
