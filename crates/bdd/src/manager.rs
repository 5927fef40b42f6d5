//! BDD handles, work counters and the retarget-time manager.

use crate::overlay::{BddOverlay, OverlayPages};
use crate::symbol::SymbolInterner;
use crate::table::{OpCache, UniqueTable, MANAGER_OP_CACHE, MANAGER_OP_CACHE_FIRST};
use crate::FrozenBdd;
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

/// The retarget-time node store: an overlay on the empty base.
///
/// A manager is a [`BddOverlay`] whose frozen base holds only the two
/// terminals, so every node it makes is its own, numbered from handle 2
/// up.  It differs from a session overlay in one policy: its op cache
/// starts at 256 lines and doubles with its work, where a session's stays
/// at a fixed 4Ki.  All operations that may create nodes take
/// `&mut self`; handles returned by one manager must not be used with
/// another (doing so yields wrong answers, not undefined behaviour).
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
pub type BddManager = BddOverlay<'static>;

/// The base every manager extends: the two terminals, no variables.
static EMPTY: FrozenBdd = FrozenBdd {
    nodes: Vec::new(),
    unique: UniqueTable::new(),
    interner: SymbolInterner::new(),
    counters: BddCounters {
        nodes: 0,
        op_hits: 0,
        op_misses: 0,
        unique_probes: 0,
        unique_lookups: 0,
    },
};

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
        EMPTY.overlay_from(OverlayPages {
            cache: OpCache::new(MANAGER_OP_CACHE_FIRST, MANAGER_OP_CACHE),
            ..OverlayPages::default()
        })
    }

    /// Freezes this manager into an immutable, shareable node store.
    ///
    /// The manager's node page, unique table and variable names become
    /// the frozen store's, so every handle handed out so far stays valid
    /// against it; new nodes can only be created through per-session
    /// overlays layered on top of it.  The op cache is dropped (sessions
    /// look only in their own cache); its hit and miss counters stay, so
    /// [`FrozenBdd::counters`] still reports this manager's work.
    ///
    /// # Panics
    ///
    /// Panics if this overlay's base is not empty (only a manager's is).
    pub fn freeze(self) -> FrozenBdd {
        assert!(
            self.base.nodes.is_empty() && self.base.interner.is_empty(),
            "only an overlay on the empty base freezes"
        );
        FrozenBdd {
            counters: self.counters(),
            nodes: self.nodes,
            unique: self.unique,
            interner: self.interner,
        }
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
