//! The fast-path storage primitives of the BDD kernel.
//!
//! Profiles of retargeting and compilation bottom out in two lookups per
//! `apply` step: "does this (var, lo, hi) triple already have a node?"
//! (the unique table) and "did we combine these operands before?" (the
//! operation cache).  The std `HashMap` answers both correctly but pays
//! SipHash, tombstone bookkeeping and branchy probing for DoS resistance
//! this workload does not need — every key is produced by the kernel
//! itself.  This module replaces them with:
//!
//! * [`UniqueTable`] — an insert-only open-addressing table over
//!   power-of-two capacities with FxHash-style multiplicative hashing and
//!   linear probing.  Entries are indices into one dense node page (a
//!   frozen store's or an overlay's `Vec<Node>`), which holds the
//!   payloads, so the table is four bytes per slot and a lookup is a
//!   multiply, a mask and (almost always) one probe.
//!   Nothing is ever deleted (hash-consed nodes are immortal), so there
//!   are no tombstones and probe chains never degrade.
//! * [`OpCache`] — a direct-mapped *lossy* cache for `apply` results.  A
//!   new result simply overwrites whatever hashed to the same slot.
//!   Losing an entry can only cause recomputation, and recomputation is
//!   hash-consed, so results are node-for-node identical to an unbounded
//!   cache — only the hit rate changes (there is a unit test pinning
//!   exactly that).  A retarget-time manager's cache starts at 256 lines
//!   and doubles with its inserts up to [`MANAGER_OP_CACHE`], so a small
//!   model pays for a few KiB instead of the cap; a session overlay's
//!   stays at a fixed [`OVERLAY_OP_CACHE`], so the compile hot path never
//!   rehashes.  [`crate::BddManager::freeze`] drops the manager's cache:
//!   a [`crate::FrozenBdd`] has none, since sessions look only in their
//!   own, and a frozen cache would be memory every cached target holds
//!   for nothing.  Every line carries the epoch it was written in, and a
//!   line of another epoch reads as vacant, so clearing the cache (each
//!   pooled session's reset) advances the epoch instead of writing its
//!   lines; they are rewritten only when the one-byte epoch wraps.
//!
//! Both tables start unallocated so a [`crate::BddOverlay`] costs nothing
//! to open until its session actually creates nodes.

use crate::manager::{Node, OpKey};
use crate::Bdd;

/// FxHash multiplier (the golden-ratio-derived constant rustc's FxHasher
/// uses); one multiply mixes well enough for kernel-generated keys.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fxmix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(FX_SEED)
}

/// Hash of a node triple.
#[inline]
fn hash_node(n: &Node) -> u64 {
    fxmix(
        fxmix(fxmix(0, u64::from(n.var.0)), u64::from(n.lo.0)),
        u64::from(n.hi.0),
    )
}

/// Hash of an interned string (FxHash over bytes).
#[inline]
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h = 0u64;
    let mut bytes = s.as_bytes();
    while bytes.len() >= 8 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[..8]);
        h = fxmix(h, u64::from_le_bytes(w));
        bytes = &bytes[8..];
    }
    let mut tail = 0u64;
    for &b in bytes {
        tail = (tail << 8) | u64::from(b);
    }
    fxmix(h, tail ^ (s.len() as u64) << 56)
}

const EMPTY: u32 = u32::MAX;

/// Insert-only open-addressing unique table mapping `Node` triples to
/// their indices in one node page.
///
/// Slots hold page indices; the caller passes the page to every
/// operation so keys can be compared without duplicating the payload.
#[derive(Debug, Clone, Default)]
pub(crate) struct UniqueTable {
    /// Power-of-two slot array of page indices (`EMPTY` = vacant).
    slots: Vec<u32>,
    len: usize,
    /// Probe steps taken across all lookups (first slot touched counts as
    /// one), for the machine-independent perf counters.
    probes: u64,
    lookups: u64,
}

impl UniqueTable {
    /// An empty table (what `Default` gives, usable in a `static`).
    pub(crate) const fn new() -> UniqueTable {
        UniqueTable {
            slots: Vec::new(),
            len: 0,
            probes: 0,
            lookups: 0,
        }
    }

    /// `(probes, lookups)` counters.
    pub(crate) fn probe_counters(&self) -> (u64, u64) {
        (self.probes, self.lookups)
    }

    /// Looks up the page index of `node` in `nodes`, counting the
    /// lookup and its probes.
    pub(crate) fn get(&mut self, node: &Node, nodes: &[Node]) -> Option<u32> {
        self.lookups += 1;
        let (found, probes) = self.find(node, nodes);
        self.probes += probes;
        found
    }

    /// Read-only lookup (used against frozen tables, which cannot count).
    #[inline]
    pub(crate) fn probe(&self, node: &Node, nodes: &[Node]) -> Option<u32> {
        self.find(node, nodes).0
    }

    #[inline]
    fn find(&self, node: &Node, nodes: &[Node]) -> (Option<u32>, u64) {
        if self.slots.is_empty() {
            return (None, 1);
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash_node(node) as usize) & mask;
        let mut probes = 0;
        loop {
            probes += 1;
            let slot = self.slots[i];
            if slot == EMPTY {
                return (None, probes);
            }
            if nodes[slot as usize] == *node {
                return (Some(slot), probes);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `nodes[index]` (which must not be present yet).
    pub(crate) fn insert(&mut self, index: u32, nodes: &[Node]) {
        // Grow at 3/4 load so probe chains stay short; insert-only tables
        // never shrink.
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(nodes);
        }
        let mask = self.slots.len() - 1;
        let node = &nodes[index as usize];
        let mut i = (hash_node(node) as usize) & mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = index;
        self.len += 1;
    }

    /// Empties the table while keeping its slot allocation, so a pooled
    /// session re-fills warm pages instead of re-growing from scratch.
    /// The probe counters are cumulative across the table's lifetime and
    /// deliberately survive (per-compile reporting works on deltas).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    fn grow(&mut self, nodes: &[Node]) {
        let cap = (self.slots.len() * 2).max(64);
        let mask = cap - 1;
        let mut slots = vec![EMPTY; cap];
        for &h in self.slots.iter().filter(|&&h| h != EMPTY) {
            let mut i = (hash_node(&nodes[h as usize]) as usize) & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = h;
        }
        self.slots = slots;
    }
}

/// One direct-mapped cache line: an [`OpKey`] flattened to `(tag, a, b)`
/// plus the cached result, stamped with the [`OpCache`] epoch that wrote
/// it (0: never written).  The stamp takes a byte the line padded anyway,
/// so a line stays 16 bytes.
#[derive(Debug, Clone, Copy)]
struct OpEntry {
    epoch: u8,
    tag: u8,
    a: u32,
    b: u32,
    result: u32,
}

const _: () = assert!(std::mem::size_of::<OpEntry>() == 16);

impl OpKey {
    /// Flattens to `(tag, a, b)`; unary keys use `b = 0`.
    #[inline]
    fn flatten(self) -> (u8, u32, u32) {
        match self {
            OpKey::And(a, b) => (0, a.0, b.0),
            OpKey::Or(a, b) => (1, a.0, b.0),
            OpKey::Xor(a, b) => (2, a.0, b.0),
            OpKey::Not(a) => (3, a.0, 0),
        }
    }
}

/// Direct-mapped lossy cache of `apply` results whose line array grows
/// with the work it serves.
///
/// The lines are allocated at `first` on the first insert.  Whenever the
/// inserts since then reach half the lines, the next insert doubles the
/// array (up to `cap`) and re-places the live entries, so below the cap
/// there are two to four lines per insert.  Each old line maps to one of
/// two new ones, so growing loses nothing.  A cache built with
/// `first == cap` never grows.
///
/// Only lines stamped with the current epoch hold entries:
/// [`OpCache::clear`] moves to the next epoch, which vacates every line
/// without touching it.
#[derive(Debug, Clone)]
pub(crate) struct OpCache {
    /// Power-of-two line array; empty until the first insert.
    lines: Vec<OpEntry>,
    first: usize,
    cap: usize,
    /// The stamp of live lines, 1 to 255.
    epoch: u8,
    /// Inserts since `lines` was first allocated (or last cleared).
    inserts: usize,
    hits: u64,
    misses: u64,
}

const VACANT_LINE: OpEntry = OpEntry {
    epoch: 0,
    tag: 0,
    a: 0,
    b: 0,
    result: 0,
};

/// A retarget-time manager's first size: 256 lines x 16 bytes = 4 KiB.
pub(crate) const MANAGER_OP_CACHE_FIRST: usize = 1 << 8;
/// A retarget-time manager's cap: 64Ki lines x 16 bytes = 1 MiB, reached
/// after 16Ki inserts.  The Table 3 models insert 15 (`bass_boost`) to
/// about 4,000 (`ref`).
pub(crate) const MANAGER_OP_CACHE: usize = 1 << 16;
/// A session overlay's fixed size: 4Ki lines keep a batch of concurrent
/// sessions cheap.  Growing from 256 lines instead added misses on
/// manocpu's kernels and slowed their compiles.
pub(crate) const OVERLAY_OP_CACHE: usize = 1 << 12;

/// Defaults to overlay sizing — the only context that needs a
/// `Default` (recycled [`crate::OverlayPages`]) is the session overlay.
impl Default for OpCache {
    fn default() -> OpCache {
        OpCache::new(OVERLAY_OP_CACHE, OVERLAY_OP_CACHE)
    }
}

impl OpCache {
    /// An empty cache that allocates `first` lines on its first insert
    /// and grows to at most `cap` (both rounded up to powers of two).
    pub(crate) fn new(first: usize, cap: usize) -> OpCache {
        let first = first.next_power_of_two().max(2);
        OpCache {
            lines: Vec::new(),
            first,
            cap: cap.next_power_of_two().max(first),
            epoch: 1,
            inserts: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// `(hits, misses)` counters.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of allocated lines.
    #[cfg(test)]
    pub(crate) fn lines(&self) -> usize {
        self.lines.len()
    }

    #[inline]
    fn index(&self, tag: u8, a: u32, b: u32) -> usize {
        let h = fxmix(fxmix(fxmix(0, u64::from(tag)), u64::from(a)), u64::from(b));
        (h as usize) & (self.lines.len() - 1)
    }

    /// Looks `key` up, counting the hit or miss.
    #[inline]
    pub(crate) fn lookup(&mut self, key: OpKey) -> Option<Bdd> {
        if !self.lines.is_empty() {
            let (tag, a, b) = key.flatten();
            let e = self.lines[self.index(tag, a, b)];
            if e.epoch == self.epoch && e.tag == tag && e.a == a && e.b == b {
                self.hits += 1;
                return Some(Bdd(e.result));
            }
        }
        self.misses += 1;
        None
    }

    /// Vacates every line while keeping the allocation (hit/miss counters
    /// are lifetime-cumulative and survive, like the unique table's).
    ///
    /// Advancing the epoch is the whole clear: every line written so far
    /// carries an older stamp and now misses, exactly as a vacant line
    /// does.  Only when the epoch wraps are the lines rewritten, once
    /// every 255 clears, so no line of a past turn can match a reused
    /// stamp.
    pub(crate) fn clear(&mut self) {
        if self.epoch == u8::MAX {
            self.lines.fill(VACANT_LINE);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.inserts = 0;
    }

    /// Stores `result`, overwriting whatever occupied the slot (lossy).
    #[inline]
    pub(crate) fn insert(&mut self, key: OpKey, result: Bdd) {
        if self.lines.is_empty() {
            self.lines = vec![VACANT_LINE; self.first];
        } else if self.inserts * 2 >= self.lines.len() && self.lines.len() < self.cap {
            self.grow();
        }
        self.inserts += 1;
        let (tag, a, b) = key.flatten();
        let i = self.index(tag, a, b);
        self.lines[i] = OpEntry {
            epoch: self.epoch,
            tag,
            a,
            b,
            result: result.0,
        };
    }

    /// Doubles the line array and re-places every entry of the current
    /// epoch.
    #[cold]
    fn grow(&mut self) {
        let doubled = vec![VACANT_LINE; self.lines.len() * 2];
        let old = std::mem::replace(&mut self.lines, doubled);
        for e in old.into_iter().filter(|e| e.epoch == self.epoch) {
            let i = self.index(e.tag, e.a, e.b);
            self.lines[i] = e;
        }
    }
}
