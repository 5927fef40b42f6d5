//! The register pool: which storages can hold values between statements.
//!
//! Discovered per target from the elaborated netlist and the extracted RT
//! template base: a register (or register file) is allocatable when the
//! templates can actually *route* values through it — something writes it,
//! something reads it.  The allocator only deletes ops, so it needs no
//! spill or reload template of its own; emission finds those when it
//! needs them.

use record_codegen::Loc;
use record_netlist::{Netlist, StorageId, StorageKind};
use record_rtl::TemplateBase;

/// One allocatable register resource (a register, or a whole register file
/// whose cells are interchangeable).
#[derive(Debug, Clone)]
pub struct RegClass {
    /// The storage behind this class.
    pub storage: StorageId,
    /// Instance name (for diagnostics).
    pub name: String,
    /// Word width in bits.
    pub width: u16,
    /// Number of independently allocatable cells (1 for plain registers).
    pub cells: u64,
}

/// The set of register resources the allocator may place values in.
#[derive(Debug, Clone)]
pub struct RegisterPool {
    data_mem: StorageId,
    mem_width: u16,
    classes: Vec<RegClass>,
    /// The class of each storage, indexed by storage id.
    by_storage: Vec<Option<usize>>,
}

/// Indexes `classes` by storage id.
fn index_by_storage(classes: &[RegClass]) -> Vec<Option<usize>> {
    let len = classes.iter().map(|c| c.storage.0 as usize + 1).max();
    let mut by_storage = vec![None; len.unwrap_or(0)];
    for (i, c) in classes.iter().enumerate() {
        by_storage[c.storage.0 as usize] = Some(i);
    }
    by_storage
}

impl RegisterPool {
    /// A pool from explicit classes (tests and tools; production targets
    /// use [`RegisterPool::discover`]).
    pub fn new(data_mem: StorageId, mem_width: u16, classes: Vec<RegClass>) -> RegisterPool {
        let by_storage = index_by_storage(&classes);
        RegisterPool {
            data_mem,
            mem_width,
            classes,
            by_storage,
        }
    }

    /// Discovers allocatable registers of `netlist` reachable by `base`'s
    /// templates, with spills targeting `data_mem`.
    pub fn discover(netlist: &Netlist, base: &TemplateBase, data_mem: StorageId) -> RegisterPool {
        let mut classes = Vec::new();
        for s in netlist.storages() {
            if s.is_mode
                || s.is_pc
                || !matches!(s.kind, StorageKind::Register | StorageKind::RegFile)
            {
                continue;
            }
            let written = base.writing(s.id).next().is_some();
            let read = base
                .templates()
                .iter()
                .any(|t| t.src.reads().contains(&s.id));
            if !written || !read {
                continue;
            }
            classes.push(RegClass {
                storage: s.id,
                name: s.name.clone(),
                width: s.width,
                cells: if s.kind == StorageKind::RegFile {
                    s.size
                } else {
                    1
                },
            });
        }
        RegisterPool {
            data_mem,
            mem_width: netlist.storage(data_mem).width,
            by_storage: index_by_storage(&classes),
            classes,
        }
    }

    /// The data memory spills go to.
    pub fn data_mem(&self) -> StorageId {
        self.data_mem
    }

    /// Width of the data memory in bits.
    pub fn mem_width(&self) -> u16 {
        self.mem_width
    }

    /// All register classes.
    pub fn classes(&self) -> &[RegClass] {
        &self.classes
    }

    /// The class of a storage, if allocatable.
    pub fn class_of(&self, s: StorageId) -> Option<&RegClass> {
        let i = (*self.by_storage.get(s.0 as usize)?)?;
        Some(&self.classes[i])
    }

    /// Total number of allocatable cells.
    pub fn capacity(&self) -> u64 {
        self.classes.iter().map(|c| c.cells).sum()
    }

    /// Is `loc` a register resource of this pool?
    pub fn is_allocatable(&self, loc: &Loc) -> bool {
        match loc {
            Loc::Reg(s) | Loc::Rf(s, _) => self.class_of(*s).is_some(),
            _ => false,
        }
    }

    /// May a value stored from register `s` be considered an exact copy of
    /// the memory word?  True when no bits are truncated by the store.
    pub fn store_preserves_value(&self, s: StorageId) -> bool {
        self.class_of(s).is_some_and(|c| c.width <= self.mem_width)
    }
}

/// One tracked residency: a register currently holding the value of a
/// memory word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resident {
    /// The memory address whose value the register holds.
    pub addr: u64,
    /// Next op index reading that address, for Belady-style ranking.
    pub next_use: Option<usize>,
}

/// What [`Residency::insert`] displaced: one whole register, with every
/// association it held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// The register whose associations were dropped.
    pub loc: Loc,
    /// Every association it held, oldest first.
    pub residents: Vec<Resident>,
}

impl Evicted {
    /// Associations that still had a later read — each one forces a reload
    /// RT to stay in the output.
    pub fn live_count(&self) -> usize {
        self.residents
            .iter()
            .filter(|r| r.next_use.is_some())
            .count()
    }

    /// Was any association still profitable (a later read existed)?
    pub fn was_live(&self) -> bool {
        self.live_count() > 0
    }
}

/// The allocator's residency ledger: which registers hold which memory
/// words, bounded by the number of *distinct registers* tracked.  A
/// register may mirror *several* words at once (storing it to two
/// addresses makes all three locations equal — `x = a; y = a;` leaves the
/// accumulator equal to `a`, `x` and `y`), so entries are (register,
/// address) pairs — but only the register count is bounded: one register
/// fanning a value out to many addresses occupies one physical cell and
/// must never evict entries while other registers sit idle.
///
/// When a new register would exceed the capacity, the register whose
/// *nearest* next use is farthest in the future is evicted wholesale
/// (Belady's optimal replacement over registers, exact as long as the
/// caller refreshes `next_use` via [`Residency::refresh_next_uses`]
/// before inserting); registers with no remaining read go first, and ties
/// fall to the earliest-inserted register.
#[derive(Debug, Clone)]
pub struct Residency {
    capacity: usize,
    /// Insertion-ordered (determinism matters for reproducible eviction).
    entries: Vec<(Loc, Resident)>,
    /// Scratch for insertions, kept so that one allocates nothing: per
    /// tracked register in first-insertion order, the entry of its oldest
    /// association and its nearest next use.
    registers: Vec<(usize, Option<usize>)>,
}

impl Residency {
    /// An empty ledger tracking at most `capacity` distinct registers.
    pub fn with_capacity(capacity: usize) -> Residency {
        Residency {
            capacity: capacity.max(1),
            entries: Vec::new(),
            registers: Vec::new(),
        }
    }

    /// Number of live associations (may exceed the register capacity when
    /// registers fan out to several addresses).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct registers currently tracked — the quantity the
    /// capacity bounds.
    pub fn distinct_registers(&self) -> usize {
        self.entries
            .iter()
            .enumerate()
            .filter(|(j, (l, _))| !self.entries[..*j].iter().any(|(k, _)| k == l))
            .count()
    }

    /// Fills `registers`: one summary per tracked register, in
    /// first-insertion order.
    fn summarize_registers(&mut self) {
        self.registers.clear();
        for (j, (l, r)) in self.entries.iter().enumerate() {
            match self
                .registers
                .iter_mut()
                .find(|(first, _)| self.entries[*first].0 == *l)
            {
                Some((_, nearest)) => {
                    *nearest = match (*nearest, r.next_use) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    }
                }
                None => self.registers.push((j, r.next_use)),
            }
        }
    }

    /// Is the ledger empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The distinct-register capacity (associations per register are
    /// unbounded — see [`Residency::len`]).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The addresses register `loc` currently mirrors, oldest first.
    pub fn lookup<'a>(&'a self, loc: &'a Loc) -> impl Iterator<Item = &'a Resident> + 'a {
        self.entries
            .iter()
            .filter(move |(l, _)| l == loc)
            .map(|(_, r)| r)
    }

    /// Does `loc` hold the value of `addr`?
    pub fn holds(&self, loc: &Loc, addr: u64) -> bool {
        self.lookup(loc).any(|r| r.addr == addr)
    }

    /// All live associations, oldest first.
    pub fn residents(&self) -> impl Iterator<Item = &(Loc, Resident)> {
        self.entries.iter()
    }

    /// Recomputes every entry's `next_use` (eviction key) via `f`.  Call
    /// before an insertion that may overflow: `next_use` values recorded
    /// at insertion time go stale as the pass advances, and stale keys
    /// would make Belady eviction pick live entries over dead ones.
    pub fn refresh_next_uses(&mut self, f: impl Fn(u64) -> Option<usize>) {
        for (_, r) in &mut self.entries {
            r.next_use = f(r.addr);
        }
    }

    /// Records that `loc` now holds `addr`'s value, alongside any other
    /// words it already mirrors.  Adding an association to an
    /// already-tracked register never evicts; a *new* register entering a
    /// full ledger evicts one whole register (pool overflow) and returns
    /// everything it held.
    pub fn insert(&mut self, loc: Loc, resident: Resident) -> Option<Evicted> {
        let mut evicted: Option<Evicted> = None;
        self.insert_with(loc, resident, |victim, r| {
            evicted
                .get_or_insert_with(|| Evicted {
                    loc: victim.clone(),
                    residents: Vec::new(),
                })
                .residents
                .push(r.clone())
        });
        evicted
    }

    /// [`Residency::insert`], handing each association of an evicted
    /// register to `dropped`, oldest first, instead of collecting them.
    pub(crate) fn insert_with(
        &mut self,
        loc: Loc,
        resident: Resident,
        mut dropped: impl FnMut(&Loc, &Resident),
    ) {
        if let Some((_, r)) = self
            .entries
            .iter_mut()
            .find(|(l, r)| *l == loc && r.addr == resident.addr)
        {
            r.next_use = resident.next_use;
            return;
        }
        if !self.entries.iter().any(|(l, _)| *l == loc) {
            // One pass over the entries: per-register nearest next use, in
            // first-insertion order (the order doubles as the tie-break
            // key).
            self.summarize_registers();
            if self.registers.len() >= self.capacity {
                // Overflow: evict the register whose nearest next use lies
                // farthest in the future (never-again-read registers
                // first); earliest-inserted register on ties.
                let (first, _) = self
                    .registers
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, (_, nearest))| {
                        (nearest.map_or((1, 0), |u| (0, u)), usize::MAX - i)
                    })
                    .map(|(_, register)| *register)
                    .expect("capacity >= 1, ledger non-empty");
                let victim = self.entries[first].0.clone();
                self.forget_with(&victim, |r| dropped(&victim, r));
            }
        }
        self.entries.push((loc, resident));
    }

    /// Drops every association of one register (it was overwritten).
    pub fn forget(&mut self, loc: &Loc) -> Vec<Resident> {
        let mut removed = Vec::new();
        self.forget_with(loc, |r| removed.push(r.clone()));
        removed
    }

    /// [`Residency::forget`], handing each dropped association to `f`,
    /// oldest first, instead of collecting them.
    pub(crate) fn forget_with(&mut self, loc: &Loc, mut f: impl FnMut(&Resident)) {
        self.entries.retain(|(l, r)| {
            if l == loc {
                f(r);
                false
            } else {
                true
            }
        });
    }

    /// Drops every association to `addr` (the memory word was overwritten).
    pub fn forget_addr(&mut self, addr: u64) {
        self.entries.retain(|(_, r)| r.addr != addr);
    }

    /// Drops everything (a write to an unknown address).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}
