//! Interned variable names.
//!
//! Variable names are strings at the API boundary ("I[3]", "mode.st[0]")
//! but the kernel only ever needs them for registration — once a variable
//! exists, every hot-path comparison is on its index.  The interner maps
//! each distinct name to a dense [`Symbol`] exactly once; after that,
//! looking a name up is an FxHash probe and everything downstream compares
//! `u32`s.  A symbol's index *is* the BDD variable index
//! ([`crate::VarId`]) because variables are registered in interning order.

use crate::table::hash_str;

/// A dense handle for an interned variable name.
///
/// Symbols are assigned in interning order, so for BDD variables the
/// symbol index equals the [`crate::VarId`] index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

const EMPTY: u32 = u32::MAX;

/// A string interner over an open-addressing index (power-of-two capacity,
/// FxHash, insert-only — the same recipe as the unique table).
#[derive(Debug, Clone, Default)]
pub struct SymbolInterner {
    names: Vec<String>,
    /// Slot array holding indices into `names` (`EMPTY` = vacant).
    slots: Vec<u32>,
}

impl SymbolInterner {
    /// An empty interner.
    pub const fn new() -> SymbolInterner {
        SymbolInterner {
            names: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The symbol of `name`, if already interned.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash_str(name) as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            if self.names[slot as usize] == name {
                return Some(Symbol(slot));
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `name`, returning its (existing or fresh) symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(s) = self.lookup(name) {
            return s;
        }
        if (self.names.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        let mask = self.slots.len() - 1;
        let mut i = (hash_str(name) as usize) & mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
        Symbol(id)
    }

    /// Forgets every interned name while keeping the slot allocation
    /// (used when a session overlay is reset for reuse).
    pub fn clear(&mut self) {
        self.names.clear();
        self.slots.fill(EMPTY);
    }

    /// The name behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` was not produced by this interner.
    pub fn resolve(&self, symbol: Symbol) -> &str {
        &self.names[symbol.0 as usize]
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let mask = cap - 1;
        let mut slots = vec![EMPTY; cap];
        for (id, name) in self.names.iter().enumerate() {
            let mut i = (hash_str(name) as usize) & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = id as u32;
        }
        self.slots = slots;
    }
}
