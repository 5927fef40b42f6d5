//! BDD variable layout: instruction bits first, then mode-register bits.

use record_bdd::{BddManager, VarId};
use record_netlist::{Netlist, StorageId};
use std::collections::BTreeMap;

/// Maps instruction-word bits and mode-register bits to BDD variables.
///
/// Instruction bit `i` is variable `i`; mode-register bits follow in
/// storage order.  Keeping instruction bits at the top of the order makes
/// `to_cubes` output read like partial instructions and keeps restrict-based
/// encoding queries cheap.
#[derive(Debug, Clone)]
pub struct VarMap {
    iword_width: u16,
    mode_base: BTreeMap<StorageId, u32>,
}

impl VarMap {
    /// Registers all variables for `netlist` in `manager`.
    pub fn new(netlist: &Netlist, manager: &mut BddManager) -> Self {
        let w = netlist.iword_width();
        for i in 0..w {
            manager.var_id(&format!("I[{i}]"));
        }
        let mut mode_base = BTreeMap::new();
        let mut next = w as u32;
        for s in netlist.storages() {
            if s.is_mode {
                mode_base.insert(s.id, next);
                for b in 0..s.width {
                    manager.var_id(&format!("mode.{}[{b}]", s.name));
                }
                next += s.width as u32;
            }
        }
        VarMap {
            iword_width: w,
            mode_base,
        }
    }

    /// Instruction word width.
    pub fn iword_width(&self) -> u16 {
        self.iword_width
    }

    /// Variable of instruction bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the instruction word.
    pub fn ibit(&self, bit: u16) -> VarId {
        assert!(bit < self.iword_width, "instruction bit out of range");
        VarId(bit as u32)
    }

    /// Variable of bit `bit` of mode register `s`, if `s` is a mode
    /// register.
    pub fn mode_bit(&self, s: StorageId, bit: u16) -> Option<VarId> {
        self.mode_base.get(&s).map(|&base| VarId(base + bit as u32))
    }
}
