//! RT-level machine simulator: the correctness oracle.
//!
//! Executes emitted [`RtOp`]s against concrete storage state.  Two modes:
//!
//! * [`Machine::run`] — vertical code, one RT per cycle;
//! * [`Machine::run_compacted`] — horizontal code with *time-stationary*
//!   semantics: all RTs of one instruction word read the machine state
//!   from before the word and commit together (paper table 1 lists
//!   time-stationary code as the supported code type).

use crate::ops::{DestSim, Loc, RtOp, SimExpr, Transfer};
use record_netlist::{Netlist, StorageId, StorageKind};
use std::collections::HashMap;

/// Execution fuel: compiled code from terminating programs terminates, so
/// running dry means a miscompiled branch — stop with a panic the fuzz
/// harness contains rather than spinning forever.
const FUEL: u64 = 1 << 22;

/// Concrete machine state for a netlist's storages.
#[derive(Debug, Clone)]
pub struct Machine {
    regs: HashMap<StorageId, u64>,
    mems: HashMap<StorageId, Vec<u64>>,
    widths: HashMap<StorageId, u16>,
}

impl Machine {
    /// Creates a zeroed machine for `netlist`.
    pub fn new(netlist: &Netlist) -> Machine {
        let mut regs = HashMap::new();
        let mut mems = HashMap::new();
        let mut widths = HashMap::new();
        for s in netlist.storages() {
            widths.insert(s.id, s.width);
            match s.kind {
                StorageKind::Register => {
                    regs.insert(s.id, 0);
                }
                StorageKind::Memory | StorageKind::RegFile => {
                    mems.insert(s.id, vec![0; s.size as usize]);
                }
            }
        }
        Machine { regs, mems, widths }
    }

    fn mask(&self, s: StorageId) -> u64 {
        let w = self.widths.get(&s).copied().unwrap_or(64);
        if w >= 64 {
            u64::MAX
        } else {
            (1 << w) - 1
        }
    }

    /// Sets a register value (masked to its width).
    pub fn set_reg(&mut self, s: StorageId, v: u64) {
        let m = self.mask(s);
        self.regs.insert(s, v & m);
    }

    /// Register value.
    pub fn reg(&self, s: StorageId) -> u64 {
        self.regs.get(&s).copied().unwrap_or(0)
    }

    /// Sets one memory/regfile word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds or `s` is not a memory.
    pub fn set_mem(&mut self, s: StorageId, addr: u64, v: u64) {
        let m = self.mask(s);
        self.mems.get_mut(&s).expect("memory storage")[addr as usize] = v & m;
    }

    /// One memory/regfile word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds or `s` is not a memory.
    pub fn mem(&self, s: StorageId, addr: u64) -> u64 {
        self.mems.get(&s).expect("memory storage")[addr as usize]
    }

    fn read(&self, loc: &Loc) -> u64 {
        match loc {
            Loc::Reg(s) => self.reg(*s),
            Loc::Rf(s, c) => self.mem(*s, *c),
            Loc::Mem(s, a) => self.mem(*s, *a),
            Loc::MemDyn(_) => panic!("dynamic location cannot be read directly"),
            // Nothing drives the primary inputs: they read as 0.
            Loc::Port(_) => 0,
        }
    }

    fn eval(&self, e: &SimExpr, width: u16) -> u64 {
        let m = if width >= 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        match e {
            SimExpr::Const(v) => *v & m,
            SimExpr::Read(l) => self.read(l) & m,
            SimExpr::MemRead(s, addr) => {
                let a = self.eval(addr, 64);
                self.mem(*s, a % self.mems[s].len() as u64)
            }
            SimExpr::Op(op, args) => {
                let vals: Vec<u64> = args.iter().map(|a| self.eval(a, width)).collect();
                op.eval(&vals, width)
            }
        }
    }

    fn width_of_dest(&self, d: &DestSim) -> u16 {
        let s = match d {
            DestSim::Loc(Loc::Reg(s) | Loc::Rf(s, _) | Loc::Mem(s, _) | Loc::MemDyn(s)) => *s,
            DestSim::Loc(Loc::Port(_)) => return 64,
            DestSim::MemAt(s, _) => *s,
        };
        self.widths.get(&s).copied().unwrap_or(64)
    }

    /// Executes one RT.
    pub fn step(&mut self, op: &RtOp) {
        let width = self.width_of_dest(&op.dest);
        let v = self.eval(&op.expr, width);
        self.commit(&op.dest, v);
    }

    fn commit(&mut self, dest: &DestSim, v: u64) {
        match dest {
            DestSim::Loc(Loc::Reg(s)) => self.set_reg(*s, v),
            DestSim::Loc(Loc::Rf(s, c)) => self.set_mem(*s, *c, v),
            DestSim::Loc(Loc::Mem(s, a)) => self.set_mem(*s, *a, v),
            DestSim::Loc(Loc::MemDyn(_)) => panic!("dynamic loc as direct destination"),
            // Nothing observes the primary outputs.
            DestSim::Loc(Loc::Port(_)) => {}
            DestSim::MemAt(s, addr) => {
                let a = self.eval(addr, 64) % self.mems[s].len() as u64;
                self.set_mem(*s, a, v);
            }
        }
    }

    /// Is this op's transfer taken in the current state?  `true` for
    /// plain (non-transfer) ops.
    fn taken(&self, op: &RtOp) -> bool {
        match &op.transfer {
            None | Some(Transfer::Always) => true,
            Some(Transfer::Cond { test, value, eq }) => {
                // Stored values are already masked; 64-bit evaluation
                // reads them back exactly.
                (self.eval(test, 64) == *value) == *eq
            }
        }
    }

    /// Executes vertical code: one RT per machine cycle, with a real
    /// program counter.  A transfer op whose condition holds jumps to the
    /// op index its target expression evaluates to (`ops.len()` halts);
    /// otherwise execution falls through to the next op.
    ///
    /// # Panics
    ///
    /// Panics when the cycle budget runs dry (a miscompiled branch).
    pub fn run(&mut self, ops: &[RtOp]) {
        let mut pc = 0usize;
        let mut fuel = FUEL;
        while pc < ops.len() {
            assert!(fuel > 0, "machine fuel exhausted after {FUEL} cycles");
            fuel -= 1;
            let op = &ops[pc];
            if op.transfer.is_none() {
                self.step(op);
                pc += 1;
            } else if self.taken(op) {
                // Targets are compile-time op indices; evaluate wide so
                // programs longer than the PC register still index.
                let target = self.eval(&op.expr, 64);
                self.commit(&op.dest.clone(), target);
                pc = target as usize;
            } else {
                pc += 1;
            }
        }
    }

    /// Executes compacted code: `words[i]` holds the RTs of instruction
    /// word `i`; all read pre-state, then all commit (time-stationary).
    /// A taken transfer in a word steers the next word; transfer targets
    /// are word indices after
    /// [`Schedule::materialize`](../record_compact) (`words.len()`
    /// halts).
    ///
    /// # Panics
    ///
    /// Panics when the cycle budget runs dry (a miscompiled branch).
    pub fn run_compacted(&mut self, words: &[Vec<RtOp>]) {
        let mut pc = 0usize;
        let mut fuel = FUEL;
        while pc < words.len() {
            assert!(fuel > 0, "machine fuel exhausted after {FUEL} cycles");
            fuel -= 1;
            let mut next = pc + 1;
            let effects: Vec<(DestSim, u64, bool)> = words[pc]
                .iter()
                .filter(|op| self.taken(op))
                .map(|op| {
                    let is_transfer = op.transfer.is_some();
                    let width = if is_transfer {
                        64
                    } else {
                        self.width_of_dest(&op.dest)
                    };
                    (op.dest.clone(), self.eval(&op.expr, width), is_transfer)
                })
                .collect();
            for (dest, v, is_transfer) in effects {
                if is_transfer {
                    next = v as usize;
                }
                self.commit(&dest, v);
            }
            pc = next;
        }
    }
}
