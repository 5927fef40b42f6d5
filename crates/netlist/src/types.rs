//! Elaborated netlist data types.

pub use record_hdl::PortDir;
use record_hdl::{PortDef, UnOp};
use std::fmt;

/// Index of an elaborated module definition inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefId(pub u32);

/// Index of a module instance inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Index of a bus inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BusId(pub u32);

/// Index of a primary processor port inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcPortId(pub u32);

/// Index of a storage (register, memory or register file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StorageId(pub u32);

/// Index of a port within its module definition's port list.
pub type PortIdx = usize;

/// A driver of an instance input/control port: where the data comes from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Net {
    /// Output `port` of instance `inst`.
    InstOut { inst: InstId, port: PortIdx },
    /// A primary processor input port.
    ProcIn(ProcPortId),
    /// Bits `hi..=lo` of the instruction word.
    IField { hi: u16, lo: u16 },
    /// A tristate bus.
    Bus(BusId),
    /// A hardwired constant.
    Const(u64),
    /// A bit slice of another net.
    Slice { base: Box<Net>, hi: u16, lo: u16 },
}

/// A data expression over a module's input ports (behaviour right-hand
/// side), after normalisation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DataExpr {
    /// Input port, by index into the module's port list.
    Port(PortIdx),
    Const(u64),
    Slice {
        base: Box<DataExpr>,
        hi: u16,
        lo: u16,
    },
    Unary {
        op: UnOp,
        arg: Box<DataExpr>,
    },
    Binary {
        op: record_hdl::BinOp,
        lhs: Box<DataExpr>,
        rhs: Box<DataExpr>,
    },
}

/// A control expression: an expression over *control* ports that control
/// analysis can evaluate symbolically (paper §2 traces these back to the
/// instruction register and mode registers).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CtrlExpr {
    /// Control port, by index into the module's port list.
    Port(PortIdx),
    Const(u64),
    Slice {
        base: Box<CtrlExpr>,
        hi: u16,
        lo: u16,
    },
}

/// A guard over control ports, produced from `case` nesting and `when`
/// clauses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Guard {
    True,
    False,
    /// `sel == value`
    Cmp {
        sel: CtrlExpr,
        value: u64,
    },
    /// `port == value` where `port` is a *data* input of the module: a
    /// runtime comparison control analysis cannot resolve from the
    /// instruction word.  Conditional PC updates (branch-if-zero) guard on
    /// these; everywhere else they make the write untraceable.
    DataCmp {
        port: PortIdx,
        value: u64,
    },
    Not(Box<Guard>),
    And(Box<Guard>, Box<Guard>),
    Or(Box<Guard>, Box<Guard>),
}

impl Guard {
    /// Conjunction that folds the `True` identity.
    pub fn and(self, other: Guard) -> Guard {
        match (self, other) {
            (Guard::True, g) | (g, Guard::True) => g,
            (Guard::False, _) | (_, Guard::False) => Guard::False,
            (a, b) => Guard::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction that folds the `False` identity.
    pub fn or(self, other: Guard) -> Guard {
        match (self, other) {
            (Guard::False, g) | (g, Guard::False) => g,
            (Guard::True, _) | (_, Guard::True) => Guard::True,
            (a, b) => Guard::Or(Box::new(a), Box::new(b)),
        }
    }
}

/// One guarded alternative of a combinational output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedExpr {
    pub guard: Guard,
    pub value: DataExpr,
}

/// Behaviour of one output port of a combinational module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputBehavior {
    /// Which output port this describes.
    pub port: PortIdx,
    /// Alternatives in source order; at runtime exactly the alternatives
    /// whose guards hold drive the port (model authors keep them disjoint).
    pub arms: Vec<GuardedExpr>,
}

/// An elaborated memory read port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabReadPort {
    pub out: PortIdx,
    pub addr: DataExpr,
}

/// An elaborated memory write port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabWritePort {
    pub addr: DataExpr,
    pub data: DataExpr,
    pub guard: Guard,
}

/// Elaborated module behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElabKind {
    Comb {
        outputs: Vec<OutputBehavior>,
    },
    Register {
        out: PortIdx,
        input: DataExpr,
        guard: Guard,
    },
    Memory {
        size: u64,
        width: u16,
        reads: Vec<ElabReadPort>,
        writes: Vec<ElabWritePort>,
    },
}

/// An elaborated module definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabModule {
    pub name: String,
    pub ports: Vec<PortDef>,
    pub kind: ElabKind,
}

impl ElabModule {
    /// Index of a port by name.
    pub fn port_idx(&self, name: &str) -> Option<PortIdx> {
        self.ports.iter().position(|p| p.name == name)
    }
}

/// A module instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    pub name: String,
    pub def: DefId,
    /// Designated mode register (paper §2)?
    pub is_mode: bool,
    /// Driver of each port (indexed like the definition's port list); only
    /// `In`/`Ctrl` ports may have drivers.
    pub drivers: Vec<Option<Net>>,
}

/// A tristate bus with guarded drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bus {
    pub name: String,
    pub width: u16,
    pub drivers: Vec<BusDriver>,
}

/// One guarded driver of a bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusDriver {
    pub source: Net,
    /// Enable condition at processor level; `BusGuard::True` drives always.
    pub guard: BusGuard,
}

/// Processor-level Boolean guard over nets (bus-driver enables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusGuard {
    True,
    /// `net == value` (`eq = true`) or `net != value` (`eq = false`).
    Cmp {
        net: Net,
        eq: bool,
        value: u64,
    },
    Not(Box<BusGuard>),
    And(Box<BusGuard>, Box<BusGuard>),
    Or(Box<BusGuard>, Box<BusGuard>),
}

/// A primary processor port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcPort {
    pub name: String,
    pub dir: PortDir,
    pub width: u16,
    /// For output ports: the connected source.
    pub driver: Option<Net>,
}

/// Classification of a storage element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageKind {
    /// A single register (possibly a mode register).
    Register,
    /// An addressable memory (data or program memory).
    Memory,
    /// A memory addressed only by instruction fields: a register file whose
    /// cells the compiler may allocate freely.
    RegFile,
}

/// A storage element of the processor: the RT destinations and the
/// "sequential components" SEQ of the paper's grammar construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Storage {
    pub id: StorageId,
    /// The owning instance.
    pub inst: InstId,
    /// Instance name (denormalised for display).
    pub name: String,
    pub kind: StorageKind,
    /// Word width in bits.
    pub width: u16,
    /// Number of words (1 for registers).
    pub size: u64,
    /// Is this a designated mode register?
    pub is_mode: bool,
    /// Is this the designated program counter?
    pub is_pc: bool,
}

/// The elaborated processor netlist.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    iword_width: u16,
    defs: Vec<ElabModule>,
    insts: Vec<Instance>,
    busses: Vec<Bus>,
    proc_ports: Vec<ProcPort>,
    storages: Vec<Storage>,
}

impl Netlist {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        iword_width: u16,
        defs: Vec<ElabModule>,
        insts: Vec<Instance>,
        busses: Vec<Bus>,
        proc_ports: Vec<ProcPort>,
        storages: Vec<Storage>,
    ) -> Self {
        Netlist {
            name,
            iword_width,
            defs,
            insts,
            busses,
            proc_ports,
            storages,
        }
    }

    /// Processor name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instruction word width in bits.
    pub fn iword_width(&self) -> u16 {
        self.iword_width
    }

    /// All elaborated module definitions.
    pub fn defs(&self) -> &[ElabModule] {
        &self.defs
    }

    /// All instances.
    pub fn insts(&self) -> &[Instance] {
        &self.insts
    }

    /// All busses.
    pub fn busses(&self) -> &[Bus] {
        &self.busses
    }

    /// All primary processor ports.
    pub fn proc_ports(&self) -> &[ProcPort] {
        &self.proc_ports
    }

    /// All storages (registers, memories, register files).
    pub fn storages(&self) -> &[Storage] {
        &self.storages
    }

    /// Definition of an instance.
    pub fn def_of(&self, inst: InstId) -> &ElabModule {
        &self.defs[self.insts[inst.0 as usize].def.0 as usize]
    }

    /// An instance by id.
    pub fn inst(&self, id: InstId) -> &Instance {
        &self.insts[id.0 as usize]
    }

    /// A bus by id.
    pub fn bus(&self, id: BusId) -> &Bus {
        &self.busses[id.0 as usize]
    }

    /// A storage by id.
    pub fn storage(&self, id: StorageId) -> &Storage {
        &self.storages[id.0 as usize]
    }

    /// A primary port by id.
    pub fn proc_port(&self, id: ProcPortId) -> &ProcPort {
        &self.proc_ports[id.0 as usize]
    }

    /// The storage owned by `inst`, if that instance is sequential.
    pub fn storage_of_inst(&self, inst: InstId) -> Option<&Storage> {
        self.storages.iter().find(|s| s.inst == inst)
    }

    /// Looks up an instance by name.
    pub fn inst_by_name(&self, name: &str) -> Option<InstId> {
        self.insts
            .iter()
            .position(|i| i.name == name)
            .map(|i| InstId(i as u32))
    }

    /// Looks up a storage by instance name.
    pub fn storage_by_name(&self, name: &str) -> Option<&Storage> {
        self.storages.iter().find(|s| s.name == name)
    }

    /// The designated program counter storage, if the model declares one.
    pub fn pc_storage(&self) -> Option<&Storage> {
        self.storages.iter().find(|s| s.is_pc)
    }

    /// The driver of an instance port, if connected.
    pub fn driver_of(&self, inst: InstId, port: PortIdx) -> Option<&Net> {
        self.insts[inst.0 as usize].drivers[port].as_ref()
    }

    /// Width of a net in bits.
    pub fn net_width(&self, net: &Net) -> u16 {
        match net {
            Net::InstOut { inst, port } => self.def_of(*inst).ports[*port].width,
            Net::ProcIn(p) => self.proc_ports[p.0 as usize].width,
            Net::IField { hi, lo } => hi - lo + 1,
            Net::Bus(b) => self.busses[b.0 as usize].width,
            Net::Const(_) => 0, // width-polymorphic; checked at use sites
            Net::Slice { hi, lo, .. } => hi - lo + 1,
        }
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist {} (iword {} bits): {} defs, {} insts, {} busses, {} storages",
            self.name,
            self.iword_width,
            self.defs.len(),
            self.insts.len(),
            self.busses.len(),
            self.storages.len()
        )
    }
}
