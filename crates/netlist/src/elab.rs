//! Model elaboration: HDL AST → netlist graph.

use crate::error::NetlistError;
use crate::types::*;
use record_hdl as hdl;
use record_hdl::{BinOp, ModuleBody, PortDir, UnOp};
use std::collections::BTreeMap;

type Result<T> = std::result::Result<T, NetlistError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(NetlistError::new(msg))
}

/// Stateful elaborator; see [`crate::elaborate`].
pub(crate) struct Elaborator<'a> {
    model: &'a hdl::Model,
    defs: Vec<ElabModule>,
    def_index: BTreeMap<String, DefId>,
}

impl<'a> Elaborator<'a> {
    pub(crate) fn new(model: &'a hdl::Model) -> Self {
        Elaborator {
            model,
            defs: Vec::new(),
            def_index: BTreeMap::new(),
        }
    }

    pub(crate) fn run(mut self) -> Result<Netlist> {
        for m in &self.model.modules {
            let elab = elaborate_module(m)?;
            let id = DefId(self.defs.len() as u32);
            self.def_index.insert(m.name.clone(), id);
            self.defs.push(elab);
        }
        let proc = &self.model.processor;

        // Instances.
        let mut insts: Vec<Instance> = Vec::new();
        let mut inst_index: BTreeMap<String, InstId> = BTreeMap::new();
        for part in &proc.parts {
            let Some(&def) = self.def_index.get(&part.module) else {
                return err(format!(
                    "instance `{}` references unknown module `{}`",
                    part.inst, part.module
                ));
            };
            let nports = self.defs[def.0 as usize].ports.len();
            let id = InstId(insts.len() as u32);
            inst_index.insert(part.inst.clone(), id);
            insts.push(Instance {
                name: part.inst.clone(),
                def,
                is_mode: false,
                drivers: vec![None; nports],
            });
        }

        // Mode registers.
        for mode in &proc.modes {
            let Some(&id) = inst_index.get(mode) else {
                return err(format!("modes lists unknown instance `{mode}`"));
            };
            let def = insts[id.0 as usize].def;
            if !matches!(self.defs[def.0 as usize].kind, ElabKind::Register { .. }) {
                return err(format!("mode instance `{mode}` is not a register module"));
            }
            insts[id.0 as usize].is_mode = true;
        }

        // Busses.
        let mut busses: Vec<Bus> = Vec::new();
        let mut bus_index: BTreeMap<String, BusId> = BTreeMap::new();
        for b in &proc.busses {
            let id = BusId(busses.len() as u32);
            bus_index.insert(b.name.clone(), id);
            busses.push(Bus {
                name: b.name.clone(),
                width: b.width,
                drivers: Vec::new(),
            });
        }

        // Primary ports.
        let mut proc_ports: Vec<ProcPort> = Vec::new();
        let mut port_index: BTreeMap<String, ProcPortId> = BTreeMap::new();
        for p in &proc.ports {
            if p.dir == PortDir::Ctrl {
                return err(format!("processor port `{}` cannot be ctrl", p.name));
            }
            let id = ProcPortId(proc_ports.len() as u32);
            port_index.insert(p.name.clone(), id);
            proc_ports.push(ProcPort {
                name: p.name.clone(),
                dir: p.dir,
                width: p.width,
                driver: None,
            });
        }

        let ctx = NetCtx {
            processor: &proc.name,
            defs: &self.defs,
            insts: &insts,
            bus_index: &bus_index,
            port_index: &port_index,
            proc_ports: &proc_ports,
            inst_index: &inst_index,
            iword_width: proc.iword_width,
        };

        // Bus drivers.
        let mut elaborated_drivers: Vec<(BusId, BusDriver)> = Vec::new();
        for d in &proc.drivers {
            let Some(&bid) = bus_index.get(&d.bus) else {
                return err(format!("drive statement targets unknown bus `{}`", d.bus));
            };
            let source = ctx.resolve_netref(&d.source)?;
            let sw = ctx.net_width(&source);
            let bw = busses[bid.0 as usize].width;
            if sw != 0 && sw > bw {
                return err(format!(
                    "bus `{}` has width {bw} but driver has width {sw}",
                    d.bus
                ));
            }
            let guard = match &d.guard {
                None => BusGuard::True,
                Some(c) => ctx.resolve_cond(c)?,
            };
            elaborated_drivers.push((bid, BusDriver { source, guard }));
        }

        // Connections.
        let mut conn_drivers: Vec<(InstId, PortIdx, Net)> = Vec::new();
        let mut out_drivers: Vec<(ProcPortId, Net)> = Vec::new();
        for c in &proc.connections {
            let source = ctx.resolve_netref(&c.source)?;
            match &c.target {
                hdl::ConnTarget::InstPort { inst, port } => {
                    let Some(&iid) = inst_index.get(inst) else {
                        return err(format!("connection targets unknown instance `{inst}`"));
                    };
                    let def = &self.defs[insts[iid.0 as usize].def.0 as usize];
                    let Some(pidx) = def.port_idx(port) else {
                        return err(format!("connection targets unknown port `{inst}.{port}`"));
                    };
                    let pdef = &def.ports[pidx];
                    if pdef.dir == PortDir::Out {
                        return err(format!(
                            "connection target `{inst}.{port}` is an output port"
                        ));
                    }
                    // Narrower sources are implicitly zero-extended (the
                    // hardware pads immediate fields onto wider data paths);
                    // wider sources are an error.
                    let sw = ctx.net_width(&source);
                    if sw != 0 && sw > pdef.width {
                        return err(format!(
                            "width mismatch: `{inst}.{port}` is {} bits but source is {sw} bits",
                            pdef.width
                        ));
                    }
                    if let Net::Const(v) = source {
                        if pdef.width < 64 && v >= 1u64 << pdef.width {
                            return err(format!(
                                "constant {v} does not fit port `{inst}.{port}` ({} bits)",
                                pdef.width
                            ));
                        }
                    }
                    conn_drivers.push((iid, pidx, source));
                }
                hdl::ConnTarget::ProcPort(name) => {
                    let Some(&pid) = port_index.get(name) else {
                        return err(format!(
                            "connection targets unknown processor port `{name}`"
                        ));
                    };
                    let pp = &proc_ports[pid.0 as usize];
                    if pp.dir != PortDir::Out {
                        return err(format!(
                            "processor port `{name}` is an input and cannot be a connection target"
                        ));
                    }
                    let sw = ctx.net_width(&source);
                    if sw != 0 && sw > pp.width {
                        return err(format!(
                            "width mismatch: processor port `{name}` is {} bits but source is {sw} bits",
                            pp.width
                        ));
                    }
                    out_drivers.push((pid, source));
                }
            }
        }

        // Apply collected drivers, rejecting double drives.
        for (iid, pidx, net) in conn_drivers {
            let slot = &mut insts[iid.0 as usize].drivers[pidx];
            if slot.is_some() {
                let iname = &insts[iid.0 as usize].name;
                let pname = &self.defs[insts[iid.0 as usize].def.0 as usize].ports[pidx].name;
                return err(format!("port `{iname}.{pname}` is driven more than once"));
            }
            *slot = Some(net);
        }
        for (pid, net) in out_drivers {
            let slot = &mut proc_ports[pid.0 as usize].driver;
            if slot.is_some() {
                return err(format!(
                    "processor port `{}` is driven more than once",
                    proc_ports[pid.0 as usize].name
                ));
            }
            *slot = Some(net);
        }
        for (bid, d) in elaborated_drivers {
            busses[bid.0 as usize].drivers.push(d);
        }

        // Storages.
        let mut storages: Vec<Storage> = Vec::new();
        for (i, inst) in insts.iter().enumerate() {
            let def = &self.defs[inst.def.0 as usize];
            let iid = InstId(i as u32);
            match &def.kind {
                ElabKind::Register { out, .. } => {
                    storages.push(Storage {
                        id: StorageId(storages.len() as u32),
                        inst: iid,
                        name: inst.name.clone(),
                        kind: StorageKind::Register,
                        width: def.ports[*out].width,
                        size: 1,
                        is_mode: inst.is_mode,
                        is_pc: proc.pc.as_ref() == Some(&inst.name),
                    });
                }
                ElabKind::Memory {
                    size,
                    width,
                    reads,
                    writes,
                } => {
                    let kind = if proc.regfiles.contains(&inst.name) {
                        validate_regfile(inst, reads, writes)?;
                        StorageKind::RegFile
                    } else {
                        StorageKind::Memory
                    };
                    storages.push(Storage {
                        id: StorageId(storages.len() as u32),
                        inst: iid,
                        name: inst.name.clone(),
                        kind,
                        width: *width,
                        size: *size,
                        is_mode: false,
                        is_pc: false,
                    });
                }
                ElabKind::Comb { .. } => {}
            }
        }

        if let Some(pc) = &proc.pc {
            if !storages
                .iter()
                .any(|s| s.is_pc && s.kind == StorageKind::Register)
            {
                return err(format!(
                    "pc declaration names `{pc}`, which is not a register instance"
                ));
            }
        }

        Ok(Netlist::new(
            proc.name.clone(),
            proc.iword_width,
            self.defs,
            insts,
            busses,
            proc_ports,
            storages,
        ))
    }
}

/// A declared register file must have every read and write address driven
/// directly by an instruction field: only then is the compiler free to
/// choose the cell (paper's "homogeneous register structure").
fn validate_regfile(
    inst: &Instance,
    reads: &[ElabReadPort],
    writes: &[ElabWritePort],
) -> Result<()> {
    let addr_is_ifield = |addr: &DataExpr| -> bool {
        let DataExpr::Port(p) = addr else {
            return false;
        };
        matches!(
            inst.drivers.get(*p).and_then(|d| d.as_ref()),
            Some(Net::IField { .. })
        )
    };
    if reads.is_empty() || writes.is_empty() {
        return err(format!(
            "register file `{}` must have at least one read and one write port",
            inst.name
        ));
    }
    if reads.iter().all(|r| addr_is_ifield(&r.addr))
        && writes.iter().all(|w| addr_is_ifield(&w.addr))
    {
        Ok(())
    } else {
        err(format!(
            "register file `{}` must be addressed exclusively by instruction fields",
            inst.name
        ))
    }
}

/// Context for resolving processor-level references.
struct NetCtx<'a> {
    processor: &'a str,
    defs: &'a [ElabModule],
    insts: &'a [Instance],
    bus_index: &'a BTreeMap<String, BusId>,
    port_index: &'a BTreeMap<String, ProcPortId>,
    proc_ports: &'a [ProcPort],
    inst_index: &'a BTreeMap<String, InstId>,
    iword_width: u16,
}

impl NetCtx<'_> {
    fn resolve_netref(&self, r: &hdl::NetRef) -> Result<Net> {
        match r {
            hdl::NetRef::InstPort { inst, port } => {
                let Some(&iid) = self.inst_index.get(inst) else {
                    return err(format!("unknown instance `{inst}` in net reference"));
                };
                let def = &self.defs[self.insts[iid.0 as usize].def.0 as usize];
                let Some(pidx) = def.port_idx(port) else {
                    return err(format!("unknown port `{inst}.{port}` in net reference"));
                };
                if def.ports[pidx].dir != PortDir::Out {
                    return err(format!(
                        "net reference `{inst}.{port}` must name an output port"
                    ));
                }
                Ok(Net::InstOut {
                    inst: iid,
                    port: pidx,
                })
            }
            hdl::NetRef::Name(name) => {
                if let Some(&bid) = self.bus_index.get(name) {
                    Ok(Net::Bus(bid))
                } else if let Some(&pid) = self.port_index.get(name) {
                    if self.proc_ports[pid.0 as usize].dir != PortDir::In {
                        return err(format!(
                            "processor port `{name}` is an output and cannot be read"
                        ));
                    }
                    Ok(Net::ProcIn(pid))
                } else {
                    err(format!("`{name}` is neither a bus nor a processor port"))
                }
            }
            hdl::NetRef::IField { hi, lo } => {
                if *hi >= self.iword_width {
                    return err(format!(
                        "instruction field I[{hi}:{lo}] exceeds instruction width {}",
                        self.iword_width
                    ));
                }
                Ok(Net::IField { hi: *hi, lo: *lo })
            }
            hdl::NetRef::Const(v) => Ok(Net::Const(*v)),
            hdl::NetRef::Slice { base, hi, lo } => {
                let b = self.resolve_netref(base)?;
                let bw = self.net_width(&b);
                if bw != 0 && *hi >= bw {
                    return err(format!("slice [{hi}:{lo}] exceeds width {bw} of its base"));
                }
                Ok(Net::Slice {
                    base: Box::new(b),
                    hi: *hi,
                    lo: *lo,
                })
            }
        }
    }

    fn net_width(&self, net: &Net) -> u16 {
        match net {
            Net::InstOut { inst, port } => {
                self.defs[self.insts[inst.0 as usize].def.0 as usize].ports[*port].width
            }
            Net::ProcIn(p) => self.proc_ports[p.0 as usize].width,
            Net::IField { hi, lo } => hi - lo + 1,
            Net::Bus(_) => 0, // filled in before drivers exist; callers check
            Net::Const(_) => 0,
            Net::Slice { hi, lo, .. } => hi - lo + 1,
        }
    }

    fn resolve_cond(&self, c: &hdl::Cond) -> Result<BusGuard> {
        Ok(match c {
            hdl::Cond::Cmp { lhs, op, rhs } => {
                let net = self.resolve_netref(lhs)?;
                // Bus and constant nets report width 0: not known here.
                let width = u32::from(self.net_width(&net));
                if width != 0 && !fits(*rhs, width) {
                    return err(format!(
                        "`drive` guard constant {rhs} does not fit the {width}-bit net it is \
                         compared with in processor `{}`",
                        self.processor
                    ));
                }
                BusGuard::Cmp {
                    net,
                    eq: *op == hdl::CmpOp::Eq,
                    value: *rhs,
                }
            }
            hdl::Cond::Not(inner) => BusGuard::Not(Box::new(self.resolve_cond(inner)?)),
            hdl::Cond::And(a, b) => BusGuard::And(
                Box::new(self.resolve_cond(a)?),
                Box::new(self.resolve_cond(b)?),
            ),
            hdl::Cond::Or(a, b) => BusGuard::Or(
                Box::new(self.resolve_cond(a)?),
                Box::new(self.resolve_cond(b)?),
            ),
        })
    }
}

// ---------------------------------------------------------------------------
// Module elaboration
// ---------------------------------------------------------------------------

fn elaborate_module(m: &hdl::ModuleDef) -> Result<ElabModule> {
    let kind = match &m.body {
        ModuleBody::Combinational(stmts) => {
            let mut outputs: BTreeMap<PortIdx, Vec<GuardedExpr>> = BTreeMap::new();
            flatten_stmts(m, stmts, Guard::True, &mut outputs)?;
            ElabKind::Comb {
                outputs: outputs
                    .into_iter()
                    .map(|(port, arms)| OutputBehavior { port, arms })
                    .collect(),
            }
        }
        ModuleBody::Register(r) => {
            let Some(out) = m.ports.iter().position(|p| p.name == r.out) else {
                return err(format!(
                    "register output `{}` is not a port of module `{}`",
                    r.out, m.name
                ));
            };
            if m.ports[out].dir != PortDir::Out {
                return err(format!(
                    "register output `{}` of module `{}` must be an out port",
                    r.out, m.name
                ));
            }
            let input = data_expr(m, &r.input)?;
            check_width(m, &input, m.ports[out].width, &m.name)?;
            let guard = match &r.guard {
                None => Guard::True,
                Some(g) => guard_expr(m, g)?,
            };
            ElabKind::Register { out, input, guard }
        }
        ModuleBody::Memory(mem) => {
            let mut reads = Vec::new();
            for r in &mem.reads {
                let Some(out) = m.ports.iter().position(|p| p.name == r.out) else {
                    return err(format!(
                        "read output `{}` is not a port of module `{}`",
                        r.out, m.name
                    ));
                };
                if m.ports[out].width != mem.width {
                    return err(format!(
                        "read port `{}` of module `{}` has width {} but memory words are {} bits",
                        r.out, m.name, m.ports[out].width, mem.width
                    ));
                }
                reads.push(ElabReadPort {
                    out,
                    addr: data_expr(m, &r.addr)?,
                });
            }
            let mut writes = Vec::new();
            for w in &mem.writes {
                let data = data_expr(m, &w.data)?;
                check_width(m, &data, mem.width, &m.name)?;
                let guard = match &w.guard {
                    None => Guard::True,
                    Some(g) => guard_expr(m, g)?,
                };
                writes.push(ElabWritePort {
                    addr: data_expr(m, &w.addr)?,
                    data,
                    guard,
                });
            }
            ElabKind::Memory {
                size: mem.size,
                width: mem.width,
                reads,
                writes,
            }
        }
    };
    Ok(ElabModule {
        name: m.name.clone(),
        ports: m.ports.clone(),
        kind,
    })
}

fn flatten_stmts(
    m: &hdl::ModuleDef,
    stmts: &[hdl::Stmt],
    guard: Guard,
    out: &mut BTreeMap<PortIdx, Vec<GuardedExpr>>,
) -> Result<()> {
    for stmt in stmts {
        match stmt {
            hdl::Stmt::Assign { port, value } => {
                let Some(pidx) = m.ports.iter().position(|p| p.name == *port) else {
                    return err(format!(
                        "assignment to unknown port `{port}` in module `{}`",
                        m.name
                    ));
                };
                if m.ports[pidx].dir != PortDir::Out {
                    return err(format!(
                        "assignment target `{port}` in module `{}` must be an out port",
                        m.name
                    ));
                }
                let value = data_expr(m, value)?;
                check_width(m, &value, m.ports[pidx].width, &m.name)?;
                out.entry(pidx).or_default().push(GuardedExpr {
                    guard: guard.clone(),
                    value,
                });
            }
            hdl::Stmt::Case {
                selector,
                arms,
                default,
            } => {
                let sel = ctrl_expr(m, selector)?;
                let width = ctrl_width(m, &sel);
                let mut covered = Guard::False;
                for arm in arms {
                    let mut arm_guard = Guard::False;
                    for &label in &arm.labels {
                        if !fits(label, width) {
                            return err(format!(
                                "case label {label} does not fit the {width}-bit selector in \
                                 module `{}`",
                                m.name
                            ));
                        }
                        arm_guard = arm_guard.or(Guard::Cmp {
                            sel: sel.clone(),
                            value: label,
                        });
                    }
                    covered = covered.or(arm_guard.clone());
                    flatten_stmts(m, &arm.body, guard.clone().and(arm_guard), out)?;
                }
                if let Some(body) = default {
                    let default_guard = Guard::Not(Box::new(covered));
                    flatten_stmts(m, body, guard.clone().and(default_guard), out)?;
                }
            }
        }
    }
    Ok(())
}

/// Converts a behavioural expression into a [`DataExpr`] over input ports.
fn data_expr(m: &hdl::ModuleDef, e: &hdl::Expr) -> Result<DataExpr> {
    Ok(match e {
        hdl::Expr::Port(name) => {
            let Some(pidx) = m.ports.iter().position(|p| p.name == *name) else {
                return err(format!(
                    "unknown port `{name}` in expression in module `{}`",
                    m.name
                ));
            };
            match m.ports[pidx].dir {
                PortDir::In => DataExpr::Port(pidx),
                PortDir::Ctrl => {
                    return err(format!(
                        "control port `{name}` of module `{}` used as data",
                        m.name
                    ))
                }
                PortDir::Out => {
                    return err(format!(
                        "output port `{name}` of module `{}` read in expression",
                        m.name
                    ))
                }
            }
        }
        hdl::Expr::Const(v) => DataExpr::Const(*v),
        hdl::Expr::Slice { base, hi, lo } => {
            let base = data_expr(m, base)?;
            // A constant base has no width of its own (0) to check.
            let width = expr_width(m, &base);
            if width != 0 && *hi >= width {
                return err(format!(
                    "slice [{hi}:{lo}] exceeds width {width} of its base in module `{}`",
                    m.name
                ));
            }
            DataExpr::Slice {
                base: Box::new(base),
                hi: *hi,
                lo: *lo,
            }
        }
        hdl::Expr::Unary { op, arg } => {
            if *op == UnOp::LogicNot {
                return err(format!("`!` is only valid in guards (module `{}`)", m.name));
            }
            DataExpr::Unary {
                op: *op,
                arg: Box::new(data_expr(m, arg)?),
            }
        }
        hdl::Expr::Binary { op, lhs, rhs } => DataExpr::Binary {
            op: *op,
            lhs: Box::new(data_expr(m, lhs)?),
            rhs: Box::new(data_expr(m, rhs)?),
        },
    })
}

/// Converts an expression into a [`CtrlExpr`] over control ports.
fn ctrl_expr(m: &hdl::ModuleDef, e: &hdl::Expr) -> Result<CtrlExpr> {
    Ok(match e {
        hdl::Expr::Port(name) => {
            let Some(pidx) = m.ports.iter().position(|p| p.name == *name) else {
                return err(format!(
                    "unknown port `{name}` in selector in module `{}`",
                    m.name
                ));
            };
            if m.ports[pidx].dir != PortDir::Ctrl {
                return err(format!(
                    "case selector / guard in module `{}` must use control ports, but `{name}` is {:?}",
                    m.name, m.ports[pidx].dir
                ));
            }
            CtrlExpr::Port(pidx)
        }
        hdl::Expr::Const(v) => CtrlExpr::Const(*v),
        hdl::Expr::Slice { base, hi, lo } => {
            let base = ctrl_expr(m, base)?;
            let width = ctrl_width(m, &base);
            if u32::from(*hi) >= width {
                return err(format!(
                    "selector slice [{hi}:{lo}] exceeds width {width} of its base in module `{}`",
                    m.name
                ));
            }
            CtrlExpr::Slice {
                base: Box::new(base),
                hi: *hi,
                lo: *lo,
            }
        }
        other => {
            return err(format!(
                "unsupported selector expression {:?} in module `{}`",
                other, m.name
            ))
        }
    })
}

/// Builds the guard for a comparison of `sel` against constant `value`.
///
/// Comparisons of a bare *data* input port become [`Guard::DataCmp`]: a
/// runtime condition (the branch-if-zero idiom of PC update paths) rather
/// than a decodable instruction-word condition.
fn guard_cmp(m: &hdl::ModuleDef, sel: &hdl::Expr, value: u64) -> Result<Guard> {
    let data_port = match sel {
        hdl::Expr::Port(name) => m
            .ports
            .iter()
            .position(|p| p.name == *name)
            .filter(|&p| m.ports[p].dir == PortDir::In),
        _ => None,
    };
    let (guard, width) = match data_port {
        Some(port) => (
            Guard::DataCmp { port, value },
            u32::from(m.ports[port].width),
        ),
        None => {
            let sel = ctrl_expr(m, sel)?;
            let width = ctrl_width(m, &sel);
            (Guard::Cmp { sel, value }, width)
        }
    };
    if !fits(value, width) {
        return err(format!(
            "`when` constant {value} does not fit the {width}-bit operand it is compared with \
             in module `{}`",
            m.name
        ));
    }
    Ok(guard)
}

/// Width of a control expression in bits (64 for a constant, which
/// control analysis evaluates as a 64-bit vector).
fn ctrl_width(m: &hdl::ModuleDef, e: &CtrlExpr) -> u32 {
    match e {
        CtrlExpr::Port(p) => u32::from(m.ports[*p].width),
        CtrlExpr::Const(_) => 64,
        CtrlExpr::Slice { hi, lo, .. } => u32::from(hi - lo) + 1,
    }
}

/// Can a `width`-bit value equal `value`?  A comparison constant that
/// fails this is a model error: its arm or guard could never hold.
fn fits(value: u64, width: u32) -> bool {
    width >= 64 || value >> width == 0
}

/// Converts a `when` expression into a [`Guard`].
fn guard_expr(m: &hdl::ModuleDef, e: &hdl::Expr) -> Result<Guard> {
    Ok(match e {
        hdl::Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => match (&**lhs, &**rhs) {
            (l, hdl::Expr::Const(v)) => guard_cmp(m, l, *v)?,
            (hdl::Expr::Const(v), r) => guard_cmp(m, r, *v)?,
            _ => {
                return err(format!(
                    "guard comparison must be against a constant (module `{}`)",
                    m.name
                ))
            }
        },
        hdl::Expr::Binary {
            op: BinOp::Ne,
            lhs,
            rhs,
        } => {
            let inner = guard_expr(
                m,
                &hdl::Expr::Binary {
                    op: BinOp::Eq,
                    lhs: lhs.clone(),
                    rhs: rhs.clone(),
                },
            )?;
            Guard::Not(Box::new(inner))
        }
        hdl::Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => guard_expr(m, lhs)?.and(guard_expr(m, rhs)?),
        hdl::Expr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        } => guard_expr(m, lhs)?.or(guard_expr(m, rhs)?),
        hdl::Expr::Unary {
            op: UnOp::LogicNot,
            arg,
        } => Guard::Not(Box::new(guard_expr(m, arg)?)),
        hdl::Expr::Port(_) | hdl::Expr::Slice { .. } => Guard::Cmp {
            sel: ctrl_expr(m, e)?,
            value: 1,
        },
        hdl::Expr::Const(v) => {
            if *v != 0 {
                Guard::True
            } else {
                Guard::False
            }
        }
        other => {
            return err(format!(
                "unsupported guard expression {:?} in module `{}`",
                other, m.name
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// Width checking
// ---------------------------------------------------------------------------

/// Returns the width of `e` in bits, or 0 if width-polymorphic (constants).
fn expr_width(m: &hdl::ModuleDef, e: &DataExpr) -> u16 {
    match e {
        DataExpr::Port(p) => m.ports[*p].width,
        DataExpr::Const(_) => 0,
        DataExpr::Slice { hi, lo, .. } => hi - lo + 1,
        DataExpr::Unary { arg, .. } => expr_width(m, arg),
        DataExpr::Binary { op, lhs, rhs } => match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1,
            BinOp::Shl | BinOp::Shr => expr_width(m, lhs),
            _ => {
                let lw = expr_width(m, lhs);
                if lw != 0 {
                    lw
                } else {
                    expr_width(m, rhs)
                }
            }
        },
    }
}

/// Checks that `e` can drive a sink of width `want`.
///
/// Multiplication results may also be twice the operand width (paper's DSP
/// datapaths keep double-width products in a dedicated register).
fn check_width(m: &hdl::ModuleDef, e: &DataExpr, want: u16, module: &str) -> Result<()> {
    let got = expr_width(m, e);
    if got == 0 || got == want {
        return Ok(());
    }
    if let DataExpr::Binary { op: BinOp::Mul, .. } = e {
        if got * 2 == want {
            return Ok(());
        }
    }
    err(format!(
        "width mismatch in module `{module}`: expression is {got} bits but sink wants {want}"
    ))
}
