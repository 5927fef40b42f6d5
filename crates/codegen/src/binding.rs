//! Variable binding: program variables → data-memory addresses.
//!
//! Most variables go to the target's data memory.  When the target also
//! exposes a *constant memory* — a ROM whose read port feeds only the
//! multiplier, like a DSP coefficient store — read-only variables whose
//! every use is a multiplier operand can be placed there instead, freeing
//! data-memory words and making `mul(coef, x)`-shaped rules applicable.

use crate::error::CodegenError;
use record_ir::{Cfg, FlatExpr, Program, Ref};
use record_netlist::{Netlist, StorageId, StorageKind};
use record_rtl::OpKind;
use std::collections::{BTreeMap, BTreeSet};

/// Placement of program variables in the target's data memory (plus,
/// optionally, its constant memory), and a scratch area for spills and
/// compiler temporaries.
#[derive(Debug, Clone)]
pub struct Binding {
    data_mem: StorageId,
    mem_name: String,
    mem_size: u64,
    map: BTreeMap<String, u64>,
    /// The constant memory, when the target has one and placement used it.
    rom: Option<StorageId>,
    /// Variables placed in the constant memory (name → base address).
    rom_map: BTreeMap<String, u64>,
    scratch_next: u64,
}

impl Binding {
    /// Lays out all globals and locals of `function` sequentially from
    /// address 0 of `data_mem`; scratch slots follow the variables.
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::OutOfStorage`] if the variables do not fit,
    /// and [`CodegenError::UnboundVariable`] if `function` does not exist.
    pub fn allocate(
        program: &Program,
        function: &str,
        netlist: &Netlist,
        data_mem: StorageId,
    ) -> Result<Binding, CodegenError> {
        Binding::allocate_with_const_mem(program, function, netlist, data_mem, None)
    }

    /// Like [`Binding::allocate`], but given `Some((rom, cfg))` may place
    /// read-only variables into the constant memory `rom` when `cfg` (the
    /// function's lowered body) proves every one of their reads feeds a
    /// multiply.  Branch conditions count as reads, so a word a
    /// terminator tests is never ROM-eligible.
    ///
    /// Eligibility is conservative: a variable qualifies only if it is
    /// never written, is read at least once, and every read is a direct
    /// operand of a `*`.  When both operands of one multiply would end up
    /// in the ROM (the read port serves one operand per cycle), the
    /// right operand is demoted back to data memory; variables that no
    /// longer fit the ROM are demoted from the end of declaration order.
    ///
    /// # Errors
    ///
    /// Same as [`Binding::allocate`] (capacity is checked after ROM
    /// placement, so moving coefficients out can make a kernel fit).
    pub fn allocate_with_const_mem(
        program: &Program,
        function: &str,
        netlist: &Netlist,
        data_mem: StorageId,
        const_mem: Option<(StorageId, &Cfg)>,
    ) -> Result<Binding, CodegenError> {
        let storage = netlist.storage(data_mem);
        assert_eq!(
            storage.kind,
            StorageKind::Memory,
            "binding target must be a data memory"
        );
        let f = program
            .function(function)
            .ok_or_else(|| CodegenError::UnboundVariable {
                name: function.to_owned(),
            })?;

        let rom_vars = match const_mem {
            Some((_, cfg)) => rom_placeable(cfg),
            None => BTreeSet::new(),
        };
        let const_mem = const_mem.map(|(rom, _)| rom);
        let rom_size = const_mem.map_or(0, |rom| netlist.storage(rom).size);

        let mut map = BTreeMap::new();
        let mut rom_map = BTreeMap::new();
        let mut next = 0u64;
        let mut rom_next = 0u64;
        for d in program.globals.iter().chain(&f.locals) {
            // ROM capacity is enforced here, against declared sizes and in
            // declaration order, so overflow demotes the later variables.
            if rom_vars.contains(&d.name) && rom_next + d.words() <= rom_size {
                rom_map.insert(d.name.clone(), rom_next);
                rom_next += d.words();
            } else {
                map.insert(d.name.clone(), next);
                next += d.words();
            }
        }
        if next > storage.size {
            return Err(CodegenError::OutOfStorage {
                storage: storage.name.clone(),
                detail: format!(
                    "variables need {next} words but only {} exist",
                    storage.size
                ),
            });
        }
        Ok(Binding {
            data_mem,
            mem_name: storage.name.clone(),
            mem_size: storage.size,
            map,
            rom: const_mem.filter(|_| !rom_map.is_empty()),
            rom_map,
            scratch_next: next,
        })
    }

    /// The data memory variables live in.
    pub fn data_mem(&self) -> StorageId {
        self.data_mem
    }

    /// The constant memory, when any variable was placed there.
    pub fn const_mem(&self) -> Option<StorageId> {
        self.rom
    }

    /// The storage a variable reference reads from (constant memory for
    /// ROM-placed variables, data memory for everything else, including
    /// `$scratch` temporaries).
    pub fn storage_of(&self, r: &Ref) -> StorageId {
        match self.rom {
            Some(rom) if self.rom_map.contains_key(&r.name) => rom,
            _ => self.data_mem,
        }
    }

    /// Address of a variable reference (in [`Binding::storage_of`] its
    /// reference).
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::UnboundVariable`] for unknown names.
    pub fn addr_of(&self, r: &Ref) -> Result<u64, CodegenError> {
        self.map
            .get(&r.name)
            .or_else(|| self.rom_map.get(&r.name))
            .map(|base| base + r.offset)
            .ok_or_else(|| CodegenError::UnboundVariable {
                name: r.name.clone(),
            })
    }

    /// Reserves a fresh scratch word (spill slot / temporary).
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::OutOfStorage`] when the memory is full.
    pub fn scratch(&mut self) -> Result<u64, CodegenError> {
        if self.scratch_next >= self.mem_size {
            return Err(CodegenError::OutOfStorage {
                storage: self.mem_name.clone(),
                detail: format!(
                    "no scratch space left: watermark {} of {} words",
                    self.scratch_next, self.mem_size
                ),
            });
        }
        let a = self.scratch_next;
        self.scratch_next += 1;
        Ok(a)
    }

    /// Addresses currently assigned in data memory (variable name → base
    /// address).
    pub fn assignments(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Addresses assigned in the constant memory (variable name → base
    /// address); empty unless placement used a ROM.
    pub fn rom_assignments(&self) -> impl Iterator<Item = (&str, u64)> {
        self.rom_map.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Current scratch watermark; pass to [`Binding::release_scratch`] to
    /// reuse temporary space between statements.
    pub fn scratch_mark(&self) -> u64 {
        self.scratch_next
    }

    /// Releases scratch slots back to `mark` (obtained from
    /// [`Binding::scratch_mark`]).
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::OutOfStorage`] when `mark` lies above the
    /// current watermark — releasing space that was never reserved is a
    /// caller bug that would silently leak scratch words in release
    /// builds.
    pub fn release_scratch(&mut self, mark: u64) -> Result<(), CodegenError> {
        if mark > self.scratch_next {
            return Err(CodegenError::OutOfStorage {
                storage: self.mem_name.clone(),
                detail: format!(
                    "release_scratch(mark {mark}) above watermark {}",
                    self.scratch_next
                ),
            });
        }
        self.scratch_next = mark;
        Ok(())
    }
}

/// The set of variable names eligible for constant-memory placement in
/// `cfg`, after multiplier-port conflicts are resolved (ROM capacity is
/// enforced later, during layout, against declared sizes).  Statements
/// are scanned before branch conditions.
fn rom_placeable(cfg: &Cfg) -> BTreeSet<String> {
    #[derive(Default)]
    struct Use {
        reads: u64,
        mul_reads: u64,
        written: bool,
    }
    let mut uses: BTreeMap<String, Use> = BTreeMap::new();

    fn scan(e: &FlatExpr, under_mul: bool, uses: &mut BTreeMap<String, Use>) {
        match e {
            FlatExpr::Const(_) => {}
            FlatExpr::Load(r) => {
                let u = uses.entry(r.name.clone()).or_default();
                u.reads += 1;
                if under_mul {
                    u.mul_reads += 1;
                }
            }
            FlatExpr::Unary(_, a) => scan(a, false, uses),
            FlatExpr::Binary(op, l, r) => {
                let mul = *op == OpKind::Mul;
                scan(l, mul, uses);
                scan(r, mul, uses);
            }
        }
    }
    for s in cfg.stmts() {
        uses.entry(s.target.name.clone()).or_default().written = true;
        scan(&s.value, false, &mut uses);
    }
    for cond in cfg.conditions() {
        scan(cond, false, &mut uses);
    }

    let mut eligible: BTreeSet<String> = uses
        .into_iter()
        .filter(|(_, u)| !u.written && u.reads > 0 && u.reads == u.mul_reads)
        .map(|(n, _)| n)
        .collect();

    // One ROM read per multiply: when both operands would live in the
    // ROM, demote the right one (deterministically, in statement order).
    fn demote_conflicts(e: &FlatExpr, eligible: &mut BTreeSet<String>) {
        match e {
            FlatExpr::Const(_) | FlatExpr::Load(_) => {}
            FlatExpr::Unary(_, a) => demote_conflicts(a, eligible),
            FlatExpr::Binary(op, l, r) => {
                if *op == OpKind::Mul {
                    if let (FlatExpr::Load(a), FlatExpr::Load(b)) = (&**l, &**r) {
                        if eligible.contains(&a.name) && eligible.contains(&b.name) {
                            eligible.remove(&b.name);
                        }
                    }
                }
                demote_conflicts(l, eligible);
                demote_conflicts(r, eligible);
            }
        }
    }
    for e in cfg.stmts().map(|s| &s.value).chain(cfg.conditions()) {
        demote_conflicts(e, &mut eligible);
    }
    eligible
}
