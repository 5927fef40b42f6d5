use crate::manager::{Node, OpKey};
use crate::table::{OpCache, MANAGER_OP_CACHE, MANAGER_OP_CACHE_FIRST};
use crate::{Assignment, Bdd, BddCounters, BddManager, BddOverlay, FrozenBdd, VarId};
use proptest::prelude::*;

fn three_vars() -> (BddManager, Bdd, Bdd, Bdd) {
    let mut m = BddManager::new();
    let a = m.var("a");
    let b = m.var("b");
    let c = m.var("c");
    (m, a, b, c)
}

#[test]
fn terminal_constants() {
    let m = BddManager::new();
    assert!(m.is_false(Bdd::FALSE));
    assert!(m.is_true(Bdd::TRUE));
    assert!(m.is_sat(Bdd::TRUE));
    assert!(!m.is_sat(Bdd::FALSE));
    assert_eq!(m.constant(true), Bdd::TRUE);
    assert_eq!(m.constant(false), Bdd::FALSE);
}

#[test]
fn var_is_idempotent() {
    let mut m = BddManager::new();
    let a1 = m.var("a");
    let a2 = m.var("a");
    assert_eq!(a1, a2);
    assert_eq!(m.var_count(), 1);
}

#[test]
fn and_or_basics() {
    let (mut m, a, b, _) = three_vars();
    let ab = m.and(a, b);
    assert!(m.is_sat(ab));
    let na = m.not(a);
    assert!(m.is_false(m.constant(false)));
    let contra = m.and(a, na);
    assert_eq!(contra, Bdd::FALSE);
    let tauto = m.or(a, na);
    assert_eq!(tauto, Bdd::TRUE);
    assert_eq!(m.and(ab, Bdd::TRUE), ab);
    assert_eq!(m.or(ab, Bdd::FALSE), ab);
}

#[test]
fn canonicity_structural_equality() {
    let (mut m, a, b, c) = three_vars();
    // (a&b)|c == (b&a)|c must be the same node.
    let l = {
        let ab = m.and(a, b);
        m.or(ab, c)
    };
    let r = {
        let ba = m.and(b, a);
        m.or(c, ba)
    };
    assert_eq!(l, r);
}

#[test]
fn restrict_and_exists() {
    let (mut m, a, b, _) = three_vars();
    let f = m.and(a, b);
    let va = m.var_id("a");
    let f1 = m.restrict(f, va, true);
    assert_eq!(f1, b);
    let f0 = m.restrict(f, va, false);
    assert_eq!(f0, Bdd::FALSE);
    let ex = m.exists(f, va);
    assert_eq!(ex, b);
}

#[test]
fn sat_count_small() {
    let (mut m, a, b, c) = three_vars();
    // a | b over 3 registered vars: 6 of 8 assignments.
    let f = m.or(a, b);
    assert_eq!(m.sat_count(f), 6);
    let g = m.and(f, c);
    assert_eq!(m.sat_count(g), 3);
    assert_eq!(m.sat_count(Bdd::TRUE), 8);
    assert_eq!(m.sat_count(Bdd::FALSE), 0);
}

#[test]
fn support_set() {
    let (mut m, a, _, c) = three_vars();
    let f = m.and(a, c);
    let sup = m.support(f);
    let names: Vec<_> = sup.iter().map(|&v| m.var_name(v).to_owned()).collect();
    assert_eq!(names, vec!["a", "c"]);
    assert!(m.support(Bdd::TRUE).is_empty());
}

#[test]
fn one_sat_round_trip() {
    let (mut m, a, b, c) = three_vars();
    let nb = m.not(b);
    let f = m.and(a, nb);
    let f = m.and(f, c);
    let lits = m.one_sat(f).unwrap();
    let mut assignment = vec![false; m.var_count()];
    for (v, ph) in lits {
        assignment[v.0 as usize] = ph;
    }
    assert!(m.eval(f, &assignment));
    assert!(m.one_sat(Bdd::FALSE).is_none());
}

#[test]
fn vector_equals_builds_field_conditions() {
    let mut m = BddManager::new();
    let bits: Vec<_> = (0..4).map(|i| m.var(&format!("I[{i}]"))).collect();
    let f5 = m.vector_equals(&bits, 5); // 0101
    assert_eq!(m.sat_count(f5), 1);
    let f3 = m.vector_equals(&bits, 3); // 0011
    let both = m.and(f5, f3);
    assert!(m.is_false(both), "a field cannot be 5 and 3 at once");
}

#[test]
fn assignment_bit_pattern() {
    let mut m = BddManager::new();
    let bits: Vec<_> = (0..4).map(|i| m.var(&format!("I[{i}]"))).collect();
    let f = m.vector_equals(&bits, 0b1010);
    let asg = Assignment::satisfying(&m, f).unwrap();
    assert_eq!(asg.to_bit_pattern(4), "1010");
    assert_eq!(asg.constrained(), 4);
}

#[test]
fn to_cubes_rendering() {
    let (mut m, a, b, _) = three_vars();
    assert_eq!(m.to_cubes(Bdd::FALSE), "0");
    assert_eq!(m.to_cubes(Bdd::TRUE), "1");
    let f = m.and(a, b);
    assert_eq!(m.to_cubes(f), "a&b");
}

#[test]
fn ite_matches_definition() {
    let (mut m, a, b, c) = three_vars();
    let i = m.ite(a, b, c);
    let ab = m.and(a, b);
    let na = m.not(a);
    let nac = m.and(na, c);
    let expect = m.or(ab, nac);
    assert_eq!(i, expect);
}

// ------------------------------------------------------------ frozen/overlay

#[test]
fn frozen_is_send_sync_and_overlay_is_send() {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<FrozenBdd>();
    assert_send::<BddOverlay<'_>>();
}

#[test]
fn frozen_preserves_handles_and_queries() {
    let (mut m, a, b, _) = three_vars();
    let ab = m.and(a, b);
    let count = m.node_count();
    let frozen = m.freeze();
    assert_eq!(frozen.node_count(), count);
    assert_eq!(frozen.var_count(), 3);
    // Queries read the frozen store through an overlay.
    let q = frozen.overlay();
    assert!(q.is_sat(ab));
    assert_eq!(q.sat_count(ab), 2); // a&b over 3 vars
    assert_eq!(q.to_cubes(ab), "a&b");
    assert_eq!(frozen.var_id_of("a"), Some(crate::VarId(0)));
    assert_eq!(frozen.var_id_of("nope"), None);
    let sup = q.support(ab);
    assert_eq!(sup.len(), 2);
}

#[test]
fn overlay_reuses_frozen_nodes() {
    let (mut m, a, b, _) = three_vars();
    let ab = m.and(a, b);
    let frozen = m.freeze();
    let mut s = frozen.overlay();
    // Recreating a function the base owns yields the canonical frozen
    // handle and allocates nothing locally.
    assert_eq!(s.and(a, b), ab);
    assert_eq!(s.local_node_count(), 0);
    // A genuinely new function lands in the session page.
    let c = s.var("c");
    let abc = s.and(ab, c);
    assert!(s.local_node_count() > 0);
    assert!(s.is_sat(abc));
    assert!(s.eval(abc, &[true, true, true]));
    assert!(!s.eval(abc, &[true, true, false]));
}

#[test]
fn overlays_are_isolated_and_deterministic() {
    let (m, a, b, c) = three_vars();
    let frozen = m.freeze();
    let (f1, n1) = {
        let mut s = frozen.overlay();
        let ab = s.and(a, b);
        (s.and(ab, c), s.local_node_count())
    };
    let (f2, n2) = {
        let mut s = frozen.overlay();
        let ab = s.and(a, b);
        (s.and(ab, c), s.local_node_count())
    };
    // Same base, same operations: byte-identical handles and page sizes,
    // regardless of what other overlays did in between.
    assert_eq!(f1, f2);
    assert_eq!(n1, n2);
}

#[test]
fn overlay_registers_new_variables_above_frozen_ones() {
    let (m, _, _, _) = three_vars();
    let frozen = m.freeze();
    let mut s = frozen.overlay();
    // Frozen variables resolve to their frozen ids.
    assert_eq!(s.var_id("a"), crate::VarId(0));
    // New names go above the frozen range, idempotently.
    let d1 = s.var_id("d");
    let d2 = s.var_id("d");
    assert_eq!(d1, d2);
    assert_eq!(d1, crate::VarId(3));
    assert_eq!(s.var_name(d1), "d");
    assert_eq!(s.var_name(crate::VarId(0)), "a");
    assert_eq!(s.var_count(), 4);
    let lit = s.literal(d1, false);
    assert!(s.is_sat(lit));
}

#[test]
fn overlay_vector_equals_matches_manager() {
    let mut m = BddManager::new();
    let bits: Vec<_> = (0..4).map(|i| m.var(&format!("I[{i}]"))).collect();
    let f5 = m.vector_equals(&bits, 5);
    let frozen = m.freeze();
    let mut s = frozen.overlay();
    let again = s.vector_equals(&bits, 5);
    assert_eq!(again, f5);
    let f3 = s.vector_equals(&bits, 3);
    let both = s.and(f5, f3);
    assert!(s.is_false(both));
}

/// A manager with `width` instruction bits `I[0]..`, registered in bit
/// order, with their variables and both literals of each.
fn instruction_bits(width: usize) -> (BddManager, Vec<VarId>, Vec<Bdd>) {
    let mut m = BddManager::new();
    let vars: Vec<VarId> = (0..width).map(|i| m.var_id(&format!("I[{i}]"))).collect();
    let lits = vars
        .iter()
        .map(|&v| {
            m.literal(v, false);
            m.literal(v, true)
        })
        .collect();
    (m, vars, lits)
}

proptest! {
    /// `cube` over variables is `vector_equals` over their positive
    /// literals, bits above the width ignored: the same handle in a
    /// manager, built with no op-cache traffic and at most one node per
    /// bit, and the same handle in an overlay, where the nodes the base
    /// holds come back frozen instead of being made again.
    #[test]
    fn overlay_cube_matches_vector_equals(
        width in prop_oneof![1..=16usize, Just(64usize)],
        value: u64,
        flip: u8,
    ) {
        // `near` differs from `value` in bit `k` alone.
        let k = usize::from(flip) % width;
        let near = value ^ (1 << k);

        let (mut m, vars, lits) = instruction_bits(width);
        let before = m.counters();
        let c = m.cube(&vars, value);
        let work = m.counters().delta(&before);
        prop_assert_eq!(work.op_hits + work.op_misses, 0);
        prop_assert!(work.nodes <= width as u64, "{} nodes", work.nodes);
        prop_assert_eq!(m.vector_equals(&lits, value), c);
        let held = m.vector_equals(&lits, near);
        prop_assert_eq!(m.cube(&vars, near), held);
        if width < 64 {
            prop_assert_eq!(m.cube(&vars, value & ((1 << width) - 1)), c);
        }

        // A base that holds `near`'s cube, built as extraction builds.
        let (mut b, vars, lits) = instruction_bits(width);
        let held = b.vector_equals(&lits, near);
        let frozen = b.freeze();
        let mut s = frozen.overlay();
        prop_assert_eq!(s.cube(&vars, near), held);
        prop_assert_eq!(s.local_node_count(), 0);
        // The nodes of the bits above `k` are the base's, and so is bit
        // `k`'s when it is the last bit's bare literal; the rest are new.
        let c = s.cube(&vars, value);
        let made = if k + 1 == width { k } else { k + 1 };
        prop_assert_eq!(s.local_node_count(), made);
        prop_assert_eq!(s.vector_equals(&lits, value), c);
    }
}

// ---------------------------------------------------------------------------
// Property tests: BDD operations agree with a brute-force truth-table oracle
// over up to 5 variables.
// ---------------------------------------------------------------------------

/// A tiny Boolean expression AST for the oracle.
#[derive(Debug, Clone)]
enum BExp {
    Var(usize),
    Const(bool),
    Not(Box<BExp>),
    And(Box<BExp>, Box<BExp>),
    Or(Box<BExp>, Box<BExp>),
    Xor(Box<BExp>, Box<BExp>),
}

fn bexp_strategy(nvars: usize) -> impl Strategy<Value = BExp> {
    let leaf = prop_oneof![
        (0..nvars).prop_map(BExp::Var),
        any::<bool>().prop_map(BExp::Const),
    ];
    leaf.prop_recursive(5, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| BExp::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BExp::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BExp::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| BExp::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn eval_bexp(e: &BExp, asg: &[bool]) -> bool {
    match e {
        BExp::Var(i) => asg[*i],
        BExp::Const(c) => *c,
        BExp::Not(a) => !eval_bexp(a, asg),
        BExp::And(a, b) => eval_bexp(a, asg) && eval_bexp(b, asg),
        BExp::Or(a, b) => eval_bexp(a, asg) || eval_bexp(b, asg),
        BExp::Xor(a, b) => eval_bexp(a, asg) ^ eval_bexp(b, asg),
    }
}

fn build_bdd(m: &mut BddOverlay<'_>, e: &BExp) -> Bdd {
    match e {
        BExp::Var(i) => m.var(&format!("v{i}")),
        BExp::Const(c) => m.constant(*c),
        BExp::Not(a) => {
            let x = build_bdd(m, a);
            m.not(x)
        }
        BExp::And(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.and(x, y)
        }
        BExp::Or(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.or(x, y)
        }
        BExp::Xor(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.xor(x, y)
        }
    }
}

const NVARS: usize = 5;

fn fresh_manager() -> BddManager {
    let mut m = BddManager::new();
    for i in 0..NVARS {
        m.var(&format!("v{i}"));
    }
    m
}

proptest! {
    #[test]
    fn bdd_agrees_with_truth_table(e in bexp_strategy(NVARS)) {
        let mut m = fresh_manager();
        let f = build_bdd(&mut m, &e);
        for bits in 0u32..(1 << NVARS) {
            let asg: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(m.eval(f, &asg), eval_bexp(&e, &asg));
        }
    }

    #[test]
    fn sat_count_matches_truth_table(e in bexp_strategy(NVARS)) {
        let mut m = fresh_manager();
        let f = build_bdd(&mut m, &e);
        let expected = (0u32..(1 << NVARS))
            .filter(|bits| {
                let asg: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
                eval_bexp(&e, &asg)
            })
            .count() as u128;
        prop_assert_eq!(m.sat_count(f), expected);
    }

    #[test]
    fn de_morgan(a in bexp_strategy(3), b in bexp_strategy(3)) {
        let mut m = fresh_manager();
        let fa = build_bdd(&mut m, &a);
        let fb = build_bdd(&mut m, &b);
        let ab = m.and(fa, fb);
        let l = m.not(ab);
        let na = m.not(fa);
        let nb = m.not(fb);
        let r = m.or(na, nb);
        prop_assert_eq!(l, r);
    }

    #[test]
    fn double_negation(e in bexp_strategy(4)) {
        let mut m = fresh_manager();
        let f = build_bdd(&mut m, &e);
        let nf = m.not(f);
        let nnf = m.not(nf);
        prop_assert_eq!(nnf, f);
    }

    #[test]
    fn one_sat_is_satisfying(e in bexp_strategy(NVARS)) {
        let mut m = fresh_manager();
        let f = build_bdd(&mut m, &e);
        if let Some(lits) = m.one_sat(f) {
            let mut asg = vec![false; NVARS];
            for (v, ph) in lits {
                asg[v.0 as usize] = ph;
            }
            prop_assert!(m.eval(f, &asg));
        } else {
            prop_assert_eq!(f, Bdd::FALSE);
        }
    }

    /// An overlay over a frozen base computes exactly what a lone mutable
    /// manager computes, for any split of the work between base and
    /// session: `a` is built (and frozen) in the manager, `b` and the
    /// combination in the overlay.
    #[test]
    fn overlay_agrees_with_manager(a in bexp_strategy(NVARS), b in bexp_strategy(NVARS)) {
        // Oracle: everything in one mutable manager.
        let mut m1 = fresh_manager();
        let fa1 = build_bdd(&mut m1, &a);
        let fb1 = build_bdd(&mut m1, &b);
        let and1 = m1.and(fa1, fb1);
        let or1 = m1.or(fa1, fb1);

        // Split: `a` is retarget-time (frozen), `b` is compile-time.
        let mut m2 = fresh_manager();
        let fa2 = build_bdd(&mut m2, &a);
        let frozen = m2.freeze();
        let mut s = frozen.overlay();
        let fb2 = build_bdd(&mut s, &b);
        let and2 = s.and(fa2, fb2);
        let or2 = s.or(fa2, fb2);

        for bits in 0u32..(1 << NVARS) {
            let asg: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(s.eval(and2, &asg), m1.eval(and1, &asg));
            prop_assert_eq!(s.eval(or2, &asg), m1.eval(or1, &asg));
            prop_assert_eq!(s.eval(fb2, &asg), m1.eval(fb1, &asg));
        }
        // Satisfiability agrees too (constant-time check used by compaction).
        prop_assert_eq!(s.is_sat(and2), m1.is_sat(and1));
    }

    #[test]
    fn restrict_is_cofactor(e in bexp_strategy(NVARS), var in 0..NVARS, val: bool) {
        let mut m = fresh_manager();
        let f = build_bdd(&mut m, &e);
        let vid = m.var_id(&format!("v{var}"));
        let g = m.restrict(f, vid, val);
        for bits in 0u32..(1 << NVARS) {
            let mut asg: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            asg[var] = val;
            prop_assert_eq!(m.eval(g, &asg), m.eval(f, &asg));
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests of the fast-path storage layer (PR 3).
//
// `RefManager` below is a deliberately naive reimplementation of the
// kernel as it existed before the custom tables: `std::collections`
// HashMaps for the unique table and an *unbounded* operation cache, the
// same apply recursion.  Driving random operation sequences through both
// pins the storage refactor's contract: identical truth tables AND
// identical canonical node handles, op by op.
// ---------------------------------------------------------------------------

/// The pre-refactor reference kernel: HashMap unique table, unbounded
/// HashMap op-cache, identical reduction rules.
struct RefManager {
    nodes: Vec<(u32, u32, u32)>, // (var, lo, hi); slots 0/1 are terminals
    unique: std::collections::HashMap<(u32, u32, u32), u32>,
    cache: std::collections::HashMap<(u8, u32, u32), u32>,
    nvars: u32,
}

impl RefManager {
    fn new(nvars: u32) -> RefManager {
        RefManager {
            nodes: vec![(u32::MAX, 0, 0); 2],
            unique: std::collections::HashMap::new(),
            cache: std::collections::HashMap::new(),
            nvars,
        }
    }

    fn literal(&mut self, var: u32) -> u32 {
        assert!(var < self.nvars);
        self.mk(var, 0, 1)
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let key = (var, lo, hi);
        if let Some(&b) = self.unique.get(&key) {
            return b;
        }
        let b = self.nodes.len() as u32;
        self.nodes.push(key);
        self.unique.insert(key, b);
        b
    }

    fn cofactors(&self, f: u32, var: u32) -> (u32, u32) {
        if f <= 1 {
            return (f, f);
        }
        let (v, lo, hi) = self.nodes[f as usize];
        if v == var {
            (lo, hi)
        } else {
            (f, f)
        }
    }

    fn top_var(&self, a: u32, b: u32) -> u32 {
        let va = if a > 1 {
            self.nodes[a as usize].0
        } else {
            u32::MAX
        };
        let vb = if b > 1 {
            self.nodes[b as usize].0
        } else {
            u32::MAX
        };
        va.min(vb)
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        if a == 0 || b == 0 {
            return 0;
        }
        if a == 1 {
            return b;
        }
        if b == 1 || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.cache.get(&(0, a, b)) {
            return r;
        }
        let v = self.top_var(a, b);
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let lo = self.and(a0, b0);
        let hi = self.and(a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache.insert((0, a, b), r);
        r
    }

    fn or(&mut self, a: u32, b: u32) -> u32 {
        if a == 1 || b == 1 {
            return 1;
        }
        if a == 0 {
            return b;
        }
        if b == 0 || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.cache.get(&(1, a, b)) {
            return r;
        }
        let v = self.top_var(a, b);
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let lo = self.or(a0, b0);
        let hi = self.or(a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache.insert((1, a, b), r);
        r
    }

    fn xor(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return 0;
        }
        if a == 0 {
            return b;
        }
        if b == 0 {
            return a;
        }
        if a == 1 {
            return self.not(b);
        }
        if b == 1 {
            return self.not(a);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.cache.get(&(2, a, b)) {
            return r;
        }
        let v = self.top_var(a, b);
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let lo = self.xor(a0, b0);
        let hi = self.xor(a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache.insert((2, a, b), r);
        r
    }

    fn not(&mut self, a: u32) -> u32 {
        if a == 0 {
            return 1;
        }
        if a == 1 {
            return 0;
        }
        if let Some(&r) = self.cache.get(&(3, a, 0)) {
            return r;
        }
        let (v, lo, hi) = self.nodes[a as usize];
        let nlo = self.not(lo);
        let nhi = self.not(hi);
        let r = self.mk(v, nlo, nhi);
        self.cache.insert((3, a, 0), r);
        r
    }

    fn eval(&self, f: u32, asg: &[bool]) -> bool {
        let mut cur = f;
        loop {
            if cur == 0 {
                return false;
            }
            if cur == 1 {
                return true;
            }
            let (v, lo, hi) = self.nodes[cur as usize];
            cur = if asg[v as usize] { hi } else { lo };
        }
    }
}

/// One step of a random op sequence: an opcode plus operand picks (taken
/// modulo the current pool size, so any u32 is valid).
type RandOp = (u8, u32, u32);

fn apply_seq_ref(m: &mut RefManager, nvars: u32, seq: &[RandOp]) -> Vec<u32> {
    let mut pool: Vec<u32> = (0..nvars).map(|v| m.literal(v)).collect();
    for &(opc, x, y) in seq {
        let a = pool[x as usize % pool.len()];
        let b = pool[y as usize % pool.len()];
        let r = match opc % 4 {
            0 => m.and(a, b),
            1 => m.or(a, b),
            2 => m.xor(a, b),
            _ => m.not(a),
        };
        pool.push(r);
    }
    pool
}

fn apply_seq_fast(m: &mut BddOverlay<'_>, nvars: u32, seq: &[RandOp]) -> Vec<Bdd> {
    let mut pool: Vec<Bdd> = (0..nvars).map(|v| m.var(&format!("v{v}"))).collect();
    extend_pool(m, &mut pool, seq);
    pool
}

/// Runs `seq` on top of an existing pool (operand picks index the whole
/// pool, as in [`apply_seq_ref`]).
fn extend_pool(m: &mut BddOverlay<'_>, pool: &mut Vec<Bdd>, seq: &[RandOp]) {
    for &(opc, x, y) in seq {
        let a = pool[x as usize % pool.len()];
        let b = pool[y as usize % pool.len()];
        let r = match opc % 4 {
            0 => m.and(a, b),
            1 => m.or(a, b),
            2 => m.xor(a, b),
            _ => m.not(a),
        };
        pool.push(r);
    }
}

proptest! {
    /// The custom unique table / lossy op-cache produce exactly the
    /// handles and truth tables of the HashMap reference path, for any
    /// op sequence.
    #[test]
    fn fast_tables_match_reference_path(
        seq in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..48)
    ) {
        let nvars = NVARS as u32;
        let mut reference = RefManager::new(nvars);
        let ref_pool = apply_seq_ref(&mut reference, nvars, &seq);

        let mut fast = fresh_manager();
        let fast_pool = apply_seq_fast(&mut fast, nvars, &seq);

        // Identical canonical handles, op by op: handle i of the fast
        // path is the same node index the reference assigned.
        prop_assert_eq!(ref_pool.len(), fast_pool.len());
        for (r, f) in ref_pool.iter().zip(&fast_pool) {
            prop_assert_eq!(*r, f.0);
        }
        // Identical node stores (count), identical truth tables.
        prop_assert_eq!(reference.nodes.len() - 2, fast.node_count());
        for bits in 0u32..(1 << NVARS) {
            let asg: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            for (r, f) in ref_pool.iter().zip(&fast_pool) {
                prop_assert_eq!(reference.eval(*r, &asg), fast.eval(*f, &asg));
            }
        }
    }

    /// Same contract across the freeze boundary: a session overlay over a
    /// frozen base assigns the very same handles the reference does when
    /// the whole sequence runs in one store.
    #[test]
    fn overlay_tables_match_reference_path(
        split in 0usize..24,
        seq in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..24)
    ) {
        let nvars = NVARS as u32;
        let mut reference = RefManager::new(nvars);
        let ref_pool = apply_seq_ref(&mut reference, nvars, &seq);

        // First `split` ops retarget-time, rest in a session overlay.
        let split = split % (seq.len() + 1);
        let mut m = fresh_manager();
        let pre = apply_seq_fast(&mut m, nvars, &seq[..split]);
        let frozen = m.freeze();
        let mut session = frozen.overlay();
        let mut pool = pre;
        extend_pool(&mut session, &mut pool, &seq[split..]);
        prop_assert_eq!(ref_pool.len(), pool.len());
        for (r, f) in ref_pool.iter().zip(&pool) {
            prop_assert_eq!(*r, f.0);
        }
    }
}

/// The random sequences above are too short to fill a retarget-scale
/// op-cache; this fixed one runs 2,000 ops in the manager, so its
/// cache sees thousands of inserts, then continues for 500 more in a
/// session overlay.  Every handle must still be the reference's.
#[test]
fn long_sequence_matches_reference_across_freeze() {
    let seq: Vec<RandOp> = (0..2_500u32)
        .map(|i| {
            let x = i.wrapping_mul(0x2545_F491);
            ((x >> 3) as u8, x, x.rotate_left(17))
        })
        .collect();
    let (retarget, session) = seq.split_at(2_000);
    let nvars = NVARS as u32;
    let mut reference = RefManager::new(nvars);
    let ref_pool = apply_seq_ref(&mut reference, nvars, &seq);

    let mut m = fresh_manager();
    let mut pool = apply_seq_fast(&mut m, nvars, retarget);
    let handles: Vec<u32> = pool.iter().map(|f| f.0).collect();
    assert_eq!(handles, ref_pool[..pool.len()]);
    let counters = m.counters();
    assert!(
        counters.op_misses > 2_000,
        "every miss is an insert; only {} happened",
        counters.op_misses
    );
    assert!(counters.op_hits > 0);
    // The cache grew from its first size by at least three doublings,
    // and no further than its cap.
    let lines = m.cache.lines();
    assert!(lines >= MANAGER_OP_CACHE_FIRST << 3, "only {lines} lines");
    assert!(lines <= MANAGER_OP_CACHE, "{lines} lines");

    // A frozen store has no op cache, so freezing frees the lines.
    let frozen = m.freeze();
    assert_eq!(frozen.counters(), counters, "but keeps the counters");
    let mut overlay = frozen.overlay();
    extend_pool(&mut overlay, &mut pool, session);
    let handles: Vec<u32> = pool.iter().map(|f| f.0).collect();
    assert_eq!(handles, ref_pool);
    assert!(overlay.local_node_count() > 0, "the session made nodes");
    assert_eq!(reference.nodes.len() - 2, overlay.node_count());
}

/// Every frozen node with its handle, in handle order.
fn frozen_nodes(frozen: &FrozenBdd) -> Vec<(Bdd, Node)> {
    let nodes = &frozen.nodes;
    (0..nodes.len())
        .map(|i| (Bdd(i as u32 + 2), nodes[i]))
        .collect()
}

/// Freezing keeps every node reachable through the frozen unique table,
/// not only the few a reference-path test happens to recreate: an
/// overlay that re-makes each frozen node's `(var, lo, hi)` gets that
/// node's frozen handle back and allocates nothing of its own.
#[test]
fn freezing_keeps_every_node_findable() {
    let nvars = 12;
    let mut m = BddManager::new();
    let seq: Vec<RandOp> = (0..400u32)
        .map(|i| {
            let x = i.wrapping_mul(0x27D4_EB2F);
            ((x >> 13) as u8, x, x.rotate_left(11))
        })
        .collect();
    apply_seq_fast(&mut m, nvars, &seq);
    let count = m.node_count();
    assert!(count >= 300, "only {count} nodes");

    let frozen = m.freeze();
    let nodes = frozen_nodes(&frozen);
    assert_eq!(nodes.len(), count);
    let mut s = frozen.overlay();
    for (handle, n) in nodes {
        assert_eq!(s.mk(n.var, n.lo, n.hi), handle);
    }
    assert_eq!(s.local_node_count(), 0, "every node was found, none made");
}

/// A clear vacates every line however many clears came before it: a
/// line written once and never again is not read after any later clear,
/// across two turns of the cache's one-byte epoch.
#[test]
fn op_cache_clear_vacates_across_epoch_wraps() {
    let mut cache = OpCache::default();
    let key = OpKey::And(Bdd(2), Bdd(3));
    cache.insert(key, Bdd(4));
    assert_eq!(cache.lookup(key), Some(Bdd(4)));
    for clears in 1..=600 {
        cache.clear();
        assert_eq!(cache.lookup(key), None, "after {clears} clears");
    }
    cache.insert(key, Bdd(5));
    assert_eq!(cache.lookup(key), Some(Bdd(5)));
}

/// The direct-mapped op-cache is lossy by design: a tiny cache must
/// change only the hit rate, never any result handle.
#[test]
fn lossy_op_cache_changes_hit_rate_not_results() {
    let seq: Vec<RandOp> = (0..200u32)
        .map(|i| {
            // A fixed pseudo-random but deterministic op sequence.
            let x = i.wrapping_mul(2654435761);
            ((x >> 7) as u8, x, x.rotate_left(13))
        })
        .collect();
    let nvars = NVARS as u32;

    let mut big = BddManager::new();
    for v in 0..nvars {
        big.var(&format!("v{v}"));
    }
    let big_pool = apply_seq_fast(&mut big, nvars, &seq);

    // Two lines: essentially permanent collision pressure.
    let mut tiny = BddManager::new();
    tiny.cache = OpCache::new(2, 2);
    for v in 0..nvars {
        tiny.var(&format!("v{v}"));
    }
    let tiny_pool = apply_seq_fast(&mut tiny, nvars, &seq);

    assert_eq!(big_pool, tiny_pool, "handles must not depend on cache size");
    assert_eq!(big.node_count(), tiny.node_count());

    assert_eq!(tiny.cache.lines(), 2, "the cap held");
    let (big, tiny) = (big.counters(), tiny.counters());
    assert!(tiny.op_hits + tiny.op_misses > 0, "cache was exercised");
    assert!(
        tiny.op_cache_hit_rate() <= big.op_cache_hit_rate(),
        "tiny cache {} should not out-hit the big one {}",
        tiny.op_cache_hit_rate(),
        big.op_cache_hit_rate()
    );
    assert!(big.op_hits >= tiny.op_hits);
}

/// The probe-length counter observes real work: after enough inserts the
/// mean probe length is at least one and stays small at our load factor.
#[test]
fn unique_table_probe_counter_is_sane() {
    let mut m = fresh_manager();
    let seq: Vec<RandOp> = (0..300u32)
        .map(|i| {
            let x = i.wrapping_mul(0x9E3779B9);
            ((x >> 11) as u8, x, x.rotate_right(9))
        })
        .collect();
    apply_seq_fast(&mut m, NVARS as u32, &seq);
    let p = m.counters().unique_avg_probe_len();
    assert!(p >= 1.0, "lookups happened, so probes were counted: {p}");
    assert!(p < 4.0, "linear probing at 3/4 load should stay short: {p}");
}

/// Runs `seq` on `s` and returns the handles with the counter deltas the
/// run caused.
fn replay(s: &mut BddOverlay<'_>, seq: &[RandOp]) -> (Vec<Bdd>, BddCounters) {
    let before = s.counters();
    let pool = apply_seq_fast(s, NVARS as u32, seq);
    (pool, s.counters().delta(&before))
}

/// A reset overlay is observationally fresh: replaying the same op
/// sequence after `reset()` yields the exact handles a brand-new overlay
/// assigns and does the same work (every counter moves by as much), and
/// recycled pages behave the same via `overlay_from`.  Equal op-cache
/// counts mean no line written before the reset answered a lookup after
/// it, even one holding a result that would still be correct.
#[test]
fn reset_overlay_replays_identical_handles() {
    let mut m = fresh_manager();
    let warm: Vec<RandOp> = (0..60u32)
        .map(|i| {
            let x = i.wrapping_mul(0x85EB_CA6B);
            ((x >> 9) as u8, x, x.rotate_left(7))
        })
        .collect();
    apply_seq_fast(&mut m, NVARS as u32, &warm);
    let frozen = m.freeze();

    let seq: Vec<RandOp> = (0..120u32)
        .map(|i| {
            let x = i.wrapping_mul(0xC2B2_AE35);
            ((x >> 5) as u8, x, x.rotate_right(11))
        })
        .collect();

    let mut fresh = frozen.overlay();
    let (expected, work) = replay(&mut fresh, &seq);
    assert!(work.op_hits > 0 && work.op_misses > 0 && work.nodes > 0);

    // Dirty an overlay with a different sequence, reset, then replay.
    let mut reused = frozen.overlay();
    apply_seq_fast(&mut reused, NVARS as u32, &warm);
    reused.var("late-session-var");
    reused.reset();
    assert_eq!(reused.local_node_count(), 0);
    let (replayed, reused_work) = replay(&mut reused, &seq);
    assert_eq!(replayed, expected, "reset overlay must replay identically");
    assert_eq!(
        reused_work, work,
        "reset overlay must count like a fresh one"
    );

    // Pages survive a round-trip through the lifetime-free form.  Their
    // unique table keeps the slots the replay grew it to, so its probe
    // chains are shorter than a growing table's: probes are the one
    // counter a page's capacity moves.
    let pages = reused.into_pages();
    let mut recycled = frozen.overlay_from(pages);
    let (again, recycled_work) = replay(&mut recycled, &seq);
    assert_eq!(again, expected, "recycled pages must replay identically");
    let recycled_work = BddCounters {
        unique_probes: work.unique_probes,
        ..recycled_work
    };
    assert_eq!(
        recycled_work, work,
        "recycled pages must count like fresh ones"
    );
}

/// Many resets of one overlay: every replay after a reset gives a fresh
/// overlay's handles and counter deltas.  The ops overwrite op-cache
/// lines that later replays look up again, and 600 resets are more than
/// two full turns of any small per-reset stamp a cache might keep.
///
/// The replayed sequence makes fewer local nodes than the unique table's
/// first allocation holds, so the reused table probes like a fresh one.
#[test]
fn many_resets_replay_like_a_fresh_overlay() {
    let frozen = fresh_manager().freeze();
    let seq: Vec<RandOp> = (0..40u32)
        .map(|i| {
            let x = i.wrapping_mul(0x2545_F491);
            ((x >> 3) as u8, x, x.rotate_left(9))
        })
        .collect();
    let (expected, work) = replay(&mut frozen.overlay(), &seq);
    assert!(work.op_hits > 0 && work.op_misses > 0);
    assert!(
        work.nodes > 0 && work.nodes < 48,
        "{} local nodes",
        work.nodes
    );

    let mut s = frozen.overlay();
    for round in 0..600 {
        let (handles, counted) = replay(&mut s, &seq);
        assert_eq!(handles, expected, "handles after {round} resets");
        assert_eq!(counted, work, "counters after {round} resets");
        s.reset();
    }
}
