use crate::*;
use proptest::prelude::*;
use record_bdd::Bdd;
use record_netlist::StorageId;

fn reg(i: u32) -> Pattern {
    Pattern::Reg(StorageId(i))
}

#[test]
fn op_arity_and_commutativity() {
    assert_eq!(OpKind::Add.arity(), 2);
    assert_eq!(OpKind::Not.arity(), 1);
    assert_eq!(OpKind::Slice(7, 0).arity(), 1);
    assert!(OpKind::Add.is_commutative());
    assert!(OpKind::Mul.is_commutative());
    assert!(!OpKind::Sub.is_commutative());
    assert!(!OpKind::Shl.is_commutative());
}

#[test]
fn op_eval_wraps_to_width() {
    assert_eq!(OpKind::Add.eval(&[0xFFFF, 1], 16), 0);
    assert_eq!(OpKind::Sub.eval(&[0, 1], 16), 0xFFFF);
    assert_eq!(OpKind::Mul.eval(&[0x8000, 2], 16), 0);
    assert_eq!(OpKind::Neg.eval(&[1], 8), 0xFF);
    assert_eq!(OpKind::Not.eval(&[0], 4), 0xF);
}

#[test]
fn op_eval_signed_comparisons() {
    // 0xFFFF is -1 in 16-bit two's complement.
    assert_eq!(OpKind::Lt.eval(&[0xFFFF, 0], 16), 1);
    assert_eq!(OpKind::Gt.eval(&[0x7FFF, 0xFFFF], 16), 1);
    assert_eq!(OpKind::Ge.eval(&[5, 5], 16), 1);
}

#[test]
fn op_eval_division_by_zero_is_zero() {
    assert_eq!(OpKind::Div.eval(&[42, 0], 16), 0);
    assert_eq!(OpKind::Rem.eval(&[42, 0], 16), 0);
}

#[test]
fn op_eval_shift_saturation() {
    assert_eq!(OpKind::Shl.eval(&[1, 20], 16), 0);
    assert_eq!(OpKind::Shr.eval(&[0x8000, 20], 16), 0);
}

#[test]
fn op_eval_slice() {
    assert_eq!(OpKind::Slice(7, 4).eval(&[0xAB], 8), 0xA);
    assert_eq!(OpKind::Slice(3, 0).eval(&[0xAB], 8), 0xB);
}

#[test]
fn pattern_size_and_depth() {
    let p = Pattern::Op(
        OpKind::Add,
        vec![
            reg(0),
            Pattern::Op(OpKind::Mul, vec![reg(1), Pattern::Const(2)]),
        ],
    );
    assert_eq!(p.size(), 5);
    assert_eq!(p.depth(), 3);
    assert_eq!(p.reads(), vec![StorageId(0), StorageId(1)]);
}

#[test]
fn memread_counts_address_reads() {
    let p = Pattern::MemRead(StorageId(2), Box::new(reg(3)));
    assert_eq!(p.reads(), vec![StorageId(2), StorageId(3)]);
    assert_eq!(p.size(), 2);
}

#[test]
fn template_base_push_find() {
    let mut base = TemplateBase::new();
    let d = Dest::Reg(StorageId(0));
    let s = Pattern::Op(OpKind::Add, vec![reg(0), reg(1)]);
    let id = base.push(d.clone(), s.clone(), Bdd::TRUE, TemplateOrigin::Extracted);
    assert_eq!(base.len(), 1);
    assert_eq!(base.find(&d, &s), Some(id));
    assert_eq!(base.template(id).render_smoke(), ());
    assert_eq!(base.writing(StorageId(0)).count(), 1);
    assert_eq!(base.writing(StorageId(1)).count(), 0);
}

#[test]
fn template_base_debug_leaves_the_index_out() {
    // Two bases built alike hash with different keys, so a printed index
    // would list its buckets in different orders.
    let build = || {
        let mut base = TemplateBase::new();
        for i in 0..8 {
            base.push(
                Dest::Reg(StorageId(i)),
                reg(i),
                Bdd::TRUE,
                TemplateOrigin::Extracted,
            );
        }
        format!("{base:?}")
    };
    assert_eq!(build(), build());
}

impl RtTemplate {
    /// Compile-time smoke helper so tests touch the public fields.
    fn render_smoke(&self) {
        let _ = (&self.dest, &self.src, self.cond, self.origin);
    }
}

#[test]
fn commutative_extension_adds_swapped_mac() {
    // acc := acc + (t * mem)  =>  variants with + and * swapped.
    let mac = Pattern::Op(
        OpKind::Add,
        vec![
            reg(0),
            Pattern::Op(
                OpKind::Mul,
                vec![
                    reg(1),
                    Pattern::MemRead(StorageId(2), Box::new(Pattern::Imm { hi: 7, lo: 0 })),
                ],
            ),
        ],
    );
    let mut base = TemplateBase::new();
    base.push(
        Dest::Reg(StorageId(0)),
        mac,
        Bdd::TRUE,
        TemplateOrigin::Extracted,
    );
    let stats = extend(
        &mut base,
        &ExtensionOptions {
            commutativity: true,
            max_variants_per_template: 16,
            library: TransformLibrary::empty(),
        },
    );
    // Swaps: (+ args), (* args), both => 3 new variants.
    assert_eq!(stats.commutative_added, 3);
    assert_eq!(base.len(), 4);
    // All variants share the original's execution condition.
    assert!(base.templates().iter().all(|t| t.cond == Bdd::TRUE));
}

#[test]
fn extension_is_idempotent() {
    let mut base = TemplateBase::new();
    base.push(
        Dest::Reg(StorageId(0)),
        Pattern::Op(OpKind::Add, vec![reg(0), reg(1)]),
        Bdd::TRUE,
        TemplateOrigin::Extracted,
    );
    let opts = ExtensionOptions::default();
    let s1 = extend(&mut base, &opts);
    let len1 = base.len();
    let s2 = extend(&mut base, &opts);
    assert_eq!(base.len(), len1);
    assert_eq!(s2.commutative_added, 0);
    assert_eq!(s2.rewrite_added, 0);
    assert!(s1.commutative_added > 0);
}

#[test]
fn no_commutativity_option() {
    let mut base = TemplateBase::new();
    base.push(
        Dest::Reg(StorageId(0)),
        Pattern::Op(OpKind::Add, vec![reg(0), reg(1)]),
        Bdd::TRUE,
        TemplateOrigin::Extracted,
    );
    let stats = extend(&mut base, &ExtensionOptions::none());
    assert_eq!(stats.commutative_added, 0);
    assert_eq!(base.len(), 1);
}

#[test]
fn standard_library_generates_mul_from_shl() {
    let mut base = TemplateBase::new();
    base.push(
        Dest::Reg(StorageId(0)),
        Pattern::Op(OpKind::Shl, vec![reg(0), Pattern::Const(1)]),
        Bdd::TRUE,
        TemplateOrigin::Extracted,
    );
    let stats = extend(&mut base, &ExtensionOptions::default());
    assert!(stats.rewrite_added >= 1);
    assert!(base
        .find(
            &Dest::Reg(StorageId(0)),
            &Pattern::Op(OpKind::Mul, vec![reg(0), Pattern::Const(2)])
        )
        .is_some());
}

#[test]
fn variant_cap_limits_blowup() {
    // A 5-level sum-of-products would have 2^5 orderings; cap at 8.
    let mut p = reg(0);
    for i in 1..6 {
        p = Pattern::Op(OpKind::Add, vec![p, reg(i)]);
    }
    let mut base = TemplateBase::new();
    base.push(
        Dest::Reg(StorageId(9)),
        p,
        Bdd::TRUE,
        TemplateOrigin::Extracted,
    );
    let stats = extend(
        &mut base,
        &ExtensionOptions {
            commutativity: true,
            max_variants_per_template: 8,
            library: TransformLibrary::empty(),
        },
    );
    assert!(stats.commutative_added <= 8);
}

// ------------------------ property tests ----------------------------------

/// The shapes the index property pushes: three destinations (one a
/// memory cell) times three sources, each unpredicated and under two
/// predicates.  Drawing from 27 shapes makes exact duplicates common, and
/// so are equal `(dest, src)` pairs with and without a predicate.
fn shape_alphabet() -> Vec<(Dest, Pattern, Option<CondPred>)> {
    let dests = [
        Dest::Reg(StorageId(0)),
        Dest::Reg(StorageId(1)),
        Dest::Mem(StorageId(2), reg(0)),
    ];
    let srcs = [
        reg(0),
        Pattern::Op(OpKind::Add, vec![reg(0), reg(1)]),
        Pattern::Op(OpKind::Add, vec![reg(1), reg(0)]),
    ];
    let preds = [true, false].map(|eq| {
        Some(CondPred {
            test: reg(0),
            value: 0,
            eq,
        })
    });
    let mut out = Vec::new();
    for dest in &dests {
        for src in &srcs {
            for pred in [None].iter().chain(&preds) {
                out.push((dest.clone(), src.clone(), pred.clone()));
            }
        }
    }
    out
}

/// The linear scan the shape index replaced: the first template with
/// exactly this shape.
fn scan(
    base: &TemplateBase,
    dest: &Dest,
    src: &Pattern,
    pred: Option<&CondPred>,
) -> Option<TemplateId> {
    base.templates()
        .iter()
        .find(|t| &t.dest == dest && &t.src == src && t.pred.as_ref() == pred)
        .map(|t| t.id)
}

fn op_strategy() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        Just(OpKind::Add),
        Just(OpKind::Sub),
        Just(OpKind::Mul),
        Just(OpKind::And),
        Just(OpKind::Or),
        Just(OpKind::Xor),
        Just(OpKind::Eq),
        Just(OpKind::Ne),
    ]
}

proptest! {
    /// After every push, the shape index answers each lookup as the scan
    /// does (the lowest id with the shape, or none), on the base and on a
    /// clone of it.
    #[test]
    fn shape_index_answers_what_the_scan_answers(
        pushes in prop::collection::vec(0..shape_alphabet().len(), 0..40),
    ) {
        let alphabet = shape_alphabet();
        let mut base = TemplateBase::new();
        for i in pushes {
            let (dest, src, pred) = alphabet[i].clone();
            match pred {
                None => base.push(dest, src, Bdd::TRUE, TemplateOrigin::Extracted),
                Some(_) => base.push_pred(dest, src, Bdd::TRUE, TemplateOrigin::Extracted, pred),
            };
            let copy = base.clone();
            for (dest, src, pred) in &alphabet {
                let want = scan(&base, dest, src, pred.as_ref());
                prop_assert_eq!(base.find_pred(dest, src, pred.as_ref()), want);
                prop_assert_eq!(copy.find_pred(dest, src, pred.as_ref()), want);
                if pred.is_none() {
                    prop_assert_eq!(base.find(dest, src), want);
                }
            }
        }
    }

    /// Commutative ops really commute under eval, at every width.
    #[test]
    fn commutative_ops_commute(op in op_strategy(), a: u64, b: u64, w in 1u16..32) {
        if op.is_commutative() {
            let m = if w >= 64 { u64::MAX } else { (1 << w) - 1 };
            prop_assert_eq!(op.eval(&[a & m, b & m], w), op.eval(&[b & m, a & m], w));
        }
    }

    /// eval result always fits the width.
    #[test]
    fn eval_masks_result(op in op_strategy(), a: u64, b: u64, w in 1u16..32) {
        let r = op.eval(&[a, b], w);
        let m = (1u64 << w) - 1;
        prop_assert_eq!(r & !m, 0);
    }

    /// Commutative variants of a pattern all evaluate identically when the
    /// pattern is interpreted over a fixed register valuation.
    #[test]
    fn commutative_variants_preserve_semantics(
        vals in prop::collection::vec(0u64..0xFFFF, 4),
        seed in 0u8..4,
    ) {
        // Build (r0 op1 (r1 op2 r2)) with commutative ops chosen by seed.
        let ops = [OpKind::Add, OpKind::Mul, OpKind::And, OpKind::Xor];
        let op1 = ops[(seed % 4) as usize];
        let op2 = ops[((seed / 2) % 4) as usize];
        let p = Pattern::Op(op1, vec![
            reg(0),
            Pattern::Op(op2, vec![reg(1), reg(2)]),
        ]);
        fn eval_pattern(p: &Pattern, vals: &[u64]) -> u64 {
            match p {
                Pattern::Op(op, args) => {
                    let a: Vec<u64> = args.iter().map(|x| eval_pattern(x, vals)).collect();
                    op.eval(&a, 16)
                }
                Pattern::Reg(s) => vals[s.0 as usize],
                _ => 0,
            }
        }
        let want = eval_pattern(&p, &vals);
        let mut base = TemplateBase::new();
        base.push(Dest::Reg(StorageId(3)), p, Bdd::TRUE, TemplateOrigin::Extracted);
        extend(&mut base, &ExtensionOptions {
            commutativity: true,
            max_variants_per_template: 16,
            library: TransformLibrary::empty(),
        });
        for t in base.templates() {
            prop_assert_eq!(eval_pattern(&t.src, &vals), want);
        }
    }
}
