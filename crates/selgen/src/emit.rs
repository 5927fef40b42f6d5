//! Emission of a standalone Rust matcher (the iburg code-generation step).
//!
//! iburg reads a BNF tree grammar and emits C source for a grammar-specific
//! parser which is then compiled by the host C compiler; the paper's
//! retargeting times include both steps.  We mirror the artefact: given a
//! grammar, [`emit_rust`] renders a self-contained Rust module with the rule
//! tables and a hard-coded matcher.  The in-memory [`crate::Selector`] is
//! what the pipeline actually executes (Rust has no `dlopen`-style in-
//! process compilation), and the emitted source is a faithful, inspectable
//! equivalent of iburg's output.  Retargeting does not render it, so its
//! cost is not part of the measured retargeting time: Table 3's
//! selector-generation time measures [`crate::Selector::generate`].

use record_grammar::{GPat, TermKey, TreeGrammar};
use std::fmt::Write as _;

/// Renders `grammar` as a standalone Rust module implementing a
/// grammar-specific labeller.
///
/// The output is deterministic (stable across runs for the same grammar) so
/// it can be checked into a target's source tree and diffed on
/// re-retargeting.
pub fn emit_rust(grammar: &TreeGrammar, module_name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "//! Generated tree parser `{module_name}` — do not edit.\n//!\n//! {} non-terminals, {} rules.\n",
        grammar.nonterm_count(),
        grammar.rules().len()
    );
    let _ = writeln!(
        out,
        "pub const NONTERM_COUNT: usize = {};",
        grammar.nonterm_count()
    );
    let _ = writeln!(
        out,
        "pub const RULE_COUNT: usize = {};\n",
        grammar.rules().len()
    );

    // Non-terminal names.
    let _ = writeln!(out, "pub const NONTERM_NAMES: [&str; NONTERM_COUNT] = [");
    for i in 0..grammar.nonterm_count() {
        let _ = writeln!(
            out,
            "    {:?},",
            grammar.nonterm_name(record_grammar::NonTermId(i as u32))
        );
    }
    let _ = writeln!(out, "];\n");

    // Rule table: (lhs, cost).
    let _ = writeln!(out, "/// `(lhs, cost)` per rule id.");
    let _ = writeln!(out, "pub const RULES: [(u32, u32); RULE_COUNT] = [");
    for r in grammar.rules() {
        let _ = writeln!(
            out,
            "    ({}, {}), // {}",
            r.lhs.0,
            r.cost,
            describe_rhs(grammar.rhs(r))
        );
    }
    let _ = writeln!(out, "];\n");

    // A minimal node model mirroring record_grammar::EtKind.
    out.push_str(NODE_MODEL);

    // The matcher: one arm per rule.
    let _ = writeln!(
        out,
        "/// Attempts to match each rule at `node`; on success returns the sum of\n/// non-terminal leaf costs taken from `labels`."
    );
    let _ = writeln!(
        out,
        "pub fn match_rule(rule: u32, nodes: &[Node], node: usize, labels: &[[Option<u32>; NONTERM_COUNT]]) -> Option<u32> {{"
    );
    let _ = writeln!(out, "    match rule {{");
    for r in grammar.rules() {
        let mut body = String::new();
        let mut cost_terms: Vec<String> = Vec::new();
        emit_pat_check(grammar.rhs(r), "node", &mut body, &mut cost_terms, &mut 0);
        let sum = if cost_terms.is_empty() {
            "0".to_owned()
        } else {
            cost_terms.join(" + ")
        };
        let _ = writeln!(out, "        {} => {{", r.id.0);
        out.push_str(&body);
        let _ = writeln!(out, "            Some({sum})");
        let _ = writeln!(out, "        }}");
    }
    let _ = writeln!(out, "        _ => None,");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    out
}

/// Emits the structural checks for `pat` rooted at Rust expression `at`.
fn emit_pat_check(
    pat: &GPat,
    at: &str,
    body: &mut String,
    cost_terms: &mut Vec<String>,
    tmp: &mut usize,
) {
    match pat {
        GPat::NT(nt) => {
            cost_terms.push(format!("labels[{at}][{}]?", nt.0));
        }
        GPat::T(key, kids) => {
            let check = key_check(key, at);
            let _ = writeln!(body, "            {check}");
            for (i, kid) in kids.iter().enumerate() {
                *tmp += 1;
                let var = format!("c{tmp}");
                let _ = writeln!(
                    body,
                    "            let {var} = *nodes[{at}].children.get({i})?;"
                );
                emit_pat_check(kid, &var, body, cost_terms, tmp);
            }
        }
    }
}

fn key_check(key: &TermKey, at: &str) -> String {
    match key {
        TermKey::Assign(k) => format!(
            "if nodes[{at}].kind != Kind::Assign({}) {{ return None; }}",
            assign_code(k)
        ),
        TermKey::Store(s) => format!(
            "if nodes[{at}].kind != Kind::Store({}) {{ return None; }}",
            s.0
        ),
        TermKey::Op(op) => format!(
            "if nodes[{at}].kind != Kind::Op({:?}) {{ return None; }}",
            op.to_string()
        ),
        TermKey::MemRead(s) => format!(
            "if nodes[{at}].kind != Kind::MemRead({}) {{ return None; }}",
            s.0
        ),
        TermKey::RegLeaf(s) => format!(
            "if nodes[{at}].kind != Kind::RegLeaf({}) {{ return None; }}",
            s.0
        ),
        TermKey::RfLeaf(s) => format!(
            "if nodes[{at}].kind != Kind::RfLeaf({}) {{ return None; }}",
            s.0
        ),
        TermKey::PortLeaf(p) => format!(
            "if nodes[{at}].kind != Kind::PortLeaf({}) {{ return None; }}",
            p.0
        ),
        TermKey::ConstVal(v) => {
            format!("if nodes[{at}].kind != Kind::Const({v}) {{ return None; }}")
        }
        TermKey::Imm { hi, lo } => {
            let width = hi - lo + 1;
            format!(
                "match nodes[{at}].kind {{ Kind::Const(v) if fits(v, {width}) => (), _ => return None, }}"
            )
        }
    }
}

fn assign_code(k: &record_grammar::AssignKey) -> String {
    match k {
        record_grammar::AssignKey::Reg(s) => format!("AssignKey::Reg({})", s.0),
        record_grammar::AssignKey::RegFile(s) => format!("AssignKey::RegFile({})", s.0),
        record_grammar::AssignKey::Port(p) => format!("AssignKey::Port({})", p.0),
    }
}

fn describe_rhs(p: &GPat) -> String {
    match p {
        GPat::NT(nt) => format!("nt{}", nt.0),
        GPat::T(key, kids) => {
            let head = format!("{key:?}");
            if kids.is_empty() {
                head
            } else {
                format!(
                    "{head}({})",
                    kids.iter().map(describe_rhs).collect::<Vec<_>>().join(", ")
                )
            }
        }
    }
}

const NODE_MODEL: &str = r#"/// Minimal expression-tree node model for the generated matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignKey { Reg(u32), RegFile(u32), Port(u32) }

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Assign(AssignKey),
    Store(u32),
    Op(&'static str),
    MemRead(u32),
    Const(u64),
    RegLeaf(u32),
    RfLeaf(u32),
    PortLeaf(u32),
}

#[derive(Debug, Clone)]
pub struct Node { pub kind: Kind, pub children: Vec<usize> }

/// Does `value` fit an unsigned field of `width` bits?
pub fn fits(value: u64, width: u16) -> bool {
    width >= 64 || value < (1u64 << width)
}

"#;
