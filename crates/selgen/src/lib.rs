//! Tree-parser generation and cost-optimal tree parsing (paper §3.2).
//!
//! The original system feeds the tree grammar to *iburg*, which emits a C
//! tree parser doing dynamic programming at parse time.  This crate plays
//! both roles, with no source-code step between them: the in-memory
//! [`Selector`] is the one form of the generated parser, and it owns the
//! grammar it was generated from ([`Selector::grammar`]).
//!
//! * [`Selector::generate`] is "parser generation": it compiles the grammar
//!   into dispatch tables — the moral equivalent of iburg's emitted
//!   tables.  Rules are indexed by root terminal, then by the heads of the
//!   root's children (what each child must be: a non-terminal, a
//!   constant or a terminal), then by right-hand side: the grammar shares
//!   one right-hand side among all rules built from equal template
//!   sources ([`record_grammar::Rule::pattern`]), typically one per
//!   destination.  Chain rules form a table of their own.
//! * [`Selector::select`] is the generated parser: a bottom-up labelling
//!   pass computes, per ET node and non-terminal, the cheapest derivation
//!   cost and the rule achieving it (with chain-rule closure), then a
//!   top-down reduction emits the minimum-cost cover.  At each node it
//!   reads the root's buckets from a dense index (no search), visits
//!   only the buckets whose child heads the node's children satisfy, and
//!   matches each right-hand side there once for every rule that shares
//!   it.  Ties go to the rule with pairwise-distinct operand
//!   non-terminals, then to the lowest rule id, so the cover is the one
//!   a scan of every rule in id order finds.  When the tree has
//!   none, [`Selector::diagnose`] labels it again and names the subtree
//!   where derivation broke, so only a failure that is reported pays for
//!   its message.
//!
//! Covers are optimal with respect to accumulated rule costs: chained
//! operations (multiply-accumulate and friends) are exploited, pure data
//! moves are minimised, and special-purpose registers for intermediate
//! results fall out of the non-terminal assignment (paper §3.2).
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     module Acc {
//!         in d: bit(8);
//!         ctrl en: bit(1);
//!         out q: bit(8);
//!         register q = d when en == 1;
//!     }
//!     processor P {
//!         instruction word: bit(12);
//!         parts { acc: Acc; }
//!         connections { acc.d = I[7:0]; acc.en = I[8]; }
//!     }
//! "#;
//! use record_grammar::{Et, EtBuilder, EtDest, EtKind, TreeGrammar};
//! let model = record_hdl::parse(src)?;
//! let netlist = record_netlist::elaborate(&model)?;
//! let ex = record_isex::extract(&netlist, &Default::default())?;
//! let grammar = TreeGrammar::from_base(&ex.base, &netlist);
//! let selector = record_selgen::Selector::generate(grammar);
//!
//! let acc = netlist.storage_by_name("acc").unwrap().id;
//! let mut b = EtBuilder::new();
//! b.leaf(EtKind::Const(42));
//! let et = Et::assign(EtDest::Reg(acc), b);
//! let cover = selector.select(&et).ok_or_else(|| selector.diagnose(&et))?;
//! assert_eq!(cover.cost, 1); // one immediate-load RT
//!
//! // 300 fits no 8-bit immediate: no cover, and a diagnosis on request.
//! let mut b = EtBuilder::new();
//! b.leaf(EtKind::Const(300));
//! let et = Et::assign(EtDest::Reg(acc), b);
//! assert!(selector.select(&et).is_none());
//! assert_eq!(
//!     selector.diagnose(&et).to_string(),
//!     "no cover for `assign(300)`: no rule matches this subtree for any location"
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod selector;

pub use selector::{Cover, RuleApp, SelectError, SelectStats, Selector};

#[cfg(test)]
mod tests;
