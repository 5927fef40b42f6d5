//! A MIMOLA-flavoured hardware description language (HDL) frontend.
//!
//! The `record` compiler is retargeted from *HDL processor models* rather
//! than from tool-specific machine descriptions (paper §1).  The original
//! system parsed MIMOLA V4.1; the paper notes the concepts are
//! language-independent.  This crate defines a compact, self-contained HDL
//! in the MIMOLA tradition and parses it into an AST:
//!
//! * **Modules** describe primitive netlist entities.  Their behavioural
//!   complexity may range from a logic gate to a complete data path: outputs
//!   are defined by concurrent assignments, optionally selected by `case`
//!   over control ports.  Special forms declare clocked registers and
//!   addressable memories.
//! * A **processor** block instantiates modules (`parts`), wires them up
//!   (`connections`), declares tristate **busses** with guarded drivers,
//!   designates **mode registers** and fixes the **instruction word** width.
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
//!         instruction word: bit(4);
//!         in pin: bit(8);
//!         parts { acc: Acc; }
//!         connections {
//!             acc.d = pin;
//!             acc.en = I[0];
//!         }
//!     }
//! "#;
//! let model = record_hdl::parse(src)?;
//! assert_eq!(model.processor.name, "P");
//! assert_eq!(model.modules.len(), 1);
//! # Ok::<(), record_hdl::HdlError>(())
//! ```

mod ast;
mod error;
mod lexer;
mod parser;

pub use ast::*;
pub use error::{HdlError, HdlErrorKind};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::MAX_NESTING;

/// Parses a complete HDL model (modules plus one `processor` block).
///
/// # Errors
///
/// Returns an [`HdlError`] carrying line/column information when the source
/// is lexically or syntactically malformed, nested deeper than
/// [`MAX_NESTING`] levels, or when basic static rules are violated
/// (duplicate names, unknown module references, width-zero ports).
pub fn parse(source: &str) -> Result<Model, HdlError> {
    parser::Parser::new(source)?.parse_model()
}

#[cfg(test)]
mod tests;
