//! # zeus-syntax
//!
//! Lexer, abstract syntax tree, parser and pretty-printer for **Zeus**, the
//! hardware description language for VLSI of Lieberherr & Knudsen (1983).
//!
//! The grammar implemented is the cross-referenced EBNF of §7 of the paper,
//! including the layout-language grammar of §6. See the repository's
//! `DESIGN.md` for the handful of places where the printed grammar contains
//! typos and how they are resolved.
//!
//! ## Example
//!
//! ```
//! use zeus_syntax::parse_program;
//!
//! # fn main() -> Result<(), zeus_syntax::Diagnostics> {
//! let program = parse_program(
//!     "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
//!      BEGIN s := XOR(a,b); cout := AND(a,b) END;",
//! )?;
//! assert_eq!(program.decls.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;

pub use ast::Program;
pub use diag::{catch_panic, codes, Code, Diagnostic, Diagnostics, Severity};
pub use lexer::lex;
pub use parser::{parse_const_expr, parse_expr, parse_program};
pub use printer::{print_const_expr, print_expr, print_program, print_stmt};
pub use span::{LineCol, SourceMap, Span};
pub use token::{Token, TokenKind};
