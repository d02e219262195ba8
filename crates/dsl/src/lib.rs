//! The µPnP device-driver DSL (paper §4).
//!
//! A typed, event-based driver language with Python-inspired syntax
//! (Listing 1 of the paper), compiled to a compact 8-bit-opcode bytecode
//! that the µPnP virtual machine interprets. The pipeline:
//!
//! ```text
//! source ──lexer──▶ tokens ──parser──▶ AST ──checker──▶ typed AST
//!        ──optimiser──▶ typed AST ──lowering──▶ linear code
//!        ──peephole──▶ linear code ──assembler──▶ bytecode
//!        ──image──▶ over-the-air driver image
//! ```
//!
//! * [`lexer`] — indentation-aware tokenizer (`INDENT`/`DEDENT` like
//!   Python, `#` comments, hex/decimal/float/char literals);
//! * [`ast`] / [`parser`] — recursive-descent parser with operator
//!   precedence;
//! * [`check`] — symbol resolution and static typing (integers are 32-bit
//!   cells at runtime with width-truncation on store; `int op float`
//!   promotes; conditions must be boolean or integer);
//! * [`isa`] — the instruction set (every instruction is an 8-bit opcode
//!   followed by zero or more operands, §4.1), its decoder and the
//!   disassembler;
//! * [`opt`] — the staged optimisation pipeline: typed-IR passes
//!   (constant/branch folding, strength reduction, dead code, dead
//!   globals) under a collector→transform→validator protocol, plus the
//!   linear-code peephole (jump threading, store/load forwarding,
//!   push/pop cancellation) — see `docs/compiler.md`;
//! * [`compile`] — lowering to labelled linear code and two-pass assembly;
//! * [`image`] — the serialized driver format deployed over the air;
//! * [`delta`] — the compact chunk-level delta encoding a driver version
//!   bump ships instead of the whole image;
//! * [`events`] — the global event/error/library identifier registry shared
//!   with the VM;
//! * [`sloc`] — the source-lines-of-code counter used by Table 3;
//! * [`drivers`] — the four prototype driver sources from the paper's
//!   evaluation, shipped as assets.

pub mod ast;
pub mod check;
pub mod compile;
pub mod delta;
pub mod drivers;
pub mod events;
pub mod image;
pub mod isa;
pub mod lexer;
pub mod opt;
pub mod parser;
pub mod sloc;
pub mod verify;
pub mod vm_limits;

pub use check::CheckError;
pub use compile::{compile_source, compile_source_with};
pub use delta::ImageDelta;
pub use image::DriverImage;
pub use isa::Op;
pub use lexer::LexError;
pub use opt::OptLevel;
pub use parser::ParseError;
pub use verify::{verify, VerifyError};

/// Any failure on the source-to-image pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Tokenization failed.
    Lex(LexError),
    /// Parsing failed.
    Parse(ParseError),
    /// Semantic analysis failed.
    Check(CheckError),
    /// The generated image exceeds a format limit (e.g. >64 KiB of code).
    TooLarge(String),
    /// An optimisation pass broke an IR or image invariant — always a
    /// compiler bug surfaced by a pipeline validator, never a property
    /// of the input program.
    Internal(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lex error: {e}"),
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Check(e) => write!(f, "check error: {e}"),
            CompileError::TooLarge(what) => write!(f, "driver too large: {what}"),
            CompileError::Internal(what) => write!(f, "internal compiler error: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LexError> for CompileError {
    fn from(e: LexError) -> Self {
        CompileError::Lex(e)
    }
}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<CheckError> for CompileError {
    fn from(e: CheckError) -> Self {
        CompileError::Check(e)
    }
}
