//! # adprom-trace
//!
//! The dynamic substrate of AD-PROM: a tree-walking [`interp`]reter that
//! executes application programs against the database client layer, the
//! bytecode [`vm`] that is the production trace-generation path (the
//! tree-walk stays as reference semantics; both share the host layer for
//! library-call behaviour), the Calls [`collector`] that intercepts library
//! calls (names + caller only, like the paper's Dyninst-based collector),
//! and an [`ltrace`] simulator — the heavyweight tracing baseline of Table
//! VI that additionally formats every argument and resolves instruction
//! pointers through a symbol table.

#![warn(missing_docs)]

pub mod collector;
mod host;
pub mod interleave;
pub mod interp;
pub mod ltrace;
pub mod validate;
pub mod value;
pub mod vm;

pub use collector::{sliding_windows, CallEvent, CallSink, NullSink, TraceCollector};
pub use host::format_printf;
pub use interleave::{deinterleave, interleave, InterleavedCollector, SessionTap, TaggedCall};
pub use interp::{run_program, ExecConfig, ExecMode, ExecOutcome, RuntimeError};
pub use ltrace::LtraceCollector;
pub use validate::{
    check_event, EventDefect, QuarantinedTrace, ScreenedBatch, TraceValidator, ValidationPolicy,
};
pub use value::RtValue;
pub use vm::{execute_program, VmProgram};
