//! The bytecode VM — the production trace-generation runtime.
//!
//! A [`VmProgram`] is compiled once per program × label map and run many
//! times (one run per session / test case); compilation pre-resolves call
//! sites, pre-interns observation names, and pre-converts the constant pool
//! to [`RtValue`]s, so the dispatch loop allocates nothing per event beyond
//! the `CallEvent` it hands the sink — which the [`CallSink`] API owns.
//!
//! Semantics are pinned to the tree-walking interpreter (the reference) two
//! ways: every library call goes through the shared `host` layer,
//! and the differential proptest suite in `tests/vm_equivalence.rs` asserts
//! bit-identical call sequences and outcomes per program × input × seed.
//! [`execute_program`] dispatches between the two runtimes on
//! [`ExecConfig::mode`].

use crate::collector::{CallEvent, CallSink};
use crate::host::{binary_op, index_value, unary_op, Host};
use crate::interp::{run_program, ExecConfig, ExecMode, ExecOutcome, RuntimeError};
use crate::value::RtValue;
use adprom_client::ClientSession;
use adprom_lang::bytecode::{compile_program, BytecodeProgram, Const, Op};
use adprom_lang::{CallSiteId, CompileError, Program};
use adprom_obs::{Counter, Registry};
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum user-call frame depth before [`RuntimeError::CallDepth`]. The
/// tree-walk's equivalent limit is the native stack; the VM's frames live on
/// the heap, so the bound is explicit and the error clean.
pub const MAX_CALL_DEPTH: usize = 1024;

impl From<CompileError> for RuntimeError {
    fn from(e: CompileError) -> RuntimeError {
        RuntimeError::Compile(e.to_string())
    }
}

/// `trace.vm.*` counters (all no-ops unless bound to a registry).
#[derive(Debug, Clone, Default)]
struct VmCounters {
    compiles: Counter,
    runs: Counter,
    instructions: Counter,
    events: Counter,
}

/// A compiled, reusable program: bytecode plus the constant pool already
/// converted to runtime values and every observation/caller name interned
/// as a shared `Arc<str>` — emitting a [`CallEvent`] is two refcount bumps,
/// no allocation.
#[derive(Debug, Clone)]
pub struct VmProgram {
    bc: BytecodeProgram,
    consts: Vec<RtValue>,
    /// `bc.names` interned (indexed by the same `u16` the ops carry).
    names: Vec<Arc<str>>,
    /// Chunk (caller function) names interned, indexed by chunk.
    chunk_names: Vec<Arc<str>>,
    counters: VmCounters,
}

impl VmProgram {
    /// Compiles a program for the VM. `site_labels` is the Analyzer's
    /// observation-name map (empty ⇒ raw call names), resolved now so runs
    /// never consult it.
    pub fn compile(
        prog: &Program,
        site_labels: &HashMap<CallSiteId, String>,
    ) -> Result<VmProgram, RuntimeError> {
        let bc = compile_program(prog, site_labels)?;
        let consts = bc
            .consts
            .iter()
            .map(|c| match c {
                Const::Int(v) => RtValue::Int(*v),
                Const::Float(v) => RtValue::Float(*v),
                Const::Str(s) => RtValue::Str(s.as_str().into()),
                Const::Bool(b) => RtValue::Bool(*b),
                Const::Null => RtValue::Null,
            })
            .collect();
        let names = bc.names.iter().map(|n| Arc::from(n.as_str())).collect();
        let chunk_names = bc
            .chunks
            .iter()
            .map(|c| Arc::from(c.name.as_str()))
            .collect();
        Ok(VmProgram {
            bc,
            consts,
            names,
            chunk_names,
            counters: VmCounters::default(),
        })
    }

    /// Compiles and binds the `trace.vm.*` counters from `registry`
    /// (compiles, runs, instructions, events).
    pub fn with_registry(
        prog: &Program,
        site_labels: &HashMap<CallSiteId, String>,
        registry: &Registry,
    ) -> Result<VmProgram, RuntimeError> {
        let mut vm = VmProgram::compile(prog, site_labels)?;
        vm.counters = VmCounters {
            compiles: registry.counter("trace.vm.compiles"),
            runs: registry.counter("trace.vm.runs"),
            instructions: registry.counter("trace.vm.instructions"),
            events: registry.counter("trace.vm.events"),
        };
        vm.counters.compiles.inc();
        Ok(vm)
    }

    /// The underlying bytecode (for disassembly and inspection).
    pub fn bytecode(&self) -> &BytecodeProgram {
        &self.bc
    }

    /// Runs the compiled program to completion. Parameters mirror
    /// [`run_program`]; labels were already baked in at compile time.
    pub fn run(
        &self,
        session: &mut ClientSession,
        inputs: &[String],
        sink: &mut dyn CallSink,
        config: &ExecConfig,
    ) -> Result<ExecOutcome, RuntimeError> {
        let entry = self.bc.entry.ok_or(RuntimeError::NoMain)?;
        self.counters.runs.inc();
        let mut vm = Vm {
            prog: self,
            sink,
            step_limit: config.step_limit,
            host: Host::new(session, inputs, config),
            stack: Vec::with_capacity(64),
            locals: Vec::with_capacity(64),
            frames: Vec::with_capacity(8),
            events: 0,
        };
        let result = vm.run(entry);
        let events = vm.events;
        let mut outcome = vm.host.outcome;
        self.counters.instructions.add(outcome.steps);
        self.counters.events.add(events);
        match result {
            Ok(exited) => {
                outcome.exited = exited;
                Ok(outcome)
            }
            Err(e) => Err(e),
        }
    }
}

/// Runs a program under the runtime selected by `config.mode`: the bytecode
/// VM (default) or the reference tree-walk. The single entry point callers
/// (workloads, the CLI, online monitoring) should use.
pub fn execute_program(
    prog: &Program,
    session: &mut ClientSession,
    inputs: &[String],
    site_labels: &HashMap<CallSiteId, String>,
    sink: &mut dyn CallSink,
    config: &ExecConfig,
) -> Result<ExecOutcome, RuntimeError> {
    match config.mode {
        ExecMode::TreeWalk => run_program(prog, session, inputs, site_labels, sink, config),
        ExecMode::Vm => VmProgram::compile(prog, site_labels)?.run(session, inputs, sink, config),
    }
}

/// A suspended caller: everything needed to resume after `Ret`. Small and
/// `Copy` — pushing a call frame allocates nothing (locals live in the
/// shared register stack, delimited by `locals_base`).
#[derive(Clone, Copy)]
struct CallFrame {
    chunk: u32,
    /// Resume instruction pointer in the caller's chunk.
    ip: u32,
    /// Operand-stack height the callee's return value lands on.
    stack_base: u32,
    /// The caller's window start in the shared locals stack.
    locals_base: u32,
}

struct Vm<'a, 'p> {
    prog: &'p VmProgram,
    sink: &'a mut dyn CallSink,
    step_limit: u64,
    host: Host<'a>,
    stack: Vec<RtValue>,
    /// All live frames' locals, contiguously; each frame owns a window
    /// starting at its `locals_base`.
    locals: Vec<RtValue>,
    frames: Vec<CallFrame>,
    events: u64,
}

impl Vm<'_, '_> {
    /// Executes from the entry chunk. Returns `Ok(true)` if the program
    /// called `exit()`.
    ///
    /// The hot state — instruction pointer, current code slice, locals
    /// window — lives in registers across iterations; `self.frames` holds
    /// only *suspended* callers, so straight-line dispatch never touches it.
    fn run(&mut self, entry: usize) -> Result<bool, RuntimeError> {
        let chunks = &self.prog.bc.chunks;
        let consts = &self.prog.consts;
        let mut chunk_idx = entry;
        let mut code: &[Op] = &chunks[entry].code;
        let mut ip = 0usize;
        let mut locals_base = 0usize;
        self.locals
            .resize(chunks[entry].locals as usize, RtValue::Null);
        let mut steps: u64 = 0;
        let step_limit = self.step_limit;
        macro_rules! flush_steps {
            () => {
                self.host.outcome.steps = steps
            };
        }
        loop {
            let op = code[ip];
            ip += 1;
            steps += 1;
            if steps > step_limit {
                flush_steps!();
                return Err(RuntimeError::StepLimit);
            }
            match op {
                Op::Const(c) => self.stack.push(consts[c as usize].clone()),
                Op::Load(s) => self
                    .stack
                    .push(self.locals[locals_base + s as usize].clone()),
                Op::Store(s) => {
                    let v = self.stack.pop().expect("store operand");
                    self.locals[locals_base + s as usize] = v;
                }
                Op::StoreKeep(s) => {
                    let v = self.stack.last().expect("store-keep operand").clone();
                    self.locals[locals_base + s as usize] = v;
                }
                Op::Pop => {
                    self.stack.pop();
                }
                Op::Unary(o) => {
                    let v = self.stack.pop().expect("unary operand");
                    self.stack.push(unary_op(o, v));
                }
                Op::Binary(o) => {
                    let b = self.stack.pop().expect("binary rhs");
                    let a = self.stack.pop().expect("binary lhs");
                    self.stack.push(binary_op(o, a, b));
                }
                Op::Truthy => {
                    let v = self.stack.pop().expect("truthy operand");
                    self.stack.push(RtValue::Bool(v.truthy()));
                }
                Op::Index => {
                    let idx = self.stack.pop().expect("index");
                    let base = self.stack.pop().expect("indexed value");
                    self.stack.push(index_value(base, idx));
                }
                Op::Jump(t) => ip = t as usize,
                Op::JumpIfFalse(t) => {
                    let v = self.stack.pop().expect("condition");
                    if !v.truthy() {
                        ip = t as usize;
                    }
                }
                Op::JumpIfTrue(t) => {
                    let v = self.stack.pop().expect("condition");
                    if v.truthy() {
                        ip = t as usize;
                    }
                }
                Op::Call { func, argc } => {
                    if self.frames.len() + 1 >= MAX_CALL_DEPTH {
                        flush_steps!();
                        return Err(RuntimeError::CallDepth);
                    }
                    let callee = &chunks[func as usize];
                    let argc = argc as usize;
                    let args_at = self.stack.len() - argc;
                    let callee_base = self.locals.len();
                    // Positional binding, zip-style: extra arguments are
                    // dropped, missing parameters stay null.
                    let bind = argc.min(callee.params as usize);
                    self.locals
                        .extend(self.stack.drain(args_at..args_at + bind));
                    self.locals
                        .resize(callee_base + callee.locals as usize, RtValue::Null);
                    self.stack.truncate(args_at);
                    self.frames.push(CallFrame {
                        chunk: chunk_idx as u32,
                        ip: ip as u32,
                        stack_base: self.stack.len() as u32,
                        locals_base: locals_base as u32,
                    });
                    chunk_idx = func as usize;
                    code = &chunks[chunk_idx].code;
                    ip = 0;
                    locals_base = callee_base;
                }
                Op::CallUnknown { name } => {
                    flush_steps!();
                    return Err(RuntimeError::UndefinedFunction(
                        self.prog.bc.names[name as usize].clone(),
                    ));
                }
                Op::CallLib {
                    lc,
                    site,
                    name,
                    argc,
                } => {
                    let argc = argc as usize;
                    let args_at = self.stack.len() - argc;
                    let detail = self.host.detail(lc, &self.stack[args_at..]);
                    self.sink.on_call(CallEvent {
                        name: Arc::clone(&self.prog.names[name as usize]),
                        call: lc,
                        caller: Arc::clone(&self.prog.chunk_names[chunk_idx]),
                        site,
                        detail,
                    });
                    self.events += 1;
                    let result = self.host.lib_call(lc, &self.stack[args_at..]);
                    self.stack.truncate(args_at);
                    match result {
                        Some(v) => self.stack.push(v),
                        None => {
                            flush_steps!();
                            return Ok(true); // exit()
                        }
                    }
                }
                Op::LoadConstBin { slot, cst, op } => {
                    let a = self.locals[locals_base + slot as usize].clone();
                    let b = consts[cst as usize].clone();
                    self.stack.push(binary_op(op, a, b));
                }
                Op::LoadLoadBin { a, b, op } => {
                    let va = self.locals[locals_base + a as usize].clone();
                    let vb = self.locals[locals_base + b as usize].clone();
                    self.stack.push(binary_op(op, va, vb));
                }
                Op::LoadConstBinStore { slot, cst, op, dst } => {
                    let a = self.locals[locals_base + slot as usize].clone();
                    let b = consts[cst as usize].clone();
                    self.locals[locals_base + dst as usize] = binary_op(op, a, b);
                }
                Op::ConstStore { cst, slot } => {
                    self.locals[locals_base + slot as usize] = consts[cst as usize].clone();
                }
                Op::LoadConstBinJf {
                    slot,
                    cst,
                    op,
                    target,
                } => {
                    let a = self.locals[locals_base + slot as usize].clone();
                    let b = consts[cst as usize].clone();
                    if !binary_op(op, a, b).truthy() {
                        ip = target as usize;
                    }
                }
                Op::LoadLoadBinJf { a, b, op, target } => {
                    let va = self.locals[locals_base + a as usize].clone();
                    let vb = self.locals[locals_base + b as usize].clone();
                    if !binary_op(op, va, vb).truthy() {
                        ip = target as usize;
                    }
                }
                Op::Ret => {
                    let v = self.stack.pop().expect("return value");
                    self.locals.truncate(locals_base);
                    match self.frames.pop() {
                        None => {
                            flush_steps!();
                            return Ok(false);
                        }
                        Some(caller) => {
                            self.stack.truncate(caller.stack_base as usize);
                            self.stack.push(v);
                            chunk_idx = caller.chunk as usize;
                            code = &chunks[chunk_idx].code;
                            ip = caller.ip as usize;
                            locals_base = caller.locals_base as usize;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use adprom_db::Database;
    use adprom_lang::parse_program;

    fn session_with_items() -> ClientSession {
        let mut db = Database::new("shop");
        db.execute("CREATE TABLE items (ID INT, name TEXT)")
            .unwrap();
        db.execute(
            "INSERT INTO items VALUES (10, 'apple'), (11, 'pear'), (12, 'plum'), (13, 'fig')",
        )
        .unwrap();
        ClientSession::connect(db)
    }

    fn run_vm(src: &str, inputs: &[&str]) -> (Vec<String>, ExecOutcome) {
        let prog = parse_program(src).unwrap();
        let vm = VmProgram::compile(&prog, &HashMap::new()).unwrap();
        let mut session = session_with_items();
        let mut collector = TraceCollector::new();
        let inputs: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
        let outcome = vm
            .run(
                &mut session,
                &inputs,
                &mut collector,
                &ExecConfig::default(),
            )
            .unwrap();
        (collector.names(), outcome)
    }

    #[test]
    fn fig1_trace_matches_reference() {
        let (names, _) = run_vm(
            r#"
            fn main() {
                let query = "SELECT * FROM items WHERE ID = 10";
                let result = PQexec(conn, query);
                let rows = PQntuples(result);
                for (let r = 0; r < rows; r = r + 1) {
                    printf("%s", PQgetvalue(result, r, 0));
                }
            }
            "#,
            &[],
        );
        assert_eq!(names, vec!["PQexec", "PQntuples", "PQgetvalue", "printf"]);
    }

    #[test]
    fn injection_replays_identically() {
        let src = r#"
            fn main() {
                let accNo = scanf();
                let query = "";
                let ts = "SELECT * FROM items where ID='";
                let tr = "'";
                strcpy(query, ts);
                strcat(query, accNo);
                strcat(query, tr);
                mysql_query(conn, query);
                let result = mysql_store_result(conn);
                let row = mysql_fetch_row(result);
                while (row != null) {
                    printf("%s ", row[0]);
                    row = mysql_fetch_row(result);
                }
            }
        "#;
        let (attacked, _) = run_vm(src, &["1' OR '1'='1"]);
        let prints = attacked.iter().filter(|n| *n == "printf").count();
        let fetches = attacked.iter().filter(|n| *n == "mysql_fetch_row").count();
        assert_eq!(prints, 4);
        assert_eq!(fetches, 5);
    }

    #[test]
    fn user_calls_and_exit() {
        let (names, outcome) = run_vm(
            r#"
            fn main() { printf("%d", double(21)); exit(0); puts("no"); }
            fn double(x) { return x * 2; }
            "#,
            &[],
        );
        assert_eq!(outcome.stdout, "42");
        assert!(outcome.exited);
        assert_eq!(names, vec!["printf", "exit"]);
    }

    #[test]
    fn undefined_function_faults_only_when_reached() {
        let src = "fn main() { if (0) { ghost(); } puts(\"ok\"); }";
        let (_, outcome) = run_vm(src, &[]);
        assert_eq!(outcome.stdout, "ok\n");
        let prog = parse_program("fn main() { ghost(); }").unwrap();
        let vm = VmProgram::compile(&prog, &HashMap::new()).unwrap();
        let mut session = session_with_items();
        let err = vm
            .run(
                &mut session,
                &[],
                &mut TraceCollector::new(),
                &ExecConfig::default(),
            )
            .unwrap_err();
        assert_eq!(err, RuntimeError::UndefinedFunction("ghost".into()));
    }

    #[test]
    fn step_limit_applies() {
        let prog = parse_program("fn main() { while (1) { let x = 1; } }").unwrap();
        let vm = VmProgram::compile(&prog, &HashMap::new()).unwrap();
        let mut session = session_with_items();
        let err = vm
            .run(
                &mut session,
                &[],
                &mut TraceCollector::new(),
                &ExecConfig {
                    step_limit: 10_000,
                    ..ExecConfig::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, RuntimeError::StepLimit);
    }

    #[test]
    fn runaway_recursion_errors_cleanly() {
        let prog = parse_program("fn main() { spin(); }\nfn spin() { spin(); }").unwrap();
        let vm = VmProgram::compile(&prog, &HashMap::new()).unwrap();
        let mut session = session_with_items();
        let err = vm
            .run(
                &mut session,
                &[],
                &mut TraceCollector::new(),
                &ExecConfig::default(),
            )
            .unwrap_err();
        assert_eq!(err, RuntimeError::CallDepth);
    }

    #[test]
    fn execute_program_honors_mode() {
        let prog = parse_program("fn main() { puts(\"hi\"); }").unwrap();
        for mode in [ExecMode::TreeWalk, ExecMode::Vm] {
            let mut session = session_with_items();
            let mut collector = TraceCollector::new();
            let outcome = execute_program(
                &prog,
                &mut session,
                &[],
                &HashMap::new(),
                &mut collector,
                &ExecConfig {
                    mode,
                    ..ExecConfig::default()
                },
            )
            .unwrap();
            assert_eq!(outcome.stdout, "hi\n", "{mode:?}");
            assert_eq!(collector.names(), vec!["puts"], "{mode:?}");
        }
    }

    #[test]
    fn registry_counters_track_compile_and_run() {
        let registry = Registry::new();
        let prog = parse_program("fn main() { puts(\"x\"); puts(\"y\"); }").unwrap();
        let vm = VmProgram::with_registry(&prog, &HashMap::new(), &registry).unwrap();
        let mut session = session_with_items();
        vm.run(
            &mut session,
            &[],
            &mut TraceCollector::new(),
            &ExecConfig::default(),
        )
        .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("trace.vm.compiles"), Some(1));
        assert_eq!(snap.counter("trace.vm.runs"), Some(1));
        assert_eq!(snap.counter("trace.vm.events"), Some(2));
        assert!(snap.counter("trace.vm.instructions").unwrap_or(0) > 0);
    }
}
