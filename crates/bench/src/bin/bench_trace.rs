//! Trace-generation throughput harness: events/sec for the tree-walking
//! reference interpreter vs the bytecode VM on the CA-dataset workloads
//! (hospital and banking), plus one-off compile cost and the VM's
//! observability counters. Results are appended to the `BENCH_trace.json`
//! history (a JSON array, one entry per run) at the workspace root. Run
//! with:
//!
//! ```text
//! cargo run --release -p adprom-bench --bin bench_trace
//! ```
//!
//! Flags:
//!
//! * `--smoke` — small workloads and a short measurement budget, for CI.
//!
//! Every timed pairing first *asserts* that the two runtimes emit
//! bit-identical traces for every test case (same `CallEvent` sequence per
//! case), so the recorded speedup is for equivalent work, and the run
//! asserts `vm_vs_tree_walk_ratio >= 1.0` — the VM must never be slower
//! than the reference it replaces.

use adprom_analysis::analyze;
use adprom_client::ClientSession;
use adprom_obs::Registry;
use adprom_trace::{run_program, CallEvent, ExecConfig, TraceCollector, VmProgram};
use adprom_workloads::{banking, hospital, Workload};
use std::time::Instant;

/// Best-run throughput: repeats `run` until the measurement budget is
/// spent and reports events/sec of the fastest run (the least-noise
/// estimator on a shared machine). `run` returns (event count, seconds of
/// execution time) — per-case setup (database clone, session connect) is
/// excluded by the caller so the metric is trace *generation*, not setup.
fn throughput(max_runs: usize, budget_secs: f64, run: &dyn Fn() -> (usize, f64)) -> f64 {
    let (reference, _) = run(); // warm-up (also primes allocator and caches)
    let mut best = f64::INFINITY;
    let budget = Instant::now();
    let mut runs = 0;
    while runs < max_runs && budget.elapsed().as_secs_f64() < budget_secs {
        let (got, secs) = run();
        assert_eq!(got, reference, "non-deterministic event count");
        best = best.min(secs);
        runs += 1;
    }
    reference as f64 / best
}

/// Appends `entry` to the JSON history array at `path` (one object per
/// run).
fn append_history(path: &str, entry: &str) {
    let history = match std::fs::read_to_string(path) {
        Ok(old) => {
            let old = old.trim();
            if let Some(stripped) = old.strip_prefix('[') {
                let inner = stripped
                    .strip_suffix(']')
                    .unwrap_or(stripped)
                    .trim()
                    .trim_end_matches(',');
                if inner.is_empty() {
                    format!("[\n{entry}\n]\n")
                } else {
                    format!("[\n{inner},\n{entry}\n]\n")
                }
            } else if old.starts_with('{') {
                format!("[\n{old},\n{entry}\n]\n")
            } else {
                format!("[\n{entry}\n]\n")
            }
        }
        Err(_) => format!("[\n{entry}\n]\n"),
    };
    std::fs::write(path, &history).expect("write BENCH_trace.json");
}

struct WorkloadResult {
    name: &'static str,
    cases: usize,
    events: usize,
    compile_micros: f64,
    instructions_per_event: f64,
    tree_eps: f64,
    vm_eps: f64,
    ratio: f64,
    events_identical: bool,
}

/// Benchmarks one workload: tree-walk vs precompiled-VM full trace
/// collection (every test case, fresh seeded database per case — the
/// Calls Collector's training-set sweep).
fn bench_workload(
    name: &'static str,
    workload: &Workload,
    max_runs: usize,
    budget_secs: f64,
) -> WorkloadResult {
    let analysis = analyze(&workload.program);
    let labels = &analysis.site_labels;
    let config = ExecConfig::default();
    // Seed the database once and clone the snapshot per case, so the timed
    // region is trace generation, not SQL DDL re-execution.
    let proto_db = (workload.make_db)();

    // Compile once; time it so the JSON records the amortized cost.
    let registry = Registry::new();
    let compile_start = Instant::now();
    let vm = VmProgram::with_registry(&workload.program, labels, &registry)
        .unwrap_or_else(|e| panic!("workload {name} failed to compile: {e}"));
    let compile_micros = compile_start.elapsed().as_secs_f64() * 1e6;

    // One sweep over every test case; only the execute-and-collect span is
    // timed (the database clone and session connect are identical setup
    // work in both modes and are excluded from the metric).
    let sweep_tree = || -> (Vec<Vec<CallEvent>>, f64) {
        let mut secs = 0.0;
        let traces = workload
            .test_cases
            .iter()
            .map(|case| {
                let mut session = ClientSession::connect(proto_db.clone());
                let mut collector = TraceCollector::new();
                let start = Instant::now();
                run_program(
                    &workload.program,
                    &mut session,
                    &case.inputs,
                    labels,
                    &mut collector,
                    &config,
                )
                .unwrap_or_else(|e| panic!("{name}/{} tree-walk failed: {e}", case.name));
                secs += start.elapsed().as_secs_f64();
                collector.into_events()
            })
            .collect();
        (traces, secs)
    };
    let sweep_vm = || -> (Vec<Vec<CallEvent>>, f64) {
        let mut secs = 0.0;
        let traces = workload
            .test_cases
            .iter()
            .map(|case| {
                let mut session = ClientSession::connect(proto_db.clone());
                let mut collector = TraceCollector::new();
                let start = Instant::now();
                vm.run(&mut session, &case.inputs, &mut collector, &config)
                    .unwrap_or_else(|e| panic!("{name}/{} vm failed: {e}", case.name));
                secs += start.elapsed().as_secs_f64();
                collector.into_events()
            })
            .collect();
        (traces, secs)
    };

    // Equivalence gate before any timing: identical traces, case for case.
    let (tree_traces, _) = sweep_tree();
    let (vm_traces, _) = sweep_vm();
    let events_identical = tree_traces == vm_traces;
    assert!(
        events_identical,
        "{name}: VM traces diverged from the tree-walk reference"
    );
    let events: usize = tree_traces.iter().map(Vec::len).sum();

    let tree_eps = throughput(max_runs, budget_secs, &|| {
        let (traces, secs) = sweep_tree();
        (traces.iter().map(Vec::len).sum(), secs)
    });
    let vm_eps = throughput(max_runs, budget_secs, &|| {
        let (traces, secs) = sweep_vm();
        (traces.iter().map(Vec::len).sum(), secs)
    });
    let ratio = vm_eps / tree_eps;

    let snap = registry.snapshot();
    let vm_events = snap.counter("trace.vm.events").unwrap_or(0);
    let vm_instructions = snap.counter("trace.vm.instructions").unwrap_or(0);
    let instructions_per_event = if vm_events > 0 {
        vm_instructions as f64 / vm_events as f64
    } else {
        0.0
    };

    println!(
        "== {name}: trace generation (window of {} cases) ==",
        workload.test_cases.len()
    );
    println!("events per sweep: {events}, compile: {compile_micros:.0}us");
    println!("tree-walk reference : {tree_eps:>12.0} events/sec");
    println!("bytecode VM         : {vm_eps:>12.0} events/sec  ({ratio:.2}x)");
    println!(
        "vm counters: {} runs, {} instructions ({instructions_per_event:.1} per event), \
         {} events",
        snap.counter("trace.vm.runs").unwrap_or(0),
        vm_instructions,
        vm_events,
    );
    println!("traces identical to reference: {events_identical}\n");

    WorkloadResult {
        name,
        cases: workload.test_cases.len(),
        events,
        compile_micros,
        instructions_per_event,
        tree_eps,
        vm_eps,
        ratio,
        events_identical,
    }
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_trace [--smoke]");
                std::process::exit(2);
            }
        }
    }
    let (cases, max_runs, budget_secs) = if smoke { (12, 3, 0.3) } else { (48, 12, 1.5) };

    let results = [
        bench_workload(
            "hospital",
            &hospital::workload(cases, 9),
            max_runs,
            budget_secs,
        ),
        bench_workload(
            "banking",
            &banking::workload(cases, 11),
            max_runs,
            budget_secs,
        ),
    ];

    // The VM exists to be faster than the reference; a ratio below 1.0 on
    // any workload is a regression and fails the run (and CI's bench-smoke
    // gate re-checks the recorded JSON).
    for r in &results {
        assert!(
            r.ratio >= 1.0,
            "{}: VM slower than tree-walk ({:.2}x)",
            r.name,
            r.ratio
        );
    }

    let workload_entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"workload\": \"{}\",\n      \
                 \"cases\": {},\n      \
                 \"events\": {},\n      \
                 \"compile_micros\": {:.0},\n      \
                 \"instructions_per_event\": {:.1},\n      \
                 \"tree_walk_events_per_sec\": {:.0},\n      \
                 \"vm_events_per_sec\": {:.0},\n      \
                 \"vm_vs_tree_walk_ratio\": {:.2},\n      \
                 \"events_identical\": {}\n    }}",
                r.name,
                r.cases,
                r.events,
                r.compile_micros,
                r.instructions_per_event,
                r.tree_eps,
                r.vm_eps,
                r.ratio,
                r.events_identical,
            )
        })
        .collect();
    let min_ratio = results
        .iter()
        .map(|r| r.ratio)
        .fold(f64::INFINITY, f64::min);
    let all_identical = results.iter().all(|r| r.events_identical);
    let entry = format!(
        "  {{\n    \"smoke\": {smoke},\n    \
         \"min_vm_vs_tree_walk_ratio\": {min_ratio:.2},\n    \
         \"events_identical\": {all_identical},\n    \
         \"workloads\": [\n{}\n    ]\n  }}",
        workload_entries.join(",\n"),
    );
    append_history("BENCH_trace.json", &entry);
    println!("appended run to BENCH_trace.json (min ratio {min_ratio:.2})");
}
