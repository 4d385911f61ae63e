//! Batched-detection throughput harness: events/sec for the serial
//! full-recompute scan (the baseline detection path) vs the sparse CSR
//! scoring kernel and the parallel batch pipeline in both scoring modes —
//! the `MonitorRuntime` fed one session per trace, replayed in one flush
//! across the thread pool — plus serial-vs-parallel Baum–Welch training
//! wall-clock. Results are appended to the `BENCH_detect.json` history (a
//! JSON array, one entry per run) at the workspace root. Run with:
//!
//! ```text
//! cargo run --release -p adprom-bench --bin bench_detect
//! ```
//!
//! Flags:
//!
//! * `--sparse` — score through the exact sparse CSR kernel (ε = 0); the
//!   profile is built with `flatten_epsilon = 1e-4` so the trained model
//!   decomposes sparsely, and the run *asserts* that alert counts and
//!   per-window flags match the dense kernel exactly.
//! * `--simd` — SIMD-shaped scoring gate: the batched lane-major sparse
//!   kernel in f64 vs the f32 fast path with f64 guard-band
//!   verification, timed adjacently in paired rounds. The run *asserts*
//!   that the f32-verified per-window flags are identical to the pure
//!   f64 run's, and records the throughput ratio plus how many windows
//!   the guard band sent back to f64.
//! * `--metrics-out <path>` — dump the full pipeline metrics snapshot
//!   (training, detection, monitor, kernel and sliding-scorer accounting).
//! * `--smoke` — small workload and short measurement budget, for CI.
//! * `--faults` — after the throughput runs, replay the batch under a
//!   deterministic fault plan (corrupt + truncated ingest, panics injected
//!   into two sessions' replays) and *assert* that every non-quarantined
//!   trace gets the same verdict as a fault-free run over the same
//!   screened input.
//! * `--multiapp` — interleave 3 applications × 64 sessions each
//!   (banking, supermarket, hospital) into one stream through a
//!   `ProfileRegistry` + `MonitorRuntime` (incremental mode, sparse
//!   kernel), *assert* every session's verdict matches a per-app serial
//!   scan of its de-interleaved trace, report per-stage
//!   (`monitor.stage.*`) p50/p99 latencies, and record multiplexed
//!   throughput against one unmultiplexed runtime batch per app over the
//!   same workload. With `--metrics-out <path>` the monitor registry
//!   snapshot is also written, to `<path stem>.multiapp.<ext>`.
//! * `--forensics` — replay the §V-C attack corpus (banking + hospital
//!   mutants plus the SQL-injection input) through a forensics-armed
//!   `MonitorRuntime`, *assert* every alarm audit record carries a
//!   `ForensicReport` with non-empty top-k attribution and that the
//!   reports are bit-identical at 1/4/8 worker threads, print ranked
//!   reports per attack family, dump the records to
//!   `FORENSICS_detect.jsonl`, and record the forensics-enabled
//!   benign-path throughput against the disabled runtime.
//! * `--service` — replay the 3-application interleaved corpus through
//!   the sharded monitoring service's framed wire path: encode the
//!   stream as `ADP1` frames, ingest through a `ShardedMonitor` at
//!   shard counts {1, 2, 4, 8}, *assert* per-session verdicts are
//!   bit-identical to an unsharded `MonitorRuntime` over the same
//!   stream, *assert* a mid-stream cross-shard profile hot-swap never
//!   splits a session's windows across epochs, and record aggregate
//!   events/sec per shard count. On this box shard replays are timed
//!   one at a time and the aggregate is the critical-path model
//!   (total events / slowest shard — the array's capacity when each
//!   shard owns a core), recorded alongside the serial wall number.
//! * `--overload` — replay the attack corpus plus the benign training
//!   sessions through an overload-controlled `MonitorRuntime` whose
//!   scoring budget is half its hard ingest bound (sustained 2× load),
//!   *assert* session recall of 1.0 and, under backpressure, exactly the
//!   unconstrained run's alarm count, bit-identical tier histories at
//!   1/4/8 threads, and a queue high-water at or under the bound; record
//!   the per-tier assignment and window partitions plus a DropNewest
//!   shed sub-run.

use adprom_analysis::analyze;
use adprom_attacks::{
    attack1_insert_similar_print, attack2_new_call_in_function, attack3_reuse_print,
    attack4_binary_patch,
};
use adprom_core::resilience::sites;
use adprom_core::{
    apply_ingest_faults, build_profile, encode_stream, init_from_pctm, partition_stream, shard_for,
    trace_windows, verdict_partition, Alert, ConstructorConfig, DetectionEngine, FaultInjector,
    FaultKind, FaultPlan, Flag, ForensicsConfig, Health, KernelConfig, MonitorRuntime,
    OverloadConfig, Precision, ProfileRegistry, RuntimeConfig, ScoringMode, ScoringTier,
    SessionEnd, SessionReport, ShardedMonitor, ShedPolicy, Trigger,
};
use adprom_hmm::{
    log_likelihood_sparse, score_windows_batch, train, F32Kernel, Hmm, SparseConfig,
    SparseTransitions,
};
use adprom_obs::{AuditLog, AuditRecord, MemoryAuditSink, Registry};
use adprom_trace::{interleave, CallEvent, TaggedCall, TraceValidator};
use adprom_workloads::{banking, hospital, supermarket, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Best-run throughput: repeats `run` until the measurement budget is
/// spent and reports events/sec of the fastest run (the least-noise
/// estimator on a shared machine).
fn throughput(
    events: usize,
    max_runs: usize,
    budget_secs: f64,
    run: &dyn Fn() -> usize,
) -> (f64, usize) {
    let alerts = run(); // warm-up (also primes allocator and caches)
    let mut best = f64::INFINITY;
    let budget = Instant::now();
    let mut runs = 0;
    while runs < max_runs && budget.elapsed().as_secs_f64() < budget_secs {
        let start = Instant::now();
        let got = run();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(got, alerts, "non-deterministic alert count");
        best = best.min(secs);
        runs += 1;
    }
    (events as f64 / best, alerts)
}

/// A batch of traces as one monitored stream: trace `i` becomes session
/// `sessions[i]` of `app`, its events contiguous. Fed to
/// [`batch_runtime`], the batch replays in one parallel flush at
/// `finish()`, one report per non-empty trace, in input order.
fn batch_stream(app: &str, sessions: &[String], traces: &[Vec<CallEvent>]) -> Vec<TaggedCall> {
    sessions
        .iter()
        .zip(traces)
        .flat_map(|(session, trace)| {
            trace.iter().map(move |event| TaggedCall {
                app: app.to_string(),
                session: session.clone(),
                event: event.clone(),
            })
        })
        .collect()
}

/// A runtime that holds a whole batch until `finish()`: no session bound,
/// no mid-stream flush.
fn batch_runtime(profiles: &Arc<ProfileRegistry>, mode: ScoringMode) -> MonitorRuntime {
    MonitorRuntime::new(Arc::clone(profiles)).with_config(RuntimeConfig {
        mode,
        max_sessions: 0,
        queue_capacity: 0,
        ..RuntimeConfig::default()
    })
}

/// Flag counts over a batch of per-trace alert lists, in severity order
/// (normal, anomalous, data-leak, out-of-context).
fn flag_partition(reports: &[Vec<Alert>]) -> [usize; 4] {
    let mut counts = [0usize; 4];
    for alert in reports.iter().flatten() {
        let idx = match alert.flag {
            Flag::Normal => 0,
            Flag::Anomalous => 1,
            Flag::DataLeak => 2,
            Flag::OutOfContext => 3,
        };
        counts[idx] += 1;
    }
    counts
}

/// Appends `entry` to the `BENCH_detect.json` history array, migrating
/// the legacy single-object format (the whole file was one run) by
/// wrapping it as the first element.
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
    std::fs::write(path, &history).expect("write BENCH_detect.json");
}

/// The §V-C attack corpus shared by the `--forensics` and `--overload`
/// gates: banking + hospital profiles, one attacked session per mutant
/// test case (plus the SQL-injection input on the unmodified banking
/// binary), and the apps' own training sessions as the benign load.
struct AttackCorpus {
    profiles: Arc<ProfileRegistry>,
    attack_sessions: Vec<(String, String, Vec<CallEvent>)>,
    benign_sessions: Vec<(String, String, Vec<CallEvent>)>,
}

fn build_attack_corpus(
    cases: usize,
    corpus_cases: usize,
    max_iterations: usize,
    kernel: Option<KernelConfig>,
) -> AttackCorpus {
    let mut corpus_config = ConstructorConfig::default();
    corpus_config.train.max_iterations = max_iterations;
    if kernel.is_some() {
        // Kernelled corpora flatten Baum–Welch's floor dust so the CSR
        // decomposition is sparse (and, at ε = 0, exact).
        corpus_config.flatten_epsilon = 1e-4;
    }

    struct CorpusApp {
        name: &'static str,
        workload: Workload,
        analysis: adprom_analysis::Analysis,
        traces: Vec<Vec<CallEvent>>,
        profile: adprom_core::Profile,
    }
    let corpus_apps: Vec<CorpusApp> = [
        ("banking", banking::workload(cases, 0x7AB1)),
        ("hospital", hospital::workload(cases, 9)),
    ]
    .into_iter()
    .map(|(name, w)| {
        let analysis = analyze(&w.program);
        let traces = w.collect_traces(&analysis.site_labels);
        let (app_profile, _) =
            build_profile(&format!("App_{name}"), &analysis, &traces, &corpus_config);
        CorpusApp {
            name,
            workload: w,
            analysis,
            traces,
            profile: app_profile,
        }
    })
    .collect();

    // The §V-C program mutators per app; attack 5 is a malicious input
    // on the unmodified banking binary. A mutator that finds no target
    // in an app (e.g. no reusable print) simply contributes no family.
    let mut families: Vec<(String, &'static str, Vec<Vec<CallEvent>>)> = Vec::new();
    for app in &corpus_apps {
        let query = format!(
            "SELECT * FROM {}",
            if app.name == "banking" {
                "clients"
            } else {
                "patients"
            }
        );
        let mutants = [
            (
                "attack1",
                attack1_insert_similar_print(&app.workload.program),
            ),
            (
                "attack2",
                attack2_new_call_in_function(&app.workload.program, &query),
            ),
            ("attack3", attack3_reuse_print(&app.workload.program)),
            (
                "attack4",
                attack4_binary_patch(&app.workload.program, &query),
            ),
        ];
        for (attack, outcome) in mutants {
            let Some(outcome) = outcome else { continue };
            let attacked = Workload {
                name: app.workload.name.clone(),
                dbms: app.workload.dbms,
                program: outcome.program,
                make_db: app.workload.make_db,
                test_cases: app.workload.test_cases.clone(),
            };
            // Detection-time instrumentation re-analyzes the mutant.
            let attacked_analysis = analyze(&attacked.program);
            let attacked_traces: Vec<Vec<CallEvent>> = attacked
                .test_cases
                .iter()
                .take(corpus_cases)
                .map(|case| attacked.run_case(case, &attacked_analysis.site_labels))
                .collect();
            families.push((format!("{}/{attack}", app.name), app.name, attacked_traces));
        }
    }
    let banking_app = &corpus_apps[0];
    families.push((
        "banking/attack5".to_string(),
        "banking",
        vec![banking_app.workload.run_case(
            &banking::injection_case(),
            &banking_app.analysis.site_labels,
        )],
    ));

    let profiles = {
        let corpus_registry = match kernel {
            Some(config) => ProfileRegistry::new().with_kernel(config),
            None => ProfileRegistry::new(),
        };
        for app in &corpus_apps {
            corpus_registry
                .register(app.name, app.profile.clone())
                .expect("corpus profile validates");
        }
        Arc::new(corpus_registry)
    };

    // One attacked session per collected trace; sessions are named
    // `<app>/<attack>#<case>` so records group back to their family.
    let attack_sessions: Vec<(String, String, Vec<CallEvent>)> = families
        .iter()
        .flat_map(|(family, app, attacked_traces)| {
            attacked_traces
                .iter()
                .enumerate()
                .map(move |(i, t)| (app.to_string(), format!("{family}#{i}"), t.clone()))
        })
        .collect();
    let benign_sessions: Vec<(String, String, Vec<CallEvent>)> = corpus_apps
        .iter()
        .flat_map(|app| {
            app.traces.iter().enumerate().map(move |(i, t)| {
                (
                    app.name.to_string(),
                    format!("{}-benign-{i}", app.name),
                    t.clone(),
                )
            })
        })
        .collect();
    AttackCorpus {
        profiles,
        attack_sessions,
        benign_sessions,
    }
}

fn main() {
    let mut metrics_out: Option<String> = None;
    let mut smoke = false;
    let mut sparse = false;
    let mut faults = false;
    let mut multiapp = false;
    let mut forensics = false;
    let mut simd = false;
    let mut overload = false;
    let mut service = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out requires a path"));
            }
            "--smoke" => smoke = true,
            "--sparse" => sparse = true,
            "--simd" => simd = true,
            "--faults" => faults = true,
            "--multiapp" => multiapp = true,
            "--forensics" => forensics = true,
            "--overload" => overload = true,
            "--service" => service = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_detect [--smoke] [--sparse] [--simd] [--faults] [--multiapp] \
                     [--forensics] [--overload] [--service] [--metrics-out <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    // Bare --metrics-out filenames land under target/ (with the other
    // build products) instead of littering the repo root; explicit
    // directories are honored as given.
    let metrics_out = metrics_out.map(|path| {
        if path.contains('/') {
            path
        } else {
            format!("target/{path}")
        }
    });
    std::fs::create_dir_all("target").expect("create target dir");
    let (cases, max_iterations, max_runs, budget_secs) = if smoke {
        (12, 3, 2, 0.3)
    } else {
        (48, 6, 12, 1.5)
    };
    let kernel_mode = if sparse { "sparse" } else { "dense" };
    // One label per run shape: history entries carry it so gates select
    // the latest entry per (workload, mode) instead of guessing by tail
    // position across heterogeneous runs.
    let mode_label = if service {
        "service"
    } else if overload {
        "overload"
    } else if simd {
        "simd"
    } else if multiapp {
        "multiapp"
    } else if forensics {
        "forensics"
    } else if faults {
        "faults"
    } else {
        kernel_mode
    };
    let kernel_config = if sparse {
        KernelConfig::Sparse {
            sparse: SparseConfig::default(),
        }
    } else {
        KernelConfig::Dense
    };

    // The CA hospital application at a batch size that models a busy
    // monitoring interval: many independent sessions, window n = 15.
    let registry = Registry::new();
    let workload = hospital::workload(cases, 9);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = max_iterations;
    config.registry = registry.clone();
    if sparse || simd {
        // Collapse Baum–Welch's floor dust back to a bit-exact per-row
        // background so the CSR decomposition is sparse (and, at ε = 0,
        // exact) on the trained model.
        config.flatten_epsilon = 1e-4;
    }
    let (profile, _) = build_profile("App_hospital", &analysis, &traces, &config);

    let batch: Vec<Vec<CallEvent>> = traces;
    let n_traces = batch.len();
    let events: usize = batch.iter().map(Vec::len).sum();

    // Serial dense baseline: the paper's per-window full forward pass.
    let dense_engine = DetectionEngine::new(&profile).with_registry(&registry);
    let (serial_eps, serial_alerts) = throughput(events, max_runs, budget_secs, &|| {
        batch
            .iter()
            .map(|t| dense_engine.scan(t).len())
            .sum::<usize>()
    });

    // Serial sparse CSR kernel path, when selected.
    let kernel_engine = DetectionEngine::new(&profile)
        .with_registry(&registry)
        .with_kernel(kernel_config);
    let kernel_serial: Option<(f64, usize)> = sparse.then(|| {
        throughput(events, max_runs, budget_secs, &|| {
            batch
                .iter()
                .map(|t| kernel_engine.scan(t).len())
                .sum::<usize>()
        })
    });

    // Exactness gate (ε = 0): the sparse kernel must reproduce the dense
    // run's alerts window for window — counts, flags and the flag
    // partition.
    let kernel_flags_match_dense: Option<bool> = sparse.then(|| {
        let dense_reports: Vec<Vec<Alert>> = batch.iter().map(|t| dense_engine.scan(t)).collect();
        let kernel_reports: Vec<Vec<Alert>> = batch.iter().map(|t| kernel_engine.scan(t)).collect();
        let dense_flags: Vec<Flag> = dense_reports.iter().flatten().map(|a| a.flag).collect();
        let kernel_flags: Vec<Flag> = kernel_reports.iter().flatten().map(|a| a.flag).collect();
        let matches = dense_flags == kernel_flags
            && flag_partition(&dense_reports) == flag_partition(&kernel_reports);
        assert!(
            matches,
            "sparse kernel flag partition diverged from dense: {:?} vs {:?}",
            flag_partition(&kernel_reports),
            flag_partition(&dense_reports),
        );
        matches
    });

    // The parallel paths: the monitor runtime fed one session per trace,
    // the whole batch replayed in one flush across the default pool.
    let batch_profiles = ProfileRegistry::new().with_kernel(kernel_config);
    batch_profiles
        .register("hospital", profile.clone())
        .expect("profile validates");
    let batch_profiles = Arc::new(batch_profiles);
    let batch_sessions: Vec<String> = (0..n_traces).map(|i| i.to_string()).collect();
    let batch_events = batch_stream("hospital", &batch_sessions, &batch);
    let run_batch = |mode: ScoringMode| -> Vec<SessionReport> {
        let mut runtime = batch_runtime(&batch_profiles, mode).with_registry(&registry);
        runtime.ingest_stream(&batch_events);
        runtime.finish()
    };
    let alert_count =
        |reports: Vec<SessionReport>| -> usize { reports.iter().map(|r| r.alerts.len()).sum() };
    // Record the pool size actually in force, not an assumed core count.
    let threads = rayon::current_num_threads();
    let (par_exact_eps, par_exact_alerts) = throughput(events, max_runs, budget_secs, &|| {
        alert_count(run_batch(ScoringMode::ExactWindows))
    });
    let (par_inc_eps, par_inc_alerts) = throughput(events, max_runs, budget_secs, &|| {
        alert_count(run_batch(ScoringMode::Incremental))
    });

    // Determinism spot-checks, not just counts: the parallel exact mode
    // must reproduce the same-kernel serial alerts verbatim; incremental
    // must agree on the alert counts.
    let ref_engine = if sparse {
        &kernel_engine
    } else {
        &dense_engine
    };
    let serial_reports: Vec<_> = batch.iter().map(|t| ref_engine.scan(t)).collect();
    // An empty trace opened no session: zero alerts.
    let mut exact_reports = vec![Vec::new(); n_traces];
    for report in run_batch(ScoringMode::ExactWindows) {
        let index: usize = report.session.parse().expect("numeric session id");
        exact_reports[index] = report.alerts;
    }
    let exact_identical = serial_reports == exact_reports;
    assert!(
        exact_identical,
        "parallel exact output diverged from serial"
    );
    assert_eq!(serial_alerts, par_exact_alerts);
    assert_eq!(serial_alerts, par_inc_alerts);

    let speedup_exact = par_exact_eps / serial_eps;
    let speedup_inc = par_inc_eps / serial_eps;

    // Baum–Welch E-step: serial vs rayon-parallel wall-clock from the same
    // initial model, and bit-identity of the trained parameters (the
    // per-trace statistics are folded in input order, so thread count must
    // not change a single bit of A, B or π).
    let windows_enc: Vec<Vec<usize>> = trace_windows(&batch, config.window)
        .iter()
        .map(|w| profile.alphabet.encode_seq(w))
        .collect();
    let csds_len = windows_enc.len() / 5;
    let (csds, train_set) = windows_enc.split_at(csds_len);
    let init = init_from_pctm(&analysis.pctm, &profile.alphabet, &config.init);
    let bw_runs = if smoke { 1 } else { 3 };
    let time_train = |parallel: bool| -> (f64, Hmm) {
        let mut train_config = config.train;
        train_config.parallel = parallel;
        let mut best = f64::INFINITY;
        let mut trained = init.hmm.clone();
        for _ in 0..bw_runs {
            let mut hmm = init.hmm.clone();
            let start = Instant::now();
            train(&mut hmm, train_set, csds, &train_config);
            best = best.min(start.elapsed().as_secs_f64());
            trained = hmm;
        }
        (best, trained)
    };
    let (bw_serial_secs, bw_serial_model) = time_train(false);
    let (bw_parallel_secs, bw_parallel_model) = time_train(true);
    let bw_bit_identical = bw_serial_model == bw_parallel_model;
    assert!(bw_bit_identical, "parallel Baum-Welch diverged from serial");
    let bw_speedup = bw_serial_secs / bw_parallel_secs;

    // Fault-injection gate: replay the batch under a deterministic fault
    // plan and require that resilience machinery never changes a verdict
    // on a trace it kept.
    let fault_fields = if faults {
        // Injected panics are expected; keep their backtraces out of the
        // bench output.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("fault-injected"));
            if !injected {
                default_hook(info);
            }
        }));

        let fault_registry = Registry::new();
        let injector = FaultPlan::new(42)
            .inject(
                sites::INGEST_CORRUPT,
                FaultKind::CorruptEvent,
                Trigger::OnceForKeys([1u64].into()),
            )
            .inject(
                sites::INGEST_TRUNCATE,
                FaultKind::TruncateTrace,
                Trigger::OnceForKeys([2u64].into()),
            )
            // Keyed by session arrival in the monitored batch below.
            .inject(
                sites::MONITOR_SWAP,
                FaultKind::Panic,
                Trigger::OnceForKeys([0u64, 4].into()),
            )
            .arm();

        let mut faulty = batch.clone();
        let injected_ingest = apply_ingest_faults(&injector, &mut faulty);
        let sessions: Vec<String> = (0..faulty.len()).map(|i| format!("conn-{i}")).collect();
        let screened = TraceValidator::new()
            .with_registry(&fault_registry)
            .screen(&sessions, &faulty);
        let quarantined = screened.quarantined.len();
        assert_eq!(quarantined, 1, "exactly the corrupt trace is quarantined");

        // Fault-free reference over the same screened input, then the
        // guarded run: each through its own registry, so only the faulty
        // run's app health absorbs the panics.
        let screened_stream = batch_stream("hospital", &screened.sessions, &screened.traces);
        let monitor = |faults: Option<&FaultInjector>| -> (Vec<SessionReport>, Health) {
            let profiles = ProfileRegistry::new().with_kernel(kernel_config);
            profiles
                .register("hospital", profile.clone())
                .expect("profile validates");
            let profiles = Arc::new(profiles);
            let mut runtime = batch_runtime(&profiles, ScoringMode::ExactWindows);
            if let Some(faults) = faults {
                runtime = runtime.with_registry(&fault_registry).with_faults(faults);
            }
            runtime.ingest_stream(&screened_stream);
            let health = profiles.health("hospital").expect("registered app");
            (runtime.finish(), health.state())
        };
        let (clean, _) = monitor(None);
        let (reports, health) = monitor(Some(&injector));
        let recovered = fault_registry
            .snapshot()
            .counter("resilience.traces_recovered")
            .unwrap_or(0);
        let verdicts_match = clean.len() == reports.len()
            && clean.iter().zip(&reports).all(|(c, f)| {
                c.session == f.session && c.alerts == f.alerts && c.verdict == f.verdict
            });
        assert!(
            verdicts_match,
            "fault-injected run changed a kept trace's verdict"
        );
        assert_eq!(recovered, injector.injected(sites::MONITOR_SWAP));
        assert_eq!(health, Health::Degraded);

        // Queue-overflow fail point: stream the screened sessions through
        // a MonitorRuntime whose hard ingest bound is tripped by injected
        // QueueOverflow faults every few events. The forced backpressure
        // flushes reshape the batch boundaries but must not change a
        // single verdict versus the fault-free streaming run.
        let overflow_sessions: Vec<(String, String, Vec<CallEvent>)> = screened
            .sessions
            .iter()
            .zip(&screened.traces)
            .map(|(s, t)| ("hospital".to_string(), s.clone(), t.clone()))
            .collect();
        let overflow_stream = interleave(&overflow_sessions, 0x0F10);
        let run_stream = |injector: Option<&FaultInjector>| -> String {
            let stream_profiles = ProfileRegistry::new();
            stream_profiles
                .register("hospital", profile.clone())
                .expect("profile validates");
            let mut runtime = MonitorRuntime::new(Arc::new(stream_profiles));
            if let Some(injector) = injector {
                runtime = runtime.with_faults(injector);
            }
            runtime.ingest_stream(&overflow_stream);
            format!("{:?}", runtime.finish())
        };
        let overflow_injector = FaultPlan::new(43)
            .inject(
                sites::MONITOR_QUEUE_OVERFLOW,
                FaultKind::QueueOverflow,
                Trigger::EveryNth(7),
            )
            .arm();
        let clean_verdicts = run_stream(None);
        let overflow_verdicts = run_stream(Some(&overflow_injector));
        let overflow_injected = overflow_injector.injected(sites::MONITOR_QUEUE_OVERFLOW);
        assert!(overflow_injected > 0, "overflow fail point never fired");
        let overflow_verdicts_match = clean_verdicts == overflow_verdicts;
        assert!(
            overflow_verdicts_match,
            "injected queue overflow changed a session verdict"
        );

        println!("== Fault injection ==");
        println!(
            "ingest faults applied: {injected_ingest} ({quarantined} corrupt quarantined, \
             truncated traces kept)"
        );
        println!(
            "worker panics injected: {}, recovered: {recovered}, verdicts match \
             fault-free run: {verdicts_match}, health: {health}",
            injector.injected(sites::MONITOR_SWAP),
        );
        println!(
            "queue overflows injected: {overflow_injected}, streaming verdicts match \
             fault-free run: {overflow_verdicts_match}"
        );
        format!(
            "    \"fault_injection\": true,\n    \
             \"fault_ingest_applied\": {injected_ingest},\n    \
             \"fault_quarantined\": {quarantined},\n    \
             \"fault_panics_recovered\": {recovered},\n    \
             \"fault_verdicts_match_clean\": {verdicts_match},\n    \
             \"fault_overflow_injected\": {overflow_injected},\n    \
             \"fault_overflow_verdicts_match\": {overflow_verdicts_match},\n"
        )
    } else {
        String::new()
    };

    // Multi-application monitoring gate: three CA-dataset applications'
    // sessions interleaved into one stream through a ProfileRegistry and
    // a session-multiplexed MonitorRuntime (incremental mode, sparse
    // kernel). Every session's alerts must be identical to a per-app
    // serial scan of its de-interleaved trace, and the multiplexed
    // throughput is recorded against the per-app unmultiplexed incremental
    // path over the exact same workload.
    let multiapp_fields = if multiapp {
        let sessions_per_app = 64;
        let mut app_config = ConstructorConfig::default();
        app_config.train.max_iterations = max_iterations;
        app_config.flatten_epsilon = 1e-4; // sparse-exact CSR decomposition
        type AppBuild = (&'static str, fn(usize, u64) -> Workload);
        let builds: [AppBuild; 3] = [
            ("banking", banking::workload),
            ("supermarket", supermarket::workload),
            ("hospital", hospital::workload),
        ];
        let apps: Vec<(&str, Vec<Vec<CallEvent>>, adprom_core::Profile)> = builds
            .iter()
            .enumerate()
            .map(|(i, (name, make))| {
                let w = make(sessions_per_app, 9 + i as u64);
                let a = analyze(&w.program);
                let t = w.collect_traces(&a.site_labels);
                let (p, _) = build_profile(&format!("App_{name}"), &a, &t, &app_config);
                (*name, t, p)
            })
            .collect();

        let sparse_kernel = KernelConfig::Sparse {
            sparse: SparseConfig::default(),
        };
        let profiles = ProfileRegistry::new().with_kernel(sparse_kernel);
        for (name, _, app_profile) in &apps {
            profiles
                .register(name, app_profile.clone())
                .expect("CA-dataset profile validates");
        }
        let profiles = Arc::new(profiles);

        let sessions: Vec<(String, String, Vec<CallEvent>)> = apps
            .iter()
            .flat_map(|(name, traces, _)| {
                traces
                    .iter()
                    .enumerate()
                    .map(move |(i, t)| (name.to_string(), format!("{name}-{i}"), t.clone()))
            })
            .collect();
        let stream = interleave(&sessions, 0x5E55);
        let n_sessions = sessions.len();
        let m_events = stream.len();
        let incremental_config = RuntimeConfig {
            mode: ScoringMode::Incremental,
            queue_capacity: 0,
            ..RuntimeConfig::default()
        };

        // Verdict gate (untimed, with monitor metrics attached): the
        // multiplexed runtime must reproduce each per-app serial
        // incremental scan bit for bit.
        let monitor_obs = Registry::new();
        let reports = {
            let mut runtime = MonitorRuntime::new(Arc::clone(&profiles))
                .with_config(incremental_config.clone())
                .with_registry(&monitor_obs);
            runtime.ingest_stream(&stream);
            runtime.finish()
        };
        assert_eq!(reports.len(), n_sessions, "one report per session");
        let mut verdicts_match = true;
        for report in &reports {
            assert_eq!(report.end, SessionEnd::Finished, "no evictions expected");
            let (_, _, trace) = sessions
                .iter()
                .find(|(a, s, _)| *a == report.app && *s == report.session)
                .expect("report maps to an ingested session");
            let scorer = profiles.scorer(&report.app).expect("registered app");
            let (serial, _) = scorer.scan_incremental(trace, &report.session);
            verdicts_match &= format!("{:?}", report.alerts) == format!("{serial:?}");
        }
        assert!(
            verdicts_match,
            "multiapp runtime verdicts diverged from per-app serial scans"
        );
        let status = reports[0].kernel.clone();
        let multi_reports: Vec<Vec<Alert>> = reports.iter().map(|r| r.alerts.clone()).collect();
        let multi_partition = flag_partition(&multi_reports);
        let multi_alerts: usize = multi_reports.iter().map(Vec::len).sum();

        // Single-app baseline: the same traces as one batch per app, each
        // through its own runtime (incremental, sparse kernel, no
        // multiplexing).
        let app_streams: Vec<Vec<TaggedCall>> = apps
            .iter()
            .map(|(name, traces, _)| {
                let ids: Vec<String> = (0..traces.len()).map(|i| format!("{name}-{i}")).collect();
                batch_stream(name, &ids, traces)
            })
            .collect();

        // Throughput under noise: this box drifts 20%+ between runs, so
        // the two paths are timed adjacently in paired rounds and the
        // recorded ratio is the best pairing — drift cancels within a
        // pair where it would not across separately-timed blocks.
        let rounds = if smoke { 4 } else { max_runs.max(8) };
        let mut multi_eps = 0.0f64;
        let mut single_eps = 0.0f64;
        let mut ratio = 0.0f64;
        for _ in 0..rounds {
            let start = Instant::now();
            let mut runtime =
                MonitorRuntime::new(Arc::clone(&profiles)).with_config(incremental_config.clone());
            runtime.ingest_stream(&stream);
            let timed_alerts: usize = runtime.finish().iter().map(|r| r.alerts.len()).sum();
            let m = m_events as f64 / start.elapsed().as_secs_f64();
            assert_eq!(
                timed_alerts, multi_alerts,
                "multiplexed runs must be deterministic"
            );

            let start = Instant::now();
            let single_alerts: usize = app_streams
                .iter()
                .map(|app_stream| {
                    let mut runtime = batch_runtime(&profiles, ScoringMode::Incremental);
                    runtime.ingest_stream(app_stream);
                    runtime
                        .finish()
                        .iter()
                        .map(|r| r.alerts.len())
                        .sum::<usize>()
                })
                .sum();
            let s = m_events as f64 / start.elapsed().as_secs_f64();
            assert_eq!(
                single_alerts, multi_alerts,
                "per-app batch alerts must match the multiplexed runtime"
            );

            multi_eps = multi_eps.max(m);
            single_eps = single_eps.max(s);
            ratio = ratio.max(m / s);
        }

        let snap = monitor_obs.snapshot();
        println!("== Multi-application monitoring ==");
        println!(
            "{} apps x {sessions_per_app} sessions: {n_sessions} sessions, {m_events} events, \
             kernel {} -> {}",
            apps.len(),
            status.requested,
            status.effective,
        );
        println!(
            "sessions opened {}, finished {}, flushes {}, lru/idle evictions {}/{}",
            snap.counter("monitor.sessions.opened").unwrap_or(0),
            snap.counter("monitor.sessions.finished").unwrap_or(0),
            snap.counter("monitor.flushes").unwrap_or(0),
            snap.counter("monitor.evictions.lru").unwrap_or(0),
            snap.counter("monitor.evictions.idle").unwrap_or(0),
        );
        // Per-stage latency spans from the verdict-gate run: the
        // ingest → score → commit → finalize histograms the runtime's
        // serial clock recorded under the attached registry.
        let mut stage_fields = String::new();
        for stage in ["ingest", "score", "commit", "finalize"] {
            if let Some(h) = snap.histograms.get(&format!("monitor.stage.{stage}_ns")) {
                println!(
                    "stage {stage:<9}: p50 {:>8.0}ns  p99 {:>9.0}ns  max {:>9}ns  \
                     ({} samples)",
                    h.p50, h.p99, h.max, h.count
                );
                stage_fields.push_str(&format!(
                    "    \"multiapp_stage_{stage}_p50_ns\": {:.0},\n    \
                     \"multiapp_stage_{stage}_p99_ns\": {:.0},\n",
                    h.p50, h.p99
                ));
            }
        }
        println!("multiplexed runtime (incremental): {multi_eps:>12.0} events/sec");
        println!(
            "per-app batch       (incremental): {single_eps:>12.0} events/sec  \
             (ratio {ratio:.2})"
        );
        println!("verdicts match per-app serial scans: {verdicts_match}\n");
        if ratio < 0.8 {
            eprintln!("warning: multiapp throughput ratio {ratio:.2} below the 0.8 target");
        }
        // Like standard mode, a multiplexed run leaves a metrics artifact:
        // the monitor registry snapshot lands next to the main one.
        if let Some(path) = &metrics_out {
            let multiapp_path = match path.rsplit_once('.') {
                Some((stem, ext)) => format!("{stem}.multiapp.{ext}"),
                None => format!("{path}.multiapp"),
            };
            std::fs::write(&multiapp_path, snap.to_json())
                .expect("write multiapp metrics snapshot");
            println!("wrote multiapp monitor metrics snapshot to {multiapp_path}");
        }

        format!(
            "    \"multiapp\": true,\n    \
             \"multiapp_apps\": {},\n    \
             \"multiapp_sessions\": {n_sessions},\n    \
             \"multiapp_events\": {m_events},\n    \
             \"multiapp_kernel_requested\": \"{}\",\n    \
             \"multiapp_kernel_effective\": \"{}\",\n    \
             \"multiapp_alerts\": {multi_alerts},\n    \
             \"multiapp_flag_partition\": [{}, {}, {}, {}],\n    \
             \"multiapp_events_per_sec\": {multi_eps:.0},\n    \
             \"single_app_incremental_events_per_sec\": {single_eps:.0},\n    \
             \"multiapp_vs_single_app_ratio\": {ratio:.2},\n    \
             \"multiapp_verdicts_match_serial\": {verdicts_match},\n{stage_fields}",
            apps.len(),
            status.requested,
            status.effective,
            multi_partition[0],
            multi_partition[1],
            multi_partition[2],
            multi_partition[3],
        )
    } else {
        String::new()
    };

    // Sharded-service gate: the same 3-app corpus, shipped through the
    // ADP1 framed wire path into a ShardedMonitor at shard counts
    // {1, 2, 4, 8}. Verdicts must be bit-identical to one unsharded
    // runtime; a mid-stream cross-shard hot-swap must never split a
    // session's windows across epochs; and the shard array must show
    // near-linear capacity scaling.
    let service_fields = if service {
        let sessions_per_app = 64;
        let mut app_config = ConstructorConfig::default();
        app_config.train.max_iterations = max_iterations;
        app_config.flatten_epsilon = 1e-4; // sparse-exact CSR decomposition
        type AppBuild = (&'static str, fn(usize, u64) -> Workload);
        let builds: [AppBuild; 3] = [
            ("banking", banking::workload),
            ("supermarket", supermarket::workload),
            ("hospital", hospital::workload),
        ];
        let apps: Vec<(&str, Vec<Vec<CallEvent>>, adprom_core::Profile)> = builds
            .iter()
            .enumerate()
            .map(|(i, (name, make))| {
                let w = make(sessions_per_app, 9 + i as u64);
                let a = analyze(&w.program);
                let t = w.collect_traces(&a.site_labels);
                let (p, _) = build_profile(&format!("App_{name}"), &a, &t, &app_config);
                (*name, t, p)
            })
            .collect();
        let sparse_kernel = KernelConfig::Sparse {
            sparse: SparseConfig::default(),
        };
        let make_registry = || {
            let profiles = ProfileRegistry::new().with_kernel(sparse_kernel);
            for (name, _, app_profile) in &apps {
                profiles
                    .register(name, app_profile.clone())
                    .expect("CA-dataset profile validates");
            }
            Arc::new(profiles)
        };
        let profiles = make_registry();

        let sessions: Vec<(String, String, Vec<CallEvent>)> = apps
            .iter()
            .flat_map(|(name, traces, _)| {
                traces
                    .iter()
                    .enumerate()
                    .map(move |(i, t)| (name.to_string(), format!("{name}-{i}"), t.clone()))
            })
            .collect();
        let stream = interleave(&sessions, 0x5E55);
        let n_sessions = sessions.len();
        let m_events = stream.len();
        let incremental_config = RuntimeConfig {
            mode: ScoringMode::Incremental,
            queue_capacity: 0,
            ..RuntimeConfig::default()
        };

        // Frame the corpus once; every service ingest below decodes it.
        let frame_batch = 256;
        let frames = encode_stream(&stream, frame_batch);
        let frame_count = m_events.div_ceil(frame_batch);

        // Unsharded baseline: the verdicts every shard count must hit.
        let baseline: BTreeMap<(String, String), String> = {
            let mut runtime =
                MonitorRuntime::new(Arc::clone(&profiles)).with_config(incremental_config.clone());
            runtime.ingest_stream(&stream);
            runtime
                .finish()
                .into_iter()
                .map(|r| ((r.app, r.session), format!("{:?}", r.alerts)))
                .collect()
        };
        assert_eq!(baseline.len(), n_sessions, "one verdict per session");

        // Verdict gate per shard count (untimed): framed ingest through
        // the sharded service, bit-identical per-session alerts.
        let shard_counts = [1usize, 2, 4, 8];
        let mut service_alerts = 0usize;
        let mut shard_events_s4: Vec<u64> = Vec::new();
        let mut shard_partition_s4: Vec<[usize; 4]> = Vec::new();
        for &shards in &shard_counts {
            let mut svc = ShardedMonitor::new(Arc::clone(&profiles), shards)
                .with_config(incremental_config.clone());
            let ingest = svc.ingest_frames(&frames);
            assert_eq!(ingest.frames, frame_count, "every frame decodes");
            assert!(
                ingest.frame_defects.is_empty(),
                "{:?}",
                ingest.frame_defects
            );
            assert!(ingest.quarantined.is_empty(), "clean corpus screens clean");
            assert_eq!(ingest.admitted, m_events, "every event admitted");
            if shards == 4 {
                shard_events_s4 = svc.snapshot().iter().map(|s| s.tally.ingested).collect();
            }
            let reports = svc.finish();
            assert_eq!(reports.len(), n_sessions, "one report per session");
            for report in &reports {
                let key = (report.app.clone(), report.session.clone());
                assert_eq!(
                    &format!("{:?}", report.alerts),
                    &baseline[&key],
                    "shards={shards}: {}/{} diverged from the unsharded runtime",
                    report.app,
                    report.session
                );
            }
            service_alerts = reports.iter().map(|r| r.alerts.len()).sum();
            if shards == 4 {
                shard_partition_s4 = (0..4)
                    .map(|s| {
                        let own: Vec<SessionReport> = reports
                            .iter()
                            .filter(|r| shard_for(&r.app, &r.session, 4) == s)
                            .cloned()
                            .collect();
                        verdict_partition(&own)
                    })
                    .collect();
            }
        }

        // Hot-swap coherence at shards = 4: swap banking's profile
        // mid-stream (a cross-shard publish barrier) and require every
        // session's report to sit entirely at one epoch — the epoch in
        // force when its first event arrived.
        let swap_epoch;
        {
            let mut svc =
                ShardedMonitor::new(make_registry(), 4).with_config(incremental_config.clone());
            let half = m_events / 2;
            svc.ingest_frames(&encode_stream(&stream[..half], frame_batch));
            let mut banking_v2 = apps[0].2.clone();
            banking_v2.threshold -= 1.0;
            swap_epoch = svc
                .swap_profile("banking", banking_v2)
                .expect("swapped profile validates");
            assert_eq!(swap_epoch, 2, "second banking epoch");
            svc.ingest_frames(&encode_stream(&stream[half..], frame_batch));
            for report in svc.finish() {
                let first = stream
                    .iter()
                    .position(|t| t.app == report.app && t.session == report.session)
                    .expect("session is on the stream");
                let expected = if report.app == "banking" && first >= half {
                    2
                } else {
                    1
                };
                assert_eq!(
                    report.epoch, expected,
                    "{}/{} (first event {first}) split across the swap barrier",
                    report.app, report.session
                );
            }
        }

        // Capacity scaling: each shard's framed substream replayed on its
        // own runtime with per-shard timers, all shard counts timed
        // adjacently per round so machine drift cancels across counts.
        // This box has one core, so shards are timed one at a time and
        // the aggregate is the critical-path model: total events over the
        // slowest shard — the array's throughput when each shard owns a
        // core. The serial wall number (sum of shard times) is recorded
        // alongside it.
        let part_frames: Vec<Vec<Vec<u8>>> = shard_counts
            .iter()
            .map(|&shards| {
                partition_stream(&stream, shards)
                    .iter()
                    .map(|part| encode_stream(part, frame_batch))
                    .collect()
            })
            .collect();
        let rounds = if smoke { 3 } else { max_runs.max(6) };
        let mut best_critical = [f64::INFINITY; 4];
        let mut best_serial = [f64::INFINITY; 4];
        for _ in 0..rounds {
            for (i, frames_per_shard) in part_frames.iter().enumerate() {
                let mut slowest = 0f64;
                let mut wall = 0f64;
                let mut alerts = 0usize;
                for shard_frames in frames_per_shard {
                    let mut shard = ShardedMonitor::new(Arc::clone(&profiles), 1)
                        .with_config(incremental_config.clone());
                    let start = Instant::now();
                    shard.ingest_frames(shard_frames);
                    alerts += shard.finish().iter().map(|r| r.alerts.len()).sum::<usize>();
                    let secs = start.elapsed().as_secs_f64();
                    slowest = slowest.max(secs);
                    wall += secs;
                }
                assert_eq!(
                    alerts, service_alerts,
                    "timed replays must be deterministic"
                );
                best_critical[i] = best_critical[i].min(slowest);
                best_serial[i] = best_serial[i].min(wall);
            }
        }
        let aggregate_eps: Vec<f64> = best_critical.iter().map(|s| m_events as f64 / s).collect();
        let serial_eps: Vec<f64> = best_serial.iter().map(|s| m_events as f64 / s).collect();
        let scaling_4x = aggregate_eps[2] / aggregate_eps[0];

        println!("== Sharded monitoring service ==");
        println!(
            "{} apps x {sessions_per_app} sessions: {n_sessions} sessions, {m_events} events, \
             {frame_count} frames ({} bytes on the wire)",
            apps.len(),
            frames.len(),
        );
        println!("verdicts bit-identical to the unsharded runtime at shards {{1, 2, 4, 8}}");
        println!(
            "mid-stream banking hot-swap published epoch {swap_epoch}; no session split \
             across the barrier"
        );
        println!("shard event partition at 4 shards: {shard_events_s4:?}");
        for (i, &shards) in shard_counts.iter().enumerate() {
            println!(
                "shards {shards}: {:>12.0} events/sec aggregate (critical path)  \
                 {:>12.0} events/sec serial wall",
                aggregate_eps[i], serial_eps[i],
            );
        }
        println!("scaling at 4 shards: {scaling_4x:.2}x\n");
        assert!(
            scaling_4x >= 2.0,
            "4-shard aggregate must be at least 2x the 1-shard baseline, got {scaling_4x:.2}x"
        );

        let partition_rows = shard_partition_s4
            .iter()
            .map(|p| format!("[{}, {}, {}, {}]", p[0], p[1], p[2], p[3]))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "    \"service\": true,\n    \
             \"service_sessions\": {n_sessions},\n    \
             \"service_events\": {m_events},\n    \
             \"service_frames\": {frame_count},\n    \
             \"service_frame_bytes\": {},\n    \
             \"service_shard_counts\": [1, 2, 4, 8],\n    \
             \"service_events_per_sec\": [{}],\n    \
             \"service_serial_events_per_sec\": [{}],\n    \
             \"service_parallelism_model\": \"critical-path\",\n    \
             \"service_scaling_4x\": {scaling_4x:.2},\n    \
             \"service_alerts\": {service_alerts},\n    \
             \"service_verdicts_match_single\": true,\n    \
             \"service_swap_epoch\": {swap_epoch},\n    \
             \"service_swap_epoch_coherent\": true,\n    \
             \"service_shard_events_s4\": [{}],\n    \
             \"service_shard_verdict_partition_s4\": [{partition_rows}],\n",
            frames.len(),
            aggregate_eps
                .iter()
                .map(|e| format!("{e:.0}"))
                .collect::<Vec<_>>()
                .join(", "),
            serial_eps
                .iter()
                .map(|e| format!("{e:.0}"))
                .collect::<Vec<_>>()
                .join(", "),
            shard_events_s4
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", "),
        )
    } else {
        String::new()
    };

    // Alert-forensics gate: replay the §V-C attack corpus on the banking
    // and hospital applications through a forensics-armed MonitorRuntime.
    // Every alarm audit record must carry a ForensicReport with non-empty
    // top-k attribution and the alerting window's delta-vs-threshold, the
    // records (forensics included) must be bit-identical at 1, 4 and 8
    // worker threads, and the benign path with forensics armed must stay
    // within a few percent of the disabled runtime (paired-round timing).
    let forensics_fields = if forensics {
        let corpus_cases = if smoke { 2 } else { 6 };
        let corpus = build_attack_corpus(cases, corpus_cases, max_iterations, None);
        let corpus_profiles = corpus.profiles;
        let attack_sessions = corpus.attack_sessions;
        let attack_stream = interleave(&attack_sessions, 0xF0CE);

        let run_corpus = |threads: usize| -> Vec<AuditRecord> {
            let sink = Arc::new(MemoryAuditSink::new());
            let mut runtime = MonitorRuntime::new(Arc::clone(&corpus_profiles))
                .with_forensics(ForensicsConfig::default())
                .with_audit(Arc::new(AuditLog::new(sink.clone())))
                .with_threads(threads);
            runtime.ingest_stream(&attack_stream);
            runtime.finish();
            sink.records()
        };
        let records = run_corpus(1);
        assert!(!records.is_empty(), "attack corpus produced no alarms");
        for record in &records {
            let report = record
                .forensics
                .as_ref()
                .expect("every alarm audit record carries a ForensicReport");
            assert!(
                !report.top_deviant.is_empty(),
                "alarm forensics must name at least one deviant transition"
            );
            assert_eq!(
                report.alert_delta(),
                Some(record.log_likelihood - record.threshold),
                "flight recorder must capture the alerting window's delta"
            );
        }
        let jsonl: Vec<String> = records.iter().map(|r| r.to_jsonl()).collect();
        let mut bit_identical = true;
        for threads in [4usize, 8] {
            let other: Vec<String> = run_corpus(threads).iter().map(|r| r.to_jsonl()).collect();
            bit_identical &= other == jsonl;
        }
        assert!(
            bit_identical,
            "forensic reports diverged across worker thread counts"
        );

        // Ranked per-family report: worst window (lowest delta) first,
        // with its top deviant transitions.
        let mut by_family: BTreeMap<&str, Vec<&AuditRecord>> = BTreeMap::new();
        for record in &records {
            let family = record.session.split('#').next().unwrap_or(&record.session);
            by_family.entry(family).or_default().push(record);
        }
        println!("== Alert forensics (attack corpus) ==");
        println!(
            "{} attack families, {} attacked sessions, {} alarm records, \
             bit-identical at 1/4/8 threads: {bit_identical}",
            by_family.len(),
            attack_sessions.len(),
            records.len(),
        );
        for (family, group) in &by_family {
            let worst = group
                .iter()
                .min_by(|a, b| {
                    (a.log_likelihood - a.threshold).total_cmp(&(b.log_likelihood - b.threshold))
                })
                .expect("family groups are non-empty");
            let report = worst.forensics.as_ref().expect("checked above");
            println!(
                "-- {family}: {} alarms; worst window {} ({}), delta {:+.3}",
                group.len(),
                report.window_index,
                worst.flag,
                worst.log_likelihood - worst.threshold,
            );
            for t in report.top_deviant.iter().take(3) {
                println!(
                    "     step {:<2} {} -> {}: log_prob {:.3}, deficit {:+.3}",
                    t.step,
                    t.from.as_deref().unwrap_or("<pi>"),
                    t.call,
                    t.log_prob,
                    t.deficit,
                );
            }
        }
        let artifact = "target/FORENSICS_detect.jsonl";
        std::fs::write(artifact, jsonl.join("\n") + "\n").expect("write forensic artifact");
        println!("wrote {} forensic records to {artifact}", records.len());

        // Benign-path overhead: the apps' own training sessions through a
        // forensics-armed vs a plain runtime, timed adjacently in paired
        // rounds (drift cancels within a pair); the recorded ratio is the
        // best pairing.
        let benign_stream = interleave(&corpus.benign_sessions, 0xBE9);
        let benign_events = benign_stream.len();
        let time_benign = |armed: bool| -> (f64, usize) {
            let mut runtime = MonitorRuntime::new(Arc::clone(&corpus_profiles));
            if armed {
                runtime = runtime.with_forensics(ForensicsConfig::default());
            }
            let start = Instant::now();
            runtime.ingest_stream(&benign_stream);
            let alerts: usize = runtime.finish().iter().map(|r| r.alerts.len()).sum();
            (benign_events as f64 / start.elapsed().as_secs_f64(), alerts)
        };
        let (_, benign_alerts) = time_benign(true); // warm-up
        let rounds = if smoke { 4 } else { max_runs.max(8) };
        let mut armed_eps = 0.0f64;
        let mut plain_eps = 0.0f64;
        let mut overhead_ratio = 0.0f64;
        for _ in 0..rounds {
            let (on, on_alerts) = time_benign(true);
            let (off, off_alerts) = time_benign(false);
            assert_eq!(on_alerts, benign_alerts, "forensics must not change alerts");
            assert_eq!(
                off_alerts, benign_alerts,
                "benign runs must be deterministic"
            );
            armed_eps = armed_eps.max(on);
            plain_eps = plain_eps.max(off);
            overhead_ratio = overhead_ratio.max(on / off);
        }
        println!(
            "benign path ({benign_events} events): forensics on {armed_eps:>12.0} events/sec, \
             off {plain_eps:>12.0} events/sec (on/off ratio {overhead_ratio:.3})\n"
        );
        if overhead_ratio < 0.95 {
            eprintln!(
                "warning: forensics benign-path ratio {overhead_ratio:.3} below the 0.95 target"
            );
        }

        let family_alarms = by_family
            .iter()
            .map(|(family, group)| format!("\"{family}\": {}", group.len()))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "    \"forensics\": true,\n    \
             \"forensics_families\": {},\n    \
             \"forensics_sessions\": {},\n    \
             \"forensics_alarm_records\": {},\n    \
             \"forensics_nonempty_topk\": true,\n    \
             \"forensics_family_alarms\": {{{family_alarms}}},\n    \
             \"forensics_bit_identical_threads\": {bit_identical},\n    \
             \"forensics_benign_events_per_sec\": {armed_eps:.0},\n    \
             \"forensics_disabled_events_per_sec\": {plain_eps:.0},\n    \
             \"forensics_benign_overhead_ratio\": {overhead_ratio:.3},\n",
            by_family.len(),
            attack_sessions.len(),
            records.len(),
        )
    } else {
        String::new()
    };

    // Overload-control gate: the attack corpus rides on top of the benign
    // training sessions through a monitor whose scoring budget is half
    // its hard ingest bound — a sustained 2× overload. The tier scheduler
    // must keep session recall at 1.0 (every session the unconstrained
    // monitor alarms on still alarms) and, under backpressure, raise
    // exactly the unconstrained alarm count (every tier scores exactly),
    // stay bit-identical across worker thread counts, and never buffer
    // past the bound.
    let overload_fields = if overload {
        let corpus_cases = if smoke { 2 } else { 6 };
        let corpus = build_attack_corpus(
            cases,
            corpus_cases,
            max_iterations,
            Some(KernelConfig::Sparse {
                sparse: SparseConfig::default(),
            }),
        );
        let mut load_sessions = corpus.attack_sessions.clone();
        load_sessions.extend(corpus.benign_sessions.iter().cloned());
        let stream = interleave(&load_sessions, 0x10AD);

        let capacity = 64usize;
        let budget = capacity / 2; // every flush carries 2× the budget
        let overload_config = OverloadConfig {
            capacity,
            shed_policy: ShedPolicy::Backpressure,
            budget,
            ..OverloadConfig::default()
        };
        let run = |threads: usize, config: OverloadConfig| -> (Vec<SessionReport>, Registry, f64) {
            let obs = Registry::new();
            let mut runtime = MonitorRuntime::new(Arc::clone(&corpus.profiles))
                .with_threads(threads)
                .with_registry(&obs)
                .with_config(RuntimeConfig {
                    mode: ScoringMode::Incremental,
                    overload: config,
                    ..RuntimeConfig::default()
                });
            let start = Instant::now();
            runtime.ingest_stream(&stream);
            let reports = runtime.finish();
            let eps = stream.len() as f64 / start.elapsed().as_secs_f64();
            (reports, obs, eps)
        };

        // Unconstrained baseline: same kernel and mode, ladder disarmed.
        let (baseline, _, _) = run(1, OverloadConfig::default());
        let baseline_alarmed: BTreeMap<(String, String), usize> = baseline
            .iter()
            .filter(|r| r.alarms().count() > 0)
            .map(|r| ((r.app.clone(), r.session.clone()), r.alarms().count()))
            .collect();
        let baseline_alarms: usize = baseline.iter().map(|r| r.alarms().count()).sum();
        assert!(
            !baseline_alarmed.is_empty(),
            "attack corpus must alarm the unconstrained monitor"
        );

        let (reports, obs, overload_eps) = run(1, overload_config);
        let alarm_count =
            |reports: &[adprom_core::SessionReport], key: &(String, String)| -> usize {
                reports
                    .iter()
                    .find(|r| r.app == key.0 && r.session == key.1)
                    .map_or(0, |r| r.alarms().count())
            };
        let recalled = baseline_alarmed
            .keys()
            .filter(|key| alarm_count(&reports, key) > 0)
            .count();
        let recall = recalled as f64 / baseline_alarmed.len() as f64;
        assert!(
            (recall - 1.0).abs() < f64::EPSILON,
            "overload lost alarms: only {recalled}/{} alarmed sessions recalled",
            baseline_alarmed.len()
        );
        let alarms: usize = reports.iter().map(|r| r.alarms().count()).sum();
        assert_eq!(
            alarms, baseline_alarms,
            "exact tiers must raise exactly the unconstrained alarms"
        );
        for report in &reports {
            if report.alarms().count() > 0 {
                assert_eq!(
                    report.tier,
                    ScoringTier::Full,
                    "alarmed sessions must end pinned at the full tier"
                );
            }
        }

        let snap = obs.snapshot();
        let high_water = snap.gauge("monitor.queue.depth").unwrap_or(0);
        assert!(
            high_water <= capacity as i64,
            "queue high-water {high_water} breached the hard bound {capacity}"
        );
        let tier_assigned = [
            snap.counter("monitor.tier.full.assigned").unwrap_or(0),
            snap.counter("monitor.tier.spot.assigned").unwrap_or(0),
        ];
        let tier_windows = [
            snap.counter("monitor.tier.full.windows").unwrap_or(0),
            snap.counter("monitor.tier.spot.windows").unwrap_or(0),
        ];
        let spot_skipped = snap.counter("monitor.tier.spot.skipped").unwrap_or(0);
        let escalations = snap.counter("monitor.tier.escalations").unwrap_or(0);
        let backpressure = snap.counter("monitor.backpressure.flushes").unwrap_or(0);
        let episodes = snap.counter("monitor.overload.episodes").unwrap_or(0);
        assert!(backpressure > 0, "2x load must trip the hard bound");

        // Thread determinism: every tier, shed, and verdict decision
        // rides the serial ingest clock.
        let rendered = format!("{reports:?}");
        let mut bit_identical = true;
        for threads in [4usize, 8] {
            let (other, _, _) = run(threads, overload_config);
            bit_identical &= format!("{other:?}") == rendered;
        }
        assert!(
            bit_identical,
            "overload schedule diverged across worker thread counts"
        );

        // DropNewest sub-run: benign traffic of demoted sessions may be
        // shed; dangerous facts and alarmed sessions never are, so
        // session recall must hold even while events are dropped.
        let (shed_reports, shed_obs, _) = run(
            1,
            OverloadConfig {
                shed_policy: ShedPolicy::DropNewest,
                ..overload_config
            },
        );
        let shed_recalled = baseline_alarmed
            .keys()
            .filter(|key| alarm_count(&shed_reports, key) > 0)
            .count();
        let shed_recall = shed_recalled as f64 / baseline_alarmed.len() as f64;
        assert!(
            (shed_recall - 1.0).abs() < f64::EPSILON,
            "shedding lost an alarmed session"
        );
        let shed_events = shed_obs
            .snapshot()
            .counter("monitor.shed.events")
            .unwrap_or(0);

        println!("== Overload control (attack corpus at 2x scoring budget) ==");
        println!(
            "{} sessions ({} attacked), {} events; capacity {capacity}, budget {budget}",
            load_sessions.len(),
            corpus.attack_sessions.len(),
            stream.len(),
        );
        println!(
            "recall {recall:.3} ({recalled}/{} alarmed sessions; {alarms} alarms vs \
             {baseline_alarms} baseline)",
            baseline_alarmed.len()
        );
        println!(
            "tiers assigned full/spot: {}/{}; windows {}/{} \
             (+{spot_skipped} spot-skipped), {escalations} escalations",
            tier_assigned[0], tier_assigned[1], tier_windows[0], tier_windows[1],
        );
        println!(
            "queue high-water {high_water}/{capacity}, {backpressure} backpressure flushes, \
             {episodes} overload episode(s); DropNewest shed {shed_events} events, \
             recall {shed_recall:.3}"
        );
        println!(
            "bit-identical at 1/4/8 threads: {bit_identical}; overloaded throughput \
             {overload_eps:.0} events/sec\n"
        );

        format!(
            "    \"overload\": true,\n    \
             \"overload_capacity\": {capacity},\n    \
             \"overload_budget\": {budget},\n    \
             \"overload_sessions\": {},\n    \
             \"overload_events\": {},\n    \
             \"overload_recall\": {recall:.3},\n    \
             \"overload_baseline_alarms\": {baseline_alarms},\n    \
             \"overload_alarms\": {alarms},\n    \
             \"overload_tier_assigned\": [{}, {}],\n    \
             \"overload_tier_windows\": [{}, {}],\n    \
             \"overload_spot_skipped\": {spot_skipped},\n    \
             \"overload_escalations\": {escalations},\n    \
             \"overload_backpressure_flushes\": {backpressure},\n    \
             \"overload_episodes\": {episodes},\n    \
             \"overload_queue_high_water\": {high_water},\n    \
             \"overload_shed_events\": {shed_events},\n    \
             \"overload_shed_recall\": {shed_recall:.3},\n    \
             \"overload_bit_identical_threads\": {bit_identical},\n    \
             \"overload_events_per_sec\": {overload_eps:.0},\n",
            load_sessions.len(),
            stream.len(),
            tier_assigned[0],
            tier_assigned[1],
            tier_windows[0],
            tier_windows[1],
        )
    } else {
        String::new()
    };

    // SIMD-shaped scoring gate: the batched lane-major sparse kernel in
    // f64 against the f32 fast path (guard-band rescore in f64), timed
    // adjacently in paired rounds so machine drift cancels within a
    // pair. The f32-verified run must reproduce the pure-f64 flags
    // window for window — the guard band sends every near-threshold
    // window back to the exact kernel.
    let simd_fields = if simd {
        let sparse_kernel = KernelConfig::Sparse {
            sparse: SparseConfig::default(),
        };
        let simd_obs = Registry::new();
        let f64_engine = DetectionEngine::new(&profile)
            .with_registry(&simd_obs)
            .with_kernel(sparse_kernel);
        let f32_engine = DetectionEngine::new(&profile)
            .with_registry(&simd_obs)
            .with_kernel(sparse_kernel)
            .with_precision(Precision::f32_verified());
        let status = f32_engine.kernel_status().clone();
        assert_eq!(
            status.effective, "sparse",
            "flattened profile must keep the sparse kernel"
        );
        assert_eq!(status.precision, "f32-verified");
        let guard_band = match Precision::f32_verified() {
            Precision::F32Verified { guard_band } => guard_band,
            Precision::F64 => unreachable!(),
        };

        // Flag-equality gate first (also warms both engines), with the
        // guard-band counters snapshotted around exactly one pass so the
        // recorded accepted/rescored split is deterministic.
        let before = simd_obs.snapshot();
        let f64_reports: Vec<Vec<Alert>> = batch.iter().map(|t| f64_engine.scan(t)).collect();
        let f32_reports: Vec<Vec<Alert>> = batch.iter().map(|t| f32_engine.scan(t)).collect();
        let after = simd_obs.snapshot();
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        let f32_accepted = delta("detect.kernel.f32_windows");
        let f32_rescored = delta("detect.kernel.f32_rescored");
        let f64_flags: Vec<Flag> = f64_reports.iter().flatten().map(|a| a.flag).collect();
        let f32_flags: Vec<Flag> = f32_reports.iter().flatten().map(|a| a.flag).collect();
        let flags_match_f64 =
            f64_flags == f32_flags && flag_partition(&f64_reports) == flag_partition(&f32_reports);
        assert!(
            flags_match_f64,
            "f32-verified flag partition diverged from f64: {:?} vs {:?}",
            flag_partition(&f32_reports),
            flag_partition(&f64_reports),
        );

        // Kernel-level paired rounds on the identical window set: the
        // scalar per-window sparse kernel (the pre-batch "current" path)
        // against the batched f64 kernel and the batched f32 kernel,
        // timed back to back within each round so machine drift cancels
        // inside a pair. Throughput is normalized by the same `events`
        // denominator the scan numbers use.
        let sp = SparseTransitions::from_hmm(&profile.hmm, &SparseConfig::default());
        let fk = F32Kernel::from_sparse(&profile.hmm, &sp);
        let wrefs: Vec<&[usize]> = windows_enc.iter().map(|w| w.as_slice()).collect();
        let lanes = status.batch_width.max(1) as usize;
        let rounds = if smoke { 4 } else { max_runs.max(8) };
        let mut sparse_eps = 0.0f64;
        let mut batch64_eps = 0.0f64;
        let mut simd_eps = 0.0f64;
        let mut ratio = 0.0f64;
        let mut ratio64 = 0.0f64;
        let mut sink = 0.0f64;
        for _ in 0..rounds {
            let start = Instant::now();
            for w in &wrefs {
                sink += log_likelihood_sparse(&profile.hmm, &sp, w);
            }
            let scal_e = events as f64 / start.elapsed().as_secs_f64();
            let start = Instant::now();
            for c in wrefs.chunks(lanes) {
                sink += score_windows_batch(&profile.hmm, &sp, c, false).scores[0];
            }
            let b64_e = events as f64 / start.elapsed().as_secs_f64();
            let start = Instant::now();
            for c in wrefs.chunks(lanes) {
                sink += fk.score_windows_batch(c, false).scores[0];
            }
            let f32_e = events as f64 / start.elapsed().as_secs_f64();
            sparse_eps = sparse_eps.max(scal_e);
            batch64_eps = batch64_eps.max(b64_e);
            simd_eps = simd_eps.max(f32_e);
            ratio = ratio.max(f32_e / scal_e);
            ratio64 = ratio64.max(b64_e / scal_e);
        }
        std::hint::black_box(sink);

        // End-to-end scan throughput of the two engines (windowing, flag
        // logic and telemetry included), paired the same way.
        let mut scan_f64_eps = 0.0f64;
        let mut scan_simd_eps = 0.0f64;
        for _ in 0..rounds {
            let start = Instant::now();
            let f64_alerts: usize = batch.iter().map(|t| f64_engine.scan(t).len()).sum();
            let f64_e = events as f64 / start.elapsed().as_secs_f64();
            let start = Instant::now();
            let f32_alerts: usize = batch.iter().map(|t| f32_engine.scan(t).len()).sum();
            let f32_e = events as f64 / start.elapsed().as_secs_f64();
            assert_eq!(
                f64_alerts, f32_alerts,
                "alert counts must match across precisions"
            );
            scan_f64_eps = scan_f64_eps.max(f64_e);
            scan_simd_eps = scan_simd_eps.max(f32_e);
        }

        println!(
            "== SIMD-shaped scoring (sparse kernel, batch width {}, guard band {guard_band} \
             nats) ==",
            status.batch_width
        );
        println!("scalar sparse kernel      : {sparse_eps:>12.0} events/sec");
        println!(
            "batched f64 kernel        : {batch64_eps:>12.0} events/sec  ({ratio64:.2}x scalar)"
        );
        println!(
            "batched f32 kernel        : {simd_eps:>12.0} events/sec  \
             ({ratio:.2}x scalar sparse, {:.2}x serial dense)",
            simd_eps / serial_eps
        );
        println!(
            "engine scan               : f64 {scan_f64_eps:>10.0} ev/s, f32-verified \
             {scan_simd_eps:>10.0} ev/s ({:.2}x)",
            scan_simd_eps / scan_f64_eps
        );
        println!(
            "one pass: {f32_accepted} windows accepted in f32, {f32_rescored} rescored in f64; \
             flags match f64: {flags_match_f64}\n"
        );
        if ratio < 1.5 {
            eprintln!("warning: simd/sparse throughput ratio {ratio:.2} below the 1.5 target");
        }
        format!(
            "    \"simd\": true,\n    \
             \"precision\": \"{}\",\n    \
             \"batch_width\": {},\n    \
             \"guard_band_nats\": {guard_band},\n    \
             \"sparse_events_per_sec\": {sparse_eps:.0},\n    \
             \"batch_f64_events_per_sec\": {batch64_eps:.0},\n    \
             \"simd_events_per_sec\": {simd_eps:.0},\n    \
             \"speedup_simd_vs_sparse\": {ratio:.2},\n    \
             \"speedup_batch_f64_vs_sparse\": {ratio64:.2},\n    \
             \"speedup_simd_vs_dense\": {:.2},\n    \
             \"scan_f64_events_per_sec\": {scan_f64_eps:.0},\n    \
             \"scan_simd_events_per_sec\": {scan_simd_eps:.0},\n    \
             \"flags_match_f64\": {flags_match_f64},\n    \
             \"f32_windows_accepted\": {f32_accepted},\n    \
             \"f32_windows_rescored\": {f32_rescored},\n",
            status.precision,
            status.batch_width,
            simd_eps / serial_eps,
        )
    } else {
        String::new()
    };

    println!(
        "== Batched detection throughput (window n = {}, kernel = {kernel_mode}) ==",
        profile.window
    );
    println!("batch: {n_traces} traces, {events} events, {threads} worker thread(s)");
    println!("serial dense full-recompute : {serial_eps:>12.0} events/sec");
    if let Some((kernel_eps, _)) = kernel_serial {
        println!(
            "serial {kernel_mode:<6} kernel       : {kernel_eps:>12.0} events/sec  ({:.2}x dense)",
            kernel_eps / serial_eps
        );
    }
    println!(
        "parallel exact-windows      : {par_exact_eps:>12.0} events/sec  ({speedup_exact:.2}x)"
    );
    println!("parallel incremental        : {par_inc_eps:>12.0} events/sec  ({speedup_inc:.2}x)");
    println!("exact output identical to serial: {exact_identical}");
    if let Some(matches) = kernel_flags_match_dense {
        println!("{kernel_mode} flags match dense: {matches}");
    }
    println!(
        "Baum-Welch ({} windows): serial {bw_serial_secs:.3}s, parallel {bw_parallel_secs:.3}s \
         ({bw_speedup:.2}x on {threads} thread(s)), bit-identical: {bw_bit_identical}",
        windows_enc.len()
    );

    let snapshot = registry.snapshot();
    println!("\n== Pipeline metrics ==");
    println!(
        "windows scored {}  (normal {}, anomalous {}, data-leak {}, out-of-context {})",
        snapshot.counter("detect.windows_scored").unwrap_or(0),
        snapshot.counter("detect.flags.normal").unwrap_or(0),
        snapshot.counter("detect.flags.anomalous").unwrap_or(0),
        snapshot.counter("detect.flags.data_leak").unwrap_or(0),
        snapshot.counter("detect.flags.out_of_context").unwrap_or(0),
    );
    println!(
        "flagged windows by kernel: dense {}, sparse {}",
        snapshot.counter("detect.kernel.dense").unwrap_or(0),
        snapshot.counter("detect.kernel.sparse").unwrap_or(0),
    );
    if let Some(h) = snapshot.histograms.get("monitor.stage.score_ns") {
        println!(
            "per-session score latency: p50 {:.0}ns p90 {:.0}ns p99 {:.0}ns max {}ns \
             ({} replays)",
            h.p50, h.p90, h.p99, h.max, h.count
        );
    }
    println!(
        "sliding scorer: {} pushes, {} re-anchors",
        snapshot.counter("sliding.pushes").unwrap_or(0),
        snapshot.counter("sliding.reanchors").unwrap_or(0),
    );

    let kernel_fields = kernel_serial
        .map(|(kernel_eps, _)| {
            format!(
                "    \"sparse_exact_events_per_sec\": {kernel_eps:.0},\n    \
                 \"speedup_sparse_exact\": {:.2},\n    \
                 \"sparse_flags_match_dense\": {},\n",
                kernel_eps / serial_eps,
                kernel_flags_match_dense.unwrap_or(false),
            )
        })
        .unwrap_or_default();
    let partition = flag_partition(&serial_reports);
    // The unified KernelStatus every detection path reports: what was
    // asked for and what is scoring windows.
    let kernel_status = batch_profiles
        .current("hospital")
        .expect("registered app")
        .kernel_status()
        .clone();
    let entry = format!(
        "  {{\n    \"schema\": 2,\n    \"workload\": \"hospital\",\n    \
         \"mode\": \"{mode_label}\",\n    \"smoke\": {smoke},\n    \
         \"traces\": {n_traces},\n    \"events\": {events},\n    \
         \"window\": {window},\n    \"threads\": {threads},\n    \
         \"kernel\": \"{kernel_mode}\",\n    \
         \"kernel_requested\": \"{kernel_requested}\",\n    \
         \"kernel_effective\": \"{kernel_effective}\",\n    \
         \"alerts\": {serial_alerts},\n    \
         \"flag_partition\": [{}, {}, {}, {}],\n    \
         \"serial_exact_events_per_sec\": {serial_eps:.0},\n{kernel_fields}{fault_fields}{multiapp_fields}{service_fields}{forensics_fields}{overload_fields}{simd_fields}    \
         \"parallel_exact_events_per_sec\": {par_exact_eps:.0},\n    \
         \"parallel_incremental_events_per_sec\": {par_inc_eps:.0},\n    \
         \"speedup_parallel_exact\": {speedup_exact:.2},\n    \
         \"speedup_parallel_incremental\": {speedup_inc:.2},\n    \
         \"exact_output_identical_to_serial\": {exact_identical},\n    \
         \"bw_windows\": {bw_windows},\n    \
         \"bw_serial_secs\": {bw_serial_secs:.4},\n    \
         \"bw_parallel_secs\": {bw_parallel_secs:.4},\n    \
         \"bw_speedup_parallel\": {bw_speedup:.2},\n    \
         \"bw_parallel_bit_identical\": {bw_bit_identical}\n  }}",
        partition[0],
        partition[1],
        partition[2],
        partition[3],
        window = profile.window,
        kernel_requested = kernel_status.requested,
        kernel_effective = kernel_status.effective,
        bw_windows = windows_enc.len(),
    );
    append_history("BENCH_detect.json", &entry);
    println!("\nappended run to BENCH_detect.json");

    if let Some(path) = &metrics_out {
        std::fs::write(path, snapshot.to_json()).expect("write metrics snapshot");
        println!("wrote metrics snapshot to {path}");
    }
}
