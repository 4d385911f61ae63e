//! Detection-phase throughput: per-window classification cost and
//! whole-trace scanning (what the online monitor pays per library call).

use adprom_analysis::analyze;
use adprom_core::{
    build_profile, ConstructorConfig, DetectionEngine, MonitorRuntime, Profile, ProfileRegistry,
    RuntimeConfig, ScoringMode,
};
use adprom_trace::{CallEvent, TaggedCall};
use adprom_workloads::hospital;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// The hospital profile every group scores against (six Baum–Welch
/// rounds, as the detection benchmarks train) and its training traces.
fn hospital_fixture() -> (Profile, Vec<Vec<CallEvent>>) {
    let workload = hospital::workload(15, 9);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 6;
    let (profile, _) = build_profile("App_h", &analysis, &traces, &config);
    (profile, traces)
}

fn bench_detection(c: &mut Criterion) {
    let (profile, traces) = hospital_fixture();
    let engine = DetectionEngine::new(&profile);
    let trace = &traces[0];
    let window: Vec<CallEvent> = trace.iter().take(profile.window).cloned().collect();

    c.bench_function("classify_window15", |b| {
        b.iter(|| black_box(engine.classify(black_box(&window)).flag))
    });

    c.bench_function("scan_trace", |b| {
        b.iter(|| black_box(engine.scan(black_box(trace)).len()))
    });

    let names: Vec<String> = window.iter().map(|e| e.name.to_string()).collect();
    c.bench_function("score_window15", |b| {
        b.iter(|| black_box(engine.score(black_box(&names))))
    });
}

/// Batch throughput: a serial engine loop vs the monitor runtime fed one
/// session per trace (one parallel flush at `finish`), in both scoring
/// modes over the same multi-session batch.
fn bench_batch(c: &mut Criterion) {
    let (profile, traces) = hospital_fixture();
    let engine = DetectionEngine::new(&profile);
    let batch = traces;
    let events: usize = batch.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group(format!("batch_{}traces_{}events", batch.len(), events));
    group.bench_function("serial_exact", |b| {
        b.iter(|| {
            let alerts: usize = batch.iter().map(|t| engine.scan(t).len()).sum();
            black_box(alerts)
        })
    });
    let profiles = ProfileRegistry::new();
    profiles
        .register("hospital", profile)
        .expect("profile validates");
    let profiles = Arc::new(profiles);
    let stream: Vec<TaggedCall> = batch
        .iter()
        .enumerate()
        .flat_map(|(i, trace)| {
            trace.iter().map(move |event| TaggedCall {
                app: "hospital".to_string(),
                session: format!("s-{i}"),
                event: event.clone(),
            })
        })
        .collect();
    let run = |mode: ScoringMode| {
        let mut runtime = MonitorRuntime::new(Arc::clone(&profiles)).with_config(RuntimeConfig {
            mode,
            max_sessions: 0,
            queue_capacity: 0,
            ..RuntimeConfig::default()
        });
        runtime.ingest_stream(black_box(&stream));
        runtime.finish().len()
    };
    group.bench_function("parallel_exact", |b| {
        b.iter(|| black_box(run(ScoringMode::ExactWindows)))
    });
    group.bench_function("parallel_incremental", |b| {
        b.iter(|| black_box(run(ScoringMode::Incremental)))
    });
    group.finish();
}

/// The exact-mode runtime's window-score memo at its two extremes, on
/// library defaults (dense kernel, 1,024-event flushes) over 64 sessions
/// of 256 in-context hospital calls, one session after another. One
/// worker thread, so the figure is per-window cost, not scheduling.
/// `repeating` gives every session the same call sequence, so from the
/// second flush on nearly every window is a memo hit. `distinct` gives
/// each session its own pseudo-random sequence, so no window recurs and
/// every one pays the kernel plus the memo's lookup and merge: the miss
/// path's cost.
fn bench_runtime_memo(c: &mut Criterion) {
    const SESSIONS: usize = 64;
    const EVENTS: usize = 256;
    let (profile, traces) = hospital_fixture();
    // Every distinct (call, caller) event the training traces issued.
    let mut seen = std::collections::HashSet::new();
    let pool: Vec<CallEvent> = traces
        .iter()
        .flatten()
        .filter(|e| seen.insert((e.name.clone(), e.caller.clone())))
        .cloned()
        .collect();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut sequence = || -> Vec<CallEvent> {
        (0..EVENTS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                pool[(x >> 33) as usize % pool.len()].clone()
            })
            .collect()
    };
    let stream = |sessions: Vec<Vec<CallEvent>>| -> Vec<TaggedCall> {
        sessions
            .into_iter()
            .enumerate()
            .flat_map(|(i, trace)| {
                trace.into_iter().map(move |event| TaggedCall {
                    app: "hospital".to_string(),
                    session: format!("s-{i}"),
                    event,
                })
            })
            .collect()
    };
    let repeating = stream(vec![sequence(); SESSIONS]);
    let distinct = stream((0..SESSIONS).map(|_| sequence()).collect());
    let profiles = ProfileRegistry::new();
    profiles
        .register("hospital", profile)
        .expect("profile validates");
    let profiles = Arc::new(profiles);

    let mut group = c.benchmark_group("runtime_memo");
    for (name, stream) in [("repeating", &repeating), ("distinct", &distinct)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut runtime = MonitorRuntime::new(Arc::clone(&profiles)).with_threads(1);
                runtime.ingest_stream(black_box(stream));
                black_box(runtime.finish().len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detection, bench_batch, bench_runtime_memo);
criterion_main!(benches);
