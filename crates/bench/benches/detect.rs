//! Detection-phase throughput: per-window classification cost and
//! whole-trace scanning (what the online monitor pays per library call).

use adprom_analysis::analyze;
use adprom_core::{
    build_profile, ConstructorConfig, DetectionEngine, MonitorRuntime, ProfileRegistry,
    RuntimeConfig, ScoringMode,
};
use adprom_trace::TaggedCall;
use adprom_workloads::hospital;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_detection(c: &mut Criterion) {
    let workload = hospital::workload(15, 9);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 6;
    let (profile, _) = build_profile("App_h", &analysis, &traces, &config);
    let engine = DetectionEngine::new(&profile);
    let trace = &traces[0];
    let window: Vec<adprom_trace::CallEvent> = trace.iter().take(profile.window).cloned().collect();

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
    let workload = hospital::workload(15, 9);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 6;
    let (profile, _) = build_profile("App_h", &analysis, &traces, &config);
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

criterion_group!(benches, bench_detection, bench_batch);
criterion_main!(benches);
