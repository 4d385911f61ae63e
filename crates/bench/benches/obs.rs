//! Instrumentation overhead: the detect hot path with a disabled registry
//! (the default — every metric op is a single `Option` branch) vs a live
//! one. The contract in DESIGN.md §9 is that enabled instrumentation costs
//! at most a few percent on `scan`, and disabled instrumentation is free;
//! compare `scan_trace/*` here against each other to audit it.

use adprom_analysis::analyze;
use adprom_core::resilience::sites;
use adprom_core::{
    build_profile, trace_windows, ConstructorConfig, DetectionEngine, FailPoint, FaultKind,
    FaultPlan, ForensicsConfig, ProfileRegistry, RuntimeConfig, ShardedMonitor, Trigger,
};
use adprom_hmm::{score_windows_batch, SparseConfig, SparseTransitions};
use adprom_obs::Registry;
use adprom_trace::{interleave, TaggedCall};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_scan_overhead(c: &mut Criterion) {
    let workload = adprom_workloads::hospital::workload(15, 9);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 6;
    let (profile, _) = build_profile("App_h", &analysis, &traces, &config);
    let trace = &traces[0];

    let mut group = c.benchmark_group("scan_trace");
    let plain = DetectionEngine::new(&profile);
    group.bench_function("disabled", |b| {
        b.iter(|| black_box(plain.scan(black_box(trace)).len()))
    });
    let registry = Registry::new();
    let instrumented = DetectionEngine::new(&profile).with_registry(&registry);
    group.bench_function("enabled", |b| {
        b.iter(|| black_box(instrumented.scan(black_box(trace)).len()))
    });
    group.finish();
}

/// The raw primitive costs: a disabled counter/histogram op must be a
/// single branch; an enabled one a relaxed atomic (plus a clock read for
/// timed histograms, paid by the caller only when `is_enabled`).
fn bench_primitives(c: &mut Criterion) {
    let disabled = Registry::disabled();
    let live = Registry::new();
    let dc = disabled.counter("bench.count");
    let lc = live.counter("bench.count");
    let dh = disabled.histogram("bench.ns");
    let lh = live.histogram("bench.ns");

    let mut group = c.benchmark_group("primitives");
    group.bench_function("counter_disabled", |b| b.iter(|| dc.inc()));
    group.bench_function("counter_enabled", |b| b.iter(|| lc.inc()));
    group.bench_function("histogram_disabled", |b| {
        b.iter(|| dh.record(black_box(1234)))
    });
    group.bench_function("histogram_enabled", |b| {
        b.iter(|| lh.record(black_box(1234)))
    });
    group.finish();
}

/// Resilience overhead: the monitor's guarded path over one
/// session (`catch_unwind`, fail points, retry bookkeeping, plus session
/// admission and the serial commit) vs the plain engine scan of the same
/// trace. The §11 contract: disabled fail points cost one branch — the
/// `failpoint_*` pair measures that primitive directly.
fn bench_resilience_overhead(c: &mut Criterion) {
    let workload = adprom_workloads::hospital::workload(15, 9);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 6;
    let (profile, _) = build_profile("App_h", &analysis, &traces, &config);
    let trace = &traces[0];

    let mut group = c.benchmark_group("resilience");
    let plain = DetectionEngine::new(&profile);
    group.bench_function("scan_plain", |b| {
        b.iter(|| black_box(plain.scan(black_box(trace)).len()))
    });
    let profiles = ProfileRegistry::new();
    profiles
        .register("hospital", profile.clone())
        .expect("profile validates");
    let profiles = Arc::new(profiles);
    let session: Vec<TaggedCall> = trace
        .iter()
        .map(|event| TaggedCall {
            app: "hospital".to_string(),
            session: "s-0".to_string(),
            event: event.clone(),
        })
        .collect();
    group.bench_function("scan_guarded", |b| {
        b.iter(|| {
            let mut runtime =
                ShardedMonitor::new(Arc::clone(&profiles), 1).with_config(RuntimeConfig {
                    max_sessions: 0,
                    queue_capacity: 0,
                    ..RuntimeConfig::default()
                });
            runtime.ingest_stream(black_box(&session));
            black_box(runtime.finish()[0].alerts.len())
        })
    });

    // The raw fail-point primitive: disabled is one branch; armed (but
    // never firing for this key) takes the site's trigger lock.
    let disabled = FailPoint::disabled();
    let injector = FaultPlan::new(7)
        .inject(
            sites::MONITOR_SWAP,
            FaultKind::Panic,
            Trigger::OnceForKeys([u64::MAX].into()),
        )
        .arm();
    let armed = injector.point(sites::MONITOR_SWAP);
    group.bench_function("failpoint_disabled", |b| {
        b.iter(|| black_box(disabled.fire(black_box(3))))
    });
    group.bench_function("failpoint_armed_miss", |b| {
        b.iter(|| black_box(armed.fire(black_box(3))))
    });
    group.finish();
}

/// Forensics overhead on the benign path: the monitor over a
/// benign session stream with the flight recorder disarmed vs armed. The
/// §14 contract: a benign session pays one null-pointer check per window,
/// so `benign_armed` must track `benign_disarmed` within a few percent —
/// attribution and report allocation happen only when a session alarms.
fn bench_forensics_overhead(c: &mut Criterion) {
    let workload = adprom_workloads::hospital::workload(15, 9);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 6;
    let (profile, _) = build_profile("App_h", &analysis, &traces, &config);

    let profiles = ProfileRegistry::new();
    profiles
        .register("hospital", profile)
        .expect("profile validates");
    let profiles = Arc::new(profiles);
    let sessions: Vec<(String, String, _)> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| ("hospital".to_string(), format!("s-{i}"), t.clone()))
        .collect();
    let stream = interleave(&sessions, 0xBE9);

    let run = |armed: bool| {
        let mut runtime = ShardedMonitor::new(Arc::clone(&profiles), 1);
        if armed {
            runtime = runtime.with_forensics(ForensicsConfig::default());
        }
        runtime.ingest_stream(black_box(&stream));
        runtime
            .finish()
            .iter()
            .map(|r| r.alerts.len())
            .sum::<usize>()
    };

    let mut group = c.benchmark_group("forensics");
    group.bench_function("benign_disarmed", |b| b.iter(|| black_box(run(false))));
    group.bench_function("benign_armed", |b| b.iter(|| black_box(run(true))));
    group.finish();
}

/// Batch-width sweep over the batched scoring kernel: the same window
/// set scored in chunks of k ∈ {1, 4, 16, 64}. Per-lane scores are
/// bit-identical at every width (DESIGN.md §15), so the only thing that
/// moves is cache reuse of the shared transition structure — widening
/// from k=1 should show it directly in the criterion history.
fn bench_batch_width(c: &mut Criterion) {
    let workload = adprom_workloads::hospital::workload(15, 9);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 6;
    let (profile, _) = build_profile("App_h", &analysis, &traces, &config);

    let windows: Vec<Vec<usize>> = trace_windows(&traces, profile.window)
        .iter()
        .map(|w| profile.alphabet.encode_seq(w))
        .collect();
    let lanes: Vec<&[usize]> = windows.iter().map(Vec::as_slice).collect();
    let sp = SparseTransitions::from_hmm(&profile.hmm, &SparseConfig::default());

    let mut group = c.benchmark_group("batch_width");
    for k in [1usize, 4, 16, 64] {
        group.bench_function(format!("f64/k{k}"), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for chunk in lanes.chunks(k) {
                    let out = score_windows_batch(&profile.hmm, &sp, black_box(chunk), false);
                    acc += out.scores.iter().sum::<f64>();
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scan_overhead,
    bench_primitives,
    bench_resilience_overhead,
    bench_forensics_overhead,
    bench_batch_width
);
criterion_main!(benches);
