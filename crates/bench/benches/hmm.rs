//! Microbenchmarks for the HMM substrate: the forward pass (the per-window
//! detection cost) and one Baum–Welch re-estimation step (the training
//! cost unit behind Table VIII and the clustering ablation).

use adprom_hmm::{
    forward, log_likelihood, log_likelihood_sparse, reestimate, train, viterbi, Hmm, SlidingState,
    SparseConfig, SparseTransitions, TrainConfig,
};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

/// A model with the sparse structure trained AD-PROM profiles have: most of
/// each transition row sits at a shared background floor, a handful of
/// entries carry the mass. `flatten_floor` folds the sub-threshold entries
/// of the random matrix to their row mean, which is exactly the bitwise
/// structure the CSR builder exploits at `epsilon = 0`.
fn sparse_structured_hmm(n: usize, seed: u64) -> Hmm {
    let mut hmm = Hmm::random(n, n, seed);
    hmm.flatten_floor(1.2 / n as f64);
    hmm
}

/// One 15-call window through the dense forward step: the full α-table
/// pass and the rolling `log_likelihood` the scorer calls on a memo miss.
/// N = 33, 42 and 46 are the hospital, banking and supermarket profile
/// sizes.
fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_window15");
    for &n in &[16usize, 33, 42, 46, 64, 256] {
        let hmm = Hmm::random(n, n, 42);
        let obs = hmm.sample(15, 7);
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| black_box(forward(&hmm, black_box(&obs)).log_likelihood))
        });
        group.bench_with_input(BenchmarkId::new("log_likelihood", n), &n, |b, _| {
            b.iter(|| black_box(log_likelihood(&hmm, black_box(&obs))))
        });
    }
    group.finish();
}

/// Full per-window forward recompute vs the incremental `SlidingState`
/// scorer over the same 15-length windows of one long trace — the
/// O(n·N²) vs O(N²) per-event comparison behind the batched pipeline.
fn bench_sliding(c: &mut Criterion) {
    const WINDOW: usize = 15;
    const TRACE_LEN: usize = 512;
    let mut group = c.benchmark_group("window_scan_t512_w15");
    for &n in &[16usize, 64] {
        let mut hmm = Hmm::random(n, n, 42);
        hmm.smooth(1e-4);
        let obs = hmm.sample(TRACE_LEN, 7);
        group.bench_with_input(BenchmarkId::new("full_recompute", n), &n, |b, _| {
            b.iter(|| {
                let total: f64 = obs
                    .windows(WINDOW)
                    .map(|w| forward(&hmm, w).log_likelihood)
                    .sum();
                black_box(total)
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                // One push per event; the score of each full window is
                // the one its last event's push returns.
                let mut sliding = SlidingState::new(n, WINDOW);
                let total: f64 = obs
                    .iter()
                    .enumerate()
                    .map(|(t, &symbol)| (t, sliding.push(&hmm, None, symbol)))
                    .filter(|&(t, _)| t + 1 >= WINDOW)
                    .map(|(_, score)| score)
                    .sum();
                black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_viterbi(c: &mut Criterion) {
    let hmm = Hmm::random(64, 64, 42);
    let obs = hmm.sample(15, 7);
    c.bench_function("viterbi_n64_t15", |b| {
        b.iter(|| black_box(viterbi(&hmm, black_box(&obs))))
    });
}

fn bench_reestimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("baum_welch_iteration");
    group.sample_size(10);
    for &n in &[16usize, 64] {
        let teacher = Hmm::random(n, n, 3);
        let windows: Vec<Vec<usize>> = (0..200).map(|i| teacher.sample(15, i)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                || Hmm::random(n, n, 11),
                |mut hmm| {
                    reestimate(&mut hmm, &windows, 1e-6);
                    black_box(hmm.pi[0])
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Dense full-recompute scoring vs the sparse CSR kernel on the same
/// 15-length windows — the per-window detection cost a sparse-kernel
/// runtime pays end to end.
fn bench_sparse_vs_dense(c: &mut Criterion) {
    const WINDOW: usize = 15;
    const TRACE_LEN: usize = 512;
    let mut group = c.benchmark_group("sparse_vs_dense_w15");
    for &n in &[16usize, 64] {
        let hmm = sparse_structured_hmm(n, 42);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let obs = hmm.sample(TRACE_LEN, 7);
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| {
                let total: f64 = obs.windows(WINDOW).map(|w| log_likelihood(&hmm, w)).sum();
                black_box(total)
            })
        });
        group.bench_with_input(BenchmarkId::new("sparse", n), &n, |b, _| {
            b.iter(|| {
                let total: f64 = obs
                    .windows(WINDOW)
                    .map(|w| log_likelihood_sparse(&hmm, &sp, w))
                    .sum();
                black_box(total)
            })
        });
    }
    group.finish();
}

/// Serial vs parallel Baum–Welch E-step over per-trace sufficient
/// statistics. On a single-core host the parallel path measures pure
/// overhead; on a multi-core host it shows the E-step fan-out.
fn bench_bw_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("bw_parallel");
    group.sample_size(10);
    let n = 32usize;
    let teacher = sparse_structured_hmm(n, 3);
    let windows: Vec<Vec<usize>> = (0..200).map(|i| teacher.sample(15, i)).collect();
    let holdout: Vec<Vec<usize>> = (200..240).map(|i| teacher.sample(15, i)).collect();
    for parallel in [false, true] {
        let label = if parallel { "parallel" } else { "serial" };
        group.bench_function(label, |b| {
            b.iter_batched(
                || Hmm::random(n, n, 11),
                |mut hmm| {
                    let config = TrainConfig {
                        max_iterations: 3,
                        parallel,
                        ..TrainConfig::default()
                    };
                    let report = train(&mut hmm, &windows, &holdout, &config);
                    black_box((hmm.pi[0], report.iterations))
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forward,
    bench_sliding,
    bench_viterbi,
    bench_reestimate,
    bench_sparse_vs_dense,
    bench_bw_parallel
);
criterion_main!(benches);
