//! Property tests: the scaled forward algorithm against brute-force
//! enumeration, the dense forward step against the row-wise accumulation
//! it replaced, the sliding and batch kernels against the scalar
//! recursions, and distributional invariants of training.

use adprom_hmm::{
    backward, dense_step, forward, log_likelihood, log_likelihood_sparse, reestimate,
    score_windows_batch, step_scores, train, viterbi, Hmm, SlidingState, SparseConfig,
    SparseTransitions, TrainConfig,
};
use proptest::prelude::*;

/// An arbitrary small stochastic model.
fn arb_hmm(max_n: usize, max_m: usize) -> impl Strategy<Value = Hmm> {
    (1..=max_n, 1..=max_m, any::<u64>()).prop_map(|(n, m, seed)| Hmm::random(n, m, seed))
}

/// Uniform distribution over the `true` entries of `mask`; a one-hot row
/// at `fallback` when the mask is empty (rows must stay stochastic).
fn uniform_over(mask: &[bool], fallback: usize) -> Vec<f64> {
    let support = mask.iter().filter(|&&x| x).count();
    if support == 0 {
        let mut row = vec![0.0; mask.len()];
        row[fallback] = 1.0;
        return row;
    }
    mask.iter()
        .map(|&x| if x { 1.0 / support as f64 } else { 0.0 })
        .collect()
}

/// A model full of structural zeros: every transition and emission row is
/// uniform over a random support set. These models routinely assign zero
/// probability to sampled-from-elsewhere event streams, which is exactly
/// what exercises the sliding scorer's re-anchor fallback.
fn arb_sparse_hmm(n: usize, m: usize) -> impl Strategy<Value = Hmm> {
    let trans = prop::collection::vec(prop::collection::vec(any::<bool>(), n..n + 1), n..n + 1);
    let emit = prop::collection::vec(prop::collection::vec(any::<bool>(), m..m + 1), n..n + 1);
    (trans, emit).prop_map(move |(tmask, emask)| {
        let a: Vec<Vec<f64>> = tmask
            .iter()
            .enumerate()
            .map(|(i, row)| uniform_over(row, i))
            .collect();
        let b: Vec<Vec<f64>> = emask
            .iter()
            .enumerate()
            .map(|(i, row)| uniform_over(row, i % m))
            .collect();
        let pi = vec![1.0 / n as f64; n];
        Hmm::new(a, b, pi).expect("rows are stochastic by construction")
    })
}

/// Brute-force P(O | λ) by summing over all state paths.
fn enumerate_likelihood(hmm: &Hmm, obs: &[usize]) -> f64 {
    let n = hmm.n_states();
    let t_len = obs.len();
    if t_len == 0 {
        return 1.0;
    }
    let mut total = 0.0;
    let paths = n.pow(t_len as u32);
    for code in 0..paths {
        let mut c = code;
        let mut path = Vec::with_capacity(t_len);
        for _ in 0..t_len {
            path.push(c % n);
            c /= n;
        }
        let mut p = hmm.pi[path[0]] * hmm.b(path[0], obs[0]);
        for t in 1..t_len {
            p *= hmm.a(path[t - 1], path[t]) * hmm.b(path[t], obs[t]);
        }
        total += p;
    }
    total
}

/// The row-by-row accumulation the dense recursions used before
/// `dense_step`: `cur[j] += prev[i]·a_ij` one row of A at a time, rows
/// whose `prev[i]` is zero skipped. The bit-identity properties hold
/// `dense_step`, and every recursion built on it, to this reference.
fn rowwise_step(hmm: &Hmm, prev: &[f64], cur: &mut [f64]) {
    cur.fill(0.0);
    for (i, &prev_i) in prev.iter().enumerate() {
        if prev_i == 0.0 {
            continue;
        }
        for (c, a_ij) in cur.iter_mut().zip(hmm.a_row(i)) {
            *c += prev_i * a_ij;
        }
    }
}

/// The scaled forward pass over `rowwise_step`, op for op as `forward`
/// computes it: the scaled α rows, the scale factors, the per-step
/// `ln Σ_j ᾱ_t(j)` terms and their left-to-right sum. Smoothed models
/// only (no step ever loses all its mass).
fn rowwise_forward(hmm: &Hmm, obs: &[usize]) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>, f64) {
    let n = hmm.n_states();
    let (mut alpha, mut scale, mut steps) = (Vec::<Vec<f64>>::new(), Vec::new(), Vec::new());
    let mut total = 0.0f64;
    for (t, &o) in obs.iter().enumerate() {
        let mut cur = vec![0.0; n];
        let mut sum = 0.0;
        match alpha.last() {
            None => {
                for (j, c) in cur.iter_mut().enumerate() {
                    *c = hmm.pi[j] * hmm.b(j, o);
                    sum += *c;
                }
            }
            Some(prev) => {
                rowwise_step(hmm, prev, &mut cur);
                for (j, c) in cur.iter_mut().enumerate() {
                    *c *= hmm.b(j, o);
                    sum += *c;
                }
            }
        }
        assert!(sum > 0.0, "smoothed model lost all mass at t={t}");
        let c_t = 1.0 / sum;
        cur.iter_mut().for_each(|v| *v *= c_t);
        alpha.push(cur);
        scale.push(c_t);
        steps.push(sum.ln());
        total += sum.ln();
    }
    (alpha, scale, steps, total)
}

/// A dense `SlidingState`'s window scores over `rowwise_step`: the same
/// recurrence, and the same ring of `ln c_t` terms in the same slots, so
/// each score sums the same values in the same order. Smoothed models
/// only (the chain never re-anchors).
fn rowwise_sliding(hmm: &Hmm, obs: &[usize], window: usize) -> Vec<f64> {
    let n = hmm.n_states();
    let (mut alpha, mut scratch) = (vec![0.0; n], vec![0.0; n]);
    let mut ring: Vec<f64> = Vec::with_capacity(window);
    let mut scores = Vec::with_capacity(obs.len());
    for (t, &o) in obs.iter().enumerate() {
        let mut c = 0.0;
        if t == 0 {
            for (j, acc) in scratch.iter_mut().enumerate() {
                *acc = hmm.pi[j] * hmm.b(j, o);
                c += *acc;
            }
        } else {
            rowwise_step(hmm, &alpha, &mut scratch);
            for (j, acc) in scratch.iter_mut().enumerate() {
                *acc *= hmm.b(j, o);
                c += *acc;
            }
        }
        let inv = 1.0 / c;
        for (dst, &src) in alpha.iter_mut().zip(&scratch) {
            *dst = src * inv;
        }
        if ring.len() < window {
            ring.push(c.ln());
        } else {
            ring[t % window] = c.ln();
        }
        scores.push(ring.iter().sum::<f64>());
    }
    scores
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A `SlidingState`'s scores under the scan contract: one per full
/// window (`len − n + 1` for `len > n`), the single short window's score
/// for a trace that never fills one, none for an empty trace.
fn window_scores(hmm: &Hmm, obs: &[usize], window: usize) -> Vec<f64> {
    let mut sliding = SlidingState::new(hmm.n_states(), window);
    let mut scores = Vec::new();
    for (t, &symbol) in obs.iter().enumerate() {
        let score = sliding.push(hmm, None, symbol);
        if t + 1 >= window {
            scores.push(score);
        }
    }
    if scores.is_empty() && !obs.is_empty() {
        scores.push(sliding.score());
    }
    scores
}

/// `count` same-length windows sampled from the model.
fn sample_windows(hmm: &Hmm, count: usize, len: usize, seed: u64) -> Vec<Vec<usize>> {
    (0..count as u64)
        .map(|i| hmm.sample(len, seed ^ (0x9E37_79B9 ^ i.wrapping_mul(0x85EB_CA6B))))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `dense_step` is bit-identical to the row-wise accumulation at every
    /// state count from 1 to 80 (so every 16/8/4/1 block tail), with about
    /// half of `prev`'s entries zero.
    #[test]
    fn dense_step_is_bit_identical_to_the_rowwise_accumulation(
        model_seed in any::<u64>(),
        prev in prop::collection::vec((any::<bool>(), 0.0f64..1.0), 80..81),
    ) {
        let prev: Vec<f64> = prev.iter().map(|&(zero, v)| if zero { 0.0 } else { v }).collect();
        for n in 1..=80usize {
            let hmm = Hmm::random(n, 1, model_seed ^ n as u64);
            let (mut blocked, mut rowwise) = (vec![f64::NAN; n], vec![0.0; n]);
            dense_step(&hmm, &prev[..n], &mut blocked);
            rowwise_step(&hmm, &prev[..n], &mut rowwise);
            prop_assert_eq!(bits(&blocked), bits(&rowwise), "n = {}", n);
        }
    }

    /// `forward`, `log_likelihood`, `step_scores` and a dense
    /// `SlidingState` all score bit-identically to the same recursions
    /// over the row-wise accumulation, on random smoothed models up to 48
    /// states.
    #[test]
    fn dense_recursions_are_bit_identical_to_the_rowwise_accumulation(
        hmm in arb_hmm(48, 6), seed in any::<u64>(), len in 1usize..40, window in 1usize..16,
    ) {
        let mut hmm = hmm;
        hmm.smooth(1e-4);
        let obs = hmm.sample(len, seed);
        let (alpha, scale, steps, total) = rowwise_forward(&hmm, &obs);
        let pass = forward(&hmm, &obs);
        for (t, (got, want)) in pass.alpha.iter().zip(&alpha).enumerate() {
            prop_assert_eq!(bits(got), bits(want), "forward alpha at t = {}", t);
        }
        prop_assert_eq!(bits(&pass.scale), bits(&scale));
        prop_assert_eq!(pass.log_likelihood.to_bits(), total.to_bits());
        prop_assert_eq!(log_likelihood(&hmm, &obs).to_bits(), total.to_bits());
        let stepped = step_scores(&hmm, &obs);
        prop_assert_eq!(bits(&stepped.steps), bits(&steps));
        prop_assert_eq!(stepped.log_likelihood.to_bits(), total.to_bits());
        let mut sliding = SlidingState::new(hmm.n_states(), window);
        let scores: Vec<f64> = obs.iter().map(|&o| sliding.push(&hmm, None, o)).collect();
        prop_assert_eq!(bits(&scores), bits(&rowwise_sliding(&hmm, &obs, window)));
    }

    /// forward() must agree with full path enumeration on small models.
    #[test]
    fn forward_matches_enumeration(hmm in arb_hmm(3, 3), seed in any::<u64>(),
                                   len in 1usize..6) {
        let obs = hmm.sample(len, seed);
        let exact = enumerate_likelihood(&hmm, &obs);
        let ll = log_likelihood(&hmm, &obs);
        prop_assert!((ll - exact.ln()).abs() < 1e-9,
            "forward {ll} vs enumeration {}", exact.ln());
    }

    /// The Viterbi path probability never exceeds the total likelihood and
    /// equals the max over enumerated paths.
    #[test]
    fn viterbi_is_argmax(hmm in arb_hmm(3, 3), seed in any::<u64>(), len in 1usize..5) {
        let obs = hmm.sample(len, seed);
        let (_, best_lp) = viterbi(&hmm, &obs);
        // Enumerate for the max path probability.
        let n = hmm.n_states();
        let mut best = f64::NEG_INFINITY;
        for code in 0..n.pow(len as u32) {
            let mut c = code;
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(c % n);
                c /= n;
            }
            let mut p = (hmm.pi[path[0]] * hmm.b(path[0], obs[0])).ln();
            for t in 1..len {
                p += (hmm.a(path[t - 1], path[t]) * hmm.b(path[t], obs[t])).ln();
            }
            best = best.max(p);
        }
        prop_assert!((best_lp - best).abs() < 1e-9, "{best_lp} vs {best}");
    }

    /// Forward-backward posterior sums to 1 at every step.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn posteriors_normalize(hmm in arb_hmm(4, 4), seed in any::<u64>(), len in 1usize..12) {
        let obs = hmm.sample(len, seed);
        let fp = forward(&hmm, &obs);
        prop_assume!(fp.log_likelihood.is_finite());
        let beta = backward(&hmm, &obs, &fp.scale);
        for t in 0..len {
            let mut gamma: Vec<f64> = (0..hmm.n_states())
                .map(|i| fp.alpha[t][i] * beta[t][i])
                .collect();
            let s: f64 = gamma.iter().sum();
            prop_assert!(s > 0.0);
            for g in &mut gamma {
                *g /= s;
            }
            let total: f64 = gamma.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
    }

    /// One re-estimation step keeps the model stochastic and never lowers
    /// the training-set likelihood (the EM guarantee), up to numerical
    /// noise from smoothing.
    #[test]
    fn reestimation_is_monotone(n in 1usize..4, model_seed in any::<u64>(),
                                seed in any::<u64>()) {
        // Model and teacher must share the alphabet (m = 4) so sampled
        // symbols are always in range for the trainee.
        let hmm = Hmm::random(n, 4, model_seed);
        let teacher = Hmm::random(3, 4, seed ^ 0xFEED);
        let data: Vec<Vec<usize>> = (0..20).map(|i| teacher.sample(12, seed ^ i)).collect();
        let mut model = hmm;
        let before: f64 = data.iter().map(|o| log_likelihood(&model, o)).sum();
        prop_assume!(before.is_finite());
        reestimate(&mut model, &data, 0.0);
        model.validate().expect("stochastic");
        let after: f64 = data.iter().map(|o| log_likelihood(&model, o)).sum();
        prop_assert!(after >= before - 1e-6, "EM decreased likelihood: {before} -> {after}");
    }

    /// The incremental sliding-window score matches a full forward()
    /// recompute via the prefix-difference identity, anchored at the
    /// scorer's own re-anchor point so the check is exact even for
    /// models that hit the impossible-prefix fallback — through the dense
    /// step or the CSR kernel at ε = 0, on smoothed random models.
    #[test]
    fn sliding_state_matches_full_recompute(
        hmm in arb_hmm(5, 5), seed in any::<u64>(),
        len in 1usize..60, window in 1usize..20, sparse in any::<bool>(),
    ) {
        let mut hmm = hmm;
        hmm.smooth(1e-4);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let kernel = sparse.then_some(&sp);
        let obs = hmm.sample(len, seed);
        let mut sliding = SlidingState::new(hmm.n_states(), window);
        for (t, &symbol) in obs.iter().enumerate() {
            let score = sliding.push(&hmm, kernel, symbol);
            let start = (t + 1).saturating_sub(window);
            let anchor = sliding.anchor();
            // Window score == ll(obs[anchor..=t]) − ll(obs[anchor..start])
            // by telescoping; for smoothed/no-zero models anchor == 0 and
            // this is exactly the π-anchored prefix difference.
            let head = log_likelihood(&hmm, &obs[anchor..=t]);
            let tail = if start > anchor {
                log_likelihood(&hmm, &obs[anchor..start])
            } else {
                0.0
            };
            let expected = head - tail;
            if expected.is_finite() {
                prop_assert!(
                    (score - expected).abs() < 1e-9,
                    "t={t} anchor={anchor}: incremental {score} vs recompute {expected}"
                );
            } else {
                prop_assert!(score == f64::NEG_INFINITY || !sliding_window_covers_anchor(anchor, start),
                    "t={t}: recompute -inf but incremental {score}");
            }
        }
    }

    /// `SlidingState::stats()` re-anchor accounting: the counter equals
    /// the number of exact recomputes (restarts from π) actually
    /// performed, counted independently by replaying the stream with
    /// fresh full forward() passes. Sparse models + uniform random event
    /// streams force zero-probability prefixes constantly.
    #[test]
    fn sliding_stats_count_exact_recomputes(
        hmm in arb_sparse_hmm(3, 4),
        obs in prop::collection::vec(0usize..4, 1..48),
        window in 1usize..8,
    ) {
        let mut sliding = SlidingState::new(hmm.n_states(), window);
        let mut expected_reanchors = 0u64;
        let mut anchor = 0usize;
        let mut dead = true;
        for (t, &symbol) in obs.iter().enumerate() {
            // Oracle: an exact recompute happens whenever the live chain
            // assigns this event zero probability — decided with a full
            // forward pass from the current anchor, never by peeking at
            // the incremental scorer's internals.
            let chain_continues = !dead && log_likelihood(&hmm, &obs[anchor..=t]).is_finite();
            if !chain_continues {
                if t > 0 {
                    expected_reanchors += 1;
                }
                anchor = t;
                dead = !log_likelihood(&hmm, &obs[t..=t]).is_finite();
            }
            sliding.push(&hmm, None, symbol);
            prop_assert_eq!(sliding.anchor(), anchor, "anchor diverged at t={}", t);
            prop_assert_eq!(
                sliding.stats().reanchors, expected_reanchors,
                "re-anchor count diverged at t={}: scorer {} vs oracle {}",
                t, sliding.stats().reanchors, expected_reanchors
            );
        }
        prop_assert_eq!(sliding.stats().pushes, obs.len() as u64);
        sliding.reset();
        prop_assert_eq!(sliding.stats(), adprom_hmm::SlidingStats::default());
    }

    /// Smoothed (zero-free) models never take the fallback: re-anchor
    /// count stays 0 however long the stream runs.
    #[test]
    fn smoothed_models_never_reanchor(
        hmm in arb_hmm(4, 5), seed in any::<u64>(), len in 1usize..80,
    ) {
        let mut smoothed = hmm;
        smoothed.smooth(1e-4);
        let obs = smoothed.sample(len, seed);
        let mut sliding = SlidingState::new(smoothed.n_states(), 6);
        for &symbol in &obs {
            sliding.push(&smoothed, None, symbol);
        }
        prop_assert_eq!(sliding.stats().reanchors, 0u64);
        prop_assert_eq!(sliding.stats().pushes, len as u64);
    }

    /// A `SlidingState` read under the scan contract yields one score per
    /// sliding window, and each equals the conditional prefix difference
    /// computed by two full forward() passes on smoothed (zero-free, never
    /// re-anchoring) models.
    #[test]
    fn sliding_window_scores_match_prefix_differences(
        n in 1usize..5, m in 1usize..5, model_seed in any::<u64>(),
        seed in any::<u64>(), len in 1usize..50, window in 1usize..16,
    ) {
        let mut hmm = Hmm::random(n, m, model_seed);
        hmm.smooth(1e-4);
        let obs = hmm.sample(len, seed);
        let incremental = window_scores(&hmm, &obs, window);
        let expected: Vec<f64> = if obs.len() <= window {
            vec![log_likelihood(&hmm, &obs)]
        } else {
            (0..=obs.len() - window)
                .map(|s| {
                    log_likelihood(&hmm, &obs[..s + window]) - log_likelihood(&hmm, &obs[..s])
                })
                .collect()
        };
        prop_assert_eq!(incremental.len(), expected.len());
        for (i, (got, want)) in incremental.iter().zip(&expected).enumerate() {
            prop_assert!((got - want).abs() < 1e-9,
                "window {i}: incremental {got} vs full forward recompute {want}");
        }
    }

    /// The sparse CSR kernel scores every sequence within 1e-9 of the dense
    /// forward pass — on smoothed models (background decomposition active)
    /// and unsmoothed random ones (dense-fallback rows active).
    #[test]
    fn sparse_forward_matches_dense(
        hmm in arb_hmm(6, 5), seed in any::<u64>(), len in 1usize..30,
        smooth in any::<bool>(),
    ) {
        let mut hmm = hmm;
        if smooth {
            hmm.smooth(1e-4);
        }
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let obs = hmm.sample(len, seed);
        let dense = log_likelihood(&hmm, &obs);
        let rolling = log_likelihood_sparse(&hmm, &sp, &obs);
        if dense.is_finite() {
            prop_assert!((rolling - dense).abs() < 1e-9,
                "sparse {rolling} vs dense {dense}");
        } else {
            prop_assert_eq!(rolling, f64::NEG_INFINITY);
        }
    }

    /// The batched kernel is bit-identical (`==`, not approximately)
    /// to the scalar rolling sparse scorer in every lane, at every batch
    /// width — including widths past the 32-lane split and models with
    /// structural zeros where lanes die to −∞.
    #[test]
    fn batch_f64_bit_identical_to_scalar(
        hmm in arb_hmm(6, 5), seed in any::<u64>(), len in 1usize..24,
        count in 1usize..40, smooth in any::<bool>(),
    ) {
        let mut hmm = hmm;
        if smooth {
            hmm.smooth(1e-4);
        }
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let windows = sample_windows(&hmm, count, len, seed);
        let lanes: Vec<&[usize]> = windows.iter().map(Vec::as_slice).collect();
        let batch = score_windows_batch(&hmm, &sp, &lanes, false);
        prop_assert_eq!(batch.scores.len(), count);
        for (lane, w) in windows.iter().enumerate() {
            let scalar = log_likelihood_sparse(&hmm, &sp, w);
            prop_assert!(
                batch.scores[lane] == scalar
                    || (batch.scores[lane].is_nan() && scalar.is_nan()),
                "lane {lane}: batch {} vs scalar {scalar}", batch.scores[lane]
            );
        }
    }

    /// Batch width never changes a score: scoring the same windows one at
    /// a time, in pairs, or all at once yields bit-identical results —
    /// the lane-local recursion makes batching purely a cache-reuse
    /// optimization.
    #[test]
    fn batch_width_is_score_invariant(
        hmm in arb_hmm(6, 5), seed in any::<u64>(), len in 1usize..20,
        count in 2usize..24, split in 1usize..8,
    ) {
        let mut hmm = hmm;
        hmm.smooth(1e-4);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let windows = sample_windows(&hmm, count, len, seed);
        let lanes: Vec<&[usize]> = windows.iter().map(Vec::as_slice).collect();

        let all = score_windows_batch(&hmm, &sp, &lanes, false).scores;
        let mut chunked = Vec::new();
        for chunk in lanes.chunks(split) {
            chunked.extend(score_windows_batch(&hmm, &sp, chunk, false).scores);
        }
        for lane in 0..count {
            prop_assert!(all[lane] == chunked[lane],
                "lane {lane}: width {count} gave {} vs width {split} {}",
                all[lane], chunked[lane]);
        }
    }

    /// Per-step factor traces from the batch kernel match the scalar
    /// scorer's totals: each lane's steps sum to its score.
    #[test]
    fn batch_steps_sum_to_scores(
        hmm in arb_hmm(5, 4), seed in any::<u64>(), len in 1usize..16,
        count in 1usize..10,
    ) {
        let mut hmm = hmm;
        hmm.smooth(1e-4);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let windows = sample_windows(&hmm, count, len, seed);
        let lanes: Vec<&[usize]> = windows.iter().map(Vec::as_slice).collect();
        let batch = score_windows_batch(&hmm, &sp, &lanes, true);
        let steps = batch.steps.expect("want_steps = true");
        for (lane, lane_steps) in steps.iter().enumerate() {
            prop_assert_eq!(lane_steps.len(), len);
            let total: f64 = lane_steps.iter().sum();
            prop_assert!((total - batch.scores[lane]).abs() < 1e-9,
                "lane {lane}: steps sum {total} vs score {}", batch.scores[lane]);
        }
    }

    /// Parallel Baum–Welch training is bit-identical to serial training —
    /// same model, same report, however the traces are batched.
    #[test]
    fn parallel_training_is_bit_identical(
        n in 2usize..5, model_seed in any::<u64>(), seed in any::<u64>(),
        n_seqs in 1usize..40,
    ) {
        let init = {
            let mut h = Hmm::random(n, 4, model_seed);
            h.smooth(1e-4);
            h
        };
        let teacher = Hmm::random(3, 4, seed ^ 0xACE);
        let data: Vec<Vec<usize>> = (0..n_seqs as u64).map(|i| teacher.sample(8, seed ^ i)).collect();
        let holdout: Vec<Vec<usize>> = (0..4u64).map(|i| teacher.sample(8, seed ^ (100 + i))).collect();
        let mut serial_model = init.clone();
        let mut parallel_model = init;
        let serial_cfg = TrainConfig { max_iterations: 3, parallel: false, ..TrainConfig::default() };
        let parallel_cfg = TrainConfig { max_iterations: 3, parallel: true, ..TrainConfig::default() };
        let serial_report = train(&mut serial_model, &data, &holdout, &serial_cfg);
        let parallel_report = train(&mut parallel_model, &data, &holdout, &parallel_cfg);
        prop_assert_eq!(serial_report.iterations, parallel_report.iterations);
        prop_assert!(serial_model == parallel_model,
            "parallel E-step diverged from serial");
    }
}

/// True when the window start has passed the re-anchor point, i.e. the
/// ring no longer holds any pre-anchor contribution.
fn sliding_window_covers_anchor(anchor: usize, start: usize) -> bool {
    start >= anchor
}
