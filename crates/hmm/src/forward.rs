//! The evaluation problem: scaled forward/backward passes (Rabiner §V).
//!
//! The Detection Engine scores every n-length call sequence with
//! `log P(cs | λ)` via the forward algorithm; scaling keeps the recursion
//! stable for long sequences.

use crate::model::Hmm;

/// Output of the scaled forward pass.
#[derive(Debug, Clone)]
pub struct ForwardPass {
    /// Scaled forward variables, `alpha[t][i]`.
    pub alpha: Vec<Vec<f64>>,
    /// Per-step scale factors `c_t` (inverse of the column sums).
    pub scale: Vec<f64>,
    /// `log P(O | λ)`; `-inf` when the sequence is impossible.
    pub log_likelihood: f64,
}

/// One dense forward-direction step, `cur[j] = Σ_i prev[i]·a_ij`: every
/// dense recursion (`forward`, `log_likelihood`, `step_scores` and the
/// dense branch of [`SlidingState::push`](crate::SlidingState::push))
/// advances through it. `cur` is overwritten; both slices hold
/// `hmm.n_states()` entries.
///
/// Columns go in blocks of 16, then at most one block of 8 and one of 4,
/// then one column at a time. A block's sums stay in registers across the
/// whole ascending-`i` sweep over A's rows, so each `a_ij` is loaded once
/// and `cur` is written once per block. Each `cur[j]` still starts at
/// `0.0` and adds `prev[i]·a_ij` for ascending `i`, skipping rows whose
/// `prev[i]` is zero: the operations, and their order, of the row-by-row
/// accumulation `cur[j] += prev[i]·a_ij`. Rust never contracts a multiply
/// and an add into an FMA, so every result is bit-identical to that
/// accumulation at any block width (DESIGN.md §15). On x86-64 an AVX2
/// build of the same body is chosen at runtime.
pub fn dense_step(hmm: &Hmm, prev: &[f64], cur: &mut [f64]) {
    assert!(
        prev.len() == hmm.n_states() && cur.len() == hmm.n_states(),
        "state vectors sized for the model"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: only reached when the running CPU reports AVX2 support.
        return unsafe { dense_step_avx2(hmm, prev, cur) };
    }
    dense_step_blocks(hmm, prev, cur);
}

/// AVX2-codegen clone of [`dense_step_blocks`] (the `#[inline(always)]`
/// body recompiles with 256-bit registers; nothing else changes).
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_step_avx2(hmm: &Hmm, prev: &[f64], cur: &mut [f64]) {
    dense_step_blocks(hmm, prev, cur);
}

#[inline(always)]
fn dense_step_blocks(hmm: &Hmm, prev: &[f64], cur: &mut [f64]) {
    let n = prev.len();
    let mut j = 0;
    while j + 16 <= n {
        dense_block::<16>(hmm, prev, j, cur);
        j += 16;
    }
    if j + 8 <= n {
        dense_block::<8>(hmm, prev, j, cur);
        j += 8;
    }
    if j + 4 <= n {
        dense_block::<4>(hmm, prev, j, cur);
        j += 4;
    }
    while j < n {
        dense_block::<1>(hmm, prev, j, cur);
        j += 1;
    }
}

/// Columns `j0..j0 + W` of [`dense_step`], summed in `W` registers.
#[inline(always)]
fn dense_block<const W: usize>(hmm: &Hmm, prev: &[f64], j0: usize, cur: &mut [f64]) {
    let mut acc = [0.0f64; W];
    for (row, &prev_i) in hmm.a_rows().zip(prev) {
        if prev_i == 0.0 {
            continue;
        }
        let cols: &[f64; W] = row[j0..j0 + W].try_into().expect("W columns");
        for (sum, a_ij) in acc.iter_mut().zip(cols) {
            *sum += prev_i * a_ij;
        }
    }
    cur[j0..j0 + W].copy_from_slice(&acc);
}

/// Runs the scaled forward algorithm. Panics in debug builds if symbols are
/// out of range; callers validate with [`Hmm::check_observations`].
#[allow(clippy::needless_range_loop)] // dense recursions index several arrays in lock-step
pub fn forward(hmm: &Hmm, obs: &[usize]) -> ForwardPass {
    let n = hmm.n_states();
    let t_len = obs.len();
    let mut alpha = vec![vec![0.0; n]; t_len];
    let mut scale = vec![0.0; t_len];
    let mut log_likelihood = 0.0f64;

    if t_len == 0 {
        return ForwardPass {
            alpha,
            scale,
            log_likelihood: 0.0,
        };
    }

    // t = 0
    let mut sum = 0.0;
    for i in 0..n {
        alpha[0][i] = hmm.pi[i] * hmm.b(i, obs[0]);
        sum += alpha[0][i];
    }
    if sum <= 0.0 {
        return impossible(alpha, scale);
    }
    scale[0] = 1.0 / sum;
    for v in &mut alpha[0] {
        *v *= scale[0];
    }
    log_likelihood += sum.ln();

    // t > 0.
    for t in 1..t_len {
        let (prev, cur) = {
            let (a, b) = alpha.split_at_mut(t);
            (&a[t - 1], &mut b[0])
        };
        dense_step(hmm, prev, cur);
        let mut sum = 0.0;
        for (j, c) in cur.iter_mut().enumerate() {
            *c *= hmm.b(j, obs[t]);
            sum += *c;
        }
        if sum <= 0.0 {
            return impossible(alpha, scale);
        }
        scale[t] = 1.0 / sum;
        for v in cur.iter_mut() {
            *v *= scale[t];
        }
        log_likelihood += sum.ln();
    }

    ForwardPass {
        alpha,
        scale,
        log_likelihood,
    }
}

fn impossible(alpha: Vec<Vec<f64>>, scale: Vec<f64>) -> ForwardPass {
    ForwardPass {
        alpha,
        scale,
        log_likelihood: f64::NEG_INFINITY,
    }
}

/// Per-step decomposition of a scaled forward pass's log-likelihood.
///
/// `steps[t]` is `ln Σ_j α̂_t(j)` before rescaling — exactly
/// `ln P(o_t | o_0..o_{t-1}, λ)`, the conditional log-probability of the
/// t-th observation given its prefix. `log_likelihood` accumulates the
/// identical `sum.ln()` terms in the identical order as [`forward`], so the
/// total is bit-for-bit the score the detection path already computed; the
/// steps are the same pass's factors, not a second scoring run.
#[derive(Debug, Clone, PartialEq)]
pub struct StepScores {
    /// Per-observation conditional log-probabilities, in sequence order.
    /// When the sequence is impossible the vector ends with the
    /// `-inf` step at which probability mass vanished.
    pub steps: Vec<f64>,
    /// `log P(O | λ)`; `-inf` when the sequence is impossible.
    pub log_likelihood: f64,
}

/// The scaled forward recursion of [`forward`] over two rolling state
/// vectors, handing each step's `ln Σ_j α̂_t(j)` to `on_step` (the
/// `-inf` step included when mass vanishes) and returning their
/// left-to-right sum. The arithmetic (operation order included) matches
/// [`forward`] exactly, so the result is bit-identical to
/// `forward(hmm, obs).log_likelihood` without its per-step allocations.
#[allow(clippy::needless_range_loop)] // dense recursions index several arrays in lock-step
fn rolling_forward(hmm: &Hmm, obs: &[usize], mut on_step: impl FnMut(f64)) -> f64 {
    let n = hmm.n_states();
    let t_len = obs.len();
    let mut log_likelihood = 0.0f64;
    if t_len == 0 {
        return 0.0;
    }

    let mut prev = vec![0.0f64; n];
    let mut cur = vec![0.0f64; n];

    // t = 0
    let mut sum = 0.0;
    for i in 0..n {
        prev[i] = hmm.pi[i] * hmm.b(i, obs[0]);
        sum += prev[i];
    }
    if sum <= 0.0 {
        on_step(f64::NEG_INFINITY);
        return f64::NEG_INFINITY;
    }
    let scale = 1.0 / sum;
    for v in &mut prev {
        *v *= scale;
    }
    let step = sum.ln();
    log_likelihood += step;
    on_step(step);

    // t > 0 — the same step as `forward`.
    for t in 1..t_len {
        dense_step(hmm, &prev, &mut cur);
        let mut sum = 0.0;
        for (j, c) in cur.iter_mut().enumerate() {
            *c *= hmm.b(j, obs[t]);
            sum += *c;
        }
        if sum <= 0.0 {
            on_step(f64::NEG_INFINITY);
            return f64::NEG_INFINITY;
        }
        let scale = 1.0 / sum;
        for v in cur.iter_mut() {
            *v *= scale;
        }
        let step = sum.ln();
        log_likelihood += step;
        on_step(step);
        std::mem::swap(&mut prev, &mut cur);
    }
    log_likelihood
}

/// Dense-kernel attribution: the per-step factors of the same scaled
/// forward recursion as [`forward`]. `log_likelihood` is bit-identical to
/// `forward(hmm, obs).log_likelihood`.
pub fn step_scores(hmm: &Hmm, obs: &[usize]) -> StepScores {
    let mut steps = Vec::with_capacity(obs.len());
    let log_likelihood = rolling_forward(hmm, obs, |step| steps.push(step));
    StepScores {
        steps,
        log_likelihood,
    }
}

/// `log P(O | λ)`, bit-identical to `forward(hmm, obs).log_likelihood`
/// but with two rolling state vectors instead of the full α table.
pub fn log_likelihood(hmm: &Hmm, obs: &[usize]) -> f64 {
    rolling_forward(hmm, obs, |_| {})
}

/// Runs the scaled backward pass using the forward pass's scale factors.
/// Returns `beta[t][i]`.
#[allow(clippy::needless_range_loop)] // dense recursions index several arrays in lock-step
pub fn backward(hmm: &Hmm, obs: &[usize], scale: &[f64]) -> Vec<Vec<f64>> {
    let n = hmm.n_states();
    let t_len = obs.len();
    let mut beta = vec![vec![0.0; n]; t_len];
    if t_len == 0 {
        return beta;
    }
    for i in 0..n {
        beta[t_len - 1][i] = scale[t_len - 1];
    }
    // Hoisting b_j(o_{t+1})·beta_{t+1}(j) out of the i-loop leaves the
    // inner product a pure row sweep over A.
    let mut bb = vec![0.0; n];
    for t in (0..t_len - 1).rev() {
        let (head, tail) = beta.split_at_mut(t + 1);
        let next = &tail[0];
        let cur = &mut head[t];
        for j in 0..n {
            bb[j] = hmm.b(j, obs[t + 1]) * next[j];
        }
        for i in 0..n {
            let row = hmm.a_row(i);
            let mut acc = 0.0;
            for (a_ij, b_beta) in row.iter().zip(&bb) {
                acc += a_ij * b_beta;
            }
            cur[i] = acc * scale[t];
        }
    }
    beta
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-state, 2-symbol model with hand-computable likelihoods.
    fn toy() -> Hmm {
        Hmm::new(
            vec![vec![0.7, 0.3], vec![0.4, 0.6]],
            vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            vec![0.6, 0.4],
        )
        .unwrap()
    }

    #[test]
    fn single_observation_matches_hand_computation() {
        let hmm = toy();
        // P(O=0) = 0.6*0.9 + 0.4*0.2 = 0.62
        let ll = log_likelihood(&hmm, &[0]);
        assert!((ll - 0.62f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn two_observations_match_enumeration() {
        let hmm = toy();
        // Enumerate all state paths for O = [0, 1].
        let mut p = 0.0;
        for s0 in 0..2 {
            for s1 in 0..2 {
                p += hmm.pi[s0] * hmm.b(s0, 0) * hmm.a(s0, s1) * hmm.b(s1, 1);
            }
        }
        let ll = log_likelihood(&hmm, &[0, 1]);
        assert!((ll - p.ln()).abs() < 1e-12);
    }

    #[test]
    fn impossible_sequence_is_neg_infinity() {
        let hmm = Hmm::new(
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![vec![1.0, 0.0], vec![1.0, 0.0]], // symbol 1 never emitted
            vec![1.0, 0.0],
        )
        .unwrap();
        assert_eq!(log_likelihood(&hmm, &[0, 1]), f64::NEG_INFINITY);
    }

    #[test]
    fn scaling_handles_long_sequences() {
        let hmm = toy();
        let obs: Vec<usize> = (0..10_000).map(|i| i % 2).collect();
        let ll = log_likelihood(&hmm, &obs);
        assert!(ll.is_finite());
        assert!(ll < 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn forward_backward_consistency() {
        // Σ_i alpha_t(i) * beta_t(i) must be constant across t (equal to
        // c_t-normalized likelihood) — a standard sanity identity.
        let hmm = toy();
        let obs = [0, 1, 1, 0, 1];
        let fp = forward(&hmm, &obs);
        let beta = backward(&hmm, &obs, &fp.scale);
        let mut ref_val = None;
        for t in 0..obs.len() {
            let v: f64 = (0..2)
                .map(|i| fp.alpha[t][i] * beta[t][i] / fp.scale[t])
                .sum();
            match ref_val {
                None => ref_val = Some(v),
                Some(r) => assert!((v - r).abs() < 1e-9, "t={t}: {v} vs {r}"),
            }
        }
    }

    #[test]
    fn empty_sequence_scores_zero() {
        assert_eq!(log_likelihood(&toy(), &[]), 0.0);
    }

    #[test]
    fn step_scores_decompose_the_forward_score_bitwise() {
        for seed in 0..5 {
            let mut hmm = Hmm::random(6, 4, seed);
            hmm.smooth(1e-4);
            let obs = hmm.sample(60, seed + 100);
            let scores = step_scores(&hmm, &obs);
            // Identical op sequence to `forward`: total and re-summed
            // steps must both reproduce the score bit-for-bit.
            assert_eq!(scores.log_likelihood, forward(&hmm, &obs).log_likelihood);
            assert_eq!(
                log_likelihood(&hmm, &obs).to_bits(),
                forward(&hmm, &obs).log_likelihood.to_bits()
            );
            assert_eq!(scores.steps.len(), obs.len());
            let resummed = scores.steps.iter().fold(0.0f64, |acc, s| acc + s);
            assert_eq!(resummed, scores.log_likelihood);
        }
        let empty = step_scores(&toy(), &[]);
        assert_eq!(empty.log_likelihood, 0.0);
        assert!(empty.steps.is_empty());
    }

    #[test]
    fn step_scores_mark_the_impossible_step() {
        let hmm = Hmm::new(
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![vec![1.0, 0.0], vec![1.0, 0.0]], // symbol 1 never emitted
            vec![1.0, 0.0],
        )
        .unwrap();
        let scores = step_scores(&hmm, &[0, 1, 0]);
        assert_eq!(scores.log_likelihood, f64::NEG_INFINITY);
        // Step 0 is fine; step 1 is where mass vanished; the tail is
        // unscored.
        assert_eq!(scores.steps.len(), 2);
        assert!(scores.steps[0].is_finite());
        assert_eq!(scores.steps[1], f64::NEG_INFINITY);
    }
}
