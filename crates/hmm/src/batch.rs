//! Cross-window batch scoring: lane-major SoA kernels.
//!
//! The scalar sparse kernel ([`crate::log_likelihood_sparse`]) keeps every
//! reduction in one fixed order so the detection pipeline's bit-identity
//! pins hold (streaming ≡ whole-trace, steps resum to the score, parallel
//! ≡ serial). That rules out vectorizing *within* a window — reassociating
//! a reduction changes its bits. This module vectorizes *across* windows
//! instead: `k` same-profile windows are scored in one pass over the
//! transition structure, with the forward state held lane-major
//! (`alpha[state * k + lane]`) so each arithmetic step is a contiguous
//! `k`-wide operation the autovectorizer turns into packed multiply-adds.
//!
//! # Bit-identity contract
//!
//! Per lane, [`score_windows_batch`] performs the **exact op-for-op
//! sequence** of [`crate::log_likelihood_sparse`] (and of
//! [`crate::step_scores_sparse`] when step capture is on): the t=0 init in
//! state order, the background dot in state order, each CSC column gather
//! in stored-entry order, the dense-fallback axpys in row order, the
//! emission multiply + sum in state order, then scale and `ln`. Rust never
//! contracts `a*b + c` into an FMA implicitly and cross-lane vectorization
//! never reassociates within a lane, so every lane's score is
//! bit-identical to the scalar call at any batch width — the batch API is
//! a pure layout change, not an approximation.
//!
//! Windows whose probability mass vanishes mid-batch ("dead" lanes) score
//! `-inf` exactly like the scalar early return: their scale factor is
//! forced to `0.0` so the lane's state zeroes and stays zero (never NaN),
//! while live lanes continue unperturbed.

use crate::model::Hmm;
use crate::sparse::SparseTransitions;

/// Result of a batched scoring call: one score per window (lane), plus the
/// per-step `ln` factors when requested (each lane's steps resum
/// bit-identically to its score).
#[derive(Debug, Clone)]
pub struct BatchScores {
    /// `log P(O | λ)` per window, in input order.
    pub scores: Vec<f64>,
    /// Per-window step factors (`Some` iff requested). On an impossible
    /// window the vector ends with the `-inf` step at which mass vanished,
    /// mirroring [`crate::step_scores_sparse`].
    pub steps: Option<Vec<Vec<f64>>>,
}

/// Scatters each lane's emission column for step `t` into a lane-major
/// buffer (`bv[state * k + lane]`). Hoisting the per-lane column
/// indirection out of the recursion turns the emission multiply + sum
/// into contiguous `k`-wide sweeps the autovectorizer packs — the values
/// and their per-lane order are untouched, so lane bit-identity holds.
#[inline(always)]
fn gather_emission(bt: &[f64], n: usize, k: usize, windows: &[&[usize]], t: usize, bv: &mut [f64]) {
    for (l, w) in windows.iter().enumerate() {
        let col = &bt[w[t] * n..(w[t] + 1) * n];
        for (j, &c) in col.iter().enumerate() {
            bv[j * k + l] = c;
        }
    }
}

/// Applies the end-of-step bookkeeping for every lane: scale factor,
/// accumulated score, optional step capture, and dead-lane zeroing.
fn settle(
    sum: &[f64],
    scl: &mut [f64],
    alive: &mut [bool],
    scores: &mut [f64],
    steps: &mut [Vec<f64>],
    want_steps: bool,
) {
    for (l, &s) in sum.iter().enumerate() {
        if !alive[l] {
            scl[l] = 0.0;
            continue;
        }
        if s > 0.0 {
            let step = s.ln();
            scores[l] += step;
            scl[l] = 1.0 / s;
            if want_steps {
                steps[l].push(step);
            }
        } else {
            alive[l] = false;
            scores[l] = f64::NEG_INFINITY;
            scl[l] = 0.0;
            if want_steps {
                steps[l].push(f64::NEG_INFINITY);
            }
        }
    }
}

/// Scores `k` same-length windows against one profile in a single pass
/// over the transition structure. Each lane is bit-identical to
/// [`crate::log_likelihood_sparse`] on that window (see the module docs
/// for the op-order argument); `want_steps` additionally captures each
/// lane's per-step factors, matching [`crate::step_scores_sparse`].
///
/// The batch is a cache-reuse play: the CSR arrays, emission columns and
/// background vector are streamed once per step for all `k` windows
/// instead of once per window, and every inner loop is a contiguous
/// `k`-wide lane sweep the autovectorizer packs.
pub fn score_windows_batch(
    hmm: &Hmm,
    sp: &SparseTransitions,
    windows: &[&[usize]],
    want_steps: bool,
) -> BatchScores {
    // The recursion is lane-local, so splitting an oversized batch into
    // sub-batches cannot change any lane's score.
    if windows.len() > LANE_CAP {
        let mut scores = Vec::with_capacity(windows.len());
        let mut steps = want_steps.then(Vec::new);
        for chunk in windows.chunks(LANE_CAP) {
            let part = score_windows_batch(hmm, sp, chunk, want_steps);
            scores.extend(part.scores);
            if let (Some(all), Some(p)) = (steps.as_mut(), part.steps) {
                all.extend(p);
            }
        }
        return BatchScores { scores, steps };
    }
    // Same IEEE ops in the same per-lane order at any vector width —
    // the AVX2 build only packs more lanes per instruction, so the
    // dispatch cannot change a bit of any score.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the avx2 wrapper is only reached when the running CPU
        // reports AVX2 support.
        return unsafe { score_batch_avx2(hmm, sp, windows, want_steps) };
    }
    score_batch(hmm, sp, windows, want_steps)
}

/// Lanes per kernel pass: [`score_windows_batch`] splits a larger batch
/// into passes of at most this many windows (lane-locally harmless), so
/// the lane-major scratch (`2 × n_states × lanes` values) stays L1/L2
/// resident for paper-scale models while each pass over the transition
/// structure is still shared by many windows.
pub const LANE_CAP: usize = 32;

/// AVX2-codegen clone of [`score_batch`] (the `#[inline(always)]`
/// body recompiles with 256-bit lanes; nothing else changes).
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_batch_avx2(
    hmm: &Hmm,
    sp: &SparseTransitions,
    windows: &[&[usize]],
    want_steps: bool,
) -> BatchScores {
    score_batch(hmm, sp, windows, want_steps)
}

#[inline(always)]
fn score_batch(
    hmm: &Hmm,
    sp: &SparseTransitions,
    windows: &[&[usize]],
    want_steps: bool,
) -> BatchScores {
    debug_assert_eq!(hmm.n_states(), sp.n_states());
    let k = windows.len();
    let t_len = windows.first().map_or(0, |w| w.len());
    assert!(
        windows.iter().all(|w| w.len() == t_len),
        "batched windows must share a length"
    );
    let mut scores = vec![0.0f64; k];
    let mut steps: Vec<Vec<f64>> = if want_steps {
        vec![Vec::with_capacity(t_len); k]
    } else {
        Vec::new()
    };
    if k == 0 || t_len == 0 {
        return BatchScores {
            scores,
            steps: want_steps.then_some(steps),
        };
    }
    let n = sp.n;
    // Lanes are padded to a whole number of 256-bit blocks (4 × f64) so
    // the vectorized lane loops never run their scalar remainder tails.
    // Pad lanes start at zero and stay there: their emission entries are
    // never written (so every product is ×0) and their scale factors are
    // never settled (so every rescale is ×0) — real lanes are untouched.
    let kp = k.div_ceil(4) * 4;
    let mut prev = vec![0.0f64; n * kp];
    let mut cur = vec![0.0f64; n * kp];
    let mut sum = vec![0.0f64; kp];
    let mut scl = vec![0.0f64; kp];
    let mut base = vec![0.0f64; kp];
    let mut alive = vec![true; k];
    let mut bv = vec![0.0f64; n * kp];

    // t = 0: per lane, αₗ(i) = π_i · b_i(o₀ₗ) with the sum accumulated in
    // state order — the scalar kernel's exact sequence.
    gather_emission(&sp.bt, n, kp, windows, 0, &mut bv);
    for (i, &pi_i) in hmm.pi.iter().enumerate() {
        let row = &mut prev[i * kp..(i + 1) * kp];
        let b = &bv[i * kp..(i + 1) * kp];
        for ((r, &bb), s) in row.iter_mut().zip(b).zip(sum.iter_mut()) {
            let p = pi_i * bb;
            *r = p;
            *s += p;
        }
    }
    settle(
        &sum[..k],
        &mut scl[..k],
        &mut alive,
        &mut scores,
        &mut steps,
        want_steps,
    );
    for i in 0..n {
        let row = &mut prev[i * kp..(i + 1) * kp];
        for (r, &s) in row.iter_mut().zip(&scl) {
            *r *= s;
        }
    }

    for t in 1..t_len {
        // Propagate: base dot, CSC column gathers, dense-fallback axpys —
        // each a kp-wide lane sweep, per lane in scalar op order.
        base.fill(0.0);
        for (i, &bg) in sp.background.iter().enumerate() {
            let row = &prev[i * kp..(i + 1) * kp];
            for (b, &r) in base.iter_mut().zip(row) {
                *b += r * bg;
            }
        }
        for j in 0..n {
            let (s, e) = (sp.tcol_start[j], sp.tcol_start[j + 1]);
            let out = &mut cur[j * kp..(j + 1) * kp];
            out.copy_from_slice(&base);
            for (i, d) in sp.trow[s..e].iter().zip(&sp.tdev[s..e]) {
                let src = *i as usize;
                let row = &prev[src * kp..(src + 1) * kp];
                for (o, &r) in out.iter_mut().zip(row) {
                    *o += r * d;
                }
            }
        }
        for (kd, &i) in sp.dense_idx.iter().enumerate() {
            let src = i as usize;
            let arow = &prev[src * kp..(src + 1) * kp];
            let vrow = &sp.dense_val[kd * n..(kd + 1) * n];
            for (j, &v) in vrow.iter().enumerate() {
                let out = &mut cur[j * kp..(j + 1) * kp];
                for (o, &a) in out.iter_mut().zip(arow) {
                    *o += a * v;
                }
            }
        }
        // Emission multiply + per-lane sum (state order), then settle.
        sum.fill(0.0);
        gather_emission(&sp.bt, n, kp, windows, t, &mut bv);
        for j in 0..n {
            let row = &mut cur[j * kp..(j + 1) * kp];
            let b = &bv[j * kp..(j + 1) * kp];
            for ((r, &bb), s) in row.iter_mut().zip(b).zip(sum.iter_mut()) {
                let c = *r * bb;
                *r = c;
                *s += c;
            }
        }
        settle(
            &sum[..k],
            &mut scl[..k],
            &mut alive,
            &mut scores,
            &mut steps,
            want_steps,
        );
        for j in 0..n {
            let row = &mut cur[j * kp..(j + 1) * kp];
            for (r, &s) in row.iter_mut().zip(&scl) {
                *r *= s;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }

    BatchScores {
        scores,
        steps: want_steps.then_some(steps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::{log_likelihood_sparse, step_scores_sparse, SparseConfig};

    fn smoothed(n: usize, m: usize, seed: u64) -> Hmm {
        let mut hmm = Hmm::random(n, m, seed);
        hmm.smooth(1e-4);
        hmm
    }

    #[test]
    fn batch_lanes_are_bit_identical_to_the_scalar_kernel() {
        for seed in 0..4 {
            let hmm = smoothed(9, 5, seed);
            let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
            let trace = hmm.sample(200, seed + 50);
            for k in [1usize, 3, 8, 32] {
                let windows: Vec<&[usize]> = (0..k).map(|w| &trace[w * 5..w * 5 + 15]).collect();
                let batch = score_windows_batch(&hmm, &sp, &windows, true);
                for (l, w) in windows.iter().enumerate() {
                    // Layout change only: every lane reproduces the scalar
                    // rolling score bit-for-bit, at every batch width.
                    assert_eq!(batch.scores[l], log_likelihood_sparse(&hmm, &sp, w));
                    let scalar = step_scores_sparse(&hmm, &sp, w);
                    assert_eq!(batch.steps.as_ref().unwrap()[l], scalar.steps);
                }
            }
        }
    }

    #[test]
    fn dead_lanes_score_neg_infinity_without_perturbing_live_lanes() {
        // Structural zeros: emitting symbol 1 from the reachable chain is
        // impossible, so that lane must die while its neighbors stay exact.
        let hmm = Hmm::new(
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![vec![1.0, 0.0], vec![1.0, 0.0]],
            vec![1.0, 0.0],
        )
        .unwrap();
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let live = vec![0usize; 6];
        let dead = vec![0, 0, 1, 0, 0, 0];
        let windows: Vec<&[usize]> = vec![&live, &dead, &live];
        let batch = score_windows_batch(&hmm, &sp, &windows, true);
        assert_eq!(batch.scores[1], f64::NEG_INFINITY);
        assert_eq!(batch.scores[0], log_likelihood_sparse(&hmm, &sp, &live));
        assert_eq!(batch.scores[0], batch.scores[2]);
        // The dead lane's steps end at the vanishing point, scalar-style.
        let steps = batch.steps.as_ref().unwrap();
        assert_eq!(steps[1].len(), 3);
        assert_eq!(*steps[1].last().unwrap(), f64::NEG_INFINITY);
        assert!(batch.scores[0].is_finite());
    }

    #[test]
    fn empty_batches_and_empty_windows_are_well_defined() {
        let hmm = smoothed(5, 4, 3);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let none: Vec<&[usize]> = Vec::new();
        assert!(score_windows_batch(&hmm, &sp, &none, false)
            .scores
            .is_empty());
        let empty: Vec<&[usize]> = vec![&[], &[]];
        let batch = score_windows_batch(&hmm, &sp, &empty, true);
        assert_eq!(batch.scores, vec![0.0, 0.0]);
        assert!(batch.steps.unwrap().iter().all(Vec::is_empty));
    }
}
