//! Cross-window batch scoring: lane-major SoA kernels and the f32 fast
//! path with f64 verification.
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
//!
//! # f32 fast path
//!
//! [`F32Kernel`] mirrors the CSR decomposition in `f32` and runs the same
//! lane-major recursion in single precision. Its per-step `ln` terms are
//! widened to `f64` and accumulated in `f64`, so captured steps still
//! resum bit-identically to the returned score (the forensics invariant).
//! The f32 score differs from the f64 score by a small amount (observed
//! ~1e-4 nats for window-15 hospital traces; bounded by a tolerance test
//! in `crates/hmm/tests/`), which is why it is only used *verified*: the
//! caller re-scores any window whose f32 score lands within a guard band
//! of the decision threshold — or is non-finite — through the f64 path
//! ([`Precision::F32Verified`]), making emitted flags provably identical
//! to pure f64.

use crate::model::Hmm;
use crate::sparse::SparseTransitions;

/// Scoring precision policy for the detection hot path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Precision {
    /// Score every window in f64 (the default; bit-identical to the
    /// scalar kernels).
    #[default]
    F64,
    /// Score windows in f32 and re-score any window whose f32 score lands
    /// within `guard_band` nats of the decision threshold (or is
    /// non-finite) through the f64 path. Flags are then identical to pure
    /// f64 whenever the true f32↔f64 gap stays below the guard band —
    /// which the tolerance suite bounds at orders of magnitude under the
    /// default.
    F32Verified {
        /// Half-width (in nats) of the band around the threshold inside
        /// which f32 scores are not trusted for flag decisions.
        guard_band: f64,
    },
}

impl Precision {
    /// Default guard band (nats). The measured f32↔f64 score gap on
    /// window-scale sequences is ~1e-4 nats; 0.25 leaves >3 orders of
    /// magnitude of slack while still letting the vast majority of
    /// clearly-benign / clearly-anomalous windows skip the f64 pass.
    pub const DEFAULT_GUARD_BAND: f64 = 0.25;

    /// `F32Verified` with the default guard band.
    pub fn f32_verified() -> Precision {
        Precision::F32Verified {
            guard_band: Precision::DEFAULT_GUARD_BAND,
        }
    }

    /// Stable label for status and audit records.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32Verified { .. } => "f32-verified",
        }
    }
}

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
fn gather_emission<T: Copy>(
    bt: &[T],
    n: usize,
    k: usize,
    windows: &[&[usize]],
    t: usize,
    bv: &mut [T],
) {
    for (l, w) in windows.iter().enumerate() {
        let col = &bt[w[t] * n..(w[t] + 1) * n];
        for (j, &c) in col.iter().enumerate() {
            bv[j * k + l] = c;
        }
    }
}

/// Branchless single-precision natural log (musl `logf`'s reduction and
/// minimax polynomial), accurate to ~1 ulp of f32 for finite positive
/// inputs. The f32 fast path calls this instead of libm's `ln` so the
/// per-step settle stays a handful of selects and multiplies instead of
/// a call — the approximation error (~1e-7 nats/step) is orders of
/// magnitude below both the f32 state rounding it rides on and the
/// guard band that decides when a window must re-score in f64.
#[inline(always)]
#[allow(clippy::excessive_precision)] // musl logf literals, kept verbatim
fn fast_ln_f32(x: f32) -> f32 {
    const LN2_HI: f32 = 6.931_381_2e-1;
    const LN2_LO: f32 = 9.058_000_6e-6;
    const LG1: f32 = 0.666_666_63;
    const LG2: f32 = 0.400_009_72;
    const LG3: f32 = 0.284_987_87;
    const LG4: f32 = 0.242_790_79;
    // Scale subnormals up so the exponent-field extraction below sees a
    // normalized mantissa.
    let small = x < f32::MIN_POSITIVE;
    let xs = if small { x * 8_388_608.0 } else { x }; // 2^23
    let off = if small { 23 } else { 0 };
    let bits = xs.to_bits();
    let e0 = ((bits >> 23) as i32) - 127 - off;
    let m0 = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000); // [1, 2)
                                                                 // Reduce to [√2/2, √2): above √2, halve and carry into the exponent.
                                                                 // Written as selects (not mutation) so the lane loop in the batch
                                                                 // settle vectorizes.
    let big = m0 > std::f32::consts::SQRT_2;
    let m = if big { m0 * 0.5 } else { m0 };
    let e = e0 + i32::from(big);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * LG4);
    let t2 = z * (LG1 + w * LG3);
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let k = e as f32;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// Applies the end-of-step bookkeeping for every lane: scale factor,
/// accumulated score, optional step capture, and dead-lane zeroing.
fn settle_f64(
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
        return unsafe { score_batch_f64_avx2(hmm, sp, windows, want_steps) };
    }
    score_batch_f64(hmm, sp, windows, want_steps)
}

/// Hard cap on lanes per kernel invocation: the widest padded width the
/// dispatchers monomorphize. Larger batches are split (lane-locally
/// harmless) before dispatch.
const LANE_CAP: usize = 32;

/// AVX2-codegen clone of [`score_batch_f64`] (the `#[inline(always)]`
/// body recompiles with 256-bit lanes; nothing else changes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_batch_f64_avx2(
    hmm: &Hmm,
    sp: &SparseTransitions,
    windows: &[&[usize]],
    want_steps: bool,
) -> BatchScores {
    score_batch_f64(hmm, sp, windows, want_steps)
}

#[inline(always)]
fn score_batch_f64(
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
    settle_f64(
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
        settle_f64(
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

/// Single-precision mirror of a [`SparseTransitions`] (plus π), for the
/// f32 fast-scoring path. Borrow-free and cheap to build (one widening
/// pass over the CSR arrays); share behind an `Arc` like the f64 kernel.
#[derive(Debug, Clone)]
pub struct F32Kernel {
    n: usize,
    pi: Vec<f32>,
    background: Vec<f32>,
    tcol_start: Vec<usize>,
    trow: Vec<u32>,
    tdev: Vec<f32>,
    dense_idx: Vec<u32>,
    dense_val: Vec<f32>,
    bt: Vec<f32>,
}

impl F32Kernel {
    /// Narrows `sp` (and `hmm`'s π) to f32. The decomposition is copied
    /// structurally — backgrounds, CSC deviations, dense-fallback rows and
    /// the symbol-major emission transpose — so the f32 recursion follows
    /// the identical data path as the f64 one, just in single precision.
    pub fn from_sparse(hmm: &Hmm, sp: &SparseTransitions) -> F32Kernel {
        debug_assert_eq!(hmm.n_states(), sp.n_states());
        F32Kernel {
            n: sp.n,
            pi: hmm.pi.iter().map(|&x| x as f32).collect(),
            background: sp.background.iter().map(|&x| x as f32).collect(),
            tcol_start: sp.tcol_start.clone(),
            trow: sp.trow.clone(),
            tdev: sp.tdev.iter().map(|&x| x as f32).collect(),
            dense_idx: sp.dense_idx.clone(),
            dense_val: sp.dense_val.iter().map(|&x| x as f32).collect(),
            bt: sp.bt.iter().map(|&x| x as f32).collect(),
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// f32 analogue of [`score_windows_batch`]: same lane-major recursion,
    /// single-precision state, with the per-step `ln` computed by the
    /// branchless `fast_ln_f32` polynomial. Scores (and captured steps)
    /// are the f64 widenings of those f32 step terms, accumulated in
    /// f64 — so steps still resum bit-identically to the score, and the
    /// per-lane result is independent of the batch width (k = 1 scores a
    /// window bitwise the same as any k). **Not** flag-safe on its own:
    /// use via [`Precision::F32Verified`] so near-threshold windows
    /// re-score in f64.
    pub fn score_windows_batch(&self, windows: &[&[usize]], want_steps: bool) -> BatchScores {
        // Lane-local recursion: sub-batching an oversized call is exact.
        if windows.len() > LANE_CAP {
            let mut scores = Vec::with_capacity(windows.len());
            let mut steps = want_steps.then(Vec::new);
            for chunk in windows.chunks(LANE_CAP) {
                let part = self.score_windows_batch(chunk, want_steps);
                scores.extend(part.scores);
                if let (Some(all), Some(p)) = (steps.as_mut(), part.steps) {
                    all.extend(p);
                }
            }
            return BatchScores { scores, steps };
        }
        // See [`score_windows_batch`]: width-only dispatch, identical
        // per-lane op sequence either way.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: only reached when the running CPU reports AVX2.
            return unsafe { self.score_batch_avx2(windows, want_steps) };
        }
        self.score_batch(windows, want_steps)
    }

    /// AVX2-codegen clone of [`F32Kernel::score_batch`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn score_batch_avx2(&self, windows: &[&[usize]], want_steps: bool) -> BatchScores {
        self.score_batch(windows, want_steps)
    }

    #[inline(always)]
    fn score_batch(&self, windows: &[&[usize]], want_steps: bool) -> BatchScores {
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
        let n = self.n;
        // Padded to whole 256-bit blocks (8 × f32); see `score_batch_f64`
        // for the padding argument (pad lanes stay exactly zero).
        let kp = k.div_ceil(8) * 8;
        let mut prev = vec![0.0f32; n * kp];
        let mut cur = vec![0.0f32; n * kp];
        let mut sum = vec![0.0f32; kp];
        let mut scl = vec![0.0f32; kp];
        let mut base = vec![0.0f32; kp];
        let mut alive = vec![true; k];
        let mut bv = vec![0.0f32; n * kp];

        let mut lnb = vec![0.0f32; k];
        let settle = |sum: &[f32],
                      lnb: &mut [f32],
                      scl: &mut [f32],
                      alive: &mut [bool],
                      scores: &mut [f64],
                      steps: &mut [Vec<f64>]| {
            // Branchless lane sweep first — `fast_ln_f32` is all selects,
            // so this loop packs into vector lanes. Values for dead or
            // impossible lanes are junk and masked out just below.
            for ((lb, sc), &s) in lnb.iter_mut().zip(scl.iter_mut()).zip(sum) {
                *lb = fast_ln_f32(s);
                *sc = 1.0 / s;
            }
            for (l, &s) in sum.iter().enumerate() {
                if !alive[l] {
                    scl[l] = 0.0;
                    continue;
                }
                if s > 0.0 {
                    // Widen the f32 step to f64 and accumulate in f64:
                    // captured steps then resum bitwise to the score.
                    let step = f64::from(lnb[l]);
                    scores[l] += step;
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
        };

        gather_emission(&self.bt, n, kp, windows, 0, &mut bv);
        for (i, &pi_i) in self.pi.iter().enumerate() {
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
            &mut lnb,
            &mut scl[..k],
            &mut alive,
            &mut scores,
            &mut steps,
        );
        for i in 0..n {
            let row = &mut prev[i * kp..(i + 1) * kp];
            for (r, &s) in row.iter_mut().zip(&scl) {
                *r *= s;
            }
        }

        for t in 1..t_len {
            base.fill(0.0);
            for (i, &bg) in self.background.iter().enumerate() {
                let row = &prev[i * kp..(i + 1) * kp];
                for (b, &r) in base.iter_mut().zip(row) {
                    *b += r * bg;
                }
            }
            for j in 0..n {
                let (s, e) = (self.tcol_start[j], self.tcol_start[j + 1]);
                let out = &mut cur[j * kp..(j + 1) * kp];
                out.copy_from_slice(&base);
                for (i, d) in self.trow[s..e].iter().zip(&self.tdev[s..e]) {
                    let src = *i as usize;
                    let row = &prev[src * kp..(src + 1) * kp];
                    for (o, &r) in out.iter_mut().zip(row) {
                        *o += r * d;
                    }
                }
            }
            for (kd, &i) in self.dense_idx.iter().enumerate() {
                let src = i as usize;
                let arow = &prev[src * kp..(src + 1) * kp];
                let vrow = &self.dense_val[kd * n..(kd + 1) * n];
                for (j, &v) in vrow.iter().enumerate() {
                    let out = &mut cur[j * kp..(j + 1) * kp];
                    for (o, &a) in out.iter_mut().zip(arow) {
                        *o += a * v;
                    }
                }
            }
            sum.fill(0.0);
            gather_emission(&self.bt, n, kp, windows, t, &mut bv);
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
                &mut lnb,
                &mut scl[..k],
                &mut alive,
                &mut scores,
                &mut steps,
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
    fn f32_scores_track_f64_and_are_batch_width_independent() {
        for seed in 0..4 {
            let hmm = smoothed(12, 6, seed);
            let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
            let fk = F32Kernel::from_sparse(&hmm, &sp);
            let trace = hmm.sample(120, seed + 9);
            let windows: Vec<&[usize]> = (0..8).map(|w| &trace[w * 10..w * 10 + 15]).collect();
            let wide = fk.score_windows_batch(&windows, true);
            for (l, w) in windows.iter().enumerate() {
                let narrow = fk.score_windows_batch(&[w], false);
                assert_eq!(narrow.scores[0], wide.scores[l], "lane {l} k-dependent");
                let exact = log_likelihood_sparse(&hmm, &sp, w);
                assert!(
                    (wide.scores[l] - exact).abs() < 1e-2,
                    "f32 drifted: {} vs {exact}",
                    wide.scores[l]
                );
                // Steps resum bitwise to the score (forensics invariant).
                let resummed = wide.steps.as_ref().unwrap()[l]
                    .iter()
                    .fold(0.0f64, |acc, s| acc + s);
                assert_eq!(resummed, wide.scores[l]);
            }
        }
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

    #[test]
    fn precision_labels_and_defaults() {
        assert_eq!(Precision::default(), Precision::F64);
        assert_eq!(Precision::F64.label(), "f64");
        let p = Precision::f32_verified();
        assert_eq!(p.label(), "f32-verified");
        match p {
            Precision::F32Verified { guard_band } => {
                assert_eq!(guard_band, Precision::DEFAULT_GUARD_BAND)
            }
            _ => unreachable!(),
        }
    }
}
