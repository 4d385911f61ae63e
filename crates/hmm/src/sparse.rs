//! Sparse transition kernel: CSR scoring for structurally sparse models.
//!
//! AD-PROM's HMM is initialized from the pCTM, whose rows follow call-graph
//! edges — most of an N×N transition matrix carries no trained signal, yet
//! the dense forward recursion walks every row in full (O(N²) per event).
//! This module drops the per-event scoring cost to O(nnz + N).
//!
//! # Background + deviation decomposition
//!
//! [`Hmm::smooth`] (applied by the Profile Constructor and after every
//! re-estimation step) maps every originally-zero entry of a row to the
//! *same* floor value `floor / s` — so a smoothed row is
//!
//! ```text
//! a_ij = c_i + d_ij        with  d_ij ≥ 0, non-zero only on graph edges
//! ```
//!
//! where `c_i` is the row's **background** (its minimum) and `d_ij` its
//! per-edge **deviation**. The forward step then factors exactly:
//!
//! ```text
//! (αᵀA)_j = Σ_i α_i·d_ij  +  Σ_i α_i·c_i
//!            └─ CSR scatter ─┘   └─ scalar broadcast ─┘
//! ```
//!
//! one O(nnz) scatter plus one O(N) broadcast — **exact** (no epsilon
//! needed) even though the smoothed matrix is dense in storage. Rows whose
//! minimum is a true zero degenerate to plain CSR; rows that are genuinely
//! dense (deviation density above [`SparseConfig::max_density`]) fall back
//! to storing every entry with a zero background, so the kernel never
//! performs worse than the dense sweep by more than the O(N) broadcast.
//!
//! With [`SparseConfig::epsilon`] > 0, entries within `epsilon` of the row
//! minimum are folded into the background (set to the fold set's mean,
//! preserving the row sum); the resulting model differs from the original
//! by at most [`SparseStats::max_fold_deviation`] per entry. `epsilon = 0`
//! keeps the kernel an exact reparametrization of the input matrix.

use crate::forward::StepScores;
use crate::model::Hmm;

/// Construction parameters for [`SparseTransitions`].
#[derive(Debug, Clone, Copy)]
pub struct SparseConfig {
    /// Entries within `epsilon` of their row's minimum are folded into the
    /// row background (replaced by the fold set's mean). `0.0` (the
    /// default) folds only exact duplicates of the minimum — the kernel is
    /// then an exact reparametrization of the matrix.
    pub epsilon: f64,
    /// Rows whose deviation density `nnz/n` exceeds this threshold are
    /// stored dense (every entry explicit, background 0) so the scatter
    /// never degenerates into a slower-than-dense gather.
    pub max_density: f64,
}

impl Default for SparseConfig {
    fn default() -> SparseConfig {
        SparseConfig {
            epsilon: 0.0,
            max_density: 0.75,
        }
    }
}

/// Construction accounting for a [`SparseTransitions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseStats {
    /// Stored (deviation) entries across all rows.
    pub nnz: usize,
    /// Rows stored dense because their deviation density exceeded
    /// [`SparseConfig::max_density`].
    pub dense_rows: usize,
    /// `nnz / n²` — the fraction of the matrix the scatter kernels touch.
    pub density: f64,
    /// Largest `|a_ij − background_i|` folded into a background. `0.0`
    /// when built with `epsilon = 0`; otherwise bounds the per-entry
    /// perturbation of the represented matrix.
    pub max_fold_deviation: f64,
}

/// CSR view of an [`Hmm`] transition matrix under the background +
/// deviation decomposition (see the module docs). Borrow-free: safe to
/// share across worker threads behind an `Arc`.
#[derive(Debug, Clone)]
pub struct SparseTransitions {
    pub(crate) n: usize,
    /// CSR row pointers into `col`/`val`/`dev` (length `n + 1`).
    pub(crate) row_start: Vec<usize>,
    /// Destination state of each stored entry.
    pub(crate) col: Vec<u32>,
    /// Full transition probability `a_ij` of each stored entry.
    pub(crate) val: Vec<f64>,
    /// Deviation `a_ij − background_i` of each stored entry.
    pub(crate) dev: Vec<f64>,
    /// Per-row background `c_i` (the folded minimum; 0 for dense rows and
    /// rows whose minimum is a true zero).
    pub(crate) background: Vec<f64>,
    /// Transposed (CSC) column pointers into `trow`/`tdev` (length `n + 1`).
    /// Within a column, sources are stored in ascending row order. Dense
    /// fallback rows are excluded — they live in `dense_idx`/`dense_val`.
    pub(crate) tcol_start: Vec<usize>,
    /// Source state of each transposed entry.
    pub(crate) trow: Vec<u32>,
    /// Deviation of each transposed entry (same values as `dev`, reordered).
    pub(crate) tdev: Vec<f64>,
    /// Row indices of dense fallback rows.
    pub(crate) dense_idx: Vec<u32>,
    /// Full `n`-wide rows of each dense fallback row, concatenated, so the
    /// forward gather can apply them as contiguous (vectorizable) axpys
    /// instead of `n` scattered CSC entries each.
    pub(crate) dense_val: Vec<f64>,
    /// Emission matrix transposed to symbol-major (`bt[k * n + j] =
    /// b(j, k)`), so the per-event emission multiply reads one contiguous
    /// slice instead of `n` loads strided by the alphabet size.
    pub(crate) bt: Vec<f64>,
    stats: SparseStats,
}

impl SparseTransitions {
    /// Builds the CSR decomposition of `hmm`'s transition matrix.
    pub fn from_hmm(hmm: &Hmm, config: &SparseConfig) -> SparseTransitions {
        let n = hmm.n_states();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut col = Vec::new();
        let mut val = Vec::new();
        let mut dev = Vec::new();
        let mut background = Vec::with_capacity(n);
        let mut dense_rows = 0usize;
        let mut dense_idx = Vec::new();
        let mut dense_val = Vec::new();
        let mut max_fold = 0.0f64;
        row_start.push(0);
        for i in 0..n {
            let row = hmm.a_row(i);
            let min = row.iter().cloned().fold(f64::INFINITY, f64::min);
            // Fold set: entries within epsilon of the row minimum. Its mean
            // becomes the background, preserving the row sum; with
            // epsilon = 0 every member equals `min` bitwise, so the mean is
            // taken as `min` itself (no FP round-trip).
            let cutoff = min + config.epsilon;
            let folded: Vec<usize> = (0..n).filter(|&j| row[j] <= cutoff).collect();
            let stored = n - folded.len();
            if stored as f64 > config.max_density * n as f64 {
                // Dense fallback: background 0, every entry explicit.
                dense_rows += 1;
                dense_idx.push(i as u32);
                dense_val.extend_from_slice(row);
                background.push(0.0);
                for (j, &a_ij) in row.iter().enumerate() {
                    col.push(j as u32);
                    val.push(a_ij);
                    dev.push(a_ij);
                }
            } else {
                let bg = if config.epsilon == 0.0 || folded.len() <= 1 {
                    min
                } else {
                    let sum: f64 = folded.iter().map(|&j| row[j]).sum();
                    sum / folded.len() as f64
                };
                for &j in &folded {
                    max_fold = max_fold.max((row[j] - bg).abs());
                }
                background.push(bg);
                for (j, &a_ij) in row.iter().enumerate() {
                    if a_ij > cutoff {
                        col.push(j as u32);
                        val.push(a_ij);
                        dev.push(a_ij - bg);
                    }
                }
            }
            row_start.push(col.len());
        }
        let nnz = col.len();
        // Transpose the sparse rows to CSC for the forward gather (dense
        // fallback rows are applied as contiguous axpys instead). Scanning
        // rows in ascending order keeps each column's sources ascending.
        let mut is_dense = vec![false; n];
        for &i in &dense_idx {
            is_dense[i as usize] = true;
        }
        let mut tcol_start = vec![0usize; n + 1];
        for i in 0..n {
            if is_dense[i] {
                continue;
            }
            for k in row_start[i]..row_start[i + 1] {
                tcol_start[col[k] as usize + 1] += 1;
            }
        }
        for j in 0..n {
            tcol_start[j + 1] += tcol_start[j];
        }
        let mut trow = vec![0u32; tcol_start[n]];
        let mut tdev = vec![0.0f64; tcol_start[n]];
        let mut cursor = tcol_start.clone();
        for i in 0..n {
            if is_dense[i] {
                continue;
            }
            for k in row_start[i]..row_start[i + 1] {
                let slot = cursor[col[k] as usize];
                trow[slot] = i as u32;
                tdev[slot] = dev[k];
                cursor[col[k] as usize] += 1;
            }
        }
        let bt = hmm.b_transposed();
        let stats = SparseStats {
            nnz,
            dense_rows,
            density: if n == 0 {
                0.0
            } else {
                nnz as f64 / (n * n) as f64
            },
            max_fold_deviation: max_fold,
        };
        SparseTransitions {
            n,
            row_start,
            col,
            val,
            dev,
            background,
            tcol_start,
            trow,
            tdev,
            dense_idx,
            dense_val,
            bt,
            stats,
        }
    }

    /// Validated construction: checks that `hmm` is well-formed (finite,
    /// non-negative, row-stochastic A/B/π within the model tolerance)
    /// *before* building, then self-checks the CSR structure it produced
    /// (monotone row pointers, in-range columns, reconstructed row sums).
    ///
    /// [`from_hmm`](SparseTransitions::from_hmm) performs no validation —
    /// a poisoned matrix (NaN rows, sums far from 1) silently yields a
    /// kernel that scores garbage. adprom-core's `ProfileRegistry::register`
    /// builds through this entry point and rejects the profile on `Err`.
    pub fn try_from_hmm(
        hmm: &Hmm,
        config: &SparseConfig,
    ) -> Result<SparseTransitions, crate::HmmError> {
        use crate::HmmError;
        hmm.validate()?;
        if hmm.n_states() == 0 || hmm.n_symbols() == 0 {
            return Err(HmmError::Shape(format!(
                "degenerate model: {} states, {} symbols",
                hmm.n_states(),
                hmm.n_symbols()
            )));
        }
        if !(config.epsilon.is_finite() && config.epsilon >= 0.0) {
            return Err(HmmError::Shape(format!(
                "sparse epsilon {} is not a finite non-negative number",
                config.epsilon
            )));
        }
        let sparse = SparseTransitions::from_hmm(hmm, config);
        sparse.self_check()?;
        Ok(sparse)
    }

    /// Structural invariants of the CSR decomposition: row pointers
    /// monotone and bounded, column indices in range, and every row's
    /// represented sum `background·(n − nnz_row) + Σ stored` within
    /// `epsilon`-fold tolerance of 1.
    fn self_check(&self) -> Result<(), crate::HmmError> {
        use crate::HmmError;
        let n = self.n;
        if self.row_start.len() != n + 1 || *self.row_start.last().unwrap_or(&0) != self.col.len() {
            return Err(HmmError::Shape("CSR row pointers inconsistent".into()));
        }
        let mut dense = vec![false; n];
        for &i in &self.dense_idx {
            if i as usize >= n {
                return Err(HmmError::Shape(format!("dense row index {i} out of range")));
            }
            dense[i as usize] = true;
        }
        for (i, &is_dense) in dense.iter().enumerate() {
            let (s, e) = (self.row_start[i], self.row_start[i + 1]);
            if s > e || e > self.col.len() {
                return Err(HmmError::Shape(format!(
                    "row {i} pointers [{s}, {e}) invalid"
                )));
            }
            if self.col[s..e].iter().any(|&j| j as usize >= n) {
                return Err(HmmError::Shape(format!("row {i} has out-of-range column")));
            }
            let stored: f64 = self.val[s..e].iter().sum();
            let sum = if is_dense {
                stored
            } else {
                stored + self.background[i] * (n - (e - s)) as f64
            };
            // Folding preserves row sums up to accumulated rounding; the
            // model itself is validated to 1e-6, so give the
            // reconstruction one extra order of headroom.
            if !sum.is_finite() || (sum - 1.0).abs() > 1e-5 {
                return Err(HmmError::NotStochastic(format!(
                    "CSR row {i} reconstructs to {sum}"
                )));
            }
        }
        Ok(())
    }

    /// Symbol-major emission column: `emission_col(k)[j] == b(j, k)`.
    ///
    /// The debug assert documents (and checks, in debug builds) the range
    /// invariant the release-mode slice relies on; callers index with
    /// encoded symbols that are in-range by construction.
    #[inline]
    pub fn emission_col(&self, symbol: usize) -> &[f64] {
        debug_assert!((symbol + 1) * self.n <= self.bt.len(), "symbol in range");
        &self.bt[symbol * self.n..(symbol + 1) * self.n]
    }

    /// Number of states (rows).
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Construction accounting (nnz, density, dense fallbacks, fold error).
    pub fn stats(&self) -> SparseStats {
        self.stats
    }

    /// Row `i`'s background value `c_i`.
    #[inline]
    pub fn background(&self, i: usize) -> f64 {
        self.background[i]
    }

    /// Row `i`'s stored entries as `(columns, full values, deviations)`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64], &[f64]) {
        let (s, e) = (self.row_start[i], self.row_start[i + 1]);
        (&self.col[s..e], &self.val[s..e], &self.dev[s..e])
    }

    /// `out[j] = Σ_i alpha[i] · a(i,j)` — the forward propagation step,
    /// O(nnz + N) via background broadcast + transposed deviation gather.
    ///
    /// Implemented as a CSC gather over the sparse rows (per-destination
    /// accumulation in a register, no read-modify-write traffic on `out`)
    /// followed by one contiguous axpy per dense fallback row — those rows
    /// would otherwise contribute `n` scattered entries each, and as
    /// contiguous slices the compiler can vectorize them.
    /// Bounds are hoisted once per call (the asserts below), so every inner
    /// loop runs over provably in-range slices; the dense-fallback axpy is
    /// unrolled by 8 so the autovectorizer emits packed multiply-adds (see
    /// DESIGN.md §15 for the `--emit=asm` inspection notes). The reductions
    /// (background dot, per-column gather) deliberately stay single-chain,
    /// in index order: every bit-identity pin in this crate relies on the
    /// scalar kernels accumulating in one fixed order. The cross-window
    /// batch kernel in [`crate::batch`] is where reductions vectorize —
    /// across lanes, never within one.
    #[inline]
    pub fn propagate(&self, alpha: &[f64], out: &mut [f64]) {
        let n = self.n;
        assert_eq!(alpha.len(), n);
        assert_eq!(out.len(), n);
        let background = &self.background[..n];
        let mut base = 0.0;
        for (a, bg) in alpha.iter().zip(background) {
            base += a * bg;
        }
        for (j, o) in out.iter_mut().enumerate() {
            let (s, e) = (self.tcol_start[j], self.tcol_start[j + 1]);
            let mut acc = base;
            for (i, d) in self.trow[s..e].iter().zip(&self.tdev[s..e]) {
                acc += alpha[*i as usize] * d;
            }
            *o = acc;
        }
        for (k, &i) in self.dense_idx.iter().enumerate() {
            let a = alpha[i as usize];
            let row = &self.dense_val[k * n..(k + 1) * n];
            let mut out_c = out.chunks_exact_mut(8);
            let mut row_c = row.chunks_exact(8);
            for (o8, v8) in out_c.by_ref().zip(row_c.by_ref()) {
                for (o, v) in o8.iter_mut().zip(v8) {
                    *o += a * v;
                }
            }
            for (o, v) in out_c.into_remainder().iter_mut().zip(row_c.remainder()) {
                *o += a * v;
            }
        }
    }
}

/// `log P(O | λ)` through the sparse kernel, without materializing the α
/// matrix: the recursion only ever reads the previous step, so scoring
/// keeps two rolling n-vectors instead of allocating `T` rows — this is
/// the detection hot path (one call per window), where the allocation
/// savings are worth as much as the O(nnz) propagation.
pub fn log_likelihood_sparse(hmm: &Hmm, sp: &SparseTransitions, obs: &[usize]) -> f64 {
    debug_assert_eq!(hmm.n_states(), sp.n_states());
    let n = hmm.n_states();
    if obs.is_empty() {
        return 0.0;
    }
    let mut prev = vec![0.0; n];
    let mut cur = vec![0.0; n];
    let mut log_likelihood = 0.0f64;

    let mut sum = 0.0;
    let bcol = sp.emission_col(obs[0]);
    for ((p, pi), b) in prev.iter_mut().zip(&hmm.pi).zip(bcol) {
        *p = pi * b;
        sum += *p;
    }
    if sum <= 0.0 {
        return f64::NEG_INFINITY;
    }
    let scale = 1.0 / sum;
    for v in &mut prev {
        *v *= scale;
    }
    log_likelihood += sum.ln();

    for &symbol in &obs[1..] {
        sp.propagate(&prev, &mut cur);
        let mut sum = 0.0;
        let bcol = sp.emission_col(symbol);
        for (c, b) in cur.iter_mut().zip(bcol) {
            *c *= b;
            sum += *c;
        }
        if sum <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let scale = 1.0 / sum;
        for v in cur.iter_mut() {
            *v *= scale;
        }
        log_likelihood += sum.ln();
        std::mem::swap(&mut prev, &mut cur);
    }
    log_likelihood
}

/// Sparse-kernel attribution: the per-step factors of the same rolling
/// recursion as [`log_likelihood_sparse`]. Each `steps[t]` is the
/// `sum.ln()` term of step `t` — `ln P(o_t | o_0..o_{t-1}, λ)` — and the
/// total accumulates the identical terms in the identical order, so it is
/// bit-identical to `log_likelihood_sparse(hmm, sp, obs)`. This is what a
/// forensic report decomposes an alerted window's score with: the pass the
/// detector ran, re-expressed per observation, not a second scoring model.
pub fn step_scores_sparse(hmm: &Hmm, sp: &SparseTransitions, obs: &[usize]) -> StepScores {
    debug_assert_eq!(hmm.n_states(), sp.n_states());
    let n = hmm.n_states();
    let mut steps = Vec::with_capacity(obs.len());
    if obs.is_empty() {
        return StepScores {
            steps,
            log_likelihood: 0.0,
        };
    }
    let mut prev = vec![0.0; n];
    let mut cur = vec![0.0; n];
    let mut log_likelihood = 0.0f64;

    let mut sum = 0.0;
    let bcol = sp.emission_col(obs[0]);
    for ((p, pi), b) in prev.iter_mut().zip(&hmm.pi).zip(bcol) {
        *p = pi * b;
        sum += *p;
    }
    if sum <= 0.0 {
        steps.push(f64::NEG_INFINITY);
        return StepScores {
            steps,
            log_likelihood: f64::NEG_INFINITY,
        };
    }
    let scale = 1.0 / sum;
    for v in &mut prev {
        *v *= scale;
    }
    let step = sum.ln();
    log_likelihood += step;
    steps.push(step);

    for &symbol in &obs[1..] {
        sp.propagate(&prev, &mut cur);
        let mut sum = 0.0;
        let bcol = sp.emission_col(symbol);
        for (c, b) in cur.iter_mut().zip(bcol) {
            *c *= b;
            sum += *c;
        }
        if sum <= 0.0 {
            steps.push(f64::NEG_INFINITY);
            return StepScores {
                steps,
                log_likelihood: f64::NEG_INFINITY,
            };
        }
        let scale = 1.0 / sum;
        for v in cur.iter_mut() {
            *v *= scale;
        }
        let step = sum.ln();
        log_likelihood += step;
        steps.push(step);
        std::mem::swap(&mut prev, &mut cur);
    }
    StepScores {
        steps,
        log_likelihood,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::log_likelihood;

    fn smoothed(n: usize, m: usize, seed: u64) -> Hmm {
        let mut hmm = Hmm::random(n, m, seed);
        hmm.smooth(1e-4);
        hmm
    }

    /// A structurally sparse smoothed model: banded transitions + floor.
    fn banded(n: usize, m: usize) -> Hmm {
        let mut a = vec![vec![0.0; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            row[(i + 1) % n] = 0.7;
            row[(i + 2) % n] = 0.3;
        }
        let b = vec![vec![1.0 / m as f64; m]; n];
        let pi = vec![1.0 / n as f64; n];
        let mut hmm = Hmm::new(a, b, pi).unwrap();
        hmm.smooth(1e-5);
        hmm
    }

    #[test]
    fn smoothed_rows_share_an_exact_background() {
        // The decomposition's premise: smooth() maps all originally-zero
        // entries of a row to bit-identical values.
        let hmm = banded(16, 4);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let stats = sp.stats();
        assert_eq!(stats.dense_rows, 0);
        assert_eq!(stats.nnz, 16 * 2, "two deviations per banded row");
        assert_eq!(stats.max_fold_deviation, 0.0);
    }

    #[test]
    fn try_from_hmm_accepts_valid_and_matches_unchecked_build() {
        let hmm = smoothed(8, 5, 7);
        let checked = SparseTransitions::try_from_hmm(&hmm, &SparseConfig::default()).unwrap();
        let unchecked = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        assert_eq!(checked.stats(), unchecked.stats());
        assert_eq!(checked.row(3), unchecked.row(3));
    }

    #[test]
    fn try_from_hmm_rejects_poisoned_models() {
        let config = SparseConfig::default();
        // NaN entry.
        let mut hmm = smoothed(6, 4, 1);
        hmm.a_row_mut(2)[3] = f64::NAN;
        assert!(matches!(
            SparseTransitions::try_from_hmm(&hmm, &config),
            Err(crate::HmmError::NotStochastic(_))
        ));
        // Row sum far from 1.
        let mut hmm = smoothed(6, 4, 2);
        hmm.a_row_mut(0)[0] += 0.5;
        assert!(SparseTransitions::try_from_hmm(&hmm, &config).is_err());
        // Negative emission.
        let mut hmm = smoothed(6, 4, 3);
        hmm.b_row_mut(1)[0] = -0.25;
        assert!(SparseTransitions::try_from_hmm(&hmm, &config).is_err());
        // Bad config.
        let hmm = smoothed(6, 4, 4);
        assert!(SparseTransitions::try_from_hmm(
            &hmm,
            &SparseConfig {
                epsilon: f64::NAN,
                max_density: 0.75
            }
        )
        .is_err());
    }

    #[test]
    fn propagate_matches_dense_row_sweep() {
        let hmm = smoothed(8, 5, 3);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let alpha: Vec<f64> = (0..8).map(|i| (i + 1) as f64 / 36.0).collect();
        let mut sparse_out = vec![0.0; 8];
        sp.propagate(&alpha, &mut sparse_out);
        for (j, got) in sparse_out.iter().enumerate() {
            let dense: f64 = (0..8).map(|i| alpha[i] * hmm.a(i, j)).sum();
            assert!((got - dense).abs() < 1e-12);
        }
    }

    #[test]
    fn step_scores_sparse_decompose_the_rolling_score_bitwise() {
        for seed in 0..5 {
            let hmm = smoothed(6, 4, seed);
            let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
            let obs = hmm.sample(60, seed + 300);
            let scores = step_scores_sparse(&hmm, &sp, &obs);
            // Same op sequence: the total is the detector's score, bitwise,
            // and the steps are the very terms it accumulated.
            assert_eq!(
                scores.log_likelihood,
                log_likelihood_sparse(&hmm, &sp, &obs)
            );
            assert_eq!(scores.steps.len(), obs.len());
            let resummed = scores.steps.iter().fold(0.0f64, |acc, s| acc + s);
            assert_eq!(resummed, scores.log_likelihood);
        }
        let hmm = smoothed(4, 3, 9);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let empty = step_scores_sparse(&hmm, &sp, &[]);
        assert_eq!(empty.log_likelihood, 0.0);
        assert!(empty.steps.is_empty());
        assert_eq!(log_likelihood_sparse(&hmm, &sp, &[]), 0.0);
    }

    #[test]
    fn true_zero_rows_have_zero_background() {
        // Unsmoothed structural zeros: the kernel degenerates to plain CSR
        // and stays exact, including the -inf impossible path.
        let hmm = Hmm::new(
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![vec![1.0, 0.0], vec![1.0, 0.0]],
            vec![1.0, 0.0],
        )
        .unwrap();
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        assert_eq!(sp.background(0), 0.0);
        assert_eq!(log_likelihood_sparse(&hmm, &sp, &[0, 1]), f64::NEG_INFINITY);
        assert!(log_likelihood_sparse(&hmm, &sp, &[0, 0]).is_finite());
    }

    #[test]
    fn dense_fallback_rows_stay_exact() {
        // A random (unsmoothed) model has all-distinct rows: every row
        // trips the density threshold and falls back to dense storage.
        let hmm = Hmm::random(6, 4, 11);
        let sp = SparseTransitions::from_hmm(
            &hmm,
            &SparseConfig {
                epsilon: 0.0,
                max_density: 0.3,
            },
        );
        assert_eq!(sp.stats().dense_rows, 6);
        let obs = hmm.sample(30, 5);
        let d = log_likelihood(&hmm, &obs);
        let s = log_likelihood_sparse(&hmm, &sp, &obs);
        assert!((d - s).abs() < 1e-9);
    }

    #[test]
    fn epsilon_folding_bounds_perturbation() {
        let hmm = smoothed(8, 4, 9);
        let eps = 1e-3;
        let sp = SparseTransitions::from_hmm(
            &hmm,
            &SparseConfig {
                epsilon: eps,
                max_density: 1.0,
            },
        );
        assert!(sp.stats().max_fold_deviation <= eps);
        // Rows still sum to 1 under the folded representation: the
        // background applies to all n columns, stored entries add their
        // deviation on top.
        for i in 0..8 {
            let (_, _, devs) = sp.row(i);
            let sum: f64 = devs.iter().sum::<f64>() + sp.background(i) * 8.0;
            assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
        }
    }
}
