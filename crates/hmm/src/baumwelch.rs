//! The learning problem: multi-sequence Baum–Welch re-estimation with
//! held-out convergence (§IV-C4, §V-B).
//!
//! AD-PROM trains the statically-initialized model on program traces and
//! stops when the likelihood of a held-out *converge sub-dataset* (CSDS)
//! stops improving — "the system stops the training with a converged model
//! (λ) once it does not notice any improvement on the CSDS".

use crate::forward::{backward, forward, ForwardPass};
use crate::model::{normalize, Hmm};
use rayon::prelude::*;

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Minimum improvement in mean held-out log-likelihood per iteration.
    pub min_improvement: f64,
    /// Additive smoothing floor applied after every re-estimation.
    pub smoothing: f64,
    /// Dirichlet pseudo-count mass (per row) anchoring re-estimation to the
    /// *initial* model — MAP EM. For AD-PROM this is how the statically
    /// computed pCTM keeps feasible-but-untrained paths alive: Baum–Welch
    /// alone starves every transition the finite trace set missed, which is
    /// exactly the false-positive failure mode the paper attributes to
    /// purely learning-based models (§I). Zero disables the prior
    /// (Rand-HMM trains with zero: it has no informed prior to keep).
    pub prior_weight: f64,
    /// Fan the E-step out over traces with rayon. Each trace produces its
    /// own sufficient statistics which are folded in input order, so the
    /// result is bit-identical to the serial path regardless of thread
    /// count (see `fold_sequence_stats`).
    pub parallel: bool,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            max_iterations: 50,
            min_improvement: 1e-4,
            smoothing: 1e-6,
            prior_weight: 2.0,
            parallel: true,
        }
    }
}

/// Training report.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Iterations actually run.
    pub iterations: usize,
    /// Mean held-out log-likelihood after each iteration.
    pub holdout_curve: Vec<f64>,
    /// True if training stopped because the CSDS score converged (as
    /// opposed to hitting the iteration cap).
    pub converged: bool,
}

/// Trains `hmm` in place on `train` sequences, using `holdout` (the CSDS)
/// to decide when to stop. Empty sequences are ignored.
pub fn train(
    hmm: &mut Hmm,
    train: &[Vec<usize>],
    holdout: &[Vec<usize>],
    config: &TrainConfig,
) -> TrainReport {
    let prior = if config.prior_weight > 0.0 {
        Some((hmm.clone(), config.prior_weight))
    } else {
        None
    };
    let mut best_score = mean_log_likelihood(hmm, holdout);
    let mut best_model = hmm.clone();
    let mut curve = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    for _ in 0..config.max_iterations {
        iterations += 1;
        reestimate_with_config(hmm, train, prior.as_ref().map(|(p, w)| (p, *w)), config);
        let score = mean_log_likelihood(hmm, holdout);
        curve.push(score);
        if score > best_score + config.min_improvement {
            best_score = score;
            best_model = hmm.clone();
        } else {
            // No improvement on the CSDS: keep the best model and stop.
            *hmm = best_model.clone();
            converged = true;
            break;
        }
    }
    if !converged {
        // Iteration cap: keep whichever model scored best.
        if mean_log_likelihood(hmm, holdout) < best_score {
            *hmm = best_model;
        }
    }
    TrainReport {
        iterations,
        holdout_curve: curve,
        converged,
    }
}

/// Mean per-sequence log-likelihood over a set (`-inf`-safe: impossible
/// sequences contribute a large negative penalty instead of poisoning the
/// mean).
pub fn mean_log_likelihood(hmm: &Hmm, seqs: &[Vec<usize>]) -> f64 {
    if seqs.is_empty() {
        return 0.0;
    }
    let penalty = -1e6;
    let total: f64 = seqs
        .iter()
        .map(|s| {
            let ll = crate::forward::log_likelihood(hmm, s);
            if ll.is_finite() {
                ll
            } else {
                penalty
            }
        })
        .sum();
    total / seqs.len() as f64
}

/// One Baum–Welch re-estimation step over all sequences.
pub fn reestimate(hmm: &mut Hmm, seqs: &[Vec<usize>], smoothing: f64) {
    reestimate_with_prior(hmm, seqs, smoothing, None);
}

/// One MAP-EM re-estimation step: expected counts plus `weight`
/// pseudo-counts per row distributed according to `prior`. Serial —
/// equivalent to [`reestimate_with_config`] with `parallel` off.
pub fn reestimate_with_prior(
    hmm: &mut Hmm,
    seqs: &[Vec<usize>],
    smoothing: f64,
    prior: Option<(&Hmm, f64)>,
) {
    let config = TrainConfig {
        smoothing,
        parallel: false,
        ..TrainConfig::default()
    };
    reestimate_with_config(hmm, seqs, prior, &config);
}

/// Per-sequence E-step sufficient statistics, flat row-major. One trace's
/// expected counts are computed independently of every other trace — the
/// unit of work the parallel E-step fans out.
struct SequenceStats {
    /// Expected transition counts, `a_num[i*n + j]`.
    a_num: Vec<f64>,
    /// Transition denominators `Σ_{t<T} γ_t(i)`.
    a_den: Vec<f64>,
    /// Expected emission counts, `b_num[i*m + k]`.
    b_num: Vec<f64>,
    /// Emission denominators `Σ_t γ_t(i)`.
    b_den: Vec<f64>,
    /// `γ_0(i)` — the π accumulator contribution.
    pi_acc: Vec<f64>,
}

impl SequenceStats {
    fn zeros(n: usize, m: usize) -> SequenceStats {
        SequenceStats {
            a_num: vec![0.0; n * n],
            a_den: vec![0.0; n],
            b_num: vec![0.0; n * m],
            b_den: vec![0.0; n],
            pi_acc: vec![0.0; n],
        }
    }

    /// Element-wise accumulate. Folding per-sequence statistics into the
    /// global accumulator strictly in input order gives one fixed FP
    /// summation grouping — the serial and parallel E-steps share it, so
    /// their trained models are bit-identical by construction.
    fn fold(&mut self, other: &SequenceStats) {
        let add = |dst: &mut [f64], src: &[f64]| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        };
        add(&mut self.a_num, &other.a_num);
        add(&mut self.a_den, &other.a_den);
        add(&mut self.b_num, &other.b_num);
        add(&mut self.b_den, &other.b_den);
        add(&mut self.pi_acc, &other.pi_acc);
    }
}

/// Caps how many per-sequence statistics blocks are materialized at once
/// (each is O(N²) memory). Identical for the serial and parallel paths so
/// the fold grouping — and therefore the trained model — never depends on
/// the execution mode.
const ESTEP_BATCH: usize = 32;

/// Expected counts for one trace under the current model, or `None` if the
/// trace is empty or impossible (smoothing at the end of the step
/// gradually opens such paths).
fn sequence_stats(hmm: &Hmm, obs: &[usize]) -> Option<SequenceStats> {
    let n = hmm.n_states();
    let m = hmm.n_symbols();
    let t_len = obs.len();
    if t_len == 0 {
        return None;
    }
    let fp: ForwardPass = forward(hmm, obs);
    if !fp.log_likelihood.is_finite() {
        return None;
    }
    let beta = backward(hmm, obs, &fp.scale);
    let mut stats = SequenceStats::zeros(n, m);

    // gamma_t(i) ∝ alpha_t(i) * beta_t(i); with Rabiner scaling the
    // product needs dividing by c_t to be the true posterior.
    let mut gamma = vec![0.0f64; n];
    for t in 0..t_len {
        for (i, g) in gamma.iter_mut().enumerate() {
            *g = fp.alpha[t][i] * beta[t][i];
        }
        normalize(&mut gamma);
        if t == 0 {
            stats.pi_acc.copy_from_slice(&gamma);
        }
        for (i, &g) in gamma.iter().enumerate() {
            stats.b_num[i * m + obs[t]] += g;
            stats.b_den[i] += g;
            if t + 1 < t_len {
                stats.a_den[i] += g;
            }
        }
    }

    // xi_t(i,j) ∝ alpha_t(i) a_ij b_j(o_{t+1}) beta_{t+1}(j).
    // Two passes per t — normalizer, then scatter straight into the
    // accumulator — so no N×N buffer is materialized per step.
    let mut bb = vec![0.0f64; n];
    for t in 0..t_len.saturating_sub(1) {
        let next = obs[t + 1];
        for (j, b) in bb.iter_mut().enumerate() {
            *b = hmm.b(j, next) * beta[t + 1][j];
        }
        let mut total = 0.0;
        for (i, &ai) in fp.alpha[t].iter().enumerate() {
            if ai == 0.0 {
                continue;
            }
            let row = hmm.a_row(i);
            let mut acc = 0.0;
            for (a_ij, b_beta) in row.iter().zip(&bb) {
                acc += a_ij * b_beta;
            }
            total += ai * acc;
        }
        if total > 0.0 {
            let inv = 1.0 / total;
            for (i, &alpha_i) in fp.alpha[t].iter().enumerate() {
                let ai = alpha_i * inv;
                if ai == 0.0 {
                    continue;
                }
                let row = hmm.a_row(i);
                let out = &mut stats.a_num[i * n..(i + 1) * n];
                for ((o, &a_ij), &bbj) in out.iter_mut().zip(row).zip(&bb) {
                    *o += ai * a_ij * bbj;
                }
            }
        }
    }
    Some(stats)
}

/// One MAP-EM re-estimation step honoring the config's `parallel`
/// switch. The parallel path is bit-identical to the serial path
/// (per-trace statistics folded in input order, same batching).
pub fn reestimate_with_config(
    hmm: &mut Hmm,
    seqs: &[Vec<usize>],
    prior: Option<(&Hmm, f64)>,
    config: &TrainConfig,
) {
    let n = hmm.n_states();
    let m = hmm.n_symbols();
    let smoothing = config.smoothing;

    let mut acc = SequenceStats::zeros(n, m);
    let mut used_sequences = 0usize;

    if let Some((p, w)) = prior {
        debug_assert_eq!(p.n_states(), n);
        debug_assert_eq!(p.n_symbols(), m);
        for i in 0..n {
            for (a, &prior_a) in acc.a_num[i * n..(i + 1) * n].iter_mut().zip(p.a_row(i)) {
                *a += w * prior_a;
            }
            acc.a_den[i] += w;
            for (b, &prior_b) in acc.b_num[i * m..(i + 1) * m].iter_mut().zip(p.b_row(i)) {
                *b += w * prior_b;
            }
            acc.b_den[i] += w;
            // π pseudo-counts are folded in after the division by
            // used_sequences, so scale them as one extra pseudo-sequence.
        }
    }

    for batch in seqs.chunks(ESTEP_BATCH) {
        let locals: Vec<Option<SequenceStats>> = if config.parallel {
            batch
                .par_iter()
                .map(|obs| sequence_stats(hmm, obs))
                .collect()
        } else {
            batch.iter().map(|obs| sequence_stats(hmm, obs)).collect()
        };
        for stats in locals.into_iter().flatten() {
            used_sequences += 1;
            acc.fold(&stats);
        }
    }

    if used_sequences == 0 {
        // Nothing usable: just smooth to open up the model.
        hmm.smooth(smoothing.max(1e-6));
        return;
    }

    for i in 0..n {
        if acc.a_den[i] > 0.0 {
            let inv = 1.0 / acc.a_den[i];
            for (dst, &num) in hmm
                .a_row_mut(i)
                .iter_mut()
                .zip(&acc.a_num[i * n..(i + 1) * n])
            {
                *dst = num * inv;
            }
        }
        if acc.b_den[i] > 0.0 {
            let inv = 1.0 / acc.b_den[i];
            for (dst, &num) in hmm
                .b_row_mut(i)
                .iter_mut()
                .zip(&acc.b_num[i * m..(i + 1) * m])
            {
                *dst = num * inv;
            }
        }
        let (pi_num, pi_den) = match prior {
            Some((p, w)) => (acc.pi_acc[i] + w * p.pi[i], used_sequences as f64 + w),
            None => (acc.pi_acc[i], used_sequences as f64),
        };
        hmm.pi[i] = pi_num / pi_den;
    }
    hmm.smooth(smoothing);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generating model for synthetic data.
    fn teacher() -> Hmm {
        Hmm::new(
            vec![vec![0.85, 0.15], vec![0.25, 0.75]],
            vec![vec![0.8, 0.15, 0.05], vec![0.05, 0.2, 0.75]],
            vec![0.7, 0.3],
        )
        .unwrap()
    }

    fn dataset(n: usize, len: usize, seed: u64) -> Vec<Vec<usize>> {
        let t = teacher();
        (0..n).map(|i| t.sample(len, seed + i as u64)).collect()
    }

    #[test]
    fn training_improves_heldout_likelihood() {
        let train_set = dataset(60, 40, 100);
        let holdout = dataset(15, 40, 900);
        let mut hmm = Hmm::random(2, 3, 7);
        let before = mean_log_likelihood(&hmm, &holdout);
        let report = train(&mut hmm, &train_set, &holdout, &TrainConfig::default());
        let after = mean_log_likelihood(&hmm, &holdout);
        assert!(after > before, "{after} <= {before}");
        assert!(report.iterations >= 1);
    }

    #[test]
    fn converges_and_stops_before_cap() {
        let train_set = dataset(40, 30, 5);
        let holdout = dataset(10, 30, 77);
        let mut hmm = Hmm::random(2, 3, 9);
        let report = train(
            &mut hmm,
            &train_set,
            &holdout,
            &TrainConfig {
                max_iterations: 200,
                ..TrainConfig::default()
            },
        );
        assert!(report.converged, "should converge well before 200 iters");
        assert!(report.iterations < 200);
    }

    #[test]
    fn reestimation_keeps_model_stochastic() {
        let train_set = dataset(10, 20, 42);
        let mut hmm = Hmm::random(3, 3, 21);
        reestimate(&mut hmm, &train_set, 1e-6);
        hmm.validate().unwrap();
    }

    #[test]
    fn trained_model_separates_anomalies() {
        // Train on teacher output; score teacher sequences vs uniform noise.
        let train_set = dataset(80, 25, 1000);
        let holdout = dataset(20, 25, 2000);
        let mut hmm = Hmm::random(2, 3, 3);
        train(&mut hmm, &train_set, &holdout, &TrainConfig::default());

        let normal = dataset(20, 25, 3000);
        let normal_score = mean_log_likelihood(&hmm, &normal);
        // Anomalous: symbol 1 is rare in *both* teacher states (0.15/0.2),
        // so an all-1 run is far less likely than any teacher sample.
        let anomalies: Vec<Vec<usize>> = (0..20).map(|_| vec![1; 25]).collect();
        let anom_score = mean_log_likelihood(&hmm, &anomalies);
        assert!(
            normal_score > anom_score + 1.0,
            "normal {normal_score} vs anomalous {anom_score}"
        );
    }

    #[test]
    fn parallel_estep_is_bit_identical_to_serial() {
        let train_set = dataset(70, 30, 400);
        let prior = {
            let mut h = Hmm::random(3, 3, 55);
            h.smooth(1e-4);
            h
        };
        let mut serial = prior.clone();
        let mut parallel = prior.clone();
        let base = TrainConfig::default();
        reestimate_with_config(
            &mut serial,
            &train_set,
            Some((&prior, 2.0)),
            &TrainConfig {
                parallel: false,
                ..base
            },
        );
        reestimate_with_config(
            &mut parallel,
            &train_set,
            Some((&prior, 2.0)),
            &TrainConfig {
                parallel: true,
                ..base
            },
        );
        // Bit-identical, not just close: same fold order by construction.
        assert_eq!(
            serial.a_rows().collect::<Vec<_>>(),
            parallel.a_rows().collect::<Vec<_>>()
        );
        assert_eq!(
            serial.b_rows().collect::<Vec<_>>(),
            parallel.b_rows().collect::<Vec<_>>()
        );
        assert_eq!(serial.pi, parallel.pi);
    }

    #[test]
    fn parallel_train_is_bit_identical_to_serial() {
        let train_set = dataset(40, 25, 77);
        let holdout = dataset(10, 25, 177);
        let mut init = Hmm::random(2, 3, 5);
        init.smooth(1e-4);
        let mut serial = init.clone();
        let mut parallel = init.clone();
        let base = TrainConfig {
            max_iterations: 5,
            ..TrainConfig::default()
        };
        train(
            &mut serial,
            &train_set,
            &holdout,
            &TrainConfig {
                parallel: false,
                ..base
            },
        );
        train(
            &mut parallel,
            &train_set,
            &holdout,
            &TrainConfig {
                parallel: true,
                ..base
            },
        );
        assert_eq!(
            serial.a_rows().collect::<Vec<_>>(),
            parallel.a_rows().collect::<Vec<_>>()
        );
        assert_eq!(
            serial.b_rows().collect::<Vec<_>>(),
            parallel.b_rows().collect::<Vec<_>>()
        );
        assert_eq!(serial.pi, parallel.pi);
    }

    #[test]
    fn empty_training_set_is_safe() {
        let mut hmm = Hmm::random(2, 2, 1);
        let report = train(&mut hmm, &[], &[], &TrainConfig::default());
        assert!(report.iterations <= TrainConfig::default().max_iterations);
        hmm.validate().unwrap();
    }
}
