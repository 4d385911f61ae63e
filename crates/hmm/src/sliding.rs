//! Incremental sliding-window forward scoring.
//!
//! The Detection Engine scores every n-length call window. Recomputing the
//! scaled forward pass per window costs O(n·N²) per event; over a T-event
//! trace that is O(T·n·N²) — the dominant monitoring cost the paper's
//! overhead tables measure. [`SlidingState`] brings the per-event cost to
//! O(N²) — O(nnz + N) through a CSR kernel — by maintaining one running
//! scaled alpha vector and a ring buffer of per-event log contributions.
//!
//! The state owns only the mutable recurrence and takes the model (and
//! the optional kernel) per push. That is what a session-multiplexing
//! runtime needs: thousands of concurrent sessions keep a `SlidingState`
//! each while sharing one `Arc`-held model, with no self-referential
//! borrows.
//!
//! # Recurrence
//!
//! Rabiner's scaled forward pass factors the log-likelihood of a prefix
//! into per-event terms: processing event `t` turns the scaled alpha
//! vector `α̂_{t-1}` into unnormalized `ᾱ_t(j) = Σ_i α̂_{t-1}(i)·a_ij·b_j(o_t)`,
//! and with `c_t = Σ_j ᾱ_t(j)`,
//!
//! ```text
//! log P(o_r..o_e | λ) = Σ_{t=r..e} ln c_t        (chain anchored at r)
//! ```
//!
//! The ring keeps the last `n` values of `ln c_t`; the score of the window
//! ending at `e` is the sum of the ring — by the telescoping identity this
//! equals `log P(o_r..o_e | λ) − log P(o_r..o_{s-1} | λ)` for window start
//! `s`, i.e. the log-probability of the window's events *conditioned on
//! the chain's history* since the anchor `r`. This conditional semantics
//! is what makes O(N²) advancement possible at all: the π-anchored
//! per-window score `log P(o_s..o_e | λ)` depends on `s` through the
//! whole alpha recursion and cannot be maintained by any fixed set of
//! per-event state vectors.
//!
//! # Impossible prefixes
//!
//! When an event has zero probability given the chain (`c_t = 0`), the
//! telescoping chain breaks. [`SlidingState::push`] then performs the
//! exact-recompute fallback: it re-anchors — restarting the chain at the
//! offending event from π exactly as a fresh
//! [`forward()`](crate::forward()) pass would — and records `-inf` as the
//! event's contribution only if the event is impossible even as a
//! sequence start. Any window containing a
//! `-inf` contribution scores `-inf`, matching what a full per-window
//! recompute would report for a window containing an impossible event.
//! Models smoothed with [`crate::Hmm::smooth`] (as AD-PROM profiles are)
//! never hit this path; the anchor then stays at event 0 forever.

use crate::model::Hmm;
use crate::sparse::SparseTransitions;

/// Accounting for one sliding scorer's lifetime — the observability
/// hook the monitor surfaces as `sliding.reanchors` / `sliding.pushes`
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlidingStats {
    /// Events pushed since construction (or the last [`SlidingState::reset`]).
    pub pushes: u64,
    /// Exact-recompute fallbacks taken: the chain hit a zero-probability
    /// prefix and restarted from π. The initial anchoring of a fresh (or
    /// reset) scorer does not count — smoothed models report 0 forever.
    pub reanchors: u64,
}

/// Incremental scaled-forward scorer over a sliding window.
///
/// Feed events one at a time with [`push`](SlidingState::push); after
/// each push, [`score`](SlidingState::score) is the log-likelihood of the
/// current window (the last ≤ `window` events) under the conditional
/// semantics documented at the module level. The state holds no
/// reference to the model: `push` takes it, and the optional CSR kernel,
/// per call.
///
/// Clone-able and `'static`, so a monitoring runtime can keep one per
/// live session, advance each independently, and snapshot/restore a
/// session by cloning (the retry path of a crash-isolated worker).
#[derive(Debug, Clone)]
pub struct SlidingState {
    window: usize,
    /// Scaled alpha after the most recent event (empty before any event or
    /// right after a dead re-anchor).
    alpha: Vec<f64>,
    scratch: Vec<f64>,
    /// Ring of per-event `ln c_t` contributions; slot `t % window` holds
    /// event `t`'s term.
    ring: Vec<f64>,
    /// Events pushed so far.
    seen: usize,
    /// Absolute index of the event the current chain is anchored at.
    anchor: usize,
    /// True while the chain has no live alpha (before the first event, or
    /// after an event that was impossible even from π).
    dead: bool,
    /// Lifetime accounting (pushes, re-anchor fallbacks).
    stats: SlidingStats,
}

impl SlidingState {
    /// Creates state for `window`-length windows over an `n_states`-state
    /// model. Panics if `window` is 0.
    pub fn new(n_states: usize, window: usize) -> SlidingState {
        assert!(window > 0, "window length must be positive");
        SlidingState {
            window,
            alpha: vec![0.0; n_states],
            scratch: vec![0.0; n_states],
            ring: Vec::with_capacity(window),
            seen: 0,
            anchor: 0,
            dead: true,
            stats: SlidingStats::default(),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of events pushed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Absolute index of the event the current forward chain starts at.
    /// Stays 0 for smoothed (zero-free) models; advances only through the
    /// impossible-prefix fallback.
    pub fn anchor(&self) -> usize {
        self.anchor
    }

    /// Lifetime accounting: events pushed and re-anchor (exact-recompute)
    /// fallbacks taken. Smoothed models never re-anchor, so
    /// `stats().reanchors` stays 0 on the production profile path.
    pub fn stats(&self) -> SlidingStats {
        self.stats
    }

    /// Advances the window by one event and returns the score of the
    /// window now ending at this event — equal to
    /// [`score`](SlidingState::score). With a `kernel` the propagation
    /// step runs through the CSR decomposition (O(nnz + N) instead of
    /// O(N²)); built at `epsilon = 0` it matches the dense path to FP
    /// reassociation. `hmm` (and `kernel`, when one is used) must be the
    /// same model on every push — the state is just the recurrence, it
    /// holds no reference to check against.
    pub fn push(&mut self, hmm: &Hmm, kernel: Option<&SparseTransitions>, symbol: usize) -> f64 {
        debug_assert_eq!(self.alpha.len(), hmm.n_states(), "state sized for model");
        let mut c = 0.0;
        if !self.dead {
            // One forward step from the running alpha: either the CSR
            // kernel's background-broadcast + deviation-scatter, or the
            // dense register-blocked step every dense recursion shares.
            match kernel {
                Some(sp) => sp.propagate(&self.alpha, &mut self.scratch),
                None => crate::forward::dense_step(hmm, &self.alpha, &mut self.scratch),
            }
            for (j, acc) in self.scratch.iter_mut().enumerate() {
                *acc *= hmm.b(j, symbol);
                c += *acc;
            }
        }
        if self.dead || c <= 0.0 {
            // Exact-recompute fallback: restart the chain at this event
            // from π, exactly as a fresh forward pass over obs[t..] would.
            // Every restart except the initial anchoring is a re-anchor.
            if self.seen > 0 {
                self.stats.reanchors += 1;
            }
            c = 0.0;
            for (j, acc) in self.scratch.iter_mut().enumerate() {
                *acc = hmm.pi[j] * hmm.b(j, symbol);
                c += *acc;
            }
            self.anchor = self.seen;
            self.dead = c <= 0.0;
        }
        let contribution = if c > 0.0 {
            let inv = 1.0 / c;
            for (dst, &src) in self.alpha.iter_mut().zip(self.scratch.iter()) {
                *dst = src * inv;
            }
            c.ln()
        } else {
            // Impossible even as a sequence start: symbol unreachable from
            // π. The next event re-anchors again.
            f64::NEG_INFINITY
        };
        if self.ring.len() < self.window {
            self.ring.push(contribution);
        } else {
            self.ring[self.seen % self.window] = contribution;
        }
        self.seen += 1;
        self.stats.pushes += 1;
        self.score()
    }

    /// Log-likelihood of the current window: the sum of the retained
    /// per-event contributions (the last `min(seen, window)` events).
    /// Returns 0.0 before any event — matching `forward(hmm, &[])`.
    pub fn score(&self) -> f64 {
        self.ring.iter().sum()
    }

    /// Clears all state, ready for a new trace.
    pub fn reset(&mut self) {
        self.alpha.iter_mut().for_each(|v| *v = 0.0);
        self.ring.clear();
        self.seen = 0;
        self.anchor = 0;
        self.dead = true;
        self.stats = SlidingStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::{forward, log_likelihood};
    use crate::sparse::SparseConfig;

    fn smoothed(n: usize, m: usize, seed: u64) -> Hmm {
        let mut hmm = Hmm::random(n, m, seed);
        hmm.smooth(1e-4);
        hmm
    }

    #[test]
    fn matches_prefix_difference_identity() {
        let hmm = smoothed(4, 5, 3);
        let obs = hmm.sample(200, 9);
        let window = 15;
        let mut sliding = SlidingState::new(hmm.n_states(), window);
        for (t, &symbol) in obs.iter().enumerate() {
            let score = sliding.push(&hmm, None, symbol);
            assert_eq!(sliding.anchor(), 0, "smoothed model never re-anchors");
            let start = (t + 1).saturating_sub(window);
            let expected = log_likelihood(&hmm, &obs[..=t]) - log_likelihood(&hmm, &obs[..start]);
            assert!(
                (score - expected).abs() < 1e-9,
                "t={t}: incremental {score} vs prefix-difference {expected}"
            );
        }
    }

    #[test]
    fn short_window_equals_full_forward() {
        // Until the first window fills, the score IS the π-anchored full
        // forward log-likelihood of everything seen.
        let hmm = smoothed(3, 4, 7);
        let obs = hmm.sample(10, 2);
        let mut sliding = SlidingState::new(hmm.n_states(), 15);
        for (t, &symbol) in obs.iter().enumerate() {
            let score = sliding.push(&hmm, None, symbol);
            let exact = forward(&hmm, &obs[..=t]).log_likelihood;
            assert!((score - exact).abs() < 1e-9, "t={t}: {score} vs {exact}");
        }
    }

    #[test]
    fn impossible_event_reanchors_deterministically() {
        // State/symbol structure where symbol 2 is unreachable after
        // symbol 0 but fine from π.
        let hmm = Hmm::new(
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![vec![1.0, 0.0, 0.0], vec![0.0, 0.5, 0.5]],
            vec![0.5, 0.5],
        )
        .unwrap();
        let mut sliding = SlidingState::new(hmm.n_states(), 4);
        sliding.push(&hmm, None, 0); // chain in state 0
        assert_eq!(sliding.anchor(), 0);
        let score = sliding.push(&hmm, None, 2); // impossible after 0 → re-anchor from π
        assert_eq!(sliding.anchor(), 1);
        assert_eq!(sliding.stats().reanchors, 1);
        assert_eq!(sliding.stats().pushes, 2);
        assert!(
            score.is_finite(),
            "re-anchored window stays finite: {score}"
        );
        // The re-anchored contribution equals a fresh forward start.
        let fresh = forward(&hmm, &[2]).log_likelihood;
        let window_sum = forward(&hmm, &[0]).log_likelihood + fresh;
        assert!((score - window_sum).abs() < 1e-12);
    }

    #[test]
    fn symbol_impossible_from_pi_scores_neg_infinity() {
        let hmm = Hmm::new(
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![vec![1.0, 0.0], vec![1.0, 0.0]], // symbol 1 never emitted
            vec![1.0, 0.0],
        )
        .unwrap();
        let mut sliding = SlidingState::new(hmm.n_states(), 3);
        sliding.push(&hmm, None, 0);
        assert_eq!(sliding.push(&hmm, None, 1), f64::NEG_INFINITY);
        // The dead event ages out of the window after 3 more pushes.
        sliding.push(&hmm, None, 0);
        assert_eq!(sliding.score(), f64::NEG_INFINITY);
        sliding.push(&hmm, None, 0);
        assert_eq!(sliding.score(), f64::NEG_INFINITY);
        sliding.push(&hmm, None, 0);
        assert!(sliding.score().is_finite());
    }

    #[test]
    fn kernel_push_stream_matches_dense() {
        let hmm = smoothed(6, 5, 12);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let obs = hmm.sample(120, 4);
        let mut dense = SlidingState::new(hmm.n_states(), 15);
        let mut sparse = SlidingState::new(hmm.n_states(), 15);
        for &s in &obs {
            let d = dense.push(&hmm, None, s);
            let k = sparse.push(&hmm, Some(&sp), s);
            assert!((d - k).abs() < 1e-9, "{d} vs {k}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let hmm = smoothed(3, 4, 8);
        let obs = hmm.sample(30, 6);
        let mut sliding = SlidingState::new(hmm.n_states(), 5);
        let first: Vec<f64> = obs.iter().map(|&s| sliding.push(&hmm, None, s)).collect();
        sliding.reset();
        assert_eq!(sliding.seen(), 0);
        assert_eq!(sliding.score(), 0.0);
        assert_eq!(sliding.stats(), SlidingStats::default());
        let second: Vec<f64> = obs.iter().map(|&s| sliding.push(&hmm, None, s)).collect();
        assert_eq!(first, second, "push streams are deterministic");
    }

    #[test]
    fn interleaved_states_match_dedicated_ones() {
        // States share nothing but the model: interleaving pushes of two
        // states gives each session exactly the stream it scores alone.
        let hmm = smoothed(5, 6, 17);
        let sp = SparseTransitions::from_hmm(&hmm, &SparseConfig::default());
        let obs_a = hmm.sample(60, 1);
        let obs_b = hmm.sample(60, 2);
        let mut alone_a = SlidingState::new(hmm.n_states(), 7);
        let alone: Vec<f64> = obs_a
            .iter()
            .map(|&a| alone_a.push(&hmm, Some(&sp), a))
            .collect();
        let mut state_a = SlidingState::new(hmm.n_states(), 7);
        let mut state_b = SlidingState::new(hmm.n_states(), 7);
        for ((&a, &b), want) in obs_a.iter().zip(&obs_b).zip(&alone) {
            // Interleaved: a, b, a, b … against the two owned states.
            let sa = state_a.push(&hmm, Some(&sp), a);
            state_b.push(&hmm, None, b);
            assert_eq!(sa.to_bits(), want.to_bits());
        }
        assert_eq!(state_a.stats(), alone_a.stats());
    }
}
