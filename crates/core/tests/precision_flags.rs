//! Property test pinning the precision policy's contract: under
//! `Precision::F32Verified` the Detection Engine raises exactly the same
//! flags as pure f64 — across dense and sparse kernels, window sizes,
//! and thresholds deliberately planted in the middle of the score
//! distribution so windows land inside the guard band.

use adprom_core::{Alphabet, DetectionEngine, KernelConfig, Precision, Profile};
use adprom_hmm::{Hmm, SparseConfig};
use adprom_lang::{CallSiteId, LibCall};
use adprom_trace::CallEvent;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Call-name vocabulary: three plain calls plus a DDG-labeled output, so
/// anomalous windows can upgrade to DataLeak.
const NAMES: [&str; 4] = ["read_rec", "fmt_row", "send_row", "flush_Q3"];

/// Case count: `PROPTEST_CASES` when set (CI runs this suite at 512),
/// else the local default.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn event(name: &str, caller: &str) -> CallEvent {
    CallEvent {
        name: name.into(),
        call: LibCall::Printf,
        caller: caller.into(),
        site: CallSiteId(0),
        detail: None,
    }
}

/// A random smoothed profile over the fixed vocabulary. The threshold is
/// a placeholder; tests re-plant it inside the observed score range.
fn arb_profile() -> impl Strategy<Value = Profile> {
    (2usize..6, any::<u64>(), 1usize..6).prop_map(|(n, seed, window)| {
        let alphabet = Alphabet::new(NAMES.iter().map(|s| s.to_string()));
        let m = alphabet.len();
        let mut hmm = Hmm::random(n, m, seed);
        hmm.smooth(1e-4);
        let mut call_callers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for name in NAMES {
            call_callers
                .entry(name.to_string())
                .or_default()
                .insert("main".to_string());
        }
        Profile {
            app_name: "precision-prop".into(),
            alphabet,
            hmm,
            window,
            threshold: -5.0,
            call_callers,
            labeled_outputs: vec!["flush_Q3".to_string()],
        }
    })
}

/// An event stream mixing in-vocabulary calls, an out-of-vocabulary name,
/// and an out-of-context caller — every flag is reachable.
fn arb_events() -> impl Strategy<Value = Vec<CallEvent>> {
    prop::collection::vec((0usize..6, any::<bool>()), 1..60).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(pick, stranger)| {
                let name = *NAMES.get(pick).unwrap_or(&"evil_exfil");
                let caller = if stranger { "stranger" } else { "main" };
                event(name, caller)
            })
            .collect()
    })
}

/// Median of the f64 engine's window scores, jittered by up to ±0.3 nats:
/// a threshold that parks real windows inside the 0.25-nat guard band.
fn plant_threshold(profile: &Profile, events: &[CallEvent], jitter: f64) -> f64 {
    let engine = DetectionEngine::new(profile)
        .with_kernel(KernelConfig::Sparse {
            sparse: SparseConfig::default(),
        })
        .with_precision(Precision::F64);
    let mut lls: Vec<f64> = engine
        .scan(events)
        .iter()
        .map(|a| a.log_likelihood)
        .filter(|ll| ll.is_finite())
        .collect();
    if lls.is_empty() {
        return -5.0;
    }
    lls.sort_by(|a, b| a.total_cmp(b));
    lls[lls.len() / 2] + jitter
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// f32-verified flags are identical to pure-f64 flags for every
    /// window, on every kernel, with the threshold planted mid-range so
    /// the guard band actually fires.
    #[test]
    fn f32_verified_flags_match_f64(
        profile in arb_profile(),
        events in arb_events(),
        jitter in -0.3f64..0.3,
    ) {
        let mut profile = profile;
        profile.threshold = plant_threshold(&profile, &events, jitter);
        let kernels = [
            KernelConfig::Dense,
            KernelConfig::Sparse { sparse: SparseConfig::default() },
        ];
        for kernel in kernels {
            let exact = DetectionEngine::new(&profile)
                .with_kernel(kernel)
                .with_precision(Precision::F64);
            let fast = DetectionEngine::new(&profile)
                .with_kernel(kernel)
                .with_precision(Precision::f32_verified());
            let exact_alerts = exact.scan(&events);
            let fast_alerts = fast.scan(&events);
            prop_assert_eq!(exact_alerts.len(), fast_alerts.len());
            for (i, (e, f)) in exact_alerts.iter().zip(&fast_alerts).enumerate() {
                prop_assert_eq!(
                    e.flag, f.flag,
                    "kernel {} window {i}: f64 flagged {:?} (ll {}) but \
                     f32-verified flagged {:?} (ll {}) at threshold {}",
                    kernel.label(), e.flag, e.log_likelihood, f.flag,
                    f.log_likelihood, profile.threshold
                );
            }
        }
    }

    /// Any window the f32 path accepts (outside the guard band) scores
    /// within the band of its f64 value, so the accept decision is the
    /// one f64 would have made; rescored windows carry the f64 score
    /// exactly. Together: batch scores through the precision policy never
    /// disagree with f64 about the threshold side.
    #[test]
    fn f32_scores_stay_on_the_f64_side(
        profile in arb_profile(),
        events in arb_events(),
        jitter in -0.3f64..0.3,
    ) {
        let mut profile = profile;
        profile.threshold = plant_threshold(&profile, &events, jitter);
        let sparse = KernelConfig::Sparse { sparse: SparseConfig::default() };
        let exact = DetectionEngine::new(&profile)
            .with_kernel(sparse)
            .with_precision(Precision::F64);
        let fast = DetectionEngine::new(&profile)
            .with_kernel(sparse)
            .with_precision(Precision::f32_verified());
        let band = Precision::DEFAULT_GUARD_BAND;
        for (e, f) in exact.scan(&events).iter().zip(&fast.scan(&events)) {
            let below_exact = e.log_likelihood < profile.threshold;
            let below_fast = f.log_likelihood < profile.threshold;
            prop_assert_eq!(below_exact, below_fast,
                "threshold side flipped: f64 {} vs f32-verified {} at {}",
                e.log_likelihood, f.log_likelihood, profile.threshold);
            if !e.log_likelihood.is_finite() {
                // Dead windows rescore in f64 and carry −∞ on both sides.
                prop_assert_eq!(e.log_likelihood, f.log_likelihood);
                continue;
            }
            prop_assert!((e.log_likelihood - f.log_likelihood).abs() <= band,
                "accepted f32 score {} drifted past the guard band from f64 {}",
                f.log_likelihood, e.log_likelihood);
        }
    }
}
