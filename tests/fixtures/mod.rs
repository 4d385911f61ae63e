//! Toy-profile fixtures shared by the runtime, service, forensics and
//! overload suites: call events, the three-call ring profile, and random
//! two-app session sets.

use adprom::core::{Alphabet, Profile};
use adprom::hmm::Hmm;
use adprom::lang::{CallSiteId, LibCall};
use adprom::trace::CallEvent;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

pub fn event(name: &str, caller: &str) -> CallEvent {
    CallEvent {
        name: name.into(),
        call: LibCall::Printf,
        caller: caller.into(),
        site: CallSiteId(0),
        detail: None,
    }
}

/// The cyclic a→b→c toy profile, parameterized by app name and threshold
/// so each "application" (and each hot-swap epoch) is distinguishable.
pub fn cyclic_profile(app: &str, threshold: f64) -> Profile {
    ring_profile(app, threshold, [1, 2, 0])
}

/// A three-call ring profile: call `i` is followed by call `next[i]`.
pub fn ring_profile(app: &str, threshold: f64, next: [usize; 3]) -> Profile {
    let alphabet = Alphabet::new(vec!["a".to_string(), "b".to_string(), "c_Q7".to_string()]);
    let m = alphabet.len();
    let mut a = vec![vec![0.001; m]; m];
    for (i, &j) in next.iter().enumerate() {
        a[i][j] = 1.0;
    }
    a[3][3] = 1.0;
    let mut b = vec![vec![0.001; m]; m];
    for (i, row) in b.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    let pi = vec![1.0; m];
    let mut hmm = Hmm::from_rows(a, b, pi);
    hmm.smooth(1e-4);
    let mut call_callers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for name in ["a", "b", "c_Q7"] {
        call_callers
            .entry(name.to_string())
            .or_default()
            .insert("main".to_string());
    }
    Profile {
        app_name: app.into(),
        alphabet,
        hmm,
        window: 3,
        threshold,
        call_callers,
        labeled_outputs: vec!["c_Q7".to_string()],
    }
}

/// One random session trace: 1–11 calls drawn from the alphabet plus an
/// out-of-vocabulary name, some issued by an untrained caller.
fn arb_trace() -> impl Strategy<Value = Vec<CallEvent>> {
    const NAMES: [&str; 4] = ["a", "b", "c_Q7", "evil_exfil"];
    prop::collection::vec((0usize..NAMES.len(), any::<bool>()), 1..12).prop_map(|calls| {
        calls
            .into_iter()
            .map(|(pick, attacker)| {
                let caller = if attacker {
                    "attacker_function"
                } else {
                    "main"
                };
                event(NAMES[pick], caller)
            })
            .collect()
    })
}

/// Random multi-app session sets: `per_app` sessions each for `bank`
/// (ids `b-<i>`) and `shop` (ids `s-<i>`).
pub fn arb_sessions(
    per_app: Range<usize>,
) -> impl Strategy<Value = Vec<(String, String, Vec<CallEvent>)>> {
    (
        prop::collection::vec(arb_trace(), per_app.clone()),
        prop::collection::vec(arb_trace(), per_app),
    )
        .prop_map(|(bank, shop)| {
            let mut sessions = Vec::new();
            for (i, trace) in bank.into_iter().enumerate() {
                sessions.push(("bank".to_string(), format!("b-{i}"), trace));
            }
            for (i, trace) in shop.into_iter().enumerate() {
                sessions.push(("shop".to_string(), format!("s-{i}"), trace));
            }
            sessions
        })
}
