//! Property-based tests over the core invariants, driven by proptest.

mod oracle;

use adprom::analysis::{analyze, CallLabel};
use adprom::core::{
    strip_label, Alphabet, FaultPlan, KernelConfig, OverloadConfig, Profile, ScoringMode,
};
use adprom::db::{Database, Value};
use adprom::hmm::{log_likelihood, Hmm, SparseConfig};
use adprom::lang::{parse_program, pretty_program, CallSiteId, LibCall};
use adprom::trace::{sliding_windows, CallEvent, TaggedCall};
use adprom::workloads::sir::{generate_program, SirSpec};
use oracle::Sweep;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_spec() -> impl Strategy<Value = SirSpec> {
    (1usize..6, 1usize..5, 0usize..4, 0.0f64..1.0, any::<u64>()).prop_map(
        |(funcs, labeled, plain, branch, seed)| SirSpec {
            name: "prop".into(),
            n_functions: funcs,
            labeled_sites_per_function: labeled,
            plain_calls_per_function: plain,
            branch_prob: branch,
            seed,
            test_cases: 0,
            inputs_per_case: 0,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three pCTM properties the paper states (§IV-C3) hold for every
    /// generated program: ε row sums to 1, ε′ column sums to 1, and flow is
    /// conserved at every call.
    #[test]
    fn pctm_invariants_hold_for_generated_programs(spec in arb_spec()) {
        let prog = generate_program(&spec);
        let analysis = analyze(&prog);
        let pctm = &analysis.pctm;
        prop_assert!((pctm.entry_row_sum() - 1.0).abs() < 1e-6,
            "entry row sum {}", pctm.entry_row_sum());
        prop_assert!((pctm.exit_col_sum() - 1.0).abs() < 1e-6,
            "exit col sum {}", pctm.exit_col_sum());
        for label in pctm.labels().to_vec() {
            if !label.is_virtual() {
                prop_assert!(pctm.flow_imbalance(&label) < 1e-6,
                    "imbalance at {label}");
            }
        }
        // Aggregation removed every user label.
        prop_assert!(pctm.user_labels().is_empty());
    }

    /// Pretty-printing is a fixpoint: parse(pretty(p)) pretty-prints
    /// identically.
    #[test]
    fn pretty_print_round_trips(spec in arb_spec()) {
        let prog = generate_program(&spec);
        let text = pretty_program(&prog);
        let reparsed = parse_program(&text).expect("generated programs re-parse");
        prop_assert_eq!(pretty_program(&reparsed), text);
    }

    /// All sliding windows have length min(n, len) and cover the trace.
    #[test]
    fn sliding_windows_cover(names in prop::collection::vec("[a-z]{1,6}", 0..80),
                             n in 1usize..20) {
        let names: Vec<String> = names;
        let windows = sliding_windows(&names, n);
        if names.is_empty() {
            prop_assert!(windows.is_empty());
        } else if names.len() <= n {
            prop_assert_eq!(windows.len(), 1);
            prop_assert_eq!(&windows[0], &names);
        } else {
            prop_assert_eq!(windows.len(), names.len() - n + 1);
            prop_assert!(windows.iter().all(|w| w.len() == n));
            // First and last elements covered.
            prop_assert_eq!(&windows[0][0], &names[0]);
            prop_assert_eq!(
                windows.last().unwrap().last().unwrap(),
                names.last().unwrap()
            );
        }
    }

    /// Alphabet encoding round-trips for in-vocabulary labels and maps
    /// everything else to <unk>.
    #[test]
    fn alphabet_encode_decode(labels in prop::collection::vec("[a-zA-Z_]{1,10}", 1..30),
                              probe in "[a-zA-Z_]{1,10}") {
        let alphabet = Alphabet::new(labels.clone());
        for l in &labels {
            prop_assert_eq!(alphabet.decode(alphabet.encode(l)), l.as_str());
        }
        let id = alphabet.encode(&probe);
        if labels.contains(&probe) {
            prop_assert!(id < alphabet.unknown());
        } else {
            prop_assert_eq!(id, alphabet.unknown());
        }
    }

    /// strip_label removes exactly the `_Q<digits>` decoration.
    #[test]
    fn strip_label_is_idempotent(base in "[a-z]{1,8}", bid in 0u32..10000) {
        let labeled = format!("{base}_Q{bid}");
        prop_assert_eq!(strip_label(&labeled), base.as_str());
        prop_assert_eq!(strip_label(strip_label(&labeled)), base.as_str());
        prop_assert_eq!(strip_label(&base), base.as_str());
    }

    /// Random (seeded) HMMs are valid and forward log-likelihoods of valid
    /// sequences are finite and ≤ 0 in expectation terms.
    #[test]
    fn random_hmm_scores_are_finite(n in 1usize..8, m in 1usize..8,
                                    seed in any::<u64>(), len in 1usize..40) {
        let hmm = Hmm::random(n, m, seed);
        hmm.validate().expect("stochastic");
        let obs = hmm.sample(len, seed ^ 0x5EED);
        let ll = log_likelihood(&hmm, &obs);
        prop_assert!(ll.is_finite());
        prop_assert!(ll <= 1e-9, "log-likelihood {ll} must be non-positive");
    }

    /// LIKE pattern matching agrees with a regex-free oracle on simple
    /// wildcardless patterns, and `%` always matches when pattern == "%".
    #[test]
    fn sql_like_semantics(text in "[a-c]{0,8}") {
        let mut db = Database::new("p");
        db.execute("CREATE TABLE t (s TEXT)").unwrap();
        db.execute_with_params("INSERT INTO t VALUES ($1)", &[Value::Text(text.as_str().into())])
            .unwrap();
        // Exact pattern ⇔ equality.
        let r = db
            .execute_with_params("SELECT COUNT(*) FROM t WHERE s LIKE $1",
                                 &[Value::Text(text.as_str().into())])
            .unwrap();
        assert_eq!(r.rows().unwrap().get_value(0, 0).unwrap(), "1");
        // Universal pattern.
        let r = db
            .execute("SELECT COUNT(*) FROM t WHERE s LIKE '%'")
            .unwrap();
        assert_eq!(r.rows().unwrap().get_value(0, 0).unwrap(), "1");
    }

    /// A batch of traces fed to the monitor runtime one session per trace
    /// (replayed in one flush at `finish`), through the verdict oracle:
    /// for arbitrary batches against arbitrary random-HMM profiles —
    /// windows of 1–6, a drawn threshold, out-of-vocabulary and labeled
    /// names — every session's alerts are byte-identical (exact
    /// floating-point scores included) to a serial scan of its trace, in
    /// both scoring modes, which score the same windows. Through a
    /// sparse-kernel registry (ε = 0) every window keeps its dense flag.
    /// An empty trace opens no session and gets no report.
    #[test]
    fn runtime_batch_matches_serial_engine(
        seed in any::<u64>(),
        window in 1usize..=6,
        threshold in -60.0f64..0.0,
        traces in prop::collection::vec(prop::collection::vec(0usize..6, 0..30), 0..12),
    ) {
        // Two names are outside the profile alphabet (score via <unk>),
        // two carry data-flow labels (exercise the DataLeak upgrade).
        let names = ["a", "b", "c_Q7", "d", "evil", "x_Q2"];
        let alphabet = Alphabet::new(vec![
            "a".to_string(), "b".to_string(), "c_Q7".to_string(), "d".to_string(),
        ]);
        let mut hmm = Hmm::random(alphabet.len(), alphabet.len(), seed);
        hmm.smooth(1e-4);
        let profile = Profile {
            app_name: "prop".into(),
            alphabet,
            hmm,
            window,
            threshold,
            call_callers: BTreeMap::new(),
            labeled_outputs: vec!["c_Q7".to_string(), "x_Q2".to_string()],
        };
        // Trace i is session `i`, its events contiguous: unique ids keep
        // the runtime from merging traces.
        let stream: Vec<TaggedCall> = traces
            .iter()
            .enumerate()
            .flat_map(|(i, trace)| {
                trace.iter().map(move |&name| TaggedCall {
                    app: "prop".into(),
                    session: i.to_string(),
                    event: CallEvent {
                        name: names[name].into(),
                        call: LibCall::Printf,
                        caller: "main".into(),
                        site: CallSiteId(0),
                        detail: None,
                    },
                })
            })
            .collect();
        oracle::check(&Sweep {
            profiles: &[("prop", profile)],
            stream: &stream,
            swap: None,
            shards: &[],
            threads: &[1, 4],
            kernels: &[KernelConfig::Dense, KernelConfig::Sparse { sparse: SparseConfig::default() }],
            modes: &[ScoringMode::ExactWindows, ScoringMode::Incremental],
            queue_capacity: 0,
            faults: &[FaultPlan::disabled()],
            forensics: &[false],
            overloads: &[OverloadConfig::default()],
        })?;
    }

    /// Every Lib label the analyzer produces strips back to a known library
    /// call name.
    #[test]
    fn analyzer_labels_strip_to_known_calls(spec in arb_spec()) {
        let prog = generate_program(&spec);
        let analysis = analyze(&prog);
        for label in analysis.pctm.labels() {
            if let CallLabel::Lib(name) = label {
                let base = strip_label(name);
                prop_assert!(
                    adprom::lang::LibCall::from_name(base).is_some(),
                    "label {name} does not strip to a library call"
                );
            }
        }
    }
}
