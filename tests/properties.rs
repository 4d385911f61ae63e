//! Property-based tests over the core invariants, driven by proptest.

use adprom::analysis::{analyze, CallLabel};
use adprom::core::{
    strip_label, Alert, Alphabet, DetectionEngine, KernelConfig, MonitorRuntime, Profile,
    ProfileRegistry, RuntimeConfig, ScoringMode,
};
use adprom::db::{Database, Value};
use adprom::hmm::{log_likelihood, Hmm, SparseConfig};
use adprom::lang::{parse_program, pretty_program, CallSiteId, LibCall};
use adprom::trace::{sliding_windows, CallEvent, TaggedCall};
use adprom::workloads::sir::{generate_program, SirSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// (replayed in one parallel flush at `finish`) is byte-identical in
    /// ExactWindows mode to a serial DetectionEngine loop: same alerts
    /// (including exact floating-point scores), same order, for arbitrary
    /// batches against arbitrary profiles. An empty trace opens no session
    /// and counts as zero alerts. Through a sparse-kernel registry (ε = 0)
    /// every window keeps its dense flag, in both scoring modes.
    #[test]
    fn runtime_batch_matches_serial_engine(
        seed in any::<u64>(),
        window in 1usize..6,
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
        let batch: Vec<Vec<CallEvent>> = traces
            .iter()
            .map(|t| {
                t.iter()
                    .map(|&i| CallEvent {
                        name: names[i].into(),
                        call: LibCall::Printf,
                        caller: "main".into(),
                        site: CallSiteId(0),
                        detail: None,
                    })
                    .collect()
            })
            .collect();

        // Trace i is session `i`: unique ids keep the runtime from merging
        // traces, and the ids map reports back to input positions.
        let stream: Vec<TaggedCall> = batch
            .iter()
            .enumerate()
            .flat_map(|(i, trace)| {
                trace.iter().map(move |event| TaggedCall {
                    app: "prop".into(),
                    session: i.to_string(),
                    event: event.clone(),
                })
            })
            .collect();
        let run = |kernel: KernelConfig, mode: ScoringMode| -> Vec<Vec<Alert>> {
            let profiles = ProfileRegistry::new().with_kernel(kernel);
            profiles.register("prop", profile.clone()).expect("profile validates");
            let mut runtime = MonitorRuntime::new(Arc::new(profiles)).with_config(RuntimeConfig {
                mode,
                max_sessions: 0,
                queue_capacity: 0,
                ..RuntimeConfig::default()
            });
            runtime.ingest_stream(&stream);
            let mut alerts = vec![Vec::new(); batch.len()];
            for report in runtime.finish() {
                alerts[report.session.parse::<usize>().expect("numeric session")] = report.alerts;
            }
            alerts
        };

        let exact = run(KernelConfig::Dense, ScoringMode::ExactWindows);
        let engine = DetectionEngine::new(&profile);
        for (i, trace) in batch.iter().enumerate() {
            let serial = engine.scan(trace);
            prop_assert_eq!(&exact[i], &serial, "trace {}", i);
            // Debug formatting round-trips every f64 digit: equal strings
            // mean bit-identical scores, not approximately-equal ones.
            prop_assert_eq!(format!("{:?}", exact[i]), format!("{serial:?}"));
        }

        // Incremental mode must agree on the window partitioning even
        // though its scores are conditional.
        let incremental = run(KernelConfig::Dense, ScoringMode::Incremental);
        for (e, inc) in exact.iter().zip(&incremental) {
            prop_assert_eq!(e.len(), inc.len());
            for (ae, ai) in e.iter().zip(inc) {
                prop_assert_eq!(&ae.window, &ai.window);
            }
        }

        // The sparse kernel sums in a different order: scores agree to
        // 1e-9, flags and windows exactly.
        let sparse = KernelConfig::Sparse { sparse: SparseConfig::default() };
        let modes = [ScoringMode::ExactWindows, ScoringMode::Incremental];
        for (mode, dense) in modes.into_iter().zip([&exact, &incremental]) {
            for (d, s) in dense.iter().zip(&run(sparse, mode)) {
                prop_assert_eq!(d.len(), s.len());
                for (da, sa) in d.iter().zip(s) {
                    prop_assert_eq!((da.flag, &da.window), (sa.flag, &sa.window), "{:?}", mode);
                    prop_assert!((da.log_likelihood - sa.log_likelihood).abs() < 1e-9);
                }
            }
        }
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
