//! Ingest hardening: event validation and a quarantine channel.
//!
//! The collector trusts the interpreter, but a production monitor ingests
//! traces from an instrumentation agent over a wire — truncated buffers,
//! corrupted symbol names, and malformed DDG labels (`printf_Qxx`) all
//! reach the detector as [`CallEvent`]s. Scoring a corrupt trace is worse
//! than dropping it: a garbage observation name silently maps to `<unk>`
//! and can mask (or fabricate) an anomaly, and a malformed `_Q<bid>`
//! label breaks DataLeak attribution.
//!
//! [`TraceValidator::screen`] therefore splits a batch into clean traces
//! (forwarded to the detector untouched, preserving order) and quarantined
//! ones (reported with a reason, never scored). Policy knobs live in
//! [`ValidationPolicy`]. Truncated traces are *not* quarantined: a trace
//! shorter than the detection window degrades to one shorter window by
//! design ([`sliding_windows`](crate::collector::sliding_windows)), so
//! partial data still yields verdicts.

use crate::collector::CallEvent;
use adprom_obs::{Counter, Registry};
use std::collections::BTreeSet;

/// Why one event failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventDefect {
    /// The observation name is empty.
    EmptyName,
    /// The name contains a control character (corrupted buffer).
    ControlCharacter,
    /// The name exceeds [`ValidationPolicy::max_name_len`] bytes.
    Oversized,
    /// The name looks DDG-labeled (`…_Q<bid>`) but the block id is empty
    /// or non-numeric — attribution back to the data source is impossible.
    MalformedLabel,
}

impl std::fmt::Display for EventDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventDefect::EmptyName => write!(f, "empty observation name"),
            EventDefect::ControlCharacter => write!(f, "control character in name"),
            EventDefect::Oversized => write!(f, "oversized observation name"),
            EventDefect::MalformedLabel => write!(f, "malformed DDG label (bad block id)"),
        }
    }
}

/// Validation policy knobs.
#[derive(Debug, Clone)]
pub struct ValidationPolicy {
    /// Maximum observation-name length in bytes (default 512 — real
    /// symbol names are short; kilobyte "names" are corrupt buffers).
    pub max_name_len: usize,
    /// Quarantine a trace when more than this fraction of its events are
    /// unknown to the profile alphabet. Default `1.0` (never): unknown
    /// calls are legitimately scored through the `<unk>` symbol, so this
    /// only fires when an operator opts into treating a mostly-unknown
    /// trace as an ingest fault rather than an anomaly.
    pub max_unknown_fraction: f64,
}

impl Default for ValidationPolicy {
    fn default() -> ValidationPolicy {
        ValidationPolicy {
            max_name_len: 512,
            max_unknown_fraction: 1.0,
        }
    }
}

/// A trace pulled from the batch by the validator.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedTrace {
    /// Index of the trace in the original batch.
    pub index: usize,
    /// Session id (empty when the batch carried none).
    pub session: String,
    /// Human-readable reason (first defect found).
    pub reason: String,
    /// Number of events in the quarantined trace.
    pub events: usize,
}

/// Result of screening a batch: clean traces in original order plus the
/// quarantine channel.
#[derive(Debug, Clone, Default)]
pub struct ScreenedBatch {
    /// Sessions of the clean traces (parallel to `traces`).
    pub sessions: Vec<String>,
    /// The clean traces, untouched, original relative order.
    pub traces: Vec<Vec<CallEvent>>,
    /// Original batch index of each clean trace.
    pub kept_indices: Vec<usize>,
    /// Traces that failed validation, with reasons.
    pub quarantined: Vec<QuarantinedTrace>,
}

/// Checks one observation name against `policy` — the one event-level
/// rule that [`check_event`], [`TraceValidator::check_trace`],
/// [`TraceValidator::screen`] and [`TraceValidator::screen_record`] all
/// run. Stateless and allocation-free.
pub fn check_name(name: &str, policy: &ValidationPolicy) -> Result<(), EventDefect> {
    if name.is_empty() {
        return Err(EventDefect::EmptyName);
    }
    if name.len() > policy.max_name_len {
        return Err(EventDefect::Oversized);
    }
    if name.chars().any(|c| c.is_control()) {
        return Err(EventDefect::ControlCharacter);
    }
    // DDG labels are `<call>_Q<bid>` with a numeric block id; `rsplit`
    // mirrors how the detector and audit bridge parse the bid.
    if let Some(bid) = name.rsplit("_Q").next() {
        if name.contains("_Q") && (bid.is_empty() || !bid.bytes().all(|b| b.is_ascii_digit())) {
            return Err(EventDefect::MalformedLabel);
        }
    }
    Ok(())
}

/// Checks one event against `policy` ([`check_name`] on its name).
/// Stateless; the trace-level policy (unknown-symbol fraction) lives in
/// [`TraceValidator`].
pub fn check_event(event: &CallEvent, policy: &ValidationPolicy) -> Result<(), EventDefect> {
    check_name(&event.name, policy)
}

/// Screens batches of traces before detection.
#[derive(Debug, Clone, Default)]
pub struct TraceValidator {
    policy: ValidationPolicy,
    known: Option<BTreeSet<String>>,
    /// `ingest.traces_screened` — traces examined.
    traces_screened: Counter,
    /// `ingest.traces_quarantined` — traces pulled from the batch.
    traces_quarantined: Counter,
    /// `ingest.events_defective` — events that failed [`check_event`].
    events_defective: Counter,
}

impl TraceValidator {
    /// A validator with the default policy and no alphabet knowledge.
    pub fn new() -> TraceValidator {
        TraceValidator::default()
    }

    /// Replaces the policy.
    pub fn with_policy(mut self, policy: ValidationPolicy) -> TraceValidator {
        self.policy = policy;
        self
    }

    /// Supplies the profile's known observation names, enabling the
    /// unknown-fraction check (pass the profile alphabet's symbols).
    pub fn with_known_symbols(mut self, symbols: BTreeSet<String>) -> TraceValidator {
        self.known = Some(symbols);
        self
    }

    /// Registers ingest counters against `registry`.
    pub fn with_registry(mut self, registry: &Registry) -> TraceValidator {
        self.traces_screened = registry.counter("ingest.traces_screened");
        self.traces_quarantined = registry.counter("ingest.traces_quarantined");
        self.events_defective = registry.counter("ingest.events_defective");
        self
    }

    /// Validates one trace; `Err` carries the quarantine reason.
    pub fn check_trace(&self, events: &[CallEvent]) -> Result<(), String> {
        self.check_names(events.iter().map(|e| &*e.name))
    }

    /// The trace rule over a trace's observation names: the first name
    /// failing [`check_name`] quarantines it, then the opt-in
    /// unknown-fraction policy applies.
    fn check_names<'a, I>(&self, names: I) -> Result<(), String>
    where
        I: Iterator<Item = &'a str> + Clone,
    {
        let mut len = 0usize;
        for (i, name) in names.clone().enumerate() {
            if let Err(defect) = check_name(name, &self.policy) {
                self.events_defective.inc();
                return Err(format!("event {i}: {defect}"));
            }
            len += 1;
        }
        if let Some(known) = &self.known {
            if len > 0 && self.policy.max_unknown_fraction < 1.0 {
                let unknown = names.filter(|name| !known.contains(*name)).count();
                let fraction = unknown as f64 / len as f64;
                if fraction > self.policy.max_unknown_fraction {
                    return Err(format!(
                        "{unknown}/{len} events unknown to the profile (fraction {fraction:.2} > {})",
                        self.policy.max_unknown_fraction
                    ));
                }
            }
        }
        Ok(())
    }

    /// Counts one screened trace and, on `Err`, turns the reason into its
    /// quarantine entry.
    fn screen_one(
        &self,
        index: usize,
        session: &str,
        events: usize,
        checked: Result<(), String>,
    ) -> Result<(), QuarantinedTrace> {
        self.traces_screened.inc();
        checked.map_err(|reason| {
            self.traces_quarantined.inc();
            QuarantinedTrace {
                index,
                session: session.to_string(),
                reason,
                events,
            }
        })
    }

    /// Splits `(sessions, traces)` into clean traces and the quarantine
    /// channel. `sessions` may be empty (anonymous batch); otherwise it
    /// must be parallel to `traces`.
    pub fn screen(&self, sessions: &[String], traces: &[Vec<CallEvent>]) -> ScreenedBatch {
        let mut out = ScreenedBatch::default();
        for (index, trace) in traces.iter().enumerate() {
            let session = sessions.get(index).map_or("", String::as_str);
            match self.screen_one(index, session, trace.len(), self.check_trace(trace)) {
                Ok(()) => {
                    out.sessions.push(session.to_string());
                    out.traces.push(trace.clone());
                    out.kept_indices.push(index);
                }
                Err(quarantined) => out.quarantined.push(quarantined),
            }
        }
        out
    }

    /// Screens one record of a batch as the one-event trace it is, from
    /// its observation name alone: exactly what [`TraceValidator::screen`]
    /// does with that trace at batch position `index` — same rule, same
    /// counters, same quarantine entry — without building the batch.
    /// Allocates only for a quarantined record.
    pub fn screen_record(
        &self,
        index: usize,
        session: &str,
        name: &str,
    ) -> Result<(), QuarantinedTrace> {
        self.screen_one(index, session, 1, self.check_names(std::iter::once(name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CallEvent;
    use adprom_lang::{CallSiteId, LibCall};

    fn event(name: &str) -> CallEvent {
        CallEvent {
            name: name.into(),
            call: LibCall::Printf,
            caller: "main".into(),
            site: CallSiteId(0),
            detail: None,
        }
    }

    fn trace(names: &[&str]) -> Vec<CallEvent> {
        names.iter().map(|n| event(n)).collect()
    }

    #[test]
    fn clean_events_pass() {
        let policy = ValidationPolicy::default();
        for name in ["printf", "PQexec", "printf_Q6", "fwrite_Q12"] {
            assert_eq!(check_event(&event(name), &policy), Ok(()), "{name}");
        }
    }

    #[test]
    fn defective_events_are_rejected() {
        let policy = ValidationPolicy::default();
        assert_eq!(
            check_event(&event(""), &policy),
            Err(EventDefect::EmptyName)
        );
        assert_eq!(
            check_event(&event("prin\u{1}tf"), &policy),
            Err(EventDefect::ControlCharacter)
        );
        assert_eq!(
            check_event(&event(&"x".repeat(513)), &policy),
            Err(EventDefect::Oversized)
        );
        for bad in ["printf_Q", "printf_Qxx", "printf_Q6_extra"] {
            assert_eq!(
                check_event(&event(bad), &policy),
                Err(EventDefect::MalformedLabel),
                "{bad}"
            );
        }
    }

    #[test]
    fn screen_quarantines_only_bad_traces_preserving_order() {
        let validator = TraceValidator::new();
        let sessions: Vec<String> = (0..4).map(|i| format!("conn-{i}")).collect();
        let traces = vec![
            trace(&["printf", "PQexec"]),
            trace(&["printf", "bad\u{2}name"]),
            trace(&["printf_Q6"]),
            trace(&["printf_Qxx"]),
        ];
        let screened = validator.screen(&sessions, &traces);
        assert_eq!(screened.kept_indices, vec![0, 2]);
        assert_eq!(screened.sessions, vec!["conn-0", "conn-2"]);
        assert_eq!(screened.traces[0], traces[0]);
        assert_eq!(screened.traces[1], traces[2]);
        assert_eq!(screened.quarantined.len(), 2);
        assert_eq!(screened.quarantined[0].index, 1);
        assert!(screened.quarantined[0].reason.contains("control character"));
        assert_eq!(screened.quarantined[1].index, 3);
        assert!(screened.quarantined[1].reason.contains("DDG label"));
    }

    #[test]
    fn unknown_fraction_policy_is_opt_in() {
        let known: BTreeSet<String> = ["printf".to_string(), "PQexec".to_string()].into();
        let mostly_unknown = trace(&["evil1", "evil2", "evil3", "printf"]);
        // Default policy: unknown calls are the <unk> path's business.
        let permissive = TraceValidator::new().with_known_symbols(known.clone());
        assert!(permissive.check_trace(&mostly_unknown).is_ok());
        // Opted in: 3/4 unknown > 0.5 quarantines.
        let strict =
            TraceValidator::new()
                .with_known_symbols(known)
                .with_policy(ValidationPolicy {
                    max_unknown_fraction: 0.5,
                    ..ValidationPolicy::default()
                });
        assert!(strict.check_trace(&mostly_unknown).is_err());
        assert!(strict.check_trace(&trace(&["printf", "PQexec"])).is_ok());
    }

    #[test]
    fn empty_and_short_traces_pass_through() {
        // Truncation degrades to shorter windows downstream; it is not an
        // ingest fault.
        let validator = TraceValidator::new();
        assert!(validator.check_trace(&[]).is_ok());
        assert!(validator.check_trace(&trace(&["printf"])).is_ok());
    }

    #[test]
    fn screen_record_matches_screen_of_one_event_traces() {
        let known: BTreeSet<String> = ["printf".to_string()].into();
        let strict = ValidationPolicy {
            max_unknown_fraction: 0.5,
            ..ValidationPolicy::default()
        };
        let names = [
            "printf",
            "bad\u{2}name",
            "printf_Qxx",
            "",
            "evil",
            "printf_Q6",
        ];
        let sessions: Vec<String> = (0..names.len()).map(|i| format!("conn-{i}")).collect();
        let traces: Vec<Vec<CallEvent>> = names.iter().map(|n| trace(&[n])).collect();
        for validator in [
            TraceValidator::new(),
            TraceValidator::new()
                .with_known_symbols(known)
                .with_policy(strict),
        ] {
            let batch_obs = Registry::new();
            let batch = validator
                .clone()
                .with_registry(&batch_obs)
                .screen(&sessions, &traces);
            let record_obs = Registry::new();
            let per_record = validator.with_registry(&record_obs);
            let mut quarantined = batch.quarantined.into_iter().peekable();
            for (index, name) in names.into_iter().enumerate() {
                let expected = quarantined
                    .next_if(|q| q.index == index)
                    .map_or(Ok(()), Err);
                assert_eq!(
                    per_record.screen_record(index, &sessions[index], name),
                    expected,
                    "{name:?}"
                );
            }
            for counter in [
                "ingest.traces_screened",
                "ingest.traces_quarantined",
                "ingest.events_defective",
            ] {
                assert_eq!(
                    record_obs.snapshot().counter(counter),
                    batch_obs.snapshot().counter(counter),
                    "{counter}"
                );
            }
        }
    }

    #[test]
    fn screen_counts_into_registry() {
        let registry = Registry::new();
        let validator = TraceValidator::new().with_registry(&registry);
        let traces = vec![trace(&["printf"]), trace(&["bad\u{3}"])];
        validator.screen(&[], &traces);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ingest.traces_screened"), Some(2));
        assert_eq!(snap.counter("ingest.traces_quarantined"), Some(1));
        assert_eq!(snap.counter("ingest.events_defective"), Some(1));
    }
}
