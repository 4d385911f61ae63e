//! The monitoring service: N shard runtimes behind one framed ingest
//! boundary and an epoch-coherent control plane. [`ShardedMonitor`] is
//! the crate's one public streaming monitor; one shard is the plain
//! session-multiplexed monitor.
//!
//! ## Partitioning
//!
//! Sessions are partitioned by [`shard_for`]: FNV-1a over `app`, a `0xFF`
//! separator, then `session` — the hash the shards' live-session index
//! uses — so every event of a session lands on one shard for the
//! session's whole life. Each shard runs its own serial ingest clock,
//! its own bounded queue and [`OverloadConfig`](crate::runtime::OverloadConfig)
//! (backpressure and shedding are per-shard decisions, not global), and
//! scores its flushes on its own participant count — so each shard
//! independently keeps the bit-identical-verdicts-at-any-thread-count
//! guarantee, and the merged report stream is deterministic in
//! `(shard, arrival)` order.
//!
//! Shards share what must be global: the [`ProfileRegistry`], one
//! [`AuditLog`] ([`ShardedMonitor::with_audit`]) and one
//! [`FaultInjector`] ([`ShardedMonitor::with_faults`]). Every shard is
//! driven on the caller's thread and appends at its serial commit, so
//! audit sequence numbers are the same at any thread count. Fail-point
//! keys stay per shard (a session's arrival index within its shard, the
//! shard's ingest tick); a trigger's state is shared, so
//! [`Trigger::OnceForKeys`](crate::resilience::Trigger::OnceForKeys)
//! fires a key once for the whole service, at the first shard that
//! probes it.
//!
//! ## Ingest
//!
//! Events arrive either pre-tagged ([`ShardedMonitor::ingest`] /
//! [`ShardedMonitor::ingest_stream`]) or as wire frames
//! ([`ShardedMonitor::ingest_frames`], see [`crate::wire`]). Framed
//! ingest decodes zero-copy, quarantines corrupt frames (the decoder
//! resynchronizes, so one bad frame never poisons the next), and screens
//! every record through [`TraceValidator`] before routing — a defective
//! event (corrupt name, malformed DDG label) is quarantined with a
//! reason, never scored. Both arrive at one per-record core over a
//! borrowed [`WireRecord`]: framed records are screened, routed and
//! digested straight from the frame bytes, with no owned copy.
//!
//! ## Control plane
//!
//! Four methods:
//!
//! * [`ShardedMonitor::swap_profile`] hot-swaps an application's profile
//!   across all shards behind a *publish barrier*: every shard is flushed
//!   first (all buffered windows score and commit against the epochs
//!   they are pinned to), then the new epoch is published through the
//!   single shared [`ProfileRegistry`] — one atomic pointer swap that
//!   every shard observes at once. After the swap quiesces, no two
//!   shards can open a session for the app at different epochs; sessions
//!   already in flight keep scoring against their pinned epoch
//!   (first-event pinning), so a session's windows are never split
//!   across epochs.
//! * [`ShardedMonitor::flush_all`] flushes every shard's pending work
//!   through its scoring participants.
//! * [`ShardedMonitor::snapshot`] reports per-shard [`ShardStatus`]
//!   (occupancy, queue depth, ingest tallies, health).
//! * [`ShardedMonitor::health`] rolls per-shard [`HealthMonitor`] states
//!   up to the worst.

use crate::registry::{ProfileRegistry, SwapError};
use crate::resilience::{FaultInjector, Health, HealthMonitor, RetryPolicy};
use crate::runtime::{Fnv, IngestStatus, MonitorRuntime, RuntimeConfig, SessionEnd, SessionReport};
use crate::scorer::ForensicsConfig;
use crate::telemetry::{FrameMetrics, ShardMetrics};
use crate::wire::{FrameDecoder, FrameDefect, WireRecord};
use crate::Profile;
use adprom_obs::{AuditLog, Histogram, Registry, Tracer};
use adprom_trace::{QuarantinedTrace, TaggedCall, TraceValidator};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

/// Which shard a session belongs to: FNV-1a over the `(app, session)`
/// pair, reduced modulo the shard count. Stable for the life of the
/// deployment — resharding means draining and replaying.
///
/// The hash streams over `app ‖ 0xFF ‖ session` — FNV-1a of that key,
/// without building it — so routing allocates nothing. One shard takes
/// every session without hashing.
pub fn shard_for(app: &str, session: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash = Fnv::default();
    hash.write(app.as_bytes());
    hash.write(&[0xFF]); // unambiguous separator: never appears in UTF-8
    hash.write(session.as_bytes());
    (hash.finish() % shards.max(1) as u64) as usize
}

/// Ingest-boundary tallies for one shard (mirrored into the
/// `monitor.shard.<i>.*` metric family when a registry is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTally {
    /// Events admitted (normally or after a backpressure flush).
    pub ingested: u64,
    /// Events admitted only after a forced synchronous flush.
    pub backpressured: u64,
    /// Events dropped at capacity by the shed policy.
    pub shed: u64,
    /// Events dropped because their app has no registered profile.
    pub unknown_app: u64,
}

/// One shard's status row, as returned by [`ShardedMonitor::snapshot`].
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Live sessions resident in the shard's table.
    pub sessions_active: usize,
    /// Events buffered and not yet flushed through the scoring pool.
    pub pending: usize,
    /// Ingest-boundary tallies since construction.
    pub tally: ShardTally,
    /// The shard's health state.
    pub health: Health,
}

/// What one [`ShardedMonitor::ingest_frames`] call did with a frame
/// buffer: every count an operator needs to account for each byte.
#[derive(Debug, Clone, Default)]
pub struct FrameIngest {
    /// Frames that decoded and validated.
    pub frames: usize,
    /// Records decoded from valid frames (routed + quarantined).
    pub records: usize,
    /// Events admitted across all shards.
    pub admitted: usize,
    /// Events admitted after a backpressure flush.
    pub backpressured: usize,
    /// Events shed at capacity.
    pub shed: usize,
    /// Events whose app has no registered profile.
    pub unknown_app: usize,
    /// Frames the decoder rejected (CRC mismatch, torn header, …); the
    /// decoder resynchronized past each one.
    pub frame_defects: Vec<FrameDefect>,
    /// Records screened out by the trace validator, with reasons.
    pub quarantined: Vec<QuarantinedTrace>,
}

impl FrameIngest {
    /// Tallies what a shard's ingest boundary did with one routed record.
    fn count(&mut self, status: IngestStatus) {
        match status {
            IngestStatus::Admitted => self.admitted += 1,
            IngestStatus::Backpressured => {
                self.admitted += 1;
                self.backpressured += 1;
            }
            IngestStatus::Shed => self.shed += 1,
            IngestStatus::UnknownApp => self.unknown_app += 1,
        }
    }
}

/// The monitoring service: N shards (at least one) behind one ingest
/// boundary. Owns its shards; `finish` consumes the monitor and merges
/// reports deterministically.
#[derive(Debug)]
pub struct ShardedMonitor {
    shards: Vec<MonitorRuntime>,
    profiles: Arc<ProfileRegistry>,
    validator: TraceValidator,
    metrics: Vec<ShardMetrics>,
    frame_metrics: FrameMetrics,
    tallies: Vec<ShardTally>,
    health: Vec<HealthMonitor>,
    /// `ingest_frames`' per-frame route table, `(record index, shard)`
    /// for each clean record, kept between calls so it stops allocating
    /// once it has grown to the largest frame.
    routes: Vec<(usize, usize)>,
}

impl ShardedMonitor {
    /// A service of `shards` runtimes (at least one), all resolving
    /// profiles through the same shared registry — which is what makes
    /// the control plane's epoch publication atomic across shards.
    pub fn new(profiles: Arc<ProfileRegistry>, shards: usize) -> ShardedMonitor {
        let n = shards.max(1);
        ShardedMonitor {
            shards: (0..n)
                .map(|i| MonitorRuntime::new(Arc::clone(&profiles)).with_shard_id(i as u32))
                .collect(),
            profiles,
            validator: TraceValidator::new(),
            metrics: vec![ShardMetrics::disabled(); n],
            frame_metrics: FrameMetrics::disabled(),
            tallies: vec![ShardTally::default(); n],
            health: (0..n).map(|_| HealthMonitor::new()).collect(),
            routes: Vec::new(),
        }
    }

    /// Applies one `with_*` step to every shard.
    fn each_shard(mut self, step: impl Fn(MonitorRuntime) -> MonitorRuntime) -> ShardedMonitor {
        self.shards = self.shards.into_iter().map(step).collect();
        self
    }

    /// Applies `config` to every shard. Queue bounds and the overload
    /// config are per-shard: a capacity of `c` gives the service `N × c`
    /// aggregate buffering, and one hot shard backpressures or sheds
    /// without stalling its siblings.
    pub fn with_config(self, config: RuntimeConfig) -> ShardedMonitor {
        self.each_shard(|s| s.with_config(config.clone()))
    }

    /// Scores each shard's flushes on `threads` participants (`0`
    /// restores the process default, `available_parallelism()` unless
    /// `RAYON_NUM_THREADS` is set): the flushing thread plus `threads − 1`
    /// helpers queued on the process's resident rayon workers, each taking
    /// the next unscored session until none is left, so a flush ends when
    /// its work does. The workers number `available_parallelism()` whatever
    /// `threads` is, so no call starts a thread; verdicts, memo counts and
    /// audit sequence numbers are the same at every `threads`.
    pub fn with_threads(self, threads: usize) -> ShardedMonitor {
        self.each_shard(|s| s.with_threads(threads))
    }

    /// Registers service metrics against `registry`:
    ///
    /// * the per-shard `monitor.shard.<i>.{ingested,backpressured,shed}`
    ///   family;
    /// * the `monitor.*`, `detect.*` and `resilience.*` handles every
    ///   shard shares. Counters and histograms sum over the shards, and so
    ///   do the gauges `monitor.sessions.active` and
    ///   `monitor.overload.active`, which move by deltas;
    ///   `monitor.queue.depth` keeps the highest depth any shard reached,
    ///   and `monitor.flush.batch_sessions` holds the last flush of any
    ///   shard;
    /// * the ingest screening counters and the framed path's per-frame
    ///   stage histograms (`wire.decode_ns`, `ingest.screen_ns`,
    ///   `shard.route_ns`).
    ///
    /// Shard health is read through [`ShardedMonitor::snapshot`] and
    /// [`ShardedMonitor::shard_health`]; no health gauge is registered.
    pub fn with_registry(mut self, registry: &Registry) -> ShardedMonitor {
        self.metrics = (0..self.shards.len())
            .map(|i| ShardMetrics::from_registry(registry, i))
            .collect();
        self.frame_metrics = FrameMetrics::from_registry(registry);
        self.validator = TraceValidator::new().with_registry(registry);
        self.each_shard(|s| s.with_registry(registry))
    }

    /// Installs a span tracer on every shard. Ingest, flush, per-session
    /// score, commit and audit stages open spans carrying a
    /// [`SpanContext`](adprom_obs::SpanContext) (app, session, pinned
    /// epoch, flush batch id, shard), so one session's path can be
    /// reassembled from the span stream and stage histograms filter per
    /// shard. Ingest spans carry epoch 0 (the session's epoch is resolved
    /// at admission, after the span opens).
    pub fn with_tracer(self, tracer: Tracer) -> ShardedMonitor {
        self.each_shard(|s| s.with_tracer(tracer.clone()))
    }

    /// Routes every alarm of every shard to `audit`, each record stamped
    /// with the session's app id and pinned profile epoch. A shard
    /// appends at its serial commit, on the caller's thread, so sequence
    /// numbers are the same at any thread count and under retry.
    pub fn with_audit(self, audit: Arc<AuditLog>) -> ShardedMonitor {
        self.each_shard(|s| s.with_audit(Arc::clone(&audit)))
    }

    /// Arms a flight recorder on every session of every shard: each
    /// scored window's score/threshold/delta/flag lands in a bounded
    /// per-session ring, and every alarm's audit record carries a
    /// [`ForensicReport`](adprom_obs::ForensicReport) — the window's top-k
    /// most-deviant call transitions (exact factors of the forward
    /// recursion that scores it) plus the session's recent window-score
    /// series. Reports are drained at the serial commit point, so — like
    /// verdicts and audit sequence numbers — they are bit-identical at
    /// any thread count.
    pub fn with_forensics(self, config: ForensicsConfig) -> ShardedMonitor {
        self.each_shard(|s| s.with_forensics(config))
    }

    /// Arms every shard's fail points from `injector`
    /// ([`sites::MONITOR_SWAP`](crate::resilience::sites::MONITOR_SWAP),
    /// [`sites::MONITOR_PRESSURE`](crate::resilience::sites::MONITOR_PRESSURE),
    /// [`sites::MONITOR_QUEUE_OVERFLOW`](crate::resilience::sites::MONITOR_QUEUE_OVERFLOW)).
    /// Keys are per shard; trigger state is shared (see the module docs).
    pub fn with_faults(self, injector: &FaultInjector) -> ShardedMonitor {
        self.each_shard(|s| s.with_faults(injector))
    }

    /// Replaces every shard's per-session-batch retry policy.
    pub fn with_retry(self, retry: RetryPolicy) -> ShardedMonitor {
        self.each_shard(|s| s.with_retry(retry))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `(app, session)` routes to.
    pub fn shard_of(&self, app: &str, session: &str) -> usize {
        shard_for(app, session, self.shards.len())
    }

    /// Live sessions across all shards.
    pub fn sessions_active(&self) -> usize {
        self.shards
            .iter()
            .map(MonitorRuntime::sessions_active)
            .sum()
    }

    /// Buffered events across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(MonitorRuntime::pending).sum()
    }

    fn note(&mut self, shard: usize, status: IngestStatus) {
        let tally = &mut self.tallies[shard];
        let metrics = &self.metrics[shard];
        match status {
            IngestStatus::Admitted => {
                tally.ingested += 1;
                metrics.ingested.inc();
            }
            IngestStatus::Backpressured => {
                tally.ingested += 1;
                tally.backpressured += 1;
                metrics.ingested.inc();
                metrics.backpressured.inc();
            }
            IngestStatus::Shed => {
                tally.shed += 1;
                metrics.shed.inc();
                // Shedding is absorbed, deliberate degradation: verdicts
                // for surviving windows stay trustworthy, but coverage
                // dropped — surface it on the shard's health.
                self.health[shard].degrade("shed events at ingest capacity");
            }
            IngestStatus::UnknownApp => tally.unknown_app += 1,
        }
    }

    /// Routes one tagged event to its shard and reports what that
    /// shard's ingest boundary did with it.
    pub fn ingest(&mut self, tagged: &TaggedCall) -> IngestStatus {
        let shard = self.shard_of(&tagged.app, &tagged.session);
        self.ingest_routed(shard, &WireRecord::from(tagged))
    }

    /// The per-record core behind [`ShardedMonitor::ingest`] and
    /// [`ShardedMonitor::ingest_frames`]: hands one borrowed record to
    /// `shard` and tallies the outcome.
    fn ingest_routed(&mut self, shard: usize, record: &WireRecord<'_>) -> IngestStatus {
        let status = self.shards[shard].ingest_record(record);
        self.note(shard, status);
        status
    }

    /// Routes a pre-tagged stream serially — the deterministic reference
    /// drive (shards tick in stream arrival order).
    pub fn ingest_stream(&mut self, stream: &[TaggedCall]) {
        for tagged in stream {
            self.ingest(tagged);
        }
    }

    /// Decodes a wire-frame buffer and routes every clean record to its
    /// shard. Corrupt frames are quarantined by the decoder (which
    /// resynchronizes past them); defective records are quarantined by
    /// the validator. Neither is ever scored.
    ///
    /// Equivalent to composing the public pieces — [`FrameDecoder`],
    /// [`WireRecord::to_tagged`], [`TraceValidator::screen`] over each
    /// frame's records as one-event traces, then
    /// [`ShardedMonitor::ingest`] per kept record — with the same
    /// reports, `FrameIngest` and validator counters, but every record
    /// stays borrowed from `buf`: a clean frame for live sessions that
    /// triggers no flush allocates only the decoder's record vector.
    pub fn ingest_frames(&mut self, buf: &[u8]) -> FrameIngest {
        let mut report = FrameIngest::default();
        let timed = self.frame_metrics.decode_ns.is_enabled();
        let clock = || timed.then(Instant::now);
        let mut routes = std::mem::take(&mut self.routes);
        // The decoder borrows `buf`, not `self`, so each frame is
        // screened, routed and handed to its shards as soon as it
        // decodes.
        let mut decode_start = clock();
        for item in FrameDecoder::new(buf) {
            let batch = match item {
                Ok(batch) => batch,
                Err(defect) => {
                    report.frame_defects.push(defect);
                    continue;
                }
            };
            report.frames += 1;
            report.records += batch.len();
            let screen_start = clock();
            routes.clear();
            for (index, record) in batch.iter().enumerate() {
                match self
                    .validator
                    .screen_record(index, record.session, record.name)
                {
                    Ok(()) => routes.push((index, 0)),
                    Err(quarantined) => report.quarantined.push(quarantined),
                }
            }
            let route_start = clock();
            let shards = self.shards.len();
            for (index, shard) in &mut routes {
                let record = &batch[*index];
                *shard = shard_for(record.app, record.session, shards);
            }
            if let (Some(t0), Some(t1), Some(t2)) = (decode_start, screen_start, route_start) {
                let t3 = Instant::now();
                let metrics = &self.frame_metrics;
                record_span(&metrics.decode_ns, t0, t1);
                record_span(&metrics.screen_ns, t1, t2);
                record_span(&metrics.route_ns, t2, t3);
            }
            for &(index, shard) in &routes {
                report.count(self.ingest_routed(shard, &batch[index]));
            }
            decode_start = clock();
        }
        self.routes = routes;
        report
    }

    /// Flushes every shard's pending work through its scoring
    /// participants.
    pub fn flush_all(&mut self) {
        for shard in &mut self.shards {
            shard.flush();
        }
    }

    /// Hot-swaps `app`'s profile across all shards behind the publish
    /// barrier (flush-all, then one atomic registry publication).
    /// Returns the new epoch. On rejection the old epoch stays in force
    /// everywhere — the barrier flush is the only side effect.
    pub fn swap_profile(&mut self, app: &str, profile: Profile) -> Result<u64, SwapError> {
        self.flush_all();
        self.profiles.register(app, profile)
    }

    /// Per-shard status rows, shard-index order.
    pub fn snapshot(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardStatus {
                shard: i,
                sessions_active: shard.sessions_active(),
                pending: shard.pending(),
                tally: self.tallies[i],
                health: self.health[i].state(),
            })
            .collect()
    }

    /// One shard's health monitor (reasons, manual degrade from an
    /// operator wrapper).
    pub fn shard_health(&self, shard: usize) -> &HealthMonitor {
        &self.health[shard]
    }

    /// Worst health across shards.
    pub fn health(&self) -> Health {
        self.health
            .iter()
            .map(HealthMonitor::state)
            .max()
            .unwrap_or(Health::Healthy)
    }

    /// Finalizes every shard and merges the reports in deterministic
    /// `(shard, arrival)` order: shard 0's reports in arrival order,
    /// then shard 1's, … A failed session raises its shard's health to
    /// `Failed` on the way out.
    pub fn finish(self) -> Vec<SessionReport> {
        let health = self.health;
        let mut merged = Vec::new();
        for (i, shard) in self.shards.into_iter().enumerate() {
            let reports = shard.finish();
            for report in &reports {
                if let SessionEnd::Failed(reason) = &report.end {
                    health[i].fail(&format!(
                        "session {}/{} failed: {reason}",
                        report.app, report.session
                    ));
                }
            }
            merged.extend(reports);
        }
        merged
    }
}

/// Records the nanoseconds from `start` to `end` into `histogram`.
fn record_span(histogram: &Histogram, start: Instant, end: Instant) {
    histogram.record(u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{OverloadConfig, ShedPolicy};
    use crate::scorer::ScoringMode;
    use crate::wire::encode_stream;
    use crate::{Alphabet, Profile};
    use adprom_hmm::Hmm;
    use adprom_lang::{CallSiteId, LibCall};
    use adprom_trace::{interleave, CallEvent};
    use std::collections::{BTreeMap, BTreeSet};

    fn event(name: &str, caller: &str) -> CallEvent {
        CallEvent {
            name: name.into(),
            call: LibCall::Printf,
            caller: caller.into(),
            site: CallSiteId(0),
            detail: None,
        }
    }

    fn cyclic_profile(app: &str, threshold: f64) -> Profile {
        let alphabet = Alphabet::new(vec!["a".to_string(), "b".to_string(), "c_Q7".to_string()]);
        let m = alphabet.len();
        let mut a = vec![vec![0.001; m]; m];
        a[0][1] = 1.0;
        a[1][2] = 1.0;
        a[2][0] = 1.0;
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

    fn demo_sessions(per_app: usize) -> Vec<(String, String, Vec<CallEvent>)> {
        let mut sessions = Vec::new();
        for app in ["bank", "shop"] {
            for i in 0..per_app {
                let trace = if i % 3 == 2 {
                    vec![
                        event("a", "main"),
                        event("b", "attacker"),
                        event("c_Q7", "main"),
                    ]
                } else {
                    vec![
                        event("a", "main"),
                        event("b", "main"),
                        event("c_Q7", "main"),
                    ]
                };
                sessions.push((app.to_string(), format!("{app}-{i}"), trace));
            }
        }
        sessions
    }

    fn registry() -> Arc<ProfileRegistry> {
        let profiles = ProfileRegistry::new();
        profiles
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        profiles
            .register("shop", cyclic_profile("shop", -5.0))
            .unwrap();
        Arc::new(profiles)
    }

    #[test]
    fn routing_is_stable_and_uses_both_app_and_session() {
        let monitor = ShardedMonitor::new(registry(), 4);
        assert_eq!(
            monitor.shard_of("bank", "s-1"),
            monitor.shard_of("bank", "s-1")
        );
        // Sessions spread: with 16 ids over 4 shards, at least two shards
        // must be populated (FNV would have to be catastrophically bad).
        let used: BTreeSet<usize> = (0..16)
            .map(|i| monitor.shard_of("bank", &format!("s-{i}")))
            .collect();
        assert!(used.len() > 1, "{used:?}");
    }

    /// FNV-1a over a whole key: what streaming `app ‖ 0xFF ‖ session`
    /// through the route hash must equal.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn streaming_route_hash_equals_fnv1a_of_the_joined_key() {
        for (app, session) in [
            ("bank", "s-1"),
            ("", ""),
            ("ab", "c"),
            ("a", "bc"),
            ("ü", "会话"),
        ] {
            let mut key = app.as_bytes().to_vec();
            key.push(0xFF);
            key.extend_from_slice(session.as_bytes());
            for shards in [1usize, 2, 3, 4, 8, 64] {
                assert_eq!(
                    shard_for(app, session, shards),
                    (fnv1a(&key) % shards as u64) as usize,
                    "{app:?}/{session:?} at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn sharded_verdicts_match_one_shard_and_merge_deterministically() {
        let sessions = demo_sessions(6);
        let stream = interleave(&sessions, 0x51A2D);

        let mut single = ShardedMonitor::new(registry(), 1);
        single.ingest_stream(&stream);
        let mut expected: Vec<SessionReport> = single.finish();
        expected.sort_by_key(|r| (shard_for(&r.app, &r.session, 4), r.arrival));
        // Arrival indices are per shard, so compare identity + alerts.
        let expected: Vec<(String, String, String)> = expected
            .into_iter()
            .map(|r| (r.app, r.session, format!("{:?}", r.alerts)))
            .collect();

        let mut sharded = ShardedMonitor::new(registry(), 4);
        sharded.ingest_stream(&stream);
        let got: Vec<(String, String, String)> = sharded
            .finish()
            .into_iter()
            .map(|r| (r.app, r.session, format!("{:?}", r.alerts)))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn framed_ingest_routes_and_quarantines() {
        let sessions = demo_sessions(4);
        let stream = interleave(&sessions, 0xF4A3);
        let mut bytes = encode_stream(&stream, 16);
        // Corrupt one mid-buffer frame payload byte.
        let victim = bytes.len() / 2;
        bytes[victim] ^= 0x20;
        // And append a frame carrying one defective record (control char
        // in the name) alongside a clean one.
        let mut tail = stream[0].clone();
        tail.event.name = "bad\u{1}name".into();
        let clean = stream[1].clone();
        bytes.extend_from_slice(&encode_stream(&[tail, clean], 0));

        let mut monitor = ShardedMonitor::new(registry(), 2);
        let report = monitor.ingest_frames(&bytes);
        assert_eq!(report.frame_defects.len(), 1, "{:?}", report.frame_defects);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].reason.contains("control character"));
        assert!(report.frames > 0);
        assert_eq!(report.admitted, report.records - report.quarantined.len());
        assert_eq!(report.unknown_app, 0);
        // The service still produces reports for every session that had
        // clean events.
        assert!(!monitor.finish().is_empty());
    }

    #[test]
    fn swap_barrier_pins_in_flight_sessions_and_moves_new_ones() {
        let profiles = registry();
        let mut monitor =
            ShardedMonitor::new(Arc::clone(&profiles), 4).with_config(RuntimeConfig {
                mode: ScoringMode::Incremental,
                ..RuntimeConfig::default()
            });
        let sessions = demo_sessions(4);
        let stream = interleave(&sessions, 0xBA44);
        let half = stream.len() / 2;
        monitor.ingest_stream(&stream[..half]);
        let epoch = monitor
            .swap_profile("bank", cyclic_profile("bank", 0.0))
            .expect("swap validates");
        assert_eq!(epoch, 2);
        monitor.ingest_stream(&stream[half..]);
        let reports = monitor.finish();
        for report in &reports {
            let first = stream
                .iter()
                .position(|t| t.app == report.app && t.session == report.session)
                .expect("session on stream");
            let expected_epoch = if report.app == "bank" && first >= half {
                2
            } else {
                1
            };
            assert_eq!(
                report.epoch, expected_epoch,
                "{}/{} first event at {first}",
                report.app, report.session
            );
        }
        // Both epochs must actually occur for bank sessions.
        let epochs: BTreeSet<u64> = reports
            .iter()
            .filter(|r| r.app == "bank")
            .map(|r| r.epoch)
            .collect();
        assert_eq!(epochs, BTreeSet::from([1, 2]));
    }

    #[test]
    fn per_shard_overload_backpressure_is_isolated_and_counted() {
        let obs = Registry::new();
        let mut monitor = ShardedMonitor::new(registry(), 2)
            .with_config(RuntimeConfig {
                queue_capacity: 0,
                overload: OverloadConfig {
                    capacity: 2,
                    ..OverloadConfig::default()
                },
                ..RuntimeConfig::default()
            })
            .with_registry(&obs);
        // All events for ONE session: exactly one shard fills and
        // backpressures; the other stays idle.
        let hot = TaggedCall {
            app: "bank".to_string(),
            session: "hot".to_string(),
            event: event("a", "main"),
        };
        for _ in 0..6 {
            monitor.ingest(&hot);
        }
        let hot_shard = monitor.shard_of("bank", "hot");
        let status = monitor.snapshot();
        assert!(status[hot_shard].tally.backpressured > 0);
        let cold = 1 - hot_shard;
        assert_eq!(status[cold].tally, ShardTally::default());
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter(&format!("monitor.shard.{hot_shard}.backpressured")),
            Some(status[hot_shard].tally.backpressured)
        );
        assert_eq!(
            snap.counter(&format!("monitor.shard.{cold}.ingested")),
            Some(0)
        );
        assert_eq!(
            monitor.health(),
            Health::Healthy,
            "backpressure is not degradation"
        );
        // Sessions live on both shards: the shared gauge reads the service
        // total, not whichever shard wrote it last.
        for i in 0..12 {
            monitor.ingest(&TaggedCall {
                app: "bank".to_string(),
                session: format!("s-{i}"),
                event: event("a", "main"),
            });
        }
        assert!(monitor.snapshot().iter().all(|s| s.sessions_active > 0));
        assert_eq!(monitor.sessions_active(), 13);
        assert_eq!(
            obs.snapshot().gauge("monitor.sessions.active"),
            Some(monitor.sessions_active() as i64)
        );
    }

    #[test]
    fn shed_degrades_its_shard_and_unknown_app_is_tallied() {
        let mut monitor = ShardedMonitor::new(registry(), 2).with_config(RuntimeConfig {
            mode: ScoringMode::Incremental,
            overload: OverloadConfig {
                capacity: 6,
                shed_policy: ShedPolicy::DropNewest,
                budget: 3,
                ..OverloadConfig::default()
            },
            ..RuntimeConfig::default()
        });
        let tag = |session: &str, name: &str| TaggedCall {
            app: "bank".to_string(),
            session: session.to_string(),
            event: event(name, "main"),
        };
        // Two sessions on one shard: two flushes establish their margins,
        // and the second demotes the second session on `s-0`'s shard
        // (equal margin, later arrival) to the spot tier under budget 3.
        let shard = monitor.shard_of("bank", "s-0");
        let s1 = (1..)
            .map(|i| format!("s-{i}"))
            .find(|s| monitor.shard_of("bank", s) == shard)
            .expect("a second session on the shard");
        for _ in 0..2 {
            for s in ["s-0", s1.as_str()] {
                for name in ["a", "b", "c_Q7"] {
                    assert_eq!(monitor.ingest(&tag(s, name)), IngestStatus::Admitted);
                }
            }
            monitor.flush_all();
        }
        // Fill the shard's queue to its hard bound; the next benign event
        // for the demoted session is shed.
        for name in ["a", "b", "c_Q7", "a", "b", "c_Q7"] {
            assert_eq!(monitor.ingest(&tag("s-0", name)), IngestStatus::Admitted);
        }
        assert_eq!(monitor.ingest(&tag(&s1, "a")), IngestStatus::Shed);
        let status = monitor.snapshot();
        assert_eq!(status[shard].tally.shed, 1);
        assert_eq!(status[shard].health, Health::Degraded);
        assert_eq!(status[1 - shard].health, Health::Healthy);
        assert_eq!(monitor.health(), Health::Degraded);
        assert!(monitor
            .shard_health(shard)
            .reasons()
            .iter()
            .any(|r| r.contains("shed")));

        let unknown = TaggedCall {
            app: "ghost".to_string(),
            session: "s".to_string(),
            event: event("a", "main"),
        };
        assert_eq!(monitor.ingest(&unknown), IngestStatus::UnknownApp);
        assert_eq!(
            monitor
                .snapshot()
                .iter()
                .map(|s| s.tally.unknown_app)
                .sum::<u64>(),
            1
        );
    }
}
