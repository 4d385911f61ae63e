//! One timed round of the service: the untraced run (end-to-end
//! metrics) and the traced run (per-layer ledger), plus the checks both
//! must pass.

use crate::sys;
use crate::workload::{alarm_windows, Deployment, Kind, Reference, Round, SHARDS};
use adprom_core::{
    audit_record_from_alert, shard_for, FrameDecoder, FrameIngest, IngestStatus, SessionEnd,
    SessionReport, WireRecord,
};
use adprom_obs::{AuditLog, DurableAuditSink, Registry};
use adprom_trace::{ScreenedBatch, TaggedCall, TraceValidator};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Where every offered record ended up, as the service reported it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub offered: usize,
    pub admitted: usize,
    pub shed: usize,
    pub quarantined: usize,
    pub defective_frames: usize,
    pub in_defective_frames: usize,
    pub unknown_app: usize,
}

impl Tally {
    fn add(&mut self, ingest: &FrameIngest, frame_records: usize) {
        self.offered += frame_records;
        self.admitted += ingest.admitted;
        self.shed += ingest.shed;
        self.unknown_app += ingest.unknown_app;
        self.quarantined += ingest.quarantined.len();
        self.defective_frames += ingest.frame_defects.len();
        if !ingest.frame_defects.is_empty() {
            self.in_defective_frames += frame_records - ingest.records;
        }
    }

    fn note(&mut self, status: IngestStatus) {
        match status {
            IngestStatus::Admitted | IngestStatus::Backpressured => self.admitted += 1,
            IngestStatus::Shed => self.shed += 1,
            IngestStatus::UnknownApp => self.unknown_app += 1,
        }
    }

    /// offered = admitted + shed + quarantined + in defective frames +
    /// unknown-app.
    pub fn balanced(&self) -> bool {
        self.offered
            == self.admitted
                + self.shed
                + self.quarantined
                + self.in_defective_frames
                + self.unknown_app
    }
}

/// Verdict quality of one round against the references.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Sessions expected to be monitored (profiled, with at least one
    /// event surviving the wire).
    pub sessions: usize,
    /// Sessions missing, ended `Failed`, or disagreeing with the
    /// reference.
    pub failed: usize,
    pub attacked: usize,
    pub attacked_alarmed: usize,
    pub benign: usize,
    pub benign_alarmed: usize,
    pub alarms: usize,
}

/// The measured outcome of one round.
pub struct RoundResult {
    pub wall_s: f64,
    pub tally: Tally,
    pub quality: Quality,
    /// Wall time of each `ingest_frames` call, ns (untraced rounds).
    pub frame_ns: Vec<u64>,
    pub rss_growth_bytes: f64,
    /// CPU time the hypervisor took from this machine during the timed
    /// phase, in 1/100 s summed over CPUs.
    pub steal_ticks: u64,
    pub live_peak: usize,
    pub audit_records: u64,
    pub audit_write_errors: u64,
    /// Digest of every report, to show traced and untraced rounds agree.
    pub digest: u64,
    /// First report's effective kernel status and the scoring mode.
    pub kernel: String,
    pub ledger: Option<Ledger>,
}

/// The ledger's layers, named after the repository modules, as the
/// metrics that report each layer's share of the traced wall time.
const LAYER_SHARES: [&str; 7] = [
    "ledger.share.wire",
    "ledger.share.validate",
    "ledger.share.shard",
    "ledger.share.runtime.ingest",
    "ledger.share.scorer",
    "ledger.share.runtime.commit",
    "ledger.share.audit",
];

/// Span kinds recorded by the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum SpanKind {
    Frame,
    Decode,
    Materialize,
    Screen,
    Route,
    Ingest,
    IngestFlushed,
    FlushAll,
    Finish,
    Audit,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Frame => "frame",
            SpanKind::Decode => "wire.decode",
            SpanKind::Materialize => "wire.materialize",
            SpanKind::Screen => "validate.screen",
            SpanKind::Route => "shard.route",
            SpanKind::Ingest => "runtime.ingest",
            SpanKind::IngestFlushed => "runtime.ingest+flush",
            SpanKind::FlushAll => "runtime.flush_all",
            SpanKind::Finish => "runtime.finish",
            SpanKind::Audit => "audit.record",
        }
    }
}

/// One closed span: kind, the frame span that caused it (`u32::MAX` for
/// spans outside any frame), and start/end in ns since the round began.
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: SpanKind,
    parent: u32,
    start: u64,
    end: u64,
}

/// In-memory span store; written out once, after the run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new(capacity: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    fn push(&mut self, kind: SpanKind, parent: u32, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            kind,
            parent,
            start: ns(start),
            end: ns(end),
        });
    }

    fn total(&self, kind: SpanKind) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .fold((0, 0), |(ns, n), s| (ns + (s.end - s.start), n + 1))
    }

    /// Writes the spans as TSV: `kind parent start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(out, "{}\t{parent}\t{}\t{}", s.kind.label(), s.start, s.end)?;
        }
        out.flush()
    }
}

/// The traced run's per-layer accounting: its spans and the per-layer
/// metrics (name, value, unit) derived from them.
pub struct Ledger {
    pub spans: Spans,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Appends every alarm of `reports` to `audit`, in merged report order.
fn append_alarms(reports: &[SessionReport], audit: &AuditLog) {
    for report in reports {
        for alert in report.alarms() {
            audit.record(alarm_record(report, alert));
        }
    }
}

fn alarm_record(report: &SessionReport, alert: &adprom_core::Alert) -> adprom_obs::AuditRecord {
    let mut record = audit_record_from_alert(alert, &report.session, &report.kernel.effective);
    record.app = report.app.clone();
    record.epoch = report.epoch;
    record
}

fn open_audit(dir: &Path, round: usize) -> (Arc<DurableAuditSink>, AuditLog) {
    let path = dir.join(format!("audit-{round}.wal"));
    let (sink, _) = DurableAuditSink::open(&path).expect("audit WAL opens in the scratch dir");
    let sink = Arc::new(sink);
    let log = AuditLog::new(Arc::clone(&sink) as Arc<dyn adprom_obs::AuditSink>);
    (sink, log)
}

/// Bytes the alarms occupy in the WAL: each record is one framed JSONL
/// line (`llllllll cccccccc ` prefix, payload, newline).
fn audit_bytes(reports: &[SessionReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| r.alarms().map(move |a| (r, a)))
        .map(|(r, a)| (alarm_record(r, a).to_jsonl().len() + 19) as u64)
        .sum()
}

/// Frames between RSS samples: one sample per ~8k records.
fn sample_every(kind: Kind) -> usize {
    (8192 / kind.frame_records()).max(1)
}

/// The untraced round: wire bytes into `ingest_frames`, `finish`, then
/// every alarm durably appended. Timed end to end and per frame.
pub fn run_plain(
    deployment: &Deployment,
    round: &Round,
    refs: &[Option<Reference>],
    dir: &Path,
    index: usize,
) -> RoundResult {
    let mut monitor = deployment.fresh_monitor();
    let (sink, audit) = open_audit(dir, index);
    let mut tally = Tally::default();
    let mut frame_ns = Vec::with_capacity(round.frames.len());
    let every = sample_every(deployment.kind);

    sys::release_free_memory();
    let rss0 = sys::rss_bytes();
    let mut rss_peak = rss0;
    let steal0 = sys::steal_ticks();
    let t0 = Instant::now();
    for (i, (frame, &records)) in round.frames.iter().zip(&round.frame_records).enumerate() {
        let start = Instant::now();
        let ingest = monitor.ingest_frames(frame);
        frame_ns.push(start.elapsed().as_nanos() as u64);
        tally.add(&ingest, records);
        if i % every == 0 {
            rss_peak = rss_peak.max(sys::rss_bytes());
        }
    }
    rss_peak = rss_peak.max(sys::rss_bytes());
    let reports = monitor.finish();
    rss_peak = rss_peak.max(sys::rss_bytes());
    append_alarms(&reports, &audit);
    let wall_s = t0.elapsed().as_secs_f64();
    let steal_ticks = sys::steal_ticks().saturating_sub(steal0);
    rss_peak = rss_peak.max(sys::rss_bytes());

    let quality = check(deployment.kind, round, refs, &reports);
    let result = RoundResult {
        wall_s,
        tally,
        quality,
        frame_ns,
        rss_growth_bytes: rss_peak.saturating_sub(rss0) as f64,
        steal_ticks,
        live_peak: reports.len(),
        audit_records: audit.len(),
        audit_write_errors: sink.write_errors(),
        digest: digest(&reports),
        kernel: kernel_label(deployment.kind, &reports),
        ledger: None,
    };
    drop(reports);
    drop(audit);
    drop(sink);
    remove_wal(dir, index);
    result
}

/// The traced round: the same input through the public pieces that
/// `ingest_frames` composes (`FrameDecoder` → `WireRecord::to_tagged`
/// → `TraceValidator::screen` → `shard_for` → `ShardedMonitor::ingest`),
/// then `flush_all`, `finish` and `AuditLog::record`, with one span per
/// call. A metrics registry splits the time inside `ingest`, where
/// flushes have no public boundary.
pub fn run_traced(
    deployment: &Deployment,
    round: &Round,
    refs: &[Option<Reference>],
    dir: &Path,
    index: usize,
) -> RoundResult {
    let obs = Registry::new();
    let mut monitor = deployment.fresh_monitor().with_registry(&obs);
    let validator = TraceValidator::new();
    let flushes = obs.counter("monitor.flushes");
    let (sink, audit) = open_audit(dir, index);
    let mut tally = Tally::default();
    let mut decoded = 0usize;
    let mut routed = 0usize;
    let mut spans = Spans::new(3 * round.expect.offered + 4 * round.frames.len() + 1024);
    let every = sample_every(deployment.kind);
    let mut live_peak = 0usize;

    let steal0 = sys::steal_ticks();
    let t0 = Instant::now();
    for (f, (frame, &records)) in round.frames.iter().zip(&round.frame_records).enumerate() {
        let parent = f as u32;
        let frame_start = Instant::now();
        let mut batches: Vec<Vec<WireRecord<'_>>> = Vec::new();
        for item in FrameDecoder::new(frame) {
            match item {
                Ok(batch) => batches.push(batch),
                Err(_) => tally.defective_frames += 1,
            }
        }
        let t1 = Instant::now();
        spans.push(SpanKind::Decode, parent, frame_start, t1);
        let tagged: Vec<Vec<TaggedCall>> = batches
            .iter()
            .map(|batch| batch.iter().map(WireRecord::to_tagged).collect())
            .collect();
        let in_frames: usize = batches.iter().map(Vec::len).sum();
        drop(batches);
        let t2 = Instant::now();
        spans.push(SpanKind::Materialize, parent, t1, t2);
        decoded += in_frames;
        tally.offered += records;
        tally.in_defective_frames += records - in_frames;
        for batch in &tagged {
            // The screen span also covers freeing what screening
            // allocated, so no layer's cost lands between spans.
            let s0 = Instant::now();
            let sessions: Vec<String> = batch.iter().map(|t| t.session.clone()).collect();
            let traces: Vec<Vec<_>> = batch.iter().map(|t| vec![t.event.clone()]).collect();
            let ScreenedBatch {
                kept_indices,
                quarantined,
                ..
            } = validator.screen(&sessions, &traces);
            tally.quarantined += quarantined.len();
            drop((sessions, traces, quarantined));
            let s1 = Instant::now();
            spans.push(SpanKind::Screen, parent, s0, s1);
            for &idx in &kept_indices {
                let record = &batch[idx];
                let ra = Instant::now();
                black_box(shard_for(&record.app, &record.session, SHARDS));
                let rb = Instant::now();
                let before = flushes.get();
                let status = monitor.ingest(record);
                let rc = Instant::now();
                spans.push(SpanKind::Route, parent, ra, rb);
                let kind = if flushes.get() == before {
                    SpanKind::Ingest
                } else {
                    SpanKind::IngestFlushed
                };
                spans.push(kind, parent, rb, rc);
                tally.note(status);
                routed += 1;
            }
        }
        let d0 = Instant::now();
        drop(tagged);
        let frame_end = Instant::now();
        spans.push(SpanKind::Materialize, parent, d0, frame_end);
        spans.push(SpanKind::Frame, u32::MAX, frame_start, frame_end);
        if f % every == 0 {
            live_peak = live_peak.max(monitor.sessions_active());
        }
    }
    live_peak = live_peak.max(monitor.sessions_active());
    let shard_ingested: Vec<u64> = monitor
        .snapshot()
        .iter()
        .map(|s| s.tally.ingested)
        .collect();
    let f0 = Instant::now();
    monitor.flush_all();
    let f1 = Instant::now();
    spans.push(SpanKind::FlushAll, u32::MAX, f0, f1);
    let reports = monitor.finish();
    let f2 = Instant::now();
    spans.push(SpanKind::Finish, u32::MAX, f1, f2);
    for report in &reports {
        for alert in report.alarms() {
            let a0 = Instant::now();
            audit.record(alarm_record(report, alert));
            spans.push(SpanKind::Audit, u32::MAX, a0, Instant::now());
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let steal_ticks = sys::steal_ticks().saturating_sub(steal0);

    let quality = check(deployment.kind, round, refs, &reports);
    let snap = obs.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let hist_sum = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.sum as f64);
    let hist_count = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.count as f64);

    let (decode_ns, _) = spans.total(SpanKind::Decode);
    let (materialize_ns, _) = spans.total(SpanKind::Materialize);
    let (screen_ns, _) = spans.total(SpanKind::Screen);
    let (route_ns, _) = spans.total(SpanKind::Route);
    let (plain_ns, plain_n) = spans.total(SpanKind::Ingest);
    let (flushed_ns, flushed_n) = spans.total(SpanKind::IngestFlushed);
    let (flush_all_ns, _) = spans.total(SpanKind::FlushAll);
    let (finish_ns, _) = spans.total(SpanKind::Finish);
    let (audit_ns, audit_n) = spans.total(SpanKind::Audit);

    // An ingest call that triggered a flush did an ordinary ingest too;
    // charge it the mean of the calls that did not, and the rest to the
    // flush it ran.
    let mean_ingest = plain_ns as f64 / plain_n.max(1) as f64;
    let ingest_share = (mean_ingest * flushed_n as f64).min(flushed_ns as f64);
    let ingest_layer = plain_ns as f64 + ingest_share;
    let flush_wall = flushed_ns as f64 - ingest_share + flush_all_ns as f64;
    let commit_ns = hist_sum("monitor.stage.commit_ns");
    let layer_ns = [
        (decode_ns + materialize_ns) as f64,
        screen_ns as f64,
        route_ns as f64,
        ingest_layer,
        (flush_wall - commit_ns).max(0.0),
        commit_ns + finish_ns as f64,
        audit_ns as f64,
    ];
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let admitted = tally.admitted as f64;
    let windows = counter("detect.windows_scored");
    let flush_count = counter("monitor.flushes");
    let skew = {
        let max = shard_ingested.iter().copied().max().unwrap_or(0) as f64;
        let mean = shard_ingested.iter().sum::<u64>() as f64 / shard_ingested.len().max(1) as f64;
        per(max, mean)
    };
    let audit_bytes = audit_bytes(&reports);
    let mut metrics: Vec<(&'static str, f64, &'static str)> = vec![
        (
            "wire.decode_ns_per_record",
            per(decode_ns as f64, decoded as f64),
            "ns",
        ),
        (
            "wire.materialize_ns_per_record",
            per(materialize_ns as f64, decoded as f64),
            "ns",
        ),
        (
            "wire.bytes_per_record",
            per(
                round.frames.iter().map(Vec::len).sum::<usize>() as f64,
                tally.offered as f64,
            ),
            "bytes",
        ),
        ("wire.frame_defects", tally.defective_frames as f64, "count"),
        (
            "validate.screen_ns_per_record",
            per(screen_ns as f64, decoded as f64),
            "ns",
        ),
        ("validate.quarantined", tally.quarantined as f64, "count"),
        (
            "shard.route_ns_per_record",
            per(route_ns as f64, routed as f64),
            "ns",
        ),
        ("shard.skew", skew, "ratio"),
        (
            "runtime.ingest.ns_per_event",
            per(ingest_layer, routed as f64),
            "ns",
        ),
        (
            "runtime.ingest.unknown_app",
            counter("monitor.unknown_app"),
            "count",
        ),
        (
            "runtime.ingest.sessions_opened",
            counter("monitor.sessions.opened"),
            "count",
        ),
        (
            "runtime.ingest.evictions",
            counter("monitor.evictions.lru") + counter("monitor.evictions.idle"),
            "count",
        ),
        (
            "runtime.ingest.backpressure_flushes",
            counter("monitor.backpressure.flushes"),
            "count",
        ),
        (
            "runtime.ingest.shed",
            counter("monitor.shed.events"),
            "count",
        ),
        (
            "runtime.schedule.tier_full",
            counter("monitor.tier.full.assigned"),
            "count",
        ),
        (
            "runtime.schedule.tier_beam",
            counter("monitor.tier.beam.assigned"),
            "count",
        ),
        (
            "runtime.schedule.tier_spot",
            counter("monitor.tier.spot.assigned"),
            "count",
        ),
        (
            "runtime.schedule.spot_skipped",
            counter("monitor.tier.spot.skipped"),
            "count",
        ),
        (
            "runtime.schedule.escalations",
            counter("monitor.tier.escalations"),
            "count",
        ),
        ("runtime.flush.count", flush_count, "count"),
        (
            "runtime.flush.events_mean",
            per(admitted, flush_count),
            "events",
        ),
        (
            "runtime.flush.ns_per_event",
            per(flush_wall, admitted),
            "ns",
        ),
        (
            "scorer.ns_per_window",
            per(hist_sum("monitor.stage.score_ns"), windows),
            "ns",
        ),
        ("scorer.windows_per_event", per(windows, admitted), "ratio"),
        (
            "scorer.f32_rescored_share",
            per(counter("detect.kernel.f32_rescored"), windows),
            "ratio",
        ),
        (
            "runtime.commit.ns_per_session_flush",
            per(commit_ns, hist_count("monitor.stage.commit_ns")),
            "ns",
        ),
        (
            "runtime.finalize.ns_per_session",
            per(finish_ns as f64, reports.len() as f64),
            "ns",
        ),
        (
            "audit.ns_per_record",
            per(audit_ns as f64, audit_n as f64),
            "ns",
        ),
        ("audit.records", audit.len() as f64, "count"),
        (
            "audit.bytes_per_record",
            per(audit_bytes as f64, audit.len() as f64),
            "bytes",
        ),
        ("audit.write_errors", sink.write_errors() as f64, "count"),
    ];
    for (name, ns) in LAYER_SHARES.iter().zip(layer_ns) {
        metrics.push((name, ns / wall_ns, "ratio"));
    }
    metrics.push((
        "ledger.unattributed_share",
        (wall_ns - layer_ns.iter().sum::<f64>()) / wall_ns,
        "ratio",
    ));
    let result = RoundResult {
        wall_s: wall_ns / 1e9,
        tally,
        quality,
        frame_ns: Vec::new(),
        rss_growth_bytes: 0.0,
        steal_ticks,
        live_peak,
        audit_records: audit.len(),
        audit_write_errors: sink.write_errors(),
        digest: digest(&reports),
        kernel: kernel_label(deployment.kind, &reports),
        ledger: Some(Ledger { spans, metrics }),
    };
    drop(reports);
    drop(audit);
    drop(sink);
    remove_wal(dir, index);
    result
}

fn remove_wal(dir: &Path, index: usize) {
    let base = dir.join(format!("audit-{index}.wal"));
    let _ = std::fs::remove_file(&base);
    for rotation in 1..=8 {
        let mut os = base.as_os_str().to_os_string();
        os.push(format!(".{rotation}"));
        let _ = std::fs::remove_file(std::path::PathBuf::from(os));
    }
}

/// The effective kernel, precision, batch width and scoring mode, as the
/// reports carry them — so a changed library default shows in results.
fn kernel_label(kind: Kind, reports: &[SessionReport]) -> String {
    let mode = format!("{:?}", kind.runtime_config().mode);
    match reports.first() {
        Some(r) => format!(
            "kernel={} (requested {}) precision={} batch_width={} mode={mode}",
            r.kernel.effective, r.kernel.requested, r.kernel.precision, r.kernel.batch_width
        ),
        None => format!("kernel=none mode={mode}"),
    }
}

/// FNV-1a over every report's identity, end and alerts.
fn digest(reports: &[SessionReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in reports {
        eat(r.app.as_bytes());
        eat(r.session.as_bytes());
        eat(format!("{:?}", r.end).as_bytes());
        for a in &r.alerts {
            eat(&[a.flag as u8]);
            eat(&a.log_likelihood.to_bits().to_le_bytes());
            for name in &a.window {
                eat(name.as_bytes());
            }
        }
    }
    h
}

/// Checks every report against its session's reference.
fn check(
    kind: Kind,
    round: &Round,
    refs: &[Option<Reference>],
    reports: &[SessionReport],
) -> Quality {
    use std::collections::HashMap;
    let mut by_key: HashMap<(&str, &str), &SessionReport> = HashMap::with_capacity(reports.len());
    let mut duplicates = 0usize;
    for r in reports {
        if by_key.insert((&r.app, &r.session), r).is_some() {
            duplicates += 1;
        }
    }
    let mut q = Quality {
        failed: duplicates,
        ..Quality::default()
    };
    for (session, reference) in round.sessions.iter().zip(refs) {
        let Some(reference) = reference else { continue };
        q.sessions += 1;
        let report = by_key.get(&(session.app.as_str(), session.id.as_str()));
        let alarmed = report.is_some_and(|r| r.alarms().next().is_some());
        q.alarms += report.map_or(0, |r| r.alarms().count());
        if session.attacked {
            q.attacked += 1;
            q.attacked_alarmed += usize::from(alarmed);
            if !alarmed {
                eprintln!(
                    "perfbench: {}: attack session {}/{} raised no alarm",
                    kind.name(),
                    session.app,
                    session.id
                );
            }
        } else {
            q.benign += 1;
            q.benign_alarmed += usize::from(alarmed);
        }
        let agrees = match (report, reference) {
            (None, _) => false,
            (Some(r), _) if matches!(r.end, SessionEnd::Failed(_)) => false,
            (Some(r), Reference::Exact(expected)) => &r.alerts == expected,
            (Some(r), Reference::AlarmFloor(floor)) => covers(&alarm_windows(&r.alerts), floor),
        };
        if !agrees {
            q.failed += 1;
            if q.failed <= 3 {
                eprintln!(
                    "perfbench: {}: session {}/{} disagrees with its reference",
                    kind.name(),
                    session.app,
                    session.id
                );
            }
        }
    }
    q
}

/// Multiset cover: every window of `floor` appears in `got` (both
/// sorted).
fn covers(got: &[Vec<String>], floor: &[Vec<String>]) -> bool {
    let mut i = 0;
    for want in floor {
        while i < got.len() && got[i] < *want {
            i += 1;
        }
        if i == got.len() || got[i] != *want {
            return false;
        }
        i += 1;
    }
    true
}
