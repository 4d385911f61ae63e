//! Structured alert audit log.
//!
//! Every non-Normal detection serializes to one JSONL line — an
//! [`AuditRecord`] — through a pluggable [`AuditSink`]. Records are
//! sequence-numbered (not timestamped, so replays are byte-stable),
//! carry the session id, flag, window, score and threshold, and — for
//! DataLeak alerts — the DDG label and block id (`bid`) connecting the
//! alert to its data source, as the paper's §V-C alerts do.
//!
//! [`AuditLog`] assigns the sequence numbers; sinks decide persistence:
//! [`NullAuditSink`] (off), [`MemoryAuditSink`] (tests and report
//! printing), [`JsonlAuditSink`] (any `io::Write`, one line per record),
//! [`DurableAuditSink`] (crash-safe length-prefixed + CRC-checked JSONL
//! file with torn-tail recovery and size-based rotation).

use crate::forensics::ForensicReport;
use crate::registry::{Counter, Gauge, Registry};
use serde::{de_field, de_field_opt, Content, DeError, Deserialize};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One audit-trail entry: a replayable, attributable alert.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Monotonic sequence number, assigned by [`AuditLog`].
    pub seq: u64,
    /// Application id the profiled program is registered under in a
    /// multi-app deployment; empty for single-app detectors.
    pub app: String,
    /// Session (connection) the window came from; empty when unknown.
    pub session: String,
    /// Profile epoch (hot-swap generation) that scored the window; 0 for
    /// detectors built outside a registry.
    pub epoch: u64,
    /// Flag name as the engine renders it (`DATA-LEAK`, `ANOMALOUS`,
    /// `OUT-OF-CONTEXT`).
    pub flag: String,
    /// The call names of the flagged window.
    pub window: Vec<String>,
    /// `log P(window | λ)`.
    pub log_likelihood: f64,
    /// Threshold in force when the window was scored.
    pub threshold: f64,
    /// Human-readable detail from the engine.
    pub detail: String,
    /// Scoring kernel that produced `log_likelihood` (`dense` or
    /// `sparse`), so forensics know which path flagged the window.
    pub kernel: String,
    /// The DDG-labeled output call (`printf_Q6`) for DataLeak alerts.
    pub label: Option<String>,
    /// The DDG block id parsed from the label (`6` for `printf_Q6`) —
    /// the pointer back to the data source.
    pub bid: Option<String>,
    /// Forensic evidence (score attribution + flight-recorder tail),
    /// present when the scoring session had its flight recorder enabled.
    /// Omitted from the JSONL entirely when `None`, and tolerated as
    /// missing on parse, so records written before this field existed
    /// still round-trip.
    pub forensics: Option<ForensicReport>,
    /// Scoring tier the alarming window was scored under (`full` or
    /// `spot`) when the runtime's risk-budget tier ladder was armed.
    /// Omitted/lenient like `forensics`.
    pub tier: Option<String>,
    /// Why the alarm escalated its session back to full scoring, when a
    /// window below the full tier alarmed.
    pub escalation: Option<String>,
}

// The JSONL line is written in one pass by `write_jsonl`; parsing goes
// through serde and is hand-written (the derive stand-in has no
// `#[serde(default)]`): `forensics` and the tier-provenance fields are
// parsed leniently, every other field exactly as the derive would. Fields
// are looked up by name and unknown keys are ignored, so lines from older
// writers still parse.
impl Deserialize for AuditRecord {
    fn deserialize(v: &Content) -> Result<AuditRecord, DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| DeError(format!("expected map for AuditRecord, found {}", v.kind())))?;
        Ok(AuditRecord {
            seq: de_field(map, "seq")?,
            app: de_field(map, "app")?,
            session: de_field(map, "session")?,
            epoch: de_field(map, "epoch")?,
            flag: de_field(map, "flag")?,
            window: de_field(map, "window")?,
            log_likelihood: de_field(map, "log_likelihood")?,
            threshold: de_field(map, "threshold")?,
            detail: de_field(map, "detail")?,
            kernel: de_field(map, "kernel")?,
            label: de_field(map, "label")?,
            bid: de_field(map, "bid")?,
            forensics: de_field_opt(map, "forensics")?,
            tier: de_field_opt(map, "tier")?,
            escalation: de_field_opt(map, "escalation")?,
        })
    }
}

impl AuditRecord {
    /// Appends this record's compact JSONL line (no trailing newline) to
    /// `out` in one pass.
    ///
    /// The writer owns the line's format: keys in declaration order, with
    /// `forensics`, `tier` and `escalation` omitted when `None` and every
    /// other field always present (`label`/`bid` as `null`). Strings are
    /// escaped and floats rendered exactly as the `serde_json` stand-in
    /// does — shortest round-trip digits with a `.0` marker on integral
    /// values, `null` for NaN and ±inf — so the line parses back through
    /// [`from_jsonl`](AuditRecord::from_jsonl). A record without forensics
    /// allocates nothing beyond `out`'s growth.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"seq\":");
        write_u64(out, self.seq);
        out.extend_from_slice(b",\"app\":");
        write_str(out, &self.app);
        out.extend_from_slice(b",\"session\":");
        write_str(out, &self.session);
        out.extend_from_slice(b",\"epoch\":");
        write_u64(out, self.epoch);
        out.extend_from_slice(b",\"flag\":");
        write_str(out, &self.flag);
        out.extend_from_slice(b",\"window\":[");
        for (i, call) in self.window.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_str(out, call);
        }
        out.extend_from_slice(b"],\"log_likelihood\":");
        write_f64(out, self.log_likelihood);
        out.extend_from_slice(b",\"threshold\":");
        write_f64(out, self.threshold);
        out.extend_from_slice(b",\"detail\":");
        write_str(out, &self.detail);
        out.extend_from_slice(b",\"kernel\":");
        write_str(out, &self.kernel);
        out.extend_from_slice(b",\"label\":");
        write_opt_str(out, self.label.as_deref());
        out.extend_from_slice(b",\"bid\":");
        write_opt_str(out, self.bid.as_deref());
        if let Some(forensics) = &self.forensics {
            // Only alarms of flight-recorded sessions carry a report, so
            // it keeps its derived serialization.
            let report = serde_json::to_string(forensics).expect("forensic report serializes");
            out.extend_from_slice(b",\"forensics\":");
            out.extend_from_slice(report.as_bytes());
        }
        if let Some(tier) = &self.tier {
            out.extend_from_slice(b",\"tier\":");
            write_str(out, tier);
        }
        if let Some(escalation) = &self.escalation {
            out.extend_from_slice(b",\"escalation\":");
            write_str(out, escalation);
        }
        out.push(b'}');
    }

    /// Serializes to one compact JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::with_capacity(LINE_CAPACITY);
        self.write_jsonl(&mut out);
        String::from_utf8(out).expect("the JSONL writer emits UTF-8")
    }

    /// Parses a record back from a JSONL line.
    pub fn from_jsonl(line: &str) -> Result<AuditRecord, serde_json::Error> {
        serde_json::from_str(line.trim())
    }
}

/// Starting capacity of a one-off line buffer: a DataLeak record over a
/// 15-call window is about 500 bytes.
const LINE_CAPACITY: usize = 640;

/// Lowercase hex digits, for `\u00XX` escapes and frame prefixes.
const HEX: &[u8; 16] = b"0123456789abcdef";

fn write_u64(out: &mut Vec<u8>, value: u64) {
    write!(out, "{value}").expect("writing to a Vec cannot fail");
}

/// Shortest round-trip digits, with `.0` appended when they read as an
/// integer so the value parses back as a float; `null` for NaN and ±inf.
fn write_f64(out: &mut Vec<u8>, value: f64) {
    if !value.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let start = out.len();
    write!(out, "{value}").expect("writing to a Vec cannot fail");
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
}

/// A JSON string: `"` and `\\` backslash-escaped, `\n`, `\r`, `\t` by name,
/// other control characters as `\u00XX`, everything else (non-ASCII
/// included) copied as UTF-8.
fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let unicode: [u8; 6];
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1F => {
                let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xF)]);
                unicode = [b'\\', b'u', b'0', b'0', hi, lo];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[copied..i]);
        out.extend_from_slice(escape);
        copied = i + 1;
    }
    out.extend_from_slice(&bytes[copied..]);
    out.push(b'"');
}

fn write_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => write_str(out, s),
        None => out.extend_from_slice(b"null"),
    }
}

/// Receives sequence-numbered audit records.
pub trait AuditSink: Send + Sync {
    /// Called once per non-Normal detection.
    fn append(&self, record: &AuditRecord);
}

/// Discards every record.
#[derive(Debug, Default)]
pub struct NullAuditSink;

impl AuditSink for NullAuditSink {
    fn append(&self, _record: &AuditRecord) {}
}

/// Accumulates records in memory (tests, report printing).
#[derive(Debug, Default)]
pub struct MemoryAuditSink {
    records: Mutex<Vec<AuditRecord>>,
}

impl MemoryAuditSink {
    /// An empty sink.
    pub fn new() -> MemoryAuditSink {
        MemoryAuditSink::default()
    }

    /// All records appended so far, in order.
    pub fn records(&self) -> Vec<AuditRecord> {
        self.records.lock().expect("audit sink poisoned").clone()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.lock().expect("audit sink poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl AuditSink for MemoryAuditSink {
    fn append(&self, record: &AuditRecord) {
        self.records
            .lock()
            .expect("audit sink poisoned")
            .push(record.clone());
    }
}

/// Streams records as JSONL to any writer (a file, a pipe, a Vec).
#[derive(Debug)]
pub struct JsonlAuditSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlAuditSink<W> {
    /// Wraps a writer; each record becomes one `\n`-terminated line.
    pub fn new(writer: W) -> JsonlAuditSink<W> {
        JsonlAuditSink {
            writer: Mutex::new(writer),
        }
    }

    /// Unwraps the writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("audit writer poisoned")
    }
}

impl<W: Write + Send> AuditSink for JsonlAuditSink<W> {
    fn append(&self, record: &AuditRecord) {
        let mut line = Vec::with_capacity(LINE_CAPACITY);
        record.write_jsonl(&mut line);
        line.push(b'\n');
        let mut writer = self.writer.lock().expect("audit writer poisoned");
        // Audit writes are best-effort: a full disk must not take the
        // detector down with it.
        let _ = writer.write_all(&line);
    }
}

/// Slicing-by-8 tables for the reflected IEEE polynomial, built at
/// compile time: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` followed by `k`
/// zero bytes, so one step folds eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over `bytes`.
///
/// Slicing-by-8 over compile-time tables, then bytewise over the last
/// `len % 8` bytes; no external dependencies. Used by the durable audit
/// log, the ADP1 wire frames and profile envelopes to detect torn writes
/// and bit rot before corrupt state reaches the detector.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Configuration for [`DurableAuditSink`]: when to rotate and how many
/// rotated files to keep.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate once the active file exceeds this many bytes (post-append
    /// check, so one record may overshoot). Default 1 MiB.
    pub max_file_bytes: u64,
    /// Rotated files kept as `<path>.1` (newest) … `<path>.<keep>`
    /// (oldest); older rotations are deleted. Default 3.
    pub keep: usize,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            max_file_bytes: 1 << 20,
            keep: 3,
        }
    }
}

/// What [`DurableAuditSink::open`]'s recovery scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records in the valid prefix (all preserved).
    pub valid_records: u64,
    /// Bytes of torn/corrupt tail truncated away.
    pub truncated_bytes: u64,
    /// True when a torn tail was detected (and truncated).
    pub torn: bool,
}

/// Byte length of the `llllllll cccccccc ` frame prefix: 8 hex digits of
/// payload length, a space, 8 hex digits of CRC-32, a space.
const FRAME_PREFIX: usize = 18;

/// Writes one length-prefixed, CRC-checked line into `frame`, replacing
/// its contents: the `llllllll cccccccc ` prefix, the JSONL payload that
/// `write_payload` appends, and `\n`. The payload is written once, in
/// place; the prefix is filled in after it.
fn frame_into(frame: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    frame.clear();
    frame.resize(FRAME_PREFIX, b' ');
    write_payload(frame);
    let payload = &frame[FRAME_PREFIX..];
    let len = u32::try_from(payload.len()).expect("an audit record is shorter than 4 GiB");
    let crc = crc32(payload);
    put_hex(&mut frame[0..8], len);
    put_hex(&mut frame[9..17], crc);
    frame.push(b'\n');
}

/// `value` as eight lowercase hex digits, as `{:08x}` renders it.
fn put_hex(digits: &mut [u8], value: u32) {
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = HEX[(value >> (28 - 4 * i)) as usize & 0xF];
    }
}

/// Frames one JSONL payload as a length-prefixed, CRC-checked line.
#[cfg(test)]
fn frame_record(json: &str) -> String {
    let mut frame = Vec::new();
    frame_into(&mut frame, |payload| {
        payload.extend_from_slice(json.as_bytes())
    });
    String::from_utf8(frame).expect("a framed UTF-8 payload is UTF-8")
}

/// Validates one framed line (without its trailing `\n`). Returns the
/// payload on success.
fn unframe_line(line: &str) -> Option<&str> {
    let bytes = line.as_bytes();
    if bytes.len() < FRAME_PREFIX || bytes[8] != b' ' || bytes[17] != b' ' {
        return None;
    }
    let len = u32::from_str_radix(&line[0..8], 16).ok()? as usize;
    let crc = u32::from_str_radix(&line[9..17], 16).ok()?;
    let payload = &line[FRAME_PREFIX..];
    if payload.len() != len || crc32(payload.as_bytes()) != crc {
        return None;
    }
    Some(payload)
}

/// A crash-safe on-disk audit sink.
///
/// Each record is written as one line: an 8-hex-digit payload length, an
/// 8-hex-digit CRC-32 of the payload, then the JSONL payload. On
/// [`open`](DurableAuditSink::open) a sequential recovery scan validates
/// the file front-to-back and truncates at the first frame that is short,
/// fails its CRC, or is missing its terminating newline — a torn tail
/// from a crash mid-write can therefore never corrupt later reads, and no
/// record before the tear is lost. Files rotate at
/// [`WalConfig::max_file_bytes`] to `<path>.1`, `<path>.2`, ….
///
/// Appends are best-effort, matching [`JsonlAuditSink`]: I/O errors are
/// counted ([`write_errors`](DurableAuditSink::write_errors)) rather than
/// propagated, so a full disk degrades auditing without taking the
/// detector down.
#[derive(Debug)]
pub struct DurableAuditSink {
    path: PathBuf,
    config: WalConfig,
    state: Mutex<DurableState>,
    write_errors: AtomicU64,
    rotations: AtomicU64,
    m_rotations: Counter,
    m_wal_bytes: Gauge,
    m_write_errors: Counter,
}

#[derive(Debug)]
struct DurableState {
    writer: BufWriter<File>,
    bytes: u64,
    /// The frame being appended, kept so a warm append allocates nothing.
    frame: Vec<u8>,
}

impl DurableAuditSink {
    /// Opens (creating if absent) the audit file at `path` with default
    /// rotation config, after running the recovery scan.
    pub fn open(path: &Path) -> std::io::Result<(DurableAuditSink, RecoveryReport)> {
        DurableAuditSink::open_with(path, WalConfig::default())
    }

    /// [`open`](DurableAuditSink::open) with explicit [`WalConfig`].
    pub fn open_with(
        path: &Path,
        config: WalConfig,
    ) -> std::io::Result<(DurableAuditSink, RecoveryReport)> {
        let report = DurableAuditSink::recover(path)?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        let sink = DurableAuditSink {
            path: path.to_path_buf(),
            config,
            state: Mutex::new(DurableState {
                writer: BufWriter::new(file),
                bytes,
                frame: Vec::with_capacity(LINE_CAPACITY),
            }),
            write_errors: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            m_rotations: Counter::noop(),
            m_wal_bytes: Gauge::noop(),
            m_write_errors: Counter::noop(),
        };
        Ok((sink, report))
    }

    /// Publishes the sink's rotation/size/error accounting to `registry`:
    /// `audit.rotations` and `audit.write_errors` counters, and an
    /// `audit.wal_bytes` gauge tracking the active file's size. The gauge
    /// is seeded with the recovered file's current size.
    pub fn with_registry(mut self, registry: &Registry) -> DurableAuditSink {
        self.m_rotations = registry.counter("audit.rotations");
        self.m_wal_bytes = registry.gauge("audit.wal_bytes");
        self.m_write_errors = registry.counter("audit.write_errors");
        let bytes = self.state.lock().expect("audit state poisoned").bytes;
        self.m_wal_bytes.set(bytes as i64);
        self
    }

    /// The recovery scan: walks the frames front-to-back and truncates the
    /// file at the first invalid one. Returns what it found; a missing
    /// file is an empty, un-torn log.
    pub fn recover(path: &Path) -> std::io::Result<RecoveryReport> {
        let data = match std::fs::read(path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(RecoveryReport::default())
            }
            Err(e) => return Err(e),
        };
        let (valid_records, valid_bytes) = scan_valid_prefix(&data);
        if valid_bytes < data.len() {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_bytes as u64)?;
            Ok(RecoveryReport {
                valid_records,
                truncated_bytes: (data.len() - valid_bytes) as u64,
                torn: true,
            })
        } else {
            Ok(RecoveryReport {
                valid_records,
                truncated_bytes: 0,
                torn: false,
            })
        }
    }

    /// Reads every valid record from an audit file (stops at the first
    /// invalid frame without modifying the file).
    pub fn read_records(path: &Path) -> std::io::Result<Vec<AuditRecord>> {
        let data = std::fs::read(path)?;
        let text = String::from_utf8_lossy(&data);
        let mut records = Vec::new();
        for line in text.lines() {
            let Some(payload) = unframe_line(line) else {
                break;
            };
            let Ok(record) = AuditRecord::from_jsonl(payload) else {
                break;
            };
            records.push(record);
        }
        Ok(records)
    }

    /// Appends that failed with an I/O error (the records were dropped).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Size-based rotations performed so far.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// The active file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn rotate(&self, state: &mut DurableState) -> std::io::Result<()> {
        state.writer.flush()?;
        if self.config.keep > 0 {
            let _ = std::fs::remove_file(rotated_path(&self.path, self.config.keep));
        }
        for i in (1..self.config.keep).rev() {
            let from = rotated_path(&self.path, i);
            let to = rotated_path(&self.path, i + 1);
            if from.exists() {
                std::fs::rename(&from, &to)?;
            }
        }
        if self.config.keep > 0 {
            std::fs::rename(&self.path, rotated_path(&self.path, 1))?;
        } else {
            std::fs::remove_file(&self.path)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        state.writer = BufWriter::new(file);
        state.bytes = 0;
        self.rotations.fetch_add(1, Ordering::Relaxed);
        self.m_rotations.inc();
        self.m_wal_bytes.set(0);
        Ok(())
    }
}

/// `<path>.N` rotation name (`audit.jsonl` → `audit.jsonl.1`).
fn rotated_path(path: &Path, n: usize) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".{n}"));
    PathBuf::from(os)
}

/// Returns `(records, bytes)` of the longest valid frame prefix of `data`.
fn scan_valid_prefix(data: &[u8]) -> (u64, usize) {
    let mut offset = 0usize;
    let mut records = 0u64;
    while offset < data.len() {
        let rest = &data[offset..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            break; // no terminating newline: torn final frame
        };
        let Ok(line) = std::str::from_utf8(&rest[..nl]) else {
            break;
        };
        if unframe_line(line).is_none() {
            break;
        }
        offset += nl + 1;
        records += 1;
    }
    (records, offset)
}

impl AuditSink for DurableAuditSink {
    fn append(&self, record: &AuditRecord) {
        let mut guard = self.state.lock().expect("audit state poisoned");
        let state = &mut *guard;
        frame_into(&mut state.frame, |payload| record.write_jsonl(payload));
        // Best-effort, like JsonlAuditSink — but each frame is flushed so
        // a crash can tear at most the final record, which the recovery
        // scan then truncates.
        let ok = state
            .writer
            .write_all(&state.frame)
            .and_then(|()| state.writer.flush())
            .is_ok();
        if !ok {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            self.m_write_errors.inc();
            return;
        }
        state.bytes += state.frame.len() as u64;
        self.m_wal_bytes.set(state.bytes as i64);
        if state.bytes > self.config.max_file_bytes {
            if let Err(_e) = self.rotate(state) {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                self.m_write_errors.inc();
            }
        }
    }
}

/// The audit log: assigns sequence numbers and fans records to a sink.
pub struct AuditLog {
    seq: AtomicU64,
    sink: Arc<dyn AuditSink>,
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditLog")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl AuditLog {
    /// A log writing through `sink`.
    pub fn new(sink: Arc<dyn AuditSink>) -> AuditLog {
        AuditLog {
            seq: AtomicU64::new(0),
            sink,
        }
    }

    /// A log that discards everything (sequence numbers still advance).
    pub fn disabled() -> AuditLog {
        AuditLog::new(Arc::new(NullAuditSink))
    }

    /// Stamps `record` with the next sequence number, appends it, and
    /// returns the assigned number.
    pub fn record(&self, mut record: AuditRecord) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        self.sink.append(&record);
        seq
    }

    /// Records issued so far.
    pub fn len(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// True before the first record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::Serialize;

    // The serde rendering the single-pass writer replaced, kept as the
    // oracle its lines must equal byte for byte.
    impl Serialize for AuditRecord {
        fn serialize(&self) -> Content {
            let mut map: Vec<(Content, Content)> = Vec::with_capacity(16);
            let mut push = |name: &str, value: Content| {
                map.push((Content::Str(name.to_string()), value));
            };
            push("seq", self.seq.serialize());
            push("app", self.app.serialize());
            push("session", self.session.serialize());
            push("epoch", self.epoch.serialize());
            push("flag", self.flag.serialize());
            push("window", self.window.serialize());
            push("log_likelihood", self.log_likelihood.serialize());
            push("threshold", self.threshold.serialize());
            push("detail", self.detail.serialize());
            push("kernel", self.kernel.serialize());
            push("label", self.label.serialize());
            push("bid", self.bid.serialize());
            if let Some(forensics) = &self.forensics {
                push("forensics", forensics.serialize());
            }
            if let Some(tier) = &self.tier {
                push("tier", tier.serialize());
            }
            if let Some(escalation) = &self.escalation {
                push("escalation", escalation.serialize());
            }
            Content::Map(map)
        }
    }

    /// Characters of generated text: quotes, backslashes, the named
    /// escapes, other control characters (DEL is not one), non-ASCII text
    /// and plain ASCII.
    const CHARS: [char; 19] = [
        'a', 'Q', '_', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1b}', '\u{1f}',
        '\u{7f}', 'é', 'ß', '漢', '🦀',
    ];

    /// Integral, negative-zero, non-finite and extreme floats.
    const FLOATS: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -42.0,
        -42.5,
        0.1,
        1e21,
        -1e-7,
        123_456_789.0,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -30.000_000_000_000_004,
    ];

    /// Generates audit records whose every field varies independently.
    struct Records;

    impl Records {
        fn text(rng: &mut proptest::TestRng) -> String {
            prop::collection::vec(0..CHARS.len(), 0..12)
                .prop_map(|ids| ids.into_iter().map(|i| CHARS[i]).collect())
                .generate(rng)
        }

        fn float(rng: &mut proptest::TestRng) -> f64 {
            (any::<bool>(), 0..FLOATS.len(), any::<f64>())
                .prop_map(|(special, i, x)| if special { FLOATS[i] } else { x })
                .generate(rng)
        }

        fn maybe<T>(
            rng: &mut proptest::TestRng,
            make: impl FnOnce(&mut proptest::TestRng) -> T,
        ) -> Option<T> {
            any::<bool>().generate(rng).then(|| make(rng))
        }
    }

    impl Strategy for Records {
        type Value = AuditRecord;

        fn generate(&self, rng: &mut proptest::TestRng) -> AuditRecord {
            use crate::forensics::{DeviantTransition, WindowTrace};
            let window_len = (0..16usize).generate(rng);
            AuditRecord {
                seq: any::<u64>().generate(rng),
                app: Records::text(rng),
                session: Records::text(rng),
                epoch: any::<u64>().generate(rng),
                flag: Records::text(rng),
                window: (0..window_len).map(|_| Records::text(rng)).collect(),
                log_likelihood: Records::float(rng),
                threshold: Records::float(rng),
                detail: Records::text(rng),
                kernel: Records::text(rng),
                label: Records::maybe(rng, Records::text),
                bid: Records::maybe(rng, Records::text),
                forensics: Records::maybe(rng, |rng| ForensicReport {
                    mode: Records::text(rng),
                    window_index: any::<u64>().generate(rng),
                    attributed_log_likelihood: Records::float(rng),
                    top_deviant: (0..(0..3usize).generate(rng))
                        .map(|_| DeviantTransition {
                            step: any::<usize>().generate(rng),
                            call: Records::text(rng),
                            from: Records::maybe(rng, Records::text),
                            log_prob: Records::float(rng),
                            deficit: Records::float(rng),
                        })
                        .collect(),
                    recent_windows: (0..(0..3usize).generate(rng))
                        .map(|_| WindowTrace {
                            index: any::<u64>().generate(rng),
                            log_likelihood: Records::float(rng),
                            threshold: Records::float(rng),
                            delta: Records::float(rng),
                            flag: Records::text(rng),
                        })
                        .collect(),
                }),
                tier: Records::maybe(rng, Records::text),
                escalation: Records::maybe(rng, Records::text),
            }
        }
    }

    proptest! {
        #[test]
        fn single_pass_line_equals_the_serde_rendering(record in Records) {
            let oracle = serde_json::to_string(&record).unwrap();
            prop_assert_eq!(record.to_jsonl(), oracle.clone());
            // Appending to a non-empty buffer writes the same bytes after it.
            let mut out = b"prefix".to_vec();
            record.write_jsonl(&mut out);
            prop_assert_eq!(&out[6..], oracle.as_bytes());
        }
    }

    fn leak_record() -> AuditRecord {
        AuditRecord {
            seq: 0,
            app: "order-portal".into(),
            session: "conn-7".into(),
            epoch: 1,
            flag: "DATA-LEAK".into(),
            window: vec!["PQexec".into(), "printf_Q6".into()],
            log_likelihood: -42.5,
            threshold: -30.0,
            detail: "anomalous sequence contains labeled output `printf_Q6`".into(),
            kernel: "dense".into(),
            label: Some("printf_Q6".into()),
            bid: Some("6".into()),
            forensics: None,
            tier: None,
            escalation: None,
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let record = leak_record();
        let line = record.to_jsonl();
        assert!(!line.contains('\n'));
        let parsed = AuditRecord::from_jsonl(&line).unwrap();
        assert_eq!(parsed, record);
    }

    /// [`leak_record`] explained by a one-step forensic report.
    fn explained_record() -> AuditRecord {
        use crate::forensics::{DeviantTransition, ForensicReport, WindowTrace};
        let mut record = leak_record();
        record.forensics = Some(ForensicReport {
            mode: "exact_windows".into(),
            window_index: 2,
            attributed_log_likelihood: -42.5,
            top_deviant: vec![DeviantTransition {
                step: 1,
                call: "printf_Q6".into(),
                from: Some("PQexec".into()),
                log_prob: -40.0,
                deficit: -25.0,
            }],
            recent_windows: vec![WindowTrace {
                index: 2,
                log_likelihood: -42.5,
                threshold: -30.0,
                delta: -12.5,
                flag: "DATA-LEAK".into(),
            }],
        });
        record
    }

    #[test]
    fn forensics_field_round_trips_and_old_lines_still_parse() {
        let record = explained_record();
        let line = record.to_jsonl();
        assert!(line.contains("\"forensics\""));
        let parsed = AuditRecord::from_jsonl(&line).unwrap();
        assert_eq!(parsed, record);

        // Records without forensics omit the key entirely…
        let plain = leak_record();
        assert!(!plain.to_jsonl().contains("forensics"));
        // …and a pre-forensics line (no such key at all) still parses.
        let legacy = r#"{"seq":3,"app":"a","session":"s","epoch":1,"flag":"ANOMALOUS","window":["x"],"log_likelihood":-9.0,"threshold":-5.0,"detail":"d","kernel":"dense","label":null,"bid":null}"#;
        let parsed = AuditRecord::from_jsonl(legacy).unwrap();
        assert_eq!(parsed.seq, 3);
        assert_eq!(parsed.forensics, None);
        assert_eq!(parsed.tier, None);
        assert_eq!(parsed.escalation, None);
    }

    /// A JSONL line's parsed value tree.
    struct Tree(Content);

    impl Deserialize for Tree {
        fn deserialize(v: &Content) -> Result<Tree, DeError> {
            Ok(Tree(v.clone()))
        }
    }

    /// The value of `object`'s `key`.
    fn field<'a>(object: &'a Content, key: &str) -> &'a Content {
        let entries = object.as_map().expect("a JSON object");
        let entry = entries.iter().find(|(k, _)| k.as_str() == Some(key));
        &entry.unwrap_or_else(|| panic!("no `{key}`")).1
    }

    /// The keys of a JSON object.
    fn keys(object: &Content) -> Vec<&str> {
        let entries = object.as_map().expect("a JSON object");
        entries.iter().filter_map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn forensic_jsonl_carries_the_report_step_and_window_keys() {
        let Tree(line) = serde_json::from_str(&explained_record().to_jsonl()).unwrap();
        let report = field(&line, "forensics");
        assert_eq!(
            keys(report),
            [
                "mode",
                "window_index",
                "attributed_log_likelihood",
                "top_deviant",
                "recent_windows"
            ]
        );
        for step in field(report, "top_deviant").as_seq().unwrap() {
            assert_eq!(keys(step), ["step", "call", "from", "log_prob", "deficit"]);
        }
        let windows = field(report, "recent_windows").as_seq().unwrap();
        assert!(!windows.is_empty(), "the per-window delta series");
        for window in windows {
            assert_eq!(
                keys(window),
                ["index", "log_likelihood", "threshold", "delta", "flag"]
            );
        }
    }

    #[test]
    fn tier_provenance_round_trips_and_is_omitted_when_absent() {
        let mut record = leak_record();
        record.tier = Some("spot".into());
        record.escalation = Some("alarm raised below full tier".into());
        let line = record.to_jsonl();
        assert!(line.contains("\"tier\":\"spot\""));
        let parsed = AuditRecord::from_jsonl(&line).unwrap();
        assert_eq!(parsed, record);
        // Unstamped records keep the keys out of the line entirely.
        let plain = leak_record();
        let line = plain.to_jsonl();
        assert!(!line.contains("tier"));
        assert!(!line.contains("escalation"));
    }

    #[test]
    fn none_fields_round_trip() {
        let mut record = leak_record();
        record.label = None;
        record.bid = None;
        record.flag = "ANOMALOUS".into();
        let parsed = AuditRecord::from_jsonl(&record.to_jsonl()).unwrap();
        assert_eq!(parsed, record);
    }

    #[test]
    fn audit_log_assigns_monotonic_sequence_numbers() {
        let sink = Arc::new(MemoryAuditSink::new());
        let log = AuditLog::new(Arc::clone(&sink) as Arc<dyn AuditSink>);
        assert!(log.is_empty());
        for _ in 0..3 {
            log.record(leak_record());
        }
        let records = sink.records();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let sink = JsonlAuditSink::new(Vec::new());
        sink.append(&leak_record());
        sink.append(&leak_record());
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let parsed = AuditRecord::from_jsonl(lines[0]).unwrap();
        assert_eq!(parsed.flag, "DATA-LEAK");
        assert_eq!(parsed.bid.as_deref(), Some("6"));
    }

    #[test]
    fn disabled_log_still_counts() {
        let log = AuditLog::disabled();
        log.record(leak_record());
        assert_eq!(log.len(), 1);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("adprom-audit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        for i in 1..=8 {
            let _ = std::fs::remove_file(super::rotated_path(&path, i));
        }
        path
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise table-driven CRC-32 that preceded slicing-by-8: the
    /// reference the fast path must reproduce exactly.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        // SplitMix64: deterministic filler, no dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        // Every length 0..=64 at every start offset 0..8: all head and
        // tail splits around the 8-byte steps.
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
        // Random buffers up to 4 KiB at random offsets.
        for _ in 0..256 {
            let len = (next() % 4097) as usize;
            let offset = (next() % 8) as usize;
            let slice = &buf[offset..offset + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len}");
        }
    }

    #[test]
    fn durable_sink_round_trips_records() {
        let path = temp_path("roundtrip.wal");
        let (sink, report) = DurableAuditSink::open(&path).unwrap();
        assert_eq!(report, RecoveryReport::default());
        let log = AuditLog::new(Arc::new(sink));
        for _ in 0..5 {
            log.record(leak_record());
        }
        let records = DurableAuditSink::read_records(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(records[0].bid.as_deref(), Some("6"));
    }

    #[test]
    fn recovery_truncates_torn_tail_preserving_prefix() {
        let path = temp_path("torn.wal");
        {
            let (sink, _) = DurableAuditSink::open(&path).unwrap();
            for _ in 0..3 {
                sink.append(&leak_record());
            }
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-write: a frame prefix with half a payload
        // and no newline.
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(b"000000ff deadbeef {\"seq\":99,\"ses");
        std::fs::write(&path, &data).unwrap();

        let (_sink, report) = DurableAuditSink::open(&path).unwrap();
        assert!(report.torn);
        assert_eq!(report.valid_records, 3);
        assert!(report.truncated_bytes > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(DurableAuditSink::read_records(&path).unwrap().len(), 3);
    }

    #[test]
    fn recovery_truncates_at_corrupt_middle_record() {
        let path = temp_path("corrupt.wal");
        {
            let (sink, _) = DurableAuditSink::open(&path).unwrap();
            for _ in 0..4 {
                sink.append(&leak_record());
            }
        }
        // Flip one payload byte in the third frame: its CRC no longer
        // matches, so recovery keeps only the first two records (the rest
        // of the file is untrusted once framing is broken).
        let mut data = std::fs::read(&path).unwrap();
        let frame_len = data.len() / 4;
        let victim = 2 * frame_len + super::FRAME_PREFIX + 4;
        data[victim] ^= 0x20;
        std::fs::write(&path, &data).unwrap();

        let (_sink, report) = DurableAuditSink::open(&path).unwrap();
        assert!(report.torn);
        assert_eq!(report.valid_records, 2);
        assert_eq!(DurableAuditSink::read_records(&path).unwrap().len(), 2);
    }

    #[test]
    fn appends_after_recovery_continue_the_log() {
        let path = temp_path("continue.wal");
        {
            let (sink, _) = DurableAuditSink::open(&path).unwrap();
            sink.append(&leak_record());
        }
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(b"garbage tail");
        std::fs::write(&path, &data).unwrap();
        {
            let (sink, report) = DurableAuditSink::open(&path).unwrap();
            assert!(report.torn);
            sink.append(&leak_record());
        }
        assert_eq!(DurableAuditSink::read_records(&path).unwrap().len(), 2);
    }

    #[test]
    fn rotation_keeps_bounded_history() {
        let path = temp_path("rotate.wal");
        let config = WalConfig {
            max_file_bytes: 1, // rotate after every record
            keep: 2,
        };
        let (sink, _) = DurableAuditSink::open_with(&path, config).unwrap();
        for _ in 0..5 {
            sink.append(&leak_record());
        }
        assert_eq!(sink.rotations(), 5);
        assert_eq!(sink.write_errors(), 0);
        // Active file is empty (just rotated); .1 and .2 hold one record
        // each; .3 was deleted.
        assert_eq!(DurableAuditSink::read_records(&path).unwrap().len(), 0);
        for i in 1..=2 {
            let records = DurableAuditSink::read_records(&super::rotated_path(&path, i)).unwrap();
            assert_eq!(records.len(), 1, "rotation .{i}");
        }
        assert!(!super::rotated_path(&path, 3).exists());
    }

    #[test]
    fn rotation_and_size_are_visible_in_the_registry() {
        let path = temp_path("rotate-metrics.wal");
        let registry = Registry::new();
        let config = WalConfig {
            max_file_bytes: 1, // rotate after every record
            keep: 2,
        };
        let (sink, _) = DurableAuditSink::open_with(&path, config).unwrap();
        let sink = sink.with_registry(&registry);
        for _ in 0..3 {
            sink.append(&leak_record());
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("audit.rotations"), Some(3));
        assert_eq!(snap.counter("audit.write_errors"), Some(0));
        // Every append rotated immediately, so the active WAL is empty
        // again and the gauge reflects that.
        assert_eq!(snap.gauge("audit.wal_bytes"), Some(0));

        // One more append without rotation pressure: the gauge tracks the
        // live file size.
        let path2 = temp_path("size-metrics.wal");
        let registry2 = Registry::new();
        let (sink2, _) = DurableAuditSink::open(&path2).unwrap();
        let sink2 = sink2.with_registry(&registry2);
        sink2.append(&leak_record());
        let written = std::fs::metadata(&path2).unwrap().len();
        assert!(written > 0);
        assert_eq!(
            registry2.snapshot().gauge("audit.wal_bytes"),
            Some(written as i64)
        );
    }

    #[test]
    fn wal_with_a_line_from_the_retired_beam_tier_still_loads() {
        // A framed line as older writers produced it: the retired `beam`
        // tier, its escalation text and its score-bound key. The reader
        // stops at the first line it cannot parse, so rejecting the old
        // line would silently drop every record after it.
        let path = temp_path("legacy-tier.wal");
        let legacy = r#"{"seq":7,"app":"a","session":"s","epoch":1,"flag":"ANOMALOUS","window":["x"],"log_likelihood":-9.0,"threshold":-5.0,"detail":"d","kernel":"sparse","label":null,"bid":null,"tier":"beam","escalation":"pruned score within gap bound of threshold","gap_bound_micronats":1234}"#;
        std::fs::write(&path, super::frame_record(legacy)).unwrap();
        let mut current = leak_record();
        current.tier = Some("spot".into());
        current.escalation = Some("alarm raised below full tier".into());
        {
            let (sink, report) = DurableAuditSink::open(&path).unwrap();
            assert_eq!(report.valid_records, 1);
            sink.append(&current);
        }
        let report = DurableAuditSink::recover(&path).unwrap();
        assert!(!report.torn);
        assert_eq!(report.valid_records, 2);
        let records = DurableAuditSink::read_records(&path).unwrap();
        assert_eq!(records.len(), 2, "the old line must not end the log");
        assert_eq!(records[0].seq, 7);
        assert_eq!(records[0].tier.as_deref(), Some("beam"));
        assert_eq!(
            records[0].escalation.as_deref(),
            Some("pruned score within gap bound of threshold")
        );
        assert_eq!(records[1], current);
    }

    #[test]
    fn frame_rejects_tampered_length_and_crc() {
        let json = leak_record().to_jsonl();
        let framed = super::frame_record(&json);
        let line = framed.trim_end_matches('\n');
        assert!(super::unframe_line(line).is_some());
        // Wrong length.
        let mut bad = line.to_string();
        bad.replace_range(0..8, "00000001");
        assert!(super::unframe_line(&bad).is_none());
        // Wrong CRC.
        let mut bad = line.to_string();
        bad.replace_range(9..17, "00000000");
        assert!(super::unframe_line(&bad).is_none());
        // Truncated payload.
        assert!(super::unframe_line(&line[..line.len() - 1]).is_none());
    }
}
