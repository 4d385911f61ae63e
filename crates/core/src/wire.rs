//! Compact binary ingest format for the sharded monitoring service.
//!
//! A collector agent ships `(app, session, event)` records to the monitor
//! as length-framed batches, reusing the WAL framing discipline proven by
//! [`DurableAuditSink`](adprom_obs::DurableAuditSink) — a textual
//! `{len} {crc32} ` prefix guarding an opaque payload — with two service
//! adaptations: a 4-byte magic (`ADP1`) in front of the prefix so a
//! decoder can resynchronize past a corrupt frame instead of truncating
//! at it, and a binary payload (the WAL carries JSONL).
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic "ADP1" (format version folded into the last byte)
//!      4     8  payload length, 8 ASCII hex digits (lowercase)
//!     12     1  ' '
//!     13     8  CRC-32 (IEEE) of the payload, 8 ASCII hex digits
//!     21     1  ' '
//!     22   len  payload (binary, see below)
//! 22+len     1  '\n' frame terminator
//! ```
//!
//! ## Payload layout (all integers little-endian)
//!
//! ```text
//! u32               record count
//! per record:
//!   u16 + bytes     app id (UTF-8)
//!   u16 + bytes     session id
//!   u16 + bytes     observation name (raw call name or DDG label)
//!   u8              library call, as an index into LibCall::ALL
//!   u16 + bytes     caller function
//!   u32             call site id
//!   u8              detail flag (0 = none, 1 = present)
//!   [u16 + bytes]   detail payload, when the flag is 1
//! ```
//!
//! ## Decoding discipline
//!
//! [`FrameDecoder`] walks a buffer front to back, yielding one
//! `Ok(Vec<WireRecord>)` per valid frame. Record fields borrow straight
//! out of the buffer (`&str` slices — the decoder never copies payload
//! bytes), and [`ShardedMonitor::ingest_frames`](crate::shard::ShardedMonitor::ingest_frames)
//! screens, routes and digests every record from those borrowed fields:
//! a clean frame for live sessions that triggers no flush costs one
//! allocation, the decoded record vector. Any frame that fails
//! validation — bad magic, torn header, length past the buffer, CRC
//! mismatch, or a payload that does not parse — yields one
//! `Err(`[`FrameDefect`]`)` and the decoder *resynchronizes*: it scans
//! for the next magic and continues, so a single corrupt frame is
//! quarantined without poisoning the frames behind it. (The WAL's
//! recovery scan truncates at the first bad frame instead; an
//! append-only log wants the clean-prefix guarantee, a wire decoder
//! wants maximum salvage.) Defective frames are *reported*, never
//! silently skipped — the service routes them through the same
//! quarantine accounting as [`TraceValidator`](adprom_trace::TraceValidator).

use adprom_lang::{CallSiteId, LibCall};
use adprom_obs::crc32;
use adprom_trace::{CallEvent, TaggedCall};
use std::fmt;

/// Frame magic: `ADP` + format version `1`.
pub const WIRE_MAGIC: &[u8; 4] = b"ADP1";

/// Byte length of the frame header: magic + `llllllll cccccccc `.
pub const WIRE_HEADER: usize = 4 + 18;

/// Why one frame (or its payload) failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The bytes at the frame boundary are not [`WIRE_MAGIC`] — garbage
    /// between frames, or a corrupted magic.
    BadMagic,
    /// The 18-byte `{len} {crc} ` prefix after the magic is malformed
    /// (non-hex digits or missing separators).
    BadHeader,
    /// The header's payload length (plus terminator) runs past the end
    /// of the buffer — a torn tail or a corrupted length field.
    Truncated,
    /// The frame is missing its `\n` terminator.
    BadTerminator,
    /// The payload's CRC-32 does not match the header.
    CrcMismatch {
        /// CRC the header claims.
        expected: u32,
        /// CRC of the payload bytes actually present.
        actual: u32,
    },
    /// The payload passed its CRC but does not parse as a record batch
    /// (an encoder/decoder version skew, never in-flight corruption).
    BadPayload(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadHeader => write!(f, "malformed frame header"),
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadTerminator => write!(f, "missing frame terminator"),
            WireError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "payload CRC mismatch (header {expected:08x}, payload {actual:08x})"
                )
            }
            WireError::BadPayload(reason) => write!(f, "bad payload: {reason}"),
        }
    }
}

/// One frame the decoder could not validate: where it started and why it
/// was rejected. The decoder has already resynchronized past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDefect {
    /// Byte offset (into the decoded buffer) where the bad frame began.
    pub offset: usize,
    /// What failed.
    pub reason: WireError,
}

/// One `(app, session, event)` record, borrowed zero-copy from the
/// frame buffer — or from a [`TaggedCall`] (`WireRecord::from`), which
/// is how the runtime's one per-record ingest core also serves
/// pre-tagged events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRecord<'a> {
    /// Application id.
    pub app: &'a str,
    /// Session id.
    pub session: &'a str,
    /// Observation name (raw call name, or DDG label like `printf_Q6`).
    pub name: &'a str,
    /// The underlying library call.
    pub call: LibCall,
    /// The function that issued the call.
    pub caller: &'a str,
    /// Call site id.
    pub site: u32,
    /// Optional extension payload (query signature, file path, …).
    pub detail: Option<&'a str>,
}

impl WireRecord<'_> {
    /// Materializes the record as an owned [`TaggedCall`] (two `String`s
    /// and two `Arc<str>`s, plus the detail), for callers that keep
    /// records past the frame buffer or compose the ingest pieces
    /// themselves. Framed ingest never calls it.
    pub fn to_tagged(&self) -> TaggedCall {
        TaggedCall {
            app: self.app.to_string(),
            session: self.session.to_string(),
            event: CallEvent {
                name: self.name.into(),
                call: self.call,
                caller: self.caller.into(),
                site: CallSiteId(self.site),
                detail: self.detail.map(str::to_string),
            },
        }
    }
}

impl<'a> From<&'a TaggedCall> for WireRecord<'a> {
    fn from(tagged: &'a TaggedCall) -> WireRecord<'a> {
        WireRecord {
            app: &tagged.app,
            session: &tagged.session,
            name: &tagged.event.name,
            call: tagged.event.call,
            caller: &tagged.event.caller,
            site: tagged.event.site.0,
            detail: tagged.event.detail.as_deref(),
        }
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("wire strings are shorter than 64 KiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes one batch of tagged events as a single frame, appended to
/// `out`. An empty batch is a valid (heartbeat) frame.
pub fn encode_frame_into(batch: &[TaggedCall], out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(32 * batch.len() + 4);
    payload.extend_from_slice(
        &u32::try_from(batch.len())
            .expect("batch fits u32")
            .to_le_bytes(),
    );
    for tagged in batch {
        push_str(&mut payload, &tagged.app);
        push_str(&mut payload, &tagged.session);
        push_str(&mut payload, &tagged.event.name);
        // LibCall is fieldless and ALL is in declaration order, so the
        // discriminant doubles as the table index.
        payload.push(tagged.event.call as u8);
        push_str(&mut payload, &tagged.event.caller);
        payload.extend_from_slice(&tagged.event.site.0.to_le_bytes());
        match &tagged.event.detail {
            Some(detail) => {
                payload.push(1);
                push_str(&mut payload, detail);
            }
            None => payload.push(0),
        }
    }
    out.extend_from_slice(WIRE_MAGIC);
    out.extend_from_slice(format!("{:08x} {:08x} ", payload.len(), crc32(&payload)).as_bytes());
    out.extend_from_slice(&payload);
    out.push(b'\n');
}

/// Encodes one batch as a standalone frame buffer.
pub fn encode_frame(batch: &[TaggedCall]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(batch, &mut out);
    out
}

/// Encodes a stream as consecutive frames of at most `batch_size` events
/// (`batch_size = 0` puts everything in one frame).
pub fn encode_stream(stream: &[TaggedCall], batch_size: usize) -> Vec<u8> {
    let mut out = Vec::new();
    if batch_size == 0 {
        encode_frame_into(stream, &mut out);
    } else {
        for chunk in stream.chunks(batch_size) {
            encode_frame_into(chunk, &mut out);
        }
    }
    out
}

/// Reads `u16 len + bytes` as a borrowed `&str`, advancing `pos`.
fn read_str<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str, &'static str> {
    let end = pos
        .checked_add(2)
        .filter(|&e| e <= buf.len())
        .ok_or("string length torn")?;
    let len = u16::from_le_bytes([buf[*pos], buf[*pos + 1]]) as usize;
    *pos = end;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or("string runs past payload")?;
    let s = std::str::from_utf8(&buf[*pos..end]).map_err(|_| "string is not UTF-8")?;
    *pos = end;
    Ok(s)
}

/// Decodes one CRC-validated payload into records.
fn decode_payload(payload: &[u8]) -> Result<Vec<WireRecord<'_>>, &'static str> {
    if payload.len() < 4 {
        return Err("payload shorter than the record count");
    }
    let count = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")) as usize;
    let mut pos = 4;
    let mut records = Vec::with_capacity(count.min(payload.len() / 8 + 1));
    for _ in 0..count {
        let app = read_str(payload, &mut pos)?;
        let session = read_str(payload, &mut pos)?;
        let name = read_str(payload, &mut pos)?;
        let call_index = *payload.get(pos).ok_or("call index torn")? as usize;
        pos += 1;
        let call = *LibCall::ALL.get(call_index).ok_or("unknown call index")?;
        let caller = read_str(payload, &mut pos)?;
        let end = pos
            .checked_add(4)
            .filter(|&e| e <= payload.len())
            .ok_or("site id torn")?;
        let site = u32::from_le_bytes(payload[pos..end].try_into().expect("4 bytes"));
        pos = end;
        let flag = *payload.get(pos).ok_or("detail flag torn")?;
        pos += 1;
        let detail = match flag {
            0 => None,
            1 => Some(read_str(payload, &mut pos)?),
            _ => return Err("detail flag is neither 0 nor 1"),
        };
        records.push(WireRecord {
            app,
            session,
            name,
            call,
            caller,
            site,
            detail,
        });
    }
    if pos != payload.len() {
        return Err("trailing bytes after the last record");
    }
    Ok(records)
}

/// Finds the next [`WIRE_MAGIC`] occurrence at or after `from`.
fn find_magic(buf: &[u8], from: usize) -> Option<usize> {
    if from >= buf.len() {
        return None;
    }
    buf[from..]
        .windows(WIRE_MAGIC.len())
        .position(|w| w == WIRE_MAGIC)
        .map(|i| from + i)
}

/// Zero-copy streaming decoder over a frame buffer. See the module docs
/// for the resynchronization discipline.
#[derive(Debug, Clone)]
pub struct FrameDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameDecoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> FrameDecoder<'a> {
        FrameDecoder { buf, pos: 0 }
    }

    /// Current byte offset (start of the next frame candidate).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Rejects the frame at `at` and repositions at the next magic after
    /// it (or the end of the buffer).
    fn quarantine(&mut self, at: usize, reason: WireError) -> FrameDefect {
        self.pos = find_magic(self.buf, at + 1).unwrap_or(self.buf.len());
        FrameDefect { offset: at, reason }
    }

    /// Attempts to decode the frame starting exactly at `self.pos`
    /// (magic already verified). On success advances past the frame.
    fn decode_at(&mut self) -> Result<Vec<WireRecord<'a>>, FrameDefect> {
        let at = self.pos;
        let header = &self.buf[at..];
        if header.len() < WIRE_HEADER {
            return Err(self.quarantine(at, WireError::Truncated));
        }
        let prefix = &header[4..WIRE_HEADER];
        if prefix[8] != b' ' || prefix[17] != b' ' {
            return Err(self.quarantine(at, WireError::BadHeader));
        }
        // Strict canonical hex: exactly the lowercase digits the encoder
        // emits. `from_str_radix` would also accept uppercase and a
        // leading `+`, which would let some single-byte header
        // corruptions alias back to a valid parse — the corruption
        // proptest requires every flipped byte to be detected.
        let hex = |bytes: &[u8]| -> Option<u32> {
            let mut value: u32 = 0;
            for &b in bytes {
                let digit = match b {
                    b'0'..=b'9' => b - b'0',
                    b'a'..=b'f' => b - b'a' + 10,
                    _ => return None,
                };
                value = (value << 4) | u32::from(digit);
            }
            Some(value)
        };
        let (len, crc) = match (hex(&prefix[0..8]), hex(&prefix[9..17])) {
            (Some(len), Some(crc)) => (len as usize, crc),
            _ => return Err(self.quarantine(at, WireError::BadHeader)),
        };
        let payload_start = at + WIRE_HEADER;
        let frame_end = match payload_start.checked_add(len) {
            Some(end) if end < self.buf.len() => end, // end itself is the terminator index
            Some(end) if end == self.buf.len() => {
                return Err(self.quarantine(at, WireError::BadTerminator));
            }
            _ => return Err(self.quarantine(at, WireError::Truncated)),
        };
        if self.buf[frame_end] != b'\n' {
            return Err(self.quarantine(at, WireError::BadTerminator));
        }
        let payload = &self.buf[payload_start..frame_end];
        let actual = crc32(payload);
        if actual != crc {
            return Err(self.quarantine(
                at,
                WireError::CrcMismatch {
                    expected: crc,
                    actual,
                },
            ));
        }
        match decode_payload(payload) {
            Ok(records) => {
                // Frame boundaries were CRC-clean, so resume right after
                // it even when the payload itself failed to parse.
                self.pos = frame_end + 1;
                Ok(records)
            }
            Err(reason) => {
                self.pos = frame_end + 1;
                Err(FrameDefect {
                    offset: at,
                    reason: WireError::BadPayload(reason),
                })
            }
        }
    }
}

impl<'a> Iterator for FrameDecoder<'a> {
    type Item = Result<Vec<WireRecord<'a>>, FrameDefect>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.buf.len() {
            return None;
        }
        if !self.buf[self.pos..].starts_with(WIRE_MAGIC) {
            let at = self.pos;
            return Some(Err(self.quarantine(at, WireError::BadMagic)));
        }
        Some(self.decode_at())
    }
}

/// Decodes an entire buffer: `(batches, defects)`. Convenience wrapper
/// over [`FrameDecoder`] for callers that do not stream.
pub fn decode_frames(buf: &[u8]) -> (Vec<Vec<WireRecord<'_>>>, Vec<FrameDefect>) {
    let mut batches = Vec::new();
    let mut defects = Vec::new();
    for item in FrameDecoder::new(buf) {
        match item {
            Ok(batch) => batches.push(batch),
            Err(defect) => defects.push(defect),
        }
    }
    (batches, defects)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged(app: &str, session: &str, name: &str, call: LibCall) -> TaggedCall {
        TaggedCall {
            app: app.to_string(),
            session: session.to_string(),
            event: CallEvent {
                name: name.into(),
                call,
                caller: "main".into(),
                site: CallSiteId(7),
                detail: (name == "PQexec").then(|| "SELECT ?".to_string()),
            },
        }
    }

    fn demo_batch() -> Vec<TaggedCall> {
        vec![
            tagged("bank", "s-0", "PQexec", LibCall::PQexec),
            tagged("bank", "s-1", "printf_Q6", LibCall::Printf),
            tagged("shop", "s-0", "fwrite", LibCall::Fwrite),
        ]
    }

    fn assert_round_trips(batch: &[TaggedCall]) {
        let bytes = encode_frame(batch);
        let (batches, defects) = decode_frames(&bytes);
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(batches.len(), 1);
        let decoded: Vec<TaggedCall> = batches[0].iter().map(WireRecord::to_tagged).collect();
        assert_eq!(decoded, batch);
    }

    #[test]
    fn frame_round_trips_bit_identically() {
        assert_round_trips(&demo_batch());
        assert_round_trips(&[]); // heartbeat frame
    }

    #[test]
    fn borrowing_a_tagged_call_round_trips() {
        for tagged in demo_batch() {
            assert_eq!(WireRecord::from(&tagged).to_tagged(), tagged);
        }
    }

    #[test]
    fn every_call_round_trips_through_its_discriminant() {
        for &call in LibCall::ALL {
            assert_round_trips(&[tagged("app", "s", call.name(), call)]);
        }
    }

    #[test]
    fn stream_chunks_into_frames() {
        let batch = demo_batch();
        let bytes = encode_stream(&batch, 2);
        let (batches, defects) = decode_frames(&bytes);
        assert!(defects.is_empty());
        assert_eq!(batches.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn frame_matches_documented_layout() {
        let bytes = encode_frame(&demo_batch());
        assert_eq!(&bytes[0..4], WIRE_MAGIC);
        assert_eq!(bytes[12], b' ');
        assert_eq!(bytes[21], b' ');
        assert_eq!(*bytes.last().unwrap(), b'\n');
        let len = usize::from_str_radix(std::str::from_utf8(&bytes[4..12]).unwrap(), 16).unwrap();
        assert_eq!(bytes.len(), WIRE_HEADER + len + 1);
    }

    #[test]
    fn corrupt_frame_is_quarantined_without_poisoning_the_next() {
        let good = demo_batch();
        let mut bytes = encode_frame(&good);
        let first_len = bytes.len();
        encode_frame_into(&good[..1], &mut bytes);
        // Flip a payload byte of the first frame.
        bytes[WIRE_HEADER + 3] ^= 0x40;
        let (batches, defects) = decode_frames(&bytes);
        assert_eq!(defects.len(), 1, "{defects:?}");
        assert!(matches!(defects[0].reason, WireError::CrcMismatch { .. }));
        assert_eq!(defects[0].offset, 0);
        assert_eq!(batches.len(), 1, "second frame survives");
        assert_eq!(batches[0][0].to_tagged(), good[0]);
        // The defect's resync landed exactly on the second frame.
        assert_eq!(
            find_magic(&bytes, 1),
            Some(first_len),
            "payload happens to contain no magic"
        );
    }

    #[test]
    fn garbage_between_frames_is_skipped_with_one_defect() {
        let good = demo_batch();
        let mut bytes = b"noise".to_vec();
        encode_frame_into(&good, &mut bytes);
        let (batches, defects) = decode_frames(&bytes);
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].reason, WireError::BadMagic);
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn torn_tail_is_reported_not_panicked() {
        let bytes = encode_frame(&demo_batch());
        for cut in 1..bytes.len() {
            let (batches, defects) = decode_frames(&bytes[..cut]);
            assert!(batches.is_empty(), "cut {cut}");
            assert_eq!(defects.len(), 1, "cut {cut}");
        }
    }

    #[test]
    fn payload_version_skew_is_reported_after_crc_passes() {
        // Hand-build a CRC-valid frame whose payload claims a record the
        // bytes cannot back: structural decode must fail cleanly.
        let payload = 5u32.to_le_bytes().to_vec();
        let mut bytes = WIRE_MAGIC.to_vec();
        bytes.extend_from_slice(
            format!("{:08x} {:08x} ", payload.len(), crc32(&payload)).as_bytes(),
        );
        bytes.extend_from_slice(&payload);
        bytes.push(b'\n');
        let (batches, defects) = decode_frames(&bytes);
        assert!(batches.is_empty());
        assert_eq!(defects.len(), 1);
        assert!(matches!(defects[0].reason, WireError::BadPayload(_)));
    }
}
