//! The sharded service's equivalence contract: the wire format
//! round-trips bit-identically and survives any single-byte corruption
//! with the damage quarantined to one frame; and a [`ShardedMonitor`] at
//! any shard count {1, 2, 4, 8}, per-shard thread count and drive
//! produces exactly the per-session verdicts of the serial scan, merged
//! in deterministic `(shard, arrival)` order — including across a
//! mid-stream cross-shard profile hot-swap. Framed ingest
//! (`ingest_frames`) is pinned to the composition of the public pieces it
//! replaces, on clean, defective, unknown-app and corrupted input.

mod fixtures;
mod oracle;

use adprom::core::{
    decode_frames, encode_stream, FaultPlan, KernelConfig, OverloadConfig, ProfileRegistry,
    RuntimeConfig, ScoringMode, ShardedMonitor,
};
use adprom::core::{FrameDecoder, FrameIngest, IngestStatus, WireRecord};
use adprom::obs::Registry;
use adprom::trace::TraceValidator;
use adprom::trace::{interleave, CallEvent, TaggedCall};
use fixtures::{arb_sessions, cyclic_profile, event};
use oracle::Sweep;
use proptest::prelude::*;
use std::sync::Arc;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
    ))]

    /// Shard-count invariance, through the verdict oracle. At shards
    /// {1, 2, 4, 8} and per-shard scoring threads {1, 4}, under the
    /// serial, partition-parallel and framed drives, in both scoring
    /// modes, the sharded service reports exactly the verdict of scanning
    /// each session alone — across a mid-stream hot-swap — and merges in
    /// the promised shard-major order.
    #[test]
    fn sharded_service_matches_single_runtime(
        sessions in arb_sessions(1..5),
        seed in any::<u64>(),
        swap_pct in 0usize..=100,
    ) {
        let stream = interleave(&sessions, seed | 1);
        let bank_v2 = cyclic_profile("bank", 0.0);
        oracle::check(&Sweep {
            profiles: &[
                ("bank", cyclic_profile("bank", -5.0)),
                ("shop", cyclic_profile("shop", -5.0)),
            ],
            stream: &stream,
            // Sometimes no swap at all.
            swap: (swap_pct < 60).then(|| (stream.len() * swap_pct / 100, "bank", &bank_v2)),
            shards: &[1, 2, 4, 8],
            threads: &[1, 4],
            kernels: &[KernelConfig::Dense],
            modes: &[ScoringMode::Incremental, ScoringMode::ExactWindows],
            queue_capacity: RuntimeConfig::default().queue_capacity,
            faults: &[FaultPlan::disabled()],
            forensics: &[false],
            overloads: &[OverloadConfig::default()],
        })?;
    }

    /// Satellite: the wire format round-trips bit-identically — decoding
    /// recovers every record exactly, and re-encoding the decoded records
    /// reproduces the original buffer byte for byte.
    #[test]
    fn wire_roundtrip_is_bit_identical(
        sessions in arb_sessions(1..5),
        seed in any::<u64>(),
        batch in 1usize..9,
    ) {
        let stream = interleave(&sessions, seed | 1);
        let bytes = encode_stream(&stream, batch);
        let (batches, defects) = decode_frames(&bytes);
        prop_assert!(defects.is_empty(), "{defects:?}");
        let decoded: Vec<TaggedCall> = batches
            .iter()
            .flatten()
            .map(|r| r.to_tagged())
            .collect();
        prop_assert_eq!(&decoded, &stream);
        prop_assert_eq!(encode_stream(&decoded, batch), bytes);
    }

    /// Satellite: any single-byte corruption is detected and quarantined
    /// to the frame containing it — every other frame's records decode
    /// intact, so one bad frame never poisons the frames behind it.
    #[test]
    fn wire_single_byte_corruption_is_detected_and_contained(
        sessions in arb_sessions(1..5),
        seed in any::<u64>(),
        pos in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let stream = interleave(&sessions, seed | 1);
        let batch = 4;
        // Frame start offsets, to identify which frame absorbed the hit.
        let mut frame_spans = Vec::new();
        let mut offset = 0usize;
        for chunk in stream.chunks(batch) {
            let len = encode_stream(chunk, 0).len();
            frame_spans.push((offset, offset + len, chunk.to_vec()));
            offset += len;
        }
        let mut bytes = encode_stream(&stream, batch);
        prop_assert_eq!(bytes.len(), offset);
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;

        let (batches, defects) = decode_frames(&bytes);
        prop_assert!(!defects.is_empty(), "byte {pos} ^ {flip:#x} went undetected");
        let decoded: Vec<Vec<TaggedCall>> = batches
            .iter()
            .map(|b| b.iter().map(|r| r.to_tagged()).collect())
            .collect();
        for (start, end, records) in &frame_spans {
            if pos < *start || pos >= *end {
                prop_assert!(
                    decoded.iter().any(|b| b == records),
                    "undamaged frame [{start}, {end}) lost after byte {pos} ^ {flip:#x}"
                );
            }
        }
    }
}

/// Framed ingest as the public pieces compose it: decode every frame
/// ([`FrameDecoder`]), materialize each record
/// ([`WireRecord::to_tagged`]), screen each frame's records as one-event
/// traces ([`TraceValidator::screen`]), then route every kept record
/// through [`ShardedMonitor::ingest`].
fn composed_ingest(
    service: &mut ShardedMonitor,
    validator: &TraceValidator,
    bytes: &[u8],
) -> FrameIngest {
    let mut report = FrameIngest::default();
    let mut frames: Vec<Vec<TaggedCall>> = Vec::new();
    for item in FrameDecoder::new(bytes) {
        match item {
            Ok(batch) => {
                report.frames += 1;
                report.records += batch.len();
                frames.push(batch.iter().map(WireRecord::to_tagged).collect());
            }
            Err(defect) => report.frame_defects.push(defect),
        }
    }
    for batch in &frames {
        let sessions: Vec<String> = batch.iter().map(|t| t.session.clone()).collect();
        let traces: Vec<Vec<CallEvent>> = batch.iter().map(|t| vec![t.event.clone()]).collect();
        let screened = validator.screen(&sessions, &traces);
        for &idx in &screened.kept_indices {
            match service.ingest(&batch[idx]) {
                IngestStatus::Admitted => report.admitted += 1,
                IngestStatus::Backpressured => {
                    report.admitted += 1;
                    report.backpressured += 1;
                }
                IngestStatus::Shed => report.shed += 1,
                IngestStatus::UnknownApp => report.unknown_app += 1,
            }
        }
        report.quarantined.extend(screened.quarantined);
    }
    report
}

/// The validator's three counters, as `[screened, quarantined, defective]`.
fn validator_counters(registry: &Registry) -> [Option<u64>; 3] {
    let snap = registry.snapshot();
    [
        snap.counter("ingest.traces_screened"),
        snap.counter("ingest.traces_quarantined"),
        snap.counter("ingest.events_defective"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
    ))]

    /// Framed ≡ composed: `ingest_frames` over the wire bytes yields the
    /// reports (and their merge order), the `FrameIngest` (every count,
    /// each quarantined record's index, session and reason, each frame
    /// defect) and the validator counters of the public-piece
    /// composition — at shards {1, 2, 4}, with an unknown app's session,
    /// a control-character record, a malformed `_Q` label, sometimes a
    /// flipped byte, and queue bounds that force mid-frame flushes.
    #[test]
    fn framed_ingest_matches_the_composed_pieces(
        sessions in arb_sessions(1..5),
        seed in any::<u64>(),
        batch in 1usize..9,
        defect_at in (any::<u64>(), any::<u64>()),
        flip in (any::<u64>(), 0u8..=255),
        config_pick in 0usize..3,
    ) {
        let mut sessions = sessions;
        sessions.push((
            "ghost".to_string(),
            "g-0".to_string(),
            vec![event("a", "main"), event("b", "main")],
        ));
        let mut stream = interleave(&sessions, seed | 1);
        for (pos, name) in [(defect_at.0, "bad\u{1}name"), (defect_at.1, "c_Qxx")] {
            let pos = (pos % stream.len() as u64) as usize;
            let mut defective = stream[pos].clone();
            defective.event.name = name.into();
            stream.insert(pos, defective);
        }
        let mut bytes = encode_stream(&stream, batch);
        // A zero flip leaves the bytes clean.
        let at = (flip.0 % bytes.len() as u64) as usize;
        bytes[at] ^= flip.1;
        let config = match config_pick {
            0 => RuntimeConfig::default(),
            1 => RuntimeConfig {
                queue_capacity: 3,
                ..RuntimeConfig::default()
            },
            _ => RuntimeConfig {
                mode: ScoringMode::Incremental,
                overload: adprom::core::OverloadConfig {
                    capacity: 2,
                    ..Default::default()
                },
                ..RuntimeConfig::default()
            },
        };

        for shards in [1usize, 2, 4] {
            let framed_obs = Registry::new();
            let mut framed = ShardedMonitor::new(registry(), shards)
                .with_config(config.clone())
                .with_registry(&framed_obs);
            let framed_ingest = framed.ingest_frames(&bytes);

            let composed_obs = Registry::new();
            let validator = TraceValidator::new().with_registry(&composed_obs);
            let mut composed = ShardedMonitor::new(registry(), shards).with_config(config.clone());
            let composed_ingest = composed_ingest(&mut composed, &validator, &bytes);

            prop_assert_eq!(
                format!("{framed_ingest:?}"),
                format!("{composed_ingest:?}"),
                "FrameIngest drift at shards={}",
                shards
            );
            prop_assert_eq!(
                validator_counters(&framed_obs),
                validator_counters(&composed_obs),
                "validator counter drift at shards={}",
                shards
            );
            prop_assert_eq!(
                format!("{:?}", framed.finish()),
                format!("{:?}", composed.finish()),
                "report drift at shards={}",
                shards
            );
        }
    }
}
