//! Allocation pins for the framed ingest path and the durable audit
//! append. Once a frame's sessions are live,
//! `ShardedMonitor::ingest_frames` screens, routes and digests a clean
//! 256-record frame straight from its bytes. The only allocation left is
//! the decoder's record vector, so the whole frame must cost fewer than 8
//! heap allocations — not one or more per record. A warm
//! `DurableAuditSink::append` writes its record's JSONL line and frame in
//! place in the sink's own buffer, so it must allocate nothing at all.

use adprom::core::{
    encode_frame, Alphabet, Profile, ProfileRegistry, RuntimeConfig, ShardedMonitor,
};
use adprom::hmm::Hmm;
use adprom::lang::{CallSiteId, LibCall};
use adprom::obs::{AuditRecord, AuditSink, DurableAuditSink};
use adprom::trace::{CallEvent, TaggedCall};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread. Const-initialized and free of
    /// destructors, so reading it never allocates; per-thread, so tests
    /// running in parallel cannot disturb each other's counts.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation on
/// the calling thread.
struct CountingAllocator;

fn count_one() {
    // `try_with`: the slot may already be gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract passes through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through this type) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` makes on this thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The cyclic a→b→c toy profile from the service equivalence suite.
fn cyclic_profile(app: &str) -> Profile {
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
    let mut hmm = Hmm::from_rows(a, b, vec![1.0; m]);
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
        threshold: -5.0,
        call_callers,
        labeled_outputs: vec!["c_Q7".to_string()],
    }
}

/// One clean frame of 256 in-vocabulary, in-context records spread over
/// 32 sessions of two apps (16 each).
fn clean_frame() -> Vec<u8> {
    const NAMES: [&str; 3] = ["a", "b", "c_Q7"];
    let records: Vec<TaggedCall> = (0..256)
        .map(|i| TaggedCall {
            app: if i % 2 == 0 { "bank" } else { "shop" }.to_string(),
            session: format!("s-{}", i % 32),
            event: CallEvent {
                name: NAMES[(i / 32) % 3].into(),
                call: LibCall::Printf,
                caller: "main".into(),
                site: CallSiteId(3),
                detail: None,
            },
        })
        .collect();
    encode_frame(&records)
}

#[test]
fn warm_clean_frame_ingests_with_fewer_than_8_allocations() {
    let profiles = ProfileRegistry::new();
    profiles.register("bank", cyclic_profile("bank")).unwrap();
    profiles.register("shop", cyclic_profile("shop")).unwrap();
    let mut monitor = ShardedMonitor::new(Arc::new(profiles), 2).with_config(RuntimeConfig {
        queue_capacity: 0,
        ..RuntimeConfig::default()
    });
    let frame = clean_frame();

    // Warm-up: open every session and grow every buffer once.
    let warm = monitor.ingest_frames(&frame);
    assert_eq!((warm.frames, warm.admitted), (1, 256));
    monitor.flush_all();

    let (allocations, ingest) = allocations_during(|| monitor.ingest_frames(&frame));
    assert_eq!(
        (ingest.frames, ingest.records, ingest.admitted),
        (1, 256, 256)
    );
    assert!(ingest.quarantined.is_empty() && ingest.frame_defects.is_empty());
    assert!(
        allocations < 8,
        "re-ingesting a warm 256-record frame made {allocations} heap allocations"
    );
    assert_eq!(monitor.finish().len(), 32);
}

#[test]
fn warm_durable_audit_append_makes_no_allocation() {
    let dir = std::env::temp_dir().join(format!("adprom-frame-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("audit.wal");
    let _ = std::fs::remove_file(&path);
    let (sink, _) = DurableAuditSink::open(&path).unwrap();
    // A DataLeak alarm over a 15-call window, without forensics.
    let record = AuditRecord {
        seq: 41,
        app: "bank".into(),
        session: "teller-7".into(),
        epoch: 3,
        flag: "DATA-LEAK".into(),
        window: (0..15).map(|i| format!("mysql_fetch_row_{i}")).collect(),
        log_likelihood: -28.31,
        threshold: -26.0,
        detail: "anomalous sequence contains labeled output `printf_Q103`".into(),
        kernel: "sparse".into(),
        label: Some("printf_Q103".into()),
        bid: Some("103".into()),
        forensics: None,
        tier: Some("full".into()),
        escalation: None,
    };

    // Warm-up: grows the sink's frame buffer once.
    sink.append(&record);
    let (allocations, ()) = allocations_during(|| sink.append(&record));
    assert_eq!(
        allocations, 0,
        "a warm durable audit append made {allocations} heap allocations"
    );
    assert_eq!(sink.write_errors(), 0);
    assert_eq!(
        DurableAuditSink::read_records(&path).unwrap(),
        vec![record.clone(), record]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
