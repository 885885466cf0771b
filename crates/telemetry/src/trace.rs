//! Sampled event-flow span recorder.
//!
//! Every event admitted into the pipeline gets a global sequence
//! number from [`TraceRecorder::admit`]; when tracing is enabled with
//! a 1-in-N sample rate, the layers an event flows through (ingest
//! queue, dispatch bucket, group lock, stage schedule, statement
//! execution) each stamp a [`TraceSpan`] for the sampled seqs. Spans
//! land in a bounded ring and export as Chrome `trace_event` JSON
//! (load into `chrome://tracing` or Perfetto).
//!
//! The disabled path mirrors the histogram gate: one relaxed atomic
//! load and a branch, no clock reads, no allocation. Sampling is
//! deterministic — `seq % N == 0` — so every layer that knows the seq
//! decides independently without threading a token through the
//! pipeline.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default number of retained spans.
pub const DEFAULT_TRACE_RING_CAPACITY: usize = 4096;

/// Span layer name: time spent in the net ingest queue.
pub const LAYER_QUEUE: &str = "queue";
/// Span layer name: dispatch of a batch bucket onto a worker.
pub const LAYER_DISPATCH: &str = "dispatch";
/// Span layer name: base-map group-lock acquisition.
pub const LAYER_LOCK: &str = "lock";
/// Span layer name: one stage pass of the delta/rebuild schedule.
pub const LAYER_STAGE: &str = "stage";
/// Span layer name: one trigger statement execution.
pub const LAYER_STATEMENT: &str = "statement";

/// One recorded span: a named interval attributed to an event seq.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Global event sequence number assigned at admission.
    pub seq: u64,
    /// Pipeline layer (one of the `LAYER_*` constants).
    pub layer: String,
    /// Bounded human-readable context (view, worker, stage, ...).
    pub detail: String,
    /// Start offset in nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Lane id (hashed thread identity) for timeline grouping.
    pub tid: u64,
}

/// Sampled span sink shared by every pipeline layer.
///
/// Always constructed (so admission seqs exist even when tracing is
/// off); [`TraceRecorder::set_enabled`] flips capture on. `record`
/// takes a mutex, but only runs for sampled events, so the lock is
/// off the fast path by construction.
pub struct TraceRecorder {
    enabled: AtomicBool,
    sample_one_in: AtomicU64,
    next_seq: AtomicU64,
    epoch: Instant,
    capacity: usize,
    ring: Mutex<RingState>,
}

struct RingState {
    written: u64,
    spans: Vec<TraceSpan>,
}

impl TraceRecorder {
    /// A disabled recorder sampling 1-in-1. `capacity` is clamped to
    /// at least 1.
    pub fn new(capacity: usize) -> TraceRecorder {
        TraceRecorder {
            enabled: AtomicBool::new(false),
            sample_one_in: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
            epoch: Instant::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(RingState {
                written: 0,
                spans: Vec::new(),
            }),
        }
    }

    /// Turn capture on or off. Seq admission keeps running either way.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether capture is on (one relaxed load — hoist per batch).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sample one event in every `n` (clamped to at least 1).
    pub fn set_sample_one_in(&self, n: u64) {
        self.sample_one_in.store(n.max(1), Ordering::Relaxed);
    }

    /// The current 1-in-N sample rate.
    pub fn sample_one_in(&self) -> u64 {
        self.sample_one_in.load(Ordering::Relaxed)
    }

    /// Claim `n` consecutive event seqs; returns the first. Called
    /// once per batch at admission — every downstream layer derives an
    /// event's seq as `base + position`.
    pub fn admit(&self, n: u64) -> u64 {
        self.next_seq.fetch_add(n, Ordering::Relaxed)
    }

    /// Deterministic sampling decision for one seq.
    pub fn sampled(&self, seq: u64) -> bool {
        self.is_enabled() && seq.is_multiple_of(self.sample_one_in())
    }

    /// Nanoseconds from the recorder epoch to now.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Nanoseconds from the recorder epoch to `at` (0 if earlier).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Push a span into the bounded ring (oldest overwritten first).
    pub fn record(&self, span: TraceSpan) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.spans.len() == self.capacity {
            let idx = (ring.written as usize) % self.capacity;
            ring.spans[idx] = span;
        } else {
            ring.spans.push(span);
        }
        ring.written += 1;
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.ring.lock().expect("trace ring poisoned").written
    }

    /// The retained spans, ordered by start time then seq.
    pub fn dump(&self) -> Vec<TraceSpan> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let mut out = ring.spans.clone();
        out.sort_by_key(|s| (s.start_ns, s.seq));
        out
    }

    /// A lane id for the calling thread, stable for its lifetime.
    pub fn current_tid() -> u64 {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        // Keep it short enough to read in a trace viewer.
        h.finish() % 100_000
    }
}

/// Render spans as Chrome `trace_event` JSON (the "JSON Array Format"
/// wrapped in an object). Timestamps are microseconds with nanosecond
/// precision kept in the fractional part.
pub fn chrome_trace_json(spans: &[TraceSpan]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, &span.layer);
        out.push_str(",\"cat\":\"dbtoaster\",\"ph\":\"X\",\"ts\":");
        push_micros(&mut out, span.start_ns);
        out.push_str(",\"dur\":");
        push_micros(&mut out, span.dur_ns);
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&span.tid.to_string());
        out.push_str(",\"args\":{\"seq\":");
        out.push_str(&span.seq.to_string());
        out.push_str(",\"detail\":");
        push_json_str(&mut out, &span.detail);
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

fn push_micros(out: &mut String, ns: u64) {
    out.push_str(&(ns / 1_000).to_string());
    out.push('.');
    let frac = ns % 1_000;
    out.push_str(&format!("{frac:03}"));
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, layer: &str, start_ns: u64) -> TraceSpan {
        TraceSpan {
            seq,
            layer: layer.to_string(),
            detail: format!("d{seq}"),
            start_ns,
            dur_ns: 10,
            tid: 1,
        }
    }

    #[test]
    fn admission_hands_out_consecutive_seqs() {
        let t = TraceRecorder::new(8);
        assert_eq!(t.admit(3), 0);
        assert_eq!(t.admit(1), 3);
        assert_eq!(t.admit(5), 4);
    }

    #[test]
    fn sampling_is_deterministic_seq_modulo() {
        let t = TraceRecorder::new(8);
        assert!(!t.sampled(0), "disabled recorder samples nothing");
        t.set_enabled(true);
        t.set_sample_one_in(4);
        let picked: Vec<u64> = (0..10).filter(|&s| t.sampled(s)).collect();
        assert_eq!(picked, vec![0, 4, 8]);
        t.set_sample_one_in(0);
        assert_eq!(t.sample_one_in(), 1, "zero clamps to every event");
    }

    #[test]
    fn ring_retains_most_recent_at_capacity() {
        let t = TraceRecorder::new(4);
        for i in 0..10u64 {
            t.record(span(i, LAYER_STAGE, i));
        }
        assert_eq!(t.total_recorded(), 10);
        let dump = t.dump();
        assert_eq!(dump.len(), 4);
        let seqs: Vec<u64> = dump.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first, most recent kept");
    }

    #[test]
    fn chrome_export_renders_micros_and_escapes() {
        let spans = vec![
            TraceSpan {
                seq: 7,
                layer: LAYER_QUEUE.to_string(),
                detail: "say \"hi\"\n".to_string(),
                start_ns: 1_234_567,
                dur_ns: 999,
                tid: 42,
            },
            span(8, LAYER_DISPATCH, 2_000_000),
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"dur\":0.999"));
        assert!(json.contains("\"seq\":7"));
        assert!(json.contains("say \\\"hi\\\"\\n"));
        assert!(json.contains("\"name\":\"dispatch\""));
        assert!(!json.contains('\n'), "escaped output stays single-line");
    }

    #[test]
    fn epoch_relative_clock_is_monotone() {
        let t = TraceRecorder::new(4);
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
        assert_eq!(t.ns_of(t.epoch), 0);
    }
}
