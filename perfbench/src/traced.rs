//! The traced run: replays a workload in-process through the same
//! public calls `dbtoasterd` makes, with a span around each call into a
//! layer, and derives the per-layer metrics from the spans.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbtoaster_common::Event;
use dbtoaster_compiler::{compile_sql, CompileOptions};
use dbtoaster_net::wire::{decode_message, encode_apply_batch, encode_batch};
use dbtoaster_runtime::{ordered_fallback, Engine};
use dbtoaster_server::{AuditMismatch, ShardedDispatcher, ViewServer};

use crate::e2e::READ_INTERVAL;
use crate::json::Json;
use crate::stats::{median, percentile};
use crate::workload::{Workload, OBSERVED_SAMPLE_ONE_IN};

/// Repetitions of the compile and lowering calls.
const COMPILE_REPS: usize = 5;
/// Passes of the feed the traced run replays: one build-up and one
/// wind-down of the state, the traffic mix of the whole feed at a fixed
/// volume.
const REPLAYED_PASSES: usize = 2;
/// Idle `snapshot_all` calls timed.
const IDLE_SNAPSHOTS: usize = 50;

/// One timed call into a layer.
struct Span {
    layer: &'static str,
    name: &'static str,
    thread: u32,
    start_ns: u64,
    dur_ns: u64,
    events: usize,
}

/// Spans of one thread, kept in memory until the run ends.
struct Spans {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Spans {
    fn new(epoch: Instant, thread: u32) -> Spans {
        Spans {
            epoch,
            thread,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        events: usize,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = call();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name,
            thread: self.thread,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns,
            events,
        });
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total nanoseconds per event over every span of `name`.
    fn ns_per_event(&self, name: &str) -> f64 {
        let (ns, events) = self
            .named(name)
            .fold((0u64, 0usize), |(ns, ev), s| (ns + s.dur_ns, ev + s.events));
        ns as f64 / events.max(1) as f64
    }

    fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns as f64).collect()
    }

    /// Write every span as a Chrome `trace_event` file.
    fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"events\":{}}}}}{sep}",
                s.name,
                s.layer,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.events
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// The per-layer metrics plus what the report shows beside them.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    /// `(view, maps, statements)` as compiled.
    pub shape: Vec<(String, usize, usize)>,
    pub audit_entries: Vec<AuditMismatch>,
    pub replayed_events: usize,
}

/// Build a dispatcher over a fresh server, with the workload's
/// observability configuration or with everything off.
fn dispatcher(w: &Workload, observed: bool) -> Result<ShardedDispatcher, String> {
    let mut server = ViewServer::new(&w.catalog);
    if observed {
        server.set_metrics_enabled(true);
        server
            .trace_recorder()
            .set_sample_one_in(OBSERVED_SAMPLE_ONE_IN);
        server.trace_recorder().set_enabled(true);
        server.auditor().set_sample_one_in(OBSERVED_SAMPLE_ONE_IN);
        server.auditor().set_enabled(true);
    }
    for (name, sql) in &w.views {
        server.register(name, sql).map_err(|e| e.to_string())?;
    }
    Ok(ShardedDispatcher::new_auto(Arc::new(server)))
}

/// Inputs the traced run takes from the end-to-end run beside it.
pub struct FromE2e {
    pub singles: usize,
    pub apply_rtt_p50_us: f64,
    /// Server CPU per event over the whole of phase 3 (the replay also
    /// covers the whole stream's mix, not one segment's).
    pub server_cpu_ns_per_event: f64,
}

pub fn run(w: &Workload, e2e: &FromE2e, seconds: u64, trace_path: &Path) -> Result<Traced, String> {
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch, 1);

    // compiler + runtime: compile and lower every view, repeatedly.
    let mut shape = Vec::new();
    for rep in 0..COMPILE_REPS {
        for (name, sql) in &w.views {
            let program = spans
                .time("compiler", "compile_sql", 0, || {
                    compile_sql(sql, &w.catalog, &CompileOptions::full())
                })
                .map_err(|e| e.to_string())?;
            let engine = spans.time("runtime", "Engine::new", 0, || Engine::new(&program));
            engine.map_err(|e| e.to_string())?;
            if rep == 0 {
                shape.push((
                    name.to_string(),
                    program.maps.len(),
                    program.statement_count(),
                ));
            }
        }
    }
    let per_rep_ms = |name: &str| {
        let durations = spans.durations_ns(name);
        let sums: Vec<f64> = durations
            .chunks(w.views.len())
            .map(|rep| rep.iter().sum::<f64>() / 1e6)
            .collect();
        median(&sums)
    };
    let compile_ms = per_rep_ms("compile_sql");
    let lower_ms = per_rep_ms("Engine::new");
    let heaviest = shape
        .iter()
        .max_by_key(|(_, _, statements)| *statements)
        .expect("every workload has a view");

    // net: the wire codec, per single event and per feed batch.
    let singles = w.feed.singles(e2e.singles);
    for event in singles {
        let payload = spans.time("net", "encode_apply_batch", 1, || {
            encode_apply_batch(std::slice::from_ref(event))
        });
        spans
            .time("net", "decode_message.single", 1, || {
                decode_message(&payload)
            })
            .map_err(|e| e.to_string())?;
    }
    let (mut wire_bytes, mut wire_events) = (0usize, 0usize);
    for batch in w.feed.batches_in(e2e.singles, REPLAYED_PASSES) {
        let payload = spans.time("net", "encode_batch", batch.len(), || encode_batch(batch));
        spans
            .time("net", "decode_message", batch.len(), || {
                decode_message(&payload)
            })
            .map_err(|e| e.to_string())?;
        wire_bytes += payload.len();
        wire_events += batch.len();
    }

    // server: the workload's configuration and everything-off,
    // interleaved batch by batch, with reads beside them.
    let observed = dispatcher(w, w.observed)?;
    let off = dispatcher(w, false)?;
    let (mut probes, mut fallbacks) = (0u64, 0u64);
    // Which server the replay is applying to: the reader waits on that
    // one, as a reader of `dbtoasterd` waits behind its ingest thread.
    let applying_observed = AtomicBool::new(true);
    let mut apply = |spans: &mut Spans, first_observed: bool, batch: &[Event], single: bool| {
        let (name_observed, name_off) = if single {
            ("apply_batch_at.single", "apply_batch_at.single.off")
        } else {
            ("apply_batch_at", "apply_batch_at.off")
        };
        for observed_turn in [first_observed, !first_observed] {
            let (d, name) = if observed_turn {
                (&observed, name_observed)
            } else {
                (&off, name_off)
            };
            applying_observed.store(observed_turn, Ordering::Relaxed);
            let base = d.server().trace_recorder().admit(batch.len() as u64);
            let (p0, f0) = (ordered_fallback::probes(), ordered_fallback::counts());
            spans
                .time("server", name, batch.len(), || {
                    d.apply_batch_at(batch, base)
                })
                .map_err(|e| e.to_string())?;
            if !observed_turn {
                probes += ordered_fallback::probes() - p0;
                let f1 = ordered_fallback::counts();
                fallbacks += f1.iter().zip(f0).map(|(a, b)| a - b).sum::<u64>();
            }
        }
        Ok::<(), String>(())
    };
    for (i, event) in singles.iter().enumerate() {
        apply(&mut spans, i % 2 == 0, std::slice::from_ref(event), true)?;
    }
    let stop = AtomicBool::new(false);
    let mut reader_spans = Spans::new(epoch, 2);
    let (mut replayed, mut state_bytes) = (singles.len(), 0);
    let (cap, started) = (Duration::from_secs(seconds * 3), Instant::now());
    std::thread::scope(|s| {
        s.spawn(|| {
            let start = Instant::now();
            for k in 0u32.. {
                let due = start + READ_INTERVAL * k;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let busy = applying_observed.load(Ordering::Relaxed);
                let d = if busy { &observed } else { &off };
                reader_spans.time("server", "snapshot_all.busy", 0, || {
                    d.server().snapshot_all()
                });
            }
        });
        let result = (|| {
            for (i, batch) in w.feed.batches_in(e2e.singles, REPLAYED_PASSES).enumerate() {
                if started.elapsed() > cap {
                    break;
                }
                apply(&mut spans, i % 2 == 0, batch, false)?;
                replayed += batch.len();
                if replayed == w.feed.forward.len() {
                    // The end of the first pass: the state at its fullest.
                    state_bytes = off.server().store_report().total_bytes;
                }
            }
            Ok::<(), String>(())
        })();
        stop.store(true, Ordering::Relaxed);
        result
    })?;
    for _ in 0..IDLE_SNAPSHOTS {
        spans.time("server", "snapshot_all.idle", 0, || {
            observed.server().snapshot_all()
        });
    }
    if state_bytes == 0 {
        state_bytes = off.server().store_report().total_bytes;
    }
    let state_mb = state_bytes as f64 / (1 << 20) as f64;
    let audit = observed.server().auditor().handle();
    audit.drain();
    spans.spans.append(&mut reader_spans.spans);
    spans.spans.sort_by_key(|s| s.start_ns);
    spans
        .write_chrome_trace(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let apply_ns = spans.ns_per_event("apply_batch_at");
    let apply_off_ns = spans.ns_per_event("apply_batch_at.off");
    let decode_ns = spans.ns_per_event("decode_message");
    let one_event_us = (median(&spans.durations_ns("encode_apply_batch"))
        + median(&spans.durations_ns("decode_message.single"))
        + median(&spans.durations_ns("apply_batch_at.single")))
        / 1e3;
    let metrics = vec![
        ("compiler.compile_ms", compile_ms),
        ("compiler.maps", heaviest.1 as f64),
        ("compiler.statements", heaviest.2 as f64),
        ("runtime.lower_ms", lower_ms),
        ("runtime.state_mb", state_mb),
        ("runtime.ordered_probes", probes as f64),
        ("runtime.ordered_fallbacks", fallbacks as f64),
        ("server.apply_ns_per_event", apply_ns),
        (
            "server.snapshot_us",
            median(&spans.durations_ns("snapshot_all.idle")) / 1e3,
        ),
        (
            "server.read_wait_us",
            percentile(&spans.durations_ns("snapshot_all.busy"), 0.5) / 1e3,
        ),
        (
            "net.encode_ns_per_event",
            spans.ns_per_event("encode_batch"),
        ),
        ("net.decode_ns_per_event", decode_ns),
        (
            "net.wire_bytes_per_event",
            wire_bytes as f64 / wire_events.max(1) as f64,
        ),
        ("net.rtt_residual_us", e2e.apply_rtt_p50_us - one_event_us),
        (
            "telemetry.apply_overhead_pct",
            (apply_ns / apply_off_ns - 1.0) * 100.0,
        ),
        ("audit.checks", audit.checks_total() as f64),
        ("audit.dropped", audit.dropped_total() as f64),
        ("audit.mismatches", audit.mismatch_total() as f64),
        (
            "ledger.attributed_pct",
            (decode_ns + apply_ns) / e2e.server_cpu_ns_per_event * 100.0,
        ),
    ];
    Ok(Traced {
        metrics,
        shape,
        audit_entries: audit.mismatches(),
        replayed_events: replayed,
    })
}

/// Maps and statements per view, as report JSON.
pub fn shape_json(traced: &Traced) -> Json {
    Json::Arr(
        traced
            .shape
            .iter()
            .map(|(view, maps, statements)| {
                Json::obj([
                    ("view", Json::str(view.clone())),
                    ("maps", Json::num(*maps as f64)),
                    ("statements", Json::num(*statements as f64)),
                ])
            })
            .collect(),
    )
}
