//! Continuous correctness auditing: the shadow auditor.
//!
//! DBToaster's contract is that a delta-maintained view is *exactly*
//! the re-evaluated query at every point of the stream. Tests prove it
//! on fixed workloads; this module verifies it continuously on live
//! traffic, at a configurable sample rate, with a zero-cost disabled
//! path (one relaxed atomic load per event, same gate as the trace
//! sampler).
//!
//! For each sampled admission sequence, the apply path — while already
//! holding the audited view's group write locks — captures a consistent
//! **pre-event snapshot** of the view's maps (a clone of each map's
//! storage, secondary indexes included), runs the event, captures
//! the **post-event result rows**, and hands the bundle to a worker
//! thread through a bounded queue. The worker runs two independent
//! checks per audit:
//!
//! * **Replay** — install the pre-event snapshot into a private
//!   [`Engine`] (the interpreter oracle), replay the event through the
//!   view's own trigger program, and compare the oracle's result rows
//!   against the rows the server assembled post-event, bit-exactly.
//!   This catches any divergence the server's staged, shared-store
//!   execution could introduce over the engine's reference semantics.
//!   The oracle runs on the server's own storage shape — hash layout
//!   and ordered-index grids, zero-valued slots included — so float
//!   sums associate the same way on both sides and bit-exact means
//!   what it says.
//! * **Chain** — the worker retains the oracle's *post*-event map state
//!   of each view's previous audit. When the next audit of the same
//!   view arrives and no other event was delivered to the view in
//!   between (`events_before` equals the retained `events_after`), the
//!   new pre-event snapshot's entries must equal the retained
//!   post-state exactly.
//!   A store entry corrupted *between* events — a bit flip, a stray
//!   write, a chaos-test injection ([`crate::ViewServer::corrupt_map_entry`])
//!   — breaks the chain and is reported. Replay alone can never see
//!   such corruption: an oracle seeded from the corrupted snapshot
//!   faithfully reproduces the corrupted output. When events *did*
//!   intervene, the chain link is skipped (never a false positive).
//!
//! Mismatches land in a bounded ring (dumpable over the wire via
//! `debug audit` / [`NetClient::debug_audit`]) and count into
//! `dbt_audit_checks_total{view}` / `dbt_audit_mismatch_total{view}`.
//! The readiness plane treats any mismatch as not-ready: a server that
//! cannot trust its own views should stop taking traffic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use dbtoaster_common::{Event, FxHashMap, Tuple, Value};
use dbtoaster_compiler::TriggerProgram;
use dbtoaster_runtime::{Engine, MapStorage, ResultRow};
use dbtoaster_telemetry::{log_error, log_warn, Counter, MetricsRegistry};

/// Default bound of the mismatch ring.
pub const DEFAULT_AUDIT_RING_CAPACITY: usize = 64;
/// Bound of the capture→worker queue, in audit jobs. `try_send` past
/// this drops the audit (counted), never blocks the apply path.
const AUDIT_QUEUE_DEPTH: usize = 256;
/// Entries rendered into a mismatch record per side before truncation.
const MAX_RENDERED_ENTRIES: usize = 8;

/// The chain check: retained oracle post-state vs the next pre-event
/// snapshot.
pub const CHECK_CHAIN: &str = "chain";
/// The replay check: oracle re-execution vs the server's post-event
/// rows.
pub const CHECK_REPLAY: &str = "replay";

/// One recorded audit failure, bounded for the ring and the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditMismatch {
    /// The audited view.
    pub view: String,
    /// Admission sequence of the audited event.
    pub seq: u64,
    /// Which check failed ([`CHECK_CHAIN`] or [`CHECK_REPLAY`]).
    pub kind: String,
    /// Rendered expected-side entries (truncated with a `... (+N)`
    /// marker beyond [`MAX_RENDERED_ENTRIES`]).
    pub expected: Vec<String>,
    /// Rendered actual-side entries, same bound.
    pub actual: Vec<String>,
}

/// A captured audit unit: everything the worker needs to re-run one
/// event against one view, off-thread.
pub(crate) struct AuditJob {
    pub(crate) view: usize,
    pub(crate) seq: u64,
    pub(crate) event: Event,
    /// Pre-event clone of every view map, parallel to the view
    /// program's `maps` declaration order.
    pub(crate) pre: Vec<MapStorage>,
    /// Result rows the server assembled post-event under the same
    /// locks.
    pub(crate) post_rows: Vec<ResultRow>,
    /// Events delivered to the view before this one (exact under the
    /// held group locks).
    pub(crate) events_before: u64,
    /// Whether this event was delivered to the view.
    pub(crate) delivered: bool,
}

/// Per-view oracle inputs, registered by the server at view
/// registration.
struct ViewSpec {
    name: String,
    program: Arc<TriggerProgram>,
}

struct MismatchRing {
    written: u64,
    entries: Vec<AuditMismatch>,
}

/// State shared between the sampler (hot path), the worker thread, and
/// read-side handles ([`AuditHandle`]). The worker holds only this —
/// never the [`ShadowAuditor`] itself — so dropping the auditor
/// disconnects the queue and the worker exits.
struct AuditShared {
    enabled: AtomicBool,
    sample_one_in: AtomicU64,
    checks: AtomicU64,
    mismatches: AtomicU64,
    dropped: AtomicU64,
    ring_capacity: usize,
    ring: Mutex<MismatchRing>,
    /// In-flight jobs (submitted, not yet processed) — the drain
    /// barrier tests and the readiness probe use to settle the worker.
    /// Std primitives: the workspace's `parking_lot` shim has no
    /// condvar.
    pending: StdMutex<u64>,
    settled: Condvar,
    specs: Mutex<Vec<Option<ViewSpec>>>,
    registry: Arc<MetricsRegistry>,
}

impl AuditShared {
    fn record_mismatch(&self, m: AuditMismatch) {
        self.mismatches.fetch_add(1, Ordering::Relaxed);
        self.registry
            .counter(
                "dbt_audit_mismatch_total",
                "Audit checks that found the view diverging from the oracle",
                &[("view", m.view.as_str())],
            )
            .inc();
        log_warn(
            "audit",
            "audit mismatch: view state diverges from the oracle",
            &[
                ("view", m.view.as_str()),
                ("check", m.kind.as_str()),
                ("seq", &m.seq.to_string()),
            ],
        );
        let mut ring = self.ring.lock();
        if ring.entries.len() == self.ring_capacity {
            let idx = (ring.written as usize) % self.ring_capacity;
            ring.entries[idx] = m;
        } else {
            ring.entries.push(m);
        }
        ring.written += 1;
    }

    fn job_done(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        *pending = pending.saturating_sub(1);
        if *pending == 0 {
            self.settled.notify_all();
        }
    }
}

/// Read-side handle onto the auditor's counters and mismatch ring —
/// what the net layer's readiness probe and `debug audit` response use
/// without owning the auditor.
#[derive(Clone)]
pub struct AuditHandle(Arc<AuditShared>);

impl AuditHandle {
    /// Whether auditing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// The current 1-in-N sample rate.
    pub fn sample_one_in(&self) -> u64 {
        self.0.sample_one_in.load(Ordering::Relaxed)
    }

    /// Audits completed by the worker.
    pub fn checks_total(&self) -> u64 {
        self.0.checks.load(Ordering::Relaxed)
    }

    /// Mismatches found, across both checks.
    pub fn mismatch_total(&self) -> u64 {
        self.0.mismatches.load(Ordering::Relaxed)
    }

    /// Sampled audits dropped because the worker queue was full.
    pub fn dropped_total(&self) -> u64 {
        self.0.dropped.load(Ordering::Relaxed)
    }

    /// The retained mismatch records, oldest first.
    pub fn mismatches(&self) -> Vec<AuditMismatch> {
        let ring = self.0.ring.lock();
        let mut out = ring.entries.clone();
        out.sort_by_key(|m| m.seq);
        out
    }

    /// Block until every submitted audit has been processed — the
    /// barrier that makes counters and the ring deterministic after a
    /// known workload.
    pub fn drain(&self) {
        let mut pending = self
            .0
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *pending > 0 {
            pending = self
                .0
                .settled
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The audit plane's front end, owned by the
/// [`ViewServer`](crate::ViewServer): sampling gate, bounded job queue,
/// and the lazily spawned oracle worker.
pub struct ShadowAuditor {
    shared: Arc<AuditShared>,
    tx: Mutex<Option<SyncSender<AuditJob>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl ShadowAuditor {
    /// A disabled auditor sampling 1-in-1, recording per-view counters
    /// into `registry`, retaining at most `ring_capacity` mismatches.
    pub fn new(ring_capacity: usize, registry: Arc<MetricsRegistry>) -> ShadowAuditor {
        ShadowAuditor {
            shared: Arc::new(AuditShared {
                enabled: AtomicBool::new(false),
                sample_one_in: AtomicU64::new(1),
                checks: AtomicU64::new(0),
                mismatches: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                ring_capacity: ring_capacity.max(1),
                ring: Mutex::new(MismatchRing {
                    written: 0,
                    entries: Vec::new(),
                }),
                pending: StdMutex::new(0),
                settled: Condvar::new(),
                specs: Mutex::new(Vec::new()),
                registry,
            }),
            tx: Mutex::new(None),
            worker: Mutex::new(None),
        }
    }

    /// Turn auditing on or off, spawning the worker on first enable.
    pub fn set_enabled(&self, enabled: bool) {
        if enabled {
            self.ensure_worker();
        }
        self.shared.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether auditing is on (one relaxed load — the hot-path gate).
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Audit one event in every `n` (clamped to at least 1).
    pub fn set_sample_one_in(&self, n: u64) {
        self.shared.sample_one_in.store(n.max(1), Ordering::Relaxed);
    }

    /// The current 1-in-N sample rate.
    pub fn sample_one_in(&self) -> u64 {
        self.shared.sample_one_in.load(Ordering::Relaxed)
    }

    /// Deterministic per-seq sampling decision (same shape as the
    /// trace sampler: disabled costs one relaxed load and a branch).
    #[inline]
    pub fn sampled(&self, seq: u64) -> bool {
        self.is_enabled() && seq.is_multiple_of(self.sample_one_in())
    }

    /// A cloneable read-side handle (counters, ring, drain barrier).
    pub fn handle(&self) -> AuditHandle {
        AuditHandle(Arc::clone(&self.shared))
    }

    /// Register the oracle inputs of one view (called by the server at
    /// registration; index is the view's registration index).
    pub(crate) fn register_view(&self, index: usize, name: &str, program: TriggerProgram) {
        let mut specs = self.shared.specs.lock();
        if specs.len() <= index {
            specs.resize_with(index + 1, || None);
        }
        specs[index] = Some(ViewSpec {
            name: name.to_string(),
            program: Arc::new(program),
        });
    }

    /// Enqueue one captured audit; drops (counted) when the worker is
    /// behind — the apply path never blocks on auditing.
    pub(crate) fn submit(&self, job: AuditJob) {
        let tx = self.tx.lock();
        let Some(tx) = tx.as_ref() else {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        {
            let mut pending = self
                .shared
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *pending += 1;
        }
        match tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                self.shared.job_done();
            }
        }
    }

    fn ensure_worker(&self) {
        let mut worker = self.worker.lock();
        if worker.is_some() {
            return;
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(AUDIT_QUEUE_DEPTH);
        let shared = Arc::clone(&self.shared);
        match std::thread::Builder::new()
            .name("dbtoaster-audit".into())
            .spawn(move || worker_loop(shared, rx))
        {
            Ok(handle) => {
                *self.tx.lock() = Some(tx);
                *worker = Some(handle);
            }
            Err(e) => {
                log_error(
                    "audit",
                    "could not spawn the audit worker; auditing disabled",
                    &[("error", &e.to_string())],
                );
            }
        }
    }
}

impl Drop for ShadowAuditor {
    fn drop(&mut self) {
        // Disconnect the queue, then join: the worker drains whatever
        // was already submitted and exits on the hangup.
        *self.tx.lock() = None;
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

/// The worker's retained oracle state of one view: the map entries and
/// result rows the oracle computed *post*-event at the last audit, and
/// the view's event count at that point.
struct Retained {
    events_after: u64,
    /// Sorted entries per map, parallel to the program's declarations.
    maps: Vec<Vec<(Tuple, Value)>>,
}

fn worker_loop(shared: Arc<AuditShared>, rx: Receiver<AuditJob>) {
    let mut engines: FxHashMap<usize, Engine> = FxHashMap::default();
    let mut retained: FxHashMap<usize, Retained> = FxHashMap::default();
    let mut counters: FxHashMap<usize, Arc<Counter>> = FxHashMap::default();
    for job in rx {
        process_job(&shared, &mut engines, &mut retained, &mut counters, job);
        shared.job_done();
    }
}

fn process_job(
    shared: &AuditShared,
    engines: &mut FxHashMap<usize, Engine>,
    retained: &mut FxHashMap<usize, Retained>,
    counters: &mut FxHashMap<usize, Arc<Counter>>,
    job: AuditJob,
) {
    let (name, program) = {
        let specs = shared.specs.lock();
        match specs.get(job.view).and_then(|s| s.as_ref()) {
            Some(spec) => (spec.name.clone(), Arc::clone(&spec.program)),
            None => return,
        }
    };
    let engine = match engines.entry(job.view) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => match Engine::new(&program) {
            Ok(engine) => v.insert(engine),
            Err(e) => {
                // The program compiled once already; failing to lower it
                // again is an internal bug, not a data mismatch.
                log_error(
                    "audit",
                    "oracle engine construction failed; audit skipped",
                    &[("view", name.as_str()), ("error", &e.to_string())],
                );
                return;
            }
        },
    };
    shared.checks.fetch_add(1, Ordering::Relaxed);
    counters
        .entry(job.view)
        .or_insert_with(|| {
            shared.registry.counter(
                "dbt_audit_checks_total",
                "Sampled events audited against the interpreter oracle",
                &[("view", name.as_str())],
            )
        })
        .inc();

    let pre: Vec<Vec<(Tuple, Value)>> = job.pre.iter().map(MapStorage::sorted_entries).collect();

    // Chain check: with no deliveries since the previous audit of this
    // view, its pre-event state must equal the oracle's retained
    // post-state bit-exactly. This is the only check that can see
    // corruption injected *between* events.
    if let Some(prev) = retained.get(&job.view) {
        if prev.events_after == job.events_before && prev.maps != pre {
            let (expected, actual) = render_map_diff(&program, &prev.maps, &pre);
            shared.record_mismatch(AuditMismatch {
                view: name.clone(),
                seq: job.seq,
                kind: CHECK_CHAIN.to_string(),
                expected,
                actual,
            });
        }
    }

    // Replay check: oracle re-execution from the pre-event snapshot
    // must reproduce the server's post-event rows bit-exactly.
    let replay = (|| -> dbtoaster_common::Result<Vec<ResultRow>> {
        for (decl, storage) in program.maps.iter().zip(job.pre) {
            engine.install_map(&decl.name, storage)?;
        }
        engine.on_event(&job.event)?;
        Ok(engine.result())
    })();
    let oracle_rows = match replay {
        Ok(rows) => rows,
        Err(e) => {
            shared.record_mismatch(AuditMismatch {
                view: name,
                seq: job.seq,
                kind: CHECK_REPLAY.to_string(),
                expected: vec![format!("oracle replay failed: {e}")],
                actual: render_rows(&job.post_rows),
            });
            retained.remove(&job.view);
            return;
        }
    };
    if oracle_rows != job.post_rows {
        shared.record_mismatch(AuditMismatch {
            view: name,
            seq: job.seq,
            kind: CHECK_REPLAY.to_string(),
            expected: render_rows(&oracle_rows),
            actual: render_rows(&job.post_rows),
        });
    }

    // Retain the oracle's post-state for the next chain link.
    let maps = program
        .maps
        .iter()
        .map(|decl| engine.map_snapshot(&decl.name).unwrap_or_default())
        .collect();
    retained.insert(
        job.view,
        Retained {
            events_after: job.events_before + u64::from(job.delivered),
            maps,
        },
    );
}

/// Render the differing entries of two per-map snapshots, bounded.
fn render_map_diff(
    program: &TriggerProgram,
    expected: &[Vec<(Tuple, Value)>],
    actual: &[Vec<(Tuple, Value)>],
) -> (Vec<String>, Vec<String>) {
    let mut exp = Vec::new();
    let mut act = Vec::new();
    for (i, decl) in program.maps.iter().enumerate() {
        let (e, a) = (
            expected.get(i).map(Vec::as_slice).unwrap_or(&[]),
            actual.get(i).map(Vec::as_slice).unwrap_or(&[]),
        );
        for (k, v) in e.iter().filter(|entry| !a.contains(entry)) {
            exp.push(format!("{}[{}]={}", decl.name, k, v));
        }
        for (k, v) in a.iter().filter(|entry| !e.contains(entry)) {
            act.push(format!("{}[{}]={}", decl.name, k, v));
        }
    }
    (truncate_rendered(exp), truncate_rendered(act))
}

fn render_rows(rows: &[ResultRow]) -> Vec<String> {
    truncate_rendered(
        rows.iter()
            .map(|r| {
                let values: Vec<String> = r.values.iter().map(|v| v.to_string()).collect();
                format!("[{}] -> ({})", r.key, values.join(", "))
            })
            .collect(),
    )
}

fn truncate_rendered(mut out: Vec<String>) -> Vec<String> {
    if out.len() > MAX_RENDERED_ENTRIES {
        let extra = out.len() - MAX_RENDERED_ENTRIES;
        out.truncate(MAX_RENDERED_ENTRIES);
        out.push(format!("... (+{extra} more)"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auditor() -> ShadowAuditor {
        ShadowAuditor::new(4, Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn sampling_is_deterministic_and_disabled_by_default() {
        let a = auditor();
        assert!(!a.sampled(0), "disabled auditor samples nothing");
        a.set_enabled(true);
        a.set_sample_one_in(8);
        let picked: Vec<u64> = (0..20).filter(|&s| a.sampled(s)).collect();
        assert_eq!(picked, vec![0, 8, 16]);
        a.set_sample_one_in(0);
        assert_eq!(a.sample_one_in(), 1, "zero clamps to every event");
    }

    #[test]
    fn mismatch_ring_is_bounded_oldest_overwritten() {
        let a = auditor();
        for seq in 0..10u64 {
            a.shared.record_mismatch(AuditMismatch {
                view: "v".into(),
                seq,
                kind: CHECK_CHAIN.into(),
                expected: vec![],
                actual: vec![],
            });
        }
        let h = a.handle();
        assert_eq!(h.mismatch_total(), 10);
        let seqs: Vec<u64> = h.mismatches().iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "capacity 4 keeps the most recent");
    }

    #[test]
    fn rendered_entries_are_truncated_with_a_marker() {
        let rendered = truncate_rendered((0..12).map(|i| format!("e{i}")).collect());
        assert_eq!(rendered.len(), MAX_RENDERED_ENTRIES + 1);
        assert_eq!(rendered.last().unwrap(), "... (+4 more)");
    }

    #[test]
    fn drain_returns_immediately_when_idle() {
        let a = auditor();
        a.set_enabled(true);
        a.handle().drain();
    }

    #[test]
    fn submit_without_a_worker_counts_a_drop() {
        let a = auditor();
        // Worker never spawned (auditing never enabled): submissions
        // are dropped, counted, and do not wedge the drain barrier.
        a.submit(AuditJob {
            view: 0,
            seq: 0,
            event: Event::insert("R", Tuple::empty()),
            pre: vec![],
            post_rows: vec![],
            events_before: 0,
            delivered: true,
        });
        assert_eq!(a.handle().dropped_total(), 1);
        a.handle().drain();
    }
}
