//! The end-to-end run: `dbtoasterd` as a child process, driven over
//! loopback by this process with at most two threads and two active
//! connections.

use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dbtoaster_common::Event;
use dbtoaster_net::{AuditReport, FeedWriter, NetClient};
use dbtoaster_server::ViewSnapshot;

use crate::check::{interpreter_check, reference_server, snapshot_diff};
use crate::hostprobe::HostProbe;
use crate::procfs::{read_cpu_ns, read_cpu_ticks, read_status_kib, TICKS_PER_SECOND};
use crate::workload::{Workload, FEED_BATCH};

/// Set-up-only server starts per run, half before the measured rounds
/// and half after the reference replay, so they sample the host over
/// the whole run; each measured round starts one more. `setup_s` is the
/// median of them all. The first also serves the interpreter check.
const SETUP_ROUNDS: usize = 10;
/// Connections phase 2's single-event round trips are spread over, one
/// after another.
const RTT_CONNECTIONS: usize = 10;
/// Open-loop period of the `snapshot_all` reads beside the feed.
pub const READ_INTERVAL: Duration = Duration::from_millis(10);
/// Share of `--seconds` phase 3 feeds for (unless the stream ends
/// first); the reference replay afterwards takes most of the rest.
const PHASE3_SHARE: f64 = 0.5;
/// Period of the host-speed probe during phase 3.
const PROBE_INTERVAL: Duration = Duration::from_secs(1);

/// Operations attempted and failed: RPCs, feed batches, snapshots and
/// correctness checks.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ops {
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// One correctness check, failed if it reports any difference.
    pub fn check(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            let room = 64usize.saturating_sub(self.errors.len());
            self.errors.extend(
                failures
                    .into_iter()
                    .take(room)
                    .map(|f| format!("{what}: {f}")),
            );
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 64 {
            self.errors.push(error);
        }
    }

    fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// A spawned `dbtoasterd`, killed and reaped on drop if still running.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn the server with its log on `log`, and wait until the log
    /// reports the listen address.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        let log_file = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = serving_addr(&text) {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "dbtoasterd exited ({status}) before serving:\n{text}"
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("dbtoasterd did not report its address:\n{text}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to shut down and wait for the process to exit.
    pub fn stop(mut self, client: &mut NetClient, ops: &mut Ops) {
        ops.record("shutdown", client.shutdown_server());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        ops.fail("shutdown: dbtoasterd still running after 20 s".into());
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The listen address from the daemon's `msg=serving addr=...` line.
fn serving_addr(log: &str) -> Option<SocketAddr> {
    log.lines()
        .filter(|line| line.contains("msg=serving "))
        .find_map(|line| {
            line.split_whitespace()
                .find_map(|field| field.strip_prefix("addr="))?
                .parse()
                .ok()
        })
}

/// Everything one end-to-end run measured, over all its rounds.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Round trips (µs) of phase 2, one list per connection.
    pub rtt_us: Vec<Vec<f64>>,
    pub segments: Vec<Segment>,
    /// Server CPU seconds over the whole of phase 3, from
    /// `/proc/<pid>/stat`.
    pub phase3_cpu_s: f64,
    /// Measured rounds: servers that ran phases 2 to 4.
    pub rounds: usize,
    /// Events the first round sent one by one in phase 2.
    pub singles: usize,
    pub max_lateness_us: f64,
    /// The host-speed probe, sampled between the run's stages and about
    /// once a second between phase-3 segments.
    pub probe: HostProbe,
    pub rss_peak_kib: u64,
    pub audit: AuditReport,
    pub ops: Ops,
    /// Wall time of each stage of the run, for the report.
    pub stages_s: Vec<(&'static str, f64)>,
}

/// What one round fed, and the wire snapshots the gate checks.
struct Fed {
    singles: usize,
    batches: usize,
    cut: Option<Vec<ViewSnapshot>>,
    last: Option<Vec<ViewSnapshot>>,
}

/// Spawn a server with the workload's flags and register every view
/// over the wire; the set-up time runs from spawn to the last reply.
fn set_up(w: &Workload, bin: &Path, log: &Path) -> Result<(Daemon, NetClient, f64), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(bin, &w.server_args(), log)?;
    let mut client = NetClient::connect(daemon.addr).map_err(|e| e.to_string())?;
    for (name, sql) in &w.views {
        client
            .register(name, sql)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    Ok((daemon, client, started.elapsed().as_secs_f64()))
}

/// Run one end-to-end run: set-ups, measured rounds of phases 2 to 4
/// until phase 3 has fed for its share of `seconds`, the reference
/// replay of the correctness gate, and set-ups again.
pub fn run(w: &Workload, bin: &Path, work: &Path, seconds: u64) -> Result<E2e, String> {
    let log: PathBuf = work.join(format!("dbtoasterd-{}.log", w.name));
    let mut out = E2e::default();
    out.probe.sample();
    let mut stage = Instant::now();
    let mut lap = |out: &mut E2e, name| {
        out.stages_s.push((name, stage.elapsed().as_secs_f64()));
        stage = Instant::now();
    };

    // Phase 1: set-up only, repeated; the first server also runs the
    // interpreter check.
    let set_up_only = |out: &mut E2e, rounds, check| {
        for round in 0..rounds {
            let (daemon, mut client, secs) = set_up(w, bin, &log)?;
            out.setup_s.push(secs);
            if check && round == 0 {
                oracle_check(w, &daemon, &mut client, &mut out.ops)?;
            }
            daemon.stop(&mut client, &mut out.ops);
        }
        Ok::<(), String>(())
    };
    set_up_only(&mut out, SETUP_ROUNDS / 2, true)?;
    out.probe.sample();
    lap(&mut out, "set-up and interpreter check");

    // Phases 2 to 4 on a fresh server per round. A round's phase 3
    // ends at the end of the stream or of the phase's time; when the
    // stream ended first, a new round feeds it again from the start.
    let budget = Duration::from_secs_f64(seconds as f64 * PHASE3_SHARE);
    let mut fed = Vec::new();
    let mut fed_for = Duration::ZERO;
    loop {
        let (daemon, client, secs) = set_up(w, bin, &log)?;
        out.setup_s.push(secs);
        let (round, took, exhausted) = measured_round(
            w,
            daemon,
            client,
            seconds,
            budget.saturating_sub(fed_for),
            &mut out,
        )?;
        if fed.is_empty() {
            out.singles = round.singles;
        }
        fed.push(round);
        out.probe.sample();
        fed_for += took;
        out.rounds += 1;
        if !exhausted || fed_for >= budget {
            break;
        }
    }
    lap(&mut out, "phases 2 to 4");

    // The gate: every round's snapshots against the sequential
    // reference at the same point of the stream, bit for bit.
    let mut by_singles: Vec<usize> = fed.iter().map(|f| f.singles).collect();
    by_singles.sort_unstable();
    by_singles.dedup();
    for singles in by_singles {
        let rounds: Vec<&Fed> = fed.iter().filter(|f| f.singles == singles).collect();
        let reference = reference_server(&w.catalog, &w.views).map_err(|e| e.to_string())?;
        for event in w.feed.singles(singles) {
            reference
                .apply_batch(std::slice::from_ref(event))
                .map_err(|e| e.to_string())?;
        }
        let cut = reference.snapshot_all();
        for round in &rounds {
            compare(
                &mut out.ops,
                "phase-2 cut vs reference",
                &cut,
                round.cut.clone(),
            );
        }
        let mut stops: Vec<usize> = rounds.iter().map(|f| f.batches).collect();
        stops.sort_unstable();
        stops.dedup();
        let mut applied = 0;
        for stop in stops {
            for batch in w.feed.batches(singles).skip(applied).take(stop - applied) {
                reference.apply_batch(batch).map_err(|e| e.to_string())?;
            }
            applied = stop;
            let expected = reference.snapshot_all();
            for round in rounds.iter().filter(|f| f.batches == stop) {
                let what = "final snapshot vs reference";
                compare(&mut out.ops, what, &expected, round.last.clone());
            }
        }
    }
    out.probe.sample();
    lap(&mut out, "reference replay");
    set_up_only(&mut out, SETUP_ROUNDS - SETUP_ROUNDS / 2, false)?;
    out.probe.sample();
    lap(&mut out, "set-up");
    Ok(out)
}

/// Phases 2 to 4 on one set-up server, feeding phase 3 for at most
/// `budget`. Returns what was fed, phase 3's duration, and whether the
/// stream ran out before the budget.
fn measured_round(
    w: &Workload,
    daemon: Daemon,
    mut client: NetClient,
    seconds: u64,
    budget: Duration,
    out: &mut E2e,
) -> Result<(Fed, Duration, bool), String> {
    let ops = &mut out.ops;
    let probe = &mut out.probe;
    let pid = daemon.pid();

    // Phase 2: one event per apply_batch round trip, one outstanding,
    // over a fresh connection per slice so the server's connection
    // thread lands on a new core placement several times per run.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds as f64 * 0.4);
    let mut singles = 0;
    let slice = w.rtt_events.div_ceil(RTT_CONNECTIONS);
    'phase2: for events in w.feed.singles(w.rtt_events).chunks(slice) {
        let mut rtt_client = NetClient::connect(daemon.addr).map_err(|e| e.to_string())?;
        out.rtt_us.push(Vec::with_capacity(events.len()));
        // Untimed: the first request also waits for the accept loop.
        ops.record("stats", rtt_client.stats());
        for event in events {
            if Instant::now() > deadline {
                break 'phase2;
            }
            let sent = Instant::now();
            let applied = rtt_client.apply_batch(std::slice::from_ref(event));
            let rtt_us = sent.elapsed().as_secs_f64() * 1e6;
            out.rtt_us
                .last_mut()
                .expect("one list per connection")
                .push(rtt_us);
            ops.record("apply_batch", applied);
            singles += 1;
        }
    }
    let cut = ops.record("snapshot_all", client.snapshot_all());

    // Phase 3: feed the rest in batches as fast as back-pressure allows,
    // as back-to-back short segments each timed to its own
    // acknowledgement, with open-loop reads beside them on a second
    // connection.
    let reader = NetClient::connect(daemon.addr).map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    let batches: Vec<&[Event]> = w.feed.batches(singles).collect();
    let (mut batches_fed, first_segment) = (0, out.segments.len());
    let ticks_before = read_cpu_ticks(pid);
    let started = Instant::now();
    let mut probed = started;
    let (reads, lateness_us, read_ops) = std::thread::scope(|s| {
        let reads = s.spawn(|| read_loop(reader, READ_INTERVAL, &stop));
        for segment in batches.chunks(w.segment_batches) {
            if started.elapsed() > budget {
                break;
            }
            // Between segments the server has acknowledged everything
            // and idles, so the probe sees the host as phase 3 does.
            if probed.elapsed() >= PROBE_INTERVAL {
                probe.sample();
                probed = Instant::now();
            }
            let Some(fed) = feed_segment(daemon.addr, pid, segment, ops) else {
                break;
            };
            out.segments.push(fed);
            batches_fed += segment.len();
        }
        stop.store(true, Ordering::Relaxed);
        reads.join().expect("reader thread")
    });
    let took = started.elapsed();
    let ticks = ticks_before.zip(read_cpu_ticks(pid));
    let ticks = ops.record("read /proc/<pid>/stat", ticks.ok_or("unreadable"));
    if let Some((before, after)) = ticks {
        out.phase3_cpu_s += (after - before) as f64 / TICKS_PER_SECOND;
    }
    out.max_lateness_us = out.max_lateness_us.max(lateness_us);
    ops.absorb(read_ops);
    let segments = &mut out.segments[first_segment..];
    for (due, latency_us) in reads {
        // A read belongs to the segment running when it fell due.
        let index = segments.iter().rposition(|seg| seg.started <= due);
        if let Some(segment) = segments.get_mut(index.unwrap_or(0)) {
            segment.read_us.push(latency_us);
        }
    }

    // Phase 4: check and collect.
    let last = ops.record("snapshot_all", client.snapshot_all());
    if let Some(audit) = ops.record("debug_audit", client.debug_audit()) {
        let total = &mut out.audit;
        total.enabled = audit.enabled;
        total.sample_one_in = audit.sample_one_in;
        total.checks += audit.checks;
        total.mismatches += audit.mismatches;
        total.dropped += audit.dropped;
        total.entries.extend(audit.entries);
    }
    let rss = read_status_kib(pid, "VmHWM").ok_or("cannot read /proc/<pid>/status")?;
    out.rss_peak_kib = out.rss_peak_kib.max(rss);
    daemon.stop(&mut client, ops);
    let fed = Fed {
        singles,
        batches: batches_fed,
        cut,
        last,
    };
    Ok((fed, took, batches_fed == batches.len()))
}

/// One acknowledged feed of phase 3.
pub struct Segment {
    started: Instant,
    pub events: usize,
    pub secs: f64,
    pub cpu_s: f64,
    /// Latencies (µs) of the reads due during the segment.
    pub read_us: Vec<f64>,
}

/// Feed `batches` over a new feed connection, timed from the first
/// send to the acknowledgement, with the server's CPU time over the
/// same interval. `None` when an operation failed (counted in `ops`).
fn feed_segment(
    addr: SocketAddr,
    pid: u32,
    batches: &[&[Event]],
    ops: &mut Ops,
) -> Option<Segment> {
    let cpu_ns = |ops: &mut Ops| {
        ops.record(
            "read server CPU clock",
            read_cpu_ns(pid).ok_or("unreadable"),
        )
    };
    let mut feeder = ops.record("feed connect", FeedWriter::connect(addr))?;
    let cpu_before = cpu_ns(ops)?;
    let started = Instant::now();
    let mut events = 0;
    for batch in batches {
        ops.record("feed batch", feeder.send(batch))?;
        events += batch.len();
    }
    let report = ops.record("finish_and_ack", feeder.finish_and_ack())?;
    let secs = started.elapsed().as_secs_f64();
    let cpu_after = cpu_ns(ops)?;
    let failures = if report.events == events {
        vec![]
    } else {
        vec![format!("acked {} events, fed {events}", report.events)]
    };
    ops.check("feed ack", failures);
    Some(Segment {
        started,
        events,
        secs,
        cpu_s: (cpu_after - cpu_before) as f64 / 1e9,
        read_us: Vec::new(),
    })
}

fn compare(ops: &mut Ops, what: &str, expected: &[ViewSnapshot], got: Option<Vec<ViewSnapshot>>) {
    let failures = match got {
        Some(got) => snapshot_diff(expected, &got).into_iter().collect(),
        None => vec!["no snapshot".to_string()],
    };
    ops.check(what, failures);
}

/// Feed the workload's small oracle stream to a fresh server and check
/// its wire snapshot against the in-process reference (bit for bit) and
/// against the interpreter (within tolerance).
fn oracle_check(
    w: &Workload,
    daemon: &Daemon,
    client: &mut NetClient,
    ops: &mut Ops,
) -> Result<(), String> {
    let mut feeder = FeedWriter::connect(daemon.addr).map_err(|e| e.to_string())?;
    let reference = reference_server(&w.catalog, &w.views).map_err(|e| e.to_string())?;
    for batch in w.oracle.events.chunks(FEED_BATCH) {
        ops.record("feed batch", feeder.send(batch));
        reference.apply_batch(batch).map_err(|e| e.to_string())?;
    }
    ops.record("finish_and_ack", feeder.finish_and_ack());
    let got = ops.record("snapshot_all", client.snapshot_all());
    if let Some(got) = &got {
        let interpreted = interpreter_check(&w.catalog, &w.views, &w.oracle.events, got)
            .map_err(|e| e.to_string())?;
        ops.check("oracle stream vs interpreter", interpreted);
    }
    compare(
        ops,
        "oracle stream vs reference",
        &reference.snapshot_all(),
        got,
    );
    Ok(())
}

/// Issue `snapshot_all` every `interval` until `stop`, timing each read
/// from when it was due. Reads that fell due before `stop` but were
/// held up behind earlier reads are still issued, so a stall counts
/// against every read it delayed. Returns each read's due time and
/// latency (µs), the generator's maximum lateness (µs) and the
/// operations.
fn read_loop(
    mut client: NetClient,
    interval: Duration,
    stop: &AtomicBool,
) -> (Vec<(Instant, f64)>, f64, Ops) {
    let mut ops = Ops::default();
    let (mut latencies, mut lateness) = (Vec::new(), 0f64);
    let (start, mut end) = (Instant::now(), None);
    for k in 0u32.. {
        let due = start + interval * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if end.is_none() && stop.load(Ordering::Relaxed) {
            end = Some(Instant::now());
        }
        if end.is_some_and(|end| due >= end) {
            break;
        }
        let issued = Instant::now();
        lateness = lateness.max((issued - due).as_secs_f64() * 1e6);
        let result = client.snapshot_all();
        latencies.push((due, due.elapsed().as_secs_f64() * 1e6));
        ops.record("snapshot_all (reader)", result);
    }
    (latencies, lateness, ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_line_yields_the_listen_address() {
        let log = "ts=1.0 level=info target=dbtoasterd msg=\"serving metrics\" \
                   endpoint=http://127.0.0.1:4000/metrics\n\
                   ts=1.1 level=info target=dbtoasterd msg=serving addr=127.0.0.1:40411 \
                   relations=2 views=0\n";
        assert_eq!(serving_addr(log), Some("127.0.0.1:40411".parse().unwrap()));
        assert_eq!(serving_addr("msg=\"serving metrics\" addr=x"), None);
    }
}
