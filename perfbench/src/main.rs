//! `perfbench` — the end-to-end and per-layer benchmark of `dbtoasterd`.
//!
//! ```text
//! perfbench --server PATH --work-dir DIR \
//!     --workload orderbook|ssb_q41|nested_observed \
//!     --seed N --seconds N --trace 0|1
//! ```
//!
//! Every run spawns `dbtoasterd`, drives it over loopback (set-up,
//! single-event apply round trips, a batched feed with open-loop reads
//! beside it) and checks the result against an in-process reference
//! and the `exec` interpreter. `--trace 1` adds an in-process replay
//! with a span around every call into a layer and reports per-layer
//! metrics instead of end-to-end ones. The last line of standard
//! output is the result object; the lines before it, prefixed `#`, are
//! the human-readable report. `run.sh` builds both binaries and passes
//! `--server` and `--work-dir`.

mod check;
mod e2e;
mod hostprobe;
mod json;
mod procfs;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use stats::{median, percentile};

/// End-to-end metrics in the result line, as `BENCHMARK.json` lists
/// them: those steady enough across seeds on a 2-core host to gate a
/// change.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ingest_eps_norm", "events/s"),
    ("server_cpu_us_per_event_norm", "us"),
];

/// End-to-end metrics printed in the report only. The raw throughput
/// and CPU per event carry the host's speed of the moment (the gated
/// `_norm` metrics divide it out, see [`hostprobe`]). Latencies and peak
/// RSS spread too widely from run to run to gate a change (wake-up,
/// lock hand-off and allocator noise dominate them on small hosts), and
/// the error rate and audit mismatches are zero on a healthy run (the
/// result line carries the error rate as `attempted`/`failed`).
const REPORT_ONLY: [(&str, &str); 10] = [
    ("ingest_eps", "events/s"),
    ("server_cpu_us_per_event", "us"),
    ("host_probe_ms", "ms"),
    ("apply_rtt_p50_us", "us"),
    ("apply_rtt_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("rss_peak_mb", "MiB"),
    ("error_rate", "ratio"),
    ("audit_mismatches", "count"),
];

/// Per-layer metrics of the traced run, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 19] = [
    ("compiler.compile_ms", "ms"),
    ("compiler.maps", "count"),
    ("compiler.statements", "count"),
    ("runtime.lower_ms", "ms"),
    ("runtime.state_mb", "MiB"),
    ("runtime.ordered_probes", "count"),
    ("runtime.ordered_fallbacks", "count"),
    ("server.apply_ns_per_event", "ns/event"),
    ("server.snapshot_us", "us"),
    ("server.read_wait_us", "us"),
    ("net.encode_ns_per_event", "ns/event"),
    ("net.decode_ns_per_event", "ns/event"),
    ("net.wire_bytes_per_event", "B/event"),
    ("net.rtt_residual_us", "us"),
    ("telemetry.apply_overhead_pct", "%"),
    ("audit.checks", "count"),
    ("audit.dropped", "count"),
    ("audit.mismatches", "count"),
    ("ledger.attributed_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    work_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let (mut server, mut work_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--server" => server = Some(PathBuf::from(&value)),
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required: {}", workload::NAMES.join("|")))?,
        seed,
        seconds,
        trace,
        server: server.ok_or("--server is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// The result line: exactly the metrics of `table`, in its order.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    measured: &[(&str, f64)],
    table: &[(&str, &str)],
) -> Result<Json, String> {
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = measured
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push((
            name.to_string(),
            Json::obj([("value", Json::num(value)), ("unit", Json::str(*unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Quantiles over the phase-3 segments (about 0.1 s of feed each) that
/// `ingest_eps` and `server_cpu_us_per_event` report: the fast end. A
/// shared host's other tenants slow every thread of a run by up to 1.7×
/// for stretches of a second or more; the fast end is what the server
/// does whenever they leave it alone, where a median follows the share
/// of slow stretches in the run.
const FAST_EPS_QUANTILE: f64 = 0.95;
const FAST_CPU_QUANTILE: f64 = 0.05;
/// The fast end of the host-speed probe (its 5th percentile over the
/// run) on the 2-vCPU reference VM in a quiet spell. The `_norm`
/// metrics scale the raw ones by the run's fast end over this: what the
/// run would have measured on that host.
const PROBE_REFERENCE_MS: f64 = 1.3;

/// The end-to-end metrics of a run. Each timing is an order statistic
/// over the run's parts (phase-2 connections, phase-3 segments), so a
/// burst of host noise in one part does not move it.
fn end_to_end_metrics(e: &e2e::E2e) -> Vec<(&'static str, f64)> {
    let over_connections = |q| {
        median(
            &e.rtt_us
                .iter()
                .map(|c| percentile(c, q))
                .collect::<Vec<_>>(),
        )
    };
    let over_segments = |q, f: &dyn Fn(&e2e::Segment) -> f64| {
        percentile(&e.segments.iter().map(f).collect::<Vec<_>>(), q)
    };
    let ingest_eps = over_segments(FAST_EPS_QUANTILE, &|s| s.events as f64 / s.secs);
    let cpu_us = over_segments(FAST_CPU_QUANTILE, &|s| {
        s.cpu_s * 1e6 / s.events.max(1) as f64
    });
    let probe_ms = percentile(&e.probe.samples_ns, FAST_CPU_QUANTILE) / 1e6;
    let host_slowdown = probe_ms / PROBE_REFERENCE_MS;
    let all_reads: Vec<f64> = e
        .segments
        .iter()
        .flat_map(|s| s.read_us.iter().copied())
        .collect();
    vec![
        ("setup_s", median(&e.setup_s)),
        ("ingest_eps_norm", ingest_eps * host_slowdown),
        ("server_cpu_us_per_event_norm", cpu_us / host_slowdown),
        ("ingest_eps", ingest_eps),
        ("server_cpu_us_per_event", cpu_us),
        ("host_probe_ms", probe_ms),
        ("apply_rtt_p50_us", over_connections(0.5)),
        ("apply_rtt_p99_us", over_connections(0.99)),
        (
            "read_p50_us",
            over_segments(0.5, &|s| percentile(&s.read_us, 0.5)),
        ),
        ("read_p99_us", percentile(&all_reads, 0.99)),
        ("rss_peak_mb", e.rss_peak_kib as f64 / 1024.0),
        (
            "error_rate",
            e.ops.failed as f64 / e.ops.attempted.max(1) as f64,
        ),
        ("audit_mismatches", e.audit.mismatches as f64),
    ]
}

/// The commit of the checkout, read from `.git` in the working
/// directory only; a checkout without `.git` reports `unknown`.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(reference).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        }),
        None => Some(head),
    };
    commit
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        ),
        ("cpu", cpu),
        ("rustc", rustc),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("commit", git_commit()),
    ]
}

fn units_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&REPORT_ONLY)
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or("")
}

fn metrics_json(metrics: &[(&str, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::num(*value)),
                        ("unit", Json::str(units_of(name))),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_metrics(title: &str, metrics: &[(&str, f64)]) {
    println!("# {title}");
    for (name, value) in metrics {
        println!("#   {name:<30} {value:>16.4} {}", units_of(name));
    }
}

fn audit_json(entries: &[dbtoaster_server::AuditMismatch]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|m| {
                let strs = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
                Json::obj([
                    ("view", Json::str(m.view.clone())),
                    ("seq", Json::num(m.seq as f64)),
                    ("kind", Json::str(m.kind.clone())),
                    ("expected", strs(&m.expected)),
                    ("actual", strs(&m.actual)),
                ])
            })
            .collect(),
    )
}

/// Run one benchmark; `Ok(false)` when the correctness gate failed.
fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let w = workload::build(&args.workload, args.seed, args.seconds).ok_or_else(|| {
        format!(
            "unknown workload '{}': {}",
            args.workload,
            workload::NAMES.join("|")
        )
    })?;
    let e = e2e::run(&w, &args.server, &args.work_dir, args.seconds)?;
    let end_to_end = end_to_end_metrics(&e);
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, args.trace as u8);
    let traced = if args.trace {
        let rtt_p50 = end_to_end.iter().find(|(n, _)| *n == "apply_rtt_p50_us");
        let (cpu_s, events) = e
            .segments
            .iter()
            .fold((0.0, 0), |(c, n), s| (c + s.cpu_s, n + s.events));
        let from_e2e = traced::FromE2e {
            singles: e.singles,
            apply_rtt_p50_us: rtt_p50.expect("measured above").1,
            server_cpu_ns_per_event: cpu_s * 1e9 / events.max(1) as f64,
        };
        let trace_path = args.work_dir.join(format!("spans-{stem}.json"));
        Some(traced::run(&w, &from_e2e, args.seconds, &trace_path)?)
    } else {
        None
    };
    let correct = e.ops.failed == 0;
    let host = host_fingerprint();
    let flags = w.server_args().join(" ");

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let host_line: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("# host {}", host_line.join(" "));
    println!("# dbtoasterd {flags}");
    println!("# traffic: {}", w.traffic);
    let reads: usize = e.segments.iter().map(|s| s.read_us.len()).sum();
    let (fed_events, fed_secs) = e
        .segments
        .iter()
        .fold((0, 0.0), |(n, t), s| (n + s.events, t + s.secs));
    println!(
        "# samples: {} set-ups; {} apply round trips over {} connections; {} reads \
         (generator max lateness {:.0} us); {} events fed in {} segments over {} \
         round(s), {:.2} s, server CPU {:.2} s by /proc/<pid>/stat",
        e.setup_s.len(),
        e.rtt_us.iter().map(Vec::len).sum::<usize>(),
        e.rtt_us.len(),
        reads,
        e.max_lateness_us,
        fed_events,
        e.segments.len(),
        e.rounds,
        fed_secs,
        e.phase3_cpu_s
    );
    let stages: Vec<String> = e
        .stages_s
        .iter()
        .map(|(name, s)| format!("{name} {s:.2} s"))
        .collect();
    println!("# stages: {}", stages.join(", "));
    print_metrics("end-to-end", &end_to_end);
    for m in &e.audit.entries {
        println!(
            "# audit mismatch: view={} seq={} kind={} expected={:?} actual={:?}",
            m.view, m.seq, m.kind, m.expected, m.actual
        );
    }
    if let Some(t) = &traced {
        print_metrics(
            &format!(
                "per-layer ({} events replayed in-process)",
                t.replayed_events
            ),
            &t.metrics,
        );
        for (view, maps, statements) in &t.shape {
            println!("#   shape {view}: {maps} maps, {statements} statements");
        }
    }
    for error in &e.ops.errors {
        println!("# FAILED {error}");
    }
    println!(
        "# correctness: {} ({} operations, {} failed; interpreter tolerance {:e} relative)",
        if correct { "ok" } else { "FAILED" },
        e.ops.attempted,
        e.ops.failed,
        check::INTERPRETER_REL_TOL
    );

    let mut report = vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds as f64)),
        (
            "host",
            Json::obj(host.iter().map(|(k, v)| (*k, Json::str(v.clone())))),
        ),
        ("dbtoasterd_flags", Json::str(flags)),
        ("traffic", Json::str(w.traffic.clone())),
        ("interpreter_rel_tol", Json::num(check::INTERPRETER_REL_TOL)),
        ("end_to_end", metrics_json(&end_to_end)),
        ("generator_max_lateness_us", Json::num(e.max_lateness_us)),
        ("audit_entries", audit_json(&e.audit.entries)),
        (
            "errors",
            Json::Arr(e.ops.errors.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    if let Some(t) = &traced {
        report.push(("per_layer", metrics_json(&t.metrics)));
        report.push(("compiler_shape", traced::shape_json(t)));
        report.push(("traced_audit_entries", audit_json(&t.audit_entries)));
    }
    let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::num).collect());
    report.push((
        "per_connection_rtt_p50_us",
        nums(e.rtt_us.iter().map(|c| percentile(c, 0.5)).collect()),
    ));
    report.push((
        "per_segment_eps",
        nums(
            e.segments
                .iter()
                .map(|s| s.events as f64 / s.secs)
                .collect(),
        ),
    ));
    report.push(("host_probe_ns", nums(e.probe.samples_ns.clone())));
    report.push((
        "per_segment_cpu_us_per_event",
        nums(
            e.segments
                .iter()
                .map(|s| s.cpu_s * 1e6 / s.events.max(1) as f64)
                .collect(),
        ),
    ));
    report.push((
        "per_segment_read_p50_us",
        nums(
            e.segments
                .iter()
                .map(|s| percentile(&s.read_us, 0.5))
                .collect(),
        ),
    ));
    let report_path = args.work_dir.join(format!("report-{stem}.json"));
    std::fs::write(&report_path, format!("{}\n", Json::obj(report)))
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    println!("# report: {}", report_path.display());

    let line = match &traced {
        Some(t) => result_line(
            correct,
            e.ops.attempted,
            e.ops.failed,
            &t.metrics,
            &PER_LAYER,
        )?,
        None => result_line(
            correct,
            e.ops.attempted,
            e.ops.failed,
            &end_to_end,
            &END_TO_END,
        )?,
    };
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(table: &[(&str, &str)]) -> Vec<(String, String)> {
        let measured: Vec<(&str, f64)> = table.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(true, 1, 0, &measured, table).unwrap();
        let Json::Obj(metrics) = Json::parse(&line.to_string())
            .unwrap()
            .get("metrics")
            .unwrap()
            .clone()
        else {
            panic!("metrics is an object")
        };
        metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_equal_benchmark_json() {
        let spec = benchmark_json();
        assert_eq!(printed(&END_TO_END), declared(&spec, "end_to_end"));
        assert_eq!(printed(&PER_LAYER), declared(&spec, "per_layer"));
        let workloads: Vec<_> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, workload::NAMES);
    }

    #[test]
    fn every_measured_metric_has_a_slot() {
        let e = e2e::E2e::default();
        let names: Vec<&str> = end_to_end_metrics(&e).iter().map(|(n, _)| *n).collect();
        let slots: Vec<&str> = END_TO_END
            .iter()
            .chain(&REPORT_ONLY)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names, slots);
        assert!(result_line(true, 1, 0, &[("setup_s", 1.0)], &END_TO_END).is_err());
    }

    #[test]
    fn arguments_parse() {
        let args = parse_args(
            "--workload ssb_q41 --seed 7 --seconds 3 --trace 1 --server s --work-dir w"
                .split(' ')
                .map(String::from),
        )
        .unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        assert!(parse_args(["--seed".to_string()].into_iter()).is_err());
        assert!(parse_args(["--bogus".to_string(), "1".to_string()].into_iter()).is_err());
    }
}
