//! The DBMS bakeoff report (experiments E2 + E3).
//!
//! Runs every engine over the financial and warehouse-loading workloads
//! and prints the throughput/memory table plus the speed-up of the
//! compiled engine over each baseline (the paper's 1–3 orders of
//! magnitude claim). Usage: `cargo run --release -p dbtoaster-bench --bin
//! bakeoff [messages]`.

use dbtoaster_bench::json::{write_bench_json, Json};
use dbtoaster_bench::{measure, render_table, speedups, BakeoffRow, EngineKind};
use dbtoaster_compiler::{compile_sql, CompileOptions};
use dbtoaster_workloads::orderbook::{
    finance_queries, orderbook_catalog, OrderBookConfig, OrderBookGenerator,
};
use dbtoaster_workloads::tpch::{ssb_catalog, transform_to_ssb, TpchConfig, TpchData, SSB_Q41};

fn main() {
    let messages: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);

    let mut rows = Vec::new();

    // E2: financial application.
    let finance_catalog = orderbook_catalog();
    let finance_stream = OrderBookGenerator::new(OrderBookConfig {
        messages,
        book_depth: messages / 5,
        ..Default::default()
    })
    .generate();
    println!(
        "order-book stream: {} events ({:?})",
        finance_stream.len(),
        finance_stream.counts_by_relation()
    );
    for (name, sql) in finance_queries() {
        for kind in EngineKind::all() {
            let events: Vec<_> = if kind == EngineKind::NaiveReeval {
                finance_stream.events.iter().take(500).cloned().collect()
            } else {
                finance_stream.events.clone()
            };
            match measure(kind, name, sql, &finance_catalog, &events) {
                Ok(row) => rows.push(row),
                Err(e) => eprintln!("{name}/{}: {e}", kind.label()),
            }
        }
    }

    // E3: warehouse loading (SSB Q4.1 over the transformed TPC-H stream).
    let warehouse_catalog = ssb_catalog();
    let data = TpchData::generate(&TpchConfig::at_scale(messages as f64 / 200_000.0));
    let warehouse_stream = transform_to_ssb(&data);
    println!(
        "warehouse loading stream: {} events",
        warehouse_stream.len()
    );
    for kind in EngineKind::all() {
        let events: Vec<_> = if kind == EngineKind::NaiveReeval {
            warehouse_stream.events.iter().take(400).cloned().collect()
        } else {
            warehouse_stream.events.clone()
        };
        match measure(kind, "ssb_q41", SSB_Q41, &warehouse_catalog, &events) {
            Ok(row) => rows.push(row),
            Err(e) => eprintln!("ssb_q41/{}: {e}", kind.label()),
        }
    }

    println!("\n== bakeoff ==\n{}", render_table(&rows));
    println!("== dbtoaster speed-up over baselines ==");
    for (query, engine, factor) in speedups(&rows) {
        println!("{query:<18} vs {engine:<18} {factor:>10.1}x");
    }

    // Machine-readable trajectory (tracked across PRs).
    let row_json = |r: &BakeoffRow| {
        Json::obj([
            ("query", Json::str(r.query.clone())),
            ("engine", Json::str(r.engine)),
            ("events", Json::from(r.events)),
            ("seconds", Json::from(r.seconds)),
            ("events_per_sec", Json::from(r.tuples_per_second)),
            ("memory_bytes", Json::from(r.memory_bytes)),
        ])
    };
    // The compiled shape behind each dbtoaster row.
    let mut shapes = Vec::new();
    println!("\n== compiled shape (maps / statements) ==");
    let queries = finance_queries()
        .into_iter()
        .map(|(name, sql)| (name, sql, &finance_catalog));
    for (name, sql, catalog) in queries.chain([("ssb_q41", SSB_Q41, &warehouse_catalog)]) {
        match compile_sql(sql, catalog, &CompileOptions::full()) {
            Ok(p) => {
                println!("{name:<18} {:>4} / {}", p.maps.len(), p.statement_count());
                shapes.push(Json::obj([
                    ("query", Json::str(name)),
                    ("maps", Json::from(p.maps.len())),
                    ("statements", Json::from(p.statement_count())),
                ]));
            }
            Err(e) => eprintln!("{name}: {e}"),
        }
    }
    let report = Json::obj([
        ("bench", Json::str("bakeoff")),
        ("messages", Json::from(messages)),
        ("rows", Json::Arr(rows.iter().map(row_json).collect())),
        ("shapes", Json::Arr(shapes)),
        (
            "speedups",
            Json::Arr(
                speedups(&rows)
                    .into_iter()
                    .map(|(query, engine, factor)| {
                        Json::obj([
                            ("query", Json::str(query)),
                            ("vs", Json::str(engine)),
                            ("factor", Json::from(factor)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    match write_bench_json("bakeoff", &report) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_bakeoff.json: {e}"),
    }
}
