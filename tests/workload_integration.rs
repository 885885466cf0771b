//! End-to-end integration of the workload generators with the compiled
//! engine and the baselines: the financial and warehouse-loading
//! scenarios run to completion and the compiled engine's answers match
//! the baselines on a prefix of the stream.

use dbtoaster::baselines::{sorted_result, StandingQueryEngine, StreamEngine};
use dbtoaster::prelude::*;
use dbtoaster::workloads::orderbook::{
    orderbook_catalog, OrderBookConfig, OrderBookGenerator, MARKET_MAKER, SOBI, VWAP_COMPONENTS,
    VWAP_NESTED,
};
use dbtoaster::workloads::tpch::{
    ssb_catalog, transform_to_ssb, TpchConfig, TpchData, SSB_Q41, SSB_REVENUE_BY_YEAR,
};

#[test]
fn orderbook_queries_run_over_the_generated_stream() {
    let cat = orderbook_catalog();
    let stream = OrderBookGenerator::new(OrderBookConfig {
        messages: 3_000,
        book_depth: 400,
        ..Default::default()
    })
    .generate();

    let mut vwap = dbtoaster::StandingQuery::compile(VWAP_COMPONENTS, &cat).unwrap();
    let mut sobi = dbtoaster::StandingQuery::compile(SOBI, &cat).unwrap();
    let mut maker = dbtoaster::StandingQuery::compile(MARKET_MAKER, &cat).unwrap();
    for e in &stream {
        vwap.on_event(e).unwrap();
        sobi.on_event(e).unwrap();
        maker.on_event(e).unwrap();
    }
    let row = &vwap.result()[0];
    assert!(
        row.values[0].as_f64() > 0.0,
        "price-volume mass must be positive"
    );
    assert!(row.values[1].as_f64() > 0.0, "volume must be positive");
    // VWAP lands inside the generator's price band.
    let vwap_value = row.values[0].as_f64() / row.values[1].as_f64();
    assert!(
        (90.0..=110.0).contains(&vwap_value),
        "VWAP {vwap_value} outside the band"
    );
    assert!(!maker.result().is_empty());
}

#[test]
fn orderbook_results_match_the_stream_baseline() {
    let cat = orderbook_catalog();
    let stream = OrderBookGenerator::new(OrderBookConfig {
        messages: 800,
        book_depth: 200,
        ..Default::default()
    })
    .generate();
    for sql in [SOBI, MARKET_MAKER] {
        let mut compiled = dbtoaster::StandingQuery::compile(sql, &cat).unwrap();
        let mut baseline = StreamEngine::new(sql, &cat).unwrap();
        for e in &stream {
            compiled.on_event(e).unwrap();
            baseline.on_event(e).unwrap();
        }
        let compiled_rows: Vec<_> = compiled
            .result()
            .into_iter()
            .map(|r| (r.key, r.values))
            .collect();
        let expected = sorted_result(baseline.result());
        let got = sorted_result(compiled_rows);
        // Floating-point aggregates are accumulated in different orders by
        // the two engines, so compare with a relative tolerance.
        assert_eq!(got.len(), expected.len(), "{sql}");
        for ((gk, gv), (ek, ev)) in got.iter().zip(&expected) {
            assert_eq!(gk, ek, "{sql}");
            for (g, e) in gv.iter().zip(ev) {
                let (g, e) = (g.as_f64(), e.as_f64());
                let scale = g.abs().max(e.abs()).max(1.0);
                assert!((g - e).abs() / scale < 1e-9, "{sql}: {g} vs {e}");
            }
        }
    }
}

#[test]
fn nested_vwap_matches_the_reference_interpreter() {
    use dbtoaster::calculus::translate_query;
    use dbtoaster::exec::{evaluate_query, Database};
    use dbtoaster::sql::{analyze, parse_query};

    let cat = orderbook_catalog();
    let stream = OrderBookGenerator::new(OrderBookConfig {
        messages: 120,
        book_depth: 60,
        ..Default::default()
    })
    .generate();
    let mut compiled = dbtoaster::StandingQuery::compile(VWAP_NESTED, &cat).unwrap();
    let qc = translate_query(
        &analyze(&parse_query(VWAP_NESTED).unwrap(), &cat).unwrap(),
        "Q",
    )
    .unwrap();
    let mut db = Database::new();
    for e in &stream {
        compiled.on_event(e).unwrap();
        db.apply(e);
    }
    let oracle = evaluate_query(&qc, &db).unwrap()[0].1[0].clone();
    let got = compiled.scalar();
    assert!(
        (got.as_f64() - oracle.as_f64()).abs() < 1e-6,
        "nested VWAP diverged: {got} vs {oracle}"
    );
}

#[test]
fn warehouse_loading_maintains_ssb_q41() {
    let cat = ssb_catalog();
    let data = TpchData::generate(&TpchConfig {
        orders: 400,
        ..Default::default()
    });
    let stream = transform_to_ssb(&data);

    let mut q41 = dbtoaster::StandingQuery::compile(SSB_Q41, &cat).unwrap();
    let mut revenue = dbtoaster::StandingQuery::compile(SSB_REVENUE_BY_YEAR, &cat).unwrap();
    q41.process(&stream).unwrap();
    revenue.process(&stream).unwrap();

    assert!(!q41.result().is_empty());
    // Groups are (year, AMERICA-region nation): years within the generated
    // range, nations from the AMERICA region.
    for row in q41.result() {
        let year = row.values[0].as_i64();
        assert!((1993..=2000).contains(&year));
        assert!(row.values[2].as_f64() > 0.0);
    }
    // Revenue per year is positive for every generated year.
    assert_eq!(revenue.result().len(), 5 * 4 / 4); // one row per generated year
}

/// Q4.1 keeps its `LO_REVENUE - LO_SUPPLYCOST` measure and its `P_MFGR`
/// disjunction whole until a delta makes them straddle an aggregation;
/// the interpreter re-evaluates the SQL itself, so a wrong rewrite shows
/// up as a diverging group, after the load and again after deletions.
#[test]
fn ssb_q41_matches_the_reference_interpreter() {
    use dbtoaster::calculus::translate_query;
    use dbtoaster::exec::{evaluate_query, Database};
    use dbtoaster::sql::{analyze, parse_query};

    let cat = ssb_catalog();
    // The interpreter's plan is the cross product of the four dimension
    // tables, so the warehouse stays tiny.
    let stream = transform_to_ssb(&TpchData::generate(&TpchConfig {
        customers: 10,
        suppliers: 10,
        parts: 5,
        orders: 40,
        lines_per_order: 4,
        years: 1,
        seed: 3,
    }));
    // Then retract every other fact, newest first.
    let deletions: Vec<Event> = stream
        .events
        .iter()
        .rev()
        .filter(|e| e.relation == "LINEORDER")
        .step_by(2)
        .map(|e| Event::delete(e.relation.clone(), e.tuple.clone()))
        .collect();
    let qc = translate_query(&analyze(&parse_query(SSB_Q41).unwrap(), &cat).unwrap(), "Q").unwrap();
    let mut q41 = dbtoaster::StandingQuery::compile(SSB_Q41, &cat).unwrap();
    let mut db = Database::new();
    for events in [&stream.events, &deletions] {
        for e in events {
            q41.on_event(e).unwrap();
            db.apply(e);
        }
        let mut expected = evaluate_query(&qc, &db).unwrap();
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        let mut got: Vec<_> = q41
            .result()
            .into_iter()
            .map(|r| (r.key, r.values))
            .collect();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert!(!expected.is_empty(), "the instance must produce groups");
        assert_eq!(got.len(), expected.len(), "{got:?} vs {expected:?}");
        for ((gk, gv), (ek, ev)) in got.iter().zip(&expected) {
            assert_eq!(gk, ek);
            for (g, e) in gv.iter().zip(ev) {
                let (g, e) = (g.as_f64(), e.as_f64());
                let scale = g.abs().max(e.abs()).max(1.0);
                assert!((g - e).abs() / scale < 1e-9, "group {gk:?}: {g} vs {e}");
            }
        }
    }
}

#[test]
fn standalone_server_handles_the_financial_workload() {
    let cat = orderbook_catalog();
    let stream = OrderBookGenerator::new(OrderBookConfig {
        messages: 1_000,
        book_depth: 200,
        ..Default::default()
    })
    .generate();
    let program = dbtoaster::compiler::compile_sql(
        VWAP_COMPONENTS,
        &cat,
        &dbtoaster::compiler::CompileOptions::full(),
    )
    .unwrap();
    let server = StandaloneServer::start(&program, 256).unwrap();
    let total = stream.len() as u64;
    server.send_all(stream);
    while server.events_processed() < total {
        std::thread::yield_now();
    }
    let rows = server.result();
    assert!(rows[0].values[1].as_f64() > 0.0);
    server.shutdown();
}
