//! Nested-aggregate incremental maintenance: randomized equivalence of
//! the materialization hierarchy against two independent references.
//!
//! Every nested query below is compiled twice — through the default
//! **hierarchy** (inner aggregates extracted into delta-maintained child
//! maps, the outer map re-established from them by one post-event `:=`,
//! no base-relation maps) and through the legacy **re-evaluation**
//! oracle mode (`CompileOptions::nested_replace()`) — and both are
//! checked against the `exec` interpreter re-evaluating the SQL from
//! scratch over the live database. All data is integer-valued, so
//! arithmetic is exact in every engine and the comparisons are
//! **bit-exact** (`assert_eq!` on `Value`s), not tolerance-based.
//!
//! The streams are randomized mixed inserts and deletes of live rows
//! (seeded, so failures reproduce). The portfolio also carries the flat
//! self-join shape from PR 2 (pre-event map reads on the update path) to
//! keep that regression covered next to the staged schedule, and the
//! release-mode test drives the same portfolio through a
//! `ShardedDispatcher` worker pool.

use std::collections::BTreeSet;

use dbtoaster::calculus::translate_query;
use dbtoaster::compiler::{
    compile_sql, CompileOptions, StatementKind, TriggerProgram, STAGE_DELTA, STAGE_REBUILD,
};
use dbtoaster::exec::{evaluate_query, Database};
use dbtoaster::prelude::*;
use dbtoaster::sql::{analyze, parse_query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Integer order book + order flow: exact arithmetic end to end.
fn catalog() -> Catalog {
    Catalog::new()
        .with(Schema::new(
            "BOOK",
            vec![
                ("PRICE", ColumnType::Int),
                ("VOLUME", ColumnType::Int),
                ("BROKER", ColumnType::Int),
            ],
        ))
        .with(Schema::new(
            "ORD",
            vec![
                ("PRICE", ColumnType::Int),
                ("VOLUME", ColumnType::Int),
                ("BROKER", ColumnType::Int),
            ],
        ))
}

/// Correlated inequality subquery (the nested-VWAP shape, integerized).
const Q_VWAP: &str = "select sum(b1.PRICE * b1.VOLUME) from BOOK b1 \
     where (select sum(b3.VOLUME) from BOOK b3) > \
           4 * (select sum(b2.VOLUME) from BOOK b2 where b2.PRICE > b1.PRICE)";

/// Uncorrelated scalar subquery.
const Q_UNCORR: &str = "select sum(b1.PRICE * b1.VOLUME) from BOOK b1 \
     where b1.PRICE * 4 > (select sum(b2.VOLUME) from BOOK b2)";

/// Cross-relation EXISTS with equality correlation.
const Q_EXISTS: &str = "select count(*) from BOOK b \
     where exists (select 1 from ORD c where c.PRICE = b.PRICE)";

/// Grouped view over a correlated subquery on another relation.
const Q_GROUP: &str = "select b.BROKER, sum(b.VOLUME) from BOOK b \
     where (select sum(c.VOLUME) from ORD c where c.BROKER = b.BROKER) > 20 \
     group by b.BROKER";

/// Depth-2 nesting: a subquery whose own predicate holds a subquery.
const Q_DEEP: &str = "select sum(b.VOLUME) from BOOK b \
     where b.PRICE > (select sum(c.VOLUME) from ORD c \
                      where c.PRICE > (select count(*) from BOOK))";

/// ORs on both levels: a single-relation OR on the outer atom and one
/// inside the correlated subquery are absorbed into the children whole,
/// and one spanning the correlation is distributed.
const Q_OR: &str = "select sum(b.VOLUME) from BOOK b \
     where (b.BROKER = 1 or b.BROKER = 2) \
       and (select sum(c.VOLUME) from ORD c where c.PRICE = b.PRICE \
            and (c.BROKER = 0 or c.VOLUME > 10) \
            and (c.BROKER = b.BROKER or c.VOLUME < 5)) > 5";

/// Flat self-join (the PR 2 pre-event-read regression shape).
const Q_SELFJOIN: &str = "select sum(b1.VOLUME * b2.VOLUME) from BOOK b1, BOOK b2 \
     where b1.PRICE = b2.PRICE";

fn nested_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("q_vwap", Q_VWAP),
        ("q_uncorr", Q_UNCORR),
        ("q_exists", Q_EXISTS),
        ("q_group", Q_GROUP),
        ("q_deep", Q_DEEP),
        ("q_or", Q_OR),
    ]
}

/// A randomized mixed stream over BOOK and ORD: inserts of fresh rows
/// and deletes of currently-live rows, bounded price/volume domains so
/// correlation keys genuinely collide.
fn random_stream(seed: u64, events: usize) -> Vec<Event> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: Vec<(&'static str, Tuple)> = Vec::new();
    let mut out = Vec::with_capacity(events);
    for _ in 0..events {
        let delete = !live.is_empty() && rng.gen_bool(0.35);
        if delete {
            let i = rng.gen_range(0..live.len());
            let (rel, tuple) = live.swap_remove(i);
            out.push(Event::delete(rel, tuple));
        } else {
            let rel = if rng.gen_bool(0.6) { "BOOK" } else { "ORD" };
            let tuple = tuple![
                rng.gen_range(1i64..40),
                rng.gen_range(1i64..20),
                rng.gen_range(0i64..6)
            ];
            live.push((rel, tuple.clone()));
            out.push(Event::insert(rel, tuple));
        }
    }
    out
}

/// The hierarchy's shape: no statement scans a relation, no `BASE_*`
/// map exists, and in every trigger each nested map is kept by exactly
/// one stage +1 `Replace` (its `:=` over child maps) while every other
/// statement is a stage-0 delta update.
fn assert_hierarchy_shape(name: &str, p: &TriggerProgram) {
    assert!(
        p.maps.iter().all(|m| !m.is_base_relation),
        "{name}: the hierarchy needs no base-relation maps\n{}",
        p.pretty()
    );
    let mut rebuilds = 0;
    for t in &p.triggers {
        let replaced: Vec<&str> = t
            .statements
            .iter()
            .filter(|s| s.kind == StatementKind::Replace)
            .map(|s| s.target.as_str())
            .collect();
        let distinct: BTreeSet<&str> = replaced.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            replaced.len(),
            "{name}: one := per map\n{t}"
        );
        for s in &t.statements {
            assert!(!s.update.has_relations(), "{name}: residual scan in {s}");
            match s.kind {
                StatementKind::Replace => assert_eq!(s.stage, STAGE_REBUILD, "{name}: {s}"),
                StatementKind::Update => {
                    assert_eq!(s.stage, STAGE_DELTA, "{name}: {s}");
                    assert!(
                        !distinct.contains(s.target.as_str()),
                        "{name}: a rebuilt map is also updated: {s}"
                    );
                }
            }
        }
        rebuilds += replaced.len();
    }
    assert!(rebuilds > 0, "{name}: no nested map is rebuilt");
}

/// Re-evaluate a query from scratch with the reference interpreter.
fn oracle(sql: &str, catalog: &Catalog, db: &Database) -> Vec<(Tuple, Vec<Value>)> {
    let qc = translate_query(&analyze(&parse_query(sql).unwrap(), catalog).unwrap(), "Q").unwrap();
    let mut rows = evaluate_query(&qc, db).unwrap();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

fn assert_rows_exact(name: &str, at: usize, got: &[ResultRow], want: &[(Tuple, Vec<Value>)]) {
    assert_eq!(
        got.len(),
        want.len(),
        "{name}@{at}: row count {} vs oracle {}",
        got.len(),
        want.len()
    );
    for (g, (key, values)) in got.iter().zip(want) {
        assert_eq!(&g.key, key, "{name}@{at}: group key diverged");
        assert_eq!(
            &g.values, values,
            "{name}@{at}: values diverged (bit-exact)"
        );
    }
}

#[test]
fn hierarchy_matches_interpreter_and_replace_oracle_bit_exactly() {
    let catalog = catalog();
    let mut hierarchy: Vec<(&str, Engine)> = Vec::new();
    let mut replace: Vec<(&str, Engine)> = Vec::new();
    for (name, sql) in nested_queries() {
        let h = compile_sql(sql, &catalog, &CompileOptions::full()).unwrap();
        assert_hierarchy_shape(name, &h);
        hierarchy.push((name, Engine::new(&h).unwrap()));
        let r = compile_sql(sql, &catalog, &CompileOptions::nested_replace()).unwrap();
        assert!(
            r.triggers
                .iter()
                .flat_map(|t| &t.statements)
                .any(|s| s.kind == StatementKind::Replace),
            "{name}: the oracle mode must actually re-evaluate"
        );
        replace.push((name, Engine::new(&r).unwrap()));
    }
    // The flat self-join rides along in the same suite (hierarchy is a
    // no-op for it; the delta path and its pre-event reads must stay
    // intact next to the staged schedule).
    let sj = compile_sql(Q_SELFJOIN, &catalog, &CompileOptions::full()).unwrap();
    hierarchy.push(("q_selfjoin", Engine::new(&sj).unwrap()));
    replace.push(("q_selfjoin", Engine::new(&sj).unwrap()));

    let mut db = Database::new();
    let stream = random_stream(0xD817, 360);
    for (at, event) in stream.iter().enumerate() {
        db.apply(event);
        for (_, engine) in hierarchy.iter_mut().chain(replace.iter_mut()) {
            engine.on_event(event).unwrap();
        }
        // Checkpoints keep the interpreter cost bounded; the final event
        // is always checked.
        if at % 60 != 59 && at + 1 != stream.len() {
            continue;
        }
        for ((name, h), (_, r)) in hierarchy.iter().zip(&replace) {
            let sql = nested_queries()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, sql)| sql)
                .unwrap_or(Q_SELFJOIN);
            let want = oracle(sql, &catalog, &db);
            assert_rows_exact(name, at, &h.result(), &want);
            assert_rows_exact(&format!("{name}(replace)"), at, &r.result(), &want);
        }
    }
}

#[test]
fn deleting_every_row_returns_every_view_to_empty() {
    // Deletion-heavy edge case: build up, then tear down to the empty
    // database; the rebuild must land on exact zero (no residual
    // entries — integer arithmetic cancels exactly).
    let catalog = catalog();
    let mut engines: Vec<(&str, Engine)> = nested_queries()
        .into_iter()
        .map(|(name, sql)| {
            let p = compile_sql(sql, &catalog, &CompileOptions::full()).unwrap();
            (name, Engine::new(&p).unwrap())
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut live: Vec<(&'static str, Tuple)> = Vec::new();
    for _ in 0..120 {
        let rel = if rng.gen_bool(0.5) { "BOOK" } else { "ORD" };
        let tuple = tuple![
            rng.gen_range(1i64..15),
            rng.gen_range(1i64..10),
            rng.gen_range(0i64..4)
        ];
        live.push((rel, tuple.clone()));
        for (_, e) in &mut engines {
            e.on_event(&Event::insert(rel, tuple.clone())).unwrap();
        }
    }
    while let Some((rel, tuple)) = live.pop() {
        for (_, e) in &mut engines {
            e.on_event(&Event::delete(rel, tuple.clone())).unwrap();
        }
    }
    let db = Database::new(); // empty reference
    for (name, engine) in &engines {
        let sql = nested_queries()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, sql)| sql)
            .unwrap();
        let want = oracle(sql, &catalog, &db);
        assert_rows_exact(name, usize::MAX, &engine.result(), &want);
    }
}

#[test]
fn shared_store_materializes_hierarchy_children_once_across_nested_views() {
    // Two nested views differing only in a constant share every child
    // map (the constant lives in the outer comparison); the store must
    // materialize each inner aggregate once, and both views must still
    // answer exactly like private engines.
    let catalog = catalog();
    let q_vwap_2 = Q_VWAP.replace("4 *", "2 *");
    let mut server = ViewServer::new(&catalog);
    server.register("vwap4", Q_VWAP).unwrap();
    server.register("vwap2", &q_vwap_2).unwrap();

    let report = server.store_report();
    let shared_children: Vec<_> = report
        .maps
        .iter()
        .filter(|m| {
            !m.is_base_relation
                && m.aliases.iter().any(|(v, _)| v == "vwap4")
                && m.aliases.iter().any(|(v, _)| v == "vwap2")
        })
        .collect();
    assert!(
        shared_children.len() >= 3,
        "expected the inner-aggregate maps to be shared: {report:#?}"
    );
    assert!(shared_children.iter().all(|m| m.sharers == 2));
    assert!(shared_children.iter().all(|m| m.maintainer == "vwap4"));

    let stream = random_stream(0xBEEF, 300);
    server.apply_batch(&stream).unwrap();
    assert!(
        server.store_report().dedup_skipped_statements > 0,
        "vwap2's statements over shared children must be skipped"
    );

    for (name, sql) in [("vwap4", Q_VWAP), ("vwap2", q_vwap_2.as_str())] {
        let program = compile_sql(sql, &catalog, &CompileOptions::full()).unwrap();
        let mut engine = Engine::new(&program).unwrap();
        for event in &stream {
            engine.on_event(event).unwrap();
        }
        assert_eq!(
            server.result(name).unwrap(),
            engine.result(),
            "{name} diverged from its private engine"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "equivalence stress is release-only")]
fn sharded_dispatch_agrees_with_sequential_on_nested_portfolio() {
    // The staged schedule must survive the worker pool: a portfolio of
    // nested, grouped-nested, EXISTS and flat self-join views over two
    // relations, randomized mixed stream, sharded vs sequential —
    // snapshots exactly equal at every worker count.
    let catalog = catalog();
    let portfolio: Vec<(&str, &str)> = nested_queries()
        .into_iter()
        .chain([("q_selfjoin", Q_SELFJOIN)])
        .collect();
    let build = |catalog: &Catalog| {
        let mut server = ViewServer::new(catalog);
        for (name, sql) in &portfolio {
            server.register(name, sql).unwrap();
        }
        server
    };
    let stream = random_stream(0xFEED5, 4_000);

    let sequential = build(&catalog);
    for chunk in stream.chunks(97) {
        sequential.apply_batch(chunk).unwrap();
    }
    let reference = sequential.snapshot_all();

    for workers in [2usize, 4] {
        let dispatcher = ShardedDispatcher::new(std::sync::Arc::new(build(&catalog)), workers);
        for chunk in stream.chunks(97) {
            dispatcher.apply_batch(chunk).unwrap();
        }
        let snapshots = dispatcher.server().snapshot_all();
        assert_eq!(
            snapshots, reference,
            "sharded({workers}) diverged from sequential"
        );
    }
}
