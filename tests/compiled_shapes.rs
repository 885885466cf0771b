//! The compiled shape — maps and statements — of the workload queries.
//!
//! Counts are pinned so that a change to the map algebra that grows a
//! program fails here, before it shows up as lost throughput. SSB Q4.1
//! is the star join whose map lattice once grew to 195 maps and 904
//! statements: distributing its difference measure and its OR into
//! separate map families, and registering one sub-aggregate once per key
//! permutation.

use std::collections::BTreeSet;

use dbtoaster::calculus::{canonical_form, canonical_key_order, CalcExpr};
use dbtoaster::compiler::{compile_sql, CompileOptions, TriggerProgram, STAGE_DELTA};
use dbtoaster::prelude::*;
use dbtoaster::workloads::orderbook::{
    orderbook_catalog, MARKET_MAKER, SOBI, VWAP_COMPONENTS, VWAP_NESTED,
};
use dbtoaster::workloads::tpch::{ssb_catalog, SSB_Q41};

fn compile(sql: &str, catalog: &Catalog, options: &CompileOptions) -> TriggerProgram {
    compile_sql(sql, catalog, options).unwrap()
}

fn shape(p: &TriggerProgram) -> (usize, usize) {
    (p.maps.len(), p.statement_count())
}

/// Nested maps are rebuilt after the delta phase; nothing runs before
/// it.
fn assert_no_pre_event_stage(p: &TriggerProgram) {
    for t in &p.triggers {
        for s in &t.statements {
            assert!(
                s.stage >= STAGE_DELTA,
                "stage {} before the deltas: {s}",
                s.stage
            );
        }
    }
}

#[test]
fn ssb_q41_compiles_to_a_small_map_lattice() {
    let p = compile(SSB_Q41, &ssb_catalog(), &CompileOptions::full());
    assert_eq!(shape(&p), (20, 104), "{}", p.pretty());
    assert_no_pre_event_stage(&p);
    // Per-event work on the fact table.
    let on_fact = p.trigger("LINEORDER", EventKind::Insert).unwrap();
    assert_eq!(on_fact.statements.len(), 16, "{}", p.pretty());
    // No two maps are the same sub-aggregate with permuted keys.
    let mut seen = BTreeSet::new();
    for m in &p.maps {
        let CalcExpr::AggSum { body, .. } = &m.definition else {
            panic!("map {} is not an aggregate", m.name);
        };
        let form = canonical_form(&canonical_key_order(&m.keys, body), body);
        assert!(seen.insert(form), "map {} duplicates another", m.name);
    }

    // First-order compilation uses the same normalization.
    let first = compile(SSB_Q41, &ssb_catalog(), &CompileOptions::first_order());
    assert_eq!(shape(&first), (6, 20), "{}", first.pretty());
    assert_no_pre_event_stage(&first);
}

#[test]
fn order_book_and_figure2_shapes_are_unchanged() {
    let book = orderbook_catalog();
    for (sql, expected) in [
        (VWAP_COMPONENTS, (2, 4)),
        (VWAP_NESTED, (4, 8)),
        (SOBI, (5, 16)),
        (MARKET_MAKER, (5, 16)),
    ] {
        let p = compile(sql, &book, &CompileOptions::full());
        assert_eq!(shape(&p), expected, "{sql}\n{}", p.pretty());
        assert_no_pre_event_stage(&p);
    }
    let rst = Catalog::new()
        .with(Schema::new(
            "R",
            vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
        ))
        .with(Schema::new(
            "S",
            vec![("B", ColumnType::Int), ("C", ColumnType::Int)],
        ))
        .with(Schema::new(
            "T",
            vec![("C", ColumnType::Int), ("D", ColumnType::Int)],
        ));
    let figure2 = compile(
        "select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C",
        &rst,
        &CompileOptions::full(),
    );
    assert_eq!(shape(&figure2), (6, 20), "{}", figure2.pretty());
    assert_no_pre_event_stage(&figure2);
}
