//! The correctness gate: wire snapshots against an in-process
//! sequential reference (bit for bit) and against the `exec`
//! interpreter (within a relative float tolerance).

use dbtoaster_calculus::translate_query;
use dbtoaster_common::{Catalog, Event, Result, Tuple, Value};
use dbtoaster_exec::{evaluate_query, Database};
use dbtoaster_server::{ViewServer, ViewSnapshot};
use dbtoaster_sql::{analyze, parse_query};

/// Relative tolerance of the interpreter comparison: the interpreter
/// sums in a different order than the compiled triggers.
pub const INTERPRETER_REL_TOL: f64 = 1e-9;

/// Register `views` on a fresh in-process server.
pub fn reference_server(catalog: &Catalog, views: &[(&str, &str)]) -> Result<ViewServer> {
    let mut server = ViewServer::new(catalog);
    for (name, sql) in views {
        server.register(name, sql)?;
    }
    Ok(server)
}

/// Bitwise value equality: floats compare by IEEE bit pattern, so
/// `-0.0 != 0.0` and a one-ulp difference is a difference.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Float(_), _) | (_, Value::Float(_)) => false,
        _ => a == b,
    }
}

fn same_tuple(a: &Tuple, b: &Tuple) -> bool {
    a.0.len() == b.0.len() && a.0.iter().zip(&b.0).all(|(x, y)| same_bits(x, y))
}

/// The first bitwise difference between two snapshot sets, if any.
pub fn snapshot_diff(expected: &[ViewSnapshot], got: &[ViewSnapshot]) -> Option<String> {
    if expected.len() != got.len() {
        return Some(format!("{} views, expected {}", got.len(), expected.len()));
    }
    for (e, g) in expected.iter().zip(got) {
        let view = &e.name;
        if e.name != g.name || e.columns != g.columns {
            return Some(format!("view {view}: name or columns differ ({})", g.name));
        }
        if e.events_processed != g.events_processed {
            return Some(format!(
                "view {view}: {} events processed, expected {}",
                g.events_processed, e.events_processed
            ));
        }
        if e.rows.len() != g.rows.len() {
            return Some(format!(
                "view {view}: {} rows, expected {}",
                g.rows.len(),
                e.rows.len()
            ));
        }
        for (er, gr) in e.rows.iter().zip(&g.rows) {
            if !same_tuple(&er.key, &gr.key)
                || er.values.len() != gr.values.len()
                || !er
                    .values
                    .iter()
                    .zip(&gr.values)
                    .all(|(x, y)| same_bits(x, y))
            {
                return Some(format!(
                    "view {view}: row {:?} = {:?}, expected {:?} = {:?}",
                    gr.key, gr.values, er.key, er.values
                ));
            }
        }
    }
    None
}

fn close(expected: &Value, got: &Value, tol: f64) -> bool {
    match (expected, got) {
        (Value::Float(_), _) | (_, Value::Float(_)) => {
            let (e, g) = (expected.as_f64(), got.as_f64());
            (e - g).abs() <= tol * e.abs().max(g.abs()).max(1.0)
        }
        _ => expected == got,
    }
}

/// Compare one view's snapshot with the interpreter's re-evaluation of
/// its SQL over `db`; group keys and non-float values exactly, floats
/// within `tol` relative to `max(|a|, |b|, 1)`.
pub fn interpreter_diff(
    catalog: &Catalog,
    sql: &str,
    db: &Database,
    got: &ViewSnapshot,
    tol: f64,
) -> Result<Option<String>> {
    let query = translate_query(&analyze(&parse_query(sql)?, catalog)?, "Q")?;
    let mut oracle = evaluate_query(&query, db)?;
    oracle.sort_by(|a, b| a.0.cmp(&b.0));
    let mut rows: Vec<_> = got.rows.iter().collect();
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    let view = &got.name;
    if rows.len() != oracle.len() {
        return Ok(Some(format!(
            "view {view}: {} rows, interpreter has {}",
            rows.len(),
            oracle.len()
        )));
    }
    for (row, (key, values)) in rows.iter().zip(&oracle) {
        let matches = row.key == *key
            && row.values.len() == values.len()
            && values
                .iter()
                .zip(&row.values)
                .all(|(e, g)| close(e, g, tol));
        if !matches {
            return Ok(Some(format!(
                "view {view}: row {:?} = {:?}, interpreter {:?} = {:?}",
                row.key, row.values, key, values
            )));
        }
    }
    Ok(None)
}

/// Check every view of `got` against the interpreter over `events`.
pub fn interpreter_check(
    catalog: &Catalog,
    views: &[(&str, &str)],
    events: &[Event],
    got: &[ViewSnapshot],
) -> Result<Vec<String>> {
    let mut db = Database::new();
    for e in events {
        db.apply(e);
    }
    let mut failures = Vec::new();
    for (name, sql) in views {
        match got.iter().find(|s| s.name == *name) {
            Some(snapshot) => {
                if let Some(diff) =
                    interpreter_diff(catalog, sql, &db, snapshot, INTERPRETER_REL_TOL)?
                {
                    failures.push(diff);
                }
            }
            None => failures.push(format!("view {name}: missing from the snapshot")),
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_workloads::orderbook::{
        orderbook_catalog, OrderBookConfig, OrderBookGenerator, MARKET_MAKER, VWAP_COMPONENTS,
    };

    fn snapshots() -> (Vec<ViewSnapshot>, Vec<Event>) {
        let views = [("vwap", VWAP_COMPONENTS), ("mm", MARKET_MAKER)];
        let stream = OrderBookGenerator::new(OrderBookConfig {
            messages: 400,
            book_depth: 50,
            ..Default::default()
        })
        .generate();
        let server = reference_server(&orderbook_catalog(), &views).unwrap();
        server.apply_batch(&stream.events).unwrap();
        (server.snapshot_all(), stream.events)
    }

    #[test]
    fn comparator_rejects_one_perturbed_value() {
        let (reference, _) = snapshots();
        assert_eq!(snapshot_diff(&reference, &reference.clone()), None);
        let mut perturbed = reference.clone();
        let cell = &mut perturbed[1].rows[3].values[1];
        let Value::Float(x) = *cell else {
            panic!("market maker sums are floats")
        };
        *cell = Value::Float(f64::from_bits(x.to_bits() + 1));
        let diff = snapshot_diff(&reference, &perturbed).expect("one ulp must be caught");
        assert!(diff.starts_with("view mm"), "{diff}");
    }

    #[test]
    fn comparator_rejects_a_sign_flipped_zero_and_a_missing_row() {
        let (reference, _) = snapshots();
        let mut dropped = reference.clone();
        dropped[1].rows.pop();
        assert!(snapshot_diff(&reference, &dropped).is_some());
        assert!(!same_bits(&Value::Float(0.0), &Value::Float(-0.0)));
    }

    #[test]
    fn interpreter_check_accepts_the_engine_and_rejects_a_perturbation() {
        let (reference, events) = snapshots();
        let views = [("vwap", VWAP_COMPONENTS), ("mm", MARKET_MAKER)];
        let cat = orderbook_catalog();
        assert!(interpreter_check(&cat, &views, &events, &reference)
            .unwrap()
            .is_empty());
        let mut perturbed = reference.clone();
        perturbed[0].rows[0].values[0] =
            Value::Float(reference[0].rows[0].values[0].as_f64() * 1.001);
        let failures = interpreter_check(&cat, &views, &events, &perturbed).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
    }
}
