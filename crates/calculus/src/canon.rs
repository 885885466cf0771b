//! Canonical forms for map sharing.
//!
//! The paper notes that "we can exploit map sharing opportunities across
//! event handler functions": the maintenance of `q` on an insert into S
//! reuses the maps `qA[b]` and `qD[c]` that were created for inserts into
//! R and T. Two candidate maps can be shared when their definitions are
//! identical up to renaming of variables, so the compiler keys its map
//! registry by the canonical string produced here.
//!
//! The canonicalization sorts product factors and sum terms by a
//! name-insensitive structural key, renames the map's key variables
//! positionally (`__K0`, `__K1`, ...), and then renames every remaining
//! variable in order of first occurrence in the sorted definition
//! (`__V0`, `__V1`, ...).
//!
//! Key *order* is part of the form, so the compiler does not choose it:
//! [`canonical_key_order`] orders a new map's keys by first occurrence in
//! the same sorted definition. One sub-aggregate reached from different
//! handlers, with its factors (and so its keys) in different orders,
//! therefore registers one map instead of one per key permutation. A
//! failure to identify two structurally equal definitions merely creates
//! a duplicate map (a missed optimization, never an error), so ties in
//! the factor ordering are acceptable.

use std::collections::BTreeMap;

use crate::expr::{CalcExpr, Var};

/// Produce a canonical string for a map definition with the given key
/// variables.
pub fn canonical_form(keys: &[Var], definition: &CalcExpr) -> String {
    let sorted = sort_structurally(definition);
    let mut renaming: BTreeMap<Var, Var> = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        renaming.insert(k.clone(), format!("__K{i}"));
    }
    let mut next = 0usize;
    for v in occurrence_order(&sorted) {
        renaming.entry(v).or_insert_with(|| {
            let name = format!("__V{next}");
            next += 1;
            name
        });
    }
    let renamed = sorted.rename(&|v| renaming.get(v).cloned());
    format!("[{}] {renamed}", keys.len())
}

/// Order `keys` by first occurrence in the structurally sorted
/// `definition`, so that alpha-equivalent definitions reached with their
/// keys in different orders produce one canonical form. Keys the
/// definition does not mention keep their relative order at the end.
pub fn canonical_key_order(keys: &[Var], definition: &CalcExpr) -> Vec<Var> {
    let order = occurrence_order(&sort_structurally(definition));
    let mut ordered = keys.to_vec();
    ordered.sort_by_key(|k| order.iter().position(|v| v == k).unwrap_or(usize::MAX));
    ordered
}

/// Recursively sort the factors of products and the terms of sums by a
/// structural key that ignores variable names, so that re-orderings do
/// not defeat sharing.
fn sort_structurally(expr: &CalcExpr) -> CalcExpr {
    match expr {
        CalcExpr::Prod(fs) => {
            let mut sorted: Vec<CalcExpr> = fs.iter().map(sort_structurally).collect();
            sorted.sort_by_key(structural_key);
            CalcExpr::Prod(sorted)
        }
        CalcExpr::Sum(ts) => {
            let mut sorted: Vec<CalcExpr> = ts.iter().map(sort_structurally).collect();
            sorted.sort_by_key(structural_key);
            CalcExpr::Sum(sorted)
        }
        CalcExpr::Neg(e) => CalcExpr::Neg(Box::new(sort_structurally(e))),
        CalcExpr::AggSum { group, body } => CalcExpr::AggSum {
            group: group.clone(),
            body: Box::new(sort_structurally(body)),
        },
        CalcExpr::Lift { var, body } => CalcExpr::Lift {
            var: var.clone(),
            body: Box::new(sort_structurally(body)),
        },
        CalcExpr::Exists(e) => CalcExpr::Exists(Box::new(sort_structurally(e))),
        other => other.clone(),
    }
}

/// A sort key that depends only on structure (node kind, relation / map
/// names, arities), never on variable names.
fn structural_key(expr: &CalcExpr) -> String {
    match expr {
        CalcExpr::Val(v) => format!("0:val:{}", v.vars().len()),
        CalcExpr::Cmp { op, .. } => format!("1:cmp:{op}"),
        CalcExpr::Rel { name, vars } => format!("2:rel:{name}:{}", vars.len()),
        CalcExpr::MapRef { name, keys } => format!("3:map:{name}:{}", keys.len()),
        CalcExpr::AggSum { group, body } => {
            format!("4:agg:{}:{}", group.len(), structural_key(body))
        }
        CalcExpr::Lift { body, .. } => format!("5:lift:{}", structural_key(body)),
        CalcExpr::Exists(e) => format!("6:exists:{}", structural_key(e)),
        CalcExpr::Neg(e) => format!("7:neg:{}", structural_key(e)),
        CalcExpr::Prod(fs) => {
            format!(
                "8:prod:{}",
                fs.iter().map(structural_key).collect::<Vec<_>>().join(",")
            )
        }
        CalcExpr::Sum(ts) => {
            format!(
                "9:sum:{}",
                ts.iter().map(structural_key).collect::<Vec<_>>().join(",")
            )
        }
    }
}

/// Variables of an expression in order of first occurrence (pre-order
/// traversal), deduplicated.
fn occurrence_order(expr: &CalcExpr) -> Vec<Var> {
    fn visit<'a>(vars: impl IntoIterator<Item = &'a Var>, out: &mut Vec<Var>) {
        for v in vars {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
    }
    fn walk(expr: &CalcExpr, out: &mut Vec<Var>) {
        match expr {
            CalcExpr::Val(v) => visit(&ordered_vars(v), out),
            CalcExpr::Cmp { left, right, .. } => {
                visit(&ordered_vars(left), out);
                visit(&ordered_vars(right), out);
            }
            CalcExpr::Rel { vars, .. }
            | CalcExpr::MapRef {
                name: _,
                keys: vars,
            } => visit(vars, out),
            CalcExpr::Prod(fs) | CalcExpr::Sum(fs) => {
                for f in fs {
                    walk(f, out);
                }
            }
            CalcExpr::Neg(e) | CalcExpr::Exists(e) => walk(e, out),
            CalcExpr::AggSum { group, body } => {
                visit(group, out);
                walk(body, out);
            }
            CalcExpr::Lift { var, body } => {
                visit([var], out);
                walk(body, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

fn ordered_vars(v: &crate::expr::ValExpr) -> Vec<Var> {
    let mut out = Vec::new();
    v.collect_vars(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ValExpr;

    #[test]
    fn alpha_equivalent_definitions_share() {
        // sum_D(S(B, C) ⋈ T(C, D)) keyed by B, written with two different
        // variable namings and factor orders.
        let def1 = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                CalcExpr::rel("S", vec!["B", "C"]),
                CalcExpr::rel("T", vec!["C", "D"]),
                CalcExpr::Val(ValExpr::var("D")),
            ]),
        );
        let def2 = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                CalcExpr::Val(ValExpr::var("Z")),
                CalcExpr::rel("T", vec!["Y", "Z"]),
                CalcExpr::rel("S", vec!["X", "Y"]),
            ]),
        );
        let c1 = canonical_form(&["B".to_string()], &def1);
        let c2 = canonical_form(&["X".to_string()], &def2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn different_structures_do_not_share() {
        let def1 = CalcExpr::agg_sum(vec![], CalcExpr::rel("S", vec!["B", "C"]));
        let def2 = CalcExpr::agg_sum(vec![], CalcExpr::rel("T", vec!["B", "C"]));
        assert_ne!(
            canonical_form(&["B".to_string()], &def1),
            canonical_form(&["B".to_string()], &def2)
        );
    }

    #[test]
    fn key_position_matters() {
        let def = CalcExpr::agg_sum(vec![], CalcExpr::rel("S", vec!["B", "C"]));
        let by_b = canonical_form(&["B".to_string()], &def);
        let by_c = canonical_form(&["C".to_string()], &def);
        assert_ne!(by_b, by_c);
    }

    #[test]
    fn canonical_key_order_makes_key_permutations_share() {
        // sum(S(B, C) ⋈ T(C, D)) keyed by (B, D), reached once with the
        // keys and factors in one order and once in the other.
        let def1 = CalcExpr::product(vec![
            CalcExpr::rel("S", vec!["B", "C"]),
            CalcExpr::rel("T", vec!["C", "D"]),
        ]);
        let def2 = CalcExpr::product(vec![
            CalcExpr::rel("T", vec!["Y", "Z"]),
            CalcExpr::rel("S", vec!["X", "Y"]),
        ]);
        let keys1 = vec!["D".to_string(), "B".to_string()];
        let keys2 = vec!["X".to_string(), "Z".to_string()];
        assert_ne!(canonical_form(&keys1, &def1), canonical_form(&keys2, &def2));
        let ordered1 = canonical_key_order(&keys1, &def1);
        let ordered2 = canonical_key_order(&keys2, &def2);
        assert_eq!(ordered1, vec!["B".to_string(), "D".to_string()]);
        assert_eq!(
            canonical_form(&ordered1, &def1),
            canonical_form(&ordered2, &def2)
        );
    }

    #[test]
    fn key_count_is_part_of_the_form() {
        let def = CalcExpr::agg_sum(vec![], CalcExpr::rel("S", vec!["B", "C"]));
        let one = canonical_form(&["B".to_string()], &def);
        let two = canonical_form(&["B".to_string(), "C".to_string()], &def);
        assert_ne!(one, two);
    }
}
