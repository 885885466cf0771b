//! The delta transformation.
//!
//! For an event `±R(a1..ak)` (insert or delete of a single tuple whose
//! fields are named by fresh trigger variables `a1..ak`), `delta(e)` is a
//! calculus expression denoting how the value of `e` changes:
//!
//! * `ΔR(x1..xk) = [x1 = a1] * ... * [xk = ak]`, negated for deletes (so
//!   that self-joins obtain the correct `(-1)·(-1)` sign on the
//!   second-order term),
//! * deltas of constants, value expressions, comparisons and references
//!   to already-materialized maps are zero (maps are maintained by their
//!   own triggers),
//! * `Δ(A·B) = ΔA·B + A·ΔB + ΔA·ΔB` (the discrete product rule — the
//!   second-order term is what makes the transformation exact rather than
//!   an approximation),
//! * `Δ(A+B) = ΔA + ΔB`, `Δ(−A) = −ΔA`, `Δ AggSum(G, e) = AggSum(G, Δe)`,
//! * `Δ Lift(x, e) = Lift(x, e + Δe) − Lift(x, e)` when `Δe ≠ 0`
//!   (likewise for `Exists`).
//!
//! Note the soundness condition on the zero rules: `Δ MapRef = 0` holds
//! because delta statements read maps at their *pre-event* version (each
//! map absorbs the event through its own trigger), and `Δ Lift = 0` for
//! a body with `Δbody = 0` holds only when the body is *static* — it
//! mentions no base relation. Dynamic nested bodies
//! ([`crate::CalcExpr::contains_dynamic_nested`]) are not deltified here;
//! the compiler's materialization hierarchy extracts them into child
//! maps and re-establishes the enclosing map from them after the
//! children's delta updates (the higher-order delta processing of the
//! VLDB 2012 follow-up paper), with full re-evaluation from base
//! relations retained only as a debug/oracle mode.

use dbtoaster_common::EventKind;

use crate::expr::{CalcExpr, CmpOp, ValExpr, Var};

/// Default trigger-argument variable names for an event on `relation`
/// with the given column names: lower-cased column names, which keeps the
/// generated programs readable (`a`, `b` for an insert into `R(A, B)` as
/// in the paper's Figure 2).
pub fn trigger_args(relation: &str, columns: &[String]) -> Vec<Var> {
    columns
        .iter()
        .map(|c| {
            format!(
                "{}_{}",
                relation.to_ascii_lowercase(),
                c.to_ascii_lowercase()
            )
        })
        .collect()
}

/// Compute the delta of `expr` for a single-tuple event of `kind` on
/// `relation`, whose tuple fields are bound to the trigger variables
/// `args` (one per column, in schema order).
pub fn delta(expr: &CalcExpr, relation: &str, kind: EventKind, args: &[Var]) -> CalcExpr {
    match expr {
        CalcExpr::Val(_) | CalcExpr::Cmp { .. } | CalcExpr::MapRef { .. } => CalcExpr::zero(),
        CalcExpr::Rel { name, vars } => {
            if name != relation {
                return CalcExpr::zero();
            }
            debug_assert_eq!(
                vars.len(),
                args.len(),
                "trigger arity mismatch for relation {relation}"
            );
            let eqs = vars
                .iter()
                .zip(args.iter())
                .map(|(v, a)| CalcExpr::Cmp {
                    op: CmpOp::Eq,
                    left: ValExpr::Var(v.clone()),
                    right: ValExpr::Var(a.clone()),
                })
                .collect();
            let product = CalcExpr::product(eqs);
            match kind {
                EventKind::Insert => product,
                EventKind::Delete => CalcExpr::Neg(Box::new(product)),
            }
        }
        CalcExpr::Sum(terms) => CalcExpr::sum(
            terms
                .iter()
                .map(|t| delta(t, relation, kind, args))
                .collect(),
        ),
        CalcExpr::Neg(e) => {
            let d = delta(e, relation, kind, args);
            if d.is_zero() {
                CalcExpr::zero()
            } else {
                CalcExpr::Neg(Box::new(d))
            }
        }
        CalcExpr::Prod(factors) => delta_product(factors, relation, kind, args),
        CalcExpr::AggSum { group, body } => {
            let d = delta(body, relation, kind, args);
            if d.is_zero() {
                CalcExpr::zero()
            } else {
                CalcExpr::agg_sum(group.clone(), d)
            }
        }
        CalcExpr::Lift { var, body } => {
            let d = delta(body, relation, kind, args);
            if d.is_zero() {
                CalcExpr::zero()
            } else {
                // New lift value minus old lift value.
                CalcExpr::sum(vec![
                    CalcExpr::Lift {
                        var: var.clone(),
                        body: Box::new(CalcExpr::sum(vec![(**body).clone(), d])),
                    },
                    CalcExpr::Neg(Box::new(CalcExpr::Lift {
                        var: var.clone(),
                        body: body.clone(),
                    })),
                ])
            }
        }
        CalcExpr::Exists(body) => {
            let d = delta(body, relation, kind, args);
            if d.is_zero() {
                CalcExpr::zero()
            } else {
                CalcExpr::sum(vec![
                    CalcExpr::Exists(Box::new(CalcExpr::sum(vec![(**body).clone(), d]))),
                    CalcExpr::Neg(Box::new(CalcExpr::Exists(body.clone()))),
                ])
            }
        }
    }
}

/// `Δ(f1 · f2 · ... · fn)` by the discrete product rule, computed
/// recursively as `Δf1·rest + f1·Δrest + Δf1·Δrest`.
fn delta_product(factors: &[CalcExpr], relation: &str, kind: EventKind, args: &[Var]) -> CalcExpr {
    match factors.len() {
        0 => CalcExpr::zero(),
        1 => delta(&factors[0], relation, kind, args),
        _ => {
            let head = &factors[0];
            let rest = &factors[1..];
            let d_head = delta(head, relation, kind, args);
            let rest_expr = CalcExpr::product(rest.to_vec());
            let d_rest = delta_product(rest, relation, kind, args);

            let mut terms = Vec::new();
            if !d_head.is_zero() {
                terms.push(CalcExpr::product(vec![d_head.clone(), rest_expr.clone()]));
            }
            if !d_rest.is_zero() {
                terms.push(CalcExpr::product(vec![head.clone(), d_rest.clone()]));
            }
            if !d_head.is_zero() && !d_rest.is_zero() {
                terms.push(CalcExpr::product(vec![d_head, d_rest]));
            }
            CalcExpr::sum(terms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::EventKind::{Delete, Insert};

    fn rst_body() -> CalcExpr {
        CalcExpr::product(vec![
            CalcExpr::rel("R", vec!["R_A", "R_B"]),
            CalcExpr::rel("S", vec!["S_B", "S_C"]),
            CalcExpr::rel("T", vec!["T_C", "T_D"]),
            CalcExpr::eq_vars("R_B", "S_B"),
            CalcExpr::eq_vars("S_C", "T_C"),
            CalcExpr::Val(ValExpr::var("R_A")),
            CalcExpr::Val(ValExpr::var("T_D")),
        ])
    }

    #[test]
    fn delta_of_an_unrelated_relation_is_zero() {
        let e = CalcExpr::rel("S", vec!["B", "C"]);
        assert!(delta(&e, "R", Insert, &["a".into(), "b".into()]).is_zero());
    }

    #[test]
    fn delta_of_a_relation_atom_is_a_product_of_equalities() {
        let e = CalcExpr::rel("R", vec!["R_A", "R_B"]);
        let d = delta(&e, "R", Insert, &["r_a".into(), "r_b".into()]);
        assert_eq!(d.to_string(), "([R_A = r_a] * [R_B = r_b])");
        let d = delta(&e, "R", Delete, &["r_a".into(), "r_b".into()]);
        assert_eq!(d.to_string(), "-(([R_A = r_a] * [R_B = r_b]))");
    }

    #[test]
    fn delta_of_constants_maps_and_comparisons_is_zero() {
        let args = vec!["x".to_string()];
        assert!(delta(&CalcExpr::constant(5), "R", Insert, &args).is_zero());
        assert!(delta(&CalcExpr::map_ref("Q_D", vec!["B"]), "R", Insert, &args).is_zero());
        assert!(delta(&CalcExpr::eq_vars("X", "Y"), "R", Insert, &args).is_zero());
    }

    #[test]
    fn product_rule_produces_one_first_order_term_for_single_occurrence() {
        // Only R mentions relation R, so ΔR·rest is the only non-zero term.
        let d = delta(&rst_body(), "R", Insert, &["a".into(), "b".into()]);
        match &d {
            CalcExpr::Prod(_) => {}
            CalcExpr::Sum(ts) => panic!("expected a single product term, got {} terms", ts.len()),
            other => panic!("unexpected delta {other}"),
        }
        let s = d.to_string();
        assert!(s.contains("[R_A = a]"));
        assert!(s.contains("S(S_B, S_C)"));
        assert!(
            !s.contains("R(R_A, R_B)"),
            "the R atom must be replaced by equalities: {s}"
        );
    }

    #[test]
    fn self_join_delta_has_second_order_term() {
        // sum over R(x) x R(y): delta has 3 terms including ΔR·ΔR.
        let e = CalcExpr::product(vec![
            CalcExpr::rel("R", vec!["X"]),
            CalcExpr::rel("R", vec!["Y"]),
        ]);
        let d = delta(&e, "R", Insert, &["v".into()]);
        match &d {
            CalcExpr::Sum(ts) => assert_eq!(ts.len(), 3),
            other => panic!("expected 3-term sum, got {other}"),
        }
        // For deletes, the second-order term must be positive: (-1)·(-1).
        let d = delta(&e, "R", Delete, &["v".into()]);
        let s = d.to_string();
        // terms 1 and 2 carry one negation each, term 3 carries two.
        assert_eq!(s.matches("-([").count(), 4, "{s}");
    }

    #[test]
    fn delta_commutes_with_aggsum() {
        let e = CalcExpr::agg_sum(vec!["R_B".into()], rst_body());
        let d = delta(&e, "T", Insert, &["c".into(), "d".into()]);
        match d {
            CalcExpr::AggSum { group, .. } => assert_eq!(group, vec!["R_B".to_string()]),
            other => panic!("expected AggSum, got {other}"),
        }
    }

    #[test]
    fn lift_delta_is_new_minus_old_and_zero_when_body_is_static() {
        let body = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                CalcExpr::rel("BIDS", vec!["P", "V"]),
                CalcExpr::Val(ValExpr::var("V")),
            ]),
        );
        let lift = CalcExpr::Lift {
            var: "total".into(),
            body: Box::new(body),
        };
        let d = delta(&lift, "BIDS", Insert, &["p".into(), "v".into()]);
        match &d {
            CalcExpr::Sum(ts) => {
                assert_eq!(ts.len(), 2);
                assert!(matches!(ts[1], CalcExpr::Neg(_)));
            }
            other => panic!("expected new-minus-old, got {other}"),
        }
        assert!(delta(&lift, "ASKS", Insert, &["p".into(), "v".into()]).is_zero());
    }

    #[test]
    fn trigger_args_are_readable_and_collision_free() {
        let args = trigger_args("R", &["A".into(), "B".into()]);
        assert_eq!(args, vec!["r_a".to_string(), "r_b".to_string()]);
    }
}
