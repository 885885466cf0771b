//! Partition-key analysis: which relations can be key-range sharded?
//!
//! The multi-view server parallelizes ingestion by running
//! non-overlapping batch partitions concurrently, but that only splits
//! work *across* relations — the paper's canonical workload (one hot
//! order-book stream feeding several views) still runs sequentially.
//! This pass finds, per stream relation `R`, a base-relation column `c`
//! such that hash-partitioning `R`'s events by `tuple[c]` and running
//! each key range against its own replica of `R`'s maps produces
//! *bit-identical* state to sequential execution (after a
//! merge-on-snapshot fold). The runtime can then shard `R` internally:
//! per-range map groups, per-range workers, merge on read.
//!
//! # Soundness
//!
//! Sharding by column `c` is sound when every map `m` touched by `R`'s
//! triggers falls into one of two roles:
//!
//! * **Accumulator** (`role = None`) — `m` is *written but never read*
//!   by `R`'s triggers. All writes are flat `Update` statements
//!   (`m[keys] += δ`), and `+=` over the delta ring is a commutative
//!   monoid, so per-range partial maps fold back into the true map by
//!   pointwise addition in any order. Group-by keys need no relation to
//!   `c` at all — this generalizes the classic "group-by keys
//!   functionally dependent on the partition key" rule.
//! * **Keyed at `p`** (`role = Some(p)`) — `m` *is* read by `R`'s
//!   triggers (sub-aggregates of self joins, support counts, ...), and
//!   key position `p` carries the trigger's `c`-th argument at **every**
//!   read and write site. Then entries with `key[p] = v` live exactly in
//!   range `hash(v)`'s replica: every write routes there, and every read
//!   (point lookup or pattern-filtered iteration over bound position
//!   `p`) finds precisely the entries sequential execution would — the
//!   per-range key supports stay disjoint forever.
//!
//! Two program-wide preconditions guard the analysis:
//!
//! * **Flat triggers only.** Every statement of `R`'s triggers must be a
//!   plain `Update` at `STAGE_DELTA`. Post-event `Replace` statements
//!   (hierarchy rebuilds and legacy re-evaluations) read whole maps and
//!   do not commute across ranges — those relations stay unshardable.
//! * **Exclusive maps.** No map touched by `R`'s triggers may appear in
//!   any *other* relation's triggers (this rejects join views, whose
//!   `BASE_R` / sub-aggregate maps are read by the partner relation's
//!   triggers and would need cross-range visibility). The server
//!   re-checks this dynamically across *all* registered views before
//!   enabling sharding, since a shared store can attach more readers
//!   than one compiled program sees.
//!
//! Variable-name equality is binding equality here: the compiler renames
//! to globally fresh variables, so the trigger argument `args[c]`
//! appearing at key position `p` *is* the event's `c`-th column. As a
//! defensive measure the pass still rejects a column whenever the pivot
//! variable is re-bound (`Lift`/`AggSum` group) inside a statement that
//! reads maps.
//!
//! "Unshardable" is the sound default: relations that fail any check
//! simply do not appear in [`TriggerProgram::partition_keys`] and keep
//! whole-relation locking.

use crate::program::{PartitionKey, StatementKind, TriggerProgram, STAGE_DELTA};
use dbtoaster_calculus::{CalcExpr, CmpOp, ValExpr, Var};
use std::collections::{BTreeMap, BTreeSet};

/// Run the analysis and record results on the program: one
/// [`PartitionKey`] per shardable relation (lowest qualifying column
/// wins), mirrored onto each touched map's
/// [`crate::MapDecl::shard_roles`].
pub fn analyze_partition_keys(program: &mut TriggerProgram) {
    // Maps touched (written or read) per relation, program-wide.
    let mut touched: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for t in &program.triggers {
        let e = touched.entry(t.relation.clone()).or_default();
        for s in &t.statements {
            e.insert(s.target.clone());
            s.update.for_each_map_ref(&mut |name, _| {
                e.insert(name.to_string());
            });
        }
    }

    let mut found: Vec<PartitionKey> = Vec::new();
    'rel: for (rel, mine) in &touched {
        let Some(schema) = program.catalog.get(rel) else {
            continue;
        };
        if schema.is_static || mine.is_empty() {
            continue;
        }
        let trigs: Vec<_> = program
            .triggers
            .iter()
            .filter(|t| t.relation == *rel)
            .collect();
        // Flat triggers only.
        if trigs.iter().any(|t| {
            t.statements
                .iter()
                .any(|s| s.kind != StatementKind::Update || s.stage != STAGE_DELTA)
        }) {
            continue;
        }
        // Exclusive maps: no other relation's triggers touch them.
        for (other, set) in &touched {
            if other != rel && !set.is_disjoint(mine) {
                continue 'rel;
            }
        }
        // Every map read under R must also be written under R: replicas
        // start empty, so state owned by anyone else (static loads,
        // backfill) would vanish from range-local reads.
        let mut read_maps: BTreeSet<String> = BTreeSet::new();
        for t in &trigs {
            for s in &t.statements {
                s.update.for_each_map_ref(&mut |name, _| {
                    read_maps.insert(name.to_string());
                });
            }
        }
        let written: BTreeSet<&str> = trigs
            .iter()
            .flat_map(|t| t.statements.iter().map(|s| s.target.as_str()))
            .collect();
        if read_maps.iter().any(|m| !written.contains(m.as_str())) {
            continue;
        }

        // One map-access site: its key list plus the set of variables
        // provably equal to the pivot within that statement.
        type Sites = Vec<(Vec<Var>, BTreeSet<Var>)>;

        'col: for c in 0..schema.arity() {
            // Gather (key_list, pivot_alias_set) sites per map. The
            // compiler binds statement keys through *equality factors*
            // (`Q[B1_ID] += [B1_ID = book_id] * ...`), so "carries the
            // pivot" means the key variable is the pivot or provably
            // equal to it within the statement.
            let mut writes: BTreeMap<&str, Sites> = BTreeMap::new();
            let mut reads: BTreeMap<String, Sites> = BTreeMap::new();
            for t in &trigs {
                let pivot = &t.args[c];
                for s in &t.statements {
                    // Re-binding the pivot inside the RHS would break
                    // name-equality reasoning for this column.
                    if rebinds(&s.update, pivot) {
                        continue 'col;
                    }
                    let aliases = pivot_aliases(&s.update, pivot);
                    writes
                        .entry(s.target.as_str())
                        .or_default()
                        .push((s.target_keys.clone(), aliases.clone()));
                    if !read_maps.is_empty() {
                        s.update.for_each_map_ref(&mut |name, keys| {
                            reads
                                .entry(name.to_string())
                                .or_default()
                                .push((keys.to_vec(), aliases.clone()));
                        });
                    }
                }
            }
            let mut roles: Vec<(String, Option<usize>)> = Vec::new();
            for m in mine {
                let Some(rsites) = reads.get(m) else {
                    // Written, never read: accumulator.
                    roles.push((m.clone(), None));
                    continue;
                };
                // Read somewhere: need one key position carrying the
                // pivot at every read *and* write site.
                let empty = Vec::new();
                let wsites = writes.get(m.as_str()).unwrap_or(&empty);
                let arity = rsites
                    .iter()
                    .chain(wsites.iter())
                    .map(|(k, _)| k.len())
                    .min()
                    .unwrap_or(0);
                let pos = (0..arity).find(|&p| {
                    rsites
                        .iter()
                        .chain(wsites.iter())
                        .all(|(k, aliases)| k.get(p).is_some_and(|v| aliases.contains(v)))
                });
                match pos {
                    Some(p) => roles.push((m.clone(), Some(p))),
                    None => continue 'col,
                }
            }
            found.push(PartitionKey {
                relation: rel.clone(),
                column: c,
                roles,
            });
            continue 'rel; // lowest qualifying column wins
        }
    }

    // Mirror roles onto the map declarations.
    for pk in &found {
        for (name, role) in &pk.roles {
            if let Some(i) = program.map_index.get(name).copied() {
                program.maps[i]
                    .shard_roles
                    .push((pk.relation.clone(), pk.column, *role));
            }
        }
    }
    program.partition_keys = found;
}

/// Variables provably equal to `pivot` at every non-zero binding of the
/// statement: the transitive closure of `pivot` under variable-equality
/// factors (`[x = y]`) on the *multiplicative spine* of the RHS — direct
/// `Prod` factors, `Neg` operands and `AggSum` bodies. A `[x = pivot]`
/// factor multiplies every contribution by zero unless `x = pivot`
/// holds, so reads and writes keyed by `x` behave exactly as if keyed by
/// the pivot (zero-guarded terms neither write nor depend on what a
/// range-local read returns). Guards inside `Sum` branches, `Lift`
/// bodies or `Exists` only constrain their own branch and are
/// conservatively ignored. Aliases that are themselves re-bound anywhere
/// in the RHS are dropped.
fn pivot_aliases(update: &CalcExpr, pivot: &Var) -> BTreeSet<Var> {
    let mut pairs: Vec<(Var, Var)> = Vec::new();
    collect_eq_pairs(update, &mut pairs);
    let mut aliases: BTreeSet<Var> = BTreeSet::new();
    aliases.insert(pivot.clone());
    loop {
        let before = aliases.len();
        for (a, b) in &pairs {
            if aliases.contains(a) {
                aliases.insert(b.clone());
            }
            if aliases.contains(b) {
                aliases.insert(a.clone());
            }
        }
        if aliases.len() == before {
            break;
        }
    }
    aliases.retain(|a| a == pivot || !rebinds(update, a));
    aliases
}

/// Collect `[x = y]` variable-equality factors on the multiplicative
/// spine of `e` (see [`pivot_aliases`]).
fn collect_eq_pairs(e: &CalcExpr, out: &mut Vec<(Var, Var)>) {
    match e {
        CalcExpr::Cmp {
            op: CmpOp::Eq,
            left: ValExpr::Var(a),
            right: ValExpr::Var(b),
        } => out.push((a.clone(), b.clone())),
        CalcExpr::Prod(es) => {
            for x in es {
                collect_eq_pairs(x, out);
            }
        }
        CalcExpr::Neg(x) => collect_eq_pairs(x, out),
        CalcExpr::AggSum { body, .. } => collect_eq_pairs(body, out),
        _ => {}
    }
}

/// True if `var` is re-bound anywhere inside `e` (as a `Lift` variable
/// or an `AggSum` group variable).
fn rebinds(e: &CalcExpr, var: &Var) -> bool {
    match e {
        CalcExpr::Val(_)
        | CalcExpr::Cmp { .. }
        | CalcExpr::Rel { .. }
        | CalcExpr::MapRef { .. } => false,
        CalcExpr::Prod(es) | CalcExpr::Sum(es) => es.iter().any(|x| rebinds(x, var)),
        CalcExpr::Neg(x) | CalcExpr::Exists(x) => rebinds(x, var),
        CalcExpr::AggSum { group, body } => group.contains(var) || rebinds(body, var),
        CalcExpr::Lift { var: v, body } => v == var || rebinds(body, var),
    }
}

#[cfg(test)]
mod tests {
    use dbtoaster_common::{Catalog, ColumnType, Schema};

    use crate::{compile_sql, CompileOptions};

    fn book_catalog() -> Catalog {
        Catalog::new().with(Schema::new(
            "BOOK",
            vec![
                ("ID", ColumnType::Int),
                ("PRICE", ColumnType::Int),
                ("VOLUME", ColumnType::Int),
            ],
        ))
    }

    #[test]
    fn flat_group_by_is_shardable_with_accumulator_roles() {
        let p = compile_sql(
            "SELECT ID, SUM(PRICE * VOLUME) FROM BOOK GROUP BY ID",
            &book_catalog(),
            &CompileOptions::default(),
        )
        .unwrap();
        let pk = p.partition_key("BOOK").expect("BOOK should shard");
        assert_eq!(pk.column, 0);
        // Flat single-relation aggregation never reads its maps in the
        // trigger, so every map folds on snapshot.
        assert!(pk.roles.iter().all(|(_, role)| role.is_none()));
        for (name, _) in &pk.roles {
            let m = p.map(name).unwrap();
            assert_eq!(m.shard_roles, vec![("BOOK".to_string(), 0, None)]);
        }
    }

    #[test]
    fn self_join_on_key_is_shardable_with_keyed_roles() {
        // Self join on ID: sub-aggregate maps are keyed by the join
        // column at every read/write site.
        let p = compile_sql(
            "SELECT b1.ID, SUM(b1.PRICE * b2.VOLUME) FROM BOOK b1, BOOK b2 \
             WHERE b1.ID = b2.ID GROUP BY b1.ID",
            &book_catalog(),
            &CompileOptions::default(),
        )
        .unwrap();
        let pk = p.partition_key("BOOK").expect("keyed self join shards");
        assert_eq!(pk.column, 0);
        // At least one sub-aggregate must be read in the trigger and
        // classified keyed (position 0).
        assert!(pk.roles.iter().any(|(_, role)| *role == Some(0)));
    }

    #[test]
    fn cross_relation_join_is_unshardable() {
        let catalog = book_catalog().with(Schema::new(
            "TRADES",
            vec![("ID", ColumnType::Int), ("QTY", ColumnType::Int)],
        ));
        let p = compile_sql(
            "SELECT b.ID, SUM(b.PRICE * t.QTY) FROM BOOK b, TRADES t \
             WHERE b.ID = t.ID GROUP BY b.ID",
            &catalog,
            &CompileOptions::default(),
        )
        .unwrap();
        // Each relation's triggers read maps written by the other:
        // exclusivity fails for both.
        assert!(p.partition_key("BOOK").is_none());
        assert!(p.partition_key("TRADES").is_none());
    }

    #[test]
    fn self_join_on_mismatched_columns_is_unshardable() {
        // b2.PRICE joins b1.ID: no single column pivots every map
        // read/write, so the analysis must reject all columns.
        let p = compile_sql(
            "SELECT b1.ID, SUM(b2.VOLUME) FROM BOOK b1, BOOK b2 \
             WHERE b1.ID = b2.PRICE GROUP BY b1.ID",
            &book_catalog(),
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(p.partition_key("BOOK").is_none());
    }
}
