//! Equality closure: constant propagation across equi-join equivalence
//! classes.
//!
//! `sf.s_id = 7 AND cf.s_id = sf.s_id` implies `cf.s_id = 7`, but the scan
//! of `cf` only sees the conjuncts that mention `cf` alone, so without the
//! implied bound it cannot pick an index on `cf.s_id` — and the what-if
//! price of dropping that index reads zero. This rule runs over a SELECT's
//! top-level WHERE conjuncts before they are classified. It unions the
//! columns of every `Col = Col` conjunct into equivalence classes and, for
//! each class holding a non-NULL `Col = Lit`, appends `Col = Lit` for every
//! other member that has no literal bound yet. Nothing is removed: join
//! edges stay hash-join keys, and the derived conjuncts only narrow scans.
//!
//! A derived bound must follow from the conjuncts it came from under the
//! executor's equality ([`Value::cmp_total`]): Int and Timestamp compare as
//! i64, Int and Float as f64, and any other mix of types never compares
//! equal. So the literal is cast to a member's type only when the cast is
//! lossless. Beyond 2^53 distinct integers round to one f64, which makes
//! equality through a Float member intransitive; a class holding a Float
//! member therefore binds its Int and Timestamp members only with values
//! that are exact as f64.

use mb2_common::{DataType, Value};

use crate::expr::{BinOp, BoundExpr};

/// Every integer of smaller magnitude is exactly representable as an f64.
const F64_EXACT: u64 = 1 << 53;

/// Append to `conjuncts` the literal bounds implied by their column
/// equalities. `type_of` gives the declared type of a column.
pub(super) fn close(conjuncts: &mut Vec<BoundExpr>, type_of: impl Fn(usize) -> DataType) {
    // Union-find over column ids; only columns up to the largest one in a
    // `Col = Col` conjunct can belong to a class.
    let mut parent: Vec<usize> = Vec::new();
    for c in conjuncts.iter() {
        if let Some((a, b)) = col_eq_col(c) {
            let n = a.max(b) + 1;
            if parent.len() < n {
                parent.extend(parent.len()..n);
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
    }
    if parent.is_empty() {
        return;
    }

    // Columns already bound, and each class's first non-NULL literal.
    let n = parent.len();
    let mut bound = vec![false; n];
    let mut class_lit: Vec<Option<Value>> = vec![None; n];
    for c in conjuncts.iter() {
        if let Some((col, lit)) = col_eq_lit(c) {
            if col < n {
                bound[col] = true;
                let root = find(&mut parent, col);
                class_lit[root].get_or_insert_with(|| lit.clone());
            }
        }
    }
    let mut has_float = vec![false; n];
    for col in 0..n {
        if type_of(col) == DataType::Float {
            let root = find(&mut parent, col);
            has_float[root] = true;
        }
    }

    for (col, &already) in bound.iter().enumerate() {
        if already {
            continue;
        }
        let root = find(&mut parent, col);
        let Some(lit) = &class_lit[root] else {
            continue;
        };
        let ty = type_of(col);
        let through_float = has_float[root] && matches!(ty, DataType::Int | DataType::Timestamp);
        if through_float && lossless_cast(lit, DataType::Float).is_none() {
            continue;
        }
        if let Some(v) = lossless_cast(lit, ty) {
            conjuncts.push(BoundExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(BoundExpr::Col(col)),
                right: Box::new(BoundExpr::Lit(v)),
            });
        }
    }
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn col_eq_col(c: &BoundExpr) -> Option<(usize, usize)> {
    match c {
        BoundExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => match (&**left, &**right) {
            (BoundExpr::Col(a), BoundExpr::Col(b)) if a != b => Some((*a, *b)),
            _ => None,
        },
        _ => None,
    }
}

/// `Col = Lit` (either way round) with a non-NULL literal: `col = NULL` is
/// never true, so it bounds nothing.
pub(super) fn col_eq_lit(c: &BoundExpr) -> Option<(usize, &Value)> {
    match c {
        BoundExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => match (&**left, &**right) {
            (BoundExpr::Col(i), BoundExpr::Lit(v)) | (BoundExpr::Lit(v), BoundExpr::Col(i))
                if !v.is_null() =>
            {
                Some((*i, v))
            }
            _ => None,
        },
        _ => None,
    }
}

/// `v` as a value of type `ty` that compares equal to exactly the values
/// `v` does, or `None` when no such value exists.
fn lossless_cast(v: &Value, ty: DataType) -> Option<Value> {
    match (v, ty) {
        (Value::Int(i) | Value::Timestamp(i), DataType::Int) => Some(Value::Int(*i)),
        (Value::Int(i) | Value::Timestamp(i), DataType::Timestamp) => Some(Value::Timestamp(*i)),
        (Value::Int(i) | Value::Timestamp(i), DataType::Float) => {
            (i.unsigned_abs() < F64_EXACT).then_some(Value::Float(*i as f64))
        }
        (Value::Float(f), DataType::Float) => (!f.is_nan()).then_some(Value::Float(*f)),
        (Value::Float(f), DataType::Int | DataType::Timestamp) => {
            if f.fract() != 0.0 || f.abs() >= F64_EXACT as f64 {
                return None;
            }
            let i = *f as i64;
            Some(if ty == DataType::Int {
                Value::Int(i)
            } else {
                Value::Timestamp(i)
            })
        }
        (Value::Varchar(_), DataType::Varchar) | (Value::Bool(_), DataType::Bool) => {
            Some(v.clone())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mb2_catalog::Catalog;
    use mb2_common::{Column, Schema};
    use mb2_storage::Ts;

    use super::*;
    use crate::parser::parse;
    use crate::plan::PlanNode;
    use crate::planner::{Planner, PlannerOverrides};

    fn create(cat: &Catalog, name: &str, cols: &[(&str, DataType)], rows: Vec<Vec<Value>>) {
        let entry = cat
            .create_table(
                name,
                Schema::new(cols.iter().map(|(c, t)| Column::new(*c, *t)).collect()),
            )
            .unwrap();
        for row in rows {
            let slot = entry.table.insert(row, Ts::txn(1)).unwrap();
            entry.table.commit_slot(slot, Ts::txn(1), Ts(2), 1);
        }
        entry.analyze(Ts(2));
    }

    fn index(cat: &Catalog, table: &str, name: &str, cols: Vec<usize>) {
        cat.get(table)
            .unwrap()
            .add_index(Arc::new(mb2_index::Index::new(name, cols)))
            .unwrap();
    }

    /// a(k INT, v VARCHAR), b(k INT), c(k INT), each with an index on k and
    /// 500 rows, plus a Varchar index on a.v.
    fn chain_catalog() -> Catalog {
        let cat = Catalog::new();
        let ints = |i: i64| vec![Value::Int(i % 100)];
        create(
            &cat,
            "a",
            &[("k", DataType::Int), ("v", DataType::Varchar)],
            (0..500)
                .map(|i| vec![Value::Int(i % 100), Value::Varchar(format!("{}", i % 100))])
                .collect(),
        );
        create(
            &cat,
            "b",
            &[("k", DataType::Int)],
            (0..500).map(ints).collect(),
        );
        create(
            &cat,
            "c",
            &[("k", DataType::Int)],
            (0..500).map(ints).collect(),
        );
        index(&cat, "a", "a_k", vec![0]);
        index(&cat, "a", "a_v", vec![1]);
        index(&cat, "b", "b_k", vec![0]);
        index(&cat, "c", "c_k", vec![0]);
        cat
    }

    fn plan_with(cat: &Catalog, ov: &PlannerOverrides, sql: &str) -> PlanNode {
        Planner::with_overrides(cat, ov)
            .plan(&parse(sql).unwrap())
            .unwrap()
    }

    fn plan(cat: &Catalog, sql: &str) -> PlanNode {
        plan_with(cat, &PlannerOverrides::default(), sql)
    }

    /// Every scan in the plan as (table, index name or "seq", range lo).
    fn scans(node: &PlanNode) -> Vec<(String, String, Vec<Value>)> {
        let mut out = Vec::new();
        fn walk(n: &PlanNode, out: &mut Vec<(String, String, Vec<Value>)>) {
            match n {
                PlanNode::SeqScan { table, .. } => out.push((table.clone(), "seq".into(), vec![])),
                PlanNode::IndexScan {
                    table,
                    index,
                    range,
                    ..
                } => out.push((table.clone(), index.clone(), range.lo.clone())),
                _ => {}
            }
            for c in n.children() {
                walk(c, out);
            }
        }
        walk(node, &mut out);
        out.sort_by(|x, y| x.0.cmp(&y.0));
        out
    }

    fn scan_of(node: &PlanNode, table: &str) -> (String, Vec<Value>) {
        let (_, index, lo) = scans(node)
            .into_iter()
            .find(|(t, _, _)| t == table)
            .unwrap_or_else(|| panic!("no scan of {table}: {node:?}"));
        (index, lo)
    }

    #[test]
    fn three_table_chain_binds_every_member() {
        let cat = chain_catalog();
        let p = plan(
            &cat,
            "SELECT * FROM a, b, c WHERE a.k = 7 AND b.k = a.k AND c.k = b.k",
        );
        assert_eq!(
            scans(&p),
            vec![
                ("a".into(), "a_k".into(), vec![Value::Int(7)]),
                ("b".into(), "b_k".into(), vec![Value::Int(7)]),
                ("c".into(), "c_k".into(), vec![Value::Int(7)]),
            ]
        );
        // The join edges survive as hash-join keys.
        let joins = format!("{p:?}").matches("HashJoin").count();
        assert_eq!(joins, 2, "{p:?}");
    }

    #[test]
    fn literal_on_the_far_end_of_a_chain_propagates_back() {
        let cat = chain_catalog();
        let p = plan(
            &cat,
            "SELECT * FROM a, b, c WHERE a.k = b.k AND b.k = c.k AND c.k = 3",
        );
        assert_eq!(scan_of(&p, "a"), ("a_k".into(), vec![Value::Int(3)]));
        assert_eq!(scan_of(&p, "b"), ("b_k".into(), vec![Value::Int(3)]));
    }

    #[test]
    fn varchar_member_of_an_int_class_is_not_bound() {
        let cat = chain_catalog();
        let p = plan(&cat, "SELECT * FROM a, b WHERE b.k = 4 AND a.v = b.k");
        assert_eq!(scan_of(&p, "b"), ("b_k".into(), vec![Value::Int(4)]));
        assert_eq!(scan_of(&p, "a").0, "seq", "{p:?}");
    }

    #[test]
    fn null_literal_is_never_propagated_or_used_as_a_bound() {
        let cat = chain_catalog();
        let p = plan(&cat, "SELECT * FROM a, b WHERE a.k = NULL AND b.k = a.k");
        assert_eq!(scan_of(&p, "a").0, "seq", "{p:?}");
        assert_eq!(scan_of(&p, "b").0, "seq", "{p:?}");
    }

    #[test]
    fn already_bound_member_keeps_its_own_literal() {
        let cat = chain_catalog();
        let p = plan(
            &cat,
            "SELECT * FROM a, b WHERE a.k = 1 AND b.k = a.k AND b.k = 2",
        );
        assert_eq!(scan_of(&p, "a"), ("a_k".into(), vec![Value::Int(1)]));
        assert_eq!(scan_of(&p, "b"), ("b_k".into(), vec![Value::Int(2)]));
    }

    #[test]
    fn casts_are_lossless_or_skipped() {
        assert_eq!(
            lossless_cast(&Value::Int(3), DataType::Float),
            Some(Value::Float(3.0))
        );
        assert_eq!(
            lossless_cast(&Value::Float(3.0), DataType::Timestamp),
            Some(Value::Timestamp(3))
        );
        assert_eq!(lossless_cast(&Value::Float(3.5), DataType::Int), None);
        assert_eq!(lossless_cast(&Value::Int(1 << 53), DataType::Float), None);
        assert_eq!(lossless_cast(&Value::Int(3), DataType::Varchar), None);
        assert_eq!(lossless_cast(&Value::from("3"), DataType::Int), None);
        assert_eq!(lossless_cast(&Value::Int(1), DataType::Bool), None);
    }

    #[test]
    fn huge_integer_does_not_cross_a_float_member() {
        // a.k = 2^53 + 1, a.k = f, f = b.k: b.k = 2^53 satisfies both joins
        // (both round to the same f64), so `b.k = 2^53 + 1` is not implied.
        let types = [DataType::Int, DataType::Float, DataType::Int];
        let eq = |l: BoundExpr, r: BoundExpr| BoundExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(l),
            right: Box::new(r),
        };
        let mut conjuncts = vec![
            eq(BoundExpr::Col(0), BoundExpr::Lit(Value::Int((1 << 53) + 1))),
            eq(BoundExpr::Col(0), BoundExpr::Col(1)),
            eq(BoundExpr::Col(1), BoundExpr::Col(2)),
        ];
        close(&mut conjuncts, |c| types[c]);
        assert_eq!(conjuncts.len(), 3, "{conjuncts:?}");
        // A small integer crosses freely, cast per member.
        conjuncts[0] = eq(BoundExpr::Col(0), BoundExpr::Lit(Value::Int(5)));
        close(&mut conjuncts, |c| types[c]);
        assert_eq!(
            conjuncts[3..],
            [
                eq(BoundExpr::Col(1), BoundExpr::Lit(Value::Float(5.0))),
                eq(BoundExpr::Col(2), BoundExpr::Lit(Value::Int(5))),
            ]
        );
    }

    /// The `get_new_destination` shape over TATP's two tables.
    fn tatp_catalog() -> Catalog {
        let cat = Catalog::new();
        let int = |c| (c, DataType::Int);
        create(
            &cat,
            "tatp_special_facility",
            &[int("s_id"), int("sf_type"), int("is_active")],
            (0..400)
                .map(|k| {
                    vec![
                        Value::Int(k / 2),
                        Value::Int(1 + (k % 2) * 2),
                        Value::Int(1),
                    ]
                })
                .collect(),
        );
        create(
            &cat,
            "tatp_call_forwarding",
            &[
                int("s_id"),
                int("sf_type"),
                int("start_time"),
                int("end_time"),
            ],
            (0..200)
                .map(|k| {
                    let start = (k % 3) * 8;
                    vec![
                        Value::Int(k),
                        Value::Int(1 + (k % 2) * 2),
                        Value::Int(start),
                        Value::Int(start + 8),
                    ]
                })
                .collect(),
        );
        index(&cat, "tatp_special_facility", "tatp_sf_pk", vec![0]);
        index(&cat, "tatp_call_forwarding", "tatp_cf_pk", vec![0]);
        cat
    }

    const GET_NEW_DESTINATION: &str = "SELECT cf.s_id FROM tatp_special_facility sf, \
         tatp_call_forwarding cf WHERE sf.s_id = 42 AND sf.sf_type = 1 \
         AND sf.is_active = 1 AND cf.s_id = sf.s_id AND cf.sf_type = sf.sf_type \
         AND cf.start_time <= 8 AND cf.end_time > 8";

    #[test]
    fn hiding_the_derived_index_changes_the_plan() {
        let cat = tatp_catalog();
        let visible = plan(&cat, GET_NEW_DESTINATION);
        assert_eq!(
            scan_of(&visible, "tatp_call_forwarding"),
            ("tatp_cf_pk".into(), vec![Value::Int(42)])
        );
        let hidden = PlannerOverrides {
            hypothetical_indexes: vec![],
            hidden_indexes: vec!["tatp_cf_pk".into()],
        };
        let p = plan_with(&cat, &hidden, GET_NEW_DESTINATION);
        assert_eq!(scan_of(&p, "tatp_call_forwarding").0, "seq", "{p:?}");
        assert_eq!(scan_of(&p, "tatp_special_facility").0, "tatp_sf_pk");
        // Dropping the index now changes what the plan reads, so its
        // what-if price is non-zero.
        let rows_in = |n: &PlanNode| -> f64 {
            let mut total = 0.0;
            fn walk(n: &PlanNode, total: &mut f64) {
                if matches!(n, PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. }) {
                    *total += n.est().rows_in;
                }
                for c in n.children() {
                    walk(c, total);
                }
            }
            walk(n, &mut total);
            total
        };
        assert!(rows_in(&p) > rows_in(&visible) * 10.0, "{p:?}\n{visible:?}");
    }
}
