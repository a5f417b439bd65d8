//! Binder + cost-based planner.
//!
//! Turns parsed statements into [`PlanNode`] trees: resolves names against
//! the catalog, propagates literal bounds across equi-join equivalence
//! classes (`equality_closure`), pushes single-table predicates into scans,
//! picks index scans for equality prefixes, orders joins greedily by
//! estimated size, and annotates every node with cardinality estimates
//! derived from [`mb2_catalog::TableStats`].

mod equality_closure;

use std::sync::Arc;

use mb2_catalog::{Catalog, TableEntry, TableStats};
use mb2_common::{DataType, DbError, DbResult, Value};

use crate::ast::{Expr, Select, Statement};
use crate::expr::{BinOp, BoundExpr, UnOp};
use crate::plan::{AggSpec, Est, OutputSink, PlanNode, ScanRange, SortKey};

/// An index that does not exist in the catalog but should be *considered*
/// during planning, as if it did. What-if planning over hypothetical
/// indexes is how the oracle planner (`mb2-core`'s `OraclePlanner`) and
/// the autopilot price a `CREATE INDEX` action without mutating the live
/// catalog: the plan produced against a hypothetical index is translated
/// to OU features and costed, never executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypotheticalIndex {
    /// Table the index would be built on (case-insensitive match).
    pub table: String,
    /// Name the resulting plan's `IndexScan` nodes will reference.
    pub name: String,
    /// Key columns as table-local column positions, in key order.
    pub columns: Vec<usize>,
}

/// What-if adjustments applied on top of the live catalog during planning.
///
/// `hypothetical_indexes` are considered for index-scan selection exactly
/// like real indexes; `hidden_indexes` are real index names the planner
/// must ignore (pricing a `DROP INDEX` = re-planning with the index
/// hidden). Neither touches the catalog, so what-if planning is safe
/// under concurrent live traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlannerOverrides {
    /// Indexes to consider as if they existed.
    pub hypothetical_indexes: Vec<HypotheticalIndex>,
    /// Names of real indexes to ignore during index selection.
    pub hidden_indexes: Vec<String>,
}

impl PlannerOverrides {
    /// True when the overrides change nothing (planning is identical to
    /// planning against the bare catalog).
    pub fn is_empty(&self) -> bool {
        self.hypothetical_indexes.is_empty() && self.hidden_indexes.is_empty()
    }
}

/// The planner. Holds a catalog reference for name resolution and stats.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    overrides: Option<&'a PlannerOverrides>,
}

/// One table in the FROM scope.
struct ScopeTable {
    entry: Arc<TableEntry>,
    name: String,
    alias: Option<String>,
    /// Global column offset of this table's first column.
    offset: usize,
}

struct Scope {
    tables: Vec<ScopeTable>,
}

impl Scope {
    /// Resolve a (possibly qualified) column to its global position.
    fn resolve(&self, table: Option<&str>, name: &str) -> DbResult<usize> {
        let mut found = None;
        for t in &self.tables {
            if let Some(q) = table {
                let matches = t
                    .alias
                    .as_deref()
                    .is_some_and(|a| a.eq_ignore_ascii_case(q))
                    || t.name.eq_ignore_ascii_case(q);
                if !matches {
                    continue;
                }
            }
            if let Ok(idx) = t.entry.table.schema().index_of(name) {
                if found.is_some() {
                    return Err(DbError::Plan(format!("ambiguous column '{name}'")));
                }
                found = Some(t.offset + idx);
            }
        }
        found.ok_or_else(|| DbError::Plan(format!("unknown column '{name}'")))
    }

    /// Which table (index into `tables`) owns global column `col`.
    fn table_of(&self, col: usize) -> usize {
        for (i, t) in self.tables.iter().enumerate().rev() {
            if col >= t.offset {
                return i;
            }
        }
        0
    }

    /// Declared type of global column `col`.
    fn column_type(&self, col: usize) -> DataType {
        let t = &self.tables[self.table_of(col)];
        t.entry.table.schema().column(col - t.offset).ty
    }
}

impl<'a> Planner<'a> {
    pub fn new(catalog: &'a Catalog) -> Planner<'a> {
        Planner {
            catalog,
            overrides: None,
        }
    }

    /// A planner that applies what-if [`PlannerOverrides`] (hypothetical
    /// and hidden indexes) on top of the catalog during index selection.
    pub fn with_overrides(catalog: &'a Catalog, overrides: &'a PlannerOverrides) -> Planner<'a> {
        Planner {
            catalog,
            overrides: Some(overrides),
        }
    }

    /// Plan a statement. DDL/transaction-control statements that need no
    /// plan return an error here; the engine handles them directly.
    pub fn plan(&self, stmt: &Statement) -> DbResult<PlanNode> {
        match stmt {
            Statement::Select(select) => self.plan_select(select),
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.plan_insert(table, columns, rows),
            Statement::Update {
                table,
                assignments,
                predicate,
            } => self.plan_update(table, assignments, predicate.as_ref()),
            Statement::Delete { table, predicate } => self.plan_delete(table, predicate.as_ref()),
            Statement::CreateIndex {
                name,
                table,
                columns,
                threads,
            } => self.plan_create_index(name, table, columns, threads.unwrap_or(1)),
            other => Err(DbError::Plan(format!(
                "statement {other:?} is handled by the engine, not the planner"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    fn plan_select(&self, select: &Select) -> DbResult<PlanNode> {
        let scope = self.build_scope(select)?;

        // Bind the WHERE clause over the global layout, split into
        // conjuncts, and add the literal bounds its equi-joins imply.
        let mut conjuncts: Vec<BoundExpr> = Vec::new();
        if let Some(pred) = &select.predicate {
            let bound = self.bind(pred, &scope)?;
            split_conjuncts(bound, &mut conjuncts);
        }
        equality_closure::close(&mut conjuncts, |col| scope.column_type(col));

        // Classify conjuncts.
        let mut table_filters: Vec<Vec<BoundExpr>> = vec![Vec::new(); scope.tables.len()];
        let mut join_edges: Vec<(usize, usize)> = Vec::new(); // global col pairs
        let mut residual: Vec<BoundExpr> = Vec::new();
        for c in conjuncts {
            let cols = c.columns();
            let tables: std::collections::BTreeSet<usize> =
                cols.iter().map(|&col| scope.table_of(col)).collect();
            match tables.len() {
                0 | 1 => {
                    let t = tables.into_iter().next().unwrap_or(0);
                    table_filters[t].push(c);
                }
                2 => {
                    if let BoundExpr::Binary {
                        op: BinOp::Eq,
                        left,
                        right,
                    } = &c
                    {
                        if let (BoundExpr::Col(a), BoundExpr::Col(b)) = (&**left, &**right) {
                            join_edges.push((*a, *b));
                            continue;
                        }
                    }
                    residual.push(c);
                }
                _ => residual.push(c),
            }
        }

        // Build one scan per table (pushing filters and choosing indexes).
        struct Item {
            node: PlanNode,
            /// Global column ids in output order.
            layout: Vec<usize>,
            tables: std::collections::BTreeSet<usize>,
        }
        let mut items: Vec<Item> = Vec::new();
        for (ti, st) in scope.tables.iter().enumerate() {
            let filters = std::mem::take(&mut table_filters[ti]);
            let local: Vec<BoundExpr> = filters
                .iter()
                .map(|f| f.remap(&|g| g - st.offset))
                .collect();
            let node = self.plan_scan(&st.entry, &st.name, local)?;
            let n = st.entry.table.schema().len();
            items.push(Item {
                node,
                layout: (st.offset..st.offset + n).collect(),
                tables: std::iter::once(ti).collect(),
            });
        }

        // Greedy join ordering: start from the smallest item; repeatedly
        // join with the connected item that minimizes estimated output.
        while items.len() > 1 {
            // Find the connected pair with the smallest combined estimate;
            // fall back to a nested-loop cross join when disconnected.
            let mut best: Option<(usize, usize, f64, bool)> = None; // (i, j, est, has_edge)
            for i in 0..items.len() {
                for j in i + 1..items.len() {
                    let has_edge = join_edges.iter().any(|(a, b)| {
                        let ta = scope.table_of(*a);
                        let tb = scope.table_of(*b);
                        (items[i].tables.contains(&ta) && items[j].tables.contains(&tb))
                            || (items[i].tables.contains(&tb) && items[j].tables.contains(&ta))
                    });
                    let cost = items[i].node.est().rows_out * items[j].node.est().rows_out;
                    let candidate = (i, j, cost, has_edge);
                    best = match best {
                        None => Some(candidate),
                        Some(b2) => {
                            // Prefer edges, then lower cost.
                            let better = match (has_edge, b2.3) {
                                (true, false) => true,
                                (false, true) => false,
                                _ => cost < b2.2,
                            };
                            Some(if better { candidate } else { b2 })
                        }
                    };
                }
            }
            let (i, j, _, has_edge) = best.expect("at least two items");
            let (first, second) = if i < j { (i, j) } else { (j, i) };
            let right = items.remove(second);
            let left = items.remove(first);

            // Gather the edges joining the two sides.
            let mut keys_left: Vec<usize> = Vec::new(); // global
            let mut keys_right: Vec<usize> = Vec::new();
            join_edges.retain(|(a, b)| {
                let ta = scope.table_of(*a);
                let tb = scope.table_of(*b);
                if left.tables.contains(&ta) && right.tables.contains(&tb) {
                    keys_left.push(*a);
                    keys_right.push(*b);
                    false
                } else if left.tables.contains(&tb) && right.tables.contains(&ta) {
                    keys_left.push(*b);
                    keys_right.push(*a);
                    false
                } else {
                    true
                }
            });

            let joined = if has_edge {
                // Build on the smaller side.
                let (build, probe, build_keys_g, probe_keys_g) =
                    if left.node.est().rows_out <= right.node.est().rows_out {
                        (left, right, keys_left, keys_right)
                    } else {
                        (right, left, keys_right, keys_left)
                    };
                let build_keys: Vec<usize> = build_keys_g
                    .iter()
                    .map(|g| global_to_local(&build.layout, *g))
                    .collect::<DbResult<_>>()?;
                let probe_keys: Vec<usize> = probe_keys_g
                    .iter()
                    .map(|g| global_to_local(&probe.layout, *g))
                    .collect::<DbResult<_>>()?;
                // Output layout: probe columns then build columns.
                let mut layout = probe.layout.clone();
                layout.extend(build.layout.iter().copied());
                let card = estimate_join_cardinality(&scope, &build_keys_g, build.node.est());
                let rows_out = (build.node.est().rows_out * probe.node.est().rows_out
                    / card.max(1.0))
                .max(1.0);
                let est = Est {
                    rows_in: build.node.est().rows_out + probe.node.est().rows_out,
                    rows_out,
                    n_cols: layout.len(),
                    width: build.node.est().width + probe.node.est().width,
                    cardinality: card,
                };
                let tables = &left_right_tables(&probe.tables, &build.tables);
                Item {
                    node: PlanNode::HashJoin {
                        build: Box::new(build.node),
                        probe: Box::new(probe.node),
                        build_keys,
                        probe_keys,
                        filter: None,
                        est,
                    },
                    layout,
                    tables: tables.clone(),
                }
            } else {
                let mut layout = left.layout.clone();
                layout.extend(right.layout.iter().copied());
                let rows_out = left.node.est().rows_out * right.node.est().rows_out;
                let est = Est {
                    rows_in: left.node.est().rows_out + right.node.est().rows_out,
                    rows_out,
                    n_cols: layout.len(),
                    width: left.node.est().width + right.node.est().width,
                    cardinality: rows_out,
                };
                let tables = left_right_tables(&left.tables, &right.tables);
                Item {
                    node: PlanNode::NestedLoopJoin {
                        outer: Box::new(left.node),
                        inner: Box::new(right.node),
                        filter: None,
                        est,
                    },
                    layout,
                    tables,
                }
            };
            items.push(joined);
        }
        let top = items.pop().expect("one item");
        let (mut node, mut layout) = (top.node, top.layout);

        // Attach residual (multi-table) predicates above the join tree.
        if !residual.is_empty() {
            let combined = residual
                .into_iter()
                .map(|e| remap_checked(&e, &layout))
                .collect::<DbResult<Vec<_>>>()?
                .into_iter()
                .reduce(|a, b| BoundExpr::Binary {
                    op: BinOp::And,
                    left: Box::new(a),
                    right: Box::new(b),
                })
                .expect("non-empty residual");
            // Fold into the top join's filter slot if it is a join, else a
            // degenerate single-table residual stays on the scan.
            node = attach_filter(node, combined);
        }

        // SELECT * lists columns in FROM order, whatever order the joins
        // put them in.
        if select.items.is_empty() && layout.iter().enumerate().any(|(i, &g)| i != g) {
            let exprs = (0..layout.len())
                .map(|g| BoundExpr::Col(global_to_local(&layout, g).expect("every column")))
                .collect();
            let est = *node.est();
            node = PlanNode::Project {
                input: Box::new(node),
                exprs,
                est,
            };
            layout = (0..layout.len()).collect();
        }

        // Aggregation. DISTINCT desugars to grouping on the select list.
        let has_aggs = select_has_aggs(select);
        let effective_group_by: Vec<Expr> = if !select.group_by.is_empty() {
            select.group_by.clone()
        } else if select.distinct && !has_aggs && !select.items.is_empty() {
            select.items.iter().map(|i| i.expr.clone()).collect()
        } else {
            Vec::new()
        };
        let mut post_layout_exprs: Vec<BoundExpr> = Vec::new(); // projection over current output
        let mut agg_output_names: Vec<Option<String>> = Vec::new();
        // Aggregation context, kept for ORDER BY expressions that reference
        // grouped data without appearing in the select list.
        let mut agg_context: Option<(Vec<AggSpecEntry>, usize)> = None;
        if has_aggs || !effective_group_by.is_empty() {
            let group_bound: Vec<BoundExpr> = effective_group_by
                .iter()
                .map(|g| {
                    self.bind(g, &scope)
                        .and_then(|b| remap_checked(&b, &layout))
                })
                .collect::<DbResult<_>>()?;
            // Collect aggregate specs from the select items and HAVING.
            let mut specs: Vec<AggSpecEntry> = Vec::new();
            let having_exprs: Vec<&Expr> = select.having.iter().collect();
            for expr in select.items.iter().map(|i| &i.expr).chain(having_exprs) {
                collect_aggs(expr, &mut |func, arg| -> DbResult<()> {
                    let bound = arg
                        .map(|a| {
                            self.bind(a, &scope)
                                .and_then(|b| remap_checked(&b, &layout))
                        })
                        .transpose()?;
                    let ast = Expr::Agg {
                        func,
                        arg: arg.map(|a| Box::new(a.clone())),
                    };
                    if !specs.iter().any(|(f, _, e)| *f == func && *e == ast) {
                        specs.push((func, bound, ast));
                    }
                    Ok(())
                })?;
            }
            if specs.is_empty() && select.items.is_empty() {
                return Err(DbError::Plan(
                    "GROUP BY requires an explicit select list".into(),
                ));
            }
            let n_groups = group_bound.len();
            let input_est = *node.est();
            let group_card: f64 = estimate_group_cardinality(
                &scope,
                &effective_group_by,
                &layout,
                input_est.rows_out,
            );
            let agg_specs: Vec<AggSpec> = specs
                .iter()
                .map(|(func, arg, _)| AggSpec {
                    func: *func,
                    arg: arg.clone(),
                })
                .collect();
            let est = Est {
                rows_in: input_est.rows_out,
                rows_out: group_card.max(1.0),
                n_cols: n_groups + agg_specs.len(),
                width: (n_groups * 8 + agg_specs.len() * 8) as f64,
                cardinality: group_card.max(1.0),
            };
            node = PlanNode::Aggregate {
                input: Box::new(node),
                group_by: group_bound,
                aggs: agg_specs,
                est,
            };
            // HAVING filters the grouped output.
            if let Some(having) = &select.having {
                let predicate = map_post_agg(having, &effective_group_by, &specs, n_groups)?;
                let input_est = *node.est();
                let est = Est {
                    rows_in: input_est.rows_out,
                    rows_out: (input_est.rows_out * 0.5).max(1.0),
                    ..input_est
                };
                node = PlanNode::Filter {
                    input: Box::new(node),
                    predicate,
                    est,
                };
            }
            // Projection over the aggregate output.
            for item in &select.items {
                let mapped = map_post_agg(&item.expr, &effective_group_by, &specs, n_groups)?;
                post_layout_exprs.push(mapped);
                agg_output_names.push(item.alias.clone());
            }
            agg_context = Some((specs, n_groups));
        } else if !select.items.is_empty() {
            // Plain projection over the join output.
            for item in &select.items {
                let bound = self.bind(&item.expr, &scope)?;
                post_layout_exprs.push(remap_checked(&bound, &layout)?);
                agg_output_names.push(item.alias.clone());
            }
        }

        // Resolve ORDER BY keys before building the projection: a key that
        // is neither an alias nor a select item is appended as a hidden
        // projection column and stripped after the sort.
        let n_visible = post_layout_exprs.len();
        let mut sort_keys: Vec<SortKey> = Vec::new();
        for o in &select.order_by {
            let expr = match resolve_order_expr(&o.expr, select, &agg_output_names) {
                Some(i) => BoundExpr::Col(i),
                None if select.items.is_empty() && !has_aggs => {
                    // SELECT *: sort directly over the join layout.
                    let bound = self.bind(&o.expr, &scope)?;
                    remap_checked(&bound, &layout)?
                }
                None => {
                    // Hidden column over the pre-projection output.
                    let hidden = match &agg_context {
                        Some((specs, n_groups)) => {
                            map_post_agg(&o.expr, &effective_group_by, specs, *n_groups)?
                        }
                        None => {
                            let bound = self.bind(&o.expr, &scope)?;
                            remap_checked(&bound, &layout)?
                        }
                    };
                    post_layout_exprs.push(hidden);
                    BoundExpr::Col(post_layout_exprs.len() - 1)
                }
            };
            sort_keys.push(SortKey { expr, desc: o.desc });
        }

        if !post_layout_exprs.is_empty() {
            let input_est = *node.est();
            let est = Est {
                rows_in: input_est.rows_out,
                rows_out: input_est.rows_out,
                n_cols: post_layout_exprs.len(),
                width: (post_layout_exprs.len() * 8) as f64,
                cardinality: input_est.cardinality,
            };
            node = PlanNode::Project {
                input: Box::new(node),
                exprs: post_layout_exprs.clone(),
                est,
            };
        }

        if !sort_keys.is_empty() {
            let input_est = *node.est();
            let est = Est {
                rows_in: input_est.rows_out,
                rows_out: input_est.rows_out,
                n_cols: input_est.n_cols,
                width: input_est.width,
                cardinality: input_est.rows_out,
            };
            node = PlanNode::Sort {
                input: Box::new(node),
                keys: sort_keys,
                est,
            };
            // Strip hidden sort columns.
            if post_layout_exprs.len() > n_visible && n_visible > 0 {
                let input_est = *node.est();
                let est = Est {
                    n_cols: n_visible,
                    ..input_est
                };
                node = PlanNode::Project {
                    input: Box::new(node),
                    exprs: (0..n_visible).map(BoundExpr::Col).collect(),
                    est,
                };
            }
        }

        if let Some(n) = select.limit {
            let input_est = *node.est();
            let est = Est {
                rows_in: input_est.rows_out,
                rows_out: input_est.rows_out.min(n as f64),
                ..input_est
            };
            node = PlanNode::Limit {
                input: Box::new(node),
                n,
                est,
            };
        }

        let input_est = *node.est();
        Ok(PlanNode::Output {
            input: Box::new(node),
            sink: OutputSink::Client,
            est: input_est,
        })
    }

    fn build_scope(&self, select: &Select) -> DbResult<Scope> {
        let mut tables = Vec::new();
        let mut offset = 0;
        for tr in &select.from {
            let entry = self.catalog.get(&tr.name)?;
            let n = entry.table.schema().len();
            tables.push(ScopeTable {
                entry,
                name: tr.name.to_ascii_lowercase(),
                alias: tr.alias.clone(),
                offset,
            });
            offset += n;
        }
        Ok(Scope { tables })
    }

    /// Bind an AST expression over the scope's global layout. Aggregates are
    /// rejected here — they are collected separately.
    fn bind(&self, expr: &Expr, scope: &Scope) -> DbResult<BoundExpr> {
        match expr {
            Expr::Column { table, name } => {
                Ok(BoundExpr::Col(scope.resolve(table.as_deref(), name)?))
            }
            Expr::Literal(v) => Ok(BoundExpr::Lit(v.clone())),
            Expr::Binary { op, left, right } => Ok(BoundExpr::Binary {
                op: *op,
                left: Box::new(self.bind(left, scope)?),
                right: Box::new(self.bind(right, scope)?),
            }),
            Expr::Unary { op, operand } => Ok(BoundExpr::Unary {
                op: *op,
                operand: Box::new(self.bind(operand, scope)?),
            }),
            Expr::Agg { .. } => Err(DbError::Plan(
                "aggregate not allowed in this context".into(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Scans (shared by SELECT / UPDATE / DELETE)
    // ------------------------------------------------------------------

    /// Build the best scan for one table given its pushed-down conjuncts
    /// (bound to table-local column positions).
    fn plan_scan(
        &self,
        entry: &TableEntry,
        table_name: &str,
        conjuncts: Vec<BoundExpr>,
    ) -> DbResult<PlanNode> {
        let stats = entry.stats();
        let schema = entry.table.schema();
        let n_cols = schema.len();
        let width = schema.estimated_tuple_size() as f64;
        let base_rows = stats.row_count.max(entry.table.live_tuples()) as f64;

        // Equality literals per column, for index-prefix matching: the first
        // non-NULL `Col = Lit` per column, by conjunct position. A second
        // literal on the same column stays in the residual.
        let mut eq_lit: std::collections::HashMap<usize, (Value, usize)> =
            std::collections::HashMap::new();
        for (pos, c) in conjuncts.iter().enumerate() {
            if let Some((col, v)) = equality_closure::col_eq_lit(c) {
                eq_lit.entry(col).or_insert_with(|| (v.clone(), pos));
            }
        }

        // Candidate indexes: the catalog's (minus any hidden by what-if
        // overrides) plus hypothetical ones declared for this table.
        let mut candidates: Vec<(String, Vec<usize>)> = Vec::new();
        for index in entry.indexes() {
            let hidden = self.overrides.is_some_and(|ov| {
                ov.hidden_indexes
                    .iter()
                    .any(|h| h.eq_ignore_ascii_case(&index.name))
            });
            if !hidden {
                candidates.push((index.name.clone(), index.key_columns.clone()));
            }
        }
        if let Some(ov) = self.overrides {
            for h in &ov.hypothetical_indexes {
                if h.table.eq_ignore_ascii_case(table_name) {
                    candidates.push((h.name.clone(), h.columns.clone()));
                }
            }
        }

        // Pick the index with the longest fully-bound equality prefix.
        let mut best_index: Option<(String, Vec<usize>, usize)> = None;
        for (name, key_columns) in candidates {
            let mut prefix = 0;
            for col in &key_columns {
                if eq_lit.contains_key(col) {
                    prefix += 1;
                } else {
                    break;
                }
            }
            if prefix > 0 && best_index.as_ref().is_none_or(|(_, _, p)| prefix > *p) {
                best_index = Some((name, key_columns, prefix));
            }
        }

        let selectivity = estimate_selectivity(&stats, &conjuncts);
        let est_rows = (base_rows * selectivity).max(0.0);

        if let Some((index_name, key_columns, prefix)) = best_index {
            let prefix_cols: Vec<usize> = key_columns[..prefix].to_vec();
            let bound: Vec<Value> = prefix_cols.iter().map(|c| eq_lit[c].0.clone()).collect();
            // Residual: everything but the conjuncts the prefix expresses.
            let used: Vec<usize> = prefix_cols.iter().map(|c| eq_lit[c].1).collect();
            let residual: Vec<BoundExpr> = conjuncts
                .into_iter()
                .enumerate()
                .filter(|(pos, _)| !used.contains(pos))
                .map(|(_, c)| c)
                .collect();
            let filter = combine_conjuncts(residual);
            // Index selectivity from the prefix columns only.
            let idx_sel: f64 = prefix_cols
                .iter()
                .map(|&c| stats.eq_selectivity(c))
                .product();
            let est = Est {
                rows_in: (base_rows * idx_sel).max(1.0),
                rows_out: est_rows.max(1.0),
                n_cols,
                width,
                cardinality: est_rows.max(1.0),
            };
            return Ok(PlanNode::IndexScan {
                table: table_name.to_string(),
                index: index_name,
                range: ScanRange {
                    lo: bound.clone(),
                    hi: bound,
                },
                filter,
                est,
            });
        }

        let filter = combine_conjuncts(conjuncts);
        let est = Est {
            rows_in: base_rows,
            rows_out: est_rows.max(1.0),
            n_cols,
            width,
            cardinality: est_rows.max(1.0),
        };
        Ok(PlanNode::SeqScan {
            table: table_name.to_string(),
            filter,
            est,
        })
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn plan_insert(
        &self,
        table: &str,
        columns: &[String],
        rows: &[Vec<Expr>],
    ) -> DbResult<PlanNode> {
        let entry = self.catalog.get(table)?;
        let schema = entry.table.schema().clone();
        let positions: Vec<usize> = if columns.is_empty() {
            (0..schema.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| schema.index_of(c))
                .collect::<DbResult<_>>()?
        };
        let mut out_rows = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != positions.len() {
                return Err(DbError::Plan(format!(
                    "INSERT arity mismatch: {} values for {} columns",
                    row.len(),
                    positions.len()
                )));
            }
            let mut tuple = vec![Value::Null; schema.len()];
            for (expr, &pos) in row.iter().zip(&positions) {
                let v = const_eval(expr)?;
                tuple[pos] = if v.is_null() {
                    v
                } else {
                    v.cast(schema.column(pos).ty)?
                };
            }
            out_rows.push(tuple);
        }
        let n = out_rows.len() as f64;
        let width = schema.estimated_tuple_size() as f64;
        Ok(PlanNode::Insert {
            table: table.to_ascii_lowercase(),
            rows: out_rows,
            est: Est {
                rows_in: n,
                rows_out: n,
                n_cols: schema.len(),
                width,
                cardinality: n,
            },
        })
    }

    fn plan_update(
        &self,
        table: &str,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> DbResult<PlanNode> {
        let entry = self.catalog.get(table)?;
        let scope = self.single_table_scope(table)?;
        let conjuncts = self.bind_conjuncts(predicate, &scope)?;
        let scan = self.plan_scan(&entry, &table.to_ascii_lowercase(), conjuncts)?;
        let schema = entry.table.schema();
        let bound_assignments: Vec<(usize, BoundExpr)> = assignments
            .iter()
            .map(|(col, expr)| {
                let pos = schema.index_of(col)?;
                Ok((pos, self.bind(expr, &scope)?))
            })
            .collect::<DbResult<_>>()?;
        let est = *scan.est();
        Ok(PlanNode::Update {
            table: table.to_ascii_lowercase(),
            scan: Box::new(scan),
            assignments: bound_assignments,
            est,
        })
    }

    fn plan_delete(&self, table: &str, predicate: Option<&Expr>) -> DbResult<PlanNode> {
        let entry = self.catalog.get(table)?;
        let scope = self.single_table_scope(table)?;
        let conjuncts = self.bind_conjuncts(predicate, &scope)?;
        let scan = self.plan_scan(&entry, &table.to_ascii_lowercase(), conjuncts)?;
        let est = *scan.est();
        Ok(PlanNode::Delete {
            table: table.to_ascii_lowercase(),
            scan: Box::new(scan),
            est,
        })
    }

    fn plan_create_index(
        &self,
        name: &str,
        table: &str,
        columns: &[String],
        threads: usize,
    ) -> DbResult<PlanNode> {
        let entry = self.catalog.get(table)?;
        let schema = entry.table.schema();
        let positions: Vec<usize> = columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<DbResult<_>>()?;
        let stats = entry.stats();
        let rows = stats.row_count.max(entry.table.live_tuples()) as f64;
        let key_width: f64 = positions
            .iter()
            .map(|&p| schema.column(p).estimated_width() as f64)
            .sum();
        let cardinality: f64 = positions
            .iter()
            .map(|&p| stats.distinct_of(p) as f64)
            .product::<f64>()
            .min(rows.max(1.0));
        Ok(PlanNode::CreateIndex {
            table: table.to_ascii_lowercase(),
            index: name.to_string(),
            columns: positions.clone(),
            threads: threads.max(1),
            est: Est {
                rows_in: rows,
                rows_out: rows,
                n_cols: positions.len(),
                width: key_width,
                cardinality,
            },
        })
    }

    fn single_table_scope(&self, table: &str) -> DbResult<Scope> {
        let entry = self.catalog.get(table)?;
        Ok(Scope {
            tables: vec![ScopeTable {
                entry,
                name: table.to_ascii_lowercase(),
                alias: None,
                offset: 0,
            }],
        })
    }

    fn bind_conjuncts(&self, predicate: Option<&Expr>, scope: &Scope) -> DbResult<Vec<BoundExpr>> {
        let mut out = Vec::new();
        if let Some(p) = predicate {
            let bound = self.bind(p, scope)?;
            split_conjuncts(bound, &mut out);
        }
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// A collected aggregate: (function, bound argument, original AST form).
type AggSpecEntry = (crate::expr::AggFunc, Option<BoundExpr>, Expr);

fn split_conjuncts(expr: BoundExpr, out: &mut Vec<BoundExpr>) {
    match expr {
        BoundExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

fn combine_conjuncts(conjuncts: Vec<BoundExpr>) -> Option<BoundExpr> {
    conjuncts.into_iter().reduce(|a, b| BoundExpr::Binary {
        op: BinOp::And,
        left: Box::new(a),
        right: Box::new(b),
    })
}

fn global_to_local(layout: &[usize], global: usize) -> DbResult<usize> {
    layout
        .iter()
        .position(|&g| g == global)
        .ok_or_else(|| DbError::Plan(format!("column {global} not in layout")))
}

fn remap_checked(expr: &BoundExpr, layout: &[usize]) -> DbResult<BoundExpr> {
    // Verify all references exist before the infallible remap.
    for c in expr.columns() {
        global_to_local(layout, c)?;
    }
    Ok(expr.remap(&|g| layout.iter().position(|&x| x == g).expect("checked")))
}

fn attach_filter(node: PlanNode, extra: BoundExpr) -> PlanNode {
    let and = |old: Option<BoundExpr>, extra: BoundExpr| match old {
        Some(f) => Some(BoundExpr::Binary {
            op: BinOp::And,
            left: Box::new(f),
            right: Box::new(extra),
        }),
        None => Some(extra),
    };
    match node {
        PlanNode::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            filter,
            est,
        } => PlanNode::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            filter: and(filter, extra),
            est,
        },
        PlanNode::NestedLoopJoin {
            outer,
            inner,
            filter,
            est,
        } => PlanNode::NestedLoopJoin {
            outer,
            inner,
            filter: and(filter, extra),
            est,
        },
        PlanNode::SeqScan { table, filter, est } => PlanNode::SeqScan {
            table,
            filter: and(filter, extra),
            est,
        },
        PlanNode::IndexScan {
            table,
            index,
            range,
            filter,
            est,
        } => PlanNode::IndexScan {
            table,
            index,
            range,
            filter: and(filter, extra),
            est,
        },
        other => other,
    }
}

fn estimate_selectivity(stats: &TableStats, conjuncts: &[BoundExpr]) -> f64 {
    let mut sel = 1.0;
    for c in conjuncts {
        sel *= conjunct_selectivity(stats, c);
    }
    sel.clamp(1e-7, 1.0)
}

fn conjunct_selectivity(stats: &TableStats, c: &BoundExpr) -> f64 {
    if let BoundExpr::Binary { op, left, right } = c {
        let col_lit = match (&**left, &**right) {
            (BoundExpr::Col(i), BoundExpr::Lit(v)) => Some((*i, v.clone(), false)),
            (BoundExpr::Lit(v), BoundExpr::Col(i)) => Some((*i, v.clone(), true)),
            _ => None,
        };
        if let Some((col, lit, flipped)) = col_lit {
            let x = lit.as_f64().ok();
            return match (op, flipped) {
                (BinOp::Eq, _) => stats.eq_selectivity(col),
                (BinOp::NotEq, _) => 1.0 - stats.eq_selectivity(col),
                (BinOp::Lt | BinOp::LtEq, false) | (BinOp::Gt | BinOp::GtEq, true) => {
                    stats.range_selectivity(col, None, x)
                }
                (BinOp::Gt | BinOp::GtEq, false) | (BinOp::Lt | BinOp::LtEq, true) => {
                    stats.range_selectivity(col, x, None)
                }
                _ => 0.3,
            };
        }
    }
    0.3
}

fn estimate_join_cardinality(scope: &Scope, build_keys_global: &[usize], build_est: &Est) -> f64 {
    let mut card = 1.0f64;
    for &g in build_keys_global {
        let t = scope.table_of(g);
        let local = g - scope.tables[t].offset;
        card *= scope.tables[t].entry.stats().distinct_of(local) as f64;
    }
    card.min(build_est.rows_out.max(1.0))
}

fn estimate_group_cardinality(
    scope: &Scope,
    group_by: &[Expr],
    _layout: &[usize],
    rows: f64,
) -> f64 {
    if group_by.is_empty() {
        return 1.0;
    }
    let mut card = 1.0f64;
    for g in group_by {
        if let Expr::Column { table, name } = g {
            if let Ok(global) = scope.resolve(table.as_deref(), name) {
                let t = scope.table_of(global);
                let local = global - scope.tables[t].offset;
                card *= scope.tables[t].entry.stats().distinct_of(local) as f64;
                continue;
            }
        }
        card *= 10.0; // default guess for computed group keys
    }
    card.min(rows.max(1.0))
}

fn select_has_aggs(select: &Select) -> bool {
    fn expr_has_agg(e: &Expr) -> bool {
        match e {
            Expr::Agg { .. } => true,
            Expr::Binary { left, right, .. } => expr_has_agg(left) || expr_has_agg(right),
            Expr::Unary { operand, .. } => expr_has_agg(operand),
            _ => false,
        }
    }
    select.items.iter().any(|i| expr_has_agg(&i.expr))
}

fn collect_aggs(
    e: &Expr,
    f: &mut impl FnMut(crate::expr::AggFunc, Option<&Expr>) -> DbResult<()>,
) -> DbResult<()> {
    match e {
        Expr::Agg { func, arg } => f(*func, arg.as_deref()),
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, f)?;
            collect_aggs(right, f)
        }
        Expr::Unary { operand, .. } => collect_aggs(operand, f),
        _ => Ok(()),
    }
}

/// Rewrite a post-aggregation select expression into a [`BoundExpr`] over
/// the aggregate node's output (group columns, then aggregate results).
fn map_post_agg(
    e: &Expr,
    group_by: &[Expr],
    specs: &[AggSpecEntry],
    n_groups: usize,
) -> DbResult<BoundExpr> {
    // Whole-expression group match.
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return Ok(BoundExpr::Col(i));
    }
    match e {
        Expr::Agg { .. } => {
            let pos = specs
                .iter()
                .position(|(_, _, ast)| ast == e)
                .ok_or_else(|| DbError::Plan("aggregate not collected".into()))?;
            Ok(BoundExpr::Col(n_groups + pos))
        }
        Expr::Literal(v) => Ok(BoundExpr::Lit(v.clone())),
        Expr::Binary { op, left, right } => Ok(BoundExpr::Binary {
            op: *op,
            left: Box::new(map_post_agg(left, group_by, specs, n_groups)?),
            right: Box::new(map_post_agg(right, group_by, specs, n_groups)?),
        }),
        Expr::Unary { op, operand } => Ok(BoundExpr::Unary {
            op: *op,
            operand: Box::new(map_post_agg(operand, group_by, specs, n_groups)?),
        }),
        Expr::Column { name, .. } => Err(DbError::Plan(format!(
            "column '{name}' must appear in GROUP BY or inside an aggregate"
        ))),
    }
}

/// Resolve an ORDER BY expression to a projected output column: by alias, or
/// by structural equality with a select item.
fn resolve_order_expr(e: &Expr, select: &Select, _names: &[Option<String>]) -> Option<usize> {
    if let Expr::Column { table: None, name } = e {
        if let Some(i) = select.items.iter().position(|it| {
            it.alias
                .as_deref()
                .is_some_and(|a| a.eq_ignore_ascii_case(name))
        }) {
            return Some(i);
        }
    }
    select.items.iter().position(|it| &it.expr == e)
}

fn left_right_tables(
    a: &std::collections::BTreeSet<usize>,
    b: &std::collections::BTreeSet<usize>,
) -> std::collections::BTreeSet<usize> {
    a.union(b).copied().collect()
}

fn const_eval(expr: &Expr) -> DbResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Unary {
            op: UnOp::Neg,
            operand,
        } => match const_eval(operand)? {
            Value::Int(x) => Ok(Value::Int(-x)),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(DbError::Plan(format!("cannot negate {other}"))),
        },
        Expr::Binary { op, left, right } => {
            let bound = BoundExpr::Binary {
                op: *op,
                left: Box::new(BoundExpr::Lit(const_eval(left)?)),
                right: Box::new(BoundExpr::Lit(const_eval(right)?)),
            };
            bound
                .eval(&[])
                .map_err(|e| DbError::Plan(format!("INSERT value: {e}")))
        }
        other => Err(DbError::Plan(format!(
            "INSERT values must be constants, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use mb2_common::{Column, DataType, Schema};
    use mb2_storage::Ts;

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let orders = cat
            .create_table(
                "orders",
                Schema::new(vec![
                    Column::new("o_id", DataType::Int),
                    Column::new("o_cust", DataType::Int),
                    Column::new("o_total", DataType::Float),
                ]),
            )
            .unwrap();
        let cust = cat
            .create_table(
                "customer",
                Schema::new(vec![
                    Column::new("c_id", DataType::Int),
                    Column::new("c_name", DataType::Varchar),
                ]),
            )
            .unwrap();
        // Load data so stats are meaningful: 1000 orders, 100 customers.
        for i in 0..1000 {
            let slot = orders
                .table
                .insert(
                    vec![Value::Int(i), Value::Int(i % 100), Value::Float(i as f64)],
                    Ts::txn(1),
                )
                .unwrap();
            orders.table.commit_slot(slot, Ts::txn(1), Ts(2), 1);
        }
        for i in 0..100 {
            let slot = cust
                .table
                .insert(
                    vec![Value::Int(i), Value::Varchar(format!("c{i}"))],
                    Ts::txn(1),
                )
                .unwrap();
            cust.table.commit_slot(slot, Ts::txn(1), Ts(2), 1);
        }
        orders.analyze(Ts(2));
        cust.analyze(Ts(2));
        cust.add_index(Arc::new(mb2_index::Index::new("cust_pk", vec![0])))
            .unwrap();
        cat
    }

    fn plan(cat: &Catalog, sql: &str) -> PlanNode {
        let stmt = parse(sql).unwrap();
        Planner::new(cat).plan(&stmt).unwrap()
    }

    #[test]
    fn simple_scan_with_filter() {
        let cat = setup();
        let p = plan(&cat, "SELECT * FROM orders WHERE o_total > 500.0");
        match &p {
            PlanNode::Output { input, .. } => match &**input {
                PlanNode::SeqScan { filter, est, .. } => {
                    assert!(filter.is_some());
                    // ~50% selectivity from range stats.
                    assert!(est.rows_out > 300.0 && est.rows_out < 700.0, "{est:?}");
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_scan_chosen_for_pk_equality() {
        let cat = setup();
        let p = plan(&cat, "SELECT * FROM customer WHERE c_id = 5");
        match &p {
            PlanNode::Output { input, .. } => match &**input {
                PlanNode::IndexScan {
                    index, range, est, ..
                } => {
                    assert_eq!(index, "cust_pk");
                    assert_eq!(range.lo, vec![Value::Int(5)]);
                    assert!(est.rows_out <= 2.0);
                }
                other => panic!("expected index scan, got {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hash_join_build_on_smaller_side() {
        let cat = setup();
        let p = plan(
            &cat,
            "SELECT o.o_id, c.c_name FROM orders o, customer c WHERE o.o_cust = c.c_id",
        );
        // Expect Output -> Project -> HashJoin(build=customer, probe=orders).
        let join = find_node(&p, "HashJoin").expect("hash join present");
        match join {
            PlanNode::HashJoin {
                build, probe, est, ..
            } => {
                assert_eq!(node_table(build), Some("customer"));
                assert_eq!(node_table(probe), Some("orders"));
                assert!(est.rows_out > 500.0, "{est:?}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn aggregation_plan_shape() {
        let cat = setup();
        let p = plan(
            &cat,
            "SELECT o_cust, COUNT(*), SUM(o_total) FROM orders GROUP BY o_cust ORDER BY o_cust",
        );
        assert!(find_node(&p, "Aggregate").is_some());
        assert!(find_node(&p, "Sort").is_some());
        let agg = find_node(&p, "Aggregate").unwrap();
        if let PlanNode::Aggregate { aggs, est, .. } = agg {
            assert_eq!(aggs.len(), 2);
            // 100 distinct customers.
            assert!((est.rows_out - 100.0).abs() < 1.0, "{est:?}");
        }
    }

    #[test]
    fn order_by_alias() {
        let cat = setup();
        let p = plan(
            &cat,
            "SELECT o_cust, SUM(o_total) AS total FROM orders GROUP BY o_cust ORDER BY total DESC LIMIT 5",
        );
        let sort = find_node(&p, "Sort").unwrap();
        if let PlanNode::Sort { keys, .. } = sort {
            assert_eq!(keys[0].expr, BoundExpr::Col(1));
            assert!(keys[0].desc);
        }
        assert!(find_node(&p, "Limit").is_some());
    }

    #[test]
    fn update_plan_binds_assignments() {
        let cat = setup();
        let p = plan(
            &cat,
            "UPDATE orders SET o_total = o_total + 1.0 WHERE o_id = 3",
        );
        match &p {
            PlanNode::Update {
                assignments, scan, ..
            } => {
                assert_eq!(assignments[0].0, 2);
                assert!(matches!(**scan, PlanNode::SeqScan { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_const_evaluates_and_casts() {
        let cat = setup();
        let p = plan(
            &cat,
            "INSERT INTO customer (c_id, c_name) VALUES (1 + 2, 'x')",
        );
        match &p {
            PlanNode::Insert { rows, .. } => {
                assert_eq!(rows[0][0], Value::Int(3));
                assert_eq!(rows[0][1], Value::from("x"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_rejects_non_constants() {
        let cat = setup();
        let stmt = parse("INSERT INTO customer (c_id, c_name) VALUES (c_id, 'x')").unwrap();
        assert!(Planner::new(&cat).plan(&stmt).is_err());
    }

    #[test]
    fn create_index_plan() {
        let cat = setup();
        let p = plan(
            &cat,
            "CREATE INDEX o_cust_idx ON orders (o_cust) WITH (THREADS = 4)",
        );
        match &p {
            PlanNode::CreateIndex {
                columns,
                threads,
                est,
                ..
            } => {
                assert_eq!(columns, &vec![1]);
                assert_eq!(*threads, 4);
                assert_eq!(est.rows_in, 1000.0);
                assert!((est.cardinality - 100.0).abs() < 1.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_column_is_plan_error() {
        let cat = setup();
        let stmt = parse("SELECT nope FROM orders").unwrap();
        assert!(matches!(
            Planner::new(&cat).plan(&stmt),
            Err(DbError::Plan(_))
        ));
    }

    #[test]
    fn ambiguous_column_detected() {
        let cat = setup();
        // o_id exists only in orders, c_id only in customer: unambiguous.
        // But a self-join makes every column ambiguous.
        let stmt = parse("SELECT o_id FROM orders a, orders b WHERE a.o_id = b.o_id").unwrap();
        assert!(Planner::new(&cat).plan(&stmt).is_err());
    }

    #[test]
    fn hypothetical_index_is_considered() {
        let cat = setup();
        // orders has no index; a hypothetical one on o_cust flips the
        // equality scan to an IndexScan referencing the hypothetical name.
        let ov = PlannerOverrides {
            hypothetical_indexes: vec![HypotheticalIndex {
                table: "orders".into(),
                name: "hypo_o_cust".into(),
                columns: vec![1],
            }],
            hidden_indexes: vec![],
        };
        let stmt = parse("SELECT * FROM orders WHERE o_cust = 7").unwrap();
        let p = Planner::with_overrides(&cat, &ov).plan(&stmt).unwrap();
        match find_node(&p, "IndexScan") {
            Some(PlanNode::IndexScan { index, .. }) => assert_eq!(index, "hypo_o_cust"),
            other => panic!("expected hypothetical index scan, got {other:?}"),
        }
    }

    #[test]
    fn hidden_index_is_ignored() {
        let cat = setup();
        let ov = PlannerOverrides {
            hypothetical_indexes: vec![],
            hidden_indexes: vec!["cust_pk".into()],
        };
        let stmt = parse("SELECT * FROM customer WHERE c_id = 5").unwrap();
        let p = Planner::with_overrides(&cat, &ov).plan(&stmt).unwrap();
        assert!(
            find_node(&p, "IndexScan").is_none(),
            "hidden index must not be chosen: {p:?}"
        );
        assert!(find_node(&p, "SeqScan").is_some());
    }

    #[test]
    fn null_literal_never_bounds_an_index() {
        let cat = setup();
        let p = plan(&cat, "SELECT * FROM customer WHERE c_id = NULL");
        assert!(find_node(&p, "IndexScan").is_none(), "{p:?}");
        match find_node(&p, "SeqScan") {
            Some(PlanNode::SeqScan { filter, .. }) => assert!(filter.is_some()),
            other => panic!("expected a filtered seq scan, got {other:?}"),
        }
    }

    #[test]
    fn second_literal_on_a_bound_column_stays_in_the_residual() {
        let cat = setup();
        let p = plan(&cat, "SELECT * FROM customer WHERE c_id = 1 AND c_id = 2");
        match find_node(&p, "IndexScan") {
            Some(PlanNode::IndexScan { range, filter, .. }) => {
                assert_eq!(range.lo, vec![Value::Int(1)]);
                assert!(filter.is_some(), "c_id = 2 must still filter");
            }
            other => panic!("expected index scan, got {other:?}"),
        }
    }

    #[test]
    fn empty_overrides_change_nothing() {
        let cat = setup();
        let ov = PlannerOverrides::default();
        assert!(ov.is_empty());
        let stmt = parse("SELECT * FROM customer WHERE c_id = 5").unwrap();
        let with = Planner::with_overrides(&cat, &ov).plan(&stmt).unwrap();
        let without = Planner::new(&cat).plan(&stmt).unwrap();
        assert_eq!(format!("{with:?}"), format!("{without:?}"));
    }

    fn find_node<'p>(node: &'p PlanNode, label: &str) -> Option<&'p PlanNode> {
        if node.label() == label {
            return Some(node);
        }
        node.children()
            .into_iter()
            .find_map(|c| find_node(c, label))
    }

    fn node_table(node: &PlanNode) -> Option<&str> {
        match node {
            PlanNode::SeqScan { table, .. } | PlanNode::IndexScan { table, .. } => Some(table),
            _ => None,
        }
    }
}
