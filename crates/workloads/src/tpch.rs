//! TPC-H \[61\]: eight tables and analytical queries.
//!
//! Scales are miniaturized (scale 1.0 ≈ 1% of true TPC-H row counts) so the
//! full modeling pipeline runs in CI time; the paper's generalization axis —
//! train on one scale, test on 0.1× and 10× — is preserved because scales
//! here are relative. Dates are day numbers (INT). Queries are simplified
//! to this engine's SQL subset while preserving the operator mix of their
//! TPC-H counterparts (scan/filter widths, join fan-in, aggregation and
//! sort cardinalities).

use mb2_common::{DbResult, Prng};
use mb2_engine::Database;

use crate::{insert_batch, Workload};

/// Day-number range covering the TPC-H 1992-1998 window.
pub const MAX_DATE: usize = 2556;

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"];
const FLAGS: [&str; 3] = ["A", "N", "R"];
const STATUSES: [&str; 2] = ["F", "O"];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDEAST"];

/// TPC-H configuration.
#[derive(Debug, Clone)]
pub struct Tpch {
    /// Relative scale: 1.0 ≈ 60k lineitem rows.
    pub scale: f64,
    pub seed: u64,
}

impl Default for Tpch {
    fn default() -> Self {
        Tpch {
            scale: 1.0,
            seed: 42,
        }
    }
}

impl Tpch {
    pub fn with_scale(scale: f64) -> Tpch {
        Tpch {
            scale,
            ..Tpch::default()
        }
    }

    fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(10)
    }

    pub fn lineitem_rows(&self) -> usize {
        self.rows(60_000)
    }

    fn orders_rows(&self) -> usize {
        self.rows(15_000)
    }

    fn customer_rows(&self) -> usize {
        self.rows(1500)
    }

    fn part_rows(&self) -> usize {
        self.rows(2000)
    }

    fn supplier_rows(&self) -> usize {
        self.rows(100)
    }
}

impl Workload for Tpch {
    fn name(&self) -> &'static str {
        "tpch"
    }

    fn load(&self, db: &Database) -> DbResult<()> {
        db.execute("CREATE TABLE region (r_regionkey INT, r_name VARCHAR(12))")?;
        db.execute("CREATE TABLE nation (n_nationkey INT, n_name VARCHAR(16), n_regionkey INT)")?;
        db.execute(
            "CREATE TABLE supplier (s_suppkey INT, s_name VARCHAR(18), s_nationkey INT, \
             s_acctbal FLOAT)",
        )?;
        db.execute(
            "CREATE TABLE h_customer (c_custkey INT, c_name VARCHAR(18), c_nationkey INT, \
             c_acctbal FLOAT, c_mktsegment VARCHAR(12))",
        )?;
        db.execute(
            "CREATE TABLE h_orders (o_orderkey INT, o_custkey INT, o_orderstatus VARCHAR(1), \
             o_totalprice FLOAT, o_orderdate INT, o_orderpriority VARCHAR(12))",
        )?;
        db.execute(
            "CREATE TABLE lineitem (l_orderkey INT, l_partkey INT, l_suppkey INT, \
             l_linenumber INT, l_quantity FLOAT, l_extendedprice FLOAT, l_discount FLOAT, \
             l_tax FLOAT, l_returnflag VARCHAR(1), l_linestatus VARCHAR(1), \
             l_shipdate INT, l_commitdate INT, l_receiptdate INT, l_shipmode VARCHAR(8))",
        )?;
        db.execute("CREATE TABLE part (p_partkey INT, p_name VARCHAR(24), p_type VARCHAR(16), p_retailprice FLOAT)")?;
        db.execute(
            "CREATE TABLE partsupp (ps_partkey INT, ps_suppkey INT, ps_availqty INT, \
             ps_supplycost FLOAT)",
        )?;

        let mut rng = Prng::new(self.seed);
        insert_batch(db, "region", 5, |i| format!("({i}, '{}')", REGIONS[i]))?;
        insert_batch(db, "nation", 25, |i| {
            format!("({i}, 'nation_{i}', {})", i % 5)
        })?;
        let suppliers = self.supplier_rows();
        insert_batch(db, "supplier", suppliers, |i| {
            format!("({i}, 'supp_{i}', {}, {}.5)", i % 25, i % 1000)
        })?;
        let customers = self.customer_rows();
        insert_batch(db, "h_customer", customers, |i| {
            format!(
                "({i}, 'cust_{i}', {}, {}.25, '{}')",
                i % 25,
                i % 5000,
                SEGMENTS[i % 5]
            )
        })?;
        let orders = self.orders_rows();
        {
            let rng = &mut rng;
            insert_batch(db, "h_orders", orders, |i| {
                format!(
                    "({i}, {}, '{}', {}.75, {}, '{}')",
                    rng.range_usize(0, customers),
                    STATUSES[i % 2],
                    1000 + i % 90_000,
                    rng.range_usize(0, MAX_DATE),
                    PRIORITIES[i % 5]
                )
            })?;
        }
        let lineitems = self.lineitem_rows();
        {
            let rng = &mut rng;
            let parts = self.part_rows();
            insert_batch(db, "lineitem", lineitems, |i| {
                let ship = rng.range_usize(0, MAX_DATE);
                format!(
                    "({}, {}, {}, {}, {}.0, {}.5, 0.0{}, 0.0{}, '{}', '{}', {ship}, {}, {}, '{}')",
                    rng.range_usize(0, orders),
                    rng.range_usize(0, parts),
                    rng.range_usize(0, suppliers),
                    i % 7,
                    1 + rng.range_usize(0, 50),
                    900 + rng.range_usize(0, 10_000),
                    rng.range_usize(1, 10),
                    rng.range_usize(1, 8),
                    FLAGS[i % 3],
                    STATUSES[i % 2],
                    ship + 10,
                    ship + 20,
                    ["MAIL", "SHIP", "RAIL", "TRUCK", "AIR"][i % 5],
                )
            })?;
        }
        let parts = self.part_rows();
        insert_batch(db, "part", parts, |i| {
            format!(
                "({i}, 'part_{i}', 'type_{}', {}.99)",
                i % 20,
                900 + i % 1000
            )
        })?;
        insert_batch(db, "partsupp", parts * 4, |k| {
            format!(
                "({}, {}, {}, {}.5)",
                k / 4,
                k % suppliers,
                100 + k % 900,
                10 + k % 90
            )
        })?;

        db.execute("CREATE INDEX h_orders_pk ON h_orders (o_orderkey)")?;
        db.execute("CREATE INDEX h_customer_pk ON h_customer (c_custkey)")?;
        db.analyze_all();
        Ok(())
    }

    fn template_names(&self) -> Vec<&'static str> {
        vec!["q1", "q3", "q5", "q6", "q10", "q11", "q12", "q14", "q18"]
    }

    fn sample_transaction(&self, template: &str, rng: &mut Prng) -> Vec<String> {
        vec![self.query(template, rng)]
    }
}

impl Tpch {
    /// Generate one parameterized query instance.
    pub fn query(&self, template: &str, rng: &mut Prng) -> String {
        match template {
            // Q1: pricing summary report (scan + wide aggregation + sort).
            "q1" => {
                let delta = 60 + rng.range_usize(0, 60);
                format!(
                    "SELECT l_returnflag, l_linestatus, SUM(l_quantity), \
                     SUM(l_extendedprice), AVG(l_discount), COUNT(*) \
                     FROM lineitem WHERE l_shipdate <= {} \
                     GROUP BY l_returnflag, l_linestatus \
                     ORDER BY l_returnflag, l_linestatus",
                    MAX_DATE - delta
                )
            }
            // Q3: shipping priority (3-way join + agg + top-k sort).
            "q3" => {
                let seg = rng.choose(&SEGMENTS);
                let date = MAX_DATE / 2 + rng.range_usize(0, 200);
                format!(
                    "SELECT l_orderkey, SUM(l_extendedprice) AS revenue, o_orderdate \
                     FROM h_customer, h_orders, lineitem \
                     WHERE c_mktsegment = '{seg}' AND c_custkey = o_custkey \
                     AND l_orderkey = o_orderkey AND o_orderdate < {date} \
                     AND l_shipdate > {date} \
                     GROUP BY l_orderkey, o_orderdate \
                     ORDER BY revenue DESC LIMIT 10"
                )
            }
            // Q5: local supplier volume (6-way join + agg + sort).
            "q5" => {
                let region = rng.range_usize(0, 5);
                let start = rng.range_usize(0, MAX_DATE - 400);
                format!(
                    "SELECT n_name, SUM(l_extendedprice) AS revenue \
                     FROM h_customer, h_orders, lineitem, supplier, nation, region \
                     WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
                     AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
                     AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                     AND r_regionkey = {region} \
                     AND o_orderdate >= {start} AND o_orderdate < {} \
                     GROUP BY n_name ORDER BY revenue DESC",
                    start + 365
                )
            }
            // Q6: forecasting revenue change (pure scan + scalar agg).
            "q6" => {
                let start = rng.range_usize(0, MAX_DATE - 400);
                let qty = 24 + rng.range_usize(0, 8);
                format!(
                    "SELECT SUM(l_extendedprice * l_discount) \
                     FROM lineitem WHERE l_shipdate >= {start} AND l_shipdate < {} \
                     AND l_discount BETWEEN 0.02 AND 0.09 AND l_quantity < {qty}",
                    start + 365
                )
            }
            // Q10: returned-item reporting (4-way join + agg + top-k).
            "q10" => {
                let start = rng.range_usize(0, MAX_DATE - 120);
                format!(
                    "SELECT c_custkey, c_name, SUM(l_extendedprice) AS revenue, n_name \
                     FROM h_customer, h_orders, lineitem, nation \
                     WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
                     AND o_orderdate >= {start} AND o_orderdate < {} \
                     AND l_returnflag = 'R' AND c_nationkey = n_nationkey \
                     GROUP BY c_custkey, c_name, n_name \
                     ORDER BY revenue DESC LIMIT 20",
                    start + 90
                )
            }
            // Q11: important stock identification (2-way join + group +
            // HAVING over an aggregate).
            "q11" => {
                let nation = rng.range_usize(0, 25);
                let threshold = 5000 + rng.range_usize(0, 20_000);
                format!(
                    "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS total_value \
                     FROM partsupp, supplier \
                     WHERE ps_suppkey = s_suppkey AND s_nationkey = {nation} \
                     GROUP BY ps_partkey \
                     HAVING SUM(ps_supplycost * ps_availqty) > {threshold}.0 \
                     ORDER BY total_value DESC LIMIT 20"
                )
            }
            // Q12: shipping modes and order priority (join + agg).
            "q12" => {
                let mode = rng.choose(&["MAIL", "SHIP"]);
                let start = rng.range_usize(0, MAX_DATE - 400);
                format!(
                    "SELECT o_orderpriority, COUNT(*) \
                     FROM h_orders, lineitem \
                     WHERE o_orderkey = l_orderkey AND l_shipmode = '{mode}' \
                     AND l_receiptdate >= {start} AND l_receiptdate < {} \
                     GROUP BY o_orderpriority ORDER BY o_orderpriority",
                    start + 365
                )
            }
            // Q14: promotion effect (join + scalar agg).
            "q14" => {
                let start = rng.range_usize(0, MAX_DATE - 60);
                format!(
                    "SELECT SUM(l_extendedprice * l_discount), COUNT(*) \
                     FROM lineitem, part \
                     WHERE l_partkey = p_partkey \
                     AND l_shipdate >= {start} AND l_shipdate < {}",
                    start + 30
                )
            }
            // Q18: large-volume customers (heavy aggregation + top-k on an
            // aggregate expression).
            "q18" => format!(
                "SELECT l_orderkey, SUM(l_quantity) AS total_qty \
                 FROM lineitem GROUP BY l_orderkey \
                 ORDER BY total_qty DESC LIMIT {}",
                50 + rng.range_usize(0, 51)
            ),
            other => panic!("unknown tpch template '{other}'"),
        }
    }

    /// Fixed-parameter query instances (deterministic across runs), used
    /// when an experiment needs identical queries on several databases.
    pub fn fixed_queries(&self) -> Vec<(String, String)> {
        let mut rng = Prng::new(777);
        self.template_names()
            .into_iter()
            .map(|t| (t.to_string(), self.query(t, &mut rng)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tpch {
        Tpch {
            scale: 0.02,
            seed: 9,
        }
    }

    #[test]
    fn loads_with_expected_row_counts() {
        let t = tiny();
        let db = Database::open();
        t.load(&db).unwrap();
        let r = db.execute("SELECT COUNT(*) FROM lineitem").unwrap();
        assert_eq!(r.rows[0][0].as_i64().unwrap(), t.lineitem_rows() as i64);
        let r = db.execute("SELECT COUNT(*) FROM region").unwrap();
        assert_eq!(r.rows[0][0].as_i64().unwrap(), 5);
    }

    #[test]
    fn all_queries_execute() {
        let t = tiny();
        let db = Database::open();
        t.load(&db).unwrap();
        let mut rng = Prng::new(3);
        for template in t.template_names() {
            let sql = t.query(template, &mut rng);
            let r = db.execute(&sql);
            assert!(r.is_ok(), "{template} failed: {:?}\n{sql}", r.err());
        }
    }

    #[test]
    fn q1_groups_by_flag_and_status() {
        let t = tiny();
        let db = Database::open();
        t.load(&db).unwrap();
        let mut rng = Prng::new(4);
        let r = db.execute(&t.query("q1", &mut rng)).unwrap();
        // At most 3 flags × 2 statuses.
        assert!(!r.rows.is_empty() && r.rows.len() <= 6, "{}", r.rows.len());
    }

    #[test]
    fn q5_six_way_join_produces_nation_rows() {
        let t = tiny();
        let db = Database::open();
        t.load(&db).unwrap();
        let mut rng = Prng::new(5);
        let r = db.execute(&t.query("q5", &mut rng)).unwrap();
        assert!(r.rows.len() <= 25);
    }

    /// The join tree as `(build ⋈ probe)` over table names; other nodes
    /// are transparent.
    fn join_tree(node: &mb2_sql::PlanNode) -> String {
        match node {
            mb2_sql::PlanNode::HashJoin { build, probe, .. } => {
                format!("({} ⋈ {})", join_tree(build), join_tree(probe))
            }
            mb2_sql::PlanNode::SeqScan { table, .. } => table.clone(),
            mb2_sql::PlanNode::IndexScan { table, index, .. } => format!("{table}[{index}]"),
            other => other
                .children()
                .into_iter()
                .map(join_tree)
                .collect::<Vec<_>>()
                .join(" × "),
        }
    }

    /// Q5 is the one benchmark query the planner's equality closure
    /// rewrites: `n_regionkey = r_regionkey AND r_regionkey = K` derives
    /// `n_regionkey = K`, which shrinks the `nation` estimate from 25 rows
    /// to 5. The join order, checked at the benchmark's scale, stays the
    /// one planned without the derived bound.
    #[test]
    fn q5_join_order_is_pinned() {
        let t = Tpch::with_scale(0.5);
        let db = Database::open();
        t.load(&db).unwrap();
        let (name, sql) = &t.fixed_queries()[2];
        assert_eq!(name, "q5");
        let plan = db.prepare(sql).unwrap();
        assert_eq!(
            join_tree(&plan),
            "(((((region ⋈ nation) ⋈ supplier) ⋈ h_customer) ⋈ h_orders) ⋈ lineitem)",
            "{}",
            plan.explain()
        );
        fn scan_rows(node: &mb2_sql::PlanNode, name: &str) -> Option<f64> {
            match node {
                mb2_sql::PlanNode::SeqScan { table, est, .. } if table == name => {
                    Some(est.rows_out)
                }
                _ => node.children().into_iter().find_map(|c| scan_rows(c, name)),
            }
        }
        assert_eq!(scan_rows(&plan, "nation"), Some(5.0));
    }

    #[test]
    fn fixed_queries_are_deterministic() {
        let t = tiny();
        assert_eq!(t.fixed_queries(), t.fixed_queries());
        assert_eq!(t.fixed_queries().len(), 9);
    }

    #[test]
    fn scale_changes_row_counts() {
        assert!(Tpch::with_scale(0.1).lineitem_rows() < Tpch::with_scale(1.0).lineitem_rows());
    }
}
