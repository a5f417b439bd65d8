//! TATP \[47\]: four tables, seven transactions modeling a cellphone
//! registration service. Read-heavy (the standard mix is 80% reads).

use mb2_common::{DbResult, Prng};
use mb2_engine::Database;

use crate::{insert_batch, Workload};

/// TATP configuration.
#[derive(Debug, Clone)]
pub struct Tatp {
    pub subscribers: usize,
}

impl Default for Tatp {
    fn default() -> Self {
        Tatp {
            subscribers: 10_000,
        }
    }
}

impl Tatp {
    pub fn small() -> Tatp {
        Tatp { subscribers: 1000 }
    }

    /// TATP uses non-uniform subscriber ids.
    fn pick_sub(&self, rng: &mut Prng) -> u64 {
        rng.nurand(65_535, 0, self.subscribers as u64 - 1, 7911)
    }
}

impl Workload for Tatp {
    fn name(&self) -> &'static str {
        "tatp"
    }

    fn load(&self, db: &Database) -> DbResult<()> {
        db.execute(
            "CREATE TABLE tatp_subscriber (s_id INT, sub_nbr VARCHAR(15), \
             bit_1 INT, hex_1 INT, byte2_1 INT, vlr_location INT)",
        )?;
        db.execute(
            "CREATE TABLE tatp_access_info (s_id INT, ai_type INT, data1 INT, \
             data2 INT, data3 VARCHAR(3), data4 VARCHAR(5))",
        )?;
        db.execute(
            "CREATE TABLE tatp_special_facility (s_id INT, sf_type INT, \
             is_active INT, error_cntrl INT, data_a INT, data_b VARCHAR(5))",
        )?;
        db.execute(
            "CREATE TABLE tatp_call_forwarding (s_id INT, sf_type INT, \
             start_time INT, end_time INT, numberx VARCHAR(15))",
        )?;
        let n = self.subscribers;
        insert_batch(db, "tatp_subscriber", n, |i| {
            format!(
                "({i}, '{:015}', {}, {}, {}, {})",
                i,
                i % 2,
                i % 16,
                i % 256,
                i * 31 % 65536
            )
        })?;
        // 1-4 access-info rows per subscriber (deterministic 2.5 avg).
        insert_batch(db, "tatp_access_info", n * 2, |k| {
            let s = k / 2;
            let ai = 1 + (k % 2) * 2;
            format!("({s}, {ai}, {}, {}, 'abc', 'abcde')", k % 100, k % 50)
        })?;
        insert_batch(db, "tatp_special_facility", n * 2, |k| {
            let s = k / 2;
            let sf = 1 + (k % 2) * 2;
            format!(
                "({s}, {sf}, {}, 0, {}, 'fghij')",
                (k % 10 != 0) as i32,
                k % 256
            )
        })?;
        // Call forwarding for ~half the special facilities.
        insert_batch(db, "tatp_call_forwarding", n, |k| {
            let s = k;
            let sf = 1 + (k % 2) * 2;
            let start = (k % 3) * 8;
            format!("({s}, {sf}, {start}, {}, '{:015}')", start + 8, k)
        })?;
        db.execute("CREATE INDEX tatp_sub_pk ON tatp_subscriber (s_id)")?;
        db.execute("CREATE INDEX tatp_ai_pk ON tatp_access_info (s_id)")?;
        db.execute("CREATE INDEX tatp_sf_pk ON tatp_special_facility (s_id)")?;
        db.execute("CREATE INDEX tatp_cf_pk ON tatp_call_forwarding (s_id)")?;
        db.analyze_all();
        Ok(())
    }

    fn template_names(&self) -> Vec<&'static str> {
        vec![
            "get_subscriber_data",
            "get_new_destination",
            "get_access_data",
            "update_subscriber_data",
            "update_location",
            "insert_call_forwarding",
            "delete_call_forwarding",
        ]
    }

    fn sample_transaction(&self, template: &str, rng: &mut Prng) -> Vec<String> {
        let s = self.pick_sub(rng);
        let sf = 1 + rng.range_u64(0, 2) * 2;
        let ai = 1 + rng.range_u64(0, 2) * 2;
        let start = rng.range_u64(0, 3) * 8;
        match template {
            "get_subscriber_data" => {
                vec![format!("SELECT * FROM tatp_subscriber WHERE s_id = {s}")]
            }
            "get_new_destination" => vec![format!(
                "SELECT cf.numberx FROM tatp_special_facility sf, tatp_call_forwarding cf \
                 WHERE sf.s_id = {s} AND sf.sf_type = {sf} AND sf.is_active = 1 \
                 AND cf.s_id = sf.s_id AND cf.sf_type = sf.sf_type \
                 AND cf.start_time <= {start} AND cf.end_time > {start}"
            )],
            "get_access_data" => vec![format!(
                "SELECT data1, data2, data3, data4 FROM tatp_access_info \
                 WHERE s_id = {s} AND ai_type = {ai}"
            )],
            "update_subscriber_data" => vec![
                format!("UPDATE tatp_subscriber SET bit_1 = {} WHERE s_id = {s}", s % 2),
                format!(
                    "UPDATE tatp_special_facility SET data_a = {} WHERE s_id = {s} AND sf_type = {sf}",
                    s % 256
                ),
            ],
            "update_location" => vec![format!(
                "UPDATE tatp_subscriber SET vlr_location = {} WHERE s_id = {s}",
                rng.range_u64(0, 1 << 16)
            )],
            "insert_call_forwarding" => vec![
                format!("SELECT s_id FROM tatp_subscriber WHERE s_id = {s}"),
                format!(
                    "INSERT INTO tatp_call_forwarding VALUES ({s}, {sf}, {start}, {}, '{:015}')",
                    start + 8,
                    s
                ),
            ],
            "delete_call_forwarding" => vec![format!(
                "DELETE FROM tatp_call_forwarding \
                 WHERE s_id = {s} AND sf_type = {sf} AND start_time = {start}"
            )],
            other => panic!("unknown tatp template '{other}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_runs_all_templates() {
        let t = Tatp { subscribers: 300 };
        let db = Database::open();
        t.load(&db).unwrap();
        let mut rng = Prng::new(5);
        for template in t.template_names() {
            let stmts = t.sample_transaction(template, &mut rng);
            crate::execute_transaction(&db, &stmts).unwrap();
        }
    }

    /// Every scan in a plan as (table, index name or `None` for a SeqScan).
    fn scans(node: &mb2_sql::PlanNode, out: &mut Vec<(String, Option<String>)>) {
        match node {
            mb2_sql::PlanNode::SeqScan { table, .. } => out.push((table.clone(), None)),
            mb2_sql::PlanNode::IndexScan { table, index, .. } => {
                out.push((table.clone(), Some(index.clone())))
            }
            _ => {}
        }
        for c in node.children() {
            scans(c, out);
        }
    }

    #[test]
    fn get_new_destination_joins_on_index() {
        let t = Tatp { subscribers: 200 };
        let db = Database::open();
        t.load(&db).unwrap();
        // The same data without any index, for the reference answer.
        let bare = Database::open();
        t.load(&bare).unwrap();
        for (index, table) in [
            ("tatp_sub_pk", "tatp_subscriber"),
            ("tatp_ai_pk", "tatp_access_info"),
            ("tatp_sf_pk", "tatp_special_facility"),
            ("tatp_cf_pk", "tatp_call_forwarding"),
        ] {
            bare.execute(&format!("DROP INDEX {index} ON {table}"))
                .unwrap();
        }
        let mut rng = Prng::new(6);
        let mut matched = 0;
        for _ in 0..40 {
            let sql = &t.sample_transaction("get_new_destination", &mut rng)[0];
            let mut found = Vec::new();
            scans(&db.prepare(sql).unwrap(), &mut found);
            found.sort();
            assert_eq!(
                found,
                vec![
                    (
                        "tatp_call_forwarding".to_string(),
                        Some("tatp_cf_pk".to_string())
                    ),
                    (
                        "tatp_special_facility".to_string(),
                        Some("tatp_sf_pk".to_string())
                    ),
                ],
                "{sql}"
            );
            let mut rows = db.execute(sql).unwrap().rows;
            let mut expected = bare.execute(sql).unwrap().rows;
            rows.sort();
            expected.sort();
            assert_eq!(rows, expected, "{sql}");
            matched += rows.len();
        }
        assert!(matched > 0, "no sample matched a row; the check is vacuous");
    }

    #[test]
    fn subscriber_ids_in_range() {
        let t = Tatp { subscribers: 500 };
        let mut rng = Prng::new(7);
        for _ in 0..1000 {
            assert!(t.pick_sub(&mut rng) < 500);
        }
    }
}
