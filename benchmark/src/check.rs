//! Output checking. One connection makes the history sequential, so every
//! operation's result has exactly one right answer: the one a fresh,
//! identically loaded in-process database gives when it replays the same
//! operations in the same order.

use mb2_common::{DbResult, Value};
use mb2_engine::Database;

use crate::gen::Op;

/// FNV-1a, 64 bit: a fixed hash so digests compare across processes.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn row_hash(row: &[Value]) -> u64 {
    let mut h = Fnv::new();
    for v in row {
        match v {
            Value::Null => h.write(&[0]),
            Value::Int(i) => {
                h.write(&[1]);
                h.write(&i.to_le_bytes());
            }
            Value::Float(f) => {
                h.write(&[2]);
                h.write(&f.to_bits().to_le_bytes());
            }
            Value::Varchar(s) => {
                h.write(&[3]);
                h.write(&(s.len() as u64).to_le_bytes());
                h.write(s.as_bytes());
            }
            Value::Bool(b) => h.write(&[4, *b as u8]),
            Value::Timestamp(t) => {
                h.write(&[5]);
                h.write(&t.to_le_bytes());
            }
        }
    }
    h.finish()
}

/// Row count plus hash of one operation's results (all its statements).
/// Rows of a statement without `ORDER BY` are hashed as a multiset: their
/// order is not part of the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

impl Digest {
    /// Fold one statement's response into the operation's digest.
    pub fn add_statement(&mut self, sql: &str, rows: &[Vec<Value>], count: u64) {
        let ordered = sql.contains("ORDER BY");
        let mut acc: u64 = 0;
        for (i, row) in rows.iter().enumerate() {
            let h = row_hash(row);
            acc = if ordered {
                acc.rotate_left(5) ^ h.wrapping_add(i as u64)
            } else {
                acc.wrapping_add(h)
            };
        }
        self.rows += rows.len() as u64;
        // Chain statements in order; `count` is rows streamed or affected.
        self.hash = self
            .hash
            .rotate_left(17)
            .wrapping_add(acc)
            .wrapping_add(count.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}

/// Execute one operation in-process the way the client does over the wire
/// (one autocommit statement, or all statements in one transaction) and
/// digest its results. `rows_affected` is the wire's `Done` count: rows
/// streamed for queries, rows written for DML.
pub fn execute_op(db: &Database, op: &Op) -> DbResult<Digest> {
    let mut digest = Digest::default();
    if let [sql] = op.statements.as_slice() {
        let r = db.execute(sql)?;
        digest.add_statement(sql, &r.rows, r.rows_affected as u64);
        return Ok(digest);
    }
    let mut txn = db.begin();
    for sql in &op.statements {
        match db.execute_in(sql, &mut txn, None) {
            Ok(r) => digest.add_statement(sql, &r.rows, r.rows_affected as u64),
            Err(e) => {
                txn.abort();
                return Err(e);
            }
        }
    }
    txn.commit()?;
    Ok(digest)
}

/// Replay `ops` on `oracle` and count the operations whose digest differs
/// from the one observed over the wire (`None` = the wire call failed,
/// already counted as a failure by the caller and skipped here only in
/// the comparison — the oracle still executes it to keep its state in
/// step with what a failure-free history would be).
pub fn count_mismatches(oracle: &Database, ops: &[Op], observed: &[Option<Digest>]) -> usize {
    ops.iter()
        .zip(observed)
        .filter(|(op, seen)| {
            let want = execute_op(oracle, op).ok();
            seen.is_some() && **seen != want
        })
        .count()
}

/// Order-independent digest of every table: per table, row count and a
/// multiset hash of its rows. Two databases with equal dumps hold the same
/// committed data.
pub fn dump_digest(db: &Database) -> DbResult<Vec<(String, Digest)>> {
    let mut out = Vec::new();
    for table in db.catalog().table_names() {
        let sql = format!("SELECT * FROM {table}");
        let r = db.execute(&sql)?;
        let mut d = Digest::default();
        d.add_statement(&sql, &r.rows, r.rows.len() as u64);
        out.push((table, d));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, WorkloadKind};
    use mb2_workloads::smallbank::SmallBank;
    use mb2_workloads::Workload;

    fn tiny_smallbank() -> Database {
        let db = Database::open();
        // The generator addresses accounts below SMALLBANK_ACCOUNTS.
        SmallBank {
            accounts: crate::gen::SMALLBANK_ACCOUNTS,
            ..SmallBank::default()
        }
        .load(&db)
        .unwrap();
        db
    }

    #[test]
    fn corrupted_expected_digest_lowers_ok_share() {
        let mut gen = Generator::new(WorkloadKind::SmallbankSync, 3);
        let ops: Vec<Op> = (0..200).map(|_| gen.next_op()).collect();
        let served = tiny_smallbank();
        let mut observed: Vec<Option<Digest>> =
            ops.iter().map(|op| execute_op(&served, op).ok()).collect();
        assert!(observed.iter().all(Option::is_some));

        let oracle = tiny_smallbank();
        assert_eq!(count_mismatches(&oracle, &ops, &observed), 0);
        assert_eq!(dump_digest(&served).unwrap(), dump_digest(&oracle).unwrap());

        // Flip one bit in one recorded digest: exactly that operation fails.
        let victim = observed.iter().position(|d| d.unwrap().rows > 0).unwrap();
        observed[victim].as_mut().unwrap().hash ^= 1;
        let oracle = tiny_smallbank();
        let mismatches = count_mismatches(&oracle, &ops, &observed);
        assert_eq!(mismatches, 1);
        let ok_share = (ops.len() - mismatches) as f64 / ops.len() as f64;
        assert!(ok_share < 1.0);
    }

    #[test]
    fn unordered_results_hash_as_a_multiset_ordered_ones_do_not() {
        let a = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let b = vec![vec![Value::Int(2)], vec![Value::Int(1)]];
        let digest = |sql: &str, rows: &[Vec<Value>]| {
            let mut d = Digest::default();
            d.add_statement(sql, rows, rows.len() as u64);
            d
        };
        assert_eq!(digest("SELECT x FROM t", &a), digest("SELECT x FROM t", &b));
        assert_ne!(
            digest("SELECT x FROM t ORDER BY x", &a),
            digest("SELECT x FROM t ORDER BY x", &b)
        );
    }

    #[test]
    fn dump_digest_sees_a_changed_row() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b FLOAT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5)")
            .unwrap();
        let before = dump_digest(&db).unwrap();
        db.execute("UPDATE t SET b = 9.0 WHERE a = 2").unwrap();
        assert_ne!(before, dump_digest(&db).unwrap());
    }
}
