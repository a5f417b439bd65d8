//! Sessions: multi-statement transactions over the SQL interface.

use mb2_common::{DbError, DbResult};
use mb2_exec::{Batch, OuRecorder, QueryResult};
use mb2_txn::Transaction;

use crate::database::{collect, Database, Resolved, TxnScope};

/// A client session with optional explicit transaction scope.
pub struct Session<'db> {
    db: &'db Database,
    txn: Option<Transaction>,
}

impl<'db> Session<'db> {
    pub fn new(db: &'db Database) -> Session<'db> {
        Session { db, txn: None }
    }

    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Execute a statement, honoring BEGIN/COMMIT/ROLLBACK.
    pub fn execute(&mut self, sql: &str) -> DbResult<QueryResult> {
        collect(|sink| self.execute_streaming(sql, None, sink))
    }

    /// Execute a statement, streaming result batches to `on_batch` instead
    /// of materializing them, in the session's open transaction or in
    /// autocommit. The session's one entry: the statement is resolved once
    /// by the engine, transaction control is applied here, and everything
    /// else runs through the engine's plan-level core. Returns rows
    /// streamed / rows affected (0 for transaction control and DDL).
    pub fn execute_streaming(
        &mut self,
        sql: &str,
        recorder: Option<&dyn OuRecorder>,
        on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
    ) -> DbResult<usize> {
        match self.db.resolve(sql)? {
            Resolved::Begin => {
                if self.txn.is_some() {
                    return Err(DbError::Plan("nested BEGIN".into()));
                }
                self.txn = Some(self.db.begin());
            }
            Resolved::Commit => {
                self.txn
                    .take()
                    .ok_or_else(|| DbError::Plan("COMMIT outside a transaction".into()))?
                    .commit()?;
            }
            Resolved::Rollback => self
                .txn
                .take()
                .ok_or_else(|| DbError::Plan("ROLLBACK outside a transaction".into()))?
                .abort(),
            resolved => {
                let scope = match self.txn.as_mut() {
                    Some(txn) => TxnScope::In(txn),
                    None => TxnScope::Autocommit,
                };
                return self.db.run_resolved(resolved, scope, recorder, on_batch);
            }
        }
        Ok(0)
    }

    /// Abort any open transaction (also happens on drop).
    pub fn rollback_open(&mut self) {
        if let Some(txn) = self.txn.take() {
            txn.abort();
        }
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.rollback_open();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb2_common::Value;

    #[test]
    fn explicit_commit_makes_writes_visible() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        // Another autocommit reader doesn't see it yet.
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(0)
        );
        // The session itself does (own writes).
        assert_eq!(
            s.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
        s.execute("COMMIT").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
    }

    #[test]
    fn rollback_discards_writes() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("ROLLBACK").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(0)
        );
    }

    #[test]
    fn drop_rolls_back() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        {
            let mut s = db.session();
            s.execute("BEGIN").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
        }
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(0)
        );
    }

    #[test]
    fn nested_begin_rejected() {
        let db = Database::open();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        assert!(s.execute("BEGIN").is_err());
    }

    #[test]
    fn commit_without_begin_rejected() {
        let db = Database::open();
        let mut s = db.session();
        assert!(s.execute("COMMIT").is_err());
        assert!(s.execute("ROLLBACK").is_err());
    }

    #[test]
    fn autocommit_passthrough() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let mut s = db.session();
        s.execute("INSERT INTO t VALUES (7)").unwrap();
        assert!(!s.in_transaction());
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
    }
}
