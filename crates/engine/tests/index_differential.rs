//! Index differential: two databases loaded with the same rows, one with
//! an index on every join key and one with none, must return the same
//! multiset of rows for every query. The queries are random 2–3-table
//! equi-joins with literal equalities on the join keys — exactly the shape
//! the planner's equality closure rewrites — covering NULL keys, mixed
//! Int / Float / Timestamp / Varchar keys, contradictory constants in one
//! class, and chains. The index-less database also answers each query with
//! its WHERE clause made opaque to the planner (`(pred) OR 1 = 0`: no
//! pushdown, no closure, nested loops), so a wrong derived bound cannot
//! hide by being wrong the same way on both sides.
//!
//! Seeded: `MB2_TEST_SEED=n` picks a different query stream.

use mb2_common::Value;
use mb2_engine::Database;

/// Deterministic xorshift.
fn next(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x
}

fn pick<T: Copy>(rng: &mut u64, items: &[T]) -> T {
    items[(next(rng) % items.len() as u64) as usize]
}

fn seed() -> u64 {
    let offset: u64 = std::env::var("MB2_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    0x9e37_79b9_7f4a_7c15 ^ offset.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

const TABLES: [&str; 3] = ["t0", "t1", "t2"];
/// Key columns: one per type, all holding small numbers (or NULL).
const KEYS: [&str; 4] = ["ki", "kf", "kt", "kv"];
const ROWS: usize = 24;

/// Key values 0..4, about one in seven NULL; floats are sometimes x.5.
fn key_literal(rng: &mut u64, col: &str) -> String {
    if next(rng).is_multiple_of(7) {
        return "NULL".into();
    }
    let k = next(rng) % 4;
    match col {
        "kf" if next(rng).is_multiple_of(4) => format!("{k}.5"),
        "kf" => format!("{k}.0"),
        "kv" => format!("'{k}'"),
        _ => k.to_string(),
    }
}

/// A literal for a WHERE equality on `col`: half the time one of the
/// column's own type, otherwise of any type — the planner has to cope with
/// literals whose type differs from the column's.
fn where_literal(rng: &mut u64, col: &str) -> String {
    if next(rng).is_multiple_of(2) {
        return key_literal(rng, col);
    }
    let k = next(rng) % 4;
    match next(rng) % 6 {
        0 => "NULL".into(),
        1 => format!("{k}.0"),
        2 => format!("{k}.5"),
        3 => format!("'{k}'"),
        _ => k.to_string(),
    }
}

fn load(db: &Database, rng: &mut u64, indexed: bool) {
    for t in TABLES {
        db.execute(&format!(
            "CREATE TABLE {t} (id INT, ki INT, kf FLOAT, kt TIMESTAMP, kv VARCHAR)"
        ))
        .unwrap();
        let rows: Vec<String> = (0..ROWS)
            .map(|id| {
                let keys: Vec<String> = KEYS.iter().map(|c| key_literal(rng, c)).collect();
                format!("({id}, {})", keys.join(", "))
            })
            .collect();
        db.execute(&format!("INSERT INTO {t} VALUES {}", rows.join(", ")))
            .unwrap();
        if indexed {
            for k in KEYS {
                db.execute(&format!("CREATE INDEX {t}_{k} ON {t} ({k})"))
                    .unwrap();
            }
            db.execute(&format!("CREATE INDEX {t}_ki_kt ON {t} (ki, kt)"))
                .unwrap();
        }
    }
    db.analyze_all();
}

/// One random query: 2–3 aliased tables chained by key equalities, with
/// literal equalities on join keys (sometimes two in one class).
fn query(rng: &mut u64) -> (String, String) {
    let n = 2 + (next(rng) % 2) as usize;
    let aliases = ["a", "b", "c"];
    let from: Vec<String> = (0..n)
        .map(|i| format!("{} {}", pick(rng, &TABLES), aliases[i]))
        .collect();
    let mut conjuncts: Vec<String> = Vec::new();
    let mut join_cols: Vec<String> = Vec::new();
    for i in 1..n {
        // Half the joins pair same-typed keys; the rest mix types.
        let left_key = pick(rng, &KEYS);
        let right_key = if next(rng).is_multiple_of(2) {
            left_key
        } else {
            pick(rng, &KEYS)
        };
        let left = format!("{}.{left_key}", aliases[i - 1]);
        let right = format!("{}.{right_key}", aliases[i]);
        // A `<` edge joins no equivalence class.
        let op = if next(rng).is_multiple_of(5) {
            "<"
        } else {
            "="
        };
        conjuncts.push(format!("{right} {op} {left}"));
        join_cols.push(left);
        join_cols.push(right);
    }
    // One to three literal equalities on join keys: with two or more the
    // class may hold contradictory constants.
    for _ in 0..1 + next(rng) % 3 {
        let col = join_cols[(next(rng) % join_cols.len() as u64) as usize].clone();
        let key = col.split('.').nth(1).expect("qualified");
        conjuncts.push(format!("{col} = {}", where_literal(rng, key)));
    }
    if next(rng).is_multiple_of(3) {
        conjuncts.push(format!(
            "{}.id < {}",
            pick(rng, &aliases[..n]),
            next(rng) % ROWS as u64
        ));
    }
    // Shuffle so literals are not always last.
    for i in (1..conjuncts.len()).rev() {
        let j = (next(rng) % (i as u64 + 1)) as usize;
        conjuncts.swap(i, j);
    }
    let pred = conjuncts.join(" AND ");
    let select = format!("SELECT * FROM {} WHERE ", from.join(", "));
    (
        format!("{select}{pred}"),
        format!("{select}({pred}) OR 1 = 0"),
    )
}

/// Always-run cases, so each shape is covered whatever the seed draws.
const FIXED: [&str; 6] = [
    // Contradictory constants in one class.
    "a.ki = 1 AND b.ki = a.ki AND b.ki = 2",
    // A chain: the bound reaches c through b.
    "a.ki = 1 AND b.ki = a.ki AND c.ki = b.ki",
    // Int / Float / Timestamp members bound from a Float literal.
    "a.kf = 2.0 AND b.ki = a.kf AND c.kt = b.ki",
    // A non-integral literal binds no Int member.
    "a.kf = 1.5 AND b.ki = a.kf AND c.kf = b.ki",
    // A NULL literal bounds nothing.
    "a.ki = NULL AND b.ki = a.ki AND c.ki = b.ki",
    // A Varchar literal crosses to no numeric member.
    "a.kv = '1' AND b.ki = a.kv AND c.kv = a.kv",
];

fn sorted_rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let mut rows = db
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows;
    rows.sort();
    rows
}

/// Assert two sorted multisets are equal, reporting only the rows that
/// differ.
fn assert_same(got: &[Vec<Value>], expected: &[Vec<Value>], context: &str) {
    if got == expected {
        return;
    }
    let only = |a: &[Vec<Value>], b: &[Vec<Value>]| -> Vec<Vec<Value>> {
        let mut b = b.to_vec();
        a.iter()
            .filter(|r| match b.iter().position(|x| x == *r) {
                Some(i) => {
                    b.remove(i);
                    false
                }
                None => true,
            })
            .cloned()
            .collect()
    };
    panic!(
        "{context}\n{} rows, expected {}\nunexpected: {:?}\nmissing: {:?}",
        got.len(),
        expected.len(),
        only(got, expected),
        only(expected, got)
    );
}

#[test]
fn indexed_and_index_less_joins_agree() {
    let seed = seed();
    let indexed = Database::open();
    let bare = Database::open();
    load(&indexed, &mut seed.clone(), true);
    load(&bare, &mut seed.clone(), false);

    let mut rng = seed ^ 0xdead_beef;
    let (mut index_plans, mut nonempty) = (0, 0);
    let fixed = FIXED.iter().map(|pred| {
        let select = "SELECT * FROM t0 a, t1 b, t2 c WHERE ";
        (
            format!("{select}{pred}"),
            format!("{select}({pred}) OR 1 = 0"),
        )
    });
    let random = std::iter::repeat_with(|| query(&mut rng)).take(300);
    for (sql, opaque) in fixed.chain(random) {
        let expected = sorted_rows(&bare, &opaque);
        let plan = |db: &Database| db.prepare(&sql).unwrap().explain();
        assert_same(
            &sorted_rows(&bare, &sql),
            &expected,
            &format!("index-less: {sql}\n{}", plan(&bare)),
        );
        assert_same(
            &sorted_rows(&indexed, &sql),
            &expected,
            &format!("indexed: {sql}\n{}", plan(&indexed)),
        );
        index_plans += plan(&indexed).contains("IndexScan") as usize;
        nonempty += !expected.is_empty() as usize;
    }
    // Guard against a vacuous run: indexes must be used and rows returned.
    assert!(index_plans > 100, "only {index_plans} plans used an index");
    assert!(nonempty > 20, "only {nonempty} queries returned rows");
}

#[test]
fn null_literal_never_bounds_an_index() {
    let db = Database::open();
    db.execute("CREATE TABLE a (k INT, v INT)").unwrap();
    db.execute("INSERT INTO a VALUES (NULL, 1), (2, 2)")
        .unwrap();
    db.execute("CREATE INDEX a_k ON a (k)").unwrap();
    assert!(db
        .execute("SELECT * FROM a WHERE k = NULL")
        .unwrap()
        .rows
        .is_empty());
    assert!(db
        .execute("SELECT * FROM a WHERE NULL = k")
        .unwrap()
        .rows
        .is_empty());
}

#[test]
fn hash_join_keys_follow_sql_equality() {
    // Int = Float keys that compare equal must meet in one bucket, and a
    // NULL key must match nothing, NULL included.
    let db = Database::open();
    db.execute("CREATE TABLE x (k INT)").unwrap();
    db.execute("CREATE TABLE y (k FLOAT)").unwrap();
    db.execute("INSERT INTO x VALUES (1), (2), (NULL)").unwrap();
    db.execute("INSERT INTO y VALUES (1.0), (2.5), (NULL)")
        .unwrap();
    db.analyze_all();
    let sql = "SELECT * FROM x, y WHERE x.k = y.k";
    assert!(db.prepare(sql).unwrap().explain().contains("HashJoin"));
    assert_eq!(
        sorted_rows(&db, sql),
        vec![vec![Value::Int(1), Value::Float(1.0)]]
    );
}
