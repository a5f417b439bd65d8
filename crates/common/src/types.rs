//! SQL value and type system.
//!
//! The engine is row-oriented: a tuple is a `Vec<Value>`. Values carry their
//! own type tag, which keeps the interpreter simple; the "compiled" execution
//! mode specializes hot loops to avoid per-value dispatch where it matters.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{DbError, DbResult};

/// Data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float (`REAL`/`DECIMAL` are mapped here).
    Float,
    /// Variable-length UTF-8 string.
    Varchar,
    /// Boolean.
    Bool,
    /// Microseconds since the UNIX epoch.
    Timestamp,
}

impl DataType {
    /// In-memory size estimate in bytes for a value of this type, used for
    /// tuple-size OU features and memory accounting. Varchar is estimated at
    /// declaration time; [`Value::size_bytes`] reports actual sizes.
    pub fn fixed_size(&self) -> usize {
        match self {
            DataType::Int | DataType::Float | DataType::Timestamp => 8,
            DataType::Bool => 1,
            DataType::Varchar => 16, // pointer + length estimate
        }
    }

    /// Parse a type name as it appears in SQL (`INT`, `VARCHAR`, ...).
    pub fn parse_sql(name: &str) -> DbResult<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Ok(DataType::Int),
            "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" => Ok(DataType::Float),
            "VARCHAR" | "TEXT" | "CHAR" | "STRING" => Ok(DataType::Varchar),
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "TIMESTAMP" | "DATE" => Ok(DataType::Timestamp),
            other => Err(DbError::Parse(format!("unknown type '{other}'"))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Varchar => "VARCHAR",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A single SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Varchar(String),
    Bool(bool),
    Timestamp(i64),
}

impl Value {
    /// The type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Varchar(_) => Some(DataType::Varchar),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Actual in-memory size in bytes (used for tuple-size features and
    /// memory-consumption labels).
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Timestamp(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Varchar(s) => 16 + s.len(),
        }
    }

    /// Numeric view used by arithmetic and aggregation.
    pub fn as_f64(&self) -> DbResult<f64> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(v) => Ok(*v),
            Value::Timestamp(v) => Ok(*v as f64),
            Value::Bool(b) => Ok(*b as i64 as f64),
            other => Err(DbError::Execution(format!("{other} is not numeric"))),
        }
    }

    pub fn as_i64(&self) -> DbResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Timestamp(v) => Ok(*v),
            Value::Float(v) => Ok(*v as i64),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(DbError::Execution(format!("{other} is not an integer"))),
        }
    }

    pub fn as_bool(&self) -> DbResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(DbError::Execution(format!("{other} is not a boolean"))),
        }
    }

    pub fn as_str(&self) -> DbResult<&str> {
        match self {
            Value::Varchar(s) => Ok(s),
            other => Err(DbError::Execution(format!("{other} is not a string"))),
        }
    }

    /// Coerce to the given type, following permissive SQL casting rules.
    pub fn cast(&self, ty: DataType) -> DbResult<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        Ok(match ty {
            DataType::Int => Value::Int(self.as_i64()?),
            DataType::Float => Value::Float(self.as_f64()?),
            DataType::Timestamp => Value::Timestamp(self.as_i64()?),
            DataType::Bool => Value::Bool(self.as_bool()?),
            DataType::Varchar => Value::Varchar(self.to_string()),
        })
    }

    /// SQL three-valued comparison. NULLs sort first and compare equal to
    /// each other so values can be used as grouping and sort keys.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Int(a), Timestamp(b)) | (Timestamp(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Varchar(a), Varchar(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            // Heterogeneous comparisons order by type tag; valid plans never
            // hit this path, but total ordering keeps sorting panic-free.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    /// Hash for use as a join/aggregation key (consistent with `cmp_total`).
    ///
    /// `cmp_total` equates Int with Float by f64 value and Int with
    /// Timestamp by i64 value, so every numeric value hashes by its f64
    /// value: an Int = Float join key must land in the bucket it matches.
    pub fn hash_key<H: Hasher>(&self, state: &mut H) {
        let numeric = |v: f64, state: &mut H| {
            // Normalize -0.0 / NaN so equal keys hash equally.
            let bits = if v == 0.0 {
                0u64
            } else if v.is_nan() {
                u64::MAX
            } else {
                v.to_bits()
            };
            1u8.hash(state);
            bits.hash(state);
        };
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) | Value::Timestamp(v) => numeric(*v as f64, state),
            Value::Float(v) => numeric(*v, state),
            Value::Varchar(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Timestamp(_) => 4,
        Value::Varchar(_) => 5,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash_key(state)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Varchar(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(v) => write!(f, "ts:{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A tuple is a boxed row of values.
pub type Tuple = Vec<Value>;

/// Total size in bytes of a tuple (for tuple-size features).
pub fn tuple_size_bytes(tuple: &[Value]) -> usize {
    tuple.iter().map(Value::size_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_cross_compare() {
        assert_eq!(Value::Int(2).cmp_total(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).cmp_total(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).cmp_total(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn nulls_sort_first_and_equal() {
        assert_eq!(Value::Null.cmp_total(&Value::Null), Ordering::Equal);
        assert_eq!(Value::Null.cmp_total(&Value::Int(i64::MIN)), Ordering::Less);
    }

    #[test]
    fn numeric_values_that_compare_equal_hash_equal() {
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Timestamp(3)));
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&Value::Float(-0.0)));
        assert_ne!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.5)));
    }

    #[test]
    fn float_zero_hash_normalized() {
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Int(42)));
        assert_eq!(
            hash_of(&Value::Varchar("abc".into())),
            hash_of(&Value::from("abc"))
        );
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Int(3).cast(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Float(3.9).cast(DataType::Int).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Value::Int(7).cast(DataType::Varchar).unwrap(),
            Value::from("7")
        );
        assert!(Value::Null.cast(DataType::Int).unwrap().is_null());
    }

    #[test]
    fn parse_sql_types() {
        assert_eq!(DataType::parse_sql("integer").unwrap(), DataType::Int);
        assert_eq!(DataType::parse_sql("TEXT").unwrap(), DataType::Varchar);
        assert!(DataType::parse_sql("blob").is_err());
    }

    #[test]
    fn tuple_sizes() {
        let t = vec![Value::Int(1), Value::from("hi"), Value::Bool(true)];
        assert_eq!(tuple_size_bytes(&t), 8 + (16 + 2) + 1);
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert!(Value::from("x").as_f64().is_err());
        assert_eq!(Value::Float(2.7).as_i64().unwrap(), 2);
    }
}
