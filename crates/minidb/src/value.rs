//! Runtime values and data types.
//!
//! `Value` is the dynamically typed cell of the engine. Strings are
//! reference-counted (`Arc<str>`) so rows can be cloned cheaply during joins
//! and repairs.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{DbError, DbResult};

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "DOUBLE"),
            DataType::Str => write!(f, "TEXT"),
            DataType::Bool => write!(f, "BOOLEAN"),
        }
    }
}

/// A dynamically typed SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (cheaply cloneable).
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True iff the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The dynamic type, if not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// View as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as `i64`, if an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view (ints widen to floats), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// View as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL equality with three-valued logic: `None` when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.strong_eq(other))
    }

    /// Null-safe equality (`IS NOT DISTINCT FROM`): NULL equals NULL.
    pub fn strong_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }

    /// SQL ordering comparison: `None` if either side is NULL or the types
    /// are not comparable (e.g. string vs int).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Total ordering used for ORDER BY and index keys: NULL sorts first,
    /// then booleans, numerics, strings; NaN sorts after all numbers.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                let a = self.as_f64().unwrap();
                let b = other.as_f64().unwrap();
                a.total_cmp(&b)
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Coerce to `dtype` on insert. Ints widen to floats; anything parses
    /// from a string only if it is already the right variant (we do not do
    /// implicit string→number casts on write).
    pub fn coerce(self, dtype: DataType) -> DbResult<Value> {
        match (&self, dtype) {
            (Value::Null, _) => Ok(self),
            (Value::Int(_), DataType::Int)
            | (Value::Float(_), DataType::Float)
            | (Value::Str(_), DataType::Str)
            | (Value::Bool(_), DataType::Bool) => Ok(self),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            _ => Err(DbError::Constraint(format!(
                "cannot store {self} in a {dtype} column"
            ))),
        }
    }

    /// Render as a bare string (no quoting) — used by CSV export and the
    /// ASCII renderers.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            other => other.to_string(),
        }
    }

    /// Quote a string for embedding in generated SQL (single quotes doubled).
    pub fn sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f:?}"),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.strong_eq(other)
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equal.
            Value::Int(i) => {
                state.write_u8(2);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                state.write_u8(2);
                let canon = if v.is_nan() { f64::NAN } else { *v };
                canon.to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn null_propagates_in_sql_eq() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn strong_eq_treats_null_as_equal() {
        assert!(Value::Null.strong_eq(&Value::Null));
        assert!(!Value::Null.strong_eq(&Value::Int(0)));
    }

    #[test]
    fn int_float_cross_type_equality_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert!(a.strong_eq(&b));
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn nan_equals_itself_for_grouping() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert!(a.strong_eq(&b));
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn sql_cmp_is_none_for_mixed_string_number() {
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("a").sql_cmp(&Value::str("b")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_cmp_orders_across_types() {
        let mut vs = [
            Value::str("x"),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Float(2.5));
        assert_eq!(vs[3], Value::Int(5));
        assert_eq!(vs[4], Value::str("x"));
    }

    #[test]
    fn coerce_widens_int_to_float_only() {
        assert_eq!(
            Value::Int(2).coerce(DataType::Float).unwrap(),
            Value::Float(2.0)
        );
        assert!(Value::str("2").coerce(DataType::Int).is_err());
        assert!(Value::Null.coerce(DataType::Int).is_ok());
    }

    #[test]
    fn sql_literal_escapes_quotes() {
        assert_eq!(Value::str("O'Hara").sql_literal(), "'O''Hara'");
        assert_eq!(Value::Null.sql_literal(), "NULL");
    }
}
