//! Pattern-tableau cells: constants and the "don't care" wildcard.

use std::fmt;

use minidb::Value;

/// One cell of a pattern tuple: a constant or the `_` wildcard.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Matches exactly this value.
    Const(Value),
    /// Matches any value (written `_` in the paper).
    Wild,
}

impl Pattern {
    /// Constant string pattern.
    pub fn s(v: impl AsRef<str>) -> Pattern {
        Pattern::Const(Value::str(v))
    }

    /// Constant pattern from any value.
    pub fn of(v: impl Into<Value>) -> Pattern {
        Pattern::Const(v.into())
    }

    /// Does this pattern match a data value?
    ///
    /// Constants never match NULL (mirroring the SQL detection queries of
    /// Fan et al., TODS 2008, where `t.B = tp.B` is UNKNOWN on NULL);
    /// the wildcard matches everything, NULL included.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            Pattern::Wild => true,
            Pattern::Const(c) => !v.is_null() && c.strong_eq(v),
        }
    }

    /// Is this the wildcard?
    pub fn is_wild(&self) -> bool {
        matches!(self, Pattern::Wild)
    }

    /// The constant, if any.
    pub fn constant(&self) -> Option<&Value> {
        match self {
            Pattern::Const(v) => Some(v),
            Pattern::Wild => None,
        }
    }

    /// Pattern subsumption: `self ⪯ other` iff every value matched by
    /// `self` is matched by `other` (constants are below the wildcard).
    pub fn subsumed_by(&self, other: &Pattern) -> bool {
        match (self, other) {
            (_, Pattern::Wild) => true,
            (Pattern::Const(a), Pattern::Const(b)) => a.strong_eq(b),
            (Pattern::Wild, Pattern::Const(_)) => false,
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Wild => write!(f, "_"),
            Pattern::Const(v) => match v {
                Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
                other => write!(f, "{other}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_matches_everything_including_null() {
        assert!(Pattern::Wild.matches(&Value::Null));
        assert!(Pattern::Wild.matches(&Value::str("x")));
        assert!(Pattern::Wild.matches(&Value::Int(0)));
    }

    #[test]
    fn constant_matches_exact_value_not_null() {
        let p = Pattern::s("UK");
        assert!(p.matches(&Value::str("UK")));
        assert!(!p.matches(&Value::str("US")));
        assert!(!p.matches(&Value::Null));
    }

    #[test]
    fn subsumption_order() {
        assert!(Pattern::s("a").subsumed_by(&Pattern::Wild));
        assert!(Pattern::s("a").subsumed_by(&Pattern::s("a")));
        assert!(!Pattern::Wild.subsumed_by(&Pattern::s("a")));
        assert!(!Pattern::s("a").subsumed_by(&Pattern::s("b")));
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Pattern::s("UK").to_string(), "'UK'");
        assert_eq!(Pattern::Wild.to_string(), "_");
        assert_eq!(Pattern::of(44i64).to_string(), "44");
    }
}
