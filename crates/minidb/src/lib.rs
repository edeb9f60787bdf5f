//! # minidb — the relational substrate for the Semandaq reproduction
//!
//! An in-memory relational engine with a SQL subset sized exactly for the
//! needs of a CFD-based data-quality system:
//!
//! * typed tables with **stable row ids** (tombstoned arena) so violations
//!   and repairs can be attributed to physical tuples;
//! * a SQL front end (lexer → parser → planner → executor) covering
//!   `SELECT` with joins (`INNER`/`LEFT`/cross), `WHERE`, `GROUP BY`,
//!   `HAVING`, `COUNT(DISTINCT …)` and friends, `ORDER BY`, `LIMIT`,
//!   `DISTINCT`, plus `INSERT`/`UPDATE`/`DELETE`/`CREATE`/`DROP`;
//! * NULL-aware three-valued logic and `IS NOT DISTINCT FROM` — NULL plays
//!   the wildcard role in the relational encoding of CFD pattern tableaux;
//! * the hidden `__rowid` pseudo-column on base scans;
//! * secondary hash indexes maintained under mutation;
//! * CSV import/export.
//!
//! ```
//! use minidb::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t (a TEXT, b INT)").unwrap();
//! db.execute("INSERT INTO t VALUES ('x', 1), ('x', 2), ('y', 3)").unwrap();
//! let r = db.query("SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY a").unwrap();
//! assert_eq!(r.get(0, "n"), Some(&Value::Int(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod database;
pub mod error;
pub mod exec;
pub mod index;
pub mod plan;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use database::{Database, ExecOutcome};
pub use error::{DbError, DbResult};
pub use exec::QueryResult;
pub use plan::ROWID_COLUMN;
pub use schema::{Column, Schema};
pub use table::{RowId, Table};
pub use value::{DataType, Value};
