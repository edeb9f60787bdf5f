//! # audit — the Semandaq Data Auditor
//!
//! Summarized quality reporting over detection results:
//!
//! * [`classify`](mod@classify) — tuple- and cell-level classes (verified / probably /
//!   arguably clean / dirty), exactly the taxonomy the demo's §3 defines;
//! * [`stats`] — min/avg/max of `vio(t)`, histograms, group-size stats;
//! * [`quality_map`](mod@quality_map) — the tuple-level shading of Fig. 3;
//! * [`report`] — the assembled Fig. 4 report (attribute bar chart +
//!   per-CFD pie + headline numbers), counted in one pass over columnar
//!   snapshots in dictionary-code space, in time linear in the live rows
//!   times the constant-RHS CFDs plus the violation members, with no
//!   per-cell map and no decoded row — [`classify()`] is the per-cell API
//!   it agrees with;
//! * [`charts`] — plain-text bar / stacked-bar / pie renderers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charts;
pub mod classify;
pub mod quality_map;
pub mod report;
pub mod stats;

pub use classify::{classify, Classification, CleanClass};
pub use quality_map::{quality_map, QualityMap};
pub use report::{audited_columns, quality_report, AttributeBreakdown, QualityReport};
pub use stats::{violation_stats, ViolationStats};
