//! # cfd — conditional functional dependencies
//!
//! The formalism at the heart of Semandaq (Fan, Geerts, Jia, VLDB'08;
//! theory in Fan et al., TODS 33(1) 2008):
//!
//! * [`Pattern`] / [`Cfd`] / [`Fd`] — the model, in the paper's normal form
//!   (single RHS attribute, one pattern tuple per CFD);
//! * [`parse::parse_cfds`] — the paper's bracket notation, e.g.
//!   `customer: [CNT='UK', ZIP=_] -> [STR=_]`;
//! * [`satisfiability::check_consistency`] — is there a nonempty instance
//!   satisfying Σ? (the "does this rule set make sense" check the demo
//!   performs when users enter CFDs);
//! * [`implication::implies`] — does Σ imply φ? with a closure fast path
//!   for plain FDs;
//! * [`cover::minimal_cover`] — redundancy removal;
//! * [`dependency::group_into_tableaux`] + [`encode::encode_tableau`] — the
//!   relational pattern-tableau encoding consumed by SQL-based detection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod dependency;
pub mod domain;
pub mod encode;
pub mod error;
pub mod implication;
pub mod parse;
pub mod pattern;
pub mod satisfiability;

pub use dependency::{BoundCfd, Cfd, Fd, Tableau};
pub use domain::DomainSpec;
pub use error::{CfdError, CfdResult};
pub use pattern::Pattern;
pub use satisfiability::Consistency;
