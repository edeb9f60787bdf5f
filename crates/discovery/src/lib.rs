//! # discovery — dependency discovery from reference data
//!
//! The Semandaq constraint engine accepts CFDs "explicitly specified by
//! users or automatically discovered from reference data" (paper §2). This
//! crate provides the discovery half:
//!
//! * [`partition`] — stripped partitions and refinement (the TANE core);
//! * [`tane::discover_fds`] — minimal exact/approximate FDs;
//! * [`cfdminer::mine_constant_cfds`] — constant CFDs via frequent-itemset
//!   mining with left-reduction;
//! * [`ctane::mine_variable_cfds`] — variable CFDs with mixed
//!   constant/wildcard LHS patterns, subsumption-pruned;
//! * [`validate`] — consistency checking of discovered rule sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfdminer;
pub mod ctane;
pub mod partition;
pub mod tane;
pub mod validate;

pub use cfdminer::{mine_constant_cfds, DiscoveredConstCfd, MinerConfig};
pub use ctane::{mine_variable_cfds, CtaneConfig, DiscoveredVarCfd};
pub use partition::{
    partition_by_column, partition_from_codes, refine, snapshot_partitions, Partition,
};
pub use tane::{discover_fds, DiscoveredFd, TaneConfig};
pub use validate::{validate_rules, ValidationOutcome};
