//! # datagen — seeded workloads for the Semandaq reproduction
//!
//! Three generators:
//!
//! * [`customer`] — the demo paper's running example
//!   `customer(NAME, CNT, CITY, ZIP, STR, CC, AC)`, generated consistent
//!   with the canonical CFD set (φ1–φ4 plus country-code bindings);
//! * [`noise`] — controlled cell corruption (typos and value swaps) with a
//!   ground-truth mask for repair-quality scoring;
//! * [`generic`] — parameterized relations with planted FDs/CFDs for the
//!   discovery experiments;
//! * [`hosp`] — a HOSP-style provider relation (the other standard
//!   benchmark schema in the CFD-repair literature).
//!
//! Everything is seeded: the same config always yields the same bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod customer;
pub mod generic;
pub mod hosp;
pub mod noise;

pub use customer::{canonical_cfds, customer_schema, generate_customers, CustomerConfig};
pub use generic::{generate_planted, GenericConfig, PlantedRelation};
pub use hosp::{generate_hosp, hosp_cfds, hosp_schema, HospConfig};
pub use noise::{inject_noise, CellNoise, NoiseConfig, NoiseKind};

use minidb::{Database, Table};

/// A ready-to-use dirty dataset: database with a `customer` table, the
/// canonical CFDs, and the injected-noise ground truth.
#[derive(Debug, Clone)]
pub struct DirtyCustomers {
    /// Database holding the (dirtied) `customer` table.
    pub db: Database,
    /// The canonical CFD set.
    pub cfds: Vec<cfd::Cfd>,
    /// Ground-truth noise mask.
    pub mask: Vec<CellNoise>,
    /// A pristine copy of the clean table (for repair-quality scoring).
    pub clean: Table,
}

/// One-call workload: generate customers, keep a clean copy, dirty the
/// editable attributes at `noise_rate`, and pack everything in a database.
/// Noise is 25% typos / 75% value swaps (see [`dirty_customers_typed`] to
/// control the mix).
pub fn dirty_customers(rows: usize, noise_rate: f64, seed: u64) -> DirtyCustomers {
    dirty_customers_typed(rows, noise_rate, seed, 0.25)
}

/// [`dirty_customers`] with an explicit typo fraction (the rest of the
/// noise is value swaps) — the knob behind ablation A2.
pub fn dirty_customers_typed(
    rows: usize,
    noise_rate: f64,
    seed: u64,
    typo_fraction: f64,
) -> DirtyCustomers {
    let cfg = CustomerConfig {
        rows,
        seed,
        ..CustomerConfig::default()
    };
    let clean = generate_customers(&cfg);
    let mut dirty = clean.clone();
    // NAME (0) is free text; corrupt the CFD-constrained attributes.
    let mask = inject_noise(
        &mut dirty,
        &NoiseConfig {
            rate: noise_rate,
            typo_fraction,
            columns: vec![1, 2, 3, 4, 5],
            seed: seed ^ 0x5EED,
        },
    );
    let mut db = Database::new();
    db.register_table(dirty);
    DirtyCustomers {
        db,
        cfds: canonical_cfds(),
        mask,
        clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_customers_is_self_consistent() {
        let d = dirty_customers(100, 0.05, 11);
        assert_eq!(d.db.table("customer").unwrap().len(), 100);
        assert_eq!(d.clean.len(), 100);
        assert!(!d.mask.is_empty());
        // Clean copy must differ from dirty exactly on the mask.
        let dirty = d.db.table("customer").unwrap();
        let mut diffs = 0usize;
        for (id, row) in dirty.iter() {
            let clean_row = d.clean.get(id).unwrap();
            for (c, (a, b)) in row.iter().zip(clean_row).enumerate() {
                if !a.strong_eq(b) {
                    diffs += 1;
                    assert!(
                        d.mask.iter().any(|m| m.row == id && m.col == c),
                        "unexplained diff at ({id:?}, {c})"
                    );
                }
            }
        }
        assert_eq!(diffs, d.mask.len());
    }

    #[test]
    fn zero_noise_matches_clean() {
        let d = dirty_customers(50, 0.0, 1);
        assert!(d.mask.is_empty());
        let dirty = d.db.table("customer").unwrap();
        for (id, row) in dirty.iter() {
            assert_eq!(row, d.clean.get(id).unwrap());
        }
    }
}
