//! Shared workload builders for the benchmark harness and the
//! figure/experiment regeneration binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cfd::parse::parse_cfds;
use cfd::Cfd;
use datagen::{dirty_customers, DirtyCustomers};

/// Standard dirty-customer workload (seeded).
pub fn workload(rows: usize, noise: f64, seed: u64) -> DirtyCustomers {
    dirty_customers(rows, noise, seed)
}

/// A CFD set whose tableau for the embedded FD `[CNT, ZIP] → STR` has
/// `k` pattern rows (experiment E2: detection cost vs tableau size).
/// Pattern rows condition on synthetic countries `P0…P{k-1}` plus the
/// all-wildcard row, so they coexist consistently.
pub fn scaled_pattern_cfds(k: usize) -> Vec<Cfd> {
    let mut text = String::from("customer: [CNT, ZIP] -> [STR]\n");
    for i in 0..k.saturating_sub(1) {
        text.push_str(&format!("customer: [CNT='P{i}', ZIP=_] -> [STR=_]\n"));
    }
    parse_cfds(&text).expect("scaled pattern set parses")
}

/// A consistent constant-rule chain of length `n` over attributes
/// `A0 → A1 → … → A{n}` (experiment E6: consistency-check cost vs |Σ|).
pub fn rule_chain(n: usize) -> Vec<Cfd> {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("r: [A{i}='v{i}'] -> [A{}='v{}']\n", i + 1, i + 1));
    }
    parse_cfds(&text).expect("rule chain parses")
}

/// Like [`rule_chain`] but with a contradiction at the end (the
/// inconsistent case of E6; the solver must exhaust the search).
pub fn contradictory_chain(n: usize) -> Vec<Cfd> {
    let mut cfds = rule_chain(n);
    let clash = parse_cfds(&format!(
        "r: [A0='v0'] -> [A{n}='not-v{n}']\nr: [B=_] -> [A0='v0']"
    ))
    .expect("clash parses");
    cfds.extend(clash);
    cfds
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd::satisfiability::check_consistency;
    use cfd::DomainSpec;

    #[test]
    fn scaled_pattern_sets_share_one_tableau() {
        let cfds = scaled_pattern_cfds(8);
        assert_eq!(cfds.len(), 8);
        let tabs = cfd::dependency::group_into_tableaux(&cfds);
        assert_eq!(tabs.len(), 1);
        assert_eq!(tabs[0].rows.len(), 8);
    }

    #[test]
    fn chains_have_expected_verdicts() {
        let dom = DomainSpec::all_infinite();
        assert!(check_consistency(&rule_chain(16), &dom)
            .unwrap()
            .is_consistent());
        assert!(!check_consistency(&contradictory_chain(8), &dom)
            .unwrap()
            .is_consistent());
    }
}
