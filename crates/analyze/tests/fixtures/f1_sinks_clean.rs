//! Known-clean fixture for F1's own-region sinks: ordered containers for
//! order-sensitive sinks; hash containers only where iteration order cannot
//! surface.
use std::collections::{BTreeMap, HashMap, HashSet};

pub fn total_probability(weights: &BTreeMap<u64, f64>) -> f64 {
    let mut total = 0.0f64;
    for (_tuple, w) in weights.iter() {
        total += w;
    }
    total
}

pub fn lookup(index: &HashMap<u64, f64>, key: u64) -> f64 {
    // Point lookups are order-free: a HashMap is fine when nothing walks it.
    index.get(&key).copied().unwrap_or(0.0)
}

pub fn cardinality(members: &HashSet<String>) -> usize {
    // Integer accumulation over hash order is commutative — no FP rounding,
    // no rendered order.
    let mut n = 0usize;
    for _m in members {
        n += 1;
    }
    n
}
