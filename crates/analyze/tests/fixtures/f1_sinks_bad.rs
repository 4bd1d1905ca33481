//! Known-bad fixture for F1's own-region sinks: a hash-ordered statement
//! whose body accumulates floats, and a hash-ordered loop that renders
//! formatted output.
use std::collections::{HashMap, HashSet};

pub fn total_probability(weights: &HashMap<u64, f64>) -> f64 {
    let mut total = 0.0f64;
    for (_tuple, w) in weights.iter() {
        total += w;
    }
    total
}

pub fn render_members(members: &HashSet<String>) -> String {
    let mut out = String::new();
    for m in members {
        out.push_str(&format!("{m}\n"));
    }
    out
}
