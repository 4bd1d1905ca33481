//! The committed-baseline ratchet for heuristic findings.
//!
//! `crates/analyze/baseline.txt` holds grandfathered findings, one per
//! line:
//!
//! ```text
//! A1 crates/wmc/src/dpll.rs solve cond.clone() -- forked branch needs its own assignment; bounded by decision depth
//! ```
//!
//! The format is `LINT path key -- reason`. The key is the finding's
//! `fn site` pair (line-number independent, so refactors that move code
//! without changing its shape do not churn the file). A baselined finding
//! is reported in the `baselined` section instead of `findings`, so CI
//! stays green on grandfathered debt while **new** findings deny.
//!
//! The ratchet's teeth: a baseline entry that matches nothing (the finding
//! was fixed — remove the line) or cannot be parsed (no ` -- `, empty
//! reason, unknown lint) is itself a deny-level finding, `B0`. The file can
//! only shrink truthfully. Only heuristic lints may be baselined; the
//! contract lints (`U1`, `P1`, `S0`) cannot be grandfathered.

/// Lints that may carry baseline entries.
pub const BASELINABLE: &[&str] = &["A1", "B1", "F1"];

/// One parsed baseline line.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Lint code (`A1`, …).
    pub lint: String,
    /// Repo-relative path the finding lives in.
    pub path: String,
    /// The finding key: `fn site`.
    pub key: String,
    /// Why this finding is accepted (mandatory).
    pub reason: String,
    /// 1-based line in the baseline file.
    pub line_no: u32,
}

/// A parsed baseline file.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Well-formed entries.
    pub entries: Vec<Entry>,
    /// Malformed lines as `(line number, problem)` — each becomes a `B0`.
    pub problems: Vec<(u32, String)>,
}

/// Parses baseline text. Blank lines and `#` comments are skipped.
pub fn parse(text: &str) -> Baseline {
    let mut out = Baseline::default();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let Some((head, reason)) = trimmed.split_once(" -- ") else {
            out.problems.push((
                line_no,
                "missing ` -- reason` separator — every baselined finding needs a written reason"
                    .to_string(),
            ));
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            out.problems
                .push((line_no, "empty reason after ` -- `".to_string()));
            continue;
        }
        let mut fields = head.split_whitespace();
        let (Some(lint), Some(path)) = (fields.next(), fields.next()) else {
            out.problems
                .push((line_no, "expected `LINT path key -- reason`".to_string()));
            continue;
        };
        let key = fields.collect::<Vec<&str>>().join(" ");
        if key.is_empty() {
            out.problems
                .push((line_no, "missing finding key (`fn site`)".to_string()));
            continue;
        }
        if !BASELINABLE.contains(&lint) {
            out.problems.push((
                line_no,
                format!(
                    "lint `{lint}` cannot be baselined — only heuristic lints \
                     ({}) may be grandfathered",
                    BASELINABLE.join(", ")
                ),
            ));
            continue;
        }
        out.entries.push(Entry {
            lint: lint.to_string(),
            path: path.to_string(),
            key,
            reason: reason.to_string(),
            line_no,
        });
    }
    out
}

impl Baseline {
    /// The entry covering a finding, if any.
    pub fn matching(&self, lint: &str, path: &str, key: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.lint == lint && e.path == path && e.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_skips_comments() {
        let b = parse(
            "# grandfathered findings\n\
             \n\
             A1 crates/wmc/src/dpll.rs solve cond.clone() -- forked branch needs its own assignment\n\
             B1 crates/par/src/lib.rs worker_loop wake.wait() -- idle parking is the design\n",
        );
        assert_eq!(b.entries.len(), 2);
        assert!(b.problems.is_empty());
        assert_eq!(b.entries[0].key, "solve cond.clone()");
        assert_eq!(b.entries[0].line_no, 3);
        assert!(b
            .matching("A1", "crates/wmc/src/dpll.rs", "solve cond.clone()")
            .is_some());
        assert!(b
            .matching("A1", "crates/wmc/src/dpll.rs", "other key")
            .is_none());
    }

    #[test]
    fn missing_reason_is_a_problem() {
        let b = parse("A1 crates/a/src/lib.rs f v.clone()\nA1 crates/a/src/lib.rs f x -- \n");
        assert!(b.entries.is_empty());
        assert_eq!(b.problems.len(), 2, "{:?}", b.problems);
    }

    #[test]
    fn contract_lints_cannot_be_baselined() {
        let b = parse("P1 crates/server/src/service.rs handle unwrap -- busy week\n");
        assert!(b.entries.is_empty());
        assert_eq!(b.problems.len(), 1);
        assert!(b.problems[0].1.contains("cannot be baselined"));
    }

    #[test]
    fn truncated_lines_are_problems() {
        let b = parse("A1 -- reason\nA1 crates/a/src/lib.rs -- reason\n");
        assert_eq!(b.problems.len(), 2, "{:?}", b.problems);
    }
}
