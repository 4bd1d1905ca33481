//! # pdb-analyze — in-tree invariant linter for the probdb workspace
//!
//! A dependency-free static-analysis pass over the workspace's own Rust
//! sources. It ships its own small lexer (`lexer`), a token-shape
//! structural model (`model`), a workspace symbol table and call graph
//! (`resolve`, `graph`), a reachability framework (`reach`), per-file
//! token lints (`lints`), and interprocedural lints on the call graph
//! (`interproc`). Each invariant has one check:
//!
//! | code | default | invariant |
//! |------|---------|-----------|
//! | `U1` | deny    | every `unsafe` carries a `// SAFETY:` audit comment |
//! | `P1` | deny    | no panic (unwrap/expect/macros/indexing) on the server request path |
//! | `S0` | deny    | suppression comments carry a non-empty reason |
//! | `A1` | warn    | no allocation reachable from the evaluation hot roots |
//! | `B1` | warn    | no unbounded blocking reachable from pool workers or the request loop; an acyclic lock order; no guard held across a blocking call or pool submit |
//! | `F1` | warn    | no float accumulation or formatted output fed by hash or parallel operand order |
//! | `B0` | deny    | baseline entries parse and still match a finding |
//!
//! Findings can be waived in place with
//! `// pdb-lint: allow(<lint>, reason = "…")` on the offending line or the
//! line above. The reason is mandatory — an unexplained waiver is itself a
//! finding (`S0`). The heuristic lints additionally honor a committed
//! baseline file (`baseline`): grandfathered findings are reported in a
//! separate `baselined` section and do not fail the run, while entries
//! that no longer match anything deny (`B0`) so the file only ratchets
//! down.
//!
//! The `probdb-lint` binary runs the pass over explicit paths or the whole
//! workspace (`--workspace`), prints human or `--json` reports (plus a
//! `--stats` call-graph summary), and exits nonzero when any denying
//! finding survives suppression.

pub mod baseline;
pub mod graph;
pub mod interproc;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod reach;
pub mod resolve;
pub mod suppress;

pub use graph::GraphStats;
pub use lints::{Lint, LintOptions};

use model::SourceFile;
use std::collections::BTreeMap;

/// One reported problem, after suppression filtering.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The lint that fired.
    pub lint: Lint,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
    /// True when this finding fails the run.
    pub denies: bool,
    /// Baseline key (`fn site`) for findings the ratchet can carry.
    pub key: Option<String>,
}

/// A finding covered by a baseline entry, with the entry's reason.
#[derive(Clone, Debug)]
pub struct Baselined {
    /// The grandfathered finding (reported, never denying).
    pub finding: Finding,
    /// The written reason from the baseline file.
    pub reason: String,
}

/// Analysis configuration.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Promote warn-level lints (A1, B1, F1) to deny.
    pub deny_all: bool,
    /// Run P1 on every file instead of only the request/durability paths
    /// (fixtures).
    pub p1_everywhere: bool,
    /// Drop the crate filters on interprocedural root specs (fixtures).
    pub hot_everywhere: bool,
    /// Baseline file as `(display path, contents)`.
    pub baseline: Option<(String, String)>,
}

/// The result of an analysis run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings that survived suppression and the baseline, sorted by
    /// (path, line, col, lint).
    pub findings: Vec<Finding>,
    /// Findings covered by baseline entries (tracked, not failing).
    pub baselined: Vec<Baselined>,
    /// Number of findings silenced by suppression comments.
    pub suppressed: usize,
    /// Suppression counts per lint code.
    pub suppressed_by_lint: BTreeMap<String, usize>,
    /// Number of files analyzed.
    pub files: usize,
    /// Call-graph statistics from the interprocedural pass.
    pub stats: GraphStats,
}

impl Report {
    /// True when any finding denies (fails the run).
    pub fn failed(&self) -> bool {
        self.findings.iter().any(|f| f.denies)
    }
}

/// Lint codes accepted in suppression comments.
const KNOWN_CODES: &[&str] = &["U1", "P1", "A1", "B1", "F1"];

/// Analyzes `(path, source)` pairs and produces a report.
pub fn analyze_sources(sources: &[(String, String)], opts: &Options) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, s)| SourceFile::parse(p, s))
        .collect();
    let mut raw = lints::run_lints(
        &files,
        &LintOptions {
            p1_everywhere: opts.p1_everywhere,
        },
    );
    let (inter, stats) = interproc::run_interproc(
        &files,
        &interproc::InterprocOptions {
            hot_everywhere: opts.hot_everywhere,
        },
    );
    raw.extend(inter);

    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressed = 0usize;
    let mut suppressed_by_lint: BTreeMap<String, usize> = BTreeMap::new();
    let mut per_file_suppressions: Vec<Vec<suppress::Suppression>> = Vec::new();
    for sf in &files {
        let (good, bad) = suppress::collect(&sf.lexed);
        for b in &bad {
            findings.push(Finding {
                lint: Lint::S0,
                path: sf.path.clone(),
                line: b.line,
                col: 1,
                message: format!("malformed suppression: {}", b.problem),
                denies: true,
                key: None,
            });
        }
        // Unknown lint codes in otherwise well-formed suppressions are also
        // S0: a typo'd code would otherwise silently waive nothing.
        for s in &good {
            if !KNOWN_CODES.contains(&s.code.as_str()) {
                findings.push(Finding {
                    lint: Lint::S0,
                    path: sf.path.clone(),
                    line: s.line,
                    col: 1,
                    message: format!("suppression names unknown lint `{}`", s.code),
                    denies: true,
                    key: None,
                });
            }
        }
        per_file_suppressions.push(good);
    }

    let base = opts
        .baseline
        .as_ref()
        .map(|(_, text)| baseline::parse(text))
        .unwrap_or_default();
    let mut baselined: Vec<Baselined> = Vec::new();
    let mut used_entries = vec![false; base.entries.len()];

    for r in raw {
        let sf = &files[r.file];
        let sup = &per_file_suppressions[r.file];
        let waived = sup
            .iter()
            .any(|s| s.code == r.lint.code() && (s.line == r.line || s.line + 1 == r.line));
        if waived {
            suppressed += 1;
            *suppressed_by_lint
                .entry(r.lint.code().to_string())
                .or_insert(0) += 1;
            continue;
        }
        let finding = Finding {
            lint: r.lint,
            path: sf.path.clone(),
            line: r.line,
            col: r.col,
            message: r.message,
            denies: r.lint.denies_by_default() || opts.deny_all,
            key: r.key,
        };
        let entry = finding
            .key
            .as_deref()
            .and_then(|k| base.matching(finding.lint.code(), &finding.path, k));
        match entry {
            Some(ei) => {
                used_entries[ei] = true;
                baselined.push(Baselined {
                    reason: base.entries[ei].reason.clone(),
                    finding: Finding {
                        denies: false,
                        ..finding
                    },
                });
            }
            None => findings.push(finding),
        }
    }

    // Baseline hygiene: malformed lines and entries that matched nothing
    // deny. A fixed finding must shrink the baseline with it.
    if let Some((base_path, _)) = &opts.baseline {
        for (line_no, problem) in &base.problems {
            findings.push(Finding {
                lint: Lint::B0,
                path: base_path.clone(),
                line: *line_no,
                col: 1,
                message: format!("malformed baseline entry: {problem}"),
                denies: true,
                key: None,
            });
        }
        for (ei, used) in used_entries.iter().enumerate() {
            if !used {
                let e = &base.entries[ei];
                findings.push(Finding {
                    lint: Lint::B0,
                    path: base_path.clone(),
                    line: e.line_no,
                    col: 1,
                    message: format!(
                        "stale baseline entry `{} {} {}` matches no finding — the debt was \
                         paid; remove the line so the ratchet tightens",
                        e.lint, e.path, e.key
                    ),
                    denies: true,
                    key: None,
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.lint).cmp(&(b.path.as_str(), b.line, b.col, b.lint))
    });
    baselined.sort_by(|a, b| {
        (a.finding.path.as_str(), a.finding.line, a.finding.col).cmp(&(
            b.finding.path.as_str(),
            b.finding.line,
            b.finding.col,
        ))
    });
    Report {
        findings,
        baselined,
        suppressed,
        suppressed_by_lint,
        files: files.len(),
        stats,
    }
}

/// Renders a report as a human-readable listing.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let sev = if f.denies { "deny" } else { "warn" };
        out.push_str(&format!(
            "{}:{}:{}: [{}/{}] {}\n",
            f.path,
            f.line,
            f.col,
            f.lint.code(),
            sev,
            f.message
        ));
    }
    let denied = report.findings.iter().filter(|f| f.denies).count();
    let warned = report.findings.len() - denied;
    out.push_str(&format!(
        "{} file(s) analyzed: {} deny finding(s), {} warning(s), {} suppressed, {} baselined\n",
        report.files,
        denied,
        warned,
        report.suppressed,
        report.baselined.len()
    ));
    out
}

/// Renders the call-graph statistics line shown by `--stats`.
pub fn render_stats(stats: &GraphStats) -> String {
    format!(
        "stats: {} files, {} functions, {} call sites, {} edges, {:.1}% resolved",
        stats.files,
        stats.functions,
        stats.call_sites,
        stats.edges,
        stats.resolution_rate() * 100.0
    )
}

/// Escapes a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_finding(f: &Finding) -> String {
    let key = match &f.key {
        Some(k) => format!(",\"key\":\"{}\"", json_escape(k)),
        None => String::new(),
    };
    format!(
        "{{\"lint\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"{key}}}",
        f.lint.code(),
        if f.denies { "deny" } else { "warn" },
        json_escape(&f.path),
        f.line,
        f.col,
        json_escape(&f.message)
    )
}

/// Renders a report as a single JSON object (stable field order).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_finding(f));
    }
    out.push_str("],\"baselined\":[");
    for (i, b) in report.baselined.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut obj = json_finding(&b.finding);
        obj.truncate(obj.len() - 1);
        obj.push_str(&format!(",\"reason\":\"{}\"}}", json_escape(&b.reason)));
        out.push_str(&obj);
    }
    out.push_str("],\"suppressed_by_lint\":{");
    for (i, (code, n)) in report.suppressed_by_lint.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{n}", json_escape(code)));
    }
    out.push_str(&format!(
        "}},\"stats\":{{\"files\":{},\"functions\":{},\"call_sites\":{},\"resolved\":{},\"edges\":{},\"resolution_rate\":{:.4}}}",
        report.stats.files,
        report.stats.functions,
        report.stats.call_sites,
        report.stats.resolved,
        report.stats.edges,
        report.stats.resolution_rate()
    ));
    out.push_str(&format!(
        ",\"files\":{},\"suppressed\":{},\"failed\":{}}}",
        report.files,
        report.suppressed,
        report.failed()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, opts: &Options) -> Report {
        analyze_sources(&[("crates/server/src/demo.rs".into(), src.into())], opts)
    }

    #[test]
    fn suppression_waives_matching_line_and_next() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // pdb-lint: allow(P1, reason = \"checked by caller\")\n    x.unwrap()\n}\n";
        let r = run(src, &Options::default());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.suppressed_by_lint.get("P1"), Some(&1));
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // pdb-lint: allow(P1)\n    x.unwrap()\n}\n";
        let r = run(src, &Options::default());
        assert!(r.failed());
        assert!(r.findings.iter().any(|f| f.lint == Lint::S0));
        assert!(r.findings.iter().any(|f| f.lint == Lint::P1));
    }

    #[test]
    fn unknown_lint_code_is_a_finding() {
        // Retired codes (D1 folded into F1, L1 into B1) are unknown too: a
        // stale waiver must not silently waive nothing.
        for code in ["Z9", "D1", "L1"] {
            let src = format!("// pdb-lint: allow({code}, reason = \"typo\")\nfn f() {{}}\n");
            let r = run(&src, &Options::default());
            assert!(r.failed(), "{code}");
            assert!(r.findings.iter().any(|f| f.lint == Lint::S0), "{code}");
        }
    }

    #[test]
    fn new_lint_codes_are_suppressible() {
        let src = "// pdb-lint: allow(A1, reason = \"setup path, runs once\")\nfn f() {}\n";
        let r = run(src, &Options::default());
        assert!(!r.failed(), "{:?}", r.findings);
    }

    #[test]
    fn deny_all_promotes_warnings() {
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<u32, f64>) -> f64 {\n    let mut s = 0.0f64;\n    for (_k, v) in &m { s += v; }\n    s\n}\n";
        let warn = run(src, &Options::default());
        assert!(!warn.failed(), "{:?}", warn.findings);
        assert_eq!(warn.findings.len(), 1);
        let deny = run(
            src,
            &Options {
                deny_all: true,
                ..Options::default()
            },
        );
        assert!(deny.failed());
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = run(src, &Options::default());
        let js = render_json(&r);
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"lint\":\"P1\""));
        assert!(js.contains("\"failed\":true"));
        assert!(js.contains("\"stats\":{"));
        assert!(js.contains("\"baselined\":["));
    }

    #[test]
    fn baseline_carries_findings_without_failing() {
        let src = "pub fn eval(xs: &[u32]) -> Vec<u32> { xs.to_vec() }\n";
        let opts = Options {
            deny_all: true,
            hot_everywhere: true,
            baseline: Some((
                "crates/analyze/baseline.txt".into(),
                "A1 crates/server/src/demo.rs eval xs.to_vec() -- boxed return is the API\n".into(),
            )),
            ..Options::default()
        };
        let r = run(src, &opts);
        assert!(!r.failed(), "{:?}", r.findings);
        assert_eq!(r.baselined.len(), 1, "{:?}", r.baselined);
        assert_eq!(r.baselined[0].reason, "boxed return is the API");
        // Without the baseline the same run fails under --deny-all.
        let bare = run(
            src,
            &Options {
                deny_all: true,
                hot_everywhere: true,
                ..Options::default()
            },
        );
        assert!(bare.failed(), "{:?}", bare.findings);
    }

    #[test]
    fn stale_baseline_entries_deny() {
        let opts = Options {
            baseline: Some((
                "crates/analyze/baseline.txt".into(),
                "A1 crates/server/src/demo.rs eval gone.clone() -- was fixed long ago\n".into(),
            )),
            ..Options::default()
        };
        let r = run("fn quiet() {}\n", &opts);
        assert!(r.failed(), "{:?}", r.findings);
        let b0 = r.findings.iter().find(|f| f.lint == Lint::B0).unwrap();
        assert!(b0.message.contains("stale"), "{}", b0.message);
        assert_eq!(b0.path, "crates/analyze/baseline.txt");
    }

    #[test]
    fn malformed_baseline_entries_deny() {
        // A missing reason, and a retired lint code (D1 is now F1).
        for entry in [
            "A1 crates/a/src/lib.rs f v.clone()\n",
            "D1 crates/a/src/lib.rs f m.iter() -- sorted later\n",
        ] {
            let opts = Options {
                baseline: Some(("crates/analyze/baseline.txt".into(), entry.into())),
                ..Options::default()
            };
            let r = run("fn quiet() {}\n", &opts);
            assert!(r.failed(), "{entry}");
            assert!(r.findings.iter().any(|f| f.lint == Lint::B0), "{entry}");
        }
    }
}
