//! The probdb command protocol: what [`crate::Service`] accepts and how it
//! renders answers, whether it sits behind TCP (`probdb-serve`) or in
//! process (`probdb-cli`).
//!
//! One command per line, answers as plain text. The answer formatters are
//! public so callers can render an in-process evaluation exactly as the
//! service would — the server-concurrency integration test compares wire
//! responses against single-threaded evaluation that way.
//!
//! ## Wire framing (server only)
//!
//! The CLI is a REPL, so it needs no framing. Over TCP the server ends each
//! response with a line containing a single `.`; response lines that consist
//! of exactly `.` are escaped as `..` (SMTP-style dot-stuffing). See
//! [`write_framed`] / [`read_framed`].

use pdb_core::{Answer, AnswerTuple, Complexity};
use pdb_views::{RefreshOutcome, View, ViewDefState};
use std::io::{BufRead, Write};

/// One parsed shell command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `insert <rel> <c1> … <ck> <prob>`
    Insert {
        /// Relation name (declared on first use).
        relation: String,
        /// Constant tuple.
        tuple: Vec<u64>,
        /// Marginal probability of the tuple.
        prob: f64,
    },
    /// `update <rel> <c1> … <ck> <prob>` — change an **existing** tuple's
    /// probability (never creates a tuple; materialized views absorb this
    /// incrementally).
    Update {
        /// Relation name.
        relation: String,
        /// Constant tuple (must already be a possible tuple).
        tuple: Vec<u64>,
        /// The new marginal probability.
        prob: f64,
    },
    /// `view …` — materialized-view management.
    View(ViewCommand),
    /// `domain <c1> … <ck>` — extend the domain explicitly.
    Domain(Vec<u64>),
    /// `query <fo sentence>`
    Query(String),
    /// `answers <v1,v2,…> : <cq>` — non-Boolean query.
    Answers {
        /// Head variables, in output order.
        head: Vec<String>,
        /// The conjunctive-query body.
        cq: String,
    },
    /// `classify <ucq>`
    Classify(String),
    /// `open <lambda> <monotone fo>` — open-world interval.
    OpenWorld {
        /// λ-completion probability for unlisted tuples.
        lambda: f64,
        /// The monotone sentence.
        query: String,
    },
    /// `show` — dump the database.
    Show,
    /// `stats` — engine observability counters (server; the CLI keeps no
    /// counters and says so).
    Stats,
    /// `metrics` — Prometheus text exposition of every registered counter,
    /// gauge, and histogram (server, store, replica, kernel, views, pool).
    Metrics,
    /// `explain analyze <query>` — run the query with tracing enabled and
    /// render the span tree (per-stage timings, chosen engine).
    ExplainAnalyze(String),
    /// `trace last [--json]` — the most recent captured span tree, as
    /// indented text or Chrome trace-format JSON.
    TraceLast {
        /// Emit Chrome `chrome://tracing` JSON instead of the text tree.
        json: bool,
    },
    /// `slowlog` — dump the ring buffer of queries slower than the
    /// `--slowlog-threshold` (server).
    Slowlog,
    /// `source <path>` — run commands from a file (CLI only; the server
    /// refuses to read its own filesystem on behalf of clients).
    Source(String),
    /// `save <path>` — write a snapshot of the database + views (CLI only;
    /// same filesystem policy as `source`).
    Save(String),
    /// `open <path>` — replace the session state with a saved snapshot
    /// (CLI only). Distinguished from `open <λ> <sentence>` by having a
    /// single non-numeric token.
    Open(String),
    /// `shutdown` — gracefully stop the server: drain in-flight requests
    /// and flush/fsync the write-ahead log before exiting.
    Shutdown,
    /// `wal inspect <path>` — decode a write-ahead log (a `wal` file or a
    /// data directory containing one) and print its LSN range, records,
    /// and any truncation point (CLI only; debugging aid for replication).
    WalInspect(String),
    /// `help`
    Help,
    /// `quit` / `exit`
    Quit,
    /// Blank line or comment.
    Nothing,
}

/// A materialized-view subcommand (`view create|refresh|drop|list|show`).
#[derive(Debug, Clone, PartialEq)]
pub enum ViewCommand {
    /// `view create <name> query <sentence>` or
    /// `view create <name> answers <v1,v2,…> : <cq>`.
    Create {
        /// The view's name.
        name: String,
        /// What it materializes (same sub-languages as `query` /
        /// `answers`), in the textual form the WAL records.
        def: ViewDefState,
    },
    /// `view refresh [<name>]` — one view, or every view when omitted.
    Refresh {
        /// The view to refresh; `None` refreshes all.
        name: Option<String>,
    },
    /// `view drop <name>`.
    Drop {
        /// The view to unregister.
        name: String,
    },
    /// `view list`.
    List,
    /// `view show <name>` — print the materialized rows.
    Show {
        /// The view to print.
        name: String,
    },
}

fn parse_view_command(rest: &str) -> Result<ViewCommand, String> {
    const USAGE: &str = "usage: view create|refresh|drop|list|show …";
    let (sub, rest) = match rest.split_once(char::is_whitespace) {
        Some((s, r)) => (s, r.trim()),
        None => (rest, ""),
    };
    match sub {
        "create" => {
            let (name, spec) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "usage: view create <name> query|answers …".to_string())?;
            let spec = spec.trim();
            let (kind, payload) = match spec.split_once(char::is_whitespace) {
                Some((k, p)) => (k, p.trim()),
                None => (spec, ""),
            };
            let def = match kind {
                "query" => {
                    if payload.is_empty() {
                        return Err("usage: view create <name> query <sentence>".into());
                    }
                    ViewDefState::Boolean(payload.to_string())
                }
                "answers" => {
                    let (head_vars, cq) = payload.split_once(':').ok_or_else(|| {
                        "usage: view create <name> answers <v1,v2,…> : <cq>".to_string()
                    })?;
                    let head: Vec<String> = head_vars
                        .split(',')
                        .map(|v| v.trim().to_string())
                        .filter(|v| !v.is_empty())
                        .collect();
                    if head.is_empty() {
                        return Err("view create … answers needs at least one head variable".into());
                    }
                    if cq.trim().is_empty() {
                        return Err("view create … answers needs a query body after `:`".into());
                    }
                    ViewDefState::Answers {
                        head,
                        body: cq.trim().to_string(),
                    }
                }
                other => {
                    return Err(format!(
                        "view create expects `query` or `answers`, got {other:?}"
                    ))
                }
            };
            Ok(ViewCommand::Create {
                name: name.to_string(),
                def,
            })
        }
        "refresh" => Ok(ViewCommand::Refresh {
            name: (!rest.is_empty()).then(|| rest.to_string()),
        }),
        "drop" => {
            if rest.is_empty() {
                return Err("usage: view drop <name>".into());
            }
            Ok(ViewCommand::Drop {
                name: rest.to_string(),
            })
        }
        "list" => {
            if rest.is_empty() {
                Ok(ViewCommand::List)
            } else {
                Err("view list takes no arguments".into())
            }
        }
        "show" => {
            if rest.is_empty() {
                return Err("usage: view show <name>".into());
            }
            Ok(ViewCommand::Show {
                name: rest.to_string(),
            })
        }
        _ => Err(USAGE.into()),
    }
}

/// Parses one line into a command.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Command::Nothing);
    }
    let (head, rest) = match line.split_once(char::is_whitespace) {
        Some((h, r)) => (h, r.trim()),
        None => (line, ""),
    };
    // `insert` and `update` share the `<rel> <c1> … <ck> <prob>` grammar.
    let parse_fact = |verb: &str| -> Result<(String, Vec<u64>, f64), String> {
        let mut parts: Vec<&str> = rest.split_whitespace().collect();
        if parts.len() < 2 {
            return Err(format!("usage: {verb} <rel> <c1> … <ck> <prob>"));
        }
        let relation = parts.remove(0).to_string();
        let Some(prob_text) = parts.pop() else {
            return Err(format!("usage: {verb} <rel> <c1> … <ck> <prob>"));
        };
        let prob: f64 = prob_text
            .parse()
            .map_err(|_| "probability must be a number".to_string())?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!("probability {prob} not in [0, 1]"));
        }
        let tuple = parts
            .iter()
            .map(|p| p.parse::<u64>().map_err(|_| format!("bad constant {p}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((relation, tuple, prob))
    };
    match head {
        "insert" => {
            let (relation, tuple, prob) = parse_fact("insert")?;
            Ok(Command::Insert {
                relation,
                tuple,
                prob,
            })
        }
        "update" => {
            let (relation, tuple, prob) = parse_fact("update")?;
            Ok(Command::Update {
                relation,
                tuple,
                prob,
            })
        }
        "view" => Ok(Command::View(parse_view_command(rest)?)),
        "domain" => {
            let consts = rest
                .split_whitespace()
                .map(|p| p.parse::<u64>().map_err(|_| format!("bad constant {p}")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Command::Domain(consts))
        }
        "query" => {
            if rest.is_empty() {
                return Err("usage: query <sentence>".into());
            }
            Ok(Command::Query(rest.to_string()))
        }
        "answers" => {
            let (head_vars, cq) = rest
                .split_once(':')
                .ok_or_else(|| "usage: answers <v1,v2,…> : <cq>".to_string())?;
            let head = head_vars
                .split(',')
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect::<Vec<_>>();
            if head.is_empty() {
                return Err("answers needs at least one head variable".into());
            }
            if cq.trim().is_empty() {
                return Err("answers needs a query body after `:`".into());
            }
            Ok(Command::Answers {
                head,
                cq: cq.trim().to_string(),
            })
        }
        "classify" => {
            if rest.is_empty() {
                return Err("usage: classify <ucq>".into());
            }
            Ok(Command::Classify(rest.to_string()))
        }
        "open" => {
            let Some((lambda, query)) = rest.split_once(char::is_whitespace) else {
                // One token: a snapshot path (`open db.pdb`), unless it is
                // a bare number — then the user forgot the sentence.
                if rest.is_empty() || rest.parse::<f64>().is_ok() {
                    return Err(
                        "usage: open <lambda> <monotone sentence> | open <snapshot path>".into(),
                    );
                }
                return Ok(Command::Open(rest.to_string()));
            };
            let lambda: f64 = lambda
                .parse()
                .map_err(|_| "λ must be a number".to_string())?;
            if !(0.0..=1.0).contains(&lambda) {
                return Err(format!("λ = {lambda} not in [0, 1]"));
            }
            Ok(Command::OpenWorld {
                lambda,
                query: query.trim().to_string(),
            })
        }
        "show" => Ok(Command::Show),
        "stats" => Ok(Command::Stats),
        "metrics" => {
            if rest.is_empty() {
                Ok(Command::Metrics)
            } else {
                Err("metrics takes no arguments".into())
            }
        }
        "explain" => match rest.split_once(char::is_whitespace) {
            Some(("analyze", query)) if !query.trim().is_empty() => {
                Ok(Command::ExplainAnalyze(query.trim().to_string()))
            }
            _ => Err("usage: explain analyze <sentence>".into()),
        },
        "trace" => match rest {
            "last" => Ok(Command::TraceLast { json: false }),
            "last --json" => Ok(Command::TraceLast { json: true }),
            _ => Err("usage: trace last [--json]".into()),
        },
        "slowlog" => {
            if rest.is_empty() {
                Ok(Command::Slowlog)
            } else {
                Err("slowlog takes no arguments".into())
            }
        }
        "source" => {
            if rest.is_empty() {
                return Err("usage: source <file>".into());
            }
            Ok(Command::Source(rest.to_string()))
        }
        "save" => {
            if rest.is_empty() {
                return Err("usage: save <file>".into());
            }
            Ok(Command::Save(rest.to_string()))
        }
        "shutdown" => {
            if rest.is_empty() {
                Ok(Command::Shutdown)
            } else {
                Err("shutdown takes no arguments".into())
            }
        }
        "wal" => match rest.split_once(char::is_whitespace) {
            Some(("inspect", path)) if !path.trim().is_empty() => {
                Ok(Command::WalInspect(path.trim().to_string()))
            }
            _ => Err("usage: wal inspect <path>".into()),
        },
        "help" => Ok(Command::Help),
        "quit" | "exit" => Ok(Command::Quit),
        other => Err(format!("unknown command {other:?}; try `help`")),
    }
}

/// The `help` text (shared by CLI and server).
pub const HELP: &str = "\
commands:
  insert <rel> <c1> … <ck> <p>   add a tuple with probability p
  update <rel> <c1> … <ck> <p>   change an existing tuple's probability
  domain <c1> … <ck>             extend the domain (matters for ∀)
  query <sentence>               Boolean query, e.g. exists x. R(x) & S(x,y)
  answers <v,…> : <cq>           non-Boolean CQ, e.g. answers x : R(x), S(x,y)
  classify <ucq>                 dichotomy classification
  open <λ> <sentence>            open-world interval for a monotone query
  view create <name> query <s>   materialize a Boolean query as a view
  view create <name> answers <v,…> : <cq>
                                 materialize one row per answer tuple
  view refresh [<name>]          rebuild stale views (all when no name)
  view drop <name>               unregister a view
  view list                      registered views and their status
  view show <name>               print a view's materialized rows
  show                           print the database
  stats                          engine + cache observability counters
  metrics                        Prometheus text exposition of all metrics
  explain analyze <sentence>     run a query and show its span tree
  trace last [--json]            last captured trace (text or Chrome JSON)
  slowlog                        queries slower than the slowlog threshold
  source <file>                  run commands from a file (CLI only)
  save <file>                    snapshot the database + views (CLI only)
  open <file>                    load a snapshot saved with `save` (CLI only)
  shutdown                       stop the server, flushing the log (server)
  wal inspect <path>             decode a write-ahead log file (CLI only)
  quit                           leave";

/// Canonicalizes query text for use in cache keys: trims and collapses every
/// whitespace run to a single space, so `query R(x)  &  S(x,y)` and
/// `query R(x) & S(x,y)` share a cache entry. Deliberately *not* a semantic
/// normal form — syntactically different spellings of the same query hash
/// apart, which costs a duplicate entry, never a wrong answer.
pub fn normalize_query(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for token in text.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(token);
    }
    out
}

/// Renders a Boolean-query answer exactly as the CLI prints it.
pub fn format_answer(a: &Answer) -> String {
    let mut s = format!("p = {:.6}  (engine: {:?})", a.probability, a.method);
    if let Some((lo, hi)) = a.bounds {
        s.push_str(&format!("  bounds [{lo:.6}, {hi:.6}]"));
    }
    s.push('\n');
    s
}

/// Renders non-Boolean answer rows exactly as the CLI prints them.
pub fn format_answer_tuples(head: &[String], rows: &[AnswerTuple]) -> String {
    if rows.is_empty() {
        return "(no answers)\n".into();
    }
    let mut s = String::new();
    for a in rows {
        let binding: Vec<String> = head
            .iter()
            .zip(&a.values)
            .map(|(v, c)| format!("{v} = {c}"))
            .collect();
        s.push_str(&format!(
            "{}    p = {:.6}\n",
            binding.join(", "),
            a.probability
        ));
    }
    s
}

/// Renders a dichotomy verdict exactly as the CLI prints it.
pub fn format_complexity(c: Complexity) -> &'static str {
    match c {
        Complexity::PolynomialTime => "polynomial time",
        Complexity::SharpPHard => "#P-hard",
        Complexity::Unknown => "unknown (rules inconclusive)",
    }
}

/// Renders the error for an `update` of a non-existent tuple — shared so
/// the CLI and server cannot diverge.
pub fn format_update_missing(relation: &str, tuple: &[u64]) -> String {
    let consts: Vec<String> = tuple.iter().map(u64::to_string).collect();
    format!(
        "error: {relation}({}) is not a possible tuple; insert it first\n",
        consts.join(", ")
    )
}

/// Renders the `view create` acknowledgement.
pub fn format_view_created(view: &View) -> String {
    format!(
        "view {}: {} row(s) materialized ({})\n",
        view.name(),
        view.rows().len(),
        view.backend_summary()
    )
}

/// Renders one `view refresh` outcome line.
pub fn format_view_refreshed(name: &str, outcome: RefreshOutcome) -> String {
    let verdict = match outcome {
        RefreshOutcome::Fresh => "fresh",
        RefreshOutcome::Rebuilt => "rebuilt",
    };
    format!("view {name}: {verdict}\n")
}

/// Renders the `view list` payload (views in name order).
pub fn format_view_list<'a>(views: impl Iterator<Item = &'a View>) -> String {
    let mut s = String::new();
    for v in views {
        s.push_str(&format!(
            "{}  [{}] {}  rows={} backend={} status={}\n",
            v.name(),
            v.def().kind(),
            v.def().display(),
            v.rows().len(),
            v.backend_summary(),
            if v.is_stale() { "stale" } else { "fresh" },
        ));
    }
    if s.is_empty() {
        "(no views)\n".into()
    } else {
        s
    }
}

/// Renders the `view show` payload: the materialized rows, formatted
/// exactly like the equivalent `query` / `answers` output.
pub fn format_view_show(view: &View) -> String {
    let mut s = String::new();
    if view.is_stale() {
        s.push_str(&format!("(stale — run `view refresh {}`)\n", view.name()));
    }
    if let Some(answer) = view.boolean_answer() {
        s.push_str(&format_answer(&answer));
    } else if let Some((head, rows)) = view.answer_rows() {
        s.push_str(&format_answer_tuples(&head, &rows));
    }
    s
}

/// Renders an open-world interval exactly as the CLI prints it.
pub fn format_open(lower: &Answer, upper: &Answer) -> String {
    format!(
        "p ∈ [{:.6}, {:.6}]  (closed-world, λ-completion)\n",
        lower.probability, upper.probability
    )
}

/// Writes one framed response: the payload's lines (dot-stuffed: any line
/// beginning with `.` gets an extra leading `.`), then the `.` terminator.
pub fn write_framed(out: &mut impl Write, response: &str) -> std::io::Result<()> {
    for line in response.lines() {
        if line.starts_with('.') {
            out.write_all(b".")?;
        }
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.write_all(b".\n")?;
    out.flush()
}

/// Reads one framed response, un-stuffing dots. Returns `None` on EOF
/// before the terminator.
pub fn read_framed(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut response = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed == "." {
            return Ok(Some(response));
        }
        response.push_str(trimmed.strip_prefix('.').unwrap_or(trimmed));
        response.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_inserts() {
        assert_eq!(
            parse_command("insert R 1 2 0.5").unwrap(),
            Command::Insert {
                relation: "R".into(),
                tuple: vec![1, 2],
                prob: 0.5
            }
        );
        assert!(parse_command("insert R").is_err());
        assert!(parse_command("insert R x 0.5").is_err());
        assert!(parse_command("insert R 1 1.5").is_err(), "p > 1 rejected");
        assert!(parse_command("insert R 1 -0.5").is_err(), "p < 0 rejected");
    }

    #[test]
    fn parses_queries_and_misc() {
        assert_eq!(
            parse_command("query exists x. R(x)").unwrap(),
            Command::Query("exists x. R(x)".into())
        );
        assert_eq!(
            parse_command("answers x, y : R(x), S(x,y)").unwrap(),
            Command::Answers {
                head: vec!["x".into(), "y".into()],
                cq: "R(x), S(x,y)".into()
            }
        );
        assert_eq!(
            parse_command("update R 1 2 0.75").unwrap(),
            Command::Update {
                relation: "R".into(),
                tuple: vec![1, 2],
                prob: 0.75
            }
        );
        assert_eq!(
            parse_command("view create v query exists x. R(x)").unwrap(),
            Command::View(ViewCommand::Create {
                name: "v".into(),
                def: ViewDefState::Boolean("exists x. R(x)".into())
            })
        );
        assert_eq!(
            parse_command("view create v answers x, y : R(x), S(x,y)").unwrap(),
            Command::View(ViewCommand::Create {
                name: "v".into(),
                def: ViewDefState::Answers {
                    head: vec!["x".into(), "y".into()],
                    body: "R(x), S(x,y)".into()
                }
            })
        );
        assert_eq!(
            parse_command("view refresh").unwrap(),
            Command::View(ViewCommand::Refresh { name: None })
        );
        assert_eq!(
            parse_command("view refresh v").unwrap(),
            Command::View(ViewCommand::Refresh {
                name: Some("v".into())
            })
        );
        assert_eq!(
            parse_command("view drop v").unwrap(),
            Command::View(ViewCommand::Drop { name: "v".into() })
        );
        assert_eq!(
            parse_command("view list").unwrap(),
            Command::View(ViewCommand::List)
        );
        assert_eq!(
            parse_command("view show v").unwrap(),
            Command::View(ViewCommand::Show { name: "v".into() })
        );
        for bad in [
            "update R",
            "update R 1 2 nope",
            "update R 1 1.5",
            "view",
            "view create",
            "view create v",
            "view create v frobnicate R(x)",
            "view create v query",
            "view create v answers : R(x)",
            "view create v answers x :",
            "view drop",
            "view show",
            "view list extra",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} should not parse");
        }
        assert_eq!(parse_command("  # comment").unwrap(), Command::Nothing);
        assert_eq!(parse_command("").unwrap(), Command::Nothing);
        assert_eq!(parse_command("quit").unwrap(), Command::Quit);
        assert_eq!(parse_command("stats").unwrap(), Command::Stats);
        assert!(parse_command("frobnicate").is_err());
    }

    #[test]
    fn parses_observability_commands() {
        assert_eq!(parse_command("metrics").unwrap(), Command::Metrics);
        assert_eq!(
            parse_command("explain analyze exists x. R(x)").unwrap(),
            Command::ExplainAnalyze("exists x. R(x)".into())
        );
        assert_eq!(
            parse_command("trace last").unwrap(),
            Command::TraceLast { json: false }
        );
        assert_eq!(
            parse_command("trace last --json").unwrap(),
            Command::TraceLast { json: true }
        );
        assert_eq!(parse_command("slowlog").unwrap(), Command::Slowlog);
        for bad in [
            "metrics now",
            "explain",
            "explain analyze",
            "explain plan R(x)",
            "trace",
            "trace last --xml",
            "slowlog 5",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn open_disambiguates_snapshots_from_open_world() {
        // Two tokens: λ + sentence (the open-world query).
        assert_eq!(
            parse_command("open 0.2 exists x. R(x)").unwrap(),
            Command::OpenWorld {
                lambda: 0.2,
                query: "exists x. R(x)".into()
            }
        );
        // One non-numeric token: a snapshot path.
        assert_eq!(
            parse_command("open db.pdb").unwrap(),
            Command::Open("db.pdb".into())
        );
        // One numeric token: a forgotten sentence, not a path.
        assert!(parse_command("open 0.2").is_err());
        assert!(parse_command("open").is_err());
        // Shutdown and save parse strictly.
        assert_eq!(parse_command("shutdown").unwrap(), Command::Shutdown);
        assert!(parse_command("shutdown now").is_err());
        assert_eq!(
            parse_command("save out.pdb").unwrap(),
            Command::Save("out.pdb".into())
        );
        assert!(parse_command("save").is_err());
        // wal inspect needs both the subcommand and a path.
        assert_eq!(
            parse_command("wal inspect data/wal").unwrap(),
            Command::WalInspect("data/wal".into())
        );
        assert!(parse_command("wal").is_err());
        assert!(parse_command("wal inspect").is_err());
        assert!(parse_command("wal compact x").is_err());
    }

    #[test]
    fn malformed_input_errors_instead_of_panicking() {
        // Every line here used to be accepted weirdly or is adversarial;
        // all must produce Err, never a panic or a bogus Ok.
        for line in [
            "insert",
            "insert R",
            "insert R 0.5", // missing constants is an insert of arity 0 — fine,
            // but a *lone* prob with no relation is not
            "insert R 1 2 huge", // non-numeric probability
            "insert R 1 2 2.5",  // out-of-range probability
            "domain x y",        // non-numeric constants
            "query",             // empty sentence
            "answers : R(x)",    // no head variables
            "answers x :",       // no body
            "answers x R(x)",    // missing colon
            "classify",          // empty UCQ
            "open 0.2",          // missing sentence
            "open nope R(x)",    // non-numeric λ
            "open 1.5 R(x)",     // λ out of range
            "source",            // missing path
            "∀x.R(x)",           // unknown command word
        ] {
            match parse_command(line) {
                Err(_) => {}
                Ok(Command::Insert {
                    relation,
                    tuple,
                    prob,
                }) if line == "insert R 0.5" => {
                    // `insert R 0.5` parses as arity-0 insert with p = 0.5 —
                    // accepted, matching the CLI's historical behavior.
                    assert_eq!((relation.as_str(), tuple.len(), prob), ("R", 0, 0.5));
                }
                Ok(cmd) => panic!("{line:?} unexpectedly parsed as {cmd:?}"),
            }
        }
    }

    #[test]
    fn parse_round_trips_on_canonical_forms() {
        // Rendering a parsed command back to its canonical line and
        // re-parsing is the identity.
        let render = |c: &Command| -> Option<String> {
            Some(match c {
                Command::Insert {
                    relation,
                    tuple,
                    prob,
                } => {
                    let consts: Vec<String> = tuple.iter().map(u64::to_string).collect();
                    if consts.is_empty() {
                        format!("insert {relation} {prob}")
                    } else {
                        format!("insert {relation} {} {prob}", consts.join(" "))
                    }
                }
                Command::Update {
                    relation,
                    tuple,
                    prob,
                } => {
                    let consts: Vec<String> = tuple.iter().map(u64::to_string).collect();
                    format!("update {relation} {} {prob}", consts.join(" "))
                }
                Command::View(v) => match v {
                    ViewCommand::Create {
                        name,
                        def: ViewDefState::Boolean(q),
                    } => format!("view create {name} query {q}"),
                    ViewCommand::Create {
                        name,
                        def: ViewDefState::Answers { head, body },
                    } => format!("view create {name} answers {} : {body}", head.join(", ")),
                    ViewCommand::Refresh { name: Some(n) } => format!("view refresh {n}"),
                    ViewCommand::Refresh { name: None } => "view refresh".into(),
                    ViewCommand::Drop { name } => format!("view drop {name}"),
                    ViewCommand::List => "view list".into(),
                    ViewCommand::Show { name } => format!("view show {name}"),
                },
                Command::Domain(cs) => format!(
                    "domain {}",
                    cs.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
                ),
                Command::Query(q) => format!("query {q}"),
                Command::Answers { head, cq } => {
                    format!("answers {} : {cq}", head.join(", "))
                }
                Command::Classify(q) => format!("classify {q}"),
                Command::OpenWorld { lambda, query } => format!("open {lambda} {query}"),
                Command::Show => "show".into(),
                Command::Stats => "stats".into(),
                Command::Metrics => "metrics".into(),
                Command::ExplainAnalyze(q) => format!("explain analyze {q}"),
                Command::TraceLast { json: false } => "trace last".into(),
                Command::TraceLast { json: true } => "trace last --json".into(),
                Command::Slowlog => "slowlog".into(),
                Command::Source(p) => format!("source {p}"),
                Command::Save(p) => format!("save {p}"),
                Command::Open(p) => format!("open {p}"),
                Command::Shutdown => "shutdown".into(),
                Command::WalInspect(p) => format!("wal inspect {p}"),
                Command::Help => "help".into(),
                Command::Quit => "quit".into(),
                Command::Nothing => return None,
            })
        };
        let cases = [
            Command::Insert {
                relation: "R".into(),
                tuple: vec![1, 2],
                prob: 0.25,
            },
            Command::Update {
                relation: "R".into(),
                tuple: vec![1, 2],
                prob: 0.75,
            },
            Command::View(ViewCommand::Create {
                name: "v".into(),
                def: ViewDefState::Boolean("exists x. R(x)".into()),
            }),
            Command::View(ViewCommand::Create {
                name: "w".into(),
                def: ViewDefState::Answers {
                    head: vec!["x".into(), "y".into()],
                    body: "R(x), S(x,y)".into(),
                },
            }),
            Command::View(ViewCommand::Refresh {
                name: Some("v".into()),
            }),
            Command::View(ViewCommand::Refresh { name: None }),
            Command::View(ViewCommand::Drop { name: "v".into() }),
            Command::View(ViewCommand::List),
            Command::View(ViewCommand::Show { name: "v".into() }),
            Command::Domain(vec![0, 1, 2]),
            Command::WalInspect("data/wal".into()),
            Command::Query("exists x. R(x) & S(x,y)".into()),
            Command::Answers {
                head: vec!["x".into(), "y".into()],
                cq: "R(x), S(x,y)".into(),
            },
            Command::Classify("R(x), S(x,y), T(y)".into()),
            Command::OpenWorld {
                lambda: 0.2,
                query: "exists x. R(x)".into(),
            },
            Command::Show,
            Command::Stats,
            Command::Metrics,
            Command::ExplainAnalyze("exists x. R(x) & S(x,y)".into()),
            Command::TraceLast { json: false },
            Command::TraceLast { json: true },
            Command::Slowlog,
            Command::Source("script.pdb".into()),
            Command::Save("state.pdb".into()),
            Command::Open("state.pdb".into()),
            Command::Shutdown,
            Command::Help,
            Command::Quit,
        ];
        for cmd in cases {
            let line = render(&cmd).unwrap();
            assert_eq!(parse_command(&line).unwrap(), cmd, "via {line:?}");
        }
    }

    #[test]
    fn normalization_collapses_whitespace_only() {
        assert_eq!(
            normalize_query("  exists x.   R(x)  &\tS(x,y) "),
            "exists x. R(x) & S(x,y)"
        );
        assert_eq!(normalize_query("R(x)"), "R(x)");
        assert_ne!(normalize_query("R(x)"), normalize_query("R( x)"));
    }

    #[test]
    fn framing_round_trips_including_dot_lines() {
        let payloads = [
            "p = 0.400000  (engine: Lifted)\n",
            "",
            "multi\nline\n",
            ".\nliteral dot line\n..\n",
        ];
        for p in payloads {
            let mut wire = Vec::new();
            write_framed(&mut wire, p).unwrap();
            let mut reader = std::io::BufReader::new(&wire[..]);
            let got = read_framed(&mut reader).unwrap().expect("terminator");
            // Round trip is exact up to a trailing newline on non-empty
            // payloads (framing is line-based).
            let want = if p.is_empty() || p.ends_with('\n') {
                p.to_string()
            } else {
                format!("{p}\n")
            };
            assert_eq!(got, want, "payload {p:?}");
        }
    }

    #[test]
    fn read_framed_reports_eof() {
        let mut reader = std::io::BufReader::new(&b"partial response\n"[..]);
        assert!(read_framed(&mut reader).unwrap().is_none());
    }
}
