//! `probdb-cli` — an interactive shell for the probabilistic database.
//!
//! ```text
//! $ cargo run --bin probdb-cli
//! probdb> insert R 1 0.5
//! probdb> insert S 1 2 0.8
//! probdb> query exists x. exists y. R(x) & S(x,y)
//! p = 0.400000  (engine: Lifted)
//! probdb> answers x : R(x), S(x,y)
//! x = 1    p = 0.400000
//! probdb> classify R(x), S(x,y), T(y)
//! #P-hard
//! ```
//!
//! Also accepts a script on stdin (`probdb-cli < script.pdb`) and
//! `source <file>` inside the shell.
//!
//! The shell is a front end to the same [`probdb::server::Service`] that
//! `probdb-serve` puts behind TCP: every line is handed to it, so both
//! accept identical input and print identical bytes — including `stats`,
//! `explain analyze`, `trace last`, `slowlog` and `metrics`. Only `save`,
//! `open`, `source` and `wal inspect`, which read or write local files and
//! are refused over the wire, are implemented here.

use probdb::server::protocol::{parse_command, Command};
use probdb::server::{Service, ServiceOptions};
use probdb::ProbDb;
use std::io::{BufRead, Write};

/// The shell's engine: the server's own [`Service`], in process — no
/// store, and no query deadline, so every answer is computed in full. Whatever `probdb-serve` would reply to a line, the shell prints.
fn shell_service() -> Service {
    Service::new(
        ProbDb::new(),
        ServiceOptions {
            query_timeout: std::time::Duration::ZERO,
            ..ServiceOptions::default()
        },
    )
}

/// Executes one input line. Returns false to quit.
///
/// Only the four commands that touch the local filesystem — which the wire
/// refuses for exactly that reason — are handled here; every other line is
/// the service's to parse, run and render.
fn execute(line: &str, svc: &Service, out: &mut dyn Write) -> std::io::Result<bool> {
    match parse_command(line) {
        Ok(Command::Save(path)) => save(&path, svc, out)?,
        Ok(Command::Open(path)) => open(&path, svc, out)?,
        Ok(Command::WalInspect(path)) => inspect_wal(&path, out)?,
        Ok(Command::Source(path)) => match std::fs::read_to_string(&path) {
            Ok(content) => {
                for line in content.lines() {
                    if !execute(line, svc, out)? {
                        return Ok(false);
                    }
                }
            }
            Err(e) => writeln!(out, "cannot read {path}: {e}")?,
        },
        _ => {
            let (reply, keep_open) = svc.handle_line(line);
            out.write_all(reply.as_bytes())?;
            return Ok(keep_open);
        }
    }
    Ok(true)
}

/// Implements `save <path>`: the whole session — tuples, versions, views
/// with their compiled circuits — as one snapshot file, the same image a
/// replica bootstraps from.
fn save(path: &str, svc: &Service, out: &mut dyn Write) -> std::io::Result<()> {
    match std::fs::write(path, svc.snapshot_image(svc.db_version())) {
        Ok(()) => writeln!(
            out,
            "saved {} tuple(s), {} view(s) to {path}",
            svc.db_snapshot().tuple_db().tuple_count(),
            svc.view_count()
        ),
        Err(e) => writeln!(out, "error: cannot write {path}: {e}"),
    }
}

/// Implements `open <path>`: replaces the whole session state with a saved
/// snapshot. Restored views keep their compiled circuits, so they resume
/// incremental maintenance immediately.
fn open(path: &str, svc: &Service, out: &mut dyn Write) -> std::io::Result<()> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => return writeln!(out, "error: cannot read {path}: {e}"),
    };
    match svc.install_snapshot(&bytes) {
        Ok(_lsn) => writeln!(
            out,
            "opened {path}: {} tuple(s), {} view(s)",
            svc.db_snapshot().tuple_db().tuple_count(),
            svc.view_count()
        ),
        Err(e) => writeln!(out, "error: {path} is not a probdb snapshot: {e}"),
    }
}

/// Implements `wal inspect <path>`: decodes a write-ahead log (the `wal`
/// file itself, or a data directory containing one) and prints its LSN
/// range, every intact record, and the truncation point when the tail is
/// torn — the same read path replication catch-up uses.
fn inspect_wal(path: &str, out: &mut dyn Write) -> std::io::Result<()> {
    let p = std::path::Path::new(path);
    let file = if p.is_dir() {
        p.join("wal")
    } else {
        p.to_path_buf()
    };
    let bytes = match std::fs::read(&file) {
        Ok(b) => b,
        Err(e) => return writeln!(out, "error: cannot read {}: {e}", file.display()),
    };
    let follower = match probdb::store::WalFollower::from_bytes(&bytes, 0) {
        Ok(f) => f,
        Err(e) => return writeln!(out, "error: {} is not a probdb wal: {e}", file.display()),
    };
    writeln!(
        out,
        "{}: base_lsn={} next_lsn={} records={} valid_bytes={} of {}",
        file.display(),
        follower.base_lsn(),
        follower.next_lsn(),
        follower.remaining(),
        follower.valid_len(),
        bytes.len(),
    )?;
    let (truncated, valid_len) = (follower.truncated(), follower.valid_len());
    for rec in follower {
        writeln!(out, "  lsn {:>6}  {}", rec.lsn, describe_wal_op(&rec.op))?;
    }
    if truncated {
        writeln!(
            out,
            "  torn tail: {} byte(s) after offset {valid_len} are not intact records",
            bytes.len() as u64 - valid_len
        )?;
    }
    Ok(())
}

/// One-line human rendering of a WAL op for `wal inspect`.
fn describe_wal_op(op: &probdb::store::WalOp) -> String {
    use probdb::store::WalOp;
    let consts = |cs: &[u64]| cs.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
    match op {
        WalOp::Insert {
            relation,
            tuple,
            prob,
        } => format!("insert {relation} {} {prob}", consts(tuple)),
        WalOp::UpdateProb {
            relation,
            tuple,
            prob,
        } => format!("update {relation} {} {prob}", consts(tuple)),
        WalOp::ExtendDomain { consts: cs } => format!("domain {}", consts(cs)),
        WalOp::ViewCreate { name, .. } => format!("view create {name}"),
        WalOp::ViewDrop { name } => format!("view drop {name}"),
    }
}

fn main() -> std::io::Result<()> {
    let svc = shell_service();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let interactive = std::env::args().all(|a| a != "--batch");
    if interactive {
        writeln!(stdout, "probdb — type `help` for commands")?;
    }
    loop {
        if interactive {
            write!(stdout, "probdb> ")?;
            stdout.flush()?;
        }
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        if !execute(&line, &svc, &mut stdout)? {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(svc: &Service, lines: &[&str]) -> String {
        let mut out = Vec::new();
        for line in lines {
            assert!(execute(line, svc, &mut out).unwrap());
        }
        String::from_utf8(out).unwrap()
    }

    fn run(lines: &[&str]) -> String {
        run_on(&shell_service(), lines)
    }

    #[test]
    fn end_to_end_session() {
        let text = run(&[
            "insert R 1 0.5",
            "insert S 1 2 0.8",
            "query exists x. exists y. R(x) & S(x,y)",
            "classify R(x), S(x,y), T(y)",
            "answers x : R(x), S(x,y)",
        ]);
        assert!(text.contains("p = 0.400000"), "{text}");
        assert!(text.contains("#P-hard"), "{text}");
        assert!(text.contains("x = 1"), "{text}");
    }

    #[test]
    fn view_session_maintains_probability() {
        let text = run(&[
            "insert R 1 0.5",
            "insert S 1 2 0.8",
            "view create v query exists x. exists y. R(x) & S(x,y)",
            "view show v",
            "update S 1 2 0.4",
            "view show v",
            "update S 9 9 0.4",
            "view list",
            "view drop v",
            "view drop v",
        ]);
        assert!(text.contains("1 row(s) materialized (circuit)"), "{text}");
        assert!(text.contains("p = 0.400000"), "{text}");
        assert!(text.contains("p = 0.200000"), "{text}");
        assert!(
            text.contains("error: S(9, 9) is not a possible tuple"),
            "{text}"
        );
        assert!(text.contains("status=fresh"), "{text}");
        assert!(text.contains("view v dropped"), "{text}");
        assert!(text.contains("error: no view named v"), "{text}");
    }

    #[test]
    fn open_world_command() {
        let text = run(&["insert R 0 0.5", "domain 0 1", "open 0.2 exists x. R(x)"]);
        assert!(text.contains("p ∈ ["), "{text}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        assert!(run(&["query R(x"]).contains("error"));
        assert!(run(&["nonsense"]).starts_with("error: unknown command"));
    }

    #[test]
    fn quit_and_shutdown_end_the_session() {
        let svc = shell_service();
        for line in ["quit", "exit", "shutdown"] {
            assert!(!execute(line, &svc, &mut Vec::new()).unwrap(), "{line}");
        }
    }

    /// The observability commands are the service's, so they work in the
    /// shell exactly as over the wire.
    #[test]
    fn stats_explain_trace_slowlog_and_metrics_work_in_the_shell() {
        let text = run(&[
            "insert R 1 0.5",
            "insert S 1 2 0.8",
            "explain analyze exists x. exists y. R(x) & S(x,y)",
        ]);
        assert!(text.contains("p = 0.400000"), "{text}");
        assert!(text.contains("engine=Lifted"), "{text}");
        assert!(text.contains("lifted "), "{text}");
        let svc = shell_service();
        run_on(&svc, &["insert R 1 0.5", "explain analyze exists x. R(x)"]);
        assert!(run_on(&svc, &["stats"]).contains("lifted=1"));
        assert!(run_on(&svc, &["trace last"]).contains("µs total"));
        assert_eq!(run_on(&svc, &["slowlog"]), "(slowlog empty)\n");
        let metrics = run_on(&svc, &["metrics"]);
        probdb::obs::expo::validate(&metrics).expect("valid exposition");
        assert!(metrics.contains("pdb_kernel_evals_total"), "{metrics}");
    }

    #[test]
    fn source_runs_a_script_through_the_same_loop() {
        let dir = std::env::temp_dir().join(format!("probdb-cli-source-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("script.pdb");
        std::fs::write(&script, "insert R 1 0.5\nbogus\nquery exists x. R(x)\n").unwrap();
        let text = run(&[&format!("source {}", script.to_str().unwrap())]);
        assert!(text.contains("error: unknown command"), "{text}");
        assert!(text.contains("p = 0.500000"), "{text}");
        assert!(run(&["source /nonexistent/script.pdb"]).contains("cannot read"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `save` then `open` in a fresh session restores tuples AND views with
    /// their compiled circuits — the reopened view updates incrementally
    /// (zero recompiles), exactly like server recovery from a snapshot.
    #[test]
    fn save_and_open_round_trip_database_and_views() {
        let dir = std::env::temp_dir().join(format!("probdb-cli-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.pdb");
        let path = path.to_str().unwrap();

        let saved = run(&[
            "insert R 1 0.5",
            "insert S 1 2 0.8",
            "view create v query exists x. exists y. R(x) & S(x,y)",
            &format!("save {path}"),
        ]);
        assert!(saved.contains("saved 2 tuple(s), 1 view(s)"), "{saved}");

        let svc = shell_service();
        let text = run_on(
            &svc,
            &[
                &format!("open {path}"),
                "view show v",
                "update S 1 2 0.4",
                "view show v",
            ],
        );
        assert!(text.contains("opened"), "{text}");
        assert!(text.contains("2 tuple(s), 1 view(s)"), "{text}");
        assert!(text.contains("p = 0.400000"), "{text}");
        assert!(text.contains("p = 0.200000"), "{text}");
        assert_eq!(
            svc.inspect_views(|v| v.recompiles()),
            0,
            "restored view must not recompile"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_of_a_missing_or_garbage_file_is_not_fatal() {
        let text = run(&["open /nonexistent/definitely/missing.pdb"]);
        assert!(text.contains("error: cannot read"), "{text}");
        let dir = std::env::temp_dir().join(format!("probdb-cli-garbage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.pdb");
        std::fs::write(&bad, b"definitely not a snapshot").unwrap();
        let text = run(&[&format!("open {}", bad.to_str().unwrap())]);
        assert!(text.contains("is not a probdb snapshot"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
