//! Correctness and durability checks. The load generator mirrors its own
//! acknowledged writes into a local `ProbDb`; after the measured phases the
//! server's answers are compared with what the engine, called in-process on
//! that mirror, says they should be.

use crate::server::{call, Cluster};
use crate::workload::{Class, SessionGen, Target, Workload};
use probdb::server::protocol::{parse_command, Command};
use probdb::server::{Service, ServiceOptions};
use probdb::ProbDb;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Sampled reads per class (fewer for classes so slow that 64 would not fit
/// the run's time budget).
const SAMPLES_PER_CLASS: usize = 64;
/// Server time one class's samples may take, from its closed-loop median.
const CLASS_BUDGET_MS: f64 = 600.0;

/// Checks made and checks failed; both feed `attempted` / `failed`.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few mismatches, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(what());
            }
        }
    }
}

/// Applies `insert` / `update` lines to the mirror exactly as the server's
/// handler would.
pub fn apply_writes<'a>(db: &mut ProbDb, lines: impl IntoIterator<Item = &'a str>) {
    for line in lines {
        match parse_command(line) {
            Ok(Command::Insert {
                relation,
                tuple,
                prob,
            }) => db.insert(&relation, tuple, prob),
            Ok(Command::Update {
                relation,
                tuple,
                prob,
            }) => {
                db.update_prob(&relation, &tuple.into(), prob);
            }
            _ => panic!("the generator wrote a line that is not a mutation: {line}"),
        }
    }
}

/// Two replies say the same thing when their lines match as sets and
/// differ, if at all, only in numbers closer than the six printed decimals
/// resolve. Exact string equality is the rule; the tolerance admits a view's
/// incrementally maintained circuit against a from-scratch count (same
/// value, different floating-point route) and a tie broken the other way in
/// an `answers` sort.
pub fn same_answer(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let sorted = |s: &str| -> Vec<String> {
        let mut lines: Vec<String> = s.lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    let (a, b) = (sorted(a), sorted(b));
    a.len() == b.len()
        && a.iter().zip(&b).all(|(la, lb)| {
            let (ta, tb): (Vec<&str>, Vec<&str>) = (
                la.split_whitespace().collect(),
                lb.split_whitespace().collect(),
            );
            ta.len() == tb.len()
                && ta.iter().zip(&tb).all(|(x, y)| {
                    x == y
                        || matches!(
                            (x.parse::<f64>(), y.parse::<f64>()),
                            (Ok(x), Ok(y)) if (x - y).abs() <= 1.5e-6
                        )
                })
        })
}

/// What the engine, called in-process on the mirror, answers to `line`.
/// `view show` is answered by evaluating the view's defining query from
/// scratch, so the server's incremental circuits are checked against an
/// independent computation rather than against themselves.
fn expected(local: &Service, w: &Workload, line: &str) -> String {
    let line = match line.strip_prefix("view show v") {
        Some(k) => w.view_query(k.parse().expect("view names are v<k>")),
        None => line.to_string(),
    };
    local.handle_line(&line).0
}

/// Read operations to sample for each class in the workload's mix, drawn
/// from a stream of their own and covering every connection's tenants.
fn sample_reads(
    w: &Workload,
    seed: u64,
    conns: u64,
    want: &BTreeMap<Class, usize>,
) -> Vec<(Target, String)> {
    let mut gens: Vec<SessionGen> = (0..conns)
        .map(|c| SessionGen::new(w, seed, 9, c, conns))
        .collect();
    let mut taken: BTreeMap<Class, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for round in 0..20_000 {
        if want
            .iter()
            .all(|(c, n)| taken.get(c).copied().unwrap_or(0) >= *n)
        {
            break;
        }
        let conn = round % gens.len();
        for op in gens[conn].next_session() {
            let n = taken.entry(op.class).or_insert(0);
            if !op.class.is_write() && *n < want.get(&op.class).copied().unwrap_or(0) {
                *n += 1;
                out.push((op.target, op.line));
            }
        }
    }
    out
}

/// After a workload: every view, and up to 64 sampled reads per class,
/// server against mirror. `p50_ms` (closed-loop medians) sizes the samples.
pub fn check_answers(
    w: &Workload,
    seed: u64,
    conns: u64,
    cluster: &mut Cluster,
    mirror: &ProbDb,
    p50_ms: &BTreeMap<Class, f64>,
) -> Result<Tally, String> {
    let want: BTreeMap<Class, usize> = p50_ms
        .iter()
        .filter(|(c, _)| !c.is_write())
        .map(|(&c, &ms)| {
            let n = (CLASS_BUDGET_MS / ms.max(1e-3)) as usize;
            (c, n.clamp(4, SAMPLES_PER_CLASS))
        })
        .collect();
    cluster.wait_replica()?; // the replica answers some of the samples
    let mut reads = sample_reads(w, seed, conns, &want);
    reads.extend(
        w.viewed()
            .map(|k| (Target::Primary, format!("view show v{k}"))),
    );
    // The mirror answers on one core while the servers answer on the other.
    let local = Service::new(
        mirror.clone(),
        ServiceOptions {
            query_timeout: Duration::ZERO,
            ..ServiceOptions::default()
        },
    );
    let (theirs, ours) = std::thread::scope(|scope| {
        let ours = scope.spawn(|| {
            reads
                .iter()
                .map(|(_, line)| expected(&local, w, line))
                .collect::<Vec<_>>()
        });
        let theirs: Result<Vec<String>, String> = reads
            .iter()
            .map(|(target, line)| {
                let conn = match (target, cluster.replica_control.as_mut()) {
                    (Target::Replica, Some(replica)) => replica,
                    _ => &mut cluster.control,
                };
                call(conn, line)
            })
            .collect();
        (theirs, ours.join().expect("mirror evaluation panicked"))
    });
    let mut tally = Tally::default();
    for (((_, line), theirs), ours) in reads.iter().zip(theirs?).zip(ours) {
        tally.check(same_answer(&theirs, &ours), || {
            format!("{line}: server {theirs:?}, mirror {ours:?}")
        });
    }
    Ok(tally)
}

/// `show` output as a set of `relation tuple P=p` facts.
fn facts(dump: &str) -> BTreeSet<String> {
    let mut relation = "";
    let mut out = BTreeSet::new();
    for line in dump.lines() {
        match line.strip_prefix("  ") {
            Some(tuple) => {
                out.insert(format!("{relation} {tuple}"));
            }
            None => relation = line.split('/').next().unwrap_or(""),
        }
    }
    out
}

/// What the durability check measured on the side.
pub struct Durability {
    pub tally: Tally,
    pub catchup_ms: f64,
    pub recovery_s: f64,
}

/// `durable_repl` only: the replica must converge to byte-identical views,
/// and after `kill -9` + restart on the same data directory every
/// acknowledged write must be readable and the views must read as before.
///
/// `kill -9` leaves the operating system's page cache intact, so this checks
/// that the log is complete and replays to the acknowledged state, not that
/// the device kept the bytes; `store.syncs_per_append = 1` is the evidence
/// that each record was flushed before its acknowledgement.
pub fn check_durability(
    w: &Workload,
    conns: u64,
    cluster: &mut Cluster,
    mirror: &mut ProbDb,
) -> Result<Durability, String> {
    let mut tally = Tally::default();
    // Views over relations that saw an insert stay stale on a replica and
    // come back stale from recovery (`view refresh` is neither replicated
    // nor logged), so byte-identity is required of the others.
    let shows: Vec<String> = w
        .viewed()
        .filter(|&k| w.replica_serves_view(k, conns))
        .map(|k| format!("view show v{k}"))
        .collect();
    let probe = shows.first().ok_or("durable workload without views")?;
    let Cluster {
        control,
        replica_control: Some(replica),
        ..
    } = cluster
    else {
        return Err("durable workload without replica".into());
    };

    // One last acknowledged write, then time the replica to the same bytes.
    let last_write = format!("update R{} 0 0.4242", &probe["view show v".len()..]);
    let ack = call(control, &last_write)?;
    tally.check(ack.is_empty(), || format!("{last_write}: {ack:?}"));
    let acked = Instant::now();
    apply_writes(mirror, [last_write.as_str()]);
    let on_primary = call(control, probe)?;
    while call(replica, probe)? != on_primary {
        if acked.elapsed() > Duration::from_secs(30) {
            tally.check(false, || format!("replica never showed {on_primary:?}"));
            break;
        }
    }
    let catchup_ms = acked.elapsed().as_secs_f64() * 1e3;

    cluster.wait_replica()?;
    let mut before_crash = Vec::new();
    for show in &shows {
        let on_primary = call(&mut cluster.control, show)?;
        let replica = cluster.replica_control.as_mut().expect("checked above");
        let on_replica = call(replica, show)?;
        tally.check(on_primary == on_replica, || {
            format!("{show}: primary {on_primary:?}, replica {on_replica:?}")
        });
        before_crash.push(on_primary);
    }

    let recovery_s = cluster.crash_and_recover()?;
    let dump = call(&mut cluster.control, "show")?;
    let (theirs, ours) = (facts(&dump), facts(&mirror.tuple_db().to_string()));
    tally.check(theirs == ours, || {
        let lost: Vec<_> = ours.difference(&theirs).take(3).collect();
        format!(
            "after recovery {} acknowledged facts differ, e.g. {lost:?}",
            ours.difference(&theirs).count()
        )
    });
    for (show, before) in shows.iter().zip(&before_crash) {
        let after = call(&mut cluster.control, show)?;
        tally.check(&after == before, || {
            format!("{show}: before crash {before:?}, after {after:?}")
        });
    }
    Ok(Durability {
        tally,
        catchup_ms,
        recovery_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_compare_by_value_not_by_rounding_or_row_order() {
        let a = "x = 1    p = 0.250000\nx = 2    p = 0.125000\n";
        assert!(same_answer(a, a));
        assert!(same_answer(
            a,
            "x = 2    p = 0.125000\nx = 1    p = 0.250001\n"
        ));
        assert!(!same_answer(a, "x = 1    p = 0.250000\n"));
        assert!(!same_answer(
            a,
            "x = 1    p = 0.250000\nx = 3    p = 0.125000\n"
        ));
        assert!(!same_answer(
            "p = 0.500000  (engine: Grounded)\n",
            "p = 0.500000  (engine: Approximate)\n"
        ));
        assert!(!same_answer(
            "p = 0.500000  (engine: Grounded)\n",
            "p = 0.500100  (engine: Grounded)\n"
        ));
    }

    #[test]
    fn mirror_applies_writes_like_the_server() {
        let mut db = ProbDb::new();
        apply_writes(
            &mut db,
            ["insert R0 1 0.5", "insert S0 1 2 0.25", "update R0 1 0.75"],
        );
        let dump = db.tuple_db().to_string();
        assert_eq!(
            facts(&dump),
            ["R0 (1)  P=0.75", "S0 (1,2)  P=0.25"]
                .into_iter()
                .map(str::to_string)
                .collect()
        );
    }
}
