//! The load generator: closed-loop and open-loop phases over one
//! connection. `run_phase` puts one such loop on a thread per connection,
//! all inside this process.

use crate::wire::Conn;
use crate::workload::{Class, Op, SessionGen, Target};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Where operations go. The trait exists so that a test can stand in a
/// server that stalls.
pub trait Link {
    fn call(&mut self, target: Target, line: &str) -> io::Result<&str>;
}

/// One load connection to the primary and, when the workload has a
/// replica, one to it; only one of the two is ever awaiting a reply.
pub struct TcpLink {
    primary: Conn,
    replica: Option<Conn>,
}

impl TcpLink {
    pub fn connect(primary: SocketAddr, replica: Option<SocketAddr>) -> io::Result<TcpLink> {
        Ok(TcpLink {
            primary: Conn::connect(primary)?,
            replica: replica.map(Conn::connect).transpose()?,
        })
    }
}

impl Link for TcpLink {
    fn call(&mut self, target: Target, line: &str) -> io::Result<&str> {
        match (target, self.replica.as_mut()) {
            (Target::Replica, Some(replica)) => replica.call(line),
            _ => self.primary.call(line),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: Class,
    /// From when the operation was due to when its frame's `.` arrived.
    pub ms: f64,
    /// The reply was well formed for its class (right engine tag included).
    pub ok: bool,
}

/// What one connection did in one phase.
#[derive(Default)]
pub struct PhaseLog {
    pub samples: Vec<Sample>,
    /// Open loop: how late each session started, ms after it was due.
    pub lag_ms: Vec<f64>,
    /// Open loop: each session from when it was due to its last reply, the
    /// wait a user sits through after changing a tuple.
    pub session_ms: Vec<f64>,
    /// Acknowledged `update`/`insert` lines in send order, for the mirror.
    pub writes: Vec<String>,
    pub elapsed_s: f64,
}

/// Sends one operation and files its sample. `false` when the connection
/// itself failed, after which nothing more can be sent on it.
fn exec(link: &mut impl Link, op: Op, due: Instant, log: &mut PhaseLog) -> (bool, Instant) {
    let reply = link.call(op.target, &op.line);
    let done = Instant::now();
    let alive = reply.is_ok();
    let ok = reply.is_ok_and(|r| op.expect.accepts(r));
    log.samples.push(Sample {
        class: op.class,
        ms: done.duration_since(due).as_secs_f64() * 1e3,
        ok,
    });
    if ok && matches!(op.class, Class::Update | Class::Insert) {
        log.writes.push(op.line);
    }
    (alive, done)
}

/// Closed loop: the next operation goes out when the previous reply's
/// terminating `.` has arrived, so a slower server receives less load.
/// Sessions are never cut short (an `insert` without its `view refresh`
/// would leave a stale view behind), so the phase ends at the first session
/// boundary after `duration`.
pub fn closed_loop(link: &mut impl Link, gen: &mut SessionGen, duration: Duration) -> PhaseLog {
    let mut log = PhaseLog::default();
    let start = Instant::now();
    'phase: while start.elapsed() < duration {
        for op in gen.next_session() {
            let (alive, _) = exec(link, op, Instant::now(), &mut log);
            if !alive {
                break 'phase;
            }
        }
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// Session arrival offsets for one connection: exponential gaps at
/// `sessions_per_s`, drawn from the seed, up to `duration`.
pub fn arrivals(seed: u64, conn: u64, sessions_per_s: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa771 ^ (conn << 20));
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / sessions_per_s;
        if at >= duration.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// Open loop: sessions start on the arrival schedule whatever the server is
/// doing. A session's first operation is timed from when it was *due*, so
/// the wait a stall imposes on the sessions queued behind it is charged to
/// them; later operations of a session are due when the one before
/// completes (the user re-asks after seeing the answer). Every session that
/// fell due is run, also after the window closes.
pub fn open_loop(
    link: &mut impl Link,
    gen: &mut SessionGen,
    arrivals: &[Duration],
    start: Instant,
) -> PhaseLog {
    let mut log = PhaseLog::default();
    'phase: for &offset in arrivals {
        let mut due = start + offset;
        if let Some(early) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(early);
        }
        log.lag_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        for op in gen.next_session() {
            let (alive, done) = exec(link, op, due, &mut log);
            if !alive {
                break 'phase;
            }
            due = done;
        }
        log.session_ms
            .push(due.duration_since(start + offset).as_secs_f64() * 1e3);
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Spec;

    /// Answers every operation with a reply its class accepts; the first
    /// call stalls.
    struct StallingLink {
        stall: Option<Duration>,
        reply: String,
    }

    impl Link for StallingLink {
        fn call(&mut self, _: Target, line: &str) -> io::Result<&str> {
            if let Some(stall) = self.stall.take() {
                std::thread::sleep(stall);
            }
            self.reply = if line.starts_with("update") {
                String::new()
            } else {
                "p = 0.500000  (engine: Grounded)\n".into()
            };
            Ok(&self.reply)
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_sessions_queued_behind_it() {
        let spec = Spec::load();
        let w = spec.workload("hard_mix").unwrap();
        let mut gen = SessionGen::new(w, 1, 2, 0, 2);
        let mut link = StallingLink {
            stall: Some(Duration::from_millis(60)),
            reply: String::new(),
        };
        // Three sessions due at 0, 10 and 20 ms; the first reply takes 60 ms.
        let due = [0, 10, 20].map(Duration::from_millis);
        let log = open_loop(&mut link, &mut gen, &due, Instant::now());
        assert_eq!(log.samples.len(), 6, "update + read per session");
        assert!(log.samples.iter().all(|s| s.ok));
        // Session 1's update absorbed the stall; sessions 2 and 3 started
        // 50 and 40 ms late and their first operations are charged that
        // wait, although the fake served them instantly.
        assert!(log.samples[0].ms >= 60.0);
        assert!(log.samples[2].ms >= 49.0, "{}", log.samples[2].ms);
        assert!(log.samples[4].ms >= 39.0, "{}", log.samples[4].ms);
        assert!(log.lag_ms[0] < 5.0);
        assert!(
            log.lag_ms[1] >= 49.0 && log.lag_ms[2] >= 39.0,
            "{:?}",
            log.lag_ms
        );
        // Follow-up operations are due when their predecessor completes.
        assert!(log.samples[3].ms < 5.0 && log.samples[5].ms < 5.0);
        assert_eq!(log.writes.len(), 3);
        // A session's latency runs from its due time to its last reply.
        assert!(log.session_ms[0] >= 60.0 && log.session_ms[1] >= 49.0);
    }

    #[test]
    fn closed_loop_finishes_the_session_it_is_in() {
        let spec = Spec::load();
        let w = spec.workload("safe_mix").unwrap();
        let mut gen = SessionGen::new(w, 1, 1, 0, 2);
        let mut link = StallingLink {
            stall: Some(Duration::from_millis(20)),
            reply: String::new(),
        };
        let log = closed_loop(&mut link, &mut gen, Duration::from_millis(5));
        assert_eq!(
            log.samples.len(),
            6,
            "one whole session despite the deadline"
        );
    }

    #[test]
    fn arrivals_follow_the_rate_and_the_seed() {
        let a = arrivals(3, 0, 200.0, Duration::from_secs(10));
        assert_eq!(a, arrivals(3, 0, 200.0, Duration::from_secs(10)));
        assert_ne!(a, arrivals(4, 0, 200.0, Duration::from_secs(10)));
        assert_ne!(a, arrivals(3, 1, 200.0, Duration::from_secs(10)));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap().as_secs_f64() < 10.0);
    }
}
