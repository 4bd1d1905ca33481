//! The replica-side client: connect, hand-shake, apply the stream.
//!
//! One background thread owns the whole life cycle:
//!
//! ```text
//! connect ──► "replicate from <next_lsn>" ──► frames
//!    ▲                                          │
//!    │   snapshot  → install wholesale (bootstrap / re-bootstrap)
//!    │   record    → dense-LSN check, apply via ReplicaApply
//!    │   heartbeat → refresh liveness, learn the primary's head LSN
//!    │   shutdown  → primary going away on purpose: mark down, retry slow
//!    │   deny      → not a primary: retry slow
//!    │                                          │
//!    └── backoff (capped exponential + jitter) ◄┘  on any error/timeout
//! ```
//!
//! The client never decides *what* a bootstrap means — the primary sends a
//! snapshot whenever the requested LSN is unservable (checkpointed away or
//! from the future), so re-bootstrap after a missed checkpoint is
//! automatic. All transport goes through the [`Connector`] abstraction so
//! tests can interpose the fault harness in [`crate::fault`].

use crate::wire::{read_frame, Frame, FrameError};
use pdb_obs::{AtomicHistogram, HistogramSnapshot};
use pdb_store::WalOp;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What the replica does with the stream: the serving layer implements
/// this over its in-memory database + views.
pub trait ReplicaApply: Send + Sync + 'static {
    /// Replaces all state with a snapshot image; returns the LSN the
    /// stream continues from. An error aborts the session (the client
    /// reconnects and asks again).
    fn install_snapshot(&self, bytes: &[u8]) -> Result<u64, String>;
    /// Applies one replicated mutation at `lsn` (LSNs arrive dense).
    fn apply(&self, lsn: u64, op: &WalOp) -> Result<(), String>;
}

/// Client tuning knobs.
#[derive(Clone, Debug)]
pub struct ReplicaOptions {
    /// Declare the primary down after this long without any frame.
    pub heartbeat_timeout: Duration,
    /// First reconnect delay.
    pub backoff_initial: Duration,
    /// Reconnect delay ceiling (also used after a clean primary shutdown).
    pub backoff_max: Duration,
}

impl Default for ReplicaOptions {
    fn default() -> ReplicaOptions {
        ReplicaOptions {
            heartbeat_timeout: Duration::from_secs(3),
            backoff_initial: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
        }
    }
}

/// Live replication state, shared between the client thread and the
/// serving layer (which renders it under `stats`).
#[derive(Debug, Default)]
pub struct ReplicaStatus {
    connected: AtomicBool,
    primary_down: AtomicBool,
    next_lsn: AtomicU64,
    primary_lsn: AtomicU64,
    records_applied: AtomicU64,
    apply_us: AtomicHistogram,
    bootstraps: AtomicU64,
    reconnects: AtomicU64,
}

impl ReplicaStatus {
    /// Fresh status for a replica that has applied nothing.
    pub fn new() -> ReplicaStatus {
        ReplicaStatus::default()
    }

    /// True while a session is live (handshake sent, stream healthy).
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }

    /// True after the primary announced a clean shutdown (until it comes
    /// back).
    pub fn primary_down(&self) -> bool {
        self.primary_down.load(Ordering::SeqCst)
    }

    /// The next LSN this replica expects (== ops applied since genesis).
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::SeqCst)
    }

    /// The primary's head LSN as last advertised.
    pub fn primary_lsn(&self) -> u64 {
        self.primary_lsn.load(Ordering::SeqCst)
    }

    /// Records behind the primary's advertised head.
    pub fn lag(&self) -> u64 {
        self.primary_lsn().saturating_sub(self.next_lsn())
    }

    /// Records applied from the stream since the client started.
    pub fn records_applied(&self) -> u64 {
        self.records_applied.load(Ordering::Relaxed)
    }

    /// Wall time to apply one streamed record, microseconds.
    pub fn apply_latency(&self) -> HistogramSnapshot {
        self.apply_us.snapshot()
    }

    /// Snapshot installs (initial bootstrap + re-bootstraps).
    pub fn bootstraps(&self) -> u64 {
        self.bootstraps.load(Ordering::Relaxed)
    }

    /// Sessions that ended and were retried.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
}

/// A byte stream to a primary. `set_read_timeout` must make blocked reads
/// return `WouldBlock`/`TimedOut` so the client can poll liveness and its
/// stop flag.
pub trait ReplicaConn: Read + Write + Send {
    /// Bounds how long a read may block.
    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()>;
}

impl ReplicaConn for TcpStream {
    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, d)
    }
}

/// Dials primaries; the seam where tests inject faults.
pub trait Connector: Send + 'static {
    /// Opens a fresh connection.
    fn connect(&self) -> io::Result<Box<dyn ReplicaConn>>;
}

/// The real thing: TCP with Nagle off, like every other client.
pub struct TcpConnector {
    addr: String,
}

impl TcpConnector {
    /// A connector dialing `addr` (`HOST:PORT`).
    pub fn new(addr: impl Into<String>) -> TcpConnector {
        TcpConnector { addr: addr.into() }
    }
}

impl Connector for TcpConnector {
    fn connect(&self) -> io::Result<Box<dyn ReplicaConn>> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        Ok(Box::new(stream))
    }
}

/// Handle to the background client thread; stops and joins on drop.
pub struct ReplicaHandle {
    status: Arc<ReplicaStatus>,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl ReplicaHandle {
    /// The shared status (for `stats` rendering and tests).
    pub fn status(&self) -> Arc<ReplicaStatus> {
        Arc::clone(&self.status)
    }

    /// Asks the thread to stop and waits for it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the replication client: a background thread that keeps `target`
/// converged with whatever primary `connector` dials, forever, until the
/// handle stops it. `status` is shared so the serving layer can render the
/// same live state the client maintains (pass a fresh
/// [`ReplicaStatus::new`] when nobody else watches).
pub fn start_replica(
    target: Arc<dyn ReplicaApply>,
    connector: Box<dyn Connector>,
    status: Arc<ReplicaStatus>,
    opts: ReplicaOptions,
) -> ReplicaHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let status = Arc::clone(&status);
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("pdb-replica".into())
            .spawn(move || run(target, connector, opts, status, stop))
            .ok()
    };
    ReplicaHandle {
        status,
        stop,
        thread,
    }
}

/// How a session ended.
enum SessionEnd {
    /// Stop flag: the replica itself is shutting down.
    Stopped,
    /// The primary said goodbye cleanly.
    PrimaryShutdown,
    /// The server refused to replicate.
    Denied,
    /// Transport/protocol failure (disconnect, torn frame, silence).
    Failed,
}

fn run(
    target: Arc<dyn ReplicaApply>,
    connector: Box<dyn Connector>,
    opts: ReplicaOptions,
    status: Arc<ReplicaStatus>,
    stop: Arc<AtomicBool>,
) {
    let mut backoff = opts.backoff_initial;
    let mut jitter = Jitter::new(0x9E37_79B9_7F4A_7C15);
    while !stop.load(Ordering::SeqCst) {
        let end = session(&*target, &*connector, &opts, &status, &stop);
        let had_connected = status.connected();
        status.connected.store(false, Ordering::SeqCst);
        match end {
            SessionEnd::Stopped => break,
            SessionEnd::PrimaryShutdown | SessionEnd::Denied => {
                // Deliberate refusals: no point hammering; retry slowly.
                backoff = opts.backoff_max;
            }
            SessionEnd::Failed => {
                // A session that got as far as a handshake earns a fresh
                // backoff ladder; repeated connect failures keep climbing.
                if had_connected {
                    backoff = opts.backoff_initial;
                }
            }
        }
        status.reconnects.fetch_add(1, Ordering::Relaxed);
        sleep_with_stop(backoff + jitter.up_to(backoff / 4), &stop);
        backoff = (backoff * 2).min(opts.backoff_max);
    }
}

/// One connection's worth of replication.
fn session(
    target: &dyn ReplicaApply,
    connector: &dyn Connector,
    opts: &ReplicaOptions,
    status: &ReplicaStatus,
    stop: &AtomicBool,
) -> SessionEnd {
    let mut conn = match connector.connect() {
        Ok(c) => c,
        Err(_) => return SessionEnd::Failed,
    };
    // Short read timeout: liveness and the stop flag are polled between
    // reads; a full heartbeat interval of silence is judged separately.
    let poll = opts.heartbeat_timeout.min(Duration::from_millis(100));
    if conn.set_read_timeout(Some(poll)).is_err() {
        return SessionEnd::Failed;
    }
    let hello = format!("replicate from {}\n", status.next_lsn());
    if conn.write_all(hello.as_bytes()).is_err() {
        return SessionEnd::Failed;
    }
    status.connected.store(true, Ordering::SeqCst);
    status.primary_down.store(false, Ordering::SeqCst);
    let mut last_seen = Instant::now();
    loop {
        if stop.load(Ordering::SeqCst) {
            return SessionEnd::Stopped;
        }
        match read_frame(&mut *conn) {
            Ok(frame) => {
                last_seen = Instant::now();
                match frame {
                    Frame::Snapshot(bytes) => match target.install_snapshot(&bytes) {
                        Ok(lsn) => {
                            status.next_lsn.store(lsn, Ordering::SeqCst);
                            if lsn > status.primary_lsn() {
                                status.primary_lsn.store(lsn, Ordering::SeqCst);
                            }
                            status.bootstraps.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => return SessionEnd::Failed,
                    },
                    Frame::Record { lsn, op } => {
                        let expected = status.next_lsn();
                        if lsn < expected {
                            continue; // duplicate: already applied
                        }
                        if lsn > expected {
                            // A gap can't be repaired in-stream: reconnect
                            // and re-request from our position.
                            return SessionEnd::Failed;
                        }
                        let apply_started = std::time::Instant::now();
                        if target.apply(lsn, &op).is_err() {
                            // The primary applied this op; if we can't, our
                            // state diverged — force a full re-bootstrap.
                            status.next_lsn.store(0, Ordering::SeqCst);
                            return SessionEnd::Failed;
                        }
                        status.apply_us.record_duration(apply_started.elapsed());
                        status.next_lsn.store(lsn + 1, Ordering::SeqCst);
                        if lsn + 1 > status.primary_lsn() {
                            status.primary_lsn.store(lsn + 1, Ordering::SeqCst);
                        }
                        status.records_applied.fetch_add(1, Ordering::Relaxed);
                    }
                    Frame::Heartbeat { next_lsn } => {
                        status.primary_lsn.store(next_lsn, Ordering::SeqCst);
                    }
                    Frame::Shutdown => {
                        status.primary_down.store(true, Ordering::SeqCst);
                        return SessionEnd::PrimaryShutdown;
                    }
                    Frame::Deny(_) => return SessionEnd::Denied,
                }
            }
            Err(FrameError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_seen.elapsed() > opts.heartbeat_timeout {
                    return SessionEnd::Failed; // silent primary: presumed down
                }
            }
            Err(_) => return SessionEnd::Failed,
        }
    }
}

/// Sleeps in small slices so a stop request is honored promptly.
fn sleep_with_stop(total: Duration, stop: &AtomicBool) {
    let mut left = total;
    let slice = Duration::from_millis(20);
    while !left.is_zero() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let step = left.min(slice);
        thread::sleep(step);
        left -= step;
    }
}

/// A tiny xorshift for backoff jitter — deterministic seed, no clocks, no
/// external dependencies; spreading reconnects is all it has to do.
struct Jitter {
    state: u64,
}

impl Jitter {
    fn new(seed: u64) -> Jitter {
        Jitter { state: seed | 1 }
    }

    /// A uniform-ish duration in `[0, max)`.
    fn up_to(&mut self, max: Duration) -> Duration {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        let nanos = max.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(x % nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_in_range_and_varies() {
        let mut j = Jitter::new(7);
        let max = Duration::from_millis(50);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let d = j.up_to(max);
            assert!(d < max);
            seen.insert(d.as_nanos());
        }
        assert!(seen.len() > 32, "jitter should not be constant");
        assert_eq!(j.up_to(Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn status_lag_saturates() {
        let s = ReplicaStatus::new();
        s.primary_lsn.store(10, Ordering::SeqCst);
        s.next_lsn.store(4, Ordering::SeqCst);
        assert_eq!(s.lag(), 6);
        s.next_lsn.store(12, Ordering::SeqCst);
        assert_eq!(s.lag(), 0);
    }
}
