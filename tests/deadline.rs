//! Deadlines against the real `probdb-serve` process: a query whose exact
//! evaluation would far outlast `--timeout-ms` is answered by the
//! approximate engine on the worker that received it, and the exact work
//! it gave up *stops* — no thread is added to the process, its CPU time
//! goes flat once the reply is out, and nothing fills the cache behind the
//! client's back. Read from `/proc/<pid>`, hence Linux only.
#![cfg(target_os = "linux")]

use probdb::server::protocol::read_framed;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `probdb-serve`, killed when the test ends however it ends.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `probdb-serve` on an ephemeral port and returns it plus the
/// address parsed from its "listening on" banner.
fn spawn_server(timeout_ms: &str) -> (Server, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_probdb-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--threads", "2"])
        .args(["--timeout-ms", timeout_ms])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn probdb-serve");
    let mut reader = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read banner") == 0 {
            let _ = child.kill();
            panic!("probdb-serve exited before printing the listening banner");
        }
        if let Some(rest) = line.strip_prefix("probdb-serve listening on ") {
            let addr_text = rest.split_whitespace().next().expect("addr token");
            break addr_text.parse::<SocketAddr>().expect("parse addr");
        }
    };
    // Keep draining stderr so the child can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (Server(child), addr)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) -> String {
        // One write per command: a line split over two segments waits out
        // the peer's delayed ACK.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        read_framed(&mut self.reader)
            .expect("read response")
            .unwrap_or_else(|| panic!("connection closed before reply to {line:?}"))
    }

    /// Loads the complete bipartite H₀ instance on `n` constants per side
    /// over relations `r`, `s`, `t`, and returns the #P-hard query over it.
    fn load_h0(&mut self, [r, s, t]: [&str; 3], n: u64) -> String {
        for i in 0..n {
            self.send(&format!("insert {r} {i} 0.3"));
            self.send(&format!("insert {t} {i} 0.4"));
            for j in 0..n {
                self.send(&format!("insert {s} {i} {j} 0.5"));
            }
        }
        format!("query exists x. exists y. {r}(x) & {s}(x,y) & {t}(y)")
    }

    /// The value of one `name value` sample line of the `metrics` scrape.
    fn metric(&mut self, name: &str) -> u64 {
        let scrape = self.send("metrics");
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("no sample {name} in:\n{scrape}"))
    }
}

/// The names of the process's threads, sorted.
fn thread_names(pid: u32) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("read task dir")
        .map(|entry| {
            let comm = entry.expect("task entry").path().join("comm");
            std::fs::read_to_string(comm)
                .unwrap_or_default()
                .trim()
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// User + system CPU time the process has consumed, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let rest = stat.rsplit_once(')').expect("comm field").1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("tick count");
    tick(11) + tick(12)
}

#[test]
fn a_timed_out_query_stops_its_exact_work() {
    let (server, addr) = spawn_server("50");
    let pid = server.0.id();
    let mut client = Client::connect(addr);
    // 16×16 takes the exact counter ~12 s in a release build (minutes in a
    // debug one) — against a 50 ms budget. The 3×3 instance is answered
    // exactly and brings every lazily started pool thread into being.
    let hard = client.load_h0(["R", "S", "T"], 16);
    let warm = client.load_h0(["A", "B", "C"], 3);
    assert!(client.send(&warm).contains("(engine: Grounded)"));
    let threads_before = thread_names(pid);
    let misses_before = client.metric("pdb_server_cache_lookups_total{outcome=\"miss\"}");

    let asked = Instant::now();
    let reply = client.send(&hard);
    let took = asked.elapsed();
    assert!(reply.contains("(engine: Approximate)"), "{reply}");
    assert!(
        took < Duration::from_secs(6),
        "reply took {took:?}: the budget plus the degraded estimate, not the exact run"
    );
    assert_eq!(client.metric("pdb_server_timeouts_total"), 1);
    assert_eq!(thread_names(pid), threads_before);

    // The process goes quiet: nothing keeps counting behind the reply. (A
    // thread left finishing the exact run would burn ~30 ticks here.)
    let quiet_from = cpu_ticks(pid);
    std::thread::sleep(Duration::from_millis(300));
    let burned = cpu_ticks(pid) - quiet_from;
    assert!(
        burned <= 5,
        "{burned} ticks of CPU in the 300 ms after the reply"
    );

    // So nothing back-fills the cache either: the same query is a miss
    // again, and times out again.
    let again = client.send(&hard);
    assert!(again.contains("(engine: Approximate)"), "{again}");
    assert_eq!(
        client.metric("pdb_server_cache_lookups_total{outcome=\"miss\"}"),
        misses_before + 2
    );
    assert_eq!(client.metric("pdb_server_timeouts_total"), 2);
}

#[test]
fn fifty_timed_out_queries_leave_the_thread_set_unchanged() {
    let (server, addr) = spawn_server("2");
    let pid = server.0.id();
    let mut client = Client::connect(addr);
    // 12×12 takes the exact counter ~0.4 s in a release build — against a
    // 2 ms budget. One round first: the degraded path runs on the pool too
    // and brings its lazily started threads into being.
    let hard = client.load_h0(["R", "S", "T"], 12);
    assert!(client.send(&hard).contains("(engine: Approximate)"));
    let threads_before = thread_names(pid);
    for round in 0..50 {
        // A write to a mentioned relation makes every round a cache miss
        // even if some round should finish inside the budget.
        client.send(&format!("update R 0 0.{}", 10 + round));
        let reply = client.send(&hard);
        assert!(reply.contains("(engine: Approximate)"), "{round}: {reply}");
    }
    assert_eq!(client.metric("pdb_server_timeouts_total"), 51);
    // No per-query thread was ever added: same count, same names.
    assert_eq!(thread_names(pid), threads_before);
}
