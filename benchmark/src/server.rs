//! Building, booting and observing the real `probdb-serve` processes: the
//! benchmark only ever talks to the release binary over TCP and reads
//! `/proc` and the `metrics` command, as an operator would.

use crate::wire::Conn;
use crate::workload::{Spec, Workload};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository this crate sits in (`benchmark/..`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent directory")
        .to_path_buf()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load-generating connections: one per core up to two, all from this one
/// process.
pub fn connections() -> u64 {
    nproc().min(2) as u64
}

/// Builds the release server from the repository's own manifest (a no-op
/// when it is current) and returns the binary's path. Build time is not part
/// of any metric.
pub fn build_server() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "probdb-serve",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building probdb-serve failed ({status})"));
    }
    // A relative CARGO_TARGET_DIR is relative to where cargo ran.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join("target"), |dir| root.join(dir));
    let bin = target.join("release").join("probdb-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing after the build", bin.display()))
    }
}

/// One running `probdb-serve`. Dropping it kills the process and waits for
/// it, so no run leaves a server behind.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    log: PathBuf,
}

impl ServerProc {
    /// Spawns the server on an ephemeral port with its stderr in `log`, and
    /// waits for the "listening on" line that carries the port.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<ServerProc, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: log.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .split_once("listening on ")
                .and_then(|(_, rest)| rest.split_whitespace().next())
                .and_then(|addr| addr.parse().ok())
            {
                server.addr = addr;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "probdb-serve exited at start-up ({status}): {text}"
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("probdb-serve did not start listening: {text}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9`, then reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    pub fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// `utime + stime` of the whole process in ms. Linux reports both in
    /// clock ticks of 1/100 s (`USER_HZ`) on every architecture.
    pub fn cpu_ms(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the whole line.
        let rest = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
        let ticks: f64 = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse::<f64>().ok())
            .sum();
        ticks * 10.0
    }

    fn status_kb(&self, key: &str) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        proc_field(&status, key)
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.status_kb("VmHWM:") / 1024.0
    }

    /// Voluntary + involuntary context switches summed over the live
    /// threads. Helper threads that already exited took their counts with
    /// them, so this undercounts per-miss helpers.
    pub fn ctx_switches(&self) -> f64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid())) else {
            return 0.0;
        };
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
            .map(|s| {
                proc_field(&s, "voluntary_ctxt_switches:")
                    + proc_field(&s, "nonvoluntary_ctxt_switches:")
            })
            .sum()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn proc_field(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// One scrape of the `metrics` command: Prometheus sample lines keyed by
/// `name` or `name{labels}`.
pub type Scrape = BTreeMap<String, f64>;

pub fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let text = conn.call("metrics").map_err(|e| format!("metrics: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// `after − before` for one counter.
pub fn delta(before: &Scrape, after: &Scrape, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// The `q`-quantile of the observations a histogram gained between two
/// scrapes, interpolated inside the bucket it falls in. The server's
/// buckets double in width, so this is good to within its bucket.
pub fn histogram_quantile(before: &Scrape, after: &Scrape, name: &str, q: f64) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = after
        .range(prefix.clone()..)
        .take_while(|(k, _)| k.starts_with(&prefix))
        .filter_map(|(k, _)| {
            let le = k[prefix.len()..].trim_end_matches("\"}");
            let edge = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((edge, delta(before, after, k)))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let (mut lower_edge, mut lower_count) = (0.0, 0.0);
    for (edge, cumulative) in buckets {
        if cumulative >= rank {
            if edge.is_infinite() || cumulative == lower_count {
                return lower_edge;
            }
            return lower_edge
                + (edge - lower_edge) * (rank - lower_count) / (cumulative - lower_count);
        }
        (lower_edge, lower_count) = (edge, cumulative);
    }
    lower_edge
}

/// The servers of one workload plus a control connection to each, used for
/// set-up, scrapes and checks (never for measured load).
pub struct Cluster {
    pub primary: ServerProc,
    pub replica: Option<ServerProc>,
    pub control: Conn,
    pub replica_control: Option<Conn>,
    bin: PathBuf,
    primary_args: Vec<String>,
    dir: PathBuf,
}

/// What set-up cost, for `setup_s` and `replica.bootstrap_s`.
pub struct SetupTimes {
    pub total_s: f64,
    pub bootstrap_s: f64,
}

/// One command on a control connection, its reply owned.
pub fn call(conn: &mut Conn, line: &str) -> Result<String, String> {
    conn.call(line)
        .map(str::to_string)
        .map_err(|e| format!("{line}: {e}"))
}

/// The value of `key=` in a `stats` payload line starting with `section`.
fn stats_field(stats: &str, section: &str, key: &str) -> Option<String> {
    let line = stats.lines().find(|l| l.starts_with(section))?;
    let rest = line.split_once(&format!("{key}="))?.1;
    Some(rest.split_whitespace().next()?.to_string())
}

impl Cluster {
    /// Boots the workload's servers in a fresh `dir` and brings them to the
    /// state the measured phases start from: data preloaded, views compiled,
    /// replica caught up, cached texts warm. Ends with one `stats` round
    /// trip per server; the time to there is `setup_s`.
    pub fn setup(
        spec: &Spec,
        w: &Workload,
        bin: &Path,
        dir: &Path,
        preload: &Path,
    ) -> Result<(Cluster, SetupTimes), String> {
        let start = Instant::now();
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let conns = connections();
        let base = |workers: u64| -> Vec<String> {
            vec![
                "--workers".into(),
                workers.to_string(),
                "--threads".into(),
                nproc().to_string(),
                "--timeout-ms".into(),
                spec.timeout_ms.to_string(),
                "--cache-capacity".into(),
                spec.cache_capacity.to_string(),
            ]
        };
        // One worker per load connection, one for the control connection,
        // and on a primary one more that the replication feed occupies.
        let mut primary_args = base(conns + 1 + u64::from(w.replica));
        if w.durable {
            primary_args.extend([
                "--data-dir".into(),
                dir.join("data").display().to_string(),
                "--fsync".into(),
                "always".into(),
                "--checkpoint-every".into(),
                "1024".into(),
            ]);
        }
        let mut boot_args = primary_args.clone();
        boot_args.extend(["--preload".into(), preload.display().to_string()]);
        let primary = ServerProc::spawn(bin, &boot_args, &dir.join("primary.log"))?;
        let mut control = Conn::connect(primary.addr).map_err(|e| format!("connect: {e}"))?;
        for create in w.view_creates() {
            let reply = call(&mut control, &create)?;
            if !reply.starts_with("view ") || reply.starts_with("error") {
                return Err(format!("{create}: {reply}"));
            }
        }
        let mut bootstrap_s = 0.0;
        let mut replica = None;
        let mut replica_control = None;
        if w.replica {
            let boot = Instant::now();
            let mut args = base(conns + 1);
            args.extend(["--replica-of".into(), primary.addr.to_string()]);
            let proc = ServerProc::spawn(bin, &args, &dir.join("replica.log"))?;
            let mut conn = Conn::connect(proc.addr).map_err(|e| format!("connect: {e}"))?;
            wait_caught_up(&mut control, &mut conn)?;
            bootstrap_s = boot.elapsed().as_secs_f64();
            replica = Some(proc);
            replica_control = Some(conn);
        }
        // Warm the cached texts on whichever server will serve them, so the
        // one-off compute is set-up and the measured reads are hits.
        let warm_on = replica_control.as_mut().unwrap_or(&mut control);
        for op in w.cached_texts() {
            let reply = call(warm_on, &op.line)?;
            if !op.expect.accepts(&reply) {
                return Err(format!("{}: {reply}", op.line));
            }
        }
        call(&mut control, "stats")?;
        if let Some(conn) = replica_control.as_mut() {
            call(conn, "stats")?;
        }
        let total_s = start.elapsed().as_secs_f64();
        Ok((
            Cluster {
                primary,
                replica,
                control,
                replica_control,
                bin: bin.to_path_buf(),
                primary_args,
                dir: dir.to_path_buf(),
            },
            SetupTimes {
                total_s,
                bootstrap_s,
            },
        ))
    }

    pub fn servers(&self) -> impl Iterator<Item = &ServerProc> {
        std::iter::once(&self.primary).chain(self.replica.as_ref())
    }

    /// Σ `utime + stime` over the server processes, ms.
    pub fn cpu_ms(&self) -> f64 {
        self.servers().map(ServerProc::cpu_ms).sum()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.servers().map(ServerProc::peak_rss_mb).sum()
    }

    pub fn ctx_switches(&self) -> f64 {
        self.servers().map(ServerProc::ctx_switches).sum()
    }

    /// Blocks until the replica has applied everything the primary logged.
    pub fn wait_replica(&mut self) -> Result<(), String> {
        match self.replica_control.as_mut() {
            Some(replica) => wait_caught_up(&mut self.control, replica),
            None => Ok(()),
        }
    }

    /// `kill -9`s the primary and restarts it on the same data directory.
    /// Returns the seconds from spawn to the first `stats` round trip.
    pub fn crash_and_recover(&mut self) -> Result<f64, String> {
        self.primary.kill();
        let start = Instant::now();
        self.primary = ServerProc::spawn(
            &self.bin,
            &self.primary_args,
            &self.dir.join("recovered.log"),
        )?;
        self.control = Conn::connect(self.primary.addr).map_err(|e| format!("reconnect: {e}"))?;
        call(&mut self.control, "stats")?;
        Ok(start.elapsed().as_secs_f64())
    }
}

/// Polls until the replica reports itself connected, bootstrapped and at the
/// primary's next LSN.
fn wait_caught_up(primary: &mut Conn, replica: &mut Conn) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let head = stats_field(&call(primary, "stats")?, "replication:", "next_lsn");
        let stats = call(replica, "stats")?;
        let field = |key| stats_field(&stats, "replication:", key);
        if head.is_some()
            && field("applied_lsn") == head
            && field("connected").as_deref() == Some("true")
            && field("bootstraps").is_some_and(|b| b != "0")
        {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("replica did not catch up: {stats}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_within_the_delta() {
        let scrape = |counts: [f64; 4]| -> Scrape {
            ["63", "127", "255", "+Inf"]
                .iter()
                .zip(counts)
                .map(|(le, c)| (format!("h_bucket{{le=\"{le}\"}}"), c))
                .collect()
        };
        // 100 new observations: 50 in (63,127], 50 in (127,255].
        let (before, after) = (
            scrape([10.0, 10.0, 10.0, 10.0]),
            scrape([10.0, 60.0, 110.0, 110.0]),
        );
        assert_eq!(histogram_quantile(&before, &after, "h", 0.5), 127.0);
        assert_eq!(histogram_quantile(&before, &after, "h", 0.25), 95.0);
        assert_eq!(histogram_quantile(&before, &after, "h", 0.75), 191.0);
        assert_eq!(
            histogram_quantile(&before, &before, "h", 0.5),
            0.0,
            "no new samples"
        );
    }

    #[test]
    fn stats_fields_are_found_by_section() {
        let stats = "queries: total=2 lifted=1\nreplication: role=replica connected=true applied_lsn=17 lag=0\n";
        assert_eq!(
            stats_field(stats, "replication:", "applied_lsn").as_deref(),
            Some("17")
        );
        assert_eq!(
            stats_field(stats, "queries:", "lifted").as_deref(),
            Some("1")
        );
        assert_eq!(stats_field(stats, "views:", "count"), None);
    }
}
