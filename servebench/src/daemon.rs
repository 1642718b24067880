//! One `dsq serve` child process per set-up, and the scrape of its
//! `metrics` verb.

use dsq_server::{Client, ListenAddr, Response};
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a fresh daemon may take to answer its first `ping`.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a drain may take before the daemon is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `dsq serve --unix SOCK --workers 1` child with the
/// daemon's default cache. Dropping it kills the process and waits for
/// it; [`shutdown`](Self::shutdown) drains it instead.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    addr: ListenAddr,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and returns once it answered a `ping`, with the
    /// connection that got the answer.
    pub fn start(dsq: &Path, socket: PathBuf) -> io::Result<(Daemon, Client)> {
        // A socket left behind by an aborted run would refuse the bind.
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(dsq)
            .arg("serve")
            .arg("--unix")
            .arg(&socket)
            .args(["--workers", "1"])
            // Closing stdin is the daemon's graceful-shutdown signal.
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let daemon = Daemon { child: Some(child), addr: ListenAddr::Unix(socket.clone()), socket };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(mut client) = Client::connect(&daemon.addr) {
                if matches!(client.ping()?, Response::Pong) {
                    return Ok((daemon, client));
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "daemon never answered ping"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's listen address.
    pub fn addr(&self) -> &ListenAddr {
        &self.addr
    }

    /// The daemon's process id.
    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// Peak resident set (`VmHWM`) so far, MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
    }

    /// Closes the daemon's stdin and waits for a clean drain.
    ///
    /// # Errors
    ///
    /// The daemon did not exit 0 with its `drained cleanly` line within
    /// the drain timeout (it is killed then).
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut child = self.child.take().expect("daemon is running");
        drop(child.stdin.take());
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(io::ErrorKind::TimedOut, "daemon did not drain"));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let mut out = String::new();
        if let Some(mut stdout) = child.stdout.take() {
            stdout.read_to_string(&mut out)?;
        }
        let _ = std::fs::remove_file(&self.socket);
        if status.success() && out.contains("drained cleanly") {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited {status}: {}", out.trim())))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// Counters and histogram `count`/`sum` pairs from one `metrics`
/// scrape. The exposition's quantiles are cumulative since the daemon
/// started, so only these additive fields are kept for differencing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
}

impl Scrape {
    /// Scrapes over `client`.
    pub fn take(client: &mut Client) -> io::Result<Scrape> {
        Scrape::parse(&client.metrics()?)
    }

    /// Parses a `dsq-metrics v1` exposition.
    pub fn parse(text: &str) -> io::Result<Scrape> {
        let bad =
            |line: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad line `{line}`"));
        let mut scrape = Scrape::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["counter", name, value] => {
                    scrape.counters.insert(name.to_string(), value.parse().map_err(|_| bad(line))?);
                }
                ["histogram", name, "count", count, "sum", sum, ..] => {
                    let count = count.parse().map_err(|_| bad(line))?;
                    let sum = sum.parse().map_err(|_| bad(line))?;
                    scrape.histograms.insert(name.to_string(), (count, sum));
                }
                ["gauge", ..] => {}
                _ => return Err(bad(line)),
            }
        }
        Ok(scrape)
    }

    /// `later − self` for counter `name` (0 when absent from both).
    pub fn counter_delta(&self, later: &Scrape, name: &str) -> u64 {
        let get = |s: &Scrape| s.counters.get(name).copied().unwrap_or(0);
        get(later).saturating_sub(get(self))
    }

    /// Mean of the observations histogram `name` recorded between
    /// `self` and `later` (0 when it recorded none).
    pub fn histogram_mean_delta(&self, later: &Scrape, name: &str) -> f64 {
        let get = |s: &Scrape| s.histograms.get(name).copied().unwrap_or((0, 0));
        let (count0, sum0) = get(self);
        let (count1, sum1) = get(later);
        let count = count1.saturating_sub(count0);
        if count == 0 {
            return 0.0;
        }
        sum1.saturating_sub(sum0) as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_deltas_use_counts_and_sums_only() {
        let before = Scrape::parse(
            "# dsq-metrics v1\ncounter server.serve.hits 10\ngauge server.outstanding 0\n\
             histogram server.stage.parse_ns count 4 sum 400 min 1 max 2 p50 1 p90 1 p99 1 p999 1\n",
        )
        .expect("parses");
        let after = Scrape::parse(
            "# dsq-metrics v1\ncounter server.serve.hits 25\n\
             histogram server.stage.parse_ns count 6 sum 1000 min 1 max 9 p50 9 p90 9 p99 9 p999 9\n",
        )
        .expect("parses");
        assert_eq!(before.counter_delta(&after, "server.serve.hits"), 15);
        assert_eq!(before.histogram_mean_delta(&after, "server.stage.parse_ns"), 300.0);
        assert_eq!(before.histogram_mean_delta(&after, "absent"), 0.0);
        assert!(Scrape::parse("counter x notanumber\n").is_err());
    }
}
