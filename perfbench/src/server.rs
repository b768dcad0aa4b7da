//! The `xinsight-serve` process under test: spawn, scrape, stop.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use xinsight_service::HttpClient;

pub struct Server {
    child: Child,
    /// Held open so the server's shutdown message has a reader.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

/// A `/metrics` scrape: every sample line, keyed by its full series name
/// (`name{labels}`).
pub type Scrape = BTreeMap<String, f64>;

impl Server {
    /// Starts `bin` over the bundles in `models` and waits for its
    /// listening banner.  `nice` execs the server, so the child's pid is
    /// the server's.
    pub fn spawn(
        bin: &Path,
        models: &Path,
        cache_mb: usize,
        compact_after: usize,
    ) -> Result<Self, String> {
        // Under `nice`, so the load generator sharing these cores is
        // scheduled promptly when a send is due.
        let mut child = Command::new("nice")
            .args(["-n", "10"])
            .arg(bin)
            .args([
                "--models",
                &models.to_string_lossy(),
                "--addr",
                "127.0.0.1:0",
            ])
            .args(["--cache-mb", &cache_mb.to_string()])
            .args(["--compact-after", &compact_after.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("xinsight-serve printed no banner (got {line:?})"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn get(&self, path: &str) -> Result<String, String> {
        let response = HttpClient::connect(self.addr)
            .and_then(|mut c| c.get(path))
            .map_err(|e| format!("GET {path}: {e}"))?;
        match response.status {
            200 => Ok(response.body),
            s => Err(format!("GET {path}: status {s}")),
        }
    }

    pub fn post(&self, path: &str, body: &str) -> Result<(u16, String), String> {
        HttpClient::connect(self.addr)
            .and_then(|mut c| c.post(path, body))
            .map(|r| (r.status, r.body))
            .map_err(|e| format!("POST {path}: {e}"))
    }

    pub fn scrape(&self) -> Result<Scrape, String> {
        let text = self.get("/metrics")?;
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect())
    }

    /// Graceful shutdown; kills the process if it has not exited in time.
    /// Returns whether it exited cleanly.
    // thread::sleep allowed: a readiness poll on the child's exit.
    #[allow(clippy::disallowed_methods)]
    pub fn stop(mut self) -> bool {
        let _ = self.post("/admin/shutdown", "{}");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return false, // Drop kills and reaps.
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `Δ` of one series between two scrapes (0 when absent).
pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// Mean of a latency histogram over the window, in µs, from its `_sum`
/// (seconds) and `_count` deltas — never from its `le` buckets, whose
/// first edge is 100 µs.
pub fn stage_mean_us(before: &Scrape, after: &Scrape, stage: &str) -> f64 {
    let sum = delta(
        before,
        after,
        &format!("xinsight_stage_latency_seconds_sum{{stage=\"{stage}\"}}"),
    );
    let count = delta(
        before,
        after,
        &format!("xinsight_stage_latency_seconds_count{{stage=\"{stage}\"}}"),
    );
    if count > 0.0 {
        sum / count * 1e6
    } else {
        0.0
    }
}
