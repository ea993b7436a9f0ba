//! The program under test as a separate process: `hlm serve` spawned on
//! the generated inputs, timed from spawn to its first `/readyz` 200,
//! scraped through `/metrics`, and always killed and reaped.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;

/// Longest a server may take to become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(150);

/// A running `hlm serve`.
pub struct ServerProc {
    child: Child,
    log: PathBuf,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Spawn to first `/readyz` 200, seconds.
    pub setup_s: f64,
}

impl ServerProc {
    /// Spawns `hlm serve` on `data` (with `--checkpoint-dir ckpt` when
    /// given) and waits until it answers `/readyz` with 200. `work` holds
    /// the port file and the server's log.
    pub fn start(
        hlm: &Path,
        data: &Path,
        ckpt: Option<&Path>,
        work: &Path,
    ) -> Result<ServerProc, String> {
        let port_file = work.join("server.port");
        let log = work.join("server.log");
        let _ = std::fs::remove_file(&port_file);
        let log_file =
            std::fs::File::create(&log).map_err(|e| format!("cannot create server log: {e}"))?;
        let log_err = log_file
            .try_clone()
            .map_err(|e| format!("cannot share server log: {e}"))?;
        let mut cmd = Command::new(hlm);
        cmd.arg("serve")
            .arg("--data")
            .arg(data)
            .args(["--port", "0", "--port-file"])
            .arg(&port_file);
        if let Some(dir) = ckpt {
            cmd.arg("--checkpoint-dir").arg(dir);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::from(log_file))
            .stderr(Stdio::from(log_err));

        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", hlm.display()))?;
        // From here on the Drop guard kills the child on every early return.
        let mut proc = ServerProc {
            child,
            log,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        loop {
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!(
                    "hlm serve exited with {status}: {}",
                    proc.log_tail()
                ));
            }
            if t0.elapsed() > READY_TIMEOUT {
                return Err(format!("hlm serve not ready after {READY_TIMEOUT:?}"));
            }
            if proc.addr.port() == 0 {
                if let Some(port) = std::fs::read_to_string(&port_file)
                    .ok()
                    .and_then(|s| s.trim().parse::<u16>().ok())
                {
                    proc.addr.set_port(port);
                }
            }
            if proc.addr.port() != 0 {
                if let Ok(reply) = http::one_shot(proc.addr, "GET", "/readyz") {
                    if reply.status == 200 {
                        proc.setup_s = t0.elapsed().as_secs_f64();
                        return Ok(proc);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The server's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id())
    }

    /// A parsed `/metrics` scrape.
    pub fn metrics(&self) -> Result<Prom, String> {
        let reply = http::one_shot(self.addr, "GET", "/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if reply.status != 200 {
            return Err(format!("GET /metrics answered {}", reply.status));
        }
        Ok(Prom::parse(&String::from_utf8_lossy(&reply.body)))
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of process `pid`, MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// A Prometheus text scrape: plain samples by name, plus the exported
/// span durations by path.
#[derive(Debug, Default)]
pub struct Prom {
    samples: BTreeMap<String, f64>,
    /// `(path, milliseconds)` of every exported span, in export order.
    pub spans: Vec<(String, f64)>,
}

impl Prom {
    /// Parses the text format `hlm-obs` renders.
    pub fn parse(text: &str) -> Prom {
        let mut p = Prom::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if let Some(labels) = name.strip_prefix("hlm_span_duration_ms{path=\"") {
                if let Some((path, _)) = labels.split_once('"') {
                    p.spans.push((path.to_string(), value));
                }
            } else if !name.contains('{') {
                p.samples.insert(name.to_string(), value);
            }
        }
        p
    }

    /// A counter, gauge or histogram field by its `hlm-obs` name
    /// (`serve.cache_hit`, `serve.e2e_seconds_sum`, …); 0 when absent.
    pub fn get(&self, obs_name: &str) -> f64 {
        let prom: String = obs_name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        self.samples
            .get(&format!("hlm_{prom}"))
            .copied()
            .unwrap_or(0.0)
    }

    /// Total duration of exported spans with this exact path, ms.
    pub fn span_ms(&self, path: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(p, _)| p == path)
            .map(|(_, ms)| ms)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_histograms_and_spans() {
        let text = "# TYPE hlm_serve_cache_hit counter\nhlm_serve_cache_hit 41\n\
                    hlm_serve_e2e_seconds_bucket{le=\"1e-3\"} 3\n\
                    hlm_serve_e2e_seconds_sum 0.25\nhlm_serve_e2e_seconds_count 5\n\
                    hlm_span_duration_ms{path=\"engine.fit_lda_resilient\",seq=\"7\"} 1234.5\n";
        let p = Prom::parse(text);
        assert_eq!(p.get("serve.cache_hit"), 41.0);
        assert_eq!(p.get("serve.e2e_seconds_sum"), 0.25);
        assert_eq!(p.get("serve.e2e_seconds_count"), 5.0);
        assert_eq!(p.get("serve.shed"), 0.0);
        assert_eq!(p.span_ms("engine.fit_lda_resilient"), 1234.5);
    }
}
