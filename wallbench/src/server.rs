//! The server under test: an unmodified `rover-cluster server` process,
//! launched with deployment flags only and observed from outside
//! through `/proc`, its SIGTERM summary line and an offline WAL dump.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`.
pub const CLK_TCK: f64 = 100.0;

/// How long a server may take to publish its address or to exit.
const START_TIMEOUT: Duration = Duration::from_secs(20);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

#[allow(unsafe_code)]
mod sys {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }

    pub const SIGTERM: i32 = 15;

    /// Sends `sig` to `pid`; `false` if the call failed.
    pub fn signal(pid: u32, sig: i32) -> bool {
        let Ok(pid) = i32::try_from(pid) else {
            return false;
        };
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // this process; `pid` is a child this process spawned and has
        // not yet reaped, so it cannot name an unrelated process.
        unsafe { kill(pid, sig) == 0 }
    }
}

/// CPU and scheduling counters of the server process at one instant.
#[derive(Clone, Copy, Debug)]
pub struct ProcSample {
    pub at: Instant,
    /// utime + stime over all threads, in clock ticks.
    pub cpu_ticks: u64,
    /// Voluntary + involuntary context switches summed over live threads.
    pub ctxsw: u64,
}

impl ProcSample {
    /// Reads the counters of process `pid` (`"self"` for this process).
    pub fn read(pid: &str) -> Result<ProcSample, String> {
        let at = Instant::now();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed stat line")?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("stat field {i} missing"))
        };
        let cpu_ticks = tick(11)? + tick(12)?;
        let mut ctxsw = 0;
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
            for t in tasks.flatten() {
                let status = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
                ctxsw += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
                    + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
            }
        }
        Ok(ProcSample {
            at,
            cpu_ticks,
            ctxsw,
        })
    }
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`: steal is time
/// the hypervisor ran something else while this machine wanted a CPU.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*f.get(7)?, f.iter().sum()))
}

/// Parses `Name:   123 kB` style lines of `/proc/<pid>/status`.
fn status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let v = l.strip_prefix(name)?.strip_prefix(':')?;
        v.split_whitespace().next()?.parse().ok()
    })
}

/// The counters the server prints on graceful shutdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExitSummary {
    pub requests: u64,
    pub group_commits: u64,
    pub checkpoints: u64,
}

/// What `rover-cluster dump` recovers from a WAL, offline.
#[derive(Clone, Copy, Debug)]
pub struct Dump {
    pub counter: u64,
    pub snapshot_bytes: u64,
}

/// A running `rover-cluster server` child.
pub struct ServerProc {
    child: Option<Child>,
    pub wal: PathBuf,
    pub addr: String,
    pub spawned_at: Instant,
}

impl ServerProc {
    /// Spawns a server on a fresh WAL in `dir` and waits until it has
    /// published its bound address.
    pub fn start(bin: &Path, dir: &Path) -> Result<ServerProc, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let wal = dir.join("server.wal");
        let addr_file = dir.join("server.addr");
        for stale in [&wal, &addr_file] {
            let _ = std::fs::remove_file(stale);
        }
        let spawned_at = Instant::now();
        let child = Command::new(bin)
            .arg("server")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--wal")
            .arg(&wal)
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut srv = ServerProc {
            child: Some(child),
            wal,
            addr: String::new(),
            spawned_at,
        };
        loop {
            // The server writes the file atomically (tmp + rename), so a
            // non-empty read is the whole address.
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.trim().is_empty() {
                    srv.addr = a.trim().to_string();
                    break;
                }
            }
            if let Some(st) = srv.child_mut()?.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("server exited before listening: {st}"));
            }
            if spawned_at.elapsed() > START_TIMEOUT {
                return Err("server did not publish its address".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        if !srv.addr.starts_with("127.") {
            return Err(format!("server bound a non-loopback address {}", srv.addr));
        }
        Ok(srv)
    }

    fn child_mut(&mut self) -> Result<&mut Child, String> {
        self.child
            .as_mut()
            .ok_or_else(|| "server already stopped".into())
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    pub fn sample(&self) -> Result<ProcSample, String> {
        ProcSample::read(&self.pid())
    }

    /// Peak resident set size (VmHWM) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read server status: {e}"))?;
        let kb = status_field(&status, "VmHWM").ok_or("VmHWM missing")?;
        Ok(kb as f64 / 1024.0)
    }

    /// Current WAL file length (0 while it is being replaced).
    pub fn wal_len(&self) -> u64 {
        std::fs::metadata(&self.wal).map_or(0, |m| m.len())
    }

    /// Graceful stop: SIGTERM, wait for exit, parse the summary line.
    pub fn stop(mut self) -> Result<ExitSummary, String> {
        let mut child = self.child.take().ok_or("server already stopped")?;
        if !sys::signal(child.id(), sys::SIGTERM) {
            let _ = child.kill();
            let _ = child.wait();
            return Err("could not signal the server".into());
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            if let Some(st) = child.try_wait().map_err(|e| e.to_string())? {
                break st;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server did not exit after SIGTERM".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let mut out = String::new();
        if let Some(mut so) = child.stdout.take() {
            let _ = so.read_to_string(&mut out);
        }
        if !status.success() {
            return Err(format!("server exited with {status}: {out}"));
        }
        parse_summary(&out)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn kv(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

fn parse_summary(out: &str) -> Result<ExitSummary, String> {
    let line = out
        .lines()
        .find(|l| l.starts_with("server:"))
        .ok_or_else(|| format!("no summary line in server output: {out:?}"))?;
    let get = |k: &str| kv(line, k).ok_or_else(|| format!("summary lacks {k}: {line}"));
    Ok(ExitSummary {
        requests: get("requests")?,
        group_commits: get("group_commits")?,
        checkpoints: get("checkpoints")?,
    })
}

/// Runs `rover-cluster dump --wal F` and parses its one-line report.
pub fn dump_wal(bin: &Path, wal: &Path) -> Result<Dump, String> {
    let out = Command::new(bin)
        .arg("dump")
        .arg("--wal")
        .arg(wal)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn dump: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "dump failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(Dump {
        counter: kv(&text, "counter_n").ok_or_else(|| format!("dump output: {text}"))?,
        snapshot_bytes: kv(&text, "snapshot_bytes")
            .ok_or_else(|| format!("dump output: {text}"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_exit_summary() {
        let s = parse_summary(
            "server: recovered=0 requests=41 group_commits=7 checkpoints=2 connections=1\n",
        )
        .unwrap();
        assert_eq!((s.requests, s.group_commits, s.checkpoints), (41, 7, 2));
        assert!(parse_summary("nothing\n").is_err());
    }

    #[test]
    fn reads_own_proc_counters() {
        let s = ProcSample::read("self").unwrap();
        assert!(s.ctxsw > 0);
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(status_field(&status, "VmHWM").unwrap() > 0);
    }
}
