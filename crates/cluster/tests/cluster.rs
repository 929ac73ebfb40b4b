//! Process-level chaos tests: real `rover-cluster` binaries over real
//! TCP and a real fsync'd WAL, with `kill -9` mid-run.
//!
//! The invariant under test is the toolkit's end-to-end exactly-once
//! story: a counter driven by N `add 1` exports must recover to exactly
//! N after any crash/restart sequence (n < N would be a lost replied
//! commit, n > N a re-execution), and replied commits must never be
//! lost even when *both* processes die without warning.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_rover-cluster");

/// A scratch directory plus the processes launched into it. Child
/// processes are killed on drop so a failing test can't leak servers.
struct TestCluster {
    dir: PathBuf,
    addr: String,
    children: Vec<Child>,
}

impl Drop for TestCluster {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl TestCluster {
    /// Creates the scratch dir and boots the first server on an
    /// OS-assigned port, recording the bound address for reconnects.
    fn boot(name: &str) -> TestCluster {
        let dir = std::env::temp_dir().join(format!("rover-cluster-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        let mut tc = TestCluster {
            dir,
            addr: String::new(),
            children: Vec::new(),
        };
        let addr_file = tc.dir.join("addr.txt");
        tc.spawn_server("127.0.0.1:0", Some(&addr_file));
        tc.addr = wait_for_file(&addr_file, Duration::from_secs(10))
            .expect("server never wrote its address");
        tc
    }

    fn wal(&self) -> PathBuf {
        self.dir.join("w.wal")
    }

    fn spawn_server(&mut self, listen: &str, addr_file: Option<&Path>) -> usize {
        let mut cmd = Command::new(BIN);
        cmd.arg("server")
            .arg("--listen")
            .arg(listen)
            .arg("--wal")
            .arg(self.wal())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(f) = addr_file {
            cmd.arg("--addr-file").arg(f);
        }
        self.children.push(cmd.spawn().expect("spawn server"));
        self.children.len() - 1
    }

    /// Restarts a server on the *same* address, recovering the WAL.
    fn respawn_server(&mut self) -> usize {
        let addr = self.addr.clone();
        self.spawn_server(&addr, None)
    }

    fn spawn_client(&mut self, ops: u64, progress: &Path, extra: &[&str]) -> usize {
        let mut cmd = Command::new(BIN);
        cmd.arg("client")
            .arg("--connect")
            .arg(&self.addr)
            .arg("--ops")
            .arg(ops.to_string())
            .arg("--progress")
            .arg(progress)
            .arg("--deadline-s")
            .arg("120")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        cmd.args(extra);
        self.children.push(cmd.spawn().expect("spawn client"));
        self.children.len() - 1
    }

    /// SIGKILL: the process gets no chance to flush or say goodbye.
    fn kill9(&mut self, idx: usize) {
        self.children[idx].kill().expect("kill -9");
        let _ = self.children[idx].wait();
    }

    /// SIGTERM: asks for the graceful flush-and-checkpoint shutdown.
    fn sigterm(&self, idx: usize) {
        let pid = self.children[idx].id().to_string();
        let ok = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
    }

    /// Waits for a child to exit, returning (success, stdout).
    fn wait_exit(&mut self, idx: usize, timeout: Duration) -> (bool, String) {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.children[idx].try_wait().expect("try_wait") {
                let mut out = String::new();
                if let Some(s) = self.children[idx].stdout.as_mut() {
                    let _ = s.read_to_string(&mut out);
                }
                let mut err = String::new();
                if let Some(s) = self.children[idx].stderr.as_mut() {
                    let _ = s.read_to_string(&mut err);
                }
                if !err.is_empty() {
                    out.push_str(&err);
                }
                return (status.success(), out);
            }
            assert!(
                Instant::now() < deadline,
                "child {idx} did not exit in time"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Recovers the WAL offline; returns (counter_n, snapshot_hex).
    fn dump(&self) -> (u64, String) {
        let out_file = self.dir.join("snap.hex");
        let out = Command::new(BIN)
            .arg("dump")
            .arg("--wal")
            .arg(self.wal())
            .arg("--out")
            .arg(&out_file)
            .output()
            .expect("run dump");
        assert!(
            out.status.success(),
            "dump failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let n = stdout
            .split_whitespace()
            .find_map(|t| t.strip_prefix("counter_n="))
            .and_then(|v| v.parse().ok())
            .expect("counter_n in dump output");
        let hex = std::fs::read_to_string(&out_file).expect("snapshot file");
        (n, hex)
    }
}

/// Polls `path` until it exists with non-empty contents.
fn wait_for_file(path: &Path, timeout: Duration) -> Option<String> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Ok(s) = std::fs::read_to_string(path) {
            if !s.is_empty() {
                return Some(s);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

/// Polls a progress file until the committed count reaches `min`.
fn wait_progress(path: &Path, min: u64, timeout: Duration) -> u64 {
    let deadline = Instant::now() + timeout;
    loop {
        let p: u64 = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        if p >= min {
            return p;
        }
        assert!(
            Instant::now() < deadline,
            "progress stalled at {p} (wanted {min})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The headline chaos test: `kill -9` the server mid-sync, restart it
/// on the same WAL, and require the client to converge on *exactly* N
/// commits — nothing lost, nothing executed twice.
#[test]
fn kill9_mid_sync_loses_nothing_and_reexecutes_nothing() {
    const OPS: u64 = 6_000;
    let mut tc = TestCluster::boot("kill9");
    let progress = tc.dir.join("prog.txt");
    let client = tc.spawn_client(OPS, &progress, &[]);

    // Let a real sync get going, then yank the server hard.
    let at_kill = wait_progress(&progress, OPS / 4, Duration::from_secs(60));
    tc.kill9(0);
    assert!(at_kill < OPS, "client finished before the kill landed");

    // Same WAL, same address: the client's reconnect loop finds it.
    let server2 = tc.respawn_server();
    let (ok, out) = tc.wait_exit(client, Duration::from_secs(120));
    assert!(ok, "client failed after server restart: {out}");
    assert!(
        out.contains("committed=6000"),
        "client summary wrong: {out}"
    );
    // The outage must actually have exercised the recovery machinery.
    let reconnects: u64 = out
        .split_whitespace()
        .find_map(|t| t.strip_prefix("reconnects="))
        .and_then(|v| v.parse().ok())
        .expect("reconnects in summary");
    assert!(reconnects >= 1, "client never reconnected: {out}");

    // Graceful shutdown of the survivor, then offline recovery checks.
    tc.sigterm(server2);
    let (ok, out) = tc.wait_exit(server2, Duration::from_secs(30));
    assert!(ok, "server shutdown failed: {out}");
    let (n, hex1) = tc.dump();
    assert_eq!(n, OPS, "counter diverged from the op count");
    // Recovery is deterministic: two replays, byte-identical state.
    let (n2, hex2) = tc.dump();
    assert_eq!(n2, OPS);
    assert_eq!(hex1, hex2, "recovered state snapshots differ");
}

/// Kill *both* processes mid-flush: every commit the client observed as
/// replied (recorded in its progress file) must already be durable in
/// the WAL — a reply is only sent after fsync.
#[test]
fn kill9_both_mid_flush_keeps_all_replied_commits() {
    const OPS: u64 = 6_000;
    let mut tc = TestCluster::boot("bothdie");
    let progress = tc.dir.join("prog.txt");
    let client = tc.spawn_client(OPS, &progress, &[]);

    wait_progress(&progress, OPS / 4, Duration::from_secs(60));
    tc.kill9(0); // server first: no shutdown flush
                 // Whatever the progress file says now was replied before the crash.
    let replied = wait_progress(&progress, 0, Duration::from_secs(1));
    tc.kill9(client);

    let (n, _) = tc.dump();
    assert!(
        n >= replied,
        "lost replied commits: recovered {n} < replied {replied}"
    );
    assert!(n <= OPS, "recovered more commits than were ever issued");
}

/// SIGTERM path: a graceful shutdown flushes any staged commits and
/// checkpoints, so the workload ends with durable state equal to
/// everything committed.
#[test]
fn sigterm_flushes_and_checkpoints_before_exit() {
    const OPS: u64 = 300;
    let mut tc = TestCluster::boot("sigterm");
    let progress = tc.dir.join("prog.txt");
    let client = tc.spawn_client(OPS, &progress, &[]);
    let (ok, out) = tc.wait_exit(client, Duration::from_secs(60));
    assert!(ok, "client failed: {out}");

    tc.sigterm(0);
    let (ok, out) = tc.wait_exit(0, Duration::from_secs(30));
    assert!(ok, "server shutdown failed: {out}");
    // The shutdown checkpoint is visible in the summary counters.
    let checkpoints: u64 = out
        .split_whitespace()
        .find_map(|t| t.strip_prefix("checkpoints="))
        .and_then(|v| v.parse().ok())
        .expect("checkpoints in summary");
    assert!(checkpoints >= 1, "no checkpoint written: {out}");

    let (n, _) = tc.dump();
    assert_eq!(n, OPS);
}
