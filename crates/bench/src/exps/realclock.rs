//! `s4-realclock`: the toolkit's first *wall-clock* numbers.
//!
//! Every other experiment reports virtual time from the discrete-event
//! simulator. This one runs the identical client/server state machines
//! through the `rover-cluster` runtime — a real TCP socket pair on
//! loopback, a real `fsync`'d WAL file, wall-clock timers — and
//! measures end-to-end group-committed throughput.
//!
//! Wall-clock measurements are inherently machine- and load-dependent,
//! so the *report text* carries only the deterministic facts (workload
//! shape and exactness invariants) — keeping serial/parallel harness
//! output byte-identical — while the measured figures go to the JSON
//! metrics (`s4.*`).
//!
//! Invariants gated here (panic on violation):
//! - the client drives all N ops to durable commit (`committed == N`);
//! - recovering the WAL offline yields counter `n == N` — nothing
//!   lost, nothing executed twice — and a second recovery of the same
//!   file produces a byte-identical state snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rover_cluster::{
    recover_snapshot, run_client, run_server, ClientOpts, ServerOpts, COMMIT_BATCH,
};

use crate::report::Report;
use crate::table::Table;

const OPS: u64 = 2_000;
const WINDOW: usize = 16;

/// Distinguishes concurrent harness invocations (serial and `--jobs N`
/// runs of the same binary, or two harnesses racing in CI).
fn scratch_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rover-s4-{}-{n}", std::process::id()))
}

pub fn s4_realclock(r: &mut Report) {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("s4 scratch dir");
    let wal = dir.join("s4.wal");
    let addr_file = dir.join("addr.txt");

    let opts = ServerOpts {
        listen: "127.0.0.1:0".into(),
        wal: wal.clone(),
        checkpoint_every: 256,
        addr_file: Some(addr_file.clone()),
        tick: Duration::from_millis(5),
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let server = std::thread::spawn(move || run_server(&opts, flag));

    // The server publishes its bound port once listening.
    let addr = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if !s.is_empty() => break s,
                _ => {
                    assert!(Instant::now() < deadline, "s4: server never published addr");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    };

    let t0 = Instant::now();
    let summary = run_client(&ClientOpts {
        connect: addr,
        host_id: 1,
        ops: OPS,
        window: WINDOW,
        progress: None,
        rto: Duration::from_millis(200),
        tick: Duration::from_millis(5),
        deadline: Duration::from_secs(120),
    })
    .unwrap_or_else(|e| panic!("s4-realclock client failed: {e}"));
    let wall = t0.elapsed();

    shutdown.store(true, Ordering::SeqCst);
    let server_summary = server
        .join()
        .expect("s4 server thread panicked")
        .unwrap_or_else(|e| panic!("s4-realclock server failed: {e}"));

    // Exactness gates on the real filesystem artifact.
    if summary.committed != OPS {
        panic!("s4-realclock: {}/{OPS} ops committed", summary.committed);
    }
    let (snap1, n1) = recover_snapshot(&wal).expect("s4 recover");
    let (snap2, n2) = recover_snapshot(&wal).expect("s4 recover (2nd)");
    if n1 != OPS || n2 != OPS {
        panic!("s4-realclock: recovered counter {n1}/{n2}, expected {OPS}");
    }
    if snap1 != snap2 {
        panic!("s4-realclock: offline recovery is not deterministic");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut t = Table::new(
        "S4 — real-clock runtime: group-committed throughput over real \
         TCP + fsync'd WAL (loopback, 1 client)",
        &["arm", "ops", "committed", "recovered n", "exactly-once"],
    );
    t.row(vec![
        format!("tcp+fsync g{COMMIT_BATCH} w{WINDOW}"),
        OPS.to_string(),
        summary.committed.to_string(),
        n1.to_string(),
        "pass".into(),
    ]);
    r.table(&t);

    let secs = (wall.as_micros() as f64 / 1e6).max(1e-9);
    r.metric("s4.ops", OPS as f64);
    r.metric("s4.wall_ms", wall.as_micros() as f64 / 1e3);
    r.metric("s4.ops_per_s", OPS as f64 / secs);
    r.metric("s4.group_commits", server_summary.group_commits as f64);
    r.metric("s4.checkpoints", server_summary.checkpoints as f64);
    r.metric("s4.retransmits", summary.retransmits as f64);
}
