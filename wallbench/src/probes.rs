//! Layer micro-probes for the traced run. Each times one public
//! function of one layer, at the sizes the traced phase captured, and
//! reports the median microseconds per call.

use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rover_cluster::counter_object;
use rover_log::{FileStore, StableStore};
use rover_net::{read_frame, write_frame};
use rover_script::{Budget, Value};
use rover_sim::{Clock, SimDuration, WallClock};
use rover_wire::{Envelope, Wire};

use crate::driver::us;
use crate::json::quantile;

/// Median per-call microseconds of `batches` batches of `per` calls.
fn median_us(batches: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per {
                f();
            }
            us(t.elapsed()) / per as f64
        })
        .collect();
    quantile(&mut v, 0.5).unwrap_or(f64::NAN)
}

/// `rover-wire` encode / decode of a captured request envelope.
pub fn codec(env: &Envelope) -> (f64, f64) {
    let bytes = env.to_bytes();
    let enc = median_us(50, 200, || {
        std::hint::black_box(std::hint::black_box(env).to_bytes());
    });
    let dec = median_us(50, 200, || {
        std::hint::black_box(Envelope::from_bytes(std::hint::black_box(&bytes)).is_ok());
    });
    (enc, dec)
}

/// `rover-net` `write_frame` → `read_frame` round trip over a loopback
/// socket pair (an echo thread answers each frame).
pub fn frame_rtt(env: &Envelope) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (mut s, _) = listener.accept().map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut r = s.try_clone().map_err(|e| e.to_string())?;
        while let Ok(env) = read_frame(&mut r) {
            write_frame(&mut s, &env).map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut r = s.try_clone().map_err(|e| e.to_string())?;
    let mut failed = None;
    let rtt = median_us(40, 25, || {
        if let Err(e) = write_frame(&mut s, env).and_then(|_| read_frame(&mut r).map(|_| ())) {
            failed.get_or_insert(e.to_string());
        }
    });
    drop(r);
    let _ = s.shutdown(std::net::Shutdown::Both);
    drop(s);
    echo.join().map_err(|_| "echo thread panicked")??;
    match failed {
        Some(e) => Err(format!("frame round trip: {e}")),
        None => Ok(rtt),
    }
}

/// `rover-log` `FileStore` append + `sync` of `record` bytes, and
/// `reset` of an `image`-byte checkpoint, in `dir` (the WAL's own
/// directory, so the same filesystem).
pub fn log(dir: &Path, record: usize, image: usize) -> Result<(f64, f64), String> {
    let path = dir.join("probe.wal");
    let mut st = FileStore::open(&path).map_err(|e| format!("probe wal: {e:?}"))?;
    let rec = vec![0x5a_u8; record.max(1)];
    let img = vec![0xa5_u8; image.max(1)];
    let mut err = None;
    let fsync = median_us(60, 1, || {
        if let Err(e) = st.append(&rec).and_then(|_| st.sync().map(|_| ())) {
            err.get_or_insert(format!("{e:?}"));
        }
    });
    let ckpt = median_us(30, 1, || {
        if let Err(e) = st.reset(&img) {
            err.get_or_insert(format!("{e:?}"));
        }
    });
    drop(st);
    let _ = std::fs::remove_file(&path);
    match err {
        Some(e) => Err(format!("log probe: {e}")),
        None => Ok((fsync, ckpt)),
    }
}

/// `rover-script` through `RoverObject::run_method` on the counter RDO:
/// `add 1` and `get`.
pub fn script() -> Result<(f64, f64), String> {
    let mut obj = counter_object();
    let one = [Value::str("1")];
    let mut err = None;
    let add = median_us(50, 200, || {
        if let Err(e) = obj.run_method("add", &one, Budget::default()) {
            err.get_or_insert(e.to_string());
        }
    });
    let get = median_us(50, 200, || {
        if let Err(e) = obj.run_method("get", &[], Budget::default()) {
            err.get_or_insert(e.to_string());
        }
    });
    match err {
        Some(e) => Err(format!("script probe: {e}")),
        None => Ok((add, get)),
    }
}

/// `rover-sim` cross-thread `WallClock::notify` → `wait_until` return.
pub fn wake_latency() -> Result<f64, String> {
    const ROUNDS: usize = 200;
    let clock = WallClock::new();
    let remote = clock.clone();
    // The notifier stamps the clock time just before each notify; the
    // waiter reads its own time on return.
    let stamp = Arc::new(AtomicU64::new(u64::MAX));
    let stop = Arc::new(AtomicBool::new(false));
    let (s2, stop2) = (stamp.clone(), stop.clone());
    let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
    let notifier = std::thread::spawn(move || {
        while go_rx.recv().is_ok() && !stop2.load(Ordering::SeqCst) {
            // Let the waiter block before the notify.
            std::thread::sleep(Duration::from_micros(300));
            s2.store(remote.now().as_micros(), Ordering::SeqCst);
            remote.notify();
        }
    });
    let mut v = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        stamp.store(u64::MAX, Ordering::SeqCst);
        go_tx.send(()).map_err(|_| "notifier thread gone")?;
        let far = clock.now() + SimDuration::from_secs(5);
        let woke = clock.wait_until(Some(far));
        let sent = stamp.load(Ordering::SeqCst);
        if sent != u64::MAX && woke.as_micros() >= sent {
            v.push((woke.as_micros() - sent) as f64);
        }
    }
    stop.store(true, Ordering::SeqCst);
    drop(go_tx);
    notifier.join().map_err(|_| "notifier thread panicked")?;
    quantile(&mut v, 0.5).ok_or_else(|| "no wake samples".into())
}
