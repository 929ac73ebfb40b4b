//! The three workloads, each a different traffic mix of the same three
//! application operations on the counter RDO:
//!
//! - `export add 1` (tentative apply now, QRPC commit later),
//! - `invoke_local get` on the cached copy (no network),
//! - `invoke_remote get` (function shipping to the home server).
//!
//! Every workload issues all three, so every end-to-end metric is
//! measured on every workload; the mix and the connectivity schedule
//! decide which layer dominates.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rover_cluster::counter_urn;
use rover_core::{Client, OpStatus, Priority, Urn};

use crate::driver::{ns_since, us, Session, Trace};
use crate::gate::Gate;
use crate::json::quantile;
use crate::server::{dump_wal, host_cpu_ticks, Dump, ExitSummary, ProcSample, ServerProc};

/// Server spawns per phase; `setup_s` is the fastest of them.
pub const SETUPS: usize = 61;
/// `interactive`: Poisson arrivals, one operation per 5 ms on average
/// (200 ops/s), open loop.
const INTERACTIVE_PERIOD_US: u64 = 5_000;
/// `saturate`: exports kept in flight, closed loop.
const SATURATE_WINDOW: usize = 256;
/// `saturate`: one read probe (local or remote) every 10 ms.
const SATURATE_PROBE_US: u64 = 10_000;
/// `reintegrate`: exports queued per disconnection.
const BACKLOG: usize = 2_000;
/// `reintegrate`: one remote read every 20 ms while the backlog drains.
const REINTEGRATE_PROBE_US: u64 = 20_000;
/// Upper bound on draining the last operations after the measurement.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Saturate,
    Reintegrate,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "interactive" => Some(Workload::Interactive),
            "saturate" => Some(Workload::Saturate),
            "reintegrate" => Some(Workload::Reintegrate),
            _ => None,
        }
    }
}

/// splitmix64: the workload's only source of randomness, seeded from
/// `--seed`, so the same seed issues the same operation sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Exponentially distributed with mean `mean` (Poisson arrivals).
    pub fn exp(&mut self, mean: u64) -> u64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        (-(1.0 - u).ln() * mean as f64) as u64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An operation mix: a fixed block of kinds dealt in a seeded order,
/// reshuffled when used up, so the proportions are exact per block and
/// only the order depends on the seed.
struct Mix {
    block: Vec<Kind>,
    deck: Vec<Kind>,
}

impl Mix {
    fn new(parts: &[(Kind, usize)]) -> Mix {
        let block = parts
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        Mix {
            block,
            deck: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> Kind {
        if self.deck.is_empty() {
            self.deck = self.block.clone();
            for i in (1..self.deck.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("mix block is non-empty")
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Export,
    Local,
    Remote,
}

/// One application operation as the client observed it (nanoseconds
/// on the session's wall clock, [`Session::ns`]).
#[derive(Clone, Debug)]
pub struct OpRec {
    pub kind: Kind,
    /// When it was due: its open-loop slot, or its issue time.
    pub due: u64,
    /// When it could first reach the server: `due`, or link-up for an
    /// export queued while offline.
    pub sendable: u64,
    /// The QRPC request id (exports only).
    pub req: u64,
    pub tentative: Option<u64>,
    pub done: Option<u64>,
    pub ok: bool,
}

/// Operation log shared with the promise callbacks.
#[derive(Default)]
pub struct Ops {
    pub recs: Vec<OpRec>,
    pub exports_issued: u64,
    pub exports_in_flight: usize,
    pub remote_pending: usize,
    /// Highest `invoke_remote get` value observed so far.
    pub last_read: Option<u64>,
    /// Monotonic-read or read-bound violations, as observed.
    pub violations: Vec<String>,
}

/// The application: a client session plus its operation log.
pub struct App {
    pub s: Session,
    pub ops: Rc<RefCell<Ops>>,
    urn: Urn,
}

impl App {
    fn new(s: Session) -> App {
        App {
            s,
            ops: Rc::new(RefCell::new(Ops::default())),
            urn: counter_urn(),
        }
    }

    fn push(&self, kind: Kind, due: u64, req: u64) -> usize {
        let mut ops = self.ops.borrow_mut();
        ops.recs.push(OpRec {
            kind,
            due,
            sendable: due,
            req,
            tentative: None,
            done: None,
            ok: false,
        });
        ops.recs.len() - 1
    }

    fn export(&mut self, due: u64) -> Result<usize, String> {
        let started = Instant::now();
        let h = Client::export(
            &self.s.client,
            &mut self.s.sim,
            &self.urn,
            self.s.sid,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .map_err(|e| format!("export: {e}"))?;
        if let Some(tr) = &self.s.trace {
            tr.borrow_mut().export_call_us.push(us(started.elapsed()));
        }
        let i = self.push(Kind::Export, due, h.req.0);
        {
            let mut ops = self.ops.borrow_mut();
            ops.exports_issued += 1;
            ops.exports_in_flight += 1;
        }
        let (ops, epoch) = (self.ops.clone(), self.s.epoch);
        h.tentative.on_ready(&mut self.s.sim, move |_, o| {
            let mut ops = ops.borrow_mut();
            ops.recs[i].tentative = Some(ns_since(epoch));
            if o.status != OpStatus::Ok {
                ops.violations
                    .push(format!("tentative status {:?}", o.status));
            }
        });
        let (ops, epoch) = (self.ops.clone(), self.s.epoch);
        h.committed.on_ready(&mut self.s.sim, move |_, o| {
            let mut ops = ops.borrow_mut();
            ops.exports_in_flight -= 1;
            let r = &mut ops.recs[i];
            r.done = Some(ns_since(epoch));
            r.ok = matches!(o.status, OpStatus::Ok | OpStatus::Resolved);
        });
        Ok(i)
    }

    fn local(&mut self, due: u64) -> Result<usize, String> {
        let started = Instant::now();
        let p = Client::invoke_local(&self.s.client, &mut self.s.sim, &self.urn, "get", &[])
            .map_err(|e| format!("invoke_local: {e}"))?;
        if let Some(tr) = &self.s.trace {
            tr.borrow_mut()
                .invoke_local_call_us
                .push(us(started.elapsed()));
        }
        let i = self.push(Kind::Local, due, 0);
        let (ops, epoch) = (self.ops.clone(), self.s.epoch);
        p.on_ready(&mut self.s.sim, move |_, o| {
            let mut ops = ops.borrow_mut();
            let r = &mut ops.recs[i];
            r.done = Some(ns_since(epoch));
            r.ok = o.status == OpStatus::Ok && o.value.as_str().parse::<u64>().is_ok();
        });
        Ok(i)
    }

    fn remote(&mut self, due: u64) -> Result<usize, String> {
        let p = Client::invoke_remote(
            &self.s.client,
            &mut self.s.sim,
            &self.urn,
            self.s.sid,
            "get",
            &[],
            Priority::FOREGROUND,
        )
        .map_err(|e| format!("invoke_remote: {e}"))?;
        let i = self.push(Kind::Remote, due, 0);
        self.ops.borrow_mut().remote_pending += 1;
        let (ops, epoch) = (self.ops.clone(), self.s.epoch);
        p.on_ready(&mut self.s.sim, move |_, o| {
            let mut ops = ops.borrow_mut();
            ops.remote_pending -= 1;
            let value = o.value.as_str().parse::<u64>().ok();
            if let Some(v) = value {
                // Checked from what the client observed: reads never go
                // backwards within the session and never exceed the
                // exports issued so far.
                if ops.last_read.is_some_and(|last| v < last) {
                    let last = ops.last_read.unwrap_or(0);
                    ops.violations
                        .push(format!("remote get went backwards: {v} after {last}"));
                }
                if v > ops.exports_issued {
                    let n = ops.exports_issued;
                    ops.violations
                        .push(format!("remote get {v} exceeds {n} exports issued"));
                }
                ops.last_read = Some(ops.last_read.map_or(v, |l| l.max(v)));
            }
            let r = &mut ops.recs[i];
            r.done = Some(ns_since(epoch));
            r.ok = o.status == OpStatus::Ok && value.is_some();
        });
        Ok(i)
    }

    fn all_done(&self) -> bool {
        self.ops.borrow().recs.iter().all(|r| r.done.is_some())
    }
}

/// What one phase (a fresh server, its setups and one measured run of
/// the workload) produced.
pub struct Phase {
    pub setup_s: Vec<f64>,
    pub recs: Vec<OpRec>,
    /// Generator lateness against the open-loop schedule (ms).
    pub lag_ms: Vec<f64>,
    /// See [`commit_rate`].
    pub commit_ops_per_s: f64,
    /// Link up → last backlog export committed, per cycle (`reintegrate`).
    pub reintegrate_s: Vec<f64>,
    pub server_start: ProcSample,
    pub server_end: ProcSample,
    pub gen_start: ProcSample,
    pub gen_end: ProcSample,
    pub server_rss_mb: f64,
    /// Host CPU steal while measured (% of all CPU time).
    pub steal_pct: f64,
    pub summary: ExitSummary,
    pub dump: Dump,
    pub retransmits: u64,
    pub trace: Option<Trace>,
    pub gate: Gate,
}

impl Phase {
    /// QRPCs the measured client issued (exports + remote invokes).
    pub fn qrpc_ops(&self) -> u64 {
        self.recs.iter().filter(|r| r.kind != Kind::Local).count() as u64
    }
}

/// Spawns a server and connects a client application; returns once the
/// counter import has resolved, with the elapsed set-up seconds.
fn setup(bin: &Path, dir: &Path, traced: bool) -> Result<(ServerProc, App, f64), String> {
    let srv = ServerProc::start(bin, dir)?;
    let mut app = App::new(Session::connect(&srv.addr, traced));
    let p = Client::import(
        &app.s.client,
        &mut app.s.sim,
        &counter_urn(),
        app.s.sid,
        Priority::FOREGROUND,
    )
    .map_err(|e| format!("import: {e}"))?;
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        app.s.pump();
        if let Some(o) = p.poll() {
            if o.status != OpStatus::Ok {
                return Err(format!("import failed: {:?}", o.status));
            }
            break;
        }
        if Instant::now() > deadline {
            return Err("import did not resolve".into());
        }
        app.s.sleep(None);
    }
    let took = srv.spawned_at.elapsed().as_secs_f64();
    Ok((srv, app, took))
}

/// A set-up with no run: spawn, import, stop. The WAL must recover to 0.
fn setup_only(bin: &Path, dir: &Path, gate: &mut Gate) -> Result<f64, String> {
    let (srv, app, took) = setup(bin, dir, false)?;
    app.s.close();
    let wal = srv.wal.clone();
    srv.stop()?;
    gate.expect_counter(0, dump_wal(bin, &wal)?.counter);
    Ok(took)
}

/// Runs one phase of `w` for `seconds`, on a fresh server under `dir`.
pub fn run_phase(
    w: Workload,
    bin: &Path,
    dir: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Phase, String> {
    let mut gate = Gate::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    // Half the set-ups before the measured run and half after it, so
    // the fastest is taken from two moments of the host's load.
    let before = (SETUPS - 1) / 2;
    for k in 0..before {
        setup_s.push(setup_only(bin, &dir.join(format!("setup{k}")), &mut gate)?);
    }
    let (srv, mut app, took) = setup(bin, &dir.join("run"), traced)?;
    setup_s.push(took);

    let mut rng = Rng::new(seed);
    let server_start = srv.sample()?;
    let gen_start = ProcSample::read("self")?;
    let host_start = host_cpu_ticks();
    let span = seconds * 1_000_000_000;
    let mut m = Measured::default();
    match w {
        Workload::Interactive => interactive(&mut app, &srv, span, &mut rng, &mut m)?,
        Workload::Saturate => saturate(&mut app, &srv, span, &mut rng, &mut m)?,
        Workload::Reintegrate => reintegrate(&mut app, &srv, span, &mut rng, &mut m)?,
    }
    let server_end = srv.sample()?;
    let gen_end = ProcSample::read("self")?;
    let steal_pct = match (host_start, host_cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64,
        _ => f64::NAN,
    };

    // Let every issued operation resolve; an unresolved one fails the
    // gate below.
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !app.all_done() && Instant::now() < deadline {
        app.s.pump();
        app.s.sleep(None);
    }
    let server_rss_mb = srv.peak_rss_mb()?;
    let retransmits = app.s.sim.stats.counter("client.retransmits");
    let trace = app
        .s
        .trace
        .take()
        .map(|t| std::mem::take(&mut *t.borrow_mut()));
    let ops = std::mem::take(&mut *app.ops.borrow_mut());
    app.s.close();
    let wal = srv.wal.clone();
    let summary = srv.stop()?;
    let dump = dump_wal(bin, &wal)?;
    for k in before..SETUPS - 1 {
        setup_s.push(setup_only(bin, &dir.join(format!("setup{k}")), &mut gate)?);
    }

    let committed_ok = ops
        .recs
        .iter()
        .filter(|r| r.kind == Kind::Export && r.ok)
        .count() as u64;
    gate.expect_counter(committed_ok, dump.counter);
    gate.expect_resolved(&ops.recs);
    gate.note_violations(&ops.violations);

    Ok(Phase {
        setup_s,
        lag_ms: m.lag_ms,
        commit_ops_per_s: commit_rate(&ops.recs, &m.periods),
        recs: ops.recs,
        reintegrate_s: m.reintegrate_s,
        server_start,
        server_end,
        gen_start,
        gen_end,
        server_rss_mb,
        steal_pct,
        summary,
        dump,
        retransmits,
        trace,
        gate,
    })
}

#[derive(Default)]
struct Measured {
    lag_ms: Vec<f64>,
    /// Connected periods `(start, end)` in nanoseconds.
    periods: Vec<(u64, u64)>,
    reintegrate_s: Vec<f64>,
}

/// Samples the WAL length for the traced growth total.
fn note_wal(app: &App, srv: &ServerProc) {
    if app.s.trace.is_some() {
        app.s.note_wal_len(srv.wal_len());
    }
}

/// Commit throughput: for each connected period, the exports committed
/// in it ÷ its length; the median over periods. `interactive` and
/// `saturate` have one period (the measurement), `reintegrate` one per
/// reconnection (link up → last backlog export committed).
fn commit_rate(recs: &[OpRec], periods: &[(u64, u64)]) -> f64 {
    let mut rates: Vec<f64> = periods
        .iter()
        .filter(|(a, b)| b > a)
        .map(|&(a, b)| {
            let n = recs
                .iter()
                .filter(|r| r.kind == Kind::Export && r.done.is_some_and(|d| d >= a && d <= b))
                .count();
            n as f64 * 1e9 / (b - a) as f64
        })
        .collect();
    quantile(&mut rates, 0.5).unwrap_or(0.0)
}

/// A user-paced app: Poisson arrivals at 200 ops/s, mostly local
/// reads (60% `invoke_local get`, 20% `invoke_remote get`, 20% `export
/// add 1`). Each operation is timed from its scheduled arrival.
fn interactive(
    app: &mut App,
    srv: &ServerProc,
    span: u64,
    rng: &mut Rng,
    m: &mut Measured,
) -> Result<(), String> {
    let period = INTERACTIVE_PERIOD_US * 1_000;
    let t0 = app.s.ns();
    let end = t0 + span;
    let mut next = t0;
    let mut mix = Mix::new(&[(Kind::Local, 6), (Kind::Remote, 2), (Kind::Export, 2)]);
    while next < end {
        app.s.pump();
        note_wal(app, srv);
        let now = app.s.ns();
        while next <= now && next < end {
            m.lag_ms.push((now - next) as f64 / 1e6);
            match mix.deal(rng) {
                Kind::Local => app.local(next)?,
                Kind::Remote => app.remote(next)?,
                Kind::Export => app.export(next)?,
            };
            next += rng.exp(period);
        }
        app.s.sleep(Some(next));
    }
    m.periods.push((t0, end));
    Ok(())
}

/// Throughput: 256 `export add 1` kept in flight, plus a read probe
/// every 10 ms (local and remote `get` in seeded order).
fn saturate(
    app: &mut App,
    srv: &ServerProc,
    span: u64,
    rng: &mut Rng,
    m: &mut Measured,
) -> Result<(), String> {
    let period = SATURATE_PROBE_US * 1_000;
    let t0 = app.s.ns();
    let end = t0 + span;
    let mut next = t0;
    let mut mix = Mix::new(&[(Kind::Local, 1), (Kind::Remote, 1)]);
    loop {
        app.s.pump();
        note_wal(app, srv);
        let now = app.s.ns();
        if now >= end {
            break;
        }
        while app.ops.borrow().exports_in_flight < SATURATE_WINDOW {
            let at = app.s.ns();
            app.export(at)?;
        }
        while next <= now {
            m.lag_ms.push((now - next) as f64 / 1e6);
            if mix.deal(rng) == Kind::Local {
                app.local(next)?;
            } else {
                app.remote(next)?;
            }
            next += period;
        }
        app.s.sleep(Some(next.min(end)));
    }
    m.periods.push((t0, end));
    Ok(())
}

/// Disconnected operation, cycle after cycle: take the link down, queue
/// a backlog of exports one user action at a time (a quarter of the
/// actions, in seeded order, are local reads of the cached copy), bring the link up
/// and time until the whole backlog commits, reading remotely every
/// 20 ms meanwhile. New cycles start until `span` has passed.
fn reintegrate(
    app: &mut App,
    srv: &ServerProc,
    span: u64,
    rng: &mut Rng,
    m: &mut Measured,
) -> Result<(), String> {
    let period = REINTEGRATE_PROBE_US * 1_000;
    let end = app.s.ns() + span;
    let mut mix = Mix::new(&[(Kind::Local, 1), (Kind::Export, 3)]);
    while app.s.ns() < end {
        app.s.set_online(false);
        let first = app.ops.borrow().recs.len();
        let mut queued = 0;
        let mut current: Option<usize> = None;
        loop {
            app.s.pump();
            note_wal(app, srv);
            let ready = current.is_none_or(|i| {
                let r = &app.ops.borrow().recs[i];
                match r.kind {
                    Kind::Export => r.tentative.is_some(),
                    _ => r.done.is_some(),
                }
            });
            if ready {
                if queued == BACKLOG {
                    break;
                }
                let now = app.s.ns();
                current = Some(if mix.deal(rng) == Kind::Local {
                    app.local(now)?
                } else {
                    queued += 1;
                    app.export(now)?
                });
                continue;
            }
            app.s.sleep(None);
        }

        let up = app.s.ns();
        app.s.set_online(true);
        for r in app.ops.borrow_mut().recs[first..].iter_mut() {
            r.sendable = up;
        }
        let mut next = up;
        loop {
            app.s.pump();
            note_wal(app, srv);
            let (drained, reads_pending) = {
                let ops = app.ops.borrow();
                (ops.exports_in_flight == 0, ops.remote_pending > 0)
            };
            if drained && !reads_pending {
                break;
            }
            let now = app.s.ns();
            if !drained {
                while next <= now {
                    m.lag_ms.push((now - next) as f64 / 1e6);
                    app.remote(next)?;
                    next += period;
                }
            }
            app.s.sleep(if drained { None } else { Some(next) });
        }
        let last = app.ops.borrow().recs[first..]
            .iter()
            .filter(|r| r.kind == Kind::Export)
            .filter_map(|r| r.done)
            .max()
            .unwrap_or(up);
        let took = (last - up) as f64 / 1e9;
        m.reintegrate_s.push(took);
        m.periods.push((up, last));
    }
    Ok(())
}
