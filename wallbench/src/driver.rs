//! The generator's Rover client: the public client toolkit over one TCP
//! connection, driven by a `WallClock` exactly as
//! `rover_cluster::run_client` drives it (same configuration, same
//! loopback-link proxy, same catch-up/wait loop). The main thread runs
//! the event loop; the transport's connector thread reads the socket.
//!
//! With tracing on, the driver also times its own calls into each
//! layer's public functions and counts frames at the proxy.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rover_core::{Client, ClientConfig, ClientRef, Guarantees, LogPolicy, SessionId, StorageModel};
use rover_net::{
    register_reassembling_host, LinkId, LinkSpec, Net, ReconnectPolicy, TcpTransport, Transport,
    TransportEvent,
};
use rover_sim::{Clock, Sim, SimDuration, SimTime, WallClock};
use rover_wire::{Envelope, HostId, MsgKind, QrpcReply, QrpcRequest, ReplyBatch, Wire};

use rover_cluster::SERVER_HOST;

/// The generator's client host id.
pub const CLIENT_HOST: HostId = HostId(1);

/// `run_client`'s defaults: framing over TCP makes sim fragmentation
/// pointless, the first RTO is 500 ms, and the driver polls every 25 ms.
const NO_FRAG_MTU: usize = 1 << 30;
const RTO: Duration = Duration::from_millis(500);
const TICK: Duration = Duration::from_millis(25);

/// The client configuration `rover_cluster::run_client` builds, so the
/// modelled client CPU it charges today is measured, not hidden. A
/// change made only inside `run_client` is not seen here.
pub fn client_config() -> ClientConfig {
    let mut cfg = ClientConfig::thinkpad(CLIENT_HOST, SERVER_HOST);
    cfg.storage = StorageModel::FREE;
    cfg.mtu = NO_FRAG_MTU;
    cfg.log_policy = LogPolicy::PerOperation;
    cfg.rto = SimDuration::from_micros(RTO.as_micros() as u64);
    cfg.rto_backoff = 2.0;
    cfg.rto_max = SimDuration::from_micros(RTO.as_micros() as u64 * 16);
    cfg.rto_jitter = 0.0;
    cfg.retry_budget = None;
    cfg
}

/// Per-layer observations of one traced phase. Every time is wall
/// microseconds measured around a public call, or at the proxy.
#[derive(Default)]
pub struct Trace {
    pub export_call_us: Vec<f64>,
    pub invoke_local_call_us: Vec<f64>,
    pub outstanding_peak: usize,
    pub run_until_us: f64,
    pub wakeups: u64,
    pub wait_timer_us: f64,
    pub wait_io_us: f64,
    pub send_us: Vec<f64>,
    pub inject_us: Vec<f64>,
    pub frames_out: u64,
    pub frames_in: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Request id → first request frame out ([`Session::ns`]).
    pub first_out: HashMap<u64, u64>,
    /// Request id → first reply frame in.
    pub reply_in: HashMap<u64, u64>,
    /// One captured export request envelope (codec probe input).
    pub sample_request: Option<Envelope>,
    /// Sum of WAL file growth between samples (bytes).
    pub wal_growth: u64,
    pub wal_last: Option<u64>,
}

/// One connected client application.
pub struct Session {
    clock: WallClock,
    /// Epoch of every generator timestamp (taken just after the clock's
    /// own, so a nanosecond time never maps to a later `SimTime`).
    pub epoch: Instant,
    pub sim: Sim,
    net: Net,
    link: LinkId,
    pub client: ClientRef,
    pub sid: SessionId,
    transport: Rc<RefCell<TcpTransport>>,
    pub trace: Option<Rc<RefCell<Trace>>>,
    tcp_up: bool,
    want_online: bool,
    link_up: bool,
}

impl Session {
    /// Builds the client and dials `addr`. The loopback link stays down
    /// until the TCP connection is up.
    pub fn connect(addr: &str, traced: bool) -> Session {
        let clock = WallClock::new();
        let epoch = Instant::now();
        let mut sim = Sim::new(0);
        let net = Net::new();
        let link = net.add_link(LinkSpec::LOOPBACK, CLIENT_HOST, SERVER_HOST);
        let client = Client::new(&mut sim, &net, client_config(), vec![link]);
        let sid = Client::create_session(&client, Guarantees::ALL, true);

        let notify = clock.clone();
        let policy = ReconnectPolicy {
            initial: Duration::from_millis(50),
            backoff: 2.0,
            max: Duration::from_secs(1),
        };
        let transport = Rc::new(RefCell::new(TcpTransport::connect(
            addr.to_string(),
            policy,
            move || notify.notify(),
        )));
        let trace = traced.then(|| Rc::new(RefCell::new(Trace::default())));

        // Outbound proxy: envelopes routed to the server host leave on
        // the TCP transport; a failed write is a drop (the RTO recovers).
        let t2 = transport.clone();
        let tr = trace.clone();
        register_reassembling_host(&net, SERVER_HOST, move |_sim, _net, env| {
            let Some(tr) = &tr else {
                let _ = t2.borrow_mut().send(&env);
                return;
            };
            let started = Instant::now();
            let _ = t2.borrow_mut().send(&env);
            let took = started.elapsed();
            let mut tr = tr.borrow_mut();
            tr.send_us.push(us(took));
            tr.frames_out += 1;
            tr.bytes_out += 4 + env.wire_size() as u64;
            if env.kind == MsgKind::Request {
                if let Ok(req) = QrpcRequest::from_bytes(&env.body) {
                    let at = ns_since(epoch);
                    tr.first_out.entry(req.req_id.0).or_insert(at);
                    if tr.sample_request.is_none()
                        && matches!(req.op, rover_wire::RoverOp::Export { .. })
                    {
                        tr.sample_request = Some(env.clone());
                    }
                }
            }
        });
        net.set_up(&mut sim, link, false);
        Session {
            clock,
            epoch,
            sim,
            net,
            link,
            client,
            sid,
            transport,
            trace,
            tcp_up: false,
            want_online: true,
            link_up: false,
        }
    }

    /// Takes the client's own link down (a mobile host going offline) or
    /// brings it back; the link is up only while TCP is also up.
    pub fn set_online(&mut self, on: bool) {
        self.want_online = on;
        self.apply_link();
    }

    fn apply_link(&mut self) {
        let up = self.tcp_up && self.want_online;
        if up != self.link_up {
            self.link_up = up;
            self.net.set_up(&mut self.sim, self.link, up);
        }
    }

    /// Nanoseconds since [`Session::epoch`].
    pub fn ns(&self) -> u64 {
        ns_since(self.epoch)
    }

    /// Injects every transport event that has arrived, then runs the
    /// sim up to the wall clock.
    pub fn pump(&mut self) {
        loop {
            let ev = self.transport.borrow_mut().poll_event();
            match ev {
                None => break,
                Some(TransportEvent::Connected) => {
                    self.tcp_up = true;
                    self.apply_link();
                }
                Some(TransportEvent::Disconnected(_)) => {
                    self.tcp_up = false;
                    self.apply_link();
                }
                Some(TransportEvent::Frame(env)) => self.inject(env),
            }
        }
        let started = self.trace.as_ref().map(|_| Instant::now());
        let wall = self.clock.now().max(self.sim.now());
        self.sim.run_until(wall);
        if let (Some(tr), Some(t0)) = (&self.trace, started) {
            let mut tr = tr.borrow_mut();
            tr.run_until_us += us(t0.elapsed());
            tr.outstanding_peak = tr
                .outstanding_peak
                .max(Client::outstanding_count(&self.client));
        }
    }

    fn inject(&mut self, env: Envelope) {
        let Some(tr) = self.trace.clone() else {
            let _ = self.net.send(&mut self.sim, self.link, env);
            return;
        };
        {
            let at = self.ns();
            let mut tr = tr.borrow_mut();
            tr.frames_in += 1;
            tr.bytes_in += 4 + env.wire_size() as u64;
            let ids: Vec<u64> = match env.kind {
                MsgKind::Reply => QrpcReply::from_bytes(&env.body)
                    .map(|r| vec![r.req_id.0])
                    .unwrap_or_default(),
                MsgKind::ReplyBatch => ReplyBatch::from_bytes(&env.body)
                    .map(|b| b.replies.iter().map(|r| r.req_id.0).collect())
                    .unwrap_or_default(),
                _ => Vec::new(),
            };
            for id in ids {
                tr.reply_in.entry(id).or_insert(at);
            }
        }
        let started = Instant::now();
        let _ = self.net.send(&mut self.sim, self.link, env);
        tr.borrow_mut().inject_us.push(us(started.elapsed()));
    }

    /// Sleeps until the sim's next timer, `until`, a notification from
    /// the reader thread, or the poll tick, whichever comes first.
    pub fn sleep(&mut self, until_ns: Option<u64>) {
        let until = until_ns.map(|ns| SimTime::from_micros(ns / 1_000 + 1));
        let now = self.clock.now();
        let cap = now + SimDuration::from_micros(TICK.as_micros() as u64);
        let timer = self.sim.next_deadline();
        let mut deadline = cap;
        let mut on_timer = false;
        if let Some(t) = timer {
            if t < deadline {
                deadline = t;
                on_timer = true;
            }
        }
        if let Some(u) = until {
            if u < deadline {
                deadline = u;
                on_timer = false;
            }
        }
        let woke = self.clock.wait_until(Some(deadline));
        if let Some(tr) = &self.trace {
            let mut tr = tr.borrow_mut();
            tr.wakeups += 1;
            let slept = woke.since(now).as_micros() as f64;
            if woke < deadline {
                tr.wait_io_us += slept;
            } else if on_timer {
                tr.wait_timer_us += slept;
            }
        }
    }

    /// Records the WAL length for the traced growth total.
    pub fn note_wal_len(&self, len: u64) {
        if let Some(tr) = &self.trace {
            let mut tr = tr.borrow_mut();
            // The first sample is the baseline. A checkpoint replaces
            // the file with a fresh image: count the image as written.
            let grown = match tr.wal_last {
                Some(last) if len >= last => len - last,
                Some(_) => len,
                None => 0,
            };
            tr.wal_growth += grown;
            tr.wal_last = Some(len);
        }
    }

    /// Closes the connection; the reader thread exits on its own.
    pub fn close(self) {
        self.transport.borrow_mut().shutdown();
    }
}

pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
