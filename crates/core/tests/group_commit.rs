//! Group-commit engine integration tests: self-clocked batches (commits
//! that execute during a flush share the next one; a lone commit
//! flushes at once) hold replies until the batch is durable, per-client
//! reply coalescing, the staged-duplicate gate, mid-batch flush failure
//! via `FaultStore`, and the committed-prefix property at batch
//! granularity (a torn batch tail is discarded whole).

use std::cell::RefCell;
use std::rc::Rc;

use rover_core::{
    Client, ClientConfig, ExportPayload, Guarantees, OpStatus, Priority, ReexecuteResolver,
    RoverObject, Server, ServerConfig, ServerEvent, StorageModel, Urn,
};
use rover_log::{FaultKind, FaultStore, MemStore};
use rover_net::{LinkSpec, Net};
use rover_sim::{Sim, SimDuration};
use rover_wire::{
    Envelope, HostId, MsgKind, QrpcReply, QrpcRequest, ReplyBatch, RequestId, RoverOp, SessionId,
    Version, Wire,
};

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);

fn urn(p: &str) -> Urn {
    Urn::parse(&format!("urn:rover:t/{p}")).unwrap()
}

fn counter(p: &str) -> RoverObject {
    RoverObject::new(urn(p), "counter")
        .with_code("proc add {k} {rover::set n [expr {[rover::get n 0] + $k}]}")
        .with_field("n", "0")
}

fn group_cfg(max_batch: usize) -> ServerConfig {
    let mut cfg = ServerConfig::workstation(SERVER);
    cfg.commit_batch = max_batch;
    cfg
}

/// Raw-wire driver: pre-built export requests straight over the link,
/// replies (single and coalesced batches) collected at a sink.
struct RawRig {
    sim: Sim,
    net: Net,
    server: rover_core::ServerRef,
    link: rover_net::LinkId,
    replies: Rc<RefCell<Vec<QrpcReply>>>,
}

fn raw_rig(seed: u64, scfg: ServerConfig) -> RawRig {
    raw_rig_on(seed, scfg, LinkSpec::ETHERNET_10M)
}

fn raw_rig_on(seed: u64, scfg: ServerConfig, spec: LinkSpec) -> RawRig {
    let sim = Sim::new(seed);
    let net = Net::new();
    let link = net.add_link(spec, CLIENT, SERVER);
    let server = Server::new(&net, scfg);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    server.borrow_mut().put_object(counter("c"));
    let replies: Rc<RefCell<Vec<QrpcReply>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = replies.clone();
    net.register_host(CLIENT, move |_sim, _net, env: Envelope| match env.kind {
        MsgKind::Reply => {
            if let Ok(rep) = QrpcReply::from_shared(&env.body) {
                sink.borrow_mut().push(rep);
            }
        }
        MsgKind::ReplyBatch => {
            if let Ok(batch) = ReplyBatch::from_shared(&env.body) {
                sink.borrow_mut().extend(batch.replies);
            }
        }
        _ => {}
    });
    RawRig {
        sim,
        net,
        server,
        link,
        replies,
    }
}

/// Ordered export `j` (0-based): session_seq j+1, base version j+1.
fn raw_export(j: u64) -> QrpcRequest {
    QrpcRequest {
        req_id: RequestId(j + 1),
        client: CLIENT,
        session: SessionId(1),
        op: RoverOp::Export {
            method: "add".into(),
        },
        urn: urn("c").as_str().to_owned(),
        base_version: Version(j + 1),
        priority: Priority::NORMAL,
        auth: 0,
        acked_below: 0,
        payload: ExportPayload {
            method: "add".into(),
            args: vec!["1".into()],
            session_seq: j + 1,
        }
        .to_bytes(),
        read_vector: Vec::new(),
    }
}

/// Enqueues exports `js` one millisecond apart without running the sim:
/// on the 1995 server disk, all but the first land during the first
/// flush.
fn raw_burst_enqueue(r: &mut RawRig, js: std::ops::Range<u64>) {
    raw_enqueue(r, js, SimDuration::from_millis(1));
}

/// Enqueues exports `js` with `gap` between sends.
fn raw_enqueue(r: &mut RawRig, js: std::ops::Range<u64>, gap: SimDuration) {
    for (i, j) in js.enumerate() {
        let net = r.net.clone();
        let link = r.link;
        let env = Envelope::request(CLIENT, SERVER, &raw_export(j));
        r.sim.schedule_after(
            SimDuration::from_micros(gap.as_micros() * i as u64),
            move |sim| {
                let _ = net.send(sim, link, env);
            },
        );
    }
}

fn server_field_n(server: &rover_core::ServerRef) -> String {
    server
        .borrow()
        .get_object(&urn("c"))
        .unwrap()
        .field("n")
        .unwrap()
        .to_owned()
}

#[test]
fn burst_batches_behind_the_first_flush_and_replies_wait_for_durability() {
    // 1995 server disk: one flush takes ~8.4 ms. The first export runs
    // alone and flushes at once; the next three arrive 1 ms apart, stage
    // while it is in flight, and its completion flushes them together.
    // The first reply waits one batch for the client's later commits.
    let mut r = raw_rig(31, group_cfg(64));
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();
    // The attach checkpoint's write occupies the CPU for ~8 ms.
    r.sim.run_for(SimDuration::from_millis(20));

    raw_burst_enqueue(&mut r, 0..4);
    // All four executed; only the first batch is written, and its flush
    // is still in flight — no reply has left.
    r.sim.run_for(SimDuration::from_millis(5));
    assert_eq!(server_field_n(&r.server), "4", "executions pipelined");
    assert_eq!(r.sim.stats.counter("server.group_commits"), 1);
    assert!(
        r.replies.borrow().is_empty(),
        "no reply before its batch is durable"
    );
    // The first batch is durable; the second is in flight and holds
    // the same client's next commits, so the first reply waits for it.
    r.sim.run_for(SimDuration::from_millis(7));
    assert_eq!(r.sim.stats.counter("server.group_commits"), 2);
    assert!(
        r.replies.borrow().is_empty(),
        "no reply before the batch it waits for is durable"
    );

    r.sim.run();
    assert_eq!(r.sim.stats.counter("server.wal_appends"), 4);
    assert_eq!(r.replies.borrow().len(), 4);
    // All four replies to the one client: one envelope.
    assert_eq!(r.sim.stats.counter("server.reply_coalesced"), 3);
    let sizes = r
        .sim
        .stats
        .series("server.group_commit_batch_size")
        .unwrap();
    assert_eq!(sizes.values(), &[1.0, 3.0]);
    assert_eq!(r.sim.stats.series("server.flush_wait_ms").unwrap().len(), 4);
}

#[test]
fn free_storage_batches_one_instant_and_flushes_a_lone_request_at_once() {
    // The real-clock runtime's shape: free stable storage (the flush
    // takes no virtual time) and the workstation CPU model, so requests
    // delivered together execute at instants spaced by their unmarshal
    // cost. Flushing whenever the disk is idle would commit each alone;
    // the flusher waits until no received request is left to execute.
    let mut scfg = group_cfg(32);
    scfg.storage = StorageModel::FREE;
    scfg.mtu = usize::MAX; // one coalesced reply envelope, unfragmented
    let mut r = raw_rig_on(37, scfg, LinkSpec::LOOPBACK);
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();

    raw_enqueue(&mut r, 0..32, SimDuration::ZERO);
    r.sim.run();
    assert_eq!(server_field_n(&r.server), "32");
    assert_eq!(r.sim.stats.counter("server.group_commits"), 1);
    assert_eq!(r.replies.borrow().len(), 32);

    // A lone request flushes as soon as it has executed: no window.
    let t0 = r.sim.now();
    raw_enqueue(&mut r, 32..33, SimDuration::ZERO);
    let replied_at = Rc::new(RefCell::new(None));
    let (sink, replies) = (replied_at.clone(), r.replies.clone());
    for _ in 0..1000 {
        r.sim.run_for(SimDuration::from_micros(10));
        if replies.borrow().len() == 33 {
            *sink.borrow_mut() = Some(r.sim.now());
            break;
        }
    }
    let at = replied_at.borrow().expect("lone request replied");
    assert!(
        at.since(t0) <= SimDuration::from_millis(1),
        "lone request waited {} us",
        at.since(t0).as_micros()
    );
    let sizes = r
        .sim
        .stats
        .series("server.group_commit_batch_size")
        .unwrap();
    assert_eq!(sizes.values(), &[32.0, 1.0]);
}

#[test]
fn full_stack_client_decodes_coalesced_reply_batches() {
    let mut sim = Sim::new(33);
    let net = Net::new();
    let link = net.add_link(LinkSpec::ETHERNET_10M, CLIENT, SERVER);
    let server = Server::new(&net, group_cfg(64));
    server.borrow_mut().add_route(CLIENT, link);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    server.borrow_mut().put_object(counter("c"));
    Server::attach_wal(&server, &mut sim, Box::new(MemStore::new())).unwrap();
    let client = Client::new(
        &mut sim,
        &net,
        ClientConfig::thinkpad(CLIENT, SERVER),
        vec![link],
    );
    let session = Client::create_session(&client, Guarantees::ALL, true);

    let p = Client::import(&client, &mut sim, &urn("c"), session, Priority::FOREGROUND).unwrap();
    sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);

    // Queue several exports before running: the client streams them,
    // the server groups them, and the replies come back coalesced.
    let handles: Vec<_> = (0..5)
        .map(|_| {
            Client::export(
                &client,
                &mut sim,
                &urn("c"),
                session,
                "add",
                &["1"],
                Priority::NORMAL,
            )
            .unwrap()
        })
        .collect();
    sim.run();
    for h in &handles {
        let st = h.committed.poll().unwrap().status;
        assert!(st == OpStatus::Ok || st == OpStatus::Resolved);
    }
    assert_eq!(server_field_n(&server), "5");
    assert!(sim.stats.counter("server.group_commits") >= 1);
    assert_eq!(
        sim.stats.counter("server.reply_coalesced"),
        sim.stats.counter("client.replies_coalesced"),
        "every coalesced reply the server saved was decoded client-side"
    );
    assert_eq!(sim.stats.counter("client.bad_reply"), 0);
    assert_eq!(sim.stats.counter("server.dedup_miss_reexec"), 0);
}

#[test]
fn duplicate_of_staged_commit_is_dropped_not_replayed() {
    let mut r = raw_rig(34, group_cfg(64));
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();
    // The attach checkpoint's write occupies the CPU for ~8 ms.
    r.sim.run_for(SimDuration::from_millis(20));

    // Export 0 flushes alone; export 1 stages behind that flush, and an
    // immediate duplicate of it arrives while it is still staged.
    for (delay_ms, j) in [(0u64, 0u64), (1, 1), (2, 1)] {
        let net = r.net.clone();
        let link = r.link;
        let env = Envelope::request(CLIENT, SERVER, &raw_export(j));
        r.sim
            .schedule_after(SimDuration::from_millis(delay_ms), move |sim| {
                let _ = net.send(sim, link, env);
            });
    }
    r.sim.run_for(SimDuration::from_millis(5));
    assert_eq!(
        r.sim.stats.counter("server.dup_while_staged"),
        1,
        "the duplicate found the original staged and was dropped"
    );
    assert!(r.replies.borrow().is_empty());

    r.sim.run();
    assert_eq!(
        r.replies.borrow().len(),
        2,
        "two durable commits, two replies"
    );

    // A retransmission after the flush replays from the dedup cache.
    let net = r.net.clone();
    let link = r.link;
    let env = Envelope::request(CLIENT, SERVER, &raw_export(1));
    r.sim.schedule_after(SimDuration::ZERO, move |sim| {
        let _ = net.send(sim, link, env);
    });
    r.sim.run();
    assert_eq!(r.sim.stats.counter("server.dedup_replay"), 1);
    assert_eq!(server_field_n(&r.server), "2");
    assert_eq!(r.sim.stats.counter("server.dedup_miss_reexec"), 0);
}

#[test]
fn flush_and_checkpoint_drains_staged_batch_for_graceful_shutdown() {
    // The SIGTERM path of the real-clock runtime: commits staged behind
    // an in-flight flush must be made durable and checkpointed on
    // demand, so a clean shutdown loses nothing and the next boot
    // replays nothing.
    let mut r = raw_rig(36, group_cfg(64));
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();
    // The attach checkpoint's write occupies the CPU for ~8 ms.
    r.sim.run_for(SimDuration::from_millis(20));
    let ckpts_before = r.sim.stats.counter("server.checkpoints");

    raw_burst_enqueue(&mut r, 0..3);
    r.sim.run_for(SimDuration::from_millis(5));
    assert_eq!(server_field_n(&r.server), "3", "executed; two staged");
    assert_eq!(r.sim.stats.counter("server.group_commits"), 1);

    Server::flush_and_checkpoint(&r.server, &mut r.sim);
    assert_eq!(r.sim.stats.counter("server.group_commits"), 2);
    assert_eq!(
        r.sim.stats.counter("server.checkpoints"),
        ckpts_before + 1,
        "shutdown wrote a checkpoint"
    );

    // "Exit" here; the next incarnation recovers from the checkpoint
    // alone — nothing to replay, all three commits present, and
    // retransmissions replay from the dedup table (no re-execution).
    Server::crash_restart(&r.server, &mut r.sim).unwrap();
    assert_eq!(r.sim.stats.counter("server.recovered_commits"), 0);
    assert_eq!(server_field_n(&r.server), "3");
    for j in 0..3 {
        assert!(r
            .server
            .borrow()
            .executed_contains(CLIENT, RequestId(j + 1)));
    }
    raw_burst_enqueue(&mut r, 0..3);
    r.sim.run();
    assert_eq!(server_field_n(&r.server), "3", "duplicates replayed");
    assert_eq!(r.sim.stats.counter("server.dedup_miss_reexec"), 0);

    // Idempotent: with nothing staged it is a clean no-op checkpoint.
    Server::flush_and_checkpoint(&r.server, &mut r.sim);
    assert_eq!(r.sim.stats.counter("server.group_commits"), 2);
}

#[test]
fn mid_batch_flush_failure_crashes_host_and_no_group_reply_leaks() {
    // Learn where the device stands after the attach checkpoint, then
    // tear the *group* frame of the first batch: four exports delivered
    // in one instant form one batch.
    let base_len = {
        let mut d = raw_rig_on(35, group_cfg(4), LinkSpec::LOOPBACK);
        Server::attach_wal(&d.server, &mut d.sim, Box::new(MemStore::new())).unwrap();
        let len = d.server.borrow().wal_device_len();
        len
    };
    let mut r = raw_rig_on(35, group_cfg(4), LinkSpec::LOOPBACK);
    let mut store = FaultStore::new(MemStore::new());
    store.push_fault(base_len + 30, FaultKind::ShortWrite);
    Server::attach_wal(&r.server, &mut r.sim, Box::new(store)).unwrap();

    raw_enqueue(&mut r, 0..4, SimDuration::ZERO);
    r.sim.run();

    // The batch flush hit the fault: host down, torn frame on disk,
    // and — the invariant under test — not one of the four replies
    // ever left the host.
    assert_eq!(r.sim.stats.counter("server.wal_append_failed"), 1);
    assert_eq!(r.sim.stats.counter("server.crashes"), 1);
    assert_eq!(r.sim.stats.counter("server.staged_lost_on_crash"), 4);
    assert!(r.server.borrow().is_crashed());
    assert!(
        r.replies.borrow().is_empty(),
        "a flush that failed mid-batch must not leak any group reply"
    );

    // Recovery discards the torn batch whole and the client's
    // retransmissions re-execute *freshly* — they are first executions,
    // not at-most-once violations.
    Server::crash_restart(&r.server, &mut r.sim).unwrap();
    assert!(r.sim.stats.counter("server.recovery_truncated_tail") > 0);
    assert_eq!(r.sim.stats.counter("server.recovered_commits"), 0);
    assert_eq!(server_field_n(&r.server), "0");

    raw_burst_enqueue(&mut r, 0..4);
    r.sim.run();
    assert_eq!(server_field_n(&r.server), "4");
    assert_eq!(
        r.sim.stats.counter("server.dedup_miss_reexec"),
        0,
        "retransmits after the lost batch re-execute nothing already seen"
    );
    assert_eq!(r.replies.borrow().len(), 4);
}

#[test]
fn group_commit_event_narrates_flushes() {
    let mut r = raw_rig_on(36, group_cfg(3), LinkSpec::LOOPBACK);
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();
    let flushes: Rc<RefCell<Vec<(usize, usize)>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = flushes.clone();
    Server::on_event(&r.server, move |_sim, ev| {
        if let ServerEvent::GroupCommit { records, wal_bytes } = ev {
            sink.borrow_mut().push((*records, *wal_bytes));
        }
    });
    raw_enqueue(&mut r, 0..3, SimDuration::ZERO);
    r.sim.run_for(SimDuration::from_secs(5));
    let evs = flushes.borrow();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].0, 3);
    assert!(evs[0].1 > 0);
}

mod batch_committed_prefix {
    use super::*;
    use proptest::prelude::*;

    // Crash the write-ahead device at an arbitrary byte offset while
    // the server runs under group commit: recovery must land exactly on
    // a batch boundary (the torn batch is discarded whole — recovered
    // commits equal the sum of the *successfully flushed* batch sizes),
    // every reply that left is covered by a recovered commit, and the
    // retransmitted stream converges with zero re-executions.
    proptest! {
        #[test]
        fn recovery_lands_on_batch_boundaries(
            k in 4u64..12,
            max_batch in 2usize..5,
            frac in 0.0f64..1.0,
            seed in 0u64..500,
        ) {
            // Dry run for device geometry under this exact workload.
            let (base_len, full_len) = {
                let mut d = raw_rig(seed, group_cfg(max_batch));
                Server::attach_wal(&d.server, &mut d.sim, Box::new(MemStore::new())).unwrap();
                let base = d.server.borrow().wal_device_len();
                raw_burst_enqueue(&mut d, 0..k);
                d.sim.run();
                let full = d.server.borrow().wal_device_len();
                (base, full)
            };
            prop_assert!(full_len > base_len);
            let cut = base_len + ((full_len - base_len) as f64 * frac) as u64;

            // Faulted run: the flush crossing `cut` tears mid-frame.
            let mut f = raw_rig(seed, group_cfg(max_batch));
            let mut store = FaultStore::new(MemStore::new());
            store.push_fault(cut, FaultKind::ShortWrite);
            Server::attach_wal(&f.server, &mut f.sim, Box::new(store)).unwrap();
            let flushed: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
            let sink = flushed.clone();
            Server::on_event(&f.server, move |_sim, ev| {
                if let ServerEvent::GroupCommit { records, .. } = ev {
                    *sink.borrow_mut() += *records as u64;
                }
            });
            raw_burst_enqueue(&mut f, 0..k);
            f.sim.run();
            prop_assert!(f.server.borrow().is_crashed());
            let replied: Vec<RequestId> =
                f.replies.borrow().iter().map(|rep| rep.req_id).collect();

            Server::crash_restart(&f.server, &mut f.sim).unwrap();
            let m = f.sim.stats.counter("server.recovered_commits");
            // Batch granularity: exactly the durably flushed groups.
            prop_assert_eq!(m, *flushed.borrow(),
                "recovery must discard the torn batch whole");
            prop_assert!(m < k);

            // No reply in a group ever left before its batch flushed.
            for req in &replied {
                prop_assert!(f.server.borrow().executed_contains(CLIENT, *req));
            }

            // Committed-prefix oracle: a crash-free server fed exactly
            // the m durable commits has the identical canonical state.
            let mut o = raw_rig(seed, group_cfg(max_batch));
            raw_burst_enqueue(&mut o, 0..m);
            o.sim.run();
            prop_assert_eq!(
                f.server.borrow().export_store(),
                o.server.borrow().export_store(),
                "recovered state != batch committed-prefix oracle (m={})", m
            );

            // Convergence with zero at-most-once violations.
            raw_burst_enqueue(&mut f, 0..k);
            f.sim.run();
            prop_assert_eq!(
                f.server.borrow().get_object(&urn("c")).unwrap().field("n"),
                Some(format!("{k}").as_str())
            );
            prop_assert_eq!(f.sim.stats.counter("server.dedup_miss_reexec"), 0);
        }
    }
}
