//! Criterion microbenchmarks: the real-time cost of the hot paths
//! (marshalling, log appends, interpreter dispatch, LZSS).
//!
//! The experiment harness measures *virtual* time; these measure the
//! wall-clock cost of the substrate itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use rover_core::{RoverObject, Urn};
use rover_log::{MemStore, OpLog, RecordKind};
use rover_script::{Budget, Interp, NoHost};
use rover_wire::{
    compress, decompress, Bytes, HostId, Priority, QrpcRequest, RequestId, RoverOp, SessionId,
    Version, Wire,
};

fn sample_request(n: usize) -> QrpcRequest {
    QrpcRequest {
        req_id: RequestId(7),
        client: HostId(1),
        session: SessionId(3),
        op: RoverOp::Export {
            method: "add_msg".into(),
        },
        urn: "urn:rover:mail/alice/inbox".into(),
        base_version: Version(9),
        priority: Priority::NORMAL,
        auth: 7,
        acked_below: 3,
        payload: Bytes::from(vec![0x5A; n]),
        read_vector: Vec::new(),
    }
}

fn bench_marshal(c: &mut Criterion) {
    let req = sample_request(1024);
    c.bench_function("wire/encode_qrpc_1k", |b| {
        b.iter(|| black_box(req.to_bytes()));
    });
    let bytes = req.to_bytes();
    c.bench_function("wire/decode_qrpc_1k", |b| {
        b.iter(|| black_box(QrpcRequest::from_bytes(&bytes).unwrap()));
    });
}

fn bench_log(c: &mut Criterion) {
    c.bench_function("log/append_1k_manual", |b| {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        let payload = vec![0xA5u8; 1024];
        b.iter(|| {
            let seq = log.append(RecordKind::Request, payload.clone()).unwrap();
            black_box(seq);
        });
    });
}

fn bench_lzss(c: &mut Criterion) {
    let text = "queued remote procedure call over the stable log ".repeat(80);
    let data = text.as_bytes();
    c.bench_function("lzss/compress_4k_text", |b| {
        b.iter(|| black_box(compress(black_box(data))));
    });
    let z = compress(data);
    c.bench_function("lzss/decompress_4k_text", |b| {
        b.iter(|| black_box(decompress(&z).unwrap()));
    });
}

fn bench_interp(c: &mut Criterion) {
    c.bench_function("script/loop_1000_iters", |b| {
        b.iter(|| {
            let mut i = Interp::new();
            let v = i
                .eval(
                    &mut NoHost,
                    "set s 0; for {set k 0} {$k < 1000} {incr k} {incr s $k}; set s",
                )
                .unwrap();
            black_box(v);
        });
    });
    c.bench_function("script/rdo_method_dispatch", |b| {
        let mut obj = RoverObject::new(Urn::parse("urn:rover:bench/x").unwrap(), "t")
            .with_code("proc get {} {rover::get n 0}")
            .with_field("n", "42");
        b.iter(|| {
            let run = obj.run_method("get", &[], Budget::default()).unwrap();
            black_box(run.result);
        });
    });
}

criterion_group!(benches, bench_marshal, bench_log, bench_lzss, bench_interp);
criterion_main!(benches);
