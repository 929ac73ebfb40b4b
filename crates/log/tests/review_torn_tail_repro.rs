use rover_log::{MemStore, OpLog, RecordKind};

// Review repro: records appended after a torn-tail recovery are lost by
// the NEXT recovery, because the torn bytes stay on the device and the
// scan stops at them.
#[test]
fn appends_after_torn_tail_recovery_survive_second_crash() {
    let mut log = OpLog::open(MemStore::new()).unwrap();
    log.append(RecordKind::Other(0x10), b"commit-1".to_vec())
        .unwrap();
    log.flush().unwrap();
    log.append(RecordKind::Other(0x10), b"commit-2".to_vec())
        .unwrap();
    log.flush().unwrap();
    let durable = log.device_len();

    // Crash 1: tear the second frame in half.
    let store = log.into_store().crash(Some(durable as usize - 4));
    let mut log = OpLog::open(store).unwrap();
    assert_eq!(log.len(), 1, "torn frame discarded");
    assert!(log.tail_skipped_bytes() > 0);

    // Post-recovery commit: appended, flushed, reply would now be sent.
    log.append(RecordKind::Other(0x10), b"commit-3".to_vec())
        .unwrap();
    log.flush().unwrap();
    assert_eq!(log.len(), 2);

    // Crash 2 (clean: no new tear, staged empty).
    let store = log.into_store().crash(None);
    let log = OpLog::open(store).unwrap();

    // commit-3 was durable (flushed before the reply) and must survive.
    let payloads: Vec<_> = log.records().map(|r| r.payload.clone()).collect();
    assert!(
        payloads.iter().any(|p| p.as_ref() == b"commit-3"),
        "commit-3 lost: recovery only saw {payloads:?}"
    );
}
