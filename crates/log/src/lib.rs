//! Stable operation log for the Rover toolkit.
//!
//! Every QRPC a Rover client issues is written to a stable log *before*
//! it is handed to the network scheduler, so that queued operations
//! survive crashes and disconnections; the flush is therefore on the
//! critical path of every request (paper §5.2). The paper's prototype
//! "does not perform any compression on the log and does not employ
//! efficient techniques for implementing stable storage (e.g., Flash RAM
//! or group commit)" — this crate implements the baseline behaviour
//! faithfully *and* provides compression and a self-clocking group-commit
//! flusher ([`GroupFlusher`]) for the A1/A2 ablations. The log never
//! syncs on its own: callers decide when to [`OpLog::flush`], and a
//! flusher with cap 1 is the paper's per-operation flush.
//!
//! The log itself is storage-agnostic: [`StableStore`] abstracts the
//! device (an in-memory store with crash simulation for tests and the
//! simulator, and a real file-backed store). [`FaultStore`] wraps any
//! device with scripted fault injection — short writes, failed syncs,
//! ENOSPC — so recovery is tested against arbitrary crash points. Time is *not* charged here —
//! the toolkit core maps the [`FlushReceipt`] onto virtual time using its
//! stable-storage cost model, keeping this crate free of simulator
//! dependencies.
//!
//! # Examples
//!
//! ```
//! use rover_log::{MemStore, OpLog, RecordKind};
//!
//! let mut log = OpLog::open(MemStore::new()).unwrap();
//! let seq = log.append(RecordKind::Request, b"qrpc bytes".to_vec()).unwrap();
//! log.flush().unwrap();
//! assert_eq!(log.records().count(), 1);
//! log.remove(seq).unwrap();
//! ```

#![deny(unsafe_code)]

mod fault;
mod flusher;
mod oplog;
mod store;

pub use fault::{FaultKind, FaultStore, ScriptedFault};
pub use flusher::GroupFlusher;
pub use oplog::{FlushReceipt, LogError, LogRecord, OpLog, RecordKind, ScanIssue, ScanReport};
pub use store::{FileStore, MemStore, StableStore};
