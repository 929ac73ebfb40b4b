//! Self-clocking group commit.
//!
//! The paper's prototype flushes its stable log once per QRPC and names
//! group commit as future work (§5.2). [`GroupFlusher`] is the classic
//! leader-based form of it, shared by the client's QRPC log and the
//! server's write-ahead commit log. A partial batch flushes only when no
//! flush is in flight and the caller has nothing else about to stage;
//! records that stage during a flush form the next batch, which the
//! last in-flight flush's completion starts. A full batch flushes while
//! fewer than `depth` flushes are in flight, queueing behind them. The
//! flush duration sets the batch size: there is no window timer, and
//! the flusher reads no clock. A cap of 1 is per-operation commit. The
//! caller writes each batch, prices it, and reports its completion.

use std::collections::VecDeque;

/// Leader-based group-commit state: the staged records, how many
/// flushes are in flight, the batch cap and the in-flight depth.
#[derive(Debug)]
pub struct GroupFlusher<T> {
    staged: VecDeque<T>,
    cap: usize,
    depth: usize,
    in_flight: usize,
}

impl<T> GroupFlusher<T> {
    /// Creates an idle flusher: batches of at most `cap` records, at
    /// most `depth` flushes in flight (`0` counts as `1` for both).
    /// Depth 1 makes every batch wait for the previous flush; an
    /// unbounded depth never lets the stage hold a full batch.
    pub fn new(cap: usize, depth: usize) -> Self {
        GroupFlusher {
            staged: VecDeque::new(),
            cap: cap.max(1),
            depth: depth.max(1),
            in_flight: 0,
        }
    }

    /// Stages one record; [`GroupFlusher::poll`] says when it flushes.
    pub fn stage(&mut self, rec: T) {
        self.staged.push_back(rec);
    }

    /// Starts a flush when a batch is ready: a full one while fewer than
    /// `depth` flushes are in flight, a partial one when none is and
    /// nothing else is about to stage (`more_coming == false`). The
    /// caller writes the returned records and then calls
    /// [`GroupFlusher::complete`].
    pub fn poll(&mut self, more_coming: bool) -> Option<Vec<T>> {
        let ready = if self.staged.len() >= self.cap {
            self.in_flight < self.depth
        } else {
            self.in_flight == 0 && !more_coming
        };
        if ready {
            self.force()
        } else {
            None
        }
    }

    /// One in-flight flush is durable; returns the next batch if
    /// [`GroupFlusher::poll`] finds one ready.
    pub fn complete(&mut self, more_coming: bool) -> Option<Vec<T>> {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.poll(more_coming)
    }

    /// Starts a flush of up to a cap of staged records whatever is in
    /// flight, for callers that must make everything durable now (call
    /// it until `None`).
    pub fn force(&mut self) -> Option<Vec<T>> {
        if self.staged.is_empty() {
            return None;
        }
        self.in_flight += 1;
        let n = self.staged.len().min(self.cap);
        Some(self.staged.drain(..n).collect())
    }

    /// Crash: drops the staged records (returning how many) and forgets
    /// the flushes in flight.
    pub fn reset(&mut self) -> usize {
        self.in_flight = 0;
        std::mem::take(&mut self.staged).len()
    }

    /// Records staged for a future flush, oldest first.
    pub fn staged(&self) -> impl Iterator<Item = &T> {
        self.staged.iter()
    }

    /// Flushes started and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_flusher_flushes_a_lone_record_at_once() {
        let mut f = GroupFlusher::new(8, 1);
        f.stage(1);
        assert_eq!(f.poll(false), Some(vec![1]));
        assert_eq!(f.in_flight(), 1);
        assert_eq!(f.complete(false), None);
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn records_staged_during_a_flush_go_out_on_its_completion() {
        let mut f = GroupFlusher::new(8, 1);
        f.stage(1);
        assert_eq!(f.poll(false), Some(vec![1]));
        for r in 2..=4 {
            f.stage(r);
            assert_eq!(f.poll(false), None, "a flush is in flight");
        }
        assert_eq!(f.complete(false), Some(vec![2, 3, 4]));
        assert_eq!(f.in_flight(), 1, "the completion started the next flush");
        assert_eq!(f.complete(false), None);
    }

    #[test]
    fn more_coming_holds_the_batch_until_the_cap() {
        let mut f = GroupFlusher::new(3, 1);
        f.stage(1);
        assert_eq!(f.poll(true), None);
        f.stage(2);
        assert_eq!(f.poll(true), None);
        f.stage(3);
        assert_eq!(f.poll(true), Some(vec![1, 2, 3]), "full batch flushes");
        f.stage(4);
        assert_eq!(f.complete(true), None, "completion waits for more");
        assert_eq!(f.poll(false), Some(vec![4]));
    }

    #[test]
    fn depth_decides_whether_a_full_batch_waits() {
        for (depth, queued) in [(1, false), (usize::MAX, true)] {
            let mut f = GroupFlusher::new(2, depth);
            f.stage(1);
            assert_eq!(f.poll(false), Some(vec![1]));
            f.stage(2);
            assert_eq!(f.poll(false), None, "a partial batch waits");
            f.stage(3);
            let full = f.poll(false);
            if queued {
                assert_eq!(full, Some(vec![2, 3]), "queues behind the flush");
                f.stage(4);
                assert_eq!(f.complete(false), None, "a flush is still in flight");
                assert_eq!(f.complete(false), Some(vec![4]), "the last one starts it");
            } else {
                assert_eq!(full, None, "waits for the flush");
                assert_eq!(f.complete(false), Some(vec![2, 3]));
            }
        }
    }

    #[test]
    fn cap_one_is_per_operation_commit() {
        let mut f = GroupFlusher::new(0, 0);
        f.stage('a');
        assert_eq!(f.poll(true), Some(vec!['a']));
        f.stage('b');
        assert_eq!(f.poll(true), None, "one flush at a time");
        assert_eq!(f.complete(true), Some(vec!['b']));
        assert_eq!(f.complete(false), None);
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn reset_and_force_empty_the_stage() {
        let mut f = GroupFlusher::new(2, 1);
        f.stage(1);
        assert!(f.poll(false).is_some());
        f.stage(2);
        f.stage(3);
        f.stage(4);
        assert_eq!(f.force(), Some(vec![2, 3]), "force keeps the cap");
        assert_eq!(f.force(), Some(vec![4]));
        assert_eq!(f.force(), None);
        assert_eq!(f.in_flight(), 3);
        f.stage(5);
        assert_eq!(f.reset(), 1);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.poll(false), None);
    }

    /// Drives flushers with a deterministic pseudo-random schedule of
    /// stages, polls and completions; checks every batch against the
    /// cap and the depth, record order, the stage bound of an unbounded
    /// depth, and that nothing stays staged once idle.
    #[test]
    fn batches_respect_the_cap_and_idle_means_empty() {
        for depth in [1, 2, usize::MAX] {
            for cap in 1..6usize {
                let mut f = GroupFlusher::new(cap, depth);
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ (cap as u64) ^ (depth as u64) << 8;
                let mut next = 0u32;
                let mut flushed = Vec::new();
                let check = |batch: Option<Vec<u32>>, flushed: &mut Vec<u32>| {
                    if let Some(b) = batch {
                        assert!(
                            !b.is_empty() && b.len() <= cap,
                            "batch {b:?} over cap {cap}"
                        );
                        flushed.extend(b);
                    }
                };
                for _ in 0..2000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    match x % 4 {
                        0 | 1 => {
                            f.stage(next);
                            next += 1;
                            let b = f.poll(x & 16 != 0);
                            check(b, &mut flushed);
                        }
                        2 if f.in_flight() > 0 => {
                            let b = f.complete(x & 32 != 0);
                            check(b, &mut flushed);
                        }
                        _ => {
                            let b = f.poll(false);
                            check(b, &mut flushed);
                        }
                    }
                    assert!(f.in_flight() <= depth, "over depth {depth}");
                    if depth == usize::MAX {
                        assert!(f.staged().count() < cap, "a full batch stayed staged");
                    }
                    if f.in_flight() == 0 {
                        // Idle after a `poll(false)` means empty.
                        let b = f.poll(false);
                        check(b, &mut flushed);
                        if f.in_flight() == 0 {
                            assert_eq!(f.staged().count(), 0, "idle flusher holds records");
                        }
                    }
                }
                while f.in_flight() > 0 {
                    let b = f.complete(false);
                    check(b, &mut flushed);
                }
                assert_eq!(f.staged().count(), 0);
                assert_eq!(flushed, (0..next).collect::<Vec<_>>(), "order or loss");
            }
        }
    }
}
