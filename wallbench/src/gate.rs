//! The correctness gate: every run is checked against what the client
//! observed, and a single failed check fails the run.
//!
//! - The counter that `rover-cluster dump --wal` recovers offline equals
//!   the exports whose commit the client saw succeed.
//! - Every operation's promise resolved, `Ok` (or `Resolved` for a
//!   commit).
//! - `invoke_remote get` values never went backwards within the session
//!   and never exceeded the exports issued (recorded as they resolve).

use crate::workload::OpRec;

#[derive(Default)]
pub struct Gate {
    failures: Vec<String>,
    /// Operations that failed or never resolved.
    pub failed_ops: u64,
}

impl Gate {
    /// The WAL recovered to `recovered`; the client saw `committed`
    /// exports commit.
    pub fn expect_counter(&mut self, committed: u64, recovered: u64) {
        if committed != recovered {
            self.failures.push(format!(
                "recovered counter {recovered} != {committed} committed exports"
            ));
        }
    }

    pub fn expect_resolved(&mut self, recs: &[OpRec]) {
        let unresolved = recs.iter().filter(|r| r.done.is_none()).count() as u64;
        let not_ok = recs.iter().filter(|r| r.done.is_some() && !r.ok).count() as u64;
        self.failed_ops += unresolved + not_ok;
        if unresolved > 0 {
            self.failures
                .push(format!("{unresolved} operations never resolved"));
        }
        if not_ok > 0 {
            self.failures
                .push(format!("{not_ok} operations resolved with a failure"));
        }
    }

    pub fn note_violations(&mut self, violations: &[String]) {
        self.failures.extend(violations.iter().cloned());
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn absorb(&mut self, other: Gate) {
        self.failures.extend(other.failures);
        self.failed_ops += other.failed_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    fn rec(kind: Kind, done: bool, ok: bool) -> OpRec {
        OpRec {
            kind,
            due: 0,
            sendable: 0,
            req: 0,
            tentative: None,
            done: done.then_some(5_000),
            ok,
        }
    }

    #[test]
    fn resolved_operations_pass() {
        let mut g = Gate::default();
        g.expect_resolved(&[rec(Kind::Export, true, true), rec(Kind::Remote, true, true)]);
        assert!(g.passed(), "{:?}", g.failures());
        assert_eq!(g.failed_ops, 0);
    }

    /// A recovered counter equal to the committed exports passes; the
    /// same count off by one fails the run.
    #[test]
    fn mismatched_count_fails_the_run() {
        let mut g = Gate::default();
        g.expect_counter(40, 40);
        assert!(g.passed(), "{:?}", g.failures());
        let mut g = Gate::default();
        g.expect_counter(41, 40);
        assert!(!g.passed());
        assert!(g.failures()[0].contains("40 != 41"));
    }

    #[test]
    fn unresolved_or_failed_promises_fail_the_run() {
        let mut g = Gate::default();
        g.expect_resolved(&[
            rec(Kind::Export, false, false),
            rec(Kind::Local, true, false),
        ]);
        assert!(!g.passed());
        assert_eq!(g.failed_ops, 2);
    }

    #[test]
    fn observed_read_violations_fail_the_run() {
        let mut g = Gate::default();
        g.note_violations(&["remote get went backwards: 3 after 4".into()]);
        assert!(!g.passed());
    }
}
