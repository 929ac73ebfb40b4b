//! `wallbench`: Rover measured on wall time, as a mobile application
//! sees it.
//!
//! One generator process links the client toolkit and drives it over
//! one TCP connection against an unmodified `rover-cluster server`
//! process (loopback, WAL on the real filesystem, deployment flags
//! only). See `README.md` next to this crate for the workloads and
//! metrics.
//!
//! Usage:
//!   wallbench --server-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//!
//! The last stdout line is the result object; the line before it is the
//! full report (host record, client configuration, sample counts).

#![deny(unsafe_code)]

mod driver;
mod gate;
mod json;
mod probes;
mod server;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::{quantile, Dist, J};
use server::CLK_TCK;
use workload::{Kind, Phase, Workload};

struct Args {
    server_bin: PathBuf,
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("{name} is required"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload_name = get("--workload")?;
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name}"))?;
    let num = |s: String, name: &str| s.parse::<u64>().map_err(|e| format!("{name}: {e}"));
    let seconds = num(get("--seconds")?, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        server_bin: PathBuf::from(get("--server-bin")?),
        workload,
        workload_name,
        seed: num(get("--seed")?, "--seed")?,
        seconds,
        trace,
    })
}

fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5).unwrap_or(f64::NAN)
}

/// Milliseconds from `a` to `b` (nanosecond timestamps).
fn ms_between(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64 / 1e6
}

/// The latency series of one phase, each timed as the client saw it.
struct Series {
    tentative: Dist,
    commit: Dist,
    invoke: Dist,
    local: Dist,
}

fn series(p: &Phase) -> Series {
    let of = |kind: Kind, f: &dyn Fn(&workload::OpRec) -> Option<f64>| {
        Dist::of(
            p.recs
                .iter()
                .filter(|r| r.kind == kind)
                .filter_map(f)
                .collect(),
        )
    };
    Series {
        tentative: of(Kind::Export, &|r| r.tentative.map(|t| ms_between(r.due, t))),
        commit: of(Kind::Export, &|r| r.done.map(|t| ms_between(r.sendable, t))),
        invoke: of(Kind::Remote, &|r| r.done.map(|t| ms_between(r.due, t))),
        local: of(Kind::Local, &|r| r.done.map(|t| ms_between(r.due, t))),
    }
}

/// One reported metric: (name, value, unit).
type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of one phase. Commit and remote-invoke
/// latency are in the report line and the traced run only: on this
/// host's low-load workloads they do not repeat within any allowed
/// bound (see README).
fn end_to_end(p: &Phase) -> Vec<Metric> {
    let s = series(p);
    // The fastest set-up: the median follows other load on the host far
    // more than the minimum does (see README).
    let setup_s = p.setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    vec![
        ("setup_s", setup_s, "s"),
        ("tentative_p50_ms", s.tentative.p50, "ms"),
        ("commit_ops_per_s", p.commit_ops_per_s, "1/s"),
        ("local_p50_ms", s.local.p50, "ms"),
        ("server_peak_rss_mb", p.server_rss_mb, "MiB"),
    ]
}

/// What the client observed in one phase, compared between the traced
/// and untraced phase for the tracing overhead.
fn observed(p: &Phase) -> Vec<Metric> {
    let s = series(p);
    vec![
        ("tentative_p50_ms", s.tentative.p50, "ms"),
        ("commit_p50_ms", s.commit.p50, "ms"),
        ("commit_ops_per_s", p.commit_ops_per_s, "1/s"),
        ("invoke_p50_ms", s.invoke.p50, "ms"),
        ("local_p50_ms", s.local.p50, "ms"),
    ]
}

/// Per-layer metrics of a traced phase; `untraced` is the same
/// workload's untraced phase of the same run, for the overhead.
fn per_layer(p: &Phase, untraced: &Phase, wal_dir: &Path) -> Result<(Vec<Metric>, J), String> {
    let tr = p.trace.as_ref().ok_or("traced phase lost its trace")?;
    let ops = p.qrpc_ops().max(1) as f64;
    let exports: Vec<&workload::OpRec> = p.recs.iter().filter(|r| r.kind == Kind::Export).collect();
    let span = |f: &dyn Fn(&workload::OpRec) -> Option<f64>| {
        median(&exports.iter().filter_map(|r| f(r)).collect::<Vec<_>>())
    };
    let first_out = |r: &workload::OpRec| tr.first_out.get(&r.req).copied();
    let reply_in = |r: &workload::OpRec| tr.reply_in.get(&r.req).copied();
    let issue_to_frame_us = span(&|r| first_out(r).map(|t| 1e3 * ms_between(r.sendable, t)));
    let frame_to_reply_us = span(&|r| Some(1e3 * ms_between(first_out(r)?, reply_in(r)?)));
    let reply_to_resolve_us = span(&|r| Some(1e3 * ms_between(reply_in(r)?, r.done?)));

    let wall = p
        .server_end
        .at
        .duration_since(p.server_start.at)
        .as_secs_f64();
    let srv_cpu_s = (p.server_end.cpu_ticks - p.server_start.cpu_ticks) as f64 / CLK_TCK;
    let srv_ctxsw = p.server_end.ctxsw.saturating_sub(p.server_start.ctxsw) as f64;
    let gen_wall = p.gen_end.at.duration_since(p.gen_start.at).as_secs_f64();
    let gen_cpu_s = (p.gen_end.cpu_ticks - p.gen_start.cpu_ticks) as f64 / CLK_TCK;
    let requests = p.summary.requests.max(1) as f64;

    // Micro-probes at the sizes this phase captured.
    let env = tr
        .sample_request
        .clone()
        .ok_or("traced phase captured no request envelope")?;
    let (encode_us, decode_us) = probes::codec(&env);
    let frame_rtt_us = probes::frame_rtt(&env)?;
    let wal_bytes_per_op = tr.wal_growth as f64 / ops;
    let (fsync_us, checkpoint_us) = probes::log(
        wal_dir,
        wal_bytes_per_op.round() as usize,
        p.dump.snapshot_bytes as usize,
    )?;
    let (add_us, get_us) = probes::script()?;
    let wake_latency_us = probes::wake_latency()?;

    // Tracing overhead: each client-observed figure of the traced phase
    // against the untraced one; the worst is reported, all are in the
    // report line.
    let mut overhead = J::obj();
    let mut worst = f64::NEG_INFINITY;
    for ((name, traced, _), (_, plain, _)) in observed(p).iter().zip(observed(untraced)) {
        let pct = if *name == "commit_ops_per_s" {
            (plain / traced - 1.0) * 100.0
        } else {
            (traced / plain - 1.0) * 100.0
        };
        worst = worst.max(pct);
        overhead.put(name, J::Num(pct));
    }

    let s = series(p);
    let m: Vec<Metric> = vec![
        (
            "rover-core.export_call_us",
            median(&tr.export_call_us),
            "us",
        ),
        (
            "rover-core.invoke_local_call_us",
            median(&tr.invoke_local_call_us),
            "us",
        ),
        ("rover-core.reply_to_resolve_us", reply_to_resolve_us, "us"),
        (
            "rover-core.outstanding_peak",
            tr.outstanding_peak as f64,
            "count",
        ),
        (
            "rover-core.retransmits_per_op",
            p.retransmits as f64 / ops,
            "count",
        ),
        ("rover-sim.run_until_us_per_op", tr.run_until_us / ops, "us"),
        ("rover-sim.wakeups_per_op", tr.wakeups as f64 / ops, "count"),
        (
            "rover-sim.wait_timer_us_per_op",
            tr.wait_timer_us / ops,
            "us",
        ),
        ("rover-sim.wait_io_us_per_op", tr.wait_io_us / ops, "us"),
        ("rover-sim.wake_latency_us", wake_latency_us, "us"),
        ("rover-net.send_us", median(&tr.send_us), "us"),
        ("rover-net.inject_us", median(&tr.inject_us), "us"),
        (
            "rover-net.frames_out_per_op",
            tr.frames_out as f64 / ops,
            "count",
        ),
        (
            "rover-net.frames_in_per_op",
            tr.frames_in as f64 / ops,
            "count",
        ),
        ("rover-net.issue_to_frame_us", issue_to_frame_us, "us"),
        ("rover-net.frame_to_reply_us", frame_to_reply_us, "us"),
        ("rover-net.frame_rtt_us", frame_rtt_us, "us"),
        (
            "rover-wire.bytes_out_per_op",
            tr.bytes_out as f64 / ops,
            "B",
        ),
        ("rover-wire.bytes_in_per_op", tr.bytes_in as f64 / ops, "B"),
        ("rover-wire.encode_us", encode_us, "us"),
        ("rover-wire.decode_us", decode_us, "us"),
        ("rover-log.wal_bytes_per_op", wal_bytes_per_op, "B"),
        ("rover-log.fsync_us", fsync_us, "us"),
        ("rover-log.checkpoint_us", checkpoint_us, "us"),
        ("rover-script.add_us", add_us, "us"),
        ("rover-script.get_us", get_us, "us"),
        ("rover-cluster.server_cpu_util", srv_cpu_s / wall, "ratio"),
        (
            "rover-cluster.server_cpu_us_per_op",
            srv_cpu_s * 1e6 / ops,
            "us",
        ),
        (
            "rover-cluster.server_ctxsw_per_op",
            srv_ctxsw / ops,
            "count",
        ),
        (
            "rover-cluster.ops_per_group_commit",
            requests / p.summary.group_commits.max(1) as f64,
            "count",
        ),
        (
            "rover-cluster.checkpoints_per_kop",
            p.summary.checkpoints as f64 * 1e3 / requests,
            "count",
        ),
        (
            "gen.lag_p99_ms",
            quantile(&mut p.lag_ms.clone(), 0.99).unwrap_or(0.0),
            "ms",
        ),
        ("gen.cpu_util", gen_cpu_s / gen_wall, "ratio"),
        ("gen.trace_overhead_pct", worst, "%"),
        ("gen.commit_p50_ms", s.commit.p50, "ms"),
        ("gen.commit_p99_ms", s.commit.p99, "ms"),
        ("gen.invoke_p50_ms", s.invoke.p50, "ms"),
        ("gen.invoke_p99_ms", s.invoke.p99, "ms"),
    ];
    Ok((m, overhead))
}

/// Seconds to the microsecond, as a compact list.
fn rounded(v: &[f64]) -> String {
    format!(
        "{:?}",
        v.iter()
            .map(|x| (x * 1e6).round() / 1e6)
            .collect::<Vec<_>>()
    )
}

fn phase_report(p: &Phase, traced: bool) -> J {
    let s = series(p);
    let mut j = J::obj()
        .with("traced", J::Bool(traced))
        .with("setup_s", J::Str(rounded(&p.setup_s)))
        .with("tentative_ms", s.tentative.to_json())
        .with("commit_ms", s.commit.to_json())
        .with("invoke_ms", s.invoke.to_json())
        .with("local_ms", s.local.to_json())
        .with("lag_ms", Dist::of(p.lag_ms.clone()).to_json())
        .with("commit_ops_per_s", J::Num(p.commit_ops_per_s))
        .with("qrpc_ops", J::Int(p.qrpc_ops()))
        .with("retransmits", J::Int(p.retransmits))
        .with("host_cpu_steal_pct", J::Num(p.steal_pct))
        .with("server_requests", J::Int(p.summary.requests))
        .with("server_group_commits", J::Int(p.summary.group_commits))
        .with("server_checkpoints", J::Int(p.summary.checkpoints))
        .with("recovered_counter", J::Int(p.dump.counter))
        .with("snapshot_bytes", J::Int(p.dump.snapshot_bytes))
        .with("gate_failures", J::Str(p.gate.failures().join("; ")));
    if !p.reintegrate_s.is_empty() {
        j.put(
            "reintegrate_s",
            J::obj()
                .with("median", J::Num(median(&p.reintegrate_s)))
                .with("cycles", J::Int(p.reintegrate_s.len() as u64))
                .with("each", J::Str(rounded(&p.reintegrate_s))),
        );
    }
    j
}

/// Filesystem type of the mount holding `dir` (longest mount prefix).
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            Some((*f.get(1)?, *f.get(2)?))
        })
        .filter(|(mp, _)| dir.starts_with(mp))
        .max_by_key(|(mp, _)| mp.len())
        .map_or("unknown".into(), |(_, t)| t.to_string())
}

fn host_record(run_dir: &Path) -> J {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |s| s.trim().to_string());
    // Only this checkout's own repository: git would otherwise search
    // the parent directories.
    let rev = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or("unknown (not a git checkout)".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let cfg = driver::client_config();
    J::obj()
        .with(
            "nproc",
            J::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        )
        .with("kernel", J::Str(kernel))
        .with("wal_fs", J::Str(fs_type(run_dir)))
        .with("loopback_only", J::Bool(true))
        .with(
            "build_profile",
            J::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        )
        .with("git_revision", J::Str(rev))
        .with(
            "client_config",
            J::obj()
                .with(
                    "base",
                    J::Str("ClientConfig::thinkpad, as rover_cluster::run_client".into()),
                )
                .with("cpu", J::Str(format!("{:?}", cfg.cpu)))
                .with("storage", J::Str(format!("{:?}", cfg.storage)))
                .with("log_policy", J::Str(format!("{:?}", cfg.log_policy)))
                .with("mtu", J::Int(cfg.mtu as u64))
                .with("rto_ms", J::Int(cfg.rto.as_millis()))
                .with("rto_max_ms", J::Int(cfg.rto_max.as_millis()))
                .with("retry_budget", J::Str(format!("{:?}", cfg.retry_budget)))
                .with("guarantees", J::Str("Guarantees::ALL".into())),
        )
}

/// The result's metrics object; a metric without samples is an error,
/// not a `null` in the result.
fn metrics_json(m: &[Metric]) -> Result<J, String> {
    let mut j = J::obj();
    for (name, v, unit) in m {
        if !v.is_finite() {
            return Err(format!("metric {name} has no samples"));
        }
        j.put(
            name,
            J::obj()
                .with("value", J::Num(*v))
                .with("unit", J::Str(unit.to_string())),
        );
    }
    Ok(j)
}

fn run(a: &Args) -> Result<(J, J, bool), String> {
    let run_dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        a.workload_name,
        a.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("mkdir {}: {e}", run_dir.display()))?;
    let result = (|| {
        let mut report = J::obj()
            .with("workload", J::Str(a.workload_name.clone()))
            .with("seed", J::Int(a.seed))
            .with("seconds", J::Int(a.seconds))
            .with("trace", J::Bool(a.trace))
            .with("host", host_record(&run_dir));
        let mut gate = gate::Gate::default();
        let mut attempted = 0u64;
        let phase = |traced: bool, secs: u64, seed: u64| {
            workload::run_phase(
                a.workload,
                &a.server_bin,
                &run_dir.join(if traced { "traced" } else { "plain" }),
                seed,
                secs,
                traced,
            )
        };
        let metrics = if !a.trace {
            let p = phase(false, a.seconds, a.seed)?;
            report.put("phase", phase_report(&p, false));
            attempted += p.recs.len() as u64 + workload::SETUPS as u64;
            let m = metrics_json(&end_to_end(&p))?;
            gate.absorb(p.gate);
            m
        } else {
            // Half the run untraced, half traced, same seed: the
            // difference is the tracing overhead.
            let half = a.seconds.div_ceil(2);
            let plain = phase(false, half, a.seed)?;
            let traced = phase(true, half, a.seed)?;
            let (m, overhead) = per_layer(&traced, &plain, &run_dir.join("traced"))?;
            report.put("untraced_phase", phase_report(&plain, false));
            report.put("traced_phase", phase_report(&traced, true));
            report.put("trace_overhead_pct", overhead);
            attempted +=
                (plain.recs.len() + traced.recs.len()) as u64 + 2 * workload::SETUPS as u64;
            gate.absorb(plain.gate);
            gate.absorb(traced.gate);
            metrics_json(&m)?
        };
        let correct = gate.passed();
        report.put("gate_failures", J::Str(gate.failures().join("; ")));
        let result = J::obj()
            .with("correct", J::Bool(correct))
            .with("attempted", J::Int(attempted))
            .with("failed", J::Int(gate.failed_ops))
            .with("metrics", metrics);
        Ok((report, result, correct))
    })();
    let _ = std::fs::remove_dir_all(&run_dir);
    // Succeeds only if no other run is using the parent.
    let _ = std::fs::remove_dir(".bench_run");
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!(
                "usage: wallbench --server-bin PATH --workload interactive|saturate|reintegrate \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((report, result, correct)) => {
            println!("{}", J::obj().with("report", report));
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("wallbench: correctness gate failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::from(2)
        }
    }
}
