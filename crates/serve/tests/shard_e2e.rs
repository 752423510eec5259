//! End-to-end tests for sharded, durable sweeps: real worker child
//! processes (the `sweepctl worker` subcommand), real SIGKILLs, real
//! journals on disk.
//!
//! The contract under test, from every angle: the sharded result line is
//! **byte-identical** to the in-process engine's — at any worker count,
//! across a worker kill, across a coordinator kill + `--resume`, and
//! across work-stealing from a stalled worker.

use mpipu_bench::json::Json;
use mpipu_serve::request::SweepReq;
use mpipu_serve::service::reference_sweep_result;
use mpipu_serve::{presets, run_sharded, Service, ShardConfig};
use mpipu_sim::CostBackend;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

fn worker_cmd() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_sweepctl").to_string(),
        "worker".to_string(),
    ]
}

fn tmp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mpipu-shard-e2e-{tag}-{}.jsonl",
        std::process::id()
    ))
}

/// The reference `result` line, compact-serialized — the byte-identity
/// oracle every sharded run is compared against.
fn reference_line(req: &SweepReq) -> String {
    reference_sweep_result(req, 2)
        .expect("reference sweep")
        .to_string_compact()
}

fn sharded_line(req: &SweepReq, cfg: &ShardConfig) -> String {
    let quiet: &(dyn Fn(&Json) + Sync) = &|_| {};
    run_sharded(req, cfg, quiet)
        .expect("sharded sweep")
        .to_string_compact()
}

/// An extra argument (ignored by `sweepctl worker`) marking the workers
/// of the SIGKILL test. This file's tests share one process, so matching
/// on `worker` alone could also hit another test's worker or the
/// coordinator-kill test's `sweep local --workers 2` child.
const KILL_MARK: &str = "sigkill-victim";

/// PIDs of this process's direct children whose command line carries
/// [`KILL_MARK`].
fn marked_worker_pids() -> Vec<u32> {
    let me = std::process::id();
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // stat: "pid (comm) state ppid ..." — comm may contain spaces,
        // so split after the closing paren.
        let Some(rest) = stat.rsplit(')').next() else {
            continue;
        };
        let ppid: Option<u32> = rest.split_whitespace().nth(1).and_then(|s| s.parse().ok());
        if ppid != Some(me) {
            continue;
        }
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        if String::from_utf8_lossy(&cmdline).contains(KILL_MARK) {
            pids.push(pid);
        }
    }
    pids
}

fn sigkill(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
}

#[test]
fn sharded_runs_are_byte_identical_at_any_worker_count() {
    let req = presets::demo_sweep();
    let want = reference_line(&req);
    for workers in [1usize, 2, 3] {
        let cfg = ShardConfig {
            unit_points: 64,
            worker_cmds: Some(vec![worker_cmd(); workers]),
            ..ShardConfig::default()
        };
        assert_eq!(
            sharded_line(&req, &cfg),
            want,
            "sharded result diverged at {workers} worker(s)"
        );
    }
}

#[test]
fn sigkilled_worker_loses_its_units_to_the_survivor() {
    let req = presets::cold_grid_sweep(); // 11,780 points: >=10^4
    let want = reference_line(&req);
    let killed = AtomicBool::new(false);
    let done_at_kill = AtomicU64::new(u64::MAX);
    // After the first finished unit, SIGKILL one live worker; the
    // coordinator must requeue its in-flight units and finish on the
    // survivor with the byte-identical result.
    let emit = |j: &Json| {
        if j.get("event").and_then(Json::as_str) != Some("shard_unit") {
            return;
        }
        if killed.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(&pid) = marked_worker_pids().last() {
            sigkill(pid);
        }
        if let Some(Json::UInt(done)) = j.get("done") {
            done_at_kill.store(*done, Ordering::SeqCst);
        }
    };
    let mut marked = worker_cmd();
    marked.push(KILL_MARK.to_string());
    let cfg = ShardConfig {
        unit_points: 256, // 47 units: plenty outstanding at kill time
        worker_cmds: Some(vec![marked; 2]),
        ..ShardConfig::default()
    };
    let got = run_sharded(&req, &cfg, &emit)
        .expect("sweep survives a worker SIGKILL")
        .to_string_compact();
    assert_eq!(got, want, "result diverged after a worker SIGKILL");
    assert!(killed.load(Ordering::SeqCst), "the kill hook never fired");
    assert!(
        done_at_kill.load(Ordering::SeqCst) < 47,
        "the kill landed after the sweep was already done"
    );
}

#[test]
fn sigkilled_coordinator_resumes_byte_identically_without_recompute() {
    let journal = tmp_journal("coord-kill");
    let _ = std::fs::remove_file(&journal);
    let sweepctl = env!("CARGO_BIN_EXE_sweepctl");

    // Run 0: an uninterrupted sharded run — the byte-identity oracle,
    // plus the grid's intrinsic backend-query count (a design point can
    // issue more than one priced query, so recompute accounting is in
    // queries, not points).
    let req = presets::cold_grid_sweep();
    let full_stats = std::sync::Mutex::new(None);
    let emit = |j: &Json| {
        if j.get("event").and_then(Json::as_str) == Some("shard_stats") {
            *full_stats.lock().unwrap() = Some(j.clone());
        }
    };
    let cfg0 = ShardConfig {
        unit_points: 512,
        worker_cmds: Some(vec![worker_cmd(); 2]),
        ..ShardConfig::default()
    };
    let want = run_sharded(&req, &cfg0, &emit)
        .expect("uninterrupted run")
        .to_string_compact();
    assert_eq!(want, reference_line(&req), "sharded oracle diverged");
    let full_misses = match full_stats
        .lock()
        .unwrap()
        .as_ref()
        .and_then(|s| s.get("misses"))
    {
        Some(Json::UInt(m)) => *m,
        other => panic!("shard_stats.misses missing: {other:?}"),
    };
    let args = |resume: bool| {
        let mut a = vec![
            "sweep".to_string(),
            "local".to_string(),
            "--cold-grid".to_string(),
            "--workers".to_string(),
            "2".to_string(),
            "--unit-points".to_string(),
            "512".to_string(),
            "--journal".to_string(),
            journal.display().to_string(),
        ];
        if resume {
            a.push("--resume".to_string());
        }
        a
    };

    // Run 1: SIGKILL the whole coordinator process after two units have
    // been journaled.
    let mut child = Command::new(sweepctl)
        .args(args(false))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    {
        use std::io::BufRead;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut units_seen = 0;
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line.contains("\"shard_unit\"") {
                units_seen += 1;
                if units_seen >= 2 {
                    break;
                }
            }
            assert!(
                !line.contains("\"result\""),
                "sweep finished before the kill; enlarge the grid"
            );
        }
        assert!(units_seen >= 2, "coordinator exited before two units");
    }
    child.kill().expect("SIGKILL coordinator");
    let _ = child.wait();

    // Orphaned workers die on their broken pipes; give them a moment so
    // their pids don't linger in the resumed run's process table.
    std::thread::sleep(Duration::from_millis(100));

    // What actually reached the journal before the kill (completion
    // order, not unit order — and possibly more than the two units we
    // watched scroll by). Each record carries the queries it cost.
    let (_, journaled) = mpipu_serve::journal::read_journal(&journal).expect("journal reads");
    let replayed_misses: u64 = journaled.iter().map(|r| r.misses).sum();
    assert!(
        journaled.len() >= 2,
        "kill landed before two journal appends"
    );

    // Run 2: resume from the journal. Completed units must be replayed,
    // not re-evaluated, and the result must be byte-identical to an
    // uninterrupted run.
    let out = Command::new(sweepctl)
        .args(args(true))
        .output()
        .expect("resume run");
    assert!(out.status.success(), "resume run failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stats_line = stdout
        .lines()
        .find(|l| l.contains("\"shard_stats\""))
        .expect("shard_stats line");
    let stats = Json::parse(stats_line).expect("shard_stats parses");
    let field = |name: &str| match stats.get(name) {
        Some(Json::UInt(x)) => *x,
        other => panic!("shard_stats.{name} missing or non-uint: {other:?}"),
    };
    let (resumed, run, misses) = (field("units_resumed"), field("units_run"), field("misses"));
    assert_eq!(
        resumed as usize,
        journaled.len(),
        "every journaled unit replays"
    );
    assert_eq!(resumed + run, field("units_total"));
    // The cache-stats delta proves replayed units were never re-priced:
    // the resumed run issues exactly the non-replayed units' queries.
    assert_eq!(
        misses,
        full_misses - replayed_misses,
        "resume re-evaluated journaled work ({resumed} units replayed)"
    );
    let result_line = stdout
        .lines()
        .find(|l| l.contains("\"result\""))
        .expect("result line");
    assert_eq!(
        result_line, want,
        "resumed result diverged from the uninterrupted reference"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn stalled_worker_is_stolen_from() {
    let req = presets::demo_sweep();
    let want = reference_line(&req);
    // Worker 0 accepts assignments but never answers; worker 1 is real.
    // After steal_timeout, the stalled worker's units are duplicated to
    // the healthy one and the sweep completes exactly.
    let stall = vec![
        "sh".to_string(),
        "-c".to_string(),
        // `exec`: the coordinator's kill must reach the sleeper itself,
        // or an orphaned `sleep` holds the test's inherited stderr open.
        "read x; exec sleep 600".to_string(),
    ];
    let cfg = ShardConfig {
        unit_points: 64,
        steal_timeout: Duration::from_millis(300),
        worker_cmds: Some(vec![stall, worker_cmd()]),
        ..ShardConfig::default()
    };
    assert_eq!(
        sharded_line(&req, &cfg),
        want,
        "result diverged after stealing from a stalled worker"
    );
}

#[test]
fn serve_journal_warm_start_serves_hits() {
    let req = presets::demo_sweep();
    let journal = tmp_journal("warm-start");
    let _ = std::fs::remove_file(&journal);
    let cfg = ShardConfig {
        unit_points: 64,
        journal: Some(journal.clone()),
        worker_cmds: Some(vec![worker_cmd(); 2]),
        ..ShardConfig::default()
    };
    let sharded = sharded_line(&req, &cfg);

    let mut service = Service::new(mpipu_serve::Limits {
        engine_threads: 1,
        ..mpipu_serve::Limits::default()
    });
    let info = service.preload_journal(&journal).expect("journal preloads");
    assert_eq!(info.units, 6, "demo grid at 64-point units");
    assert_eq!(
        info.entries as u64,
        req.points(),
        "one memo entry per point"
    );

    // The warmed cache must serve the same sweep without a single miss —
    // and produce the byte-identical result line.
    let before = service.memo().cache_stats().expect("cache stats");
    let lines = std::sync::Mutex::new(Vec::new());
    let emit = |j: &Json| lines.lock().unwrap().push(j.to_string_compact());
    let line = mpipu_serve::request::Request::Sweep(req.clone()).to_line();
    let ok = service.handle_line(&line, &mpipu_explore::CancelToken::new(), &emit);
    assert!(ok, "warmed sweep failed");
    let after = service.memo().cache_stats().expect("cache stats");
    let delta = after.delta_since(&before);
    assert_eq!(delta.misses, 0, "warm-started sweep recomputed points");
    assert_eq!(delta.hits, req.points() as u64);
    let lines = lines.into_inner().unwrap();
    let served = lines
        .iter()
        .find(|l| l.contains("\"result\""))
        .expect("served result line");
    assert_eq!(
        served, &sharded,
        "served result diverged from the sharded run"
    );

    // And the stats line reports the journal load.
    let stats_lines = std::sync::Mutex::new(Vec::new());
    let emit = |j: &Json| stats_lines.lock().unwrap().push(j.to_string_compact());
    service.handle_line(
        r#"{"req":"stats"}"#,
        &mpipu_explore::CancelToken::new(),
        &emit,
    );
    let stats_lines = stats_lines.into_inner().unwrap();
    let stats = stats_lines
        .iter()
        .find(|l| l.contains("\"journal\""))
        .expect("stats line carries the journal report");
    assert!(stats.contains("\"entries\""), "{stats}");
    let _ = std::fs::remove_file(&journal);
}
