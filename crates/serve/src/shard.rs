//! Sharded sweeps: a multi-process work-stealing coordinator over the
//! engine's unit-range path, with a durable journal and exact resume.
//!
//! The sweep's `DesignId` space is partitioned into contiguous units
//! ([`mpipu_explore::partition_units`]); N worker **child processes**
//! (the hidden `sweepctl worker` subcommand — the same JSONL
//! line-in/lines-out dialect the daemon speaks, over stdin/stdout)
//! each run claimed units through [`SweepEngine::run_range`]; the
//! coordinator absorbs each finished unit as it arrives through
//! [`mpipu_explore::ShardMerge`]. Because
//! the merge is exact (see `crates/explore/src/shard.rs`), the sharded
//! result line is **byte-identical** to the in-process engine's at any
//! worker count.
//!
//! Work stealing: each worker holds at most [`PIPELINE_DEPTH`] units in
//! flight; a worker that dies (EOF on its stdout) loses its units back
//! to the queue, and a worker silent past [`ShardConfig::steal_timeout`]
//! has its units *duplicated* to idle workers — first completion wins,
//! duplicates are dropped at the done-set, so a stall never wedges the
//! sweep and a slow worker never corrupts it.
//!
//! Durability: with a journal ([`ShardConfig::journal`]) every finished
//! unit is appended — fold snapshots, cache-counter delta, and the
//! memo-cache entries it computed — and flushed before the unit counts
//! as done. `--resume` replays completed units from the journal (labels
//! recomputed, values bit-exact) and only dispatches the remainder, so
//! a killed coordinator resumes to the byte-identical result without
//! re-evaluating finished work. Values cross every boundary (worker
//! wire and journal alike) as `f64` bit patterns.
//!
//! Sampled sweeps (`sample`) fold in draw order, not id order, so they
//! cannot shard; [`run_sharded`] rejects them up front.

use crate::codec::Fields;
use crate::journal::{
    memo_entries, read_journal, unit_json_after, unit_record_from_json, JournalHeader,
    JournalWriter, SnapshotPoint, UnitRecord,
};
use crate::request::{Request, SweepReq, WireError};
use crate::service::Limits;
use crate::wire;
use mpipu_bench::json::Json;
use mpipu_explore::{
    partition_units, DesignId, FnSink, FrontierPoint, NullSweepSink, ParamSpace, ShardMerge,
    SweepEngine, SweepEvent, UnitFold, UnitRange,
};
use mpipu_sim::{AnalyticBatched, CostBackend, Memoized};
use std::collections::{HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Units a worker may hold in flight: one running, one queued behind it
/// so the worker never idles waiting for the coordinator's next send.
pub const PIPELINE_DEPTH: usize = 2;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker processes (0 = one per CPU core).
    pub workers: usize,
    /// Design points per work unit.
    pub unit_points: u64,
    /// Journal path: append every finished unit, flushed, for resume
    /// and `serve --journal` warm starts.
    pub journal: Option<PathBuf>,
    /// Replay completed units from the journal instead of re-running
    /// them (requires `journal`; the header must match the sweep).
    pub resume: bool,
    /// A worker silent this long has its in-flight units duplicated to
    /// idle workers (first completion wins).
    pub steal_timeout: Duration,
    /// Test seam: explicit per-worker command lines instead of
    /// `current_exe() worker`. Also fixes the worker count.
    pub worker_cmds: Option<Vec<Vec<String>>>,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            workers: 0,
            unit_points: 1024,
            journal: None,
            resume: false,
            steal_timeout: Duration::from_secs(30),
            worker_cmds: None,
        }
    }
}

// ---- wire forms -----------------------------------------------------------

/// The unit assignment line the coordinator writes to a worker's stdin.
/// `memo` asks the worker to ship the unit's memo-cache entries back —
/// wanted only when the coordinator is journaling (they are the bulk of
/// the result bytes, so journal-free sweeps skip them entirely).
fn unit_request_json(unit: &UnitRange, sweep: &Json, memo: bool) -> Json {
    Json::obj([
        ("req", Json::str("sweep_unit")),
        ("unit", Json::from(unit.index as u64)),
        ("lo", Json::from(unit.lo)),
        ("hi", Json::from(unit.hi)),
        ("memo", Json::Bool(memo)),
        ("sweep", sweep.clone()),
    ])
}

/// A worker's `unit_result` line: the journal record form plus the
/// `event` tag (which [`unit_record_from_json`] ignores on the way in).
fn unit_result_json(record: &UnitRecord) -> Json {
    unit_json_after(Fields::default().put("event", "unit_result"), record)
}

fn snapshot_of(points: &[FrontierPoint]) -> Vec<SnapshotPoint> {
    points
        .iter()
        .map(|p| SnapshotPoint {
            id: p.id.0,
            bits: p.values.iter().map(|v| v.to_bits()).collect(),
        })
        .collect()
}

/// Rehydrate a unit's fold snapshots: values from bit patterns, labels
/// recomputed from the space (a pure function of the design id). A
/// record that does not fit the sweep — a front point without one value
/// per objective, a top point without exactly one value, a design id
/// outside the space, or a top-k selection the sweep does not have (or
/// a missing one it has) — is refused, naming the unit, before any fold
/// sees it.
fn unit_fold_of(
    space: &ParamSpace,
    objectives: usize,
    top_k: bool,
    record: &UnitRecord,
) -> Result<UnitFold, WireError> {
    let refuse = |what: String| WireError::bad_request(format!("unit {} {what}", record.unit));
    let rebuild = |points: &[SnapshotPoint], kind: &str, arity: usize| {
        points
            .iter()
            .map(|p| {
                if p.bits.len() != arity {
                    return Err(refuse(format!(
                        "{kind} point {} carries {} value(s), expected {arity}",
                        p.id,
                        p.bits.len()
                    )));
                }
                let spec = space.point(DesignId(p.id)).ok_or_else(|| {
                    refuse(format!("design id {} is outside the swept space", p.id))
                })?;
                Ok(FrontierPoint {
                    id: DesignId(p.id),
                    labels: spec.labels,
                    values: p.bits.iter().map(|&b| f64::from_bits(b)).collect(),
                })
            })
            .collect::<Result<Vec<_>, WireError>>()
    };
    if record.top.is_some() != top_k {
        return Err(refuse(if top_k {
            "has no top-k selection, but the sweep asks for one".to_string()
        } else {
            "has a top-k selection, but the sweep has none".to_string()
        }));
    }
    Ok(UnitFold {
        front: rebuild(&record.front, "front", objectives)?,
        top: record
            .top
            .as_deref()
            .map(|t| rebuild(t, "top", 1))
            .transpose()?,
    })
}

// ---- worker ---------------------------------------------------------------

fn emit_stdout(j: &Json) -> bool {
    let mut out = std::io::stdout().lock();
    let mut line = j.to_string_compact();
    line.push('\n');
    out.write_all(line.as_bytes())
        .and_then(|()| out.flush())
        .is_ok()
}

/// The worker process loop (`sweepctl worker`): read unit assignments
/// from stdin, evaluate each through the engine's range path on one
/// process-wide memoized batched backend, answer with `unit_result`
/// lines (heartbeats in between), exit 0 at EOF. The insert-log
/// captures every seed-blind memo entry a unit computes, so the
/// coordinator can journal them for `serve --journal` warm starts.
pub fn worker_main() -> i32 {
    let memo = Arc::new(Memoized::new(Arc::new(AnalyticBatched::new())));
    memo.enable_insert_log();
    let backend: Arc<dyn CostBackend> = memo.clone();
    // Units of one sweep share the parsed request and space.
    let mut cached: Option<(String, SweepReq, ParamSpace)> = None;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { return 1 };
        if line.trim().is_empty() {
            continue;
        }
        let fail = |message: String| {
            emit_stdout(&Json::obj([
                ("event", Json::str("unit_error")),
                ("message", Json::str(message)),
            ]))
        };
        let Ok(j) = Json::parse(&line) else {
            fail("worker received invalid JSON".to_string());
            return 1;
        };
        let field = |name: &str| match j.get(name) {
            Some(Json::UInt(x)) => Some(*x),
            _ => None,
        };
        let (Some(unit), Some(lo), Some(hi), Some(sweep)) =
            (field("unit"), field("lo"), field("hi"), j.get("sweep"))
        else {
            fail("worker assignment is missing unit/lo/hi/sweep".to_string());
            return 1;
        };
        let memo_wanted = !matches!(j.get("memo"), Some(Json::Bool(false)));
        let sweep_line = sweep.to_string_compact();
        if cached.as_ref().map(|(l, _, _)| l.as_str()) != Some(sweep_line.as_str()) {
            let req = match Request::parse(&sweep_line) {
                Ok(Request::Sweep(s)) => s,
                Ok(_) => {
                    fail("worker assignment embeds a non-sweep request".to_string());
                    return 1;
                }
                Err(e) => {
                    fail(format!("worker cannot parse the embedded sweep: {e}"));
                    return 1;
                }
            };
            let space = req.to_space();
            cached = Some((sweep_line, req, space));
        }
        let (_, req, space) = cached.as_ref().expect("cached above");
        let fold = match req.folds() {
            Ok(f) => f,
            Err(e) => {
                fail(format!("worker cannot build folds: {e}"));
                return 1;
            }
        };
        if hi < lo || hi > space.len() {
            fail(format!("unit {unit} range [{lo},{hi}) is out of bounds"));
            return 1;
        }

        let before = memo.cache_stats();
        memo.drain_insert_log(); // discard any pre-unit strays
        let engine = SweepEngine::new()
            .threads(1) // sharding is the parallelism
            .chunk_size(req.chunk.unwrap_or(Limits::default().default_chunk))
            .backend(backend.clone());
        let last_beat = std::sync::Mutex::new(Instant::now());
        let sink = FnSink(|event: &SweepEvent<'_>| {
            if matches!(event, SweepEvent::ChunkFinished { .. }) {
                let mut t = last_beat.lock().unwrap();
                if t.elapsed() >= Duration::from_millis(100) {
                    *t = Instant::now();
                    emit_stdout(&Json::obj([
                        ("event", Json::str("unit_heartbeat")),
                        ("unit", Json::from(unit)),
                    ]));
                }
            }
        });
        let (front, top) = engine.run_range(space, lo, hi, fold, &sink);

        let (hits, misses) = match (before, memo.cache_stats()) {
            (Some(b), Some(now)) => {
                let d = now.delta_since(&b);
                (d.hits, d.misses)
            }
            _ => (0, 0),
        };
        let memo_new: Vec<_> = if memo_wanted {
            let mut entries: Vec<_> = memo
                .drain_insert_log()
                .into_iter()
                .filter(|(key, _)| key.seed_blind())
                .collect();
            entries.sort_by(|a, b| {
                (a.0.backend_name(), a.0.to_words()).cmp(&(b.0.backend_name(), b.0.to_words()))
            });
            entries
        } else {
            memo.drain_insert_log(); // keep the log bounded
            Vec::new()
        };
        let record = UnitRecord {
            unit,
            lo,
            hi,
            front: snapshot_of(&front),
            top: top.as_deref().map(snapshot_of),
            hits,
            misses,
            memo: memo_new,
        };
        if !emit_stdout(&unit_result_json(&record)) {
            return 1; // coordinator is gone
        }
    }
    0
}

// ---- coordinator ----------------------------------------------------------

/// What a worker's reader thread hands the coordinator. Lines are parsed
/// *in the reader thread* — with N workers the (sizable, memo-laden)
/// result lines decode in parallel, off the coordinator's critical path.
enum WorkerMsg {
    /// `unit_heartbeat` — liveness only.
    Heartbeat,
    /// A decoded `unit_result`, plus the raw line for verbatim journal
    /// append (the journal reader ignores the extra `event` field).
    Result {
        raw: String,
        record: Box<UnitRecord>,
    },
    /// `unit_error`, garbage, or an undecodable result: the worker is
    /// broken.
    Broken,
    /// stdout closed: the worker exited or died.
    Eof,
}

struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    assigned: Vec<UnitRange>,
    last_activity: Instant,
    usable: bool,
}

impl Worker {
    /// Stop assigning to this worker and push its in-flight units back
    /// on the queue (front, to preserve rough id order).
    fn retire(&mut self, queue: &mut VecDeque<UnitRange>, kill: bool) {
        self.usable = false;
        for unit in self.assigned.drain(..).rev() {
            queue.push_front(unit);
        }
        if kill {
            self.stdin = None;
            let _ = self.child.kill();
        }
    }
}

/// Run `req` sharded across worker processes; returns the `result` line
/// (byte-identical to the in-process engine's). Progress goes to `emit`
/// as `shard_unit` lines plus a final `shard_stats` line.
pub fn run_sharded(
    req: &SweepReq,
    cfg: &ShardConfig,
    emit: &(dyn Fn(&Json) + Sync),
) -> Result<Json, WireError> {
    if req.sample.is_some() {
        return Err(WireError::bad_request(
            "sampled sweeps fold in draw order and cannot shard; run them in-process",
        ));
    }
    let (pareto, top) = req.folds()?;
    let space = crate::service::checked_space(req.to_space())?;
    let total = space.len();
    let unit_points = cfg.unit_points.max(1);
    let units = partition_units(total, unit_points);
    let sweep_json = Request::Sweep(req.clone()).to_json();
    let header = JournalHeader {
        request_line: sweep_json.to_string_compact(),
        unit_points,
        total_points: total,
        units: units.len() as u64,
    };

    // Resume: replay completed units out of the journal.
    let (objectives, top_k) = (pareto.objectives().len(), top.is_some());
    let mut merge = ShardMerge::new(pareto, top);
    let mut done: HashSet<u64> = HashSet::new();
    if cfg.resume {
        let path = cfg
            .journal
            .as_deref()
            .ok_or_else(|| WireError::bad_request("resume requires a journal path (--journal)"))?;
        let (found, records) = read_journal(path).map_err(WireError::bad_request)?;
        if found != header {
            return Err(WireError::bad_request(format!(
                "journal {} was written by a different sweep or partition \
                 (expected {} points in {} units of {})",
                path.display(),
                header.total_points,
                header.units,
                header.unit_points,
            )));
        }
        for record in &records {
            if record.unit >= header.units {
                return Err(WireError::bad_request(format!(
                    "journal unit {} is outside the partition",
                    record.unit
                )));
            }
            merge.offer(
                record.unit as usize,
                unit_fold_of(&space, objectives, top_k, record)?,
            );
            done.insert(record.unit);
        }
    }
    let units_resumed = done.len() as u64;
    let io_err = |what: &str, e: std::io::Error| WireError::internal(format!("{what}: {e}"));
    let mut writer = match (&cfg.journal, cfg.resume) {
        (Some(path), false) => {
            Some(JournalWriter::create(path, &header).map_err(|e| io_err("journal create", e))?)
        }
        (Some(path), true) => {
            Some(JournalWriter::open_append(path).map_err(|e| io_err("journal reopen", e))?)
        }
        (None, _) => None,
    };

    let mut queue: VecDeque<UnitRange> = units
        .iter()
        .filter(|u| !done.contains(&(u.index as u64)))
        .copied()
        .collect();

    let mut units_run = 0u64;
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut workers: Vec<Worker> = Vec::new();
    let (tx, rx) = mpsc::channel::<(usize, WorkerMsg)>();

    if !queue.is_empty() {
        let cmds: Vec<Vec<String>> = match &cfg.worker_cmds {
            Some(cmds) => cmds.clone(),
            None => {
                let exe = std::env::current_exe()
                    .map_err(|e| io_err("cannot locate the worker executable", e))?;
                let n = if cfg.workers == 0 {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                } else {
                    cfg.workers
                };
                let cmd = vec![exe.to_string_lossy().into_owned(), "worker".to_string()];
                vec![cmd; n.min(queue.len()).max(1)]
            }
        };
        for cmd in &cmds {
            let (program, args) = cmd
                .split_first()
                .ok_or_else(|| WireError::bad_request("worker command must not be empty"))?;
            let mut child = Command::new(program)
                .args(args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| io_err("cannot spawn worker", e))?;
            let stdin = child.stdin.take();
            let stdout = child.stdout.take().expect("piped stdout");
            let tx = tx.clone();
            let index = workers.len();
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(l) = line else { break };
                    if l.trim().is_empty() {
                        continue;
                    }
                    let msg = match Json::parse(&l) {
                        Ok(j) => match j.get("event").and_then(Json::as_str) {
                            Some("unit_heartbeat") => WorkerMsg::Heartbeat,
                            Some("unit_result") => match unit_record_from_json(&j) {
                                Ok(r) => WorkerMsg::Result {
                                    raw: l,
                                    record: Box::new(r),
                                },
                                Err(_) => WorkerMsg::Broken,
                            },
                            _ => WorkerMsg::Broken,
                        },
                        Err(_) => WorkerMsg::Broken,
                    };
                    if tx.send((index, msg)).is_err() {
                        return;
                    }
                }
                let _ = tx.send((index, WorkerMsg::Eof));
            });
            workers.push(Worker {
                child,
                stdin,
                assigned: Vec::new(),
                last_activity: Instant::now(),
                usable: true,
            });
        }
    }
    drop(tx);

    // Top up every usable worker to the pipeline depth.
    let capture_memo = cfg.journal.is_some();
    let refill = |workers: &mut Vec<Worker>, queue: &mut VecDeque<UnitRange>| {
        for w in workers.iter_mut() {
            while w.usable && w.assigned.len() < PIPELINE_DEPTH {
                let Some(unit) = queue.pop_front() else {
                    return;
                };
                let mut line =
                    unit_request_json(&unit, &sweep_json, capture_memo).to_string_compact();
                line.push('\n');
                let sent = w
                    .stdin
                    .as_mut()
                    .map(|s| s.write_all(line.as_bytes()).and_then(|()| s.flush()))
                    .map(|r| r.is_ok())
                    .unwrap_or(false);
                if sent {
                    if w.assigned.is_empty() {
                        // Silence counts from the hand-off: a worker that
                        // was idle is not stalled on work it just got.
                        w.last_activity = Instant::now();
                    }
                    w.assigned.push(unit);
                } else {
                    queue.push_front(unit);
                    w.usable = false;
                    break;
                }
            }
        }
    };
    refill(&mut workers, &mut queue);

    let outcome = loop {
        if done.len() as u64 >= header.units {
            break Ok(());
        }
        if !workers.iter().any(|w| w.usable) {
            break Err(WireError::internal(format!(
                "all workers are gone with {} unit(s) outstanding",
                header.units - done.len() as u64
            )));
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((w, msg)) => {
                workers[w].last_activity = Instant::now();
                match msg {
                    WorkerMsg::Heartbeat => {}
                    WorkerMsg::Result { raw, record } => {
                        workers[w]
                            .assigned
                            .retain(|u| u.index as u64 != record.unit);
                        // First completion wins; a stolen duplicate is
                        // dropped here.
                        if record.unit < header.units && done.insert(record.unit) {
                            units_run += 1;
                            hits += record.hits;
                            misses += record.misses;
                            if let Some(writer) = writer.as_mut() {
                                if let Err(e) = writer.append_line(&raw) {
                                    break Err(io_err("journal append", e));
                                }
                            }
                            match unit_fold_of(&space, objectives, top_k, &record) {
                                Ok(fold) => merge.offer(record.unit as usize, fold),
                                Err(e) => break Err(e),
                            }
                            emit(&Json::obj([
                                ("event", Json::str("shard_unit")),
                                ("unit", Json::from(record.unit)),
                                ("done", Json::from(done.len() as u64)),
                                ("units", Json::from(header.units)),
                                ("frontier_size", Json::from(merge.front_len())),
                            ]));
                        }
                    }
                    // unit_error, garbage, or EOF: the worker is gone.
                    WorkerMsg::Broken | WorkerMsg::Eof => {
                        workers[w].retire(&mut queue, true);
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Every reader thread is gone; loop re-checks liveness.
                for w in workers.iter_mut() {
                    w.retire(&mut queue, true);
                }
            }
        }
        // Steal from stalled workers: duplicate their in-flight units to
        // idle workers (the stalled process keeps running — if it ever
        // answers, the done-set drops the duplicate).
        for w in workers.iter_mut() {
            if w.usable && !w.assigned.is_empty() && w.last_activity.elapsed() >= cfg.steal_timeout
            {
                w.retire(&mut queue, false);
            }
        }
        refill(&mut workers, &mut queue);
    };

    for w in workers.iter_mut() {
        w.stdin = None; // EOF: a healthy worker exits on its own
        let _ = w.child.kill();
        let _ = w.child.wait();
    }
    outcome?;

    emit(&Json::obj([
        ("event", Json::str("shard_stats")),
        ("workers", Json::from(workers.len() as u64)),
        ("units_total", Json::from(header.units)),
        ("units_resumed", Json::from(units_resumed)),
        ("units_run", Json::from(units_run)),
        ("hits", Json::from(hits)),
        ("misses", Json::from(misses)),
    ]));
    Ok(wire::sweep_result(req, total, &merge.finish()))
}

/// Preload a [`Memoized`] backend from a journal's memo entries;
/// returns `(journal units, entries newly added)`. The `serve
/// --journal` warm start.
pub fn warm_start(memo: &Memoized, path: &std::path::Path) -> Result<(usize, usize), String> {
    let (_, records) = read_journal(path)?;
    let entries = memo_entries(&records);
    let added = memo.preload(entries);
    Ok((records.len(), added))
}

/// In-process sharded run used by tests and the `local` CLI path when
/// no worker processes are wanted: every unit through one engine, still
/// via the unit partition + merge (so it exercises the same exactness
/// contract without process management).
pub fn run_units_in_process(req: &SweepReq, unit_points: u64) -> Result<Json, WireError> {
    let space = crate::service::checked_space(req.to_space())?;
    let engine = crate::service::reference_engine(1, req.chunk);
    let (pareto, top) = req.folds()?;
    let mut merge = ShardMerge::new(pareto, top);
    for unit in partition_units(space.len(), unit_points) {
        let fold = req.folds()?;
        let (front, top) = engine.run_range(&space, unit.lo, unit.hi, fold, &NullSweepSink);
        merge.offer(unit.index, UnitFold { front, top });
    }
    Ok(wire::sweep_result(req, space.len(), &merge.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AxisSpec, ScenarioSpec, TopKSpec};
    use crate::service::reference_sweep_result;

    fn small_req() -> SweepReq {
        SweepReq {
            base: ScenarioSpec {
                sample_steps: Some(16),
                ..ScenarioSpec::default()
            },
            axes: vec![
                AxisSpec::W(vec![8, 12, 16]),
                AxisSpec::Cluster(vec![1, 2, 4]),
            ],
            top_k: Some(TopKSpec {
                objective: "cycles".to_string(),
                k: 3,
            }),
            ..SweepReq::default()
        }
    }

    #[test]
    fn unit_request_round_trips_through_the_worker_parse() {
        let req = small_req();
        let sweep = Request::Sweep(req.clone()).to_json();
        let unit = UnitRange {
            index: 3,
            lo: 12,
            hi: 16,
        };
        let line = unit_request_json(&unit, &sweep, true).to_string_compact();
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("unit"), Some(&Json::UInt(3)));
        assert_eq!(j.get("memo"), Some(&Json::Bool(true)));
        let embedded = j.get("sweep").unwrap().to_string_compact();
        assert_eq!(Request::parse(&embedded), Ok(Request::Sweep(req)));
    }

    #[test]
    fn unit_result_line_parses_back_to_the_record() {
        let record = UnitRecord {
            unit: 5,
            lo: 20,
            hi: 24,
            front: vec![SnapshotPoint {
                id: 21,
                bits: vec![1.25f64.to_bits()],
            }],
            top: None,
            hits: 2,
            misses: 2,
            memo: vec![],
        };
        let j = unit_result_json(&record);
        assert_eq!(j.get("event").and_then(Json::as_str), Some("unit_result"));
        assert_eq!(unit_record_from_json(&j), Ok(record));
    }

    #[test]
    fn in_process_units_match_the_reference_at_any_unit_size() {
        let req = small_req();
        let reference = reference_sweep_result(&req, 2).unwrap().to_string_compact();
        for unit_points in [1, 2, 4, 100] {
            let sharded = run_units_in_process(&req, unit_points)
                .unwrap()
                .to_string_compact();
            assert_eq!(sharded, reference, "unit_points={unit_points}");
        }
    }

    /// Resume `req` from a full journal whose unit 1 record went through
    /// `corrupt`; returns the resume's error.
    fn resume_corrupt(tag: &str, req: &SweepReq, corrupt: fn(&mut UnitRecord)) -> WireError {
        let space = req.to_space();
        let units = partition_units(space.len(), 4);
        let header = JournalHeader {
            request_line: Request::Sweep(req.clone()).to_json().to_string_compact(),
            unit_points: 4,
            total_points: space.len(),
            units: units.len() as u64,
        };
        let path = std::env::temp_dir().join(format!(
            "mpipu-shard-corrupt-{tag}-{}.jsonl",
            std::process::id()
        ));
        let mut writer = JournalWriter::create(&path, &header).unwrap();
        let engine = crate::service::reference_engine(1, req.chunk);
        for unit in &units {
            let fold = req.folds().unwrap();
            let (front, top) = engine.run_range(&space, unit.lo, unit.hi, fold, &NullSweepSink);
            let mut record = UnitRecord {
                unit: unit.index as u64,
                lo: unit.lo,
                hi: unit.hi,
                front: snapshot_of(&front),
                top: top.as_deref().map(snapshot_of),
                hits: 0,
                misses: 0,
                memo: vec![],
            };
            if unit.index == 1 {
                corrupt(&mut record);
            }
            writer.append_unit(&record).unwrap();
        }
        drop(writer);
        let cfg = ShardConfig {
            unit_points: 4,
            journal: Some(path.clone()),
            resume: true,
            ..ShardConfig::default()
        };
        let outcome = run_sharded(req, &cfg, &|_| {});
        std::fs::remove_file(&path).unwrap();
        outcome.expect_err("a corrupt unit record must be refused")
    }

    #[test]
    fn resume_refuses_a_front_point_of_the_wrong_arity() {
        let err = resume_corrupt("front", &small_req(), |r| {
            r.front[0].bits.pop();
        });
        assert_eq!(err.code, crate::request::ErrorCode::BadRequest);
        assert!(err.message.starts_with("unit 1 front point"), "{err}");
    }

    #[test]
    fn resume_refuses_a_top_point_of_the_wrong_arity() {
        let err = resume_corrupt("top", &small_req(), |r| {
            r.top.as_mut().unwrap()[0].bits.push(0);
        });
        assert!(err.message.starts_with("unit 1 top point"), "{err}");
    }

    #[test]
    fn resume_refuses_a_top_field_that_does_not_fit_the_sweep() {
        let err = resume_corrupt("no-top", &small_req(), |r| r.top = None);
        assert!(err.message.starts_with("unit 1 has no top-k"), "{err}");
        let no_top = SweepReq {
            top_k: None,
            ..small_req()
        };
        let err = resume_corrupt("extra-top", &no_top, |r| r.top = Some(vec![]));
        assert!(err.message.starts_with("unit 1 has a top-k"), "{err}");
    }

    #[test]
    fn sampled_sweeps_are_rejected() {
        let req = SweepReq {
            sample: Some(crate::request::SampleSpec { count: 4, seed: 1 }),
            ..small_req()
        };
        let err = run_sharded(&req, &ShardConfig::default(), &|_| {}).unwrap_err();
        assert!(err.message.contains("cannot shard"), "{err}");
    }
}
