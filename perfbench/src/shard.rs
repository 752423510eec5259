//! `shard`: `run_sharded` of the cold-grid preset over two worker
//! processes — the only workload that touches the process fleet and the
//! journal. Each operation is a fresh cold cycle: a journaled sharded
//! sweep, an unjournaled one, a `resume` replay of the full journal, and
//! a `Service::preload_journal` warm start from it. The workers are this
//! binary's `worker` subcommand, which runs the same `worker_main` loop
//! as `sweepctl worker`.

use crate::trace::{by_name, Tracer};
use crate::{out_dir, stats, Args, Outcome};
use mpipu_bench::json::Json;
use mpipu_serve::presets;
use mpipu_serve::shard::run_units_in_process;
use mpipu_serve::{run_sharded, Limits, Service, ShardConfig, SweepReq};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const WORKERS: usize = 2;
const UNIT_POINTS: u64 = 1024;

fn config(journal: Option<&Path>, resume: bool) -> ShardConfig {
    ShardConfig {
        workers: WORKERS,
        unit_points: UNIT_POINTS,
        journal: journal.map(Path::to_path_buf),
        resume,
        ..ShardConfig::default()
    }
}

/// Run one sharded sweep; returns the result line and the `shard_stats`
/// event.
fn sharded(req: &SweepReq, cfg: &ShardConfig) -> Result<(String, Json), String> {
    let stats = Mutex::new(Json::Null);
    let emit = |j: &Json| {
        if j.get("event").and_then(Json::as_str) == Some("shard_stats") {
            *stats.lock().expect("stats slot") = j.clone();
        }
    };
    let line = run_sharded(req, cfg, &emit).map_err(|e| format!("run_sharded: {e:?}"))?;
    Ok((
        line.to_string_compact(),
        stats.into_inner().expect("stats slot"),
    ))
}

fn field(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_f64)
        .map_or(u64::MAX, |v| v as u64)
}

/// What one cycle observed.
struct Cycle {
    units: usize,
    entries: usize,
    journal_bytes: u64,
}

/// One cold cycle against `reference`; `tracer` adds a span per step.
fn cycle(
    req: &SweepReq,
    reference: &str,
    journal: &Path,
    tracer: Option<&Tracer>,
) -> Result<Cycle, String> {
    let step = |name: &str, f: &mut dyn FnMut() -> Result<(String, Json), String>| match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    };
    let _ = std::fs::remove_file(journal);
    let (journaled, _) = step("shard.sweep_journaled", &mut || {
        sharded(req, &config(Some(journal), false))
    })?;
    if journaled != reference {
        return Err("journaled sharded sweep != run_units_in_process".into());
    }
    let (plain, _) = step("shard.sweep_plain", &mut || {
        sharded(req, &config(None, false))
    })?;
    if plain != reference {
        return Err("unjournaled sharded sweep != run_units_in_process".into());
    }
    let (resumed, stats) = step("shard.replay", &mut || {
        sharded(req, &config(Some(journal), true))
    })?;
    if resumed != reference {
        return Err("resumed sweep != uninterrupted sweep".into());
    }
    if field(&stats, "units_resumed") != field(&stats, "units_total")
        || field(&stats, "units_run") != 0
    {
        return Err(format!(
            "full-journal resume re-ran units: {}",
            stats.to_string_compact()
        ));
    }
    let warm = || {
        let mut service = Service::new(Limits {
            engine_threads: 1,
            ..Limits::default()
        });
        service.preload_journal(journal)
    };
    let info = match tracer {
        Some(t) => t.span("shard.warm_start", warm),
        None => warm(),
    }?;
    if info.entries == 0 || info.units as u64 != field(&stats, "units_total") {
        return Err(format!(
            "warm start loaded {} units / {} entries",
            info.units, info.entries
        ));
    }
    let journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
    Ok(Cycle {
        units: info.units,
        entries: info.entries,
        journal_bytes,
    })
}

fn reference(req: &SweepReq) -> String {
    run_units_in_process(req, UNIT_POINTS)
        .expect("in-process reference")
        .to_string_compact()
}

pub fn run(args: &Args, out: &mut Outcome) {
    let journal: PathBuf = out_dir().join(format!("shard-{}.journal", std::process::id()));
    let setup = || {
        let req = presets::cold_grid_sweep();
        let want = reference(&req);
        (req, want)
    };
    let (req, want) = out.timed_setup(setup);
    out.timed_window(args.seconds, 3, |_| {
        cycle(&req, &want, &journal, None).map(drop)
    });
    out.line(format!(
        "{} cold cycles of {} points on {WORKERS} workers, median {:.1} ms",
        out.ops_ms.len(),
        req.points(),
        stats::median(&out.ops_ms)
    ));
    out.repeat_setup(setup, drop);
    if args.trace {
        traced(args, out, &req, &want, &journal);
    }
    let _ = std::fs::remove_file(&journal);
}

fn traced(args: &Args, out: &mut Outcome, req: &SweepReq, want: &str, journal: &Path) {
    let tracer = Arc::new(Tracer::new());
    let budget = (args.seconds / 4.0).max(0.5);
    let mut cycle_ms = Vec::new();
    let mut last = None;
    let root = tracer.open("shard");
    let start = Instant::now();
    while cycle_ms.len() < 3 || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let c = cycle(req, want, journal, Some(&tracer));
        cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let in_process = tracer.span("shard.in_process", || reference(req));
        out.check(in_process == want, || "in-process rerun differs".into());
        out.check(c.is_ok(), || {
            format!("traced cycle: {}", c.as_ref().err().unwrap())
        });
        last = c.ok();
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    tracer.close(root);
    out.spans = tracer.spans();

    let names = by_name(&out.spans);
    let busy = |n: &str| names.get(n).map_or(f64::NAN, |e| e.1 as f64);
    let journaled = busy("shard.sweep_journaled");
    let plain = busy("shard.sweep_plain");
    let in_process = busy("shard.in_process");
    out.set(
        "shard.journal_cost_pct",
        100.0 * (journaled - plain) / plain,
    );
    out.set(
        "shard.fleet_overhead_pct",
        100.0 * (plain - in_process) / in_process,
    );
    let replay = out.share_of_root("shard.replay");
    let warm = out.share_of_root("shard.warm_start");
    out.set("shard.replay_pct", replay);
    out.set("shard.warm_start_pct", warm);
    if let Some(c) = last {
        out.set("shard.units", c.units as f64);
        out.set("shard.journal_bytes", c.journal_bytes as f64);
        out.set("shard.warm_entries", c.entries as f64);
    }
    out.line(format!(
        "per cycle: journaled {:.1} ms, plain {:.1} ms, in-process {:.1} ms, replay {:.1} ms, warm start {:.1} ms",
        journaled / 1e6 / cycle_ms.len() as f64,
        plain / 1e6 / cycle_ms.len() as f64,
        in_process / 1e6 / cycle_ms.len() as f64,
        busy("shard.replay") / 1e6 / cycle_ms.len() as f64,
        busy("shard.warm_start") / 1e6 / cycle_ms.len() as f64,
    ));
    let untraced = stats::median(&out.ops_ms);
    out.finish_trace(untraced, stats::median(&cycle_ms), wall_ms);
}
