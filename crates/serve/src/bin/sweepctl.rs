//! `sweepctl` — client, sharded-sweep coordinator, and load tester for
//! the `serve` daemon.
//!
//! ```text
//! sweepctl wait   ADDR [--timeout-ms N]
//! sweepctl list   ADDR
//! sweepctl stats  ADDR
//! sweepctl eval   ADDR [--w N] [--tile small|big] [--cluster N]
//!                      [--swp N] [--pass fwd|bwd] [--steps N]
//!                      [--seed N] [--tag S]
//! sweepctl sweep  ADDR [--demo | --frontier | --cold-grid] [--scale F]
//!                      [--sample N] [--sample-seed N] [--max-ms N]
//!                      [--chunk N] [--progress-every N] [--tag S]
//! sweepctl search ADDR [--layers N] [--initial N] [--rungs N]
//!                      [--keep F] [--max-evals N] [--seed N]
//!                      [--max-ms N] [--chunk N] [--tag S] [--verify]
//! sweepctl sweep  local [--demo | --frontier | --cold-grid] [--scale F]
//!                       [--workers N] [--unit-points N]
//!                       [--journal PATH] [--resume]
//!                       [--steal-timeout-ms N] [--tag S]
//! sweepctl raw    ADDR LINE
//! sweepctl verify ADDR [--demo | --frontier | --cold-grid] [--scale F]
//!                      [--threads N]
//! sweepctl bench  ADDR  [--merge FILE] [--min-speedup F]
//! sweepctl bench  local [--merge FILE] [--min-scaling F]
//! ```
//!
//! The special address `local` runs the sweep **sharded**: worker child
//! processes (the hidden `sweepctl worker` subcommand) evaluate
//! id-range units over stdin/stdout while this process coordinates with
//! work stealing, producing a `result` line byte-identical to the
//! daemon's. `--workers 0` (the default) auto-detects the core count —
//! the same 0-means-auto convention as `serve --threads/--workers` and
//! `suite --threads`. `--journal` makes the run durable; `--resume`
//! replays completed units after a crash.
//!
//! `search` runs the guided schedule search preset (successive halving
//! over a `2^layers`-point per-layer precision space — far past any
//! sweep budget; the daemon admits it on the evaluation budget instead).
//! `--verify` re-runs the search through an in-process engine and
//! compares the daemon's `result` line byte-for-byte.
//!
//! `verify` replays a sweep through an in-process engine and compares
//! the daemon's `result` line byte-for-byte. `bench ADDR` runs the
//! serve_load load test (latency percentiles, throughput, cold/warm
//! memoization speedup); `bench local` runs the shard_sweep scaling
//! benchmark (1-worker vs 4-worker cold grid plus journal resume
//! replay).

use mpipu_bench::json::Json;
use mpipu_serve::presets;
use mpipu_serve::request::{EvalReq, Label, Request, ScenarioSpec, SearchReq, SweepReq};
use mpipu_serve::service::{reference_search_result, reference_sweep_result};
use mpipu_serve::{run_sharded, wire, worker_main, Client, Response, ShardConfig};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        std::process::exit(2);
    };
    let code = match cmd.as_str() {
        "wait" => wait(rest),
        "list" => simple(rest, Request::List),
        "stats" => simple(rest, Request::Stats),
        "eval" => eval(rest),
        "sweep" => sweep(rest),
        "search" => search(rest),
        "raw" => raw(rest),
        "verify" => verify(rest),
        "bench" => bench(rest),
        // Hidden: the shard worker process the `local` coordinator
        // spawns. Speaks unit assignments on stdin, results on stdout.
        "worker" => worker_main(),
        "--help" | "-h" | "help" => {
            usage();
            0
        }
        other => {
            eprintln!("sweepctl: unknown command {other:?}");
            usage();
            2
        }
    };
    std::process::exit(code);
}

fn usage() {
    eprintln!(
        "usage: sweepctl <wait|list|stats|eval|sweep|search|raw|verify|bench> ADDR [options]\n\
         ADDR may be `local` for sweep/bench: sharded worker processes instead of a \
         daemon ([--workers N] [--unit-points N] [--journal PATH] [--resume]; \
         --workers 0 = one per CPU core)\n\
         (see the crate docs / README \"Distributed sweeps\" for the full option list)"
    );
}

/// Positional ADDR plus `--flag value` pairs.
struct Opts {
    addr: String,
    flags: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut addr = None;
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let v = match name {
                    // Valueless flags.
                    "demo" | "frontier" | "cold-grid" | "resume" | "verify" => String::new(),
                    _ => it
                        .next()
                        .cloned()
                        .ok_or_else(|| format!("--{name} needs a value"))?,
                };
                flags.push((name.to_string(), v));
            } else if addr.is_none() {
                addr = Some(a.clone());
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(Opts {
            addr: addr.ok_or("missing ADDR")?,
            flags,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for --{name}"))
            })
            .transpose()
    }
}

fn fail(e: impl std::fmt::Display) -> i32 {
    eprintln!("sweepctl: {e}");
    1
}

/// The `Ok` value, or an early return of [`fail`]'s exit code.
macro_rules! or_fail {
    ($result:expr) => {
        match $result {
            Ok(v) => v,
            Err(e) => return fail(e),
        }
    };
}

fn wait(args: &[String]) -> i32 {
    let opts = or_fail!(Opts::parse(args));
    let timeout = opts
        .num::<u64>("timeout-ms")
        .unwrap_or(None)
        .unwrap_or(10_000);
    match Client::connect_retry(&opts.addr, Duration::from_millis(timeout)) {
        Ok(_) => {
            println!("ready");
            0
        }
        Err(e) => fail(format!("daemon not reachable at {}: {e}", opts.addr)),
    }
}

/// Print one output line; `false` means stdout is gone (e.g. piped into
/// `grep -q`, which exits at the first match). That is the downstream
/// consumer's choice, not an error — callers stop emitting and exit 0.
fn emit(line: &str) -> bool {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    out.write_all(line.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .is_ok()
}

fn print_response(r: &Response) -> i32 {
    for line in &r.lines {
        if !emit(line) {
            return 0;
        }
    }
    i32::from(!r.ok)
}

fn simple(args: &[String], req: Request) -> i32 {
    let opts = or_fail!(Opts::parse(args));
    match run_request(&opts.addr, &req) {
        Ok(r) => print_response(&r),
        Err(e) => fail(e),
    }
}

fn run_request(addr: &str, req: &Request) -> std::io::Result<Response> {
    Client::connect(addr)?.request(req)
}

fn eval(args: &[String]) -> i32 {
    let opts = or_fail!(Opts::parse(args));
    let req = or_fail!(eval_request(&opts));
    match run_request(&opts.addr, &req) {
        Ok(r) => print_response(&r),
        Err(e) => fail(e),
    }
}

/// A `--flag` value read through its wire label table.
fn label_flag<T: Label>(opts: &Opts, flag: &str) -> Result<Option<T>, String> {
    opts.get(flag)
        .map(T::from_label)
        .transpose()
        .map_err(|e| format!("invalid --{flag}: {}", e.message))
}

fn eval_request(opts: &Opts) -> Result<Request, String> {
    Ok(Request::Eval(EvalReq {
        scenario: ScenarioSpec {
            tile: label_flag(opts, "tile")?,
            w: opts.num("w")?,
            cluster: opts.num("cluster")?,
            software_precision: opts.num("swp")?,
            pass: label_flag(opts, "pass")?,
            seed: opts.num("seed")?,
            sample_steps: opts.num("steps")?,
            ..ScenarioSpec::default()
        },
        tag: opts.get("tag").map(str::to_string),
    }))
}

fn sweep_request(opts: &Opts) -> Result<SweepReq, String> {
    let scale = opts.num::<f64>("scale")?.unwrap_or(0.02);
    let mut req = if opts.has("frontier") {
        presets::frontier_sweep(scale)
    } else if opts.has("cold-grid") {
        presets::cold_grid_sweep()
    } else {
        presets::demo_sweep()
    };
    if let Some(count) = opts.num::<usize>("sample")? {
        req = SweepReq {
            sample: Some(mpipu_serve::request::SampleSpec {
                count,
                seed: opts.num("sample-seed")?.unwrap_or(0),
            }),
            ..req
        };
    }
    req.max_ms = opts.num("max-ms")?;
    req.chunk = opts.num("chunk")?.or(req.chunk);
    req.progress_every = opts.num("progress-every")?.or(req.progress_every);
    // Presets may carry their own tag (e.g. cold-grid); only an explicit
    // --tag overrides it.
    req.tag = opts.get("tag").map(str::to_string).or(req.tag);
    Ok(req)
}

/// Build a [`ShardConfig`] from the `local`-mode flags.
fn shard_config(opts: &Opts) -> Result<ShardConfig, String> {
    let mut cfg = ShardConfig {
        workers: opts.num::<usize>("workers")?.unwrap_or(0),
        ..ShardConfig::default()
    };
    if let Some(points) = opts.num::<u64>("unit-points")? {
        cfg.unit_points = points;
    }
    cfg.journal = opts.get("journal").map(std::path::PathBuf::from);
    cfg.resume = opts.has("resume");
    if let Some(ms) = opts.num::<u64>("steal-timeout-ms")? {
        cfg.steal_timeout = Duration::from_millis(ms);
    }
    Ok(cfg)
}

/// `sweep local`: coordinate the sweep across worker processes,
/// printing the same event-line dialect the daemon streams.
fn local_sweep(opts: &Opts, req: &SweepReq) -> i32 {
    let cfg = or_fail!(shard_config(opts));
    match run_sharded(req, &cfg, &|j: &Json| {
        emit(&j.to_string_compact());
    }) {
        Ok(result) => {
            emit(&result.to_string_compact());
            emit(&wire::done_json(true).to_string_compact());
            0
        }
        Err(e) => {
            emit(&wire::error_json(&e).to_string_compact());
            emit(&wire::done_json(false).to_string_compact());
            1
        }
    }
}

fn sweep(args: &[String]) -> i32 {
    let opts = or_fail!(Opts::parse(args));
    if opts.addr == "local" {
        return match sweep_request(&opts) {
            Ok(r) => local_sweep(&opts, &r),
            Err(e) => fail(e),
        };
    }
    let req = match sweep_request(&opts) {
        Ok(r) => Request::Sweep(r),
        Err(e) => return fail(e),
    };
    // Stream: print each line as it arrives rather than collecting.
    let mut client = or_fail!(Client::connect(&opts.addr));
    if let Err(e) = client.send(&req) {
        return fail(e);
    }
    loop {
        match client.next_line() {
            Ok(line) => {
                if !emit(&line) {
                    return 0;
                }
                if let Ok(j) = Json::parse(&line) {
                    if j.get("event").and_then(Json::as_str) == Some("done") {
                        return i32::from(j.get("ok") != Some(&Json::Bool(true)));
                    }
                }
            }
            Err(e) => return fail(e),
        }
    }
}

fn search_request(opts: &Opts) -> Result<SearchReq, String> {
    let mut req = presets::schedule_search(opts.num::<u32>("layers")?.unwrap_or(27));
    req.initial = opts.num("initial")?.or(req.initial);
    req.rungs = opts.num("rungs")?.or(req.rungs);
    req.keep = opts.num("keep")?.or(req.keep);
    req.max_evals = opts.num("max-evals")?.or(req.max_evals);
    req.seed = opts.num("seed")?.or(req.seed);
    req.max_ms = opts.num("max-ms")?.or(req.max_ms);
    req.chunk = opts.num("chunk")?.or(req.chunk);
    req.tag = opts.get("tag").map(str::to_string).or(req.tag);
    Ok(req)
}

fn search(args: &[String]) -> i32 {
    let opts = or_fail!(Opts::parse(args));
    let req = or_fail!(search_request(&opts));
    let r = or_fail!(run_request(&opts.addr, &Request::Search(req.clone())));
    let code = print_response(&r);
    if code != 0 || !opts.has("verify") {
        return code;
    }
    // --verify: the served line must match a fresh single-threaded
    // in-process search byte-for-byte (guided search is deterministic
    // at any thread count, so one reference suffices).
    let Some(served) = r.result_line() else {
        return fail("daemon response had no result line");
    };
    let reference = match reference_search_result(&req, 1) {
        Ok(j) => j.to_string_compact(),
        Err(e) => return fail(e),
    };
    if served == reference {
        eprintln!(
            "search: verify OK — served result is byte-identical to the in-process \
             engine ({} bytes)",
            served.len()
        );
        0
    } else {
        eprintln!("search: verify MISMATCH\n  served:    {served}\n  reference: {reference}");
        1
    }
}

fn raw(args: &[String]) -> i32 {
    // `raw ADDR LINE...` — the line is passed through verbatim (it may
    // contain spaces or be deliberately malformed), so no flag parsing.
    let mut it = args.iter();
    let Some(addr) = it.next() else {
        return fail("missing ADDR");
    };
    let line: String = it.cloned().collect::<Vec<_>>().join(" ");
    if line.is_empty() {
        return fail("missing LINE");
    }
    let mut client = or_fail!(Client::connect(addr));
    if let Err(e) = client.send_line(&line) {
        return fail(e);
    }
    match client.collect_response() {
        Ok(r) => print_response(&r),
        Err(e) => fail(e),
    }
}

fn verify(args: &[String]) -> i32 {
    let opts = or_fail!(Opts::parse(args));
    let req = or_fail!(sweep_request(&opts));
    let threads = opts.num::<usize>("threads").unwrap_or(None).unwrap_or(1);
    let served = match run_request(&opts.addr, &Request::Sweep(req.clone())) {
        Ok(r) if r.ok => match r.result_line() {
            Some(line) => line.to_string(),
            None => return fail("daemon response had no result line"),
        },
        Ok(r) => return fail(format!("daemon returned an error: {:?}", r.error())),
        Err(e) => return fail(e),
    };
    let reference = match reference_sweep_result(&req, threads) {
        Ok(j) => j.to_string_compact(),
        Err(e) => return fail(e),
    };
    if served == reference {
        println!(
            "verify: OK — served result is byte-identical to the in-process engine \
             ({} bytes, reference at {threads} threads)",
            served.len()
        );
        0
    } else {
        eprintln!("verify: MISMATCH\n  served:    {served}\n  reference: {reference}");
        1
    }
}

// ---- load test ------------------------------------------------------------

struct Record {
    name: String,
    ns_per_iter: f64,
    iters: u64,
}

fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

/// `count` eval round-trips on one connection; per-request ns.
fn eval_latencies(addr: &str, count: usize) -> std::io::Result<Vec<f64>> {
    let mut client = Client::connect(addr)?;
    let req = Request::Eval(EvalReq {
        scenario: ScenarioSpec {
            w: Some(12),
            sample_steps: Some(48),
            ..ScenarioSpec::default()
        },
        tag: None,
    });
    let mut ns = Vec::with_capacity(count);
    for _ in 0..count {
        let t = Instant::now();
        let r = client.request(&req)?;
        if !r.ok {
            return Err(std::io::Error::other("eval failed under load"));
        }
        ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok(ns)
}

/// One demo sweep on one connection; (latency ns, points).
fn sweep_once(addr: &str) -> std::io::Result<(f64, u64)> {
    let mut client = Client::connect(addr)?;
    let req = presets::demo_sweep();
    let points = req.points();
    let t = Instant::now();
    let r = client.request(&Request::Sweep(req))?;
    if !r.ok {
        return Err(std::io::Error::other(format!(
            "sweep failed under load: {:?}",
            r.error()
        )));
    }
    Ok((t.elapsed().as_nanos() as f64, points))
}

fn spread<T: Send>(n: usize, f: impl Fn() -> std::io::Result<T> + Sync) -> std::io::Result<Vec<T>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|_| s.spawn(&f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-test thread panicked"))
            .collect()
    })
}

/// `bench local`: the shard-scaling benchmark. Cold-grid sweep at 1
/// worker vs 4 workers (fresh worker processes each run, so both are
/// cold), plus a resume replay of the completed journal. Every run's
/// result line must be byte-identical; the `scaling_ratio_x1e6` record
/// (t4/t1 × 10⁶) is what CI's `--require` gate bounds.
fn bench_local(opts: &Opts) -> i32 {
    let min_scaling = opts
        .num::<f64>("min-scaling")
        .unwrap_or(None)
        .unwrap_or(0.0);
    let req = presets::cold_grid_sweep();
    let points = req.points();
    let quiet: &(dyn Fn(&Json) + Sync) = &|_| {};
    let run = |what: &str, cfg: &ShardConfig| -> Result<(f64, String), String> {
        eprintln!("bench: {what} ...");
        let t = Instant::now();
        let result = run_sharded(&req, cfg, quiet).map_err(|e| e.to_string())?;
        Ok((t.elapsed().as_nanos() as f64, result.to_string_compact()))
    };
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!(
            "mpipu-shard-bench-{tag}-{}.jsonl",
            std::process::id()
        ))
    };
    let (journal1, journal) = (tmp("1w"), tmp("4w"));
    // Both timed runs are journaled (memo capture + append on) so the
    // scaling ratio compares equal per-point work at 1 vs 4 workers.
    let base = ShardConfig {
        unit_points: 512,
        ..ShardConfig::default()
    };
    let outcome = (|| -> Result<Vec<Record>, String> {
        let (t1, r1) = run(
            "sharded cold-grid sweep, 1 worker (journaled)",
            &ShardConfig {
                workers: 1,
                journal: Some(journal1.clone()),
                ..base.clone()
            },
        )?;
        let (t4, r4) = run(
            "sharded cold-grid sweep, 4 workers (journaled)",
            &ShardConfig {
                workers: 4,
                journal: Some(journal.clone()),
                ..base.clone()
            },
        )?;
        if r1 != r4 {
            return Err("1-worker and 4-worker results differ".to_string());
        }
        let (tr, rr) = run(
            "resume replay from the completed journal",
            &ShardConfig {
                workers: 4,
                journal: Some(journal.clone()),
                resume: true,
                ..base.clone()
            },
        )?;
        if rr != r1 {
            return Err("journal replay result differs".to_string());
        }
        let ratio = t4 / t1.max(1.0);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        eprintln!(
            "bench: 1w {:.1} ms, 4w {:.1} ms -> {:.2}x scaling on {cores} core(s); \
             replay {:.1} ms",
            t1 / 1e6,
            t4 / 1e6,
            1.0 / ratio,
            tr / 1e6
        );
        if cores < 4 {
            eprintln!(
                "bench: note: {cores} core(s) cannot run 4 CPU-bound workers in \
                 parallel; the ratio measures oversubscription overhead, not scaling"
            );
        }
        if min_scaling > 0.0 && 1.0 / ratio < min_scaling {
            return Err(format!(
                "4-worker scaling {:.2}x is below the required {min_scaling:.2}x \
                 on {cores} core(s)",
                1.0 / ratio
            ));
        }
        Ok(vec![
            Record {
                name: "shard_sweep/cores".to_string(),
                ns_per_iter: cores as f64,
                iters: 1,
            },
            Record {
                name: "shard_sweep/cold_grid_1w".to_string(),
                ns_per_iter: t1,
                iters: points,
            },
            Record {
                name: "shard_sweep/cold_grid_4w".to_string(),
                ns_per_iter: t4,
                iters: points,
            },
            Record {
                name: "shard_sweep/scaling_ratio_x1e6".to_string(),
                ns_per_iter: ratio * 1e6,
                iters: 1,
            },
            Record {
                name: "shard_sweep/resume_replay".to_string(),
                ns_per_iter: tr,
                iters: points,
            },
        ])
    })();
    let _ = std::fs::remove_file(&journal1);
    let _ = std::fs::remove_file(&journal);
    let records = or_fail!(outcome);
    if let Some(path) = opts.get("merge") {
        if let Err(e) = merge_into(path, &records) {
            return fail(e);
        }
        eprintln!(
            "bench: merged {} shard_sweep records into {path}",
            records.len()
        );
    } else {
        println!(
            "{}",
            records_json("shard_sweep", &records).to_string_pretty()
        );
    }
    0
}

fn bench(args: &[String]) -> i32 {
    let opts = or_fail!(Opts::parse(args));
    if opts.addr == "local" {
        return bench_local(&opts);
    }
    let min_speedup = opts
        .num::<f64>("min-speedup")
        .unwrap_or(None)
        .unwrap_or(0.0);
    let addr = opts.addr.clone();
    let mut records = Vec::new();

    // -- request-latency percentiles per class, at 1 and 8 clients ---------
    eprintln!("bench: eval latency, 1 client ...");
    let mut solo = or_fail!(eval_latencies(&addr, 64));
    solo.sort_by(f64::total_cmp);
    records.push(Record {
        name: "serve_load/eval_p50_1c".to_string(),
        ns_per_iter: percentile(&solo, 0.50),
        iters: solo.len() as u64,
    });
    records.push(Record {
        name: "serve_load/eval_p99_1c".to_string(),
        ns_per_iter: percentile(&solo, 0.99),
        iters: solo.len() as u64,
    });

    eprintln!("bench: eval latency, 8 clients ...");
    let mut crowd: Vec<f64> = match spread(8, || eval_latencies(&addr, 32)) {
        Ok(v) => v.into_iter().flatten().collect(),
        Err(e) => return fail(e),
    };
    crowd.sort_by(f64::total_cmp);
    records.push(Record {
        name: "serve_load/eval_p50_8c".to_string(),
        ns_per_iter: percentile(&crowd, 0.50),
        iters: crowd.len() as u64,
    });
    records.push(Record {
        name: "serve_load/eval_p99_8c".to_string(),
        ns_per_iter: percentile(&crowd, 0.99),
        iters: crowd.len() as u64,
    });

    // -- aggregate sweep throughput at 1 / 8 / 32 clients -------------------
    for clients in [1usize, 8, 32] {
        eprintln!("bench: demo sweeps, {clients} concurrent clients ...");
        let t = Instant::now();
        let results = or_fail!(spread(clients, || sweep_once(&addr)));
        let wall_ns = t.elapsed().as_nanos() as f64;
        let mut lat: Vec<f64> = results.iter().map(|(ns, _)| *ns).collect();
        lat.sort_by(f64::total_cmp);
        let points: u64 = results.iter().map(|(_, p)| p).sum();
        records.push(Record {
            name: format!("serve_load/sweep_p50_{clients}c"),
            ns_per_iter: percentile(&lat, 0.50),
            iters: clients as u64,
        });
        records.push(Record {
            name: format!("serve_load/sweep_p99_{clients}c"),
            ns_per_iter: percentile(&lat, 0.99),
            iters: clients as u64,
        });
        // ns per point: the throughput record (points/s in the summary).
        records.push(Record {
            name: format!("serve_load/sweep_ns_per_point_{clients}c"),
            ns_per_iter: wall_ns / points as f64,
            iters: points,
        });
        eprintln!(
            "bench:   {clients} clients: {points} points in {:.1} ms -> {:.0} points/s",
            wall_ns / 1e6,
            points as f64 / (wall_ns / 1e9),
        );
    }

    // -- cold vs warm: process-wide memoization across clients --------------
    // The cold-grid preset: every point is its own cost-model cache
    // class, so a cold sweep pays one alignment DP per point while the
    // second client's identical sweep is pure cache hits on the slab
    // path — the ratio measures the shared cache, not the wire.
    eprintln!("bench: cold key-distinct grid sweep (fresh client) ...");
    let grid = presets::cold_grid_sweep();
    let run_grid = |tag: &str| -> std::io::Result<f64> {
        let mut client = Client::connect(&addr)?;
        let mut req = grid.clone();
        req.tag = Some(tag.to_string());
        let t = Instant::now();
        let r = client.request(&Request::Sweep(req))?;
        if !r.ok {
            return Err(std::io::Error::other(format!(
                "grid sweep failed: {:?}",
                r.error()
            )));
        }
        Ok(t.elapsed().as_nanos() as f64)
    };
    let cold = or_fail!(run_grid("cold"));
    eprintln!("bench: warm identical sweeps (different clients) ...");
    // Three repeats, each from a fresh client, best-of: every one is an
    // identical sweep served from the shared cache, and the minimum
    // strips scheduler noise from the single measurement the speedup
    // gate rides on.
    let mut warm = f64::INFINITY;
    for i in 0..3 {
        match run_grid(&format!("warm-{i}")) {
            Ok(ns) => warm = warm.min(ns),
            Err(e) => return fail(e),
        }
    }
    let speedup = cold / warm.max(1.0);
    records.push(Record {
        name: "serve_load/cold_grid_cold".to_string(),
        ns_per_iter: cold,
        iters: 1,
    });
    records.push(Record {
        name: "serve_load/cold_grid_warm".to_string(),
        ns_per_iter: warm,
        iters: 1,
    });
    records.push(Record {
        name: "serve_load/warm_speedup_x1000".to_string(),
        ns_per_iter: speedup * 1000.0,
        iters: 1,
    });
    eprintln!(
        "bench: cold {:.1} ms, warm {:.1} ms -> {speedup:.1}x warm speedup",
        cold / 1e6,
        warm / 1e6
    );

    let out = records_json("serve_load", &records);
    if let Some(path) = opts.get("merge") {
        if let Err(e) = merge_into(path, &records) {
            return fail(e);
        }
        eprintln!(
            "bench: merged {} serve_load records into {path}",
            records.len()
        );
    } else {
        println!("{}", out.to_string_pretty());
    }

    if min_speedup > 0.0 && speedup < min_speedup {
        return fail(format!(
            "warm speedup {speedup:.2}x is below the required {min_speedup:.2}x"
        ));
    }
    0
}

fn records_json(suite: &str, records: &[Record]) -> Json {
    Json::obj([
        ("schema_version", Json::from(1u64)),
        ("suite", Json::str(suite)),
        (
            "benches",
            Json::Arr(
                records
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(&r.name)),
                            ("ns_per_iter", Json::Num(r.ns_per_iter)),
                            ("iters", Json::from(r.iters)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Merge our records into an existing BENCH_v1-schema file: drop any
/// stale benches sharing a suite prefix (`serve_load/`, `shard_sweep/`,
/// …) with the records being merged, append the fresh ones, keep
/// everything else (schema_version, suite, other benches) untouched.
fn merge_into(path: &str, records: &[Record]) -> Result<(), String> {
    let prefixes: Vec<String> = {
        let mut p: Vec<String> = records
            .iter()
            .filter_map(|r| r.name.split_once('/').map(|(s, _)| format!("{s}/")))
            .collect();
        p.sort();
        p.dedup();
        p
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))?;
    let Json::Obj(mut fields) = doc else {
        return Err(format!("{path} is not a JSON object"));
    };
    let benches = fields
        .iter_mut()
        .find(|(k, _)| k == "benches")
        .ok_or_else(|| format!("{path} has no benches array"))?;
    let Json::Arr(list) = &mut benches.1 else {
        return Err(format!("{path}: benches is not an array"));
    };
    list.retain(|b| {
        b.get("name")
            .and_then(Json::as_str)
            .is_none_or(|n| !prefixes.iter().any(|p| n.starts_with(p.as_str())))
    });
    for r in records {
        list.push(Json::obj([
            ("name", Json::str(&r.name)),
            ("ns_per_iter", Json::Num(r.ns_per_iter)),
            ("iters", Json::from(r.iters)),
        ]));
    }
    let mut text = Json::Obj(fields).to_string_pretty();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}
