//! One-command benchmark of the mixed-precision IPU reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload sets up (several times; the median is `setup_s`), then
//! repeats its operation for `--seconds` seconds with tracing off and
//! checks every output against the pinned bytes. With `--trace 1` it
//! then runs a separate traced pass through the delegating adapters and
//! reports per-layer metrics instead of end-to-end ones. The last stdout
//! line is the JSON result; the human report goes to stderr, and the
//! run record plus its spans go to `perfbench/out/`.

mod adapters;
mod explore;
mod reproduce;
mod serve;
mod shard;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 6] = [
    "reproduce",
    "explore_sweep",
    "explore_search",
    "explore_schedule",
    "serve",
    "shard",
];

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The 12 registry experiments, for the per-experiment shares.
pub const EXPERIMENTS: [&str; 12] = [
    "fig3", "accuracy", "fig7", "fig8a", "fig8b", "fig9", "fig10", "table1", "ablation", "hybrid",
    "frontier", "guided",
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not reach reads 0. `_pct` is a share of the traced pass's
/// wall-clock unless `README.md` says otherwise.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = EXPERIMENTS
        .iter()
        .map(|e| (format!("bench.exp_pct.{e}"), "%"))
        .collect();
    let fixed: [(&str, &str); 45] = [
        ("dnn.train_pct", "%"),
        ("dnn.emulate_pct", "%"),
        ("dnn.emulated_samples", "count"),
        ("datapath.emulated_macs", "count"),
        ("datapath.macs_per_s", "1/s"),
        ("sim.mc.queries", "count"),
        ("sim.mc.busy_pct", "%"),
        ("sim.batch.calls", "count"),
        ("sim.batch.queries", "count"),
        ("sim.batch.busy_pct", "%"),
        ("sim.scalar.queries", "count"),
        ("sim.scalar.busy_pct", "%"),
        ("sim.memo.hits", "count"),
        ("sim.memo.misses", "count"),
        ("sim.memo.hit_ratio", "ratio"),
        ("explore.points", "count"),
        ("explore.fold_pct", "%"),
        ("explore.sink_pct", "%"),
        ("explore.sweep_self_pct", "%"),
        ("explore.points_per_s", "1/s"),
        ("search.propose_pct.uniform", "%"),
        ("search.propose_pct.neighbor", "%"),
        ("search.propose_pct.box", "%"),
        ("search.propose_pct.surrogate", "%"),
        ("search.observe_pct", "%"),
        ("search.self_pct", "%"),
        ("search.proposed", "count"),
        ("search.evaluated", "count"),
        ("search.polish_evaluated", "count"),
        ("search.useful_ratio", "ratio"),
        ("serve.parse_pct", "%"),
        ("serve.handle_pct", "%"),
        ("serve.wire_pct", "%"),
        ("serve.first_line_pct", "%"),
        ("serve.response_bytes", "bytes"),
        ("serve.expected_errors", "count"),
        ("shard.units", "count"),
        ("shard.journal_bytes", "bytes"),
        ("shard.journal_cost_pct", "%"),
        ("shard.fleet_overhead_pct", "%"),
        ("shard.replay_pct", "%"),
        ("shard.warm_start_pct", "%"),
        ("shard.warm_entries", "count"),
        ("trace.residual_pct", "%"),
        ("trace.overhead_pct", "%"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds takes a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall-clock of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, ms.
    pub ops_ms: Vec<f64>,
    /// Wall-clock of the timed window, seconds.
    pub window_s: f64,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Checked operations that failed (mismatch, panic, missing `done`,
    /// unexpected error).
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Per-layer metrics of the traced pass.
    pub layers: BTreeMap<String, f64>,
    /// The traced pass's spans.
    pub spans: Vec<trace::Span>,
    /// Extra facts for the run record (key, JSON value).
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// Count one checked operation; `ok == false` records a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(what());
            }
        }
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.report.push(text.into());
    }

    /// Run the timed window: `op` repeatedly until `seconds` have passed
    /// and at least `min_ops` ran. `op` returns whether its output was
    /// correct; a panic counts as a failure.
    pub fn timed_window(
        &mut self,
        seconds: f64,
        min_ops: usize,
        mut op: impl FnMut(usize) -> Result<(), String>,
    ) {
        let start = Instant::now();
        let mut i = 0;
        while i < min_ops || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| op(i)));
            self.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok(Ok(())) => self.check(true, String::new),
                Ok(Err(e)) => self.check(false, || format!("op {i}: {e}")),
                Err(_) => self.check(false, || format!("op {i}: panicked")),
            }
            i += 1;
        }
        self.window_s = start.elapsed().as_secs_f64();
    }

    /// Time one set-up and record it as a repetition of `setup_s`.
    pub fn timed_setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.setup_s.push(t.elapsed().as_secs_f64());
        v
    }

    /// Repeat a set-up (and its teardown, untimed) after the timed
    /// window: at least 10 times and for about two seconds, at most 400.
    /// The reported median is then dominated by set-ups run in the same
    /// steady state as the window rather than by the transient of a
    /// freshly started process, and many repetitions keep it steady.
    pub fn repeat_setup<T>(&mut self, mut f: impl FnMut() -> T, mut teardown: impl FnMut(T)) {
        let start = Instant::now();
        let mut n = 0;
        while n < 400 && (n < 10 || start.elapsed().as_secs_f64() < 2.0) {
            let v = self.timed_setup(&mut f);
            teardown(v);
            n += 1;
        }
    }

    /// Self time of the spans named `span`, as a share (%) of the root
    /// span's wall-clock.
    pub fn share_of_root(&self, span: &str) -> f64 {
        let Some(root) = self.spans.first() else {
            return 0.0;
        };
        let names = trace::by_name(&self.spans);
        names
            .get(span)
            .map_or(0.0, |e| 100.0 * e.0 as f64 / root.busy_ns as f64)
    }

    /// Like [`Outcome::share_of_root`] but with the spans' whole busy
    /// time, children included.
    pub fn busy_share_of_root(&self, span: &str) -> f64 {
        let Some(root) = self.spans.first() else {
            return 0.0;
        };
        let names = trace::by_name(&self.spans);
        names
            .get(span)
            .map_or(0.0, |e| 100.0 * e.1 as f64 / root.busy_ns as f64)
    }

    /// `(calls, items)` of every span named `span`.
    pub fn counts(&self, span: &str) -> (u64, u64) {
        trace::by_name(&self.spans)
            .get(span)
            .map_or((0, 0), |e| (e.2, e.3))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Fill the layer metrics every traced pass shares (backend, fold,
    /// sink, searchers, residual) from the spans and print the layer
    /// table. `wall_ms` is an `Instant` taken around the traced pass
    /// independently of the tracer. Checks that no span's children
    /// overlap it (no negative self time) and that the root span's
    /// duration matches `wall_ms`.
    pub fn finish_trace(&mut self, untraced_op_ms: f64, traced_op_ms: f64, wall_ms: f64) {
        for (metric, span) in [
            ("sim.mc.busy_pct", "sim.mc"),
            ("sim.batch.busy_pct", "sim.batch"),
            ("sim.scalar.busy_pct", "sim.scalar"),
            ("explore.fold_pct", "explore.fold"),
            ("explore.sink_pct", "explore.sink"),
            ("search.propose_pct.uniform", "search.propose.uniform"),
            ("search.propose_pct.neighbor", "search.propose.neighbor"),
            ("search.propose_pct.box", "search.propose.box"),
            ("search.propose_pct.surrogate", "search.propose.surrogate"),
            ("search.observe_pct", "search.observe"),
        ] {
            let v = self.share_of_root(span);
            self.set(metric, v);
        }
        let (_, mc) = self.counts("sim.mc");
        self.set("sim.mc.queries", mc as f64);
        let (calls, items) = self.counts("sim.batch");
        self.set("sim.batch.calls", calls as f64);
        self.set("sim.batch.queries", items as f64);
        let (_, scalar) = self.counts("sim.scalar");
        self.set("sim.scalar.queries", scalar as f64);
        let Some(root) = self.spans.first().cloned() else {
            return;
        };
        let residual = self.share_of_root(&root.name);
        self.set("trace.residual_pct", residual);
        let overhead = 100.0 * (traced_op_ms - untraced_op_ms) / untraced_op_ms;
        self.set("trace.overhead_pct", overhead);

        let wall = root.busy_ns as f64 / 1e9;
        self.line(format!(
            "traced pass: {wall:.3} s; op median traced {traced_op_ms:.3} ms vs untraced {untraced_op_ms:.3} ms \
             -> tracing overhead {overhead:+.1}%"
        ));
        self.line("layer self time (s, share of the traced wall-clock):".to_string());
        let names = trace::by_name(&self.spans);
        let mut total = 0i64;
        for (name, (own, busy, calls, items)) in &names {
            total += own;
            self.line(format!(
                "  {name:<28} self {:>9.4} s {:>6.2}%  busy {:>9.4} s  calls {calls:>8}  items {items:>9}",
                *own as f64 / 1e9,
                100.0 * *own as f64 / root.busy_ns as f64,
                *busy as f64 / 1e9,
            ));
        }
        self.line(format!(
            "  sum of self times {:.4} s (residual {:.4} s = {residual:.2}%) vs wall {wall:.4} s",
            total as f64 / 1e9,
            names[&root.name].0 as f64 / 1e9,
        ));
        let overlapping: Vec<String> = self
            .spans
            .iter()
            .zip(trace::self_times(&self.spans))
            .filter(|(_, own)| *own < 0)
            .map(|(s, own)| format!("{} ({own} ns)", s.name))
            .collect();
        self.check(overlapping.is_empty(), || {
            format!("children overlap their parent: {}", overlapping.join(", "))
        });
        let root_ms = root.busy_ns as f64 / 1e6;
        self.check(root_wall_agrees(root_ms, wall_ms), || {
            format!("root span {root_ms:.3} ms != independent wall-clock {wall_ms:.3} ms")
        });
    }
}

/// Whether a root span of `root_ms` matches the `wall_ms` an `Instant`
/// measured just inside it: the root may only exceed it by the few
/// microseconds between opening the span and starting the clock.
fn root_wall_agrees(root_ms: f64, wall_ms: f64) -> bool {
    root_ms >= wall_ms && root_ms - wall_ms <= 0.5 + 0.001 * wall_ms
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Directory for run records and scratch files, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

fn host_facts() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc".into(), nproc.to_string()),
        ("rustc".into(), format!("{rustc:?}")),
        ("profile".into(), format!("{profile:?}")),
    ]
}

/// Run one workload in this process.
fn run_workload(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "reproduce" => reproduce::run(args, &mut out),
        "explore_sweep" | "explore_search" | "explore_schedule" => explore::run(args, &mut out),
        "serve" => serve::run(args, &mut out),
        "shard" => shard::run(args, &mut out),
        other => unreachable!("workload {other} was validated"),
    }
    out
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_json(args: &Args, out: &Outcome) -> String {
    let mut metrics = String::new();
    if args.trace {
        for (name, unit) in per_layer_names() {
            let v = out.layers.get(&name).copied().unwrap_or(0.0);
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if metrics.is_empty() { "" } else { ", " },
                number(v)
            );
        }
    } else {
        let values = [
            stats::median(&out.setup_s),
            stats::median(&out.ops_ms),
            out.ops_ms.len() as f64 / out.window_s,
            peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if metrics.is_empty() { "" } else { ", " },
                number(v)
            );
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The shard workload's fleet re-executes this binary as its worker
    // processes: the same `worker_main` loop `sweepctl worker` runs.
    if argv.first().map(String::as_str) == Some("worker") {
        std::process::exit(mpipu_serve::worker_main());
    }
    // Print the pinned-output digests of the current code, in the
    // golden files' format (for re-pinning after an intended change).
    if argv.first().map(String::as_str) == Some("digests") {
        for (name, text) in reproduce::outputs().into_iter().chain(explore::outputs()) {
            println!("{name} {:016x} {}", digest(text.as_bytes()), text.len());
        }
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }

    let t0 = Instant::now();
    let out = run_workload(&args);
    let line = result_json(&args, &out);

    eprintln!(
        "== {} (seed {}, {} s window, trace {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for l in &out.report {
        eprintln!("{l}");
    }
    if !args.trace {
        eprintln!(
            "setup_s median {:.6} s of {} (first {:.6} s); op latency median {:.3} ms, tail {} over {:.2} s",
            stats::median(&out.setup_s),
            out.setup_s.len(),
            out.setup_s.first().copied().unwrap_or(f64::NAN),
            stats::median(&out.ops_ms),
            stats::tail_text(&out.ops_ms),
            out.window_s
        );
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let facts = host_facts();
    eprintln!(
        "host: {}",
        facts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    write_record(&args, &out, &facts, &line, t0.elapsed().as_secs_f64());
    println!("{line}");
}

/// Write the run record (host facts, result, extras) and the spans.
fn write_record(args: &Args, out: &Outcome, facts: &[(String, String)], line: &str, wall_s: f64) {
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let dir = out_dir();
    let mut record = String::from("{");
    for (k, v) in facts.iter().chain(&out.record) {
        let _ = write!(record, "\"{k}\": {v}, ");
    }
    let list = |xs: &[f64]| {
        let shown: Vec<String> = xs.iter().take(2000).map(|x| format!("{x}")).collect();
        format!("[{}]", shown.join(", "))
    };
    let _ = write!(
        record,
        "\"setup_s_all\": {}, \"ops_ms_first_2000\": {}, ",
        list(&out.setup_s),
        list(&out.ops_ms)
    );
    let _ = writeln!(record, "\"run_wall_s\": {wall_s}, \"result\": {line}}}");
    let written = std::fs::write(dir.join(format!("{stem}.json")), record).and_then(|()| {
        if out.spans.is_empty() {
            Ok(())
        } else {
            std::fs::write(
                dir.join(format!("{stem}.spans.jsonl")),
                trace::spans_jsonl(&out.spans),
            )
        }
    });
    if let Err(e) = written {
        eprintln!("warning: cannot write the run record: {e}");
    }
}

/// `--workload all`: run every workload in its own child process (so
/// each has its own peak RSS) and forward their result lines.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let mut code = 0;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status()
            .expect("spawn a workload run");
        if !status.success() {
            code = 1;
        }
    }
    code
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a digest of an output, for the pinned-bytes oracle.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parse a golden file: `name digest length` per line.
pub fn golden(text: &str) -> BTreeMap<String, (u64, usize)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "golden line {l:?}");
            let d = u64::from_str_radix(f[1], 16).expect("hex digest");
            (f[0].to_string(), (d, f[2].parse().expect("length")))
        })
        .collect()
}

/// Compare `text` against its pinned `(digest, length)`.
pub fn matches_golden(
    gold: &BTreeMap<String, (u64, usize)>,
    name: &str,
    text: &str,
) -> Result<(), String> {
    let want = gold
        .get(name)
        .ok_or_else(|| format!("{name}: no pinned digest"))?;
    let got = (digest(text.as_bytes()), text.len());
    if got == *want {
        Ok(())
    } else {
        Err(format!(
            "{name}: output {:016x}/{} bytes differs from pinned {:016x}/{}",
            got.0, got.1, want.0, want.1
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_once() {
        let out = Outcome {
            setup_s: vec![0.5],
            ops_ms: vec![1.0, 2.0],
            window_s: 1.0,
            attempted: 2,
            ..Outcome::default()
        };
        let args = parse_args(&["--workload".into(), "serve".into()]).unwrap();
        let line = result_json(&args, &out);
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
        let traced = Args {
            trace: true,
            ..args
        };
        let line = result_json(&traced, &out);
        let names = per_layer_names();
        assert_eq!(line.matches("\"value\"").count(), names.len());
        let mut unique: Vec<_> = names.iter().map(|n| &n.0).collect();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn root_span_must_match_the_independent_clock() {
        assert!(root_wall_agrees(100.004, 100.0));
        assert!(
            !root_wall_agrees(99.0, 100.0),
            "root shorter than the clock"
        );
        assert!(
            !root_wall_agrees(102.0, 100.0),
            "root far longer than the clock"
        );
    }

    #[test]
    fn overlapping_children_fail_the_trace_check() {
        let span = |name: &str, parent, busy_ns| trace::Span {
            name: name.to_string(),
            parent,
            start_ns: 0,
            end_ns: busy_ns,
            busy_ns,
            calls: 1,
            items: 0,
        };
        let mut out = Outcome {
            // Two 60 ns children under a 100 ns root: they overlap.
            spans: vec![
                span("root", None, 100),
                span("a", Some(0), 60),
                span("b", Some(0), 60),
            ],
            ..Outcome::default()
        };
        out.finish_trace(1.0, 1.0, 0.0001);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(
            out.failures[0].contains("root (-20 ns)"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let a = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(a(&["--workload", "nope"]).is_err());
        assert!(a(&["--workload", "serve", "--trace", "2"]).is_err());
        assert!(a(&["--workload", "serve", "--seconds", "0"]).is_err());
        assert!(a(&["--workload", "serve", "--seed"]).is_err());
        assert!(a(&["--workload", "all", "--seed", "3"]).is_ok());
    }
}
