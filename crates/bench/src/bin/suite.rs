//! Run the full experiment registry (or a subset) across a worker pool,
//! writing one JSON result per experiment. `suite --help` prints the
//! flags; an unknown flag exits 2 and names the nearest known one.
//!
//! Without `--seed` every experiment runs its canonical paper seed, and
//! the result JSONs are byte-identical across thread counts (CI enforces
//! this). `--seed` derives an independent stream per experiment, so
//! overridden runs are reproducible too. `--backend` routes the
//! performance experiments through another cost-estimation backend
//! (`analytic` is deterministic and seed-free; `memoized` is
//! bit-identical to `mc` with repeated design points cached).

use mpipu_bench::events::{JsonlSink, StderrSink, TeeSink};
use mpipu_bench::registry::Registry;
use mpipu_bench::runner::{run_on_backend, RunOptions};
use mpipu_bench::suggest::unknown_name_error;
use mpipu_bench::suite::{backend_from, flag_value, scale_from, timing_json};
use std::path::PathBuf;
use std::time::Instant;

/// The flags, as `suite --help` prints them.
const USAGE: &str = "\
suite --list                 name every registered experiment
suite [--smoke|--quick|--full]
      [--threads N]          worker threads (0 or omitted = one per CPU)
      [--only a,b,c]         run a comma-separated subset
      [--backend B]          cost backend: mc (default), analytic,
                             memoized, memoized-analytic
      [--out DIR]            results directory (default: results/)
      [--seed N]             override seeds (per-experiment derived)
      [--events FILE]        stream JSONL run events to FILE
      [--text]               also print each report to stdout
suite --help                 print this and exit
";

/// Flags that stand alone.
const SWITCHES: [&str; 6] = ["--list", "--smoke", "--quick", "--full", "--text", "--help"];

/// Flags that take the next argument as their value.
const VALUED: [&str; 6] = [
    "--threads",
    "--only",
    "--backend",
    "--out",
    "--seed",
    "--events",
];

/// Check every argument against the known flags; a value flag consumes
/// its value.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if VALUED.contains(&arg.as_str()) {
            if args.next().is_none() {
                return Err(format!("{arg} takes a value"));
            }
        } else if !SWITCHES.contains(&arg.as_str()) {
            let known: Vec<&str> = SWITCHES.iter().chain(&VALUED).copied().collect();
            return Err(unknown_name_error("flag", arg, &known));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_args(&args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--help") {
        print!("{USAGE}");
        return;
    }
    let scale = scale_from(&args);
    let registry = Registry::builtin();

    if args.iter().any(|a| a == "--list") {
        println!("{} experiments registered:", registry.len());
        for e in registry.experiments() {
            println!("  {:<9} {}", e.name(), e.title());
        }
        return;
    }

    let experiments = match flag_value(&args, "only") {
        Some(only) => {
            let wanted: Vec<&str> = only.split(',').map(str::trim).collect();
            registry.select(&wanted).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            })
        }
        None => registry.experiments(),
    };

    let threads = match flag_value(&args, "threads").map(str::parse::<usize>) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("error: --threads takes a number");
            std::process::exit(2);
        }
    };
    let seed = match flag_value(&args, "seed").map(str::parse::<u64>) {
        None => None,
        Some(Ok(s)) => Some(s),
        Some(Err(_)) => {
            eprintln!("error: --seed takes a u64");
            std::process::exit(2);
        }
    };
    let backend = backend_from(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let opts = RunOptions {
        threads,
        out_dir: Some(PathBuf::from(flag_value(&args, "out").unwrap_or("results"))),
        scale,
        seed,
        backend,
        backend_explicit: flag_value(&args, "backend").is_some(),
    };

    // Sinks: human-readable stderr stream, optionally teed with a
    // machine-readable JSONL event stream. Report texts are printed from
    // the ordered outcomes after the run, not streamed: with a parallel
    // pool the finish order is scheduling-dependent and stdout must stay
    // deterministic.
    let stderr_sink = StderrSink {
        print_reports: false,
    };
    let jsonl_sink = flag_value(&args, "events").map(|path| {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create event stream {path}: {e}"));
        (JsonlSink::new(std::io::BufWriter::new(file)), path)
    });
    let t0 = Instant::now();
    // Instantiate the backend here (not inside the runner) so its cache
    // counters are readable after the run for `--text` output.
    let shared_backend = opts.backend.instantiate();
    let outcomes = match &jsonl_sink {
        Some((jsonl, _)) => {
            let tee = TeeSink::new(vec![&stderr_sink, jsonl]);
            run_on_backend(&experiments, &opts, &shared_backend, &tee)
        }
        None => run_on_backend(&experiments, &opts, &shared_backend, &stderr_sink),
    };
    if let Some((jsonl, path)) = jsonl_sink {
        // Flush explicitly: the failure path below leaves via
        // `process::exit`, which skips Drop — an unflushed BufWriter
        // would lose exactly the events that explain the failure.
        use std::io::Write as _;
        jsonl
            .into_inner()
            .flush()
            .unwrap_or_else(|e| panic!("cannot flush event stream {path}: {e}"));
        eprintln!("[suite] event stream -> {path}");
    }
    let failures = outcomes.iter().filter(|o| o.result.is_err()).count();

    if args.iter().any(|a| a == "--text") {
        for outcome in &outcomes {
            if let Ok(report) = &outcome.result {
                print!("{}", report.render_text());
            }
        }
        // Memoizing backends close the text output with their dedup
        // counters (scheduling-dependent, so never part of result files).
        if let Some(stats) = shared_backend.cache_stats() {
            println!(
                "# backend {}({}): {} hits / {} misses, {} cached design points",
                shared_backend.name(),
                stats.inner,
                stats.hits,
                stats.misses,
                stats.entries
            );
        }
    }

    // Record the perf trajectory next to the results. timing.json is the
    // one non-deterministic file in the output directory — the result
    // JSONs themselves must stay byte-identical across thread counts.
    if let Some(dir) = &opts.out_dir {
        let timing = timing_json(&outcomes, scale, threads, t0.elapsed());
        let path = dir.join("timing.json");
        std::fs::write(&path, timing.to_string_pretty())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("[suite] wall-clock trajectory -> {}", path.display());
    }
    eprintln!(
        "[suite] {}/{} experiments ok in {:.2?} (scale {scale})",
        outcomes.len() - failures,
        outcomes.len(),
        t0.elapsed()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(args: &[&str]) -> Result<(), String> {
        check_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn known_flags_pass_and_value_flags_consume_their_value() {
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(
            check(&["--smoke", "--threads", "4", "--only", "fig3,fig9"]),
            Ok(())
        );
        // A value is never read as a flag, even one shaped like a flag.
        assert_eq!(check(&["--out", "--smok", "--text"]), Ok(()));
        assert_eq!(check(&["--help"]), Ok(()));
    }

    #[test]
    fn unknown_flags_name_the_nearest_known_one() {
        let e = check(&["--smok"]).unwrap_err();
        assert!(e.starts_with("unknown flag \"--smok\""), "{e}");
        assert!(e.contains("did you mean \"--smoke\"?"), "{e}");
        let e = check(&["--smoke", "fig3"]).unwrap_err();
        assert!(e.starts_with("unknown flag \"fig3\""), "{e}");
        assert_eq!(check(&["--threads"]), Err("--threads takes a value".into()));
    }

    #[test]
    fn usage_names_every_flag() {
        for flag in SWITCHES.iter().chain(&VALUED) {
            assert!(USAGE.contains(flag), "{flag} missing from the usage block");
        }
    }
}
