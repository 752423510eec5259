//! The shared CLI plumbing of the `suite` and `bench_gate` binaries.
//!
//! `bin/suite.rs` runs any subset of [`crate::registry::Registry::builtin`]
//! in parallel (`suite --only <name>` replaces the retired per-figure
//! binaries). Experiment lookup, selection, and the registry itself live
//! in [`crate::registry`] — this module only parses flags, so new
//! scenarios never touch it.

use crate::json::Json;
use crate::runner::RunOutcome;
use crate::suggest::unknown_name_error;
use mpipu_sim::Backend;
use std::time::Duration;

/// Sample scale used by `--smoke` (clamped upward by each config's
/// per-experiment minimum sample counts).
pub const SMOKE_SCALE: f64 = 0.02;

/// Parse the scale implied by CLI args: `--smoke` → [`SMOKE_SCALE`],
/// `--quick` → 0.1, `--full` → 4.0, default 1.0.
pub fn scale_from(args: &[String]) -> f64 {
    if args.iter().any(|a| a == "--smoke") {
        SMOKE_SCALE
    } else if args.iter().any(|a| a == "--quick") {
        0.1
    } else if args.iter().any(|a| a == "--full") {
        4.0
    } else {
        1.0
    }
}

/// Parse `--<key> <value>` from `args`.
pub fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    let flag = format!("--{key}");
    args.iter()
        .position(|a| *a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parse `--backend <name>` (default: Monte-Carlo). Unknown names get
/// the same valid-list + nearest-match error UX as `--only`.
pub fn backend_from(args: &[String]) -> Result<Backend, String> {
    match flag_value(args, "backend") {
        None => Ok(Backend::MonteCarlo),
        Some(name) => {
            Backend::parse(name).ok_or_else(|| unknown_name_error("backend", name, &Backend::NAMES))
        }
    }
}

/// Serialize per-experiment wall-clock times to a JSON document —
/// written *alongside* the result files (never inside them: result JSON
/// must stay byte-identical across thread counts and hosts, which CI's
/// determinism check enforces).
pub fn timing_json(outcomes: &[RunOutcome], scale: f64, threads: usize, total: Duration) -> Json {
    Json::obj([
        ("schema_version", Json::from(1u32)),
        ("scale", Json::from(scale)),
        ("threads", Json::from(threads)),
        ("total_ms", Json::Num(total.as_secs_f64() * 1e3)),
        (
            "experiments",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        Json::obj([
                            ("name", Json::str(&o.name)),
                            ("wall_ms", Json::Num(o.wall.as_secs_f64() * 1e3)),
                            ("ok", Json::Bool(o.result.is_ok())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_flags() {
        let s = |v: &[&str]| scale_from(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(s(&[]), 1.0);
        assert_eq!(s(&["--quick"]), 0.1);
        assert_eq!(s(&["--full"]), 4.0);
        assert_eq!(s(&["--smoke"]), SMOKE_SCALE);
    }

    #[test]
    fn timing_json_shape() {
        let outcomes = vec![
            RunOutcome {
                name: "fig3".to_string(),
                wall: Duration::from_millis(12),
                result: Ok(crate::report::Report::new("fig3", "t", 1, 1.0)),
                json_path: None,
            },
            RunOutcome {
                name: "fig9".to_string(),
                wall: Duration::from_millis(3),
                result: Err("boom".into()),
                json_path: None,
            },
        ];
        let doc = timing_json(&outcomes, 0.02, 4, Duration::from_millis(20));
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("schema_version").and_then(Json::as_f64), Some(1.0));
        assert_eq!(back.get("threads").and_then(Json::as_f64), Some(4.0));
        let exps = back.get("experiments").and_then(Json::as_arr).unwrap();
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].get("name").and_then(Json::as_str), Some("fig3"));
        assert_eq!(exps[1].get("ok"), Some(&Json::Bool(false)));
        assert!(exps[0].get("wall_ms").and_then(Json::as_f64).unwrap() >= 12.0);
    }

    #[test]
    fn backend_flag_parses_and_suggests() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(backend_from(&args(&[])), Ok(Backend::MonteCarlo));
        assert_eq!(
            backend_from(&args(&["--backend", "analytic"])),
            Ok(Backend::Analytic)
        );
        assert_eq!(
            backend_from(&args(&["--backend", "memoized-analytic"])),
            Ok(Backend::MemoizedAnalytic)
        );
        let err = backend_from(&args(&["--backend", "analitic"])).unwrap_err();
        assert!(err.contains("valid names: mc, analytic"), "{err}");
        assert!(err.contains("did you mean \"analytic\"?"), "{err}");
        // The batched backend's former name is gone; the error lists the
        // four that remain.
        let err = backend_from(&args(&["--backend", "analytic-batched"])).unwrap_err();
        assert!(
            err.contains("valid names: mc, analytic, memoized, memoized-analytic"),
            "{err}"
        );
    }

    #[test]
    fn flag_value_parses_pairs() {
        let args: Vec<String> = ["--threads", "4", "--out", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "threads"), Some("4"));
        assert_eq!(flag_value(&args, "out"), Some("x"));
        assert_eq!(flag_value(&args, "missing"), None);
    }
}
