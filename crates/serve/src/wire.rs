//! Response-side wire events.
//!
//! Every line the server writes is a JSON object with an `event` field.
//! Sweep progress (`sweep_started`, `sweep_chunk`, `sweep_backend_stats`,
//! `sweep_finished`, `sweep_cancelled`) reuses
//! [`mpipu_bench::sweep_wire::sweep_event_json`] verbatim — the daemon
//! speaks the same dialect as the suite's `--events` stream. This module
//! adds the serve-only events: `catalog`, `stats`, `pareto_update`,
//! `result` (kinds `eval` and `sweep`), `error`, and the terminal `done`.

use crate::codec::Fields;
use crate::request::{AxisSpec, SearchReq, SweepReq, WireError};
use crate::service::{JournalInfo, MetricsSnapshot};
use mpipu_bench::json::Json;
use mpipu_bench::sweep_wire::SWEEP_WIRE_VERSION;
use mpipu_explore::{objectives, FrontierPoint, PointEval, SearchOutcome};
use mpipu_sim::CacheStats;

/// `{"event":"error","code":...,"message":...}`.
pub fn error_json(err: &WireError) -> Json {
    Json::obj([
        ("event", Json::str("error")),
        ("code", Json::str(err.code.name())),
        ("message", Json::str(&err.message)),
    ])
}

/// The terminal `{"event":"done","ok":...}` line closing every response.
pub fn done_json(ok: bool) -> Json {
    Json::obj([("event", Json::str("done")), ("ok", Json::Bool(ok))])
}

/// An incremental frontier update emitted mid-sweep.
pub fn pareto_update_json(seen: u64, frontier_size: usize) -> Json {
    Json::obj([
        ("event", Json::str("pareto_update")),
        ("seen", Json::from(seen)),
        ("frontier_size", Json::from(frontier_size)),
    ])
}

/// The `list` response: experiments, the wire's axes and objectives,
/// backend name.
pub fn catalog_json(experiments: &[(String, String)], backend: &str) -> Json {
    let experiments = experiments.iter().map(|(name, title)| {
        Fields::default()
            .put("name", name)
            .put("title", title)
            .into()
    });
    let objectives = objectives::ALL.iter().map(|o| Json::str(o.name));
    Fields::default()
        .put("event", "catalog")
        .put("wire_version", &SWEEP_WIRE_VERSION)
        .json("experiments", Json::Arr(experiments.collect()))
        .json(
            "axes",
            Json::Arr(AxisSpec::NAMES.iter().map(|a| Json::str(*a)).collect()),
        )
        .json("objectives", Json::Arr(objectives.collect()))
        .put("backend", backend)
        .into()
}

/// The `stats` response: server counters, shared-cache counters, and —
/// when the daemon was warm-started from a sweep journal — the journal
/// load report.
pub fn stats_json(
    m: &MetricsSnapshot,
    cache: Option<&CacheStats>,
    journal: Option<&JournalInfo>,
) -> Json {
    let mut fields = Fields::default()
        .put("event", "stats")
        .put("requests", &m.requests)
        .put("evals", &m.evals)
        .put("sweeps", &m.sweeps)
        .put("searches", &m.searches)
        .put("sweeps_cancelled", &m.sweeps_cancelled)
        .put("points_swept", &m.points_swept)
        .put("points_searched", &m.points_searched)
        .put("errors", &m.errors)
        .put("active_sweeps", &m.active_sweeps);
    if let Some(c) = cache {
        let cache = Fields::default()
            .put("inner", c.inner)
            .put("hits", &c.hits)
            .put("misses", &c.misses)
            .put("entries", &c.entries);
        fields = fields.json("cache", cache.into());
    }
    if let Some(j) = journal {
        let journal = Fields::default()
            .put("path", &j.path)
            .put("units", &j.units)
            .put("entries", &j.entries)
            .put("load_ms", &j.load_ms);
        fields = fields.json("journal", journal.into());
    }
    fields.into()
}

/// A `result` line's opening fields: its kind and the client's tag.
fn result_fields(kind: &str, tag: Option<&str>) -> Fields {
    let fields = Fields::default().put("event", "result").put("kind", kind);
    match tag {
        Some(tag) => fields.put("tag", tag),
        None => fields,
    }
}

/// The `eval` result line of one priced design point.
pub fn eval_result_json(tag: Option<&str>, eval: &PointEval) -> Json {
    let m = &eval.metrics;
    let metrics = Fields::default()
        .put("int_tops_per_mm2", &m.int_tops_per_mm2)
        .put("int_tops_per_w", &m.int_tops_per_w)
        .put("fp_tflops_per_mm2", &m.fp_tflops_per_mm2)
        .put("fp_tflops_per_w", &m.fp_tflops_per_w);
    result_fields("eval", tag)
        .put("cycles", &eval.cycles)
        .put("baseline_cycles", &eval.baseline_cycles)
        .put("normalized", &eval.normalized)
        .put("fp_fraction", &eval.fp_fraction)
        .json("metrics", metrics.into())
        .into()
}

fn points_json(points: &[FrontierPoint]) -> Json {
    let point = |p: &FrontierPoint| {
        Fields::default()
            .put("id", &p.id.0)
            .put("labels", &p.labels)
            .put("values", &p.values)
            .into()
    };
    Json::Arr(points.iter().map(point).collect())
}

/// The `sweep` result line: point count, objective names, the Pareto
/// frontier, and (when requested) the top-k selection.
pub fn sweep_result_json(
    tag: Option<&str>,
    points: u64,
    objectives: &[String],
    front: &[FrontierPoint],
    top: Option<&[FrontierPoint]>,
) -> Json {
    let fields = result_fields("sweep", tag)
        .put("points", &points)
        .put("objectives", objectives)
        .put("frontier_size", &front.len())
        .json("frontier", points_json(front));
    match top {
        Some(top) => fields.json("top", points_json(top)),
        None => fields,
    }
    .into()
}

/// A finished sweep's Pareto frontier and optional top-k selection —
/// the output of [`SweepReq::folds`].
pub(crate) type Fronts = (Vec<FrontierPoint>, Option<Vec<FrontierPoint>>);

/// [`sweep_result_json`] for `req`'s finished folds over `points` points.
pub(crate) fn sweep_result(req: &SweepReq, points: u64, (front, top): &Fronts) -> Json {
    sweep_result_json(
        req.tag.as_deref(),
        points,
        &req.objectives,
        front,
        top.as_deref(),
    )
}

/// [`search_result_json`] for `req`'s finished search.
pub(crate) fn search_result(req: &SearchReq, out: &SearchOutcome) -> Json {
    search_result_json(req.tag.as_deref(), req.space_points(), &req.objectives, out)
}

/// The `search` result line: the declared space size, the budget
/// actually spent (evaluated / proposed, per-rung and polish
/// accounting), and the recovered frontier. The point of guided search
/// is the gap between `space_points` and `evaluated` — both are on the
/// line so every client (and CI) can check it.
pub fn search_result_json(
    tag: Option<&str>,
    space_points: u64,
    objectives: &[String],
    out: &SearchOutcome,
) -> Json {
    let rungs = out.rungs.iter().map(|r| {
        Fields::default()
            .put("rung", &r.rung)
            .put("proposed", &r.proposed)
            .put("evaluated", &r.evaluated)
            .put("frontier", &r.frontier)
            .put("survivors", &r.survivors)
            .into()
    });
    result_fields("search", tag)
        .put("space_points", &space_points)
        .put("evaluated", &out.evaluated)
        .put("proposed", &out.proposed)
        .json("rungs", Json::Arr(rungs.collect()))
        .put("polish_rounds", &out.polish_rounds)
        .put("polish_evaluated", &out.polish_evaluated)
        .put("objectives", objectives)
        .put("frontier_size", &out.frontier.len())
        .json("frontier", points_json(&out.frontier))
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ErrorCode;

    #[test]
    fn error_and_done_shapes() {
        let e = error_json(&WireError {
            code: ErrorCode::Budget,
            message: "too big".to_string(),
        });
        assert_eq!(
            e.to_string_compact(),
            r#"{"event":"error","code":"budget","message":"too big"}"#
        );
        assert_eq!(
            done_json(true).to_string_compact(),
            r#"{"event":"done","ok":true}"#
        );
    }

    #[test]
    fn sweep_result_carries_frontier_and_optional_top() {
        let front = vec![FrontierPoint {
            id: mpipu_explore::DesignId(3),
            labels: vec!["w=8".to_string()],
            values: vec![1.5, 2.0],
        }];
        let j = sweep_result_json(Some("t"), 10, &["cycles".to_string()], &front, Some(&front));
        let s = j.to_string_compact();
        assert!(s.contains(r#""kind":"sweep""#), "{s}");
        assert!(s.contains(r#""tag":"t""#), "{s}");
        assert!(s.contains(r#""frontier_size":1"#), "{s}");
        assert!(s.contains(r#""top":"#), "{s}");
        let no_top = sweep_result_json(None, 10, &["cycles".to_string()], &front, None);
        assert!(!no_top.to_string_compact().contains(r#""top":"#));
    }
}
