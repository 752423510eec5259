//! `reproduce`: every builtin experiment at smoke scale on the default
//! Monte-Carlo backend with one worker thread — the paper-reproduction
//! user's path. The seed permutes the experiment order of each pass;
//! results must not depend on it.

use crate::adapters::TracedBackend;
use crate::trace::{by_name, Tracer};
use crate::{golden, matches_golden, stats, Args, Outcome, Rng, EXPERIMENTS};
use mpipu_bench::events::{Event, NullSink, Sink};
use mpipu_bench::experiments::accuracy;
use mpipu_bench::json::Json;
use mpipu_bench::registry::Registry;
use mpipu_bench::runner::{run_on_backend, Experiment, RunOptions};
use mpipu_bench::suite::SMOKE_SCALE;
use mpipu_datapath::{AccFormat, IpuConfig};
use mpipu_dnn::synthetic::{gaussian_prototypes, Dataset};
use mpipu_dnn::train::{accuracy_emulated, accuracy_f32, batch_accuracies_emulated, train, Mlp};
use mpipu_sim::{Backend, CostBackend};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const GOLDEN: &str = include_str!("../golden/reproduce.txt");

fn options() -> RunOptions {
    RunOptions {
        threads: 1,
        out_dir: None,
        scale: SMOKE_SCALE,
        seed: None,
        backend: Backend::MonteCarlo,
        backend_explicit: false,
    }
}

/// Fisher-Yates permutation of `0..n`.
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// One registry pass in `order`; returns each experiment's pretty JSON
/// (the bytes `suite --smoke --threads 1` writes), keyed by name.
fn pass(
    experiments: &[&dyn Experiment],
    order: &[usize],
    backend: &Arc<dyn CostBackend>,
    sink: &dyn Sink,
) -> Vec<(String, Result<String, String>)> {
    let ordered: Vec<&dyn Experiment> = order.iter().map(|&i| experiments[i]).collect();
    run_on_backend(&ordered, &options(), backend, sink)
        .into_iter()
        .map(|o| (o.name, o.result.map(|r| r.to_json().to_string_pretty())))
        .collect()
}

/// Every pinned output of one pass in registry order (for `digests`).
pub fn outputs() -> Vec<(String, String)> {
    let registry = Registry::builtin();
    let experiments = registry.experiments();
    let order: Vec<usize> = (0..experiments.len()).collect();
    let backend = Backend::MonteCarlo.instantiate();
    pass(&experiments, &order, &backend, &NullSink)
        .into_iter()
        .map(|(n, r)| (format!("reproduce/{n}.json"), r.expect("experiment ran")))
        .collect()
}

fn check_pass(
    gold: &std::collections::BTreeMap<String, (u64, usize)>,
    results: &[(String, Result<String, String>)],
) -> Result<(), String> {
    if results.len() != EXPERIMENTS.len() {
        return Err(format!("{} experiments ran, expected 12", results.len()));
    }
    for (name, r) in results {
        let text = r.as_ref().map_err(|e| format!("{name} panicked: {e}"))?;
        matches_golden(gold, &format!("reproduce/{name}.json"), text)?;
    }
    Ok(())
}

/// Opens a span per experiment from the runner's lifecycle events.
struct SpanSink {
    tracer: Arc<Tracer>,
    open: Mutex<Vec<usize>>,
}

impl Sink for SpanSink {
    fn event(&self, event: &Event<'_>) {
        match event {
            Event::ExperimentStarted { name, .. } => {
                let id = self.tracer.open(&format!("bench.exp.{name}"));
                self.open.lock().expect("span list").push(id);
            }
            Event::ExperimentFinished { .. } => {
                if let Some(id) = self.open.lock().expect("span list").pop() {
                    self.tracer.close(id);
                }
            }
            _ => {}
        }
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    // Set-up builds the registry and backend, then warms the runner path
    // with the three cheapest experiments (about a millisecond) so the
    // first timed pass does not pay first-touch costs.
    let setup = || {
        let registry = Registry::builtin();
        let backend = Backend::MonteCarlo.instantiate();
        let warm = registry
            .select(&["table1", "fig7", "fig9"])
            .expect("cheap experiments are registered");
        std::hint::black_box(run_on_backend(&warm, &options(), &backend, &NullSink));
        (registry, backend, golden(GOLDEN))
    };
    let (registry, backend, gold) = out.timed_setup(setup);
    let experiments = registry.experiments();
    let mut rng = Rng::new(args.seed);
    out.timed_window(args.seconds, 2, |_| {
        let order = permutation(&mut rng, experiments.len());
        check_pass(&gold, &pass(&experiments, &order, &backend, &NullSink))
    });
    out.repeat_setup(setup, drop);
    out.line(format!(
        "suite passes: {} (median {:.3} s)",
        out.ops_ms.len(),
        stats::median(&out.ops_ms) / 1e3
    ));
    if args.trace {
        traced(args, out, &experiments, &gold);
    }
}

fn traced(
    args: &Args,
    out: &mut Outcome,
    experiments: &[&dyn Experiment],
    gold: &std::collections::BTreeMap<String, (u64, usize)>,
) {
    let tracer = Arc::new(Tracer::new());
    let backend = TracedBackend::wrap(Backend::MonteCarlo.instantiate(), &tracer);
    let sink = SpanSink {
        tracer: Arc::clone(&tracer),
        open: Mutex::new(Vec::new()),
    };
    let order = permutation(&mut Rng::new(args.seed ^ 0x7ace), experiments.len());
    let root = tracer.open("reproduce");
    let t = Instant::now();
    let results = pass(experiments, &order, &backend, &sink);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close(root);
    let checked = check_pass(gold, &results);
    out.check(checked.is_ok(), || {
        format!("traced pass: {}", checked.unwrap_err())
    });
    out.spans = tracer.spans();
    for name in crate::EXPERIMENTS {
        let v = out.busy_share_of_root(&format!("bench.exp.{name}"));
        out.set(&format!("bench.exp_pct.{name}"), v);
    }

    // The accuracy study's layers, timed by a probe under a root of its
    // own; its shares are of the probe's wall-clock.
    let probe_tracer = Tracer::new();
    let probe = probe_tracer.span("dnn_probe", || dnn_probe(&probe_tracer));
    let probe_spans = probe_tracer.spans();
    let names = by_name(&probe_spans);
    let busy_ns = |n: &str| names.get(n).map_or(f64::NAN, |e| e.1 as f64);
    let probe_ns = busy_ns("dnn_probe");
    out.set("dnn.train_pct", 100.0 * busy_ns("dnn.train") / probe_ns);
    out.set("dnn.emulate_pct", 100.0 * busy_ns("dnn.emulate") / probe_ns);
    let accuracy_json = results
        .iter()
        .find(|(n, _)| n == "accuracy")
        .and_then(|(_, r)| r.as_ref().ok())
        .map_or("", String::as_str);
    let agrees = probe.matches(accuracy_json);
    out.check(agrees.is_ok(), || {
        format!("dnn probe: {}", agrees.unwrap_err())
    });
    out.set("dnn.emulated_samples", probe.samples as f64);
    let macs = probe.samples * probe.macs_per_sample;
    let emulate_s = busy_ns("dnn.emulate") / 1e9;
    out.set("datapath.emulated_macs", macs as f64);
    out.set("datapath.macs_per_s", macs as f64 / emulate_s);
    out.line(format!(
        "dnn probe: {:.3} s, train {:.3} s, emulate {emulate_s:.3} s; {} emulated inferences, \
         {:.1} ns per emulated MAC",
        probe_ns / 1e9,
        busy_ns("dnn.train") / 1e9,
        probe.samples,
        emulate_s * 1e9 / macs as f64
    ));
    let untraced = stats::median(&out.ops_ms);
    out.finish_trace(untraced, wall_ms, wall_ms);
    // The probe's spans go to the record as a second root.
    let offset = out.spans.len();
    out.spans.extend(probe_spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// What the dnn probe computed: enough to compare it with the accuracy
/// experiment's report.
struct Probe {
    /// Emulated inferences.
    samples: u64,
    /// Multiply-accumulates per inference, from the MLP's weight shapes.
    macs_per_sample: u64,
    /// `fp32_reference` rows: final train loss, f32 top-1.
    reference: [f64; 2],
    /// `top1_vs_precision` rows: precision, top-1, delta vs f32, batch
    /// min, batch max.
    rows: Vec<[f64; 5]>,
}

impl Probe {
    /// Check the probe against the pass's `accuracy.json`, so a probe
    /// that drifted from the experiment fails the run.
    fn matches(&self, accuracy_json: &str) -> Result<(), String> {
        let doc = Json::parse(accuracy_json)
            .map_err(|e| format!("accuracy.json does not parse: {}", e.message))?;
        let table = |title: &str| -> Vec<Vec<Option<f64>>> {
            doc.get("tables")
                .and_then(Json::as_arr)
                .and_then(|ts| {
                    ts.iter()
                        .find(|t| t.get("title").and_then(Json::as_str) == Some(title))
                })
                .and_then(|t| t.get("rows"))
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|r| r.as_arr().unwrap_or(&[]).iter().map(Json::as_f64).collect())
                .collect()
        };
        let rows: Vec<Vec<Option<f64>>> = self
            .rows
            .iter()
            .map(|r| r.iter().copied().map(Some).collect())
            .collect();
        let reference: Vec<Vec<Option<f64>>> = self
            .reference
            .iter()
            .map(|&v| vec![None, Some(v)])
            .collect();
        if table("top1_vs_precision") != rows {
            return Err("top-1 per precision differs from accuracy.json".into());
        }
        if table("fp32_reference") != reference {
            return Err("f32 reference differs from accuracy.json".into());
        }
        Ok(())
    }
}

/// Time the accuracy study's layers directly on its smoke-scale inputs:
/// training and the f32 reference (`dnn.train`), then the bit-accurate
/// IPU replay at every precision (`dnn.emulate`). `accuracy::run` builds
/// its inputs from the constants below and does not export them;
/// [`Probe::matches`] catches a drift.
fn dnn_probe(tracer: &Tracer) -> Probe {
    let cfg = accuracy::Config::paper(SMOKE_SCALE);
    let all = gaussian_prototypes(cfg.n_train + cfg.n_test, 64, 20, 1.1, cfg.seed);
    let split = cfg.n_train * all.d;
    let subset = |x: &[f32], y: &[usize]| Dataset {
        x: x.to_vec(),
        y: y.to_vec(),
        d: all.d,
        classes: all.classes,
    };
    let train_set = subset(&all.x[..split], &all.y[..cfg.n_train]);
    let test_set = subset(&all.x[split..], &all.y[cfg.n_train..]);
    let mut model = Mlp::new(&[64, 96, 48, 20], cfg.model_seed);
    let (loss, base) = tracer.span("dnn.train", || {
        let loss = train(&mut model, &train_set, cfg.epochs, cfg.lr);
        (f64::from(loss), accuracy_f32(&model, &test_set))
    });
    let rows = tracer.span("dnn.emulate", || {
        cfg.precisions
            .iter()
            .map(|&p| {
                let ipu = IpuConfig::big(p)
                    .with_acc(AccFormat::Fp32)
                    .with_software_precision(p);
                let acc = accuracy_emulated(&model, &test_set, ipu);
                let batches = batch_accuracies_emulated(&model, &test_set, ipu, cfg.batch);
                let bmin = batches.iter().copied().fold(f64::INFINITY, f64::min);
                let bmax = batches.iter().copied().fold(0.0f64, f64::max);
                [f64::from(p), acc, acc - base, bmin, bmax]
            })
            .collect()
    });
    let macs_per_sample = model
        .weights
        .iter()
        .map(|w| w.shape().iter().product::<usize>() as u64)
        .sum();
    Probe {
        samples: 2 * cfg.precisions.len() as u64 * test_set.y.len() as u64,
        macs_per_sample,
        reference: [loss, base],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(&mut Rng::new(3), 12);
        assert_eq!(a, permutation(&mut Rng::new(3), 12));
        assert_ne!(a, permutation(&mut Rng::new(4), 12));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..12).collect::<Vec<_>>());
    }
}
