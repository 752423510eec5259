//! `serve`: the daemon on `127.0.0.1:0` under a closed loop of two
//! `sweepctl`-style clients, each waiting for its reply before sending
//! the next seeded request line. One memo cache serves every request,
//! warmed during set-up by one frontier sweep; the mix reads it (eval
//! point queries, warm frontier sweeps) beside writing it (cold sweeps
//! over seeded sub-grids whose keys were never seen), plus small
//! schedule searches and a share of malformed lines that must get a
//! structured `error` and `done:false`.

use crate::trace::Tracer;
use crate::{digest, stats, Args, Outcome, Rng};
use mpipu_analysis::Distribution;
use mpipu_bench::json::Json;
use mpipu_bench::suite::SMOKE_SCALE;
use mpipu_explore::{grid_u32, CancelToken};
use mpipu_serve::presets;
use mpipu_serve::request::{
    AxisSpec, DistSpec, EvalReq, PassSel, ScenarioSpec, SearchReq, SweepReq, TileSel, TopKSpec,
    WorkloadSpec,
};
use mpipu_serve::service::{reference_search_result, reference_sweep_result};
use mpipu_serve::{Client, Limits, Request, Response, Server, ServerConfig, Service};
use mpipu_sim::cost::pass_distributions;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Eval,
    WarmSweep,
    ColdSweep,
    Search,
    Malformed,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Eval => "eval",
            Kind::WarmSweep => "warm_sweep",
            Kind::ColdSweep => "cold_sweep",
            Kind::Search => "search",
            Kind::Malformed => "malformed",
        }
    }
}

/// The mix, as shares of request count (they sum to 1). The shares are
/// assumed, not measured: the repository holds no traffic record.
/// `eval` is the majority (the old `sweepctl bench` load sent about nine
/// evals per sweep), and every other kind keeps at least 4%, so that a
/// 10 s window at about 1,000 requests/s serves some 400 of each and
/// each kind's tail (≥ 10 samples beyond it) sits at p97.5 or higher.
/// Warm sweeps outnumber cold ones 3:2: repeats of a popular sweep are
/// the cache's purpose, while cold sweeps stay frequent enough for their
/// misses and inserts to weigh on throughput. See `README.md`.
pub const MIX: [(Kind, f64); 5] = [
    (Kind::Eval, 0.72),
    (Kind::WarmSweep, 0.12),
    (Kind::ColdSweep, 0.08),
    (Kind::Search, 0.04),
    (Kind::Malformed, 0.04),
];

const CLIENTS: usize = 2;

fn dist_pair(pass: PassSel) -> (DistSpec, DistSpec) {
    let (a, w) = pass_distributions(pass.to_pass());
    (DistSpec::from_dist(a), DistSpec::from_dist(w))
}

/// The warm frontier sweep (the same grid the cache is warmed with).
fn warm_sweep() -> SweepReq {
    presets::frontier_sweep(SMOKE_SCALE)
}

/// Seeded request-line generator: one independent stream per client.
/// The program under test sees only the lines.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    warm_line: String,
}

impl Gen {
    pub fn new(seed: u64, client: u64) -> Gen {
        Gen {
            rng: Rng::new(seed ^ client.wrapping_mul(0xA24B_AED4_963E_E407)),
            warm_line: Request::Sweep(warm_sweep()).to_line(),
        }
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.rng.below(xs.len() as u64) as usize]
    }

    /// A point of the warm frontier grid, as an `eval` request.
    fn eval(&mut self) -> Request {
        let grid = warm_sweep();
        let pass = self.pick(&[PassSel::Fwd, PassSel::Bwd]);
        Request::Eval(EvalReq {
            scenario: ScenarioSpec {
                tile: Some(self.pick(&[TileSel::Small, TileSel::Big])),
                w: Some(8 + self.rng.below(31) as u32),
                software_precision: Some(self.pick(&[16, 28])),
                cluster: Some(self.pick(&[1, 2, 4, 8, 16])),
                buffer_depth: Some(self.pick(&[2, 4, 8])),
                n_tiles: Some(self.pick(&[1, 2, 4, 8])),
                dists: Some(dist_pair(pass)),
                ..grid.base
            },
            tag: None,
        })
    }

    /// A sub-grid keyed on a seeded activation distribution no earlier
    /// request used, so every point misses the cache and inserts.
    fn cold(&mut self) -> Request {
        let std = 1.5 + 2.5 * self.rng.unit();
        let wgt = DistSpec::from_dist(Distribution::WeightLike);
        Request::Sweep(SweepReq {
            base: ScenarioSpec {
                workload: Some(WorkloadSpec::Synthetic(64, 14, 1)),
                sample_steps: Some(48),
                seed: Some(1),
                ..ScenarioSpec::default()
            },
            axes: vec![
                AxisSpec::Tile(vec![TileSel::Small]),
                AxisSpec::W(grid_u32(8, 38, 1)),
                AxisSpec::SoftwarePrecision(vec![16, 20, 24, 28]),
                AxisSpec::Cluster(vec![1, 4, 16]),
                AxisSpec::Dists(vec![(DistSpec::Normal { std }, wgt)]),
            ],
            top_k: Some(TopKSpec {
                objective: "fp_tflops_per_w".to_string(),
                k: 5,
            }),
            chunk: Some(512),
            tag: Some("cold".to_string()),
            ..SweepReq::default()
        })
    }

    fn search(&mut self) -> Request {
        Request::Search(SearchReq {
            initial: Some(32),
            rungs: Some(4),
            max_evals: Some(96),
            seed: Some(self.rng.next_u64() >> 16),
            tag: Some("search".to_string()),
            ..presets::schedule_search(12)
        })
    }

    fn malformed(&mut self) -> String {
        let valid = self.eval().to_line();
        match self.rng.below(3) {
            0 => valid[..valid.len() / 2].to_string(),
            1 => valid.replacen('{', "{\"no_such_field\":1,", 1),
            _ => "this is not a request".to_string(),
        }
    }

    /// The next request line and its kind.
    pub fn next_line(&mut self) -> (Kind, String) {
        let mut u = self.rng.unit();
        let mut kind = Kind::Malformed;
        for (k, share) in MIX {
            if u < share {
                kind = k;
                break;
            }
            u -= share;
        }
        let line = match kind {
            Kind::Eval => self.eval().to_line(),
            Kind::WarmSweep => self.warm_line.clone(),
            Kind::ColdSweep => self.cold().to_line(),
            Kind::Search => self.search().to_line(),
            Kind::Malformed => self.malformed(),
        };
        (kind, line)
    }
}

/// What the oracle needs of one response: kept instead of the response
/// itself so memory does not grow with the number of requests served.
struct Reply {
    done: bool,
    ok: bool,
    error: bool,
    /// Digest and length of the raw `result` line, if any.
    result: Option<(u64, usize)>,
}

impl Reply {
    fn of(resp: &Response) -> Reply {
        let last = resp.events.last().and_then(|j| j.get("event"));
        Reply {
            done: last.and_then(Json::as_str) == Some("done"),
            ok: resp.ok,
            error: resp.error().is_some(),
            result: resp.result_line().map(|l| (digest(l.as_bytes()), l.len())),
        }
    }
}

/// One served request.
struct Served {
    kind: Kind,
    line: String,
    ms: f64,
    reply: Result<Reply, String>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn start_server() -> Server {
    // One engine thread per sweep: two clients then keep at most two
    // sweeps computing, one per core.
    let service = Arc::new(Service::new(Limits {
        engine_threads: 1,
        ..Limits::default()
    }));
    let server = Server::with_service(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: nproc(),
            limits: service.limits(),
        },
        service,
    )
    .expect("bind the daemon on 127.0.0.1:0");
    let mut client = Client::connect(server.local_addr()).expect("connect to the daemon");
    let warm = client
        .request(&Request::Sweep(warm_sweep()))
        .expect("warm-up frontier sweep");
    assert!(warm.ok, "warm-up sweep failed: {:?}", warm.error());
    server
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// The result line the in-process oracle expects for `line`.
struct Oracle {
    service: Service,
    cache: HashMap<String, Option<String>>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            service: Service::new(Limits {
                engine_threads: 1,
                ..Limits::default()
            }),
            cache: HashMap::new(),
        }
    }

    /// `Some(result line)` for a well-formed request, `None` for one
    /// that must be refused.
    fn expected(&mut self, line: &str) -> Option<String> {
        if let Some(hit) = self.cache.get(line) {
            return hit.clone();
        }
        let want = match Request::parse(line) {
            Err(_) => None,
            Ok(Request::Sweep(s)) => Some(
                reference_sweep_result(&s, 1)
                    .expect("reference sweep")
                    .to_string_compact(),
            ),
            Ok(Request::Search(s)) => Some(
                reference_search_result(&s, 1)
                    .expect("reference search")
                    .to_string_compact(),
            ),
            Ok(req) => {
                let lines = Mutex::new(Vec::new());
                let emit = |j: &Json| lines.lock().expect("oracle lines").push(j.clone());
                self.service.handle(&req, &CancelToken::new(), &emit);
                let lines = lines.into_inner().expect("oracle lines");
                lines
                    .into_iter()
                    .find(|j| j.get("event").and_then(Json::as_str) == Some("result"))
                    .map(|j| j.to_string_compact())
            }
        };
        self.cache.insert(line.to_string(), want.clone());
        want
    }

    /// Check one served response against the oracle.
    fn check(&mut self, kind: Kind, line: &str, resp: &Reply) -> Result<(), String> {
        if !resp.done {
            return Err(format!("{}: no terminal done", kind.name()));
        }
        match (kind, self.expected(line)) {
            (Kind::Malformed, None) => {
                if resp.ok || !resp.error || resp.result.is_some() {
                    return Err("malformed line was not refused with a structured error".into());
                }
                Ok(())
            }
            (Kind::Malformed, Some(_)) => Err("generator produced a valid malformed line".into()),
            (_, None) => Err(format!("{}: generated line does not parse", kind.name())),
            (_, Some(want)) => {
                if !resp.ok {
                    return Err(format!("{}: unexpected error", kind.name()));
                }
                match resp.result {
                    Some(got) if got == (digest(want.as_bytes()), want.len()) => Ok(()),
                    Some(_) => Err(format!(
                        "{}: served result differs from in-process",
                        kind.name()
                    )),
                    None => Err(format!("{}: no result line", kind.name())),
                }
            }
        }
    }
}

/// Read the rest of a response whose first line was already read.
fn read_response(client: &mut Client, first: String) -> Result<Response, String> {
    let mut resp = Response {
        lines: Vec::new(),
        events: Vec::new(),
        ok: false,
    };
    let mut line = first;
    loop {
        let j = Json::parse(&line).map_err(|e| format!("unparseable line: {}", e.message))?;
        let done = j.get("event").and_then(Json::as_str) == Some("done");
        resp.ok = j.get("ok") == Some(&Json::Bool(true));
        resp.lines.push(line);
        resp.events.push(j);
        if done {
            return Ok(resp);
        }
        line = client.next_line().map_err(|e| e.to_string())?;
    }
}

/// Determinism self-test of the generator: the same seed gives the same
/// bytes; another seed gives different cold-sweep cache keys.
fn generator_self_test(seed: u64) -> Result<(), String> {
    let take = |s: u64| -> Vec<(Kind, String)> {
        let mut g = Gen::new(s, 0);
        (0..400).map(|_| g.next_line()).collect()
    };
    let a = take(seed);
    if a != take(seed) {
        return Err("generator is not deterministic".into());
    }
    let cold = |v: &[(Kind, String)]| -> Vec<String> {
        v.iter()
            .filter(|(k, _)| *k == Kind::ColdSweep)
            .map(|(_, l)| l.clone())
            .collect()
    };
    let (ca, cb) = (cold(&a), cold(&take(seed.wrapping_add(1))));
    if ca.is_empty() || ca.iter().any(|l| cb.contains(l)) {
        return Err("another seed repeated a cold-sweep cache key".into());
    }
    Ok(())
}

pub fn run(args: &Args, out: &mut Outcome) {
    let selftest = generator_self_test(args.seed);
    out.check(selftest.is_ok(), || {
        format!("generator: {}", selftest.unwrap_err())
    });
    // Set-up: a fresh daemon warmed by one frontier sweep.
    let server = out.timed_setup(start_server);
    let server_ref = &server;
    let addr = server_ref.local_addr();
    let memo_before = server_ref.service().backend().cache_stats();

    // The closed loop.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let seed = args.seed;
                scope.spawn(move || {
                    let mut gen = Gen::new(seed, c);
                    let mut client = Client::connect(addr).expect("connect a load client");
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let (kind, line) = gen.next_line();
                        let t = Instant::now();
                        let response = client
                            .send_line(&line)
                            .and_then(|()| client.collect_response());
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let reply = response.as_ref().map(Reply::of).map_err(|e| e.to_string());
                        let broken = reply.is_err();
                        // Warm sweeps repeat one line; keep one copy's worth.
                        let line = if kind == Kind::WarmSweep {
                            String::new()
                        } else {
                            line
                        };
                        done.push(Served {
                            kind,
                            line,
                            ms,
                            reply,
                        });
                        if broken {
                            client = Client::connect(addr).expect("reconnect a load client");
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    out.window_s = start.elapsed().as_secs_f64();
    let memo_after = server_ref.service().backend().cache_stats();

    // Check every served response against the in-process oracle.
    let mut oracle = Oracle::new();
    let warm_line = Request::Sweep(warm_sweep()).to_line();
    let mut by_kind: HashMap<Kind, Vec<f64>> = HashMap::new();
    for s in &served {
        out.ops_ms.push(s.ms);
        by_kind.entry(s.kind).or_default().push(s.ms);
        let line = if s.kind == Kind::WarmSweep {
            &warm_line
        } else {
            &s.line
        };
        let verdict = match &s.reply {
            Ok(reply) => oracle.check(s.kind, line, reply),
            Err(e) => Err(format!("{}: transport error {e}", s.kind.name())),
        };
        out.check(verdict.is_ok(), || verdict.unwrap_err());
    }
    let mut kinds: Vec<_> = by_kind.iter().collect();
    kinds.sort_by_key(|(k, _)| **k);
    let mut shares = Vec::new();
    for (k, ms) in kinds {
        out.line(format!(
            "{:<10} {:>6} requests ({:>5.1}%)  p50 {:>8.3} ms  tail {}",
            k.name(),
            ms.len(),
            100.0 * ms.len() as f64 / served.len() as f64,
            stats::median(ms),
            stats::tail_text(ms)
        ));
        shares.push(format!("\"{}\": {}", k.name(), ms.len()));
    }
    out.record
        .push(("mix_counts".into(), format!("{{{}}}", shares.join(", "))));
    if let (Some(a), Some(b)) = (memo_before, memo_after) {
        let d = b.delta_since(&a);
        out.line(format!(
            "memo cache over the window: {} hits / {} misses, {} entries",
            d.hits, d.misses, d.entries
        ));
    }
    out.line(format!(
        "{} requests from {CLIENTS} closed-loop clients in {:.2} s",
        served.len(),
        out.window_s
    ));

    stop(server);
    if args.trace {
        traced(args, out);
    }
    out.repeat_setup(start_server, stop);
}

/// Send `line` and read its whole response.
fn round_trip(client: &mut Client, line: &str) -> Result<Response, String> {
    client
        .send_line(line)
        .and_then(|()| client.collect_response())
        .map_err(|e| e.to_string())
}

/// Check a served response to a traced-pass line against the in-process
/// result `want`; returns the response's size in bytes.
fn check_traced(
    kind: Kind,
    resp: &Result<Response, String>,
    want: Option<&str>,
) -> Result<usize, String> {
    let r = resp
        .as_ref()
        .map_err(|e| format!("traced {}: transport error {e}", kind.name()))?;
    let bytes = r.lines.iter().map(|l| l.len() + 1).sum();
    if kind == Kind::Malformed {
        if r.ok || r.error().is_none() {
            return Err("traced malformed line not refused".to_string());
        }
    } else if !r.ok || want.is_none() || r.result_line() != want {
        return Err(format!("traced {}: served != in-process", kind.name()));
    }
    Ok(bytes)
}

/// The traced pass: the same kind of generated lines (a fresh stream),
/// parsed, handled in-process on a second warmed service, then sent over
/// the wire one at a time to a fresh warmed daemon. The tracing overhead
/// compares its round trips with an untraced pass of the same lines, one
/// client, on another fresh daemon, so both see the same cache state.
fn traced(args: &Args, out: &mut Outcome) {
    let mut gen = Gen::new(args.seed ^ 0x7ace, 0);
    let lines: Vec<(Kind, String)> = (0..300).map(|_| gen.next_line()).collect();

    let baseline = start_server();
    let mut client = Client::connect(baseline.local_addr()).expect("connect the baseline client");
    let mut untraced_ms = Vec::new();
    let mut untraced = Vec::new();
    for (_, line) in &lines {
        let t = Instant::now();
        untraced.push(round_trip(&mut client, line));
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(client);
    stop(baseline);

    let server = start_server();
    let in_process = Service::new(server.service().limits());
    let cancel = CancelToken::new();
    let warm = Request::Sweep(warm_sweep());
    assert!(in_process.handle(&warm, &cancel, &|_: &Json| {}));
    let mut client = Client::connect(server.local_addr()).expect("connect the traced client");
    let memo_before = server.service().backend().cache_stats();

    let tracer = Arc::new(Tracer::new());
    let mut handled: Vec<Option<String>> = Vec::new();
    let mut wire: Vec<Result<Response, String>> = Vec::new();
    let mut first_line = Duration::ZERO;
    let mut round_trips = Duration::ZERO;
    let mut rtt_ms = Vec::new();
    let root = tracer.open("serve");
    let start = Instant::now();
    let parsed: Vec<_> = lines
        .iter()
        .map(|(_, l)| tracer.time("serve.parse", 1, || Request::parse(l)))
        .collect();
    for req in &parsed {
        let Ok(req) = req else {
            handled.push(None);
            continue;
        };
        let result = Mutex::new(None);
        let emit = |j: &Json| {
            if j.get("event").and_then(Json::as_str) == Some("result") {
                *result.lock().expect("result slot") = Some(j.to_string_compact());
            }
        };
        tracer.time("serve.handle", 1, || in_process.handle(req, &cancel, &emit));
        handled.push(result.into_inner().expect("result slot"));
    }
    for (_, line) in &lines {
        let t = Instant::now();
        let resp = tracer.time("serve.roundtrip", 1, || {
            client.send_line(line).map_err(|e| e.to_string())?;
            let first = client.next_line().map_err(|e| e.to_string())?;
            first_line += t.elapsed();
            read_response(&mut client, first)
        });
        round_trips += t.elapsed();
        rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        wire.push(resp);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    tracer.close(root);
    let memo_after = server.service().backend().cache_stats();
    out.spans = tracer.spans();

    // Served ≡ in-process, line by line, on both daemons; malformed
    // lines refused.
    let mut bytes = 0usize;
    let mut expected_errors = 0;
    for (((kind, _), want), (resp, base)) in
        lines.iter().zip(&handled).zip(wire.iter().zip(&untraced))
    {
        expected_errors += u32::from(*kind == Kind::Malformed);
        for (i, r) in [resp, base].into_iter().enumerate() {
            let verdict = check_traced(*kind, r, want.as_deref());
            if i == 0 {
                bytes += verdict.as_ref().map_or(0, |b| *b);
            }
            out.check(verdict.is_ok(), || verdict.unwrap_err());
        }
    }

    let parse = out.share_of_root("serve.parse");
    let handle = out.share_of_root("serve.handle");
    let rtt = out.share_of_root("serve.roundtrip");
    out.set("serve.parse_pct", parse);
    out.set("serve.handle_pct", handle);
    out.set("serve.wire_pct", rtt - handle - parse);
    out.set(
        "serve.first_line_pct",
        100.0 * first_line.as_secs_f64() / round_trips.as_secs_f64(),
    );
    out.set("serve.response_bytes", bytes as f64);
    out.set("serve.expected_errors", f64::from(expected_errors));
    if let (Some(a), Some(b)) = (memo_before, memo_after) {
        let d = b.delta_since(&a);
        out.set("sim.memo.hits", d.hits as f64);
        out.set("sim.memo.misses", d.misses as f64);
        out.set(
            "sim.memo.hit_ratio",
            d.hits as f64 / (d.hits + d.misses).max(1) as f64,
        );
    }
    // The daemon's own view of the same cache.
    let stats = client
        .request(&Request::Stats)
        .map_err(|e| e.to_string())
        .and_then(|r| {
            r.find("stats")
                .and_then(|s| s.get("cache"))
                .map(|c| c.to_string_compact())
                .ok_or_else(|| "stats reply has no cache block".to_string())
        });
    match &stats {
        Ok(c) => out.line(format!("daemon stats cache: {c}")),
        Err(e) => out.line(format!("daemon stats: {e}")),
    }
    out.check(stats.is_ok(), || {
        format!("stats request: {}", stats.unwrap_err())
    });
    drop(client);
    stop(server);
    out.finish_trace(stats::median(&untraced_ms), stats::median(&rtt_ms), wall_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_reseeds_cold_keys() {
        generator_self_test(7).unwrap();
        generator_self_test(8).unwrap();
    }

    #[test]
    fn mix_shares_sum_to_one_and_every_line_parses_as_its_kind() {
        let total: f64 = MIX.iter().map(|m| m.1).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mut g = Gen::new(11, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let (kind, line) = g.next_line();
            seen.insert(kind);
            assert_eq!(
                Request::parse(&line).is_ok(),
                kind != Kind::Malformed,
                "{line}"
            );
        }
        assert_eq!(seen.len(), MIX.len(), "every kind appears");
    }
}
