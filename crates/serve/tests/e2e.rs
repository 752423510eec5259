//! End-to-end tests: a real `Server` on a loopback socket, driven by
//! real `Client`s over TCP.

use mpipu_bench::json::Json;
use mpipu_serve::presets;
use mpipu_serve::request::{AxisSpec, EvalReq, Request, ScenarioSpec, SweepReq};
use mpipu_serve::service::{reference_search_result, reference_sweep_result};
use mpipu_serve::{Client, Limits, Server, ServerConfig};
use std::time::{Duration, Instant};

fn start(limits: Limits) -> Server {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 12,
        limits,
    })
    .expect("bind loopback")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr()).expect("connect")
}

fn small_sweep() -> SweepReq {
    SweepReq {
        base: ScenarioSpec {
            sample_steps: Some(16),
            ..ScenarioSpec::default()
        },
        axes: vec![AxisSpec::W(vec![8, 10, 12]), AxisSpec::Cluster(vec![1, 4])],
        chunk: Some(2),
        tag: Some("e2e".to_string()),
        ..SweepReq::default()
    }
}

#[test]
fn eval_list_and_stats_over_tcp() {
    let server = start(Limits::default());
    let mut client = connect(&server);

    let r = client.request(&Request::List).unwrap();
    assert!(r.ok);
    let catalog = r.find("catalog").expect("catalog event");
    assert!(catalog.get("experiments").and_then(Json::as_arr).is_some());

    let r = client
        .request(&Request::Eval(EvalReq {
            scenario: ScenarioSpec {
                w: Some(12),
                sample_steps: Some(16),
                ..ScenarioSpec::default()
            },
            tag: Some("probe".to_string()),
        }))
        .unwrap();
    assert!(r.ok);
    let result = r.find("result").expect("result event");
    assert_eq!(result.get("kind").and_then(Json::as_str), Some("eval"));
    assert_eq!(result.get("tag").and_then(Json::as_str), Some("probe"));
    assert!(result.get("cycles").and_then(Json::as_f64).unwrap() > 0.0);

    let r = client.request(&Request::Stats).unwrap();
    assert!(r.ok);
    let stats = r.find("stats").expect("stats event");
    assert!(stats.get("requests").and_then(Json::as_f64).unwrap() >= 2.0);
}

#[test]
fn malformed_line_is_an_error_and_the_connection_survives() {
    let server = start(Limits::default());
    let mut client = connect(&server);

    client.send_line("this is not json").unwrap();
    let r = client.collect_response().unwrap();
    assert!(!r.ok);
    assert_eq!(r.error().unwrap().0, "parse");

    client
        .send_line(r#"{"req":"sweep","axes":[{"axis":"nope","values":[1]}]}"#)
        .unwrap();
    let r = client.collect_response().unwrap();
    assert!(!r.ok);
    assert_eq!(r.error().unwrap().0, "bad_request");

    // Schedule masks that do not fit the default 12-layer ResNet-18 are
    // refused before admission with the schedule error — no sweep starts.
    for line in [
        r#"{"req":"search","axes":[{"axis":"schedule_mask","layers":5}],"max_evals":16,"initial":8,"rungs":1}"#,
        r#"{"req":"sweep","axes":[{"axis":"schedule_mask","layers":3}]}"#,
    ] {
        client.send_line(line).unwrap();
        let r = client.collect_response().unwrap();
        assert!(!r.ok, "{line}");
        let (code, message) = r.error().unwrap();
        assert_eq!(code, "bad_request", "{line}: {message}");
        assert!(message.contains("one precision per layer"), "{message}");
        assert!(r.find("sweep_started").is_none(), "{line} started a sweep");
    }

    // Geometry no design can be priced at is refused the same way: a
    // cluster size that does not divide the 32-IPU small tile, a zero
    // FIFO depth, zero tiles or so many that `n_tiles × k_unroll` wraps,
    // a degenerate synthetic stack, a workload whose MAC count overflows
    // — in an eval's scenario or on a sweep axis.
    for (line, reason) in [
        (
            r#"{"req":"eval","scenario":{"tile":"small","cluster":5}}"#,
            "cluster size 5",
        ),
        (
            r#"{"req":"eval","scenario":{"buffer_depth":0}}"#,
            "buffer depth",
        ),
        (r#"{"req":"eval","scenario":{"n_tiles":0}}"#, "n_tiles"),
        (
            r#"{"req":"sweep","axes":[{"axis":"cluster","values":[3]}]}"#,
            "cluster size 3",
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"n_tiles","values":[0]}]}"#,
            "n_tiles",
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"buffer_depth","values":[0]}]}"#,
            "buffer depth",
        ),
        (
            r#"{"req":"eval","scenario":{"workload":{"synthetic":[0,14,2]}}}"#,
            "synthetic stack",
        ),
        (
            r#"{"req":"eval","scenario":{"w":8,"workload":{"synthetic":[100000,100000,100000]}}}"#,
            "MACs",
        ),
        (
            r#"{"req":"eval","scenario":{"w":8,"n_tiles":2305843009213693952}}"#,
            "n_tiles",
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"workload","values":[{"synthetic":[64,14,0]}]}]}"#,
            "synthetic stack",
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"workload","values":[{"synthetic":[100000,100000,100000]}]}]}"#,
            "MACs",
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"n_tiles","values":[1,2305843009213693952]}]}"#,
            "n_tiles",
        ),
    ] {
        client.send_line(line).unwrap();
        let r = client.collect_response().unwrap();
        assert!(!r.ok, "{line}");
        let (code, message) = r.error().unwrap();
        assert_eq!(code, "bad_request", "{line}: {message}");
        assert!(message.contains(reason), "{line}: {message}");
        assert!(r.find("sweep_started").is_none(), "{line} started a sweep");
    }

    // A search cancelled inside its first rung reports the stop, not a
    // handler panic.
    client
        .send_line(r#"{"req":"search","axes":[{"axis":"schedule_mask","layers":12}],"max_evals":640,"initial":512,"max_ms":1}"#)
        .unwrap();
    let r = client.collect_response().unwrap();
    let code = r.error().map(|(code, _)| code);
    assert_ne!(code.as_deref(), Some("internal"), "{:?}", r.lines);

    // Same connection still serves real requests, sweeps included.
    let r = client.request(&Request::List).unwrap();
    assert!(r.ok, "connection survives malformed lines");
    let r = client.request(&Request::Sweep(small_sweep())).unwrap();
    assert!(
        r.ok,
        "a sweep after the hostile lines completes: {:?}",
        r.lines
    );
}

#[test]
fn served_sweep_is_byte_identical_to_the_in_process_engine() {
    let server = start(Limits {
        engine_threads: 4,
        ..Limits::default()
    });
    let req = small_sweep();
    let mut client = connect(&server);
    let r = client.request(&Request::Sweep(req.clone())).unwrap();
    assert!(r.ok, "{:?}", r.lines);
    let served = r.result_line().expect("result line");
    for threads in [1, 8] {
        let reference = reference_sweep_result(&req, threads)
            .unwrap()
            .to_string_compact();
        assert_eq!(served, reference, "threads={threads}");
    }
    // The demo preset too — a larger space exercising the slab path.
    let demo = presets::demo_sweep();
    let r = client.request(&Request::Sweep(demo.clone())).unwrap();
    assert!(r.ok);
    assert_eq!(
        r.result_line().unwrap(),
        reference_sweep_result(&demo, 3)
            .unwrap()
            .to_string_compact()
    );
}

#[test]
fn served_search_is_byte_identical_and_admitted_on_evals_not_space() {
    // A space 2000x over the server's point budget: a sweep would be
    // rejected, but the guided search is admitted on its evaluation
    // budget and must serve the same bytes the in-process engine
    // produces at any thread count.
    let server = start(Limits {
        engine_threads: 4,
        max_points: 400,
        ..Limits::default()
    });
    let req = mpipu_serve::request::SearchReq {
        initial: Some(48),
        rungs: Some(4),
        max_evals: Some(256),
        ..presets::schedule_search(20)
    };
    assert!(req.space_points() > 2000 * 400);
    let mut client = connect(&server);
    let r = client.request(&Request::Search(req.clone())).unwrap();
    assert!(r.ok, "{:?}", r.lines);
    let served = r.result_line().expect("result line");
    let served_json = Json::parse(served).unwrap();
    assert_eq!(
        served_json.get("kind").and_then(Json::as_str),
        Some("search")
    );
    assert_eq!(
        served_json.get("space_points").and_then(Json::as_f64),
        Some((1u64 << 20) as f64)
    );
    assert!(served_json.get("evaluated").and_then(Json::as_f64).unwrap() <= 256.0);
    assert!(
        served_json
            .get("frontier_size")
            .and_then(Json::as_f64)
            .unwrap()
            >= 1.0
    );
    for threads in [1, 8] {
        let reference = reference_search_result(&req, threads)
            .unwrap()
            .to_string_compact();
        assert_eq!(served, reference, "threads={threads}");
    }
    let m = server.service().metrics();
    assert_eq!(m.searches, 1);
    assert!(m.points_searched > 0);
}

#[test]
fn eight_concurrent_clients_all_finish_with_fair_progress() {
    let server = start(Limits {
        engine_threads: 2,
        ..Limits::default()
    });
    let addr = server.local_addr();
    // One big sampled sweep plus seven small sweeps: fair-share
    // scheduling must let every small sweep finish while the big one is
    // still running. The big sweep's size comes from its point count (a
    // 100,000-point draw from a 126,480-point grid in small chunks), not
    // from slow points, so it outlasts the small ones on any evaluation
    // path.
    let mut big = SweepReq {
        sample: Some(mpipu_serve::request::SampleSpec {
            count: 100_000,
            seed: 9,
        }),
        chunk: Some(8),
        tag: Some("big".to_string()),
        ..presets::frontier_sweep(0.02)
    };
    for axis in &mut big.axes {
        if let AxisSpec::SoftwarePrecision(v) = axis {
            *v = (12..=28).collect();
        }
    }
    let small = small_sweep();
    std::thread::scope(|s| {
        let big_done = s.spawn(move || {
            let mut client = Client::connect(addr).expect("connect big");
            let t = Instant::now();
            let r = client.request(&Request::Sweep(big)).expect("big sweep");
            assert!(r.ok, "{:?}", r.error());
            (t.elapsed(), Instant::now())
        });
        // Give the big sweep a head start so it occupies the engine.
        std::thread::sleep(Duration::from_millis(50));
        let mut small_times = Vec::new();
        for handle in (0..7)
            .map(|i| {
                let req = SweepReq {
                    tag: Some(format!("small-{i}")),
                    ..small.clone()
                };
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect small");
                    let t = Instant::now();
                    let r = client.request(&Request::Sweep(req)).expect("small sweep");
                    assert!(r.ok, "{:?}", r.error());
                    (t.elapsed(), Instant::now())
                })
            })
            .collect::<Vec<_>>()
        {
            small_times.push(handle.join().expect("small client"));
        }
        let (big_time, big_end) = big_done.join().expect("big client");
        // Starvation check: every small sweep (6 points) finished well
        // before the big sampled sweep (100,000 points).
        for (t, _) in &small_times {
            assert!(
                *t < big_time,
                "small sweep took {t:?}, big took {big_time:?} — small sweeps were starved"
            );
        }
        // The check above means something only if the big sweep was
        // still running when the small ones finished.
        for (_, end) in &small_times {
            assert!(
                *end < big_end,
                "the big sweep finished {:?} before a small sweep did",
                *end - big_end
            );
        }
    });
    assert_eq!(server.service().metrics().sweeps, 8);
    assert_eq!(server.service().metrics().sweeps_cancelled, 0);
}

#[test]
fn client_disconnect_cancels_the_sweep() {
    let server = start(Limits {
        engine_threads: 1,
        ..Limits::default()
    });
    {
        let mut client = connect(&server);
        // A slow scalar sweep with tiny chunks and an update every point:
        // the server writes constantly, so the dropped socket surfaces as
        // a failed write almost immediately.
        let req = SweepReq {
            sample: Some(mpipu_serve::request::SampleSpec {
                count: 50_000,
                seed: 1,
            }),
            chunk: Some(4),
            progress_every: Some(1),
            ..presets::frontier_sweep(0.02)
        };
        client.send(&Request::Sweep(req)).unwrap();
        // Read a couple of events to make sure the sweep is running,
        // then vanish without reading the rest.
        let _ = client.next_event().unwrap();
        let _ = client.next_event().unwrap();
    } // client dropped: socket closes
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = server.service().metrics();
        if m.sweeps_cancelled == 1 {
            assert_eq!(m.active_sweeps, 0, "cancelled sweep released admission");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sweep was not cancelled after disconnect: {m:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn second_identical_sweep_is_served_from_the_shared_cache() {
    let server = start(Limits::default());
    let req = Request::Sweep(small_sweep());

    let mut first = connect(&server);
    let r1 = first.request(&req).unwrap();
    assert!(r1.ok);
    let misses = |r: &mpipu_serve::Response| {
        r.find("sweep_backend_stats")
            .expect("backend stats delta")
            .get("misses")
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert!(misses(&r1) > 0.0, "cold sweep misses");

    // A *different* client: the cache is process-wide, not per-conn.
    let mut second = connect(&server);
    let r2 = second.request(&req).unwrap();
    assert!(r2.ok);
    assert_eq!(misses(&r2), 0.0, "warm sweep is all hits");
    assert_eq!(
        r1.result_line().unwrap(),
        r2.result_line().unwrap(),
        "cache reuse does not change results"
    );
}

#[test]
fn budget_rejection_and_wall_clock_deadline() {
    let server = start(Limits {
        max_points: 5,
        ..Limits::default()
    });
    let mut client = connect(&server);
    let r = client.request(&Request::Sweep(small_sweep())).unwrap();
    assert!(!r.ok);
    assert_eq!(r.error().unwrap().0, "budget");

    // An immediately-expired per-request deadline cancels.
    let req = SweepReq {
        max_ms: Some(0),
        axes: vec![AxisSpec::W(vec![8])],
        ..small_sweep()
    };
    let r = client.request(&Request::Sweep(req)).unwrap();
    assert!(!r.ok);
    assert_eq!(r.error().unwrap().0, "cancelled");
}

#[test]
fn shutdown_drains_the_in_flight_request() {
    let server = start(Limits {
        engine_threads: 2,
        ..Limits::default()
    });
    let mut client = connect(&server);
    client.send(&Request::Sweep(small_sweep())).unwrap();
    // Let the worker pick the request up, then shut down mid-serve.
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    let r = client.collect_response().expect("drained response");
    assert!(
        r.ok,
        "in-flight request completed during drain: {:?}",
        r.lines
    );
    assert!(r.result_line().is_some());
    server.join();
}
