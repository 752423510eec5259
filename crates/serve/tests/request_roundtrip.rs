//! Property test: `Request::parse(req.to_line()) == req` for every
//! request variant, plus directed coverage that malformed and truncated
//! lines always become structured errors — never panics.
//!
//! The generator mirrors the canonicalization rules of the wire schema:
//! distribution parameters are finite floats (the JSON writer
//! round-trips finite `f64` exactly), axes are non-empty (the parser
//! rejects empty ones), and objective names come from the catalog.
//!
//! The canonical bytes themselves are pinned by a golden file
//! (`tests/golden/wire_requests.jsonl`): the presets plus one maximal
//! request per kind, so a codec change that alters any emitted byte —
//! and with it the canonical request line a journal resume compares —
//! fails here.

use mpipu_serve::presets;
use mpipu_serve::request::{
    AxisSpec, DistSpec, ErrorCode, EvalReq, PassSel, Request, SampleSpec, ScenarioSpec, SearchReq,
    SweepReq, TileSel, TopKSpec, WorkloadSpec, ZooSel,
};
use proptest::prelude::*;

/// Every objective name the wire accepts, in catalog order.
fn objective_names() -> Vec<&'static str> {
    mpipu_explore::objectives::ALL
        .iter()
        .map(|o| o.name)
        .collect()
}

/// splitmix64 — a small deterministic stream for structural choices.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A strictly positive finite float (distribution parameters).
fn positive_f64(state: &mut u64) -> f64 {
    let mantissa = (next(state) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let exp = ((next(state) % 41) as i32) - 20; // 2^-20 ..= 2^20
    (mantissa + 0.5) * (exp as f64).exp2()
}

fn maybe<T>(state: &mut u64, value: impl FnOnce(&mut u64) -> T) -> Option<T> {
    next(state).is_multiple_of(2).then(|| value(state))
}

fn arbitrary_tile(state: &mut u64) -> TileSel {
    if next(state).is_multiple_of(2) {
        TileSel::Small
    } else {
        TileSel::Big
    }
}

fn arbitrary_pass(state: &mut u64) -> PassSel {
    if next(state).is_multiple_of(2) {
        PassSel::Fwd
    } else {
        PassSel::Bwd
    }
}

fn arbitrary_zoo(state: &mut u64) -> ZooSel {
    match next(state) % 3 {
        0 => ZooSel::Resnet18,
        1 => ZooSel::Resnet50,
        _ => ZooSel::Inceptionv3,
    }
}

fn arbitrary_workload(state: &mut u64) -> WorkloadSpec {
    if next(state).is_multiple_of(2) {
        WorkloadSpec::Zoo(arbitrary_zoo(state))
    } else {
        WorkloadSpec::Synthetic(
            1 + (next(state) % 64) as usize,
            1 + (next(state) % 32) as usize,
            1 + (next(state) % 8) as usize,
        )
    }
}

fn arbitrary_dist(state: &mut u64) -> DistSpec {
    match next(state) % 7 {
        0 => DistSpec::Uniform {
            scale: positive_f64(state),
        },
        1 => DistSpec::Normal {
            std: positive_f64(state),
        },
        2 => DistSpec::Laplace {
            b: positive_f64(state),
        },
        3 => DistSpec::Resnet18,
        4 => DistSpec::Resnet50,
        5 => DistSpec::Backward,
        _ => DistSpec::Weight,
    }
}

fn arbitrary_tag(state: &mut u64) -> String {
    const ALPHABET: [char; 12] = [
        'a', 'Z', '9', ' ', '"', '\\', '\n', '\t', '/', 'é', '李', '🦀',
    ];
    let len = 1 + (next(state) % 10) as usize;
    (0..len)
        .map(|_| ALPHABET[(next(state) % ALPHABET.len() as u64) as usize])
        .collect()
}

fn arbitrary_scenario(state: &mut u64) -> ScenarioSpec {
    ScenarioSpec {
        tile: maybe(state, arbitrary_tile),
        w: maybe(state, |s| 1 + (next(s) % 64) as u32),
        software_precision: maybe(state, |s| 8 + (next(s) % 24) as u32),
        cluster: maybe(state, |s| 1 + (next(s) % 16) as usize),
        buffer_depth: maybe(state, |s| 1 + (next(s) % 8) as usize),
        n_tiles: maybe(state, |s| 1 + (next(s) % 8) as usize),
        workload: maybe(state, arbitrary_workload),
        pass: maybe(state, arbitrary_pass),
        dists: maybe(state, |s| (arbitrary_dist(s), arbitrary_dist(s))),
        seed: maybe(state, next),
        sample_steps: maybe(state, |s| 1 + (next(s) % 256) as usize),
    }
}

fn nonempty<T>(state: &mut u64, max: u64, f: impl Fn(&mut u64) -> T) -> Vec<T> {
    let n = 1 + (next(state) % max) as usize;
    (0..n).map(|_| f(state)).collect()
}

fn arbitrary_axis(state: &mut u64) -> AxisSpec {
    match next(state) % 9 {
        0 => AxisSpec::W(nonempty(state, 5, |s| 1 + (next(s) % 64) as u32)),
        1 => AxisSpec::SoftwarePrecision(nonempty(state, 3, |s| 8 + (next(s) % 24) as u32)),
        2 => AxisSpec::Cluster(nonempty(state, 4, |s| 1 + (next(s) % 16) as usize)),
        3 => AxisSpec::BufferDepth(nonempty(state, 3, |s| 1 + (next(s) % 8) as usize)),
        4 => AxisSpec::NTiles(nonempty(state, 3, |s| 1 + (next(s) % 8) as usize)),
        5 => AxisSpec::Tile(nonempty(state, 2, arbitrary_tile)),
        6 => AxisSpec::Workload(nonempty(state, 3, arbitrary_workload)),
        7 => AxisSpec::Pass(nonempty(state, 2, arbitrary_pass)),
        _ => AxisSpec::Dists(nonempty(state, 3, |s| {
            (arbitrary_dist(s), arbitrary_dist(s))
        })),
    }
}

fn arbitrary_objectives(state: &mut u64) -> Vec<String> {
    let names = objective_names();
    nonempty(state, 4, |s| {
        names[(next(s) % names.len() as u64) as usize].to_string()
    })
}

fn arbitrary_request(state: &mut u64) -> Request {
    match next(state) % 4 {
        0 => Request::List,
        1 => Request::Stats,
        2 => Request::Eval(EvalReq {
            scenario: arbitrary_scenario(state),
            tag: maybe(state, arbitrary_tag),
        }),
        _ => Request::Sweep(SweepReq {
            base: arbitrary_scenario(state),
            axes: (0..(next(state) % 4) as usize)
                .map(|_| arbitrary_axis(state))
                .collect(),
            objectives: arbitrary_objectives(state),
            top_k: maybe(state, |s| TopKSpec {
                objective: objective_names()[(next(s) % objective_names().len() as u64) as usize]
                    .to_string(),
                k: 1 + (next(s) % 16) as usize,
            }),
            sample: maybe(state, |s| SampleSpec {
                count: 1 + (next(s) % 4096) as usize,
                seed: next(s),
            }),
            max_points: maybe(state, next),
            max_ms: maybe(state, next),
            chunk: maybe(state, |s| 1 + (next(s) % 4096) as usize),
            progress_every: maybe(state, next),
            tag: maybe(state, arbitrary_tag),
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn every_request_round_trips(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let req = arbitrary_request(&mut state);
        let line = req.to_line();
        let back = Request::parse(&line);
        prop_assert_eq!(back.as_ref(), Ok(&req), "line {}", line);
        // The canonical form is a fixed point: re-emitting the parsed
        // request reproduces the same bytes.
        prop_assert_eq!(back.unwrap().to_line(), line);
    }

    #[test]
    fn truncated_lines_never_panic(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let line = arbitrary_request(&mut state).to_line();
        // Every prefix (cutting at char boundaries) parses to a
        // structured error or — never — a panic. Only the full line may
        // succeed.
        for (cut, _) in line.char_indices() {
            let prefix = &line[..cut];
            let err = Request::parse(prefix)
                .expect_err("a strict prefix of a JSON object cannot parse");
            prop_assert!(
                matches!(err.code, ErrorCode::Parse | ErrorCode::BadRequest),
                "prefix {:?} gave {:?}", prefix, err
            );
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let len = (next(&mut state) % 64) as usize;
        let garbage: String = (0..len)
            .map(|_| char::from_u32((next(&mut state) % 0xFF) as u32 + 1).unwrap_or('?'))
            .collect();
        // Parse may succeed only if the garbage happens to be a valid
        // request (vanishingly unlikely); it must never panic.
        let _ = Request::parse(&garbage);
    }
}

#[test]
fn directed_malformed_lines_are_structured_errors() {
    let cases: [(&str, ErrorCode); 86] = [
        ("", ErrorCode::Parse),
        ("{", ErrorCode::Parse),
        (
            r#"{"req":"sweep","axes":[{"axis":"w","values":[1,2"#,
            ErrorCode::Parse,
        ),
        (r#"{"req":"evaluate"}"#, ErrorCode::Parse),
        (
            r#"{"req":"eval","scenario":{"w":-3}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"w":3.5}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","top_k":{"objective":"cycles","k":0}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","sample":{"count":0}}"#,
            ErrorCode::BadRequest,
        ),
        // An unknown key at every nesting level.
        (r#"{"req":"list","x":1}"#, ErrorCode::BadRequest),
        (r#"{"req":"stats","x":1}"#, ErrorCode::BadRequest),
        (r#"{"req":"eval","x":1}"#, ErrorCode::BadRequest),
        (r#"{"req":"sweep","x":1}"#, ErrorCode::BadRequest),
        (
            r#"{"req":"search","axes":[{"axis":"w","values":[8]}],"x":1}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"x":1}}"#,
            ErrorCode::BadRequest,
        ),
        (r#"{"req":"sweep","base":{"x":1}}"#, ErrorCode::BadRequest),
        (r#"{"req":"search","base":{"x":1}}"#, ErrorCode::BadRequest),
        (
            r#"{"req":"eval","scenario":{"workload":{"zoo":"resnet18","x":1}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":{"kind":"weight"},"wgt":{"kind":"weight"},"x":1}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":{"kind":"normal","std":1,"x":1},"wgt":{"kind":"weight"}}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":{"kind":"weight","std":1},"wgt":{"kind":"weight"}}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":{"kind":"normal","b":1},"wgt":{"kind":"weight"}}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"w","values":[8],"x":1}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"schedule_mask","layers":4,"values":[1]}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","top_k":{"objective":"cycles","k":1,"x":1}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","sample":{"count":1,"x":1}}"#,
            ErrorCode::BadRequest,
        ),
        // A non-object where an object belongs.
        (r#""just a string""#, ErrorCode::Parse),
        (r#"{}"#, ErrorCode::Parse),
        (r#"{"req":"eval","scenario":5}"#, ErrorCode::Parse),
        (r#"{"req":"sweep","base":[]}"#, ErrorCode::Parse),
        (
            r#"{"req":"search","axes":[{"axis":"w","values":[8]}],"base":true}"#,
            ErrorCode::Parse,
        ),
        (
            r#"{"req":"eval","scenario":{"workload":"resnet18"}}"#,
            ErrorCode::Parse,
        ),
        (r#"{"req":"eval","scenario":{"dists":5}}"#, ErrorCode::Parse),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":5,"wgt":{"kind":"weight"}}}}"#,
            ErrorCode::Parse,
        ),
        (r#"{"req":"sweep","axes":[5]}"#, ErrorCode::Parse),
        (r#"{"req":"sweep","top_k":5}"#, ErrorCode::Parse),
        (r#"{"req":"sweep","sample":"all"}"#, ErrorCode::Parse),
        (
            r#"{"req":"sweep","axes":[{"axis":"workload","values":[5]}]}"#,
            ErrorCode::Parse,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"dists","values":[[1]]}]}"#,
            ErrorCode::Parse,
        ),
        // A scalar of the wrong type, or a missing required field.
        (r#"{"req":5}"#, ErrorCode::BadRequest),
        (
            r#"{"req":"eval","scenario":{"w":"8"}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"tile":1}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"seed":1.5}}"#,
            ErrorCode::BadRequest,
        ),
        (r#"{"req":"eval","tag":5}"#, ErrorCode::BadRequest),
        (r#"{"req":"sweep","axes":{}}"#, ErrorCode::BadRequest),
        (
            r#"{"req":"sweep","objectives":"cycles"}"#,
            ErrorCode::BadRequest,
        ),
        (r#"{"req":"sweep","objectives":[1]}"#, ErrorCode::BadRequest),
        (r#"{"req":"sweep","objectives":[]}"#, ErrorCode::BadRequest),
        (r#"{"req":"sweep","max_ms":-1}"#, ErrorCode::BadRequest),
        (
            r#"{"req":"search","axes":[{"axis":"w","values":[8]}],"keep":"half"}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"search","axes":[{"axis":"w","values":[8]}],"initial":0}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"search","axes":[{"axis":"w","values":[8]}],"rungs":0}"#,
            ErrorCode::BadRequest,
        ),
        (r#"{"req":"search","axes":[]}"#, ErrorCode::BadRequest),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":{"kind":"normal","std":"1"},"wgt":{"kind":"weight"}}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":{"kind":"uniform","scale":1e999},"wgt":{"kind":"weight"}}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":{"std":1},"wgt":{"kind":"weight"}}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":{"kind":"weight"}}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"workload":{"synthetic":[1,2]}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"workload":{"synthetic":[1,2,"3"]}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"workload":{"zoo":"resnet18","synthetic":[1,2,3]}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"workload":{}}}"#,
            ErrorCode::BadRequest,
        ),
        (r#"{"req":"sweep","top_k":{"k":1}}"#, ErrorCode::BadRequest),
        (
            r#"{"req":"sweep","sample":{"seed":1}}"#,
            ErrorCode::BadRequest,
        ),
        // A u32 field past u32::MAX.
        (
            r#"{"req":"eval","scenario":{"w":4294967296}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"software_precision","values":[4294967296]}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"schedule_mask","layers":4294967296}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"w","grid":[8,4294967296,1]}]}"#,
            ErrorCode::BadRequest,
        ),
        // An unknown label in every label set.
        (
            r#"{"req":"eval","scenario":{"pass":"sideways"}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"workload":{"zoo":"vgg16"}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":{"kind":"cauchy"},"wgt":{"kind":"weight"}}}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":"sideways"}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"tile","values":["huge"]}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"pass","values":["up"]}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"depth","values":[1]}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","top_k":{"objective":"speed","k":1}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"search","axes":[{"axis":"w","values":[8]}],"objectives":["speed"]}"#,
            ErrorCode::BadRequest,
        ),
        // Range sugar and `layers` on the wrong axis, or malformed.
        (
            r#"{"req":"sweep","axes":[{"axis":"cluster","grid":[1,4,1]}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"w","log2":[1,8]}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"cluster","layers":3}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"w","values":[8],"grid":[8,12,2]}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"w","grid":[12,8,1]}]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","axes":[{"axis":"cluster","log2":[3,8]}]}"#,
            ErrorCode::BadRequest,
        ),
        // The first error in the parser's reading order decides the code.
        (
            r#"{"req":"sweep","base":5,"objectives":[]}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"sweep","base":5,"top_k":{"objective":"cycles","k":0}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"search","axes":[{"axis":"w","values":[8]}],"base":5,"keep":2}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"req":"eval","scenario":{"dists":{"act":5}}}"#,
            ErrorCode::BadRequest,
        ),
        (r#"{"req":"sweep","base":5,"x":1}"#, ErrorCode::BadRequest),
    ];
    for (line, code) in cases {
        let err = Request::parse(line).expect_err(line);
        assert_eq!(err.code, code, "line {line}: {}", err.message);
    }
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/wire_requests.jsonl"
);

/// A scenario with every field set.
fn full_scenario() -> ScenarioSpec {
    ScenarioSpec {
        tile: Some(TileSel::Big),
        w: Some(12),
        software_precision: Some(20),
        cluster: Some(4),
        buffer_depth: Some(8),
        n_tiles: Some(2),
        workload: Some(WorkloadSpec::Synthetic(64, 14, 3)),
        pass: Some(PassSel::Bwd),
        dists: Some((
            DistSpec::Uniform { scale: 3.0 },
            DistSpec::Laplace { b: 0.1 },
        )),
        seed: Some(u64::MAX),
        sample_steps: Some(48),
    }
}

/// Every axis kind, every distribution kind, every zoo model.
fn every_axis() -> Vec<AxisSpec> {
    vec![
        AxisSpec::Tile(vec![TileSel::Small, TileSel::Big]),
        AxisSpec::W(vec![8, 12, 38]),
        AxisSpec::SoftwarePrecision(vec![16, 28]),
        AxisSpec::Cluster(vec![1, 2, 4]),
        AxisSpec::BufferDepth(vec![2, 4]),
        AxisSpec::NTiles(vec![1, 8]),
        AxisSpec::Workload(vec![
            WorkloadSpec::Zoo(ZooSel::Resnet18),
            WorkloadSpec::Zoo(ZooSel::Resnet50),
            WorkloadSpec::Zoo(ZooSel::Inceptionv3),
            WorkloadSpec::Synthetic(16, 8, 9),
        ]),
        AxisSpec::Pass(vec![PassSel::Fwd, PassSel::Bwd]),
        AxisSpec::Dists(vec![
            (
                DistSpec::Uniform { scale: 2.5 },
                DistSpec::Normal { std: 1e-3 },
            ),
            (DistSpec::Laplace { b: 7.0 }, DistSpec::Resnet18),
            (DistSpec::Resnet50, DistSpec::Backward),
            (DistSpec::Weight, DistSpec::Weight),
        ]),
        AxisSpec::ScheduleMask(10),
    ]
}

/// The presets plus one maximal request of every kind, one canonical
/// line each.
fn specimen_lines() -> String {
    let tag = || Some("max \"tag\" \\ é 🦀".to_string());
    let reqs = [
        Request::List,
        Request::Stats,
        Request::Eval(EvalReq {
            scenario: full_scenario(),
            tag: tag(),
        }),
        Request::Sweep(SweepReq {
            base: full_scenario(),
            axes: every_axis(),
            objectives: [
                "cycles",
                "fp_slowdown",
                "fp_fraction",
                "int_tops_per_mm2",
                "int_tops_per_w",
                "fp_tflops_per_mm2",
                "fp_tflops_per_w",
            ]
            .map(String::from)
            .to_vec(),
            top_k: Some(TopKSpec {
                objective: "int_tops_per_w".to_string(),
                k: 7,
            }),
            sample: Some(SampleSpec {
                count: 100,
                seed: 1 << 60,
            }),
            max_points: Some(u64::MAX),
            max_ms: Some(2500),
            chunk: Some(64),
            progress_every: Some(0),
            tag: tag(),
        }),
        Request::Search(SearchReq {
            base: full_scenario(),
            axes: every_axis(),
            objectives: vec!["cycles".to_string(), "fp_fraction".to_string()],
            initial: Some(48),
            rungs: Some(5),
            keep: Some(0.375),
            max_evals: Some(960),
            seed: Some(0xDEAD_BEEF),
            max_ms: Some(9000),
            chunk: Some(32),
            tag: tag(),
        }),
        Request::Sweep(presets::demo_sweep()),
        Request::Sweep(presets::frontier_sweep(0.02)),
        Request::Sweep(presets::cold_grid_sweep()),
        Request::Search(presets::schedule_search(27)),
    ];
    let mut out = String::new();
    for req in &reqs {
        out.push_str(&req.to_line());
        out.push('\n');
    }
    out
}

#[test]
fn canonical_lines_match_the_golden_file() {
    let got = specimen_lines();
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {GOLDEN_PATH}: {e}\n\
             (run the `bless` test below to create it)"
        )
    });
    assert!(
        got == golden,
        "canonical request bytes drifted from the golden file. Journals \
         written before the change no longer resume; if that is deliberate, \
         regenerate with `BLESS=1 cargo test -p mpipu-serve --test \
         request_roundtrip` and review the diff.\n\n--- golden ---\n{golden}\n--- got ---\n{got}"
    );
    // Every golden line parses and re-emits itself byte for byte.
    for line in golden.lines() {
        let req = Request::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(req.to_line(), line);
    }
}

/// Regenerates the golden file when `BLESS=1` is set; otherwise a no-op.
#[test]
fn bless() {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, specimen_lines()).expect("write golden file");
    }
}
