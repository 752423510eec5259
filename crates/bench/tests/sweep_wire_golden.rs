//! Golden-file test for the sweep-event wire schema.
//!
//! Both the suite's `--events` stream and the `mpipu-serve` daemon emit
//! sweep progress through [`mpipu_bench::sweep_wire`]; this test pins
//! the exact JSONL shape so wire changes are a deliberate act: change a
//! field → bump [`mpipu_bench::sweep_wire::SWEEP_WIRE_VERSION`] →
//! regenerate the golden file (see `bless` below) → review the diff.

use mpipu_bench::sweep_wire::{sweep_event_json, SWEEP_WIRE_VERSION};
use mpipu_explore::SweepEvent;
use std::time::Duration;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sweep_wire.jsonl");

/// One specimen of every wire event, with fixed durations so the output
/// is byte-stable.
fn specimen_lines() -> String {
    let events = [
        SweepEvent::Started {
            points: 14880,
            chunks: 15,
            threads: 4,
        },
        SweepEvent::ChunkFinished {
            chunk: 0,
            chunks: 15,
            points_done: 1024,
            points: 14880,
        },
        SweepEvent::BackendStats {
            backend: "memoized",
            inner: "analytic",
            hits: 13000,
            misses: 1880,
            entries: 1880,
        },
        SweepEvent::Finished {
            points: 14880,
            wall: Duration::from_micros(9250),
        },
        SweepEvent::Cancelled {
            points_done: 2048,
            points: 14880,
            wall: Duration::from_micros(1500),
        },
    ];
    let mut out = String::new();
    for e in &events {
        out.push_str(&sweep_event_json(e).to_string_compact());
        out.push('\n');
    }
    out
}

#[test]
fn sweep_wire_matches_golden_file() {
    let got = specimen_lines();
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {GOLDEN_PATH}: {e}\n\
             (run the `bless` test below to create it)"
        )
    });
    assert!(
        got == golden,
        "sweep wire format drifted from the golden file.\n\
         If this change is deliberate: bump SWEEP_WIRE_VERSION in \
         crates/bench/src/sweep_wire.rs, regenerate with\n\
         `BLESS=1 cargo test -p mpipu-bench --test sweep_wire_golden`, \
         and review the diff.\n\n--- golden ---\n{golden}\n--- got ---\n{got}"
    );
}

/// Regenerates the golden file when `BLESS=1` is set; otherwise a no-op.
#[test]
fn bless() {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, specimen_lines()).expect("write golden file");
    }
}

/// The golden file itself must carry the current wire version — a
/// version bump without regeneration (or vice versa) fails here.
#[test]
fn golden_file_matches_wire_version() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    assert!(
        golden.contains(&format!("\"wire_version\":{SWEEP_WIRE_VERSION}")),
        "golden file wire_version != SWEEP_WIRE_VERSION ({SWEEP_WIRE_VERSION})"
    );
}
