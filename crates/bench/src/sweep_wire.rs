//! The versioned [`SweepEvent`] → JSON wire form.
//!
//! One serialization, two consumers: the suite's `--events` JSONL stream
//! (via [`crate::events::Event::Sweep`]) and the `mpipu-serve` daemon's
//! client protocol both emit sweep progress through this module, so a
//! tool that parses one parses the other. The shape is pinned by a
//! golden-file test (`tests/sweep_wire_golden.rs`) and stamped with
//! [`SWEEP_WIRE_VERSION`] on every `sweep_started` line; changing a
//! field is a deliberate act — bump the version, re-bless the golden
//! file, review the diff.
//!
//! Determinism note: `sweep_started`, `sweep_chunk`, and the terminal
//! event's point counts are deterministic for a given sweep; `wall_ms`
//! and the backend cache counters are scheduling-dependent and must
//! never be folded into deterministic result payloads.

use crate::json::Json;
use mpipu_explore::SweepEvent;

/// Version stamp carried by every `sweep_started` line. Bump on any
/// field change, with a golden-file re-bless.
pub const SWEEP_WIRE_VERSION: u64 = 1;

/// The one shared `SweepEvent` serialization (see module docs).
pub fn sweep_event_json(event: &SweepEvent<'_>) -> Json {
    match *event {
        SweepEvent::Started {
            points,
            chunks,
            threads,
        } => Json::obj([
            ("event", Json::str("sweep_started")),
            ("wire_version", Json::from(SWEEP_WIRE_VERSION)),
            ("points", Json::from(points)),
            ("chunks", Json::from(chunks)),
            ("threads", Json::from(threads)),
        ]),
        SweepEvent::ChunkFinished {
            chunk,
            chunks,
            points_done,
            points,
        } => Json::obj([
            ("event", Json::str("sweep_chunk")),
            ("chunk", Json::from(chunk)),
            ("chunks", Json::from(chunks)),
            ("points_done", Json::from(points_done)),
            ("points", Json::from(points)),
        ]),
        SweepEvent::BackendStats {
            backend,
            inner,
            hits,
            misses,
            entries,
        } => Json::obj([
            ("event", Json::str("sweep_backend_stats")),
            ("backend", Json::str(backend)),
            ("inner", Json::str(inner)),
            ("hits", Json::from(hits)),
            ("misses", Json::from(misses)),
            ("entries", Json::from(entries)),
        ]),
        SweepEvent::Finished { points, wall } => Json::obj([
            ("event", Json::str("sweep_finished")),
            ("points", Json::from(points)),
            ("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)),
        ]),
        SweepEvent::Cancelled {
            points_done,
            points,
            wall,
        } => Json::obj([
            ("event", Json::str("sweep_cancelled")),
            ("points_done", Json::from(points_done)),
            ("points", Json::from(points)),
            ("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn every_event_serializes_to_one_parseable_line() {
        let events = [
            SweepEvent::Started {
                points: 8,
                chunks: 4,
                threads: 2,
            },
            SweepEvent::ChunkFinished {
                chunk: 0,
                chunks: 4,
                points_done: 2,
                points: 8,
            },
            SweepEvent::BackendStats {
                backend: "memoized",
                inner: "analytic",
                hits: 5,
                misses: 3,
                entries: 3,
            },
            SweepEvent::Finished {
                points: 8,
                wall: Duration::from_millis(2),
            },
            SweepEvent::Cancelled {
                points_done: 4,
                points: 8,
                wall: Duration::from_millis(1),
            },
        ];
        for e in &events {
            let line = sweep_event_json(e).to_string_compact();
            assert!(!line.contains('\n'), "{line:?}");
            assert!(Json::parse(&line).is_ok(), "unparseable line {line:?}");
        }
    }

    #[test]
    fn started_line_carries_the_wire_version() {
        let doc = sweep_event_json(&SweepEvent::Started {
            points: 1,
            chunks: 1,
            threads: 1,
        });
        assert_eq!(
            doc.get("wire_version").and_then(Json::as_f64),
            Some(SWEEP_WIRE_VERSION as f64)
        );
    }
}
