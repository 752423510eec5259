//! The sweep journal: an append-only JSONL file making sharded sweeps
//! durable and exactly resumable.
//!
//! Layout (schema [`JOURNAL_VERSION`]):
//!
//! * **Line 1 — header.** Identifies the journal, pins the schema
//!   version, and fingerprints the sweep it belongs to: the canonical
//!   sweep request line ([`crate::request::Request::to_line`] — the
//!   round-trip-stable wire form) plus the unit partition
//!   (`unit_points`, `total_points`, `units`). Resume refuses a journal
//!   whose fingerprint does not match the requested sweep — a journal
//!   is only ever replayed into the exact partition that wrote it.
//! * **One line per completed unit.** The unit's id range, its finished
//!   Pareto/top-k fold snapshots, its cache-counter delta, and the
//!   memo-cache entries it computed (seed-blind backends only — those
//!   entries answer every future query for the same design point).
//!
//! **Every `f64` is journaled as its bit pattern** (a JSON unsigned
//! integer — exact through [`mpipu_bench::json`]'s `u64` round trip),
//! never as a decimal float: a resumed merge must reproduce the
//! uninterrupted result *byte-identically*, so values cross the disk
//! boundary bit-exact by construction rather than by formatting
//! convention. Point labels are not journaled at all — they are a pure
//! function of the design id and the request's parameter space, and the
//! coordinator rebuilds them at merge time.
//!
//! Durability model: the writer flushes after every line, and the
//! reader accepts a torn **final** line (a coordinator killed mid-write
//! loses at most the unit being appended — it re-runs on resume).
//! Corruption anywhere earlier is an error, not a skip.

use crate::codec::{self, expected, str_at, Fields, Obj, Wire};
use crate::request::WireError;
use mpipu_bench::json::Json;
use mpipu_sim::{CacheKey, CACHE_KEY_WORDS};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Journal schema version (the header's `version` field).
pub const JOURNAL_VERSION: u64 = 1;

/// The magic `journal` field value identifying our files.
const JOURNAL_MAGIC: &str = "mpipu-sweep";

/// The journal's identity line: which sweep, which partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// The canonical sweep request line the journal belongs to.
    pub request_line: String,
    /// Points per work unit (the partition granularity).
    pub unit_points: u64,
    /// Total points in the swept space.
    pub total_points: u64,
    /// Unit count (`ceil(total_points / unit_points)`).
    pub units: u64,
}

/// A fold-snapshot point: design id plus the objective values as `f64`
/// bit patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotPoint {
    /// Design id in the swept space.
    pub id: u64,
    /// Objective values, `f64::to_bits`, in the fold's objective order.
    pub bits: Vec<u64>,
}

/// One completed unit: fold snapshots plus the memo entries it added.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    /// Canonical unit index.
    pub unit: u64,
    /// First design id of the unit.
    pub lo: u64,
    /// One past the last design id.
    pub hi: u64,
    /// The unit's finished Pareto frontier (sorted by id).
    pub front: Vec<SnapshotPoint>,
    /// The unit's finished top-k selection (best first), when the sweep
    /// has one.
    pub top: Option<Vec<SnapshotPoint>>,
    /// Cache hits the unit's evaluation observed.
    pub hits: u64,
    /// Cache misses (points actually computed).
    pub misses: u64,
    /// Seed-blind memo-cache entries the unit computed.
    pub memo: Vec<(CacheKey, f64)>,
}

impl Wire for SnapshotPoint {
    /// `[id, bits…]`.
    fn write(&self) -> Json {
        let row = std::iter::once(self.id).chain(self.bits.iter().copied());
        Json::Arr(row.map(Json::from).collect())
    }

    fn read(j: &Json, at: codec::Path<'_>) -> Result<SnapshotPoint, WireError> {
        match Vec::<u64>::read(j, at)?.split_first() {
            Some((&id, bits)) => Ok(SnapshotPoint {
                id,
                bits: bits.to_vec(),
            }),
            None => Err(expected(at, "a non-empty array")),
        }
    }
}

/// A memo entry's row: `[backend name, key words…, value bits]`.
fn memo_row((key, value): &(CacheKey, f64)) -> Json {
    let words = key.to_words().into_iter().chain([value.to_bits()]);
    let row = std::iter::once(Json::str(key.backend_name())).chain(words.map(Json::from));
    Json::Arr(row.collect())
}

/// Read a memo row; `None` for a backend this build does not know (a
/// newer producer's entry: skipped, since a warm start is an
/// optimization, not a correctness input).
fn read_memo_row(j: &Json, at: codec::Path<'_>) -> Result<Option<(CacheKey, f64)>, WireError> {
    let Some((name, words)) = j.as_arr().and_then(<[Json]>::split_first) else {
        return Err(expected(at, "a non-empty array"));
    };
    let words: Vec<u64> = words
        .iter()
        .map(|w| u64::read(w, at))
        .collect::<Result<_, _>>()?;
    if words.len() != CACHE_KEY_WORDS + 1 {
        return Err(expected(
            at,
            &format!("a backend and {} words", CACHE_KEY_WORDS + 1),
        ));
    }
    let value = f64::from_bits(words[CACHE_KEY_WORDS]);
    Ok(CacheKey::from_words(str_at(name, at)?, &words[..CACHE_KEY_WORDS]).map(|key| (key, value)))
}

/// The header's wire line.
pub fn header_json(h: &JournalHeader) -> Json {
    Fields::default()
        .put("journal", JOURNAL_MAGIC)
        .put("version", &JOURNAL_VERSION)
        .put("request", &h.request_line)
        .put("unit_points", &h.unit_points)
        .put("total_points", &h.total_points)
        .put("units", &h.units)
        .into()
}

fn parse_header(j: &Json) -> Result<JournalHeader, String> {
    if j.get("journal").and_then(Json::as_str) != Some(JOURNAL_MAGIC) {
        return Err("not a mpipu-sweep journal (bad magic)".to_string());
    }
    let version = match j.get("version") {
        Some(Json::UInt(v)) => Some(*v),
        _ => None,
    };
    if version != Some(JOURNAL_VERSION) {
        return Err(format!(
            "unsupported journal version {version:?} (expected {JOURNAL_VERSION})"
        ));
    }
    let read = || -> Result<JournalHeader, WireError> {
        let o = Obj::any(j, codec::Path::Root("journal header"))?;
        Ok(JournalHeader {
            request_line: o.req("request")?,
            unit_points: o.req("unit_points")?,
            total_points: o.req("total_points")?,
            units: o.req("units")?,
        })
    };
    read().map_err(|e| e.message)
}

/// One unit's wire line.
pub fn unit_json(r: &UnitRecord) -> Json {
    unit_json_after(Fields::default(), r)
}

/// [`unit_json`] with `head` first (the worker wire's `event` tag).
pub(crate) fn unit_json_after(head: Fields, r: &UnitRecord) -> Json {
    let fields = head
        .put("unit", &r.unit)
        .put("lo", &r.lo)
        .put("hi", &r.hi)
        .put("front", &r.front)
        .opt("top", &r.top)
        .put("hits", &r.hits)
        .put("misses", &r.misses);
    if r.memo.is_empty() {
        return fields.into();
    }
    let rows = r.memo.iter().map(memo_row).collect();
    fields.json("memo", Json::Arr(rows)).into()
}

/// Parse a unit record object (the journal line form; extra fields such
/// as the worker wire's `event` tag are ignored).
pub fn unit_record_from_json(j: &Json) -> Result<UnitRecord, String> {
    let read = || -> Result<UnitRecord, WireError> {
        let o = Obj::any(j, codec::Path::Root("unit record"))?;
        let mut memo = Vec::new();
        if let Some(rows) = o.raw("memo") {
            let at = codec::Path::Root("unit record").key("memo");
            for row in rows.as_arr().ok_or_else(|| expected(at, "an array"))? {
                memo.extend(read_memo_row(row, at)?);
            }
        }
        Ok(UnitRecord {
            unit: o.req("unit")?,
            lo: o.req("lo")?,
            hi: o.req("hi")?,
            front: o.opt("front")?.unwrap_or_default(),
            top: o.opt("top")?,
            hits: o.req("hits")?,
            misses: o.req("misses")?,
            memo,
        })
    };
    read().map_err(|e| e.message)
}

/// Append-only journal writer; every line is flushed before the call
/// returns, so a completed unit survives a coordinator kill.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Create (truncate) a fresh journal and write its header.
    pub fn create(path: &Path, header: &JournalHeader) -> std::io::Result<JournalWriter> {
        let mut w = JournalWriter {
            out: BufWriter::new(File::create(path)?),
        };
        w.append(&header_json(header))?;
        Ok(w)
    }

    /// Reopen an existing journal for appending (resume). The caller
    /// has already validated the header via [`read_journal`]. A torn
    /// final line (the signature of a kill mid-append) is truncated
    /// away first — [`read_journal`] never counted it, and appending
    /// after the fragment would otherwise glue two lines into garbage.
    pub fn open_append(path: &Path) -> std::io::Result<JournalWriter> {
        let bytes = std::fs::read(path)?;
        if !bytes.is_empty() && !bytes.ends_with(b"\n") {
            let keep = bytes
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|i| i + 1)
                .unwrap_or(0);
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(keep as u64)?;
        }
        Ok(JournalWriter {
            out: BufWriter::new(OpenOptions::new().append(true).open(path)?),
        })
    }

    /// Append one completed unit and flush it to the OS.
    pub fn append_unit(&mut self, record: &UnitRecord) -> std::io::Result<()> {
        self.append(&unit_json(record))
    }

    /// Append an already-serialized unit line verbatim (the coordinator's
    /// fast path: a worker's `unit_result` line *is* a valid journal unit
    /// line — [`read_journal`] ignores the extra `event` field — so the
    /// coordinator never re-serializes the memo-laden payload).
    pub fn append_line(&mut self, line: &str) -> std::io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }

    fn append(&mut self, j: &Json) -> std::io::Result<()> {
        let mut line = j.to_string_compact();
        line.push('\n');
        self.out.write_all(line.as_bytes())?;
        self.out.flush()
    }
}

/// Read a journal: its header plus every completed unit, in file order.
/// A torn final line (kill mid-append) is dropped; malformed content
/// anywhere else is an error. Duplicate unit indices keep the first
/// record (identical by construction — units are deterministic).
pub fn read_journal(path: &Path) -> Result<(JournalHeader, Vec<UnitRecord>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("journal is empty")?;
    let header =
        parse_header(&Json::parse(first).map_err(|e| format!("journal header: {}", e.message))?)?;
    let mut records: Vec<UnitRecord> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let last_index = text.lines().count() - 1;
    let ends_with_newline = text.ends_with('\n');
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let torn_tail_ok = i == last_index && !ends_with_newline;
        let parsed = Json::parse(line).map_err(|e| e.message).and_then(|j| {
            if j.get("journal").is_some() {
                Err("unexpected second header".to_string())
            } else {
                unit_record_from_json(&j)
            }
        });
        match parsed {
            Ok(r) => {
                if seen.insert(r.unit) {
                    records.push(r);
                }
            }
            Err(_) if torn_tail_ok => break,
            Err(e) => return Err(format!("journal line {}: {e}", i + 1)),
        }
    }
    Ok((header, records))
}

/// Every memo entry across a journal's unit records — the `serve
/// --journal` warm-start input.
pub fn memo_entries(records: &[UnitRecord]) -> Vec<(CacheKey, f64)> {
    records
        .iter()
        .flat_map(|r| r.memo.iter().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpipu_sim::{AnalyticBatched, CostBackend, CostQuery, Memoized, TileConfig};
    use std::sync::Arc;

    fn header() -> JournalHeader {
        JournalHeader {
            request_line: r#"{"req":"sweep","base":{}}"#.to_string(),
            unit_points: 4,
            total_points: 10,
            units: 3,
        }
    }

    fn query() -> CostQuery {
        CostQuery {
            tile: TileConfig::small(),
            w: 12,
            software_precision: 28,
            dists: mpipu_sim::cost::pass_distributions(mpipu_dnn::zoo::Pass::Forward),
            window: 64,
            seed: 7,
        }
    }

    fn record(unit: u64) -> UnitRecord {
        UnitRecord {
            unit,
            lo: unit * 4,
            hi: (unit * 4 + 4).min(10),
            front: vec![SnapshotPoint {
                id: unit * 4,
                bits: vec![1.5f64.to_bits(), (-2.25f64).to_bits()],
            }],
            top: Some(vec![SnapshotPoint {
                id: unit * 4 + 1,
                bits: vec![0.1f64.to_bits()],
            }]),
            hits: 3,
            misses: 1,
            memo: vec![(AnalyticBatched::new().cache_key(&query()), 123.456789)],
        }
    }

    #[test]
    fn journal_round_trips_bit_exact() {
        let dir = std::env::temp_dir().join(format!("mpipu-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.jsonl");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_unit(&record(0)).unwrap();
        w.append_unit(&record(2)).unwrap();
        drop(w);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append_unit(&record(1)).unwrap();
        drop(w);

        let (h, records) = read_journal(&path).unwrap();
        assert_eq!(h, header());
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], record(0));
        assert_eq!(records[1], record(2), "file order preserved");
        assert_eq!(records[2], record(1));
        let memo = memo_entries(&records);
        assert_eq!(memo.len(), 3);
        assert_eq!(memo[0].1, 123.456789, "value bits exact");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_but_midfile_corruption_fails() {
        let dir = std::env::temp_dir().join(format!("mpipu-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_unit(&record(0)).unwrap();
        drop(w);
        // Simulate a kill mid-append: a truncated, newline-less tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"unit\":1,\"lo\":4,\"hi");
        std::fs::write(&path, &text).unwrap();
        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 1, "torn tail dropped");

        // The same garbage mid-file (newline-terminated, another line
        // after it) is corruption, not a torn tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"unit\":1,\"lo\":4,\"hi\n");
        text.push_str(&unit_json(&record(2)).to_string_compact());
        text.push('\n');
        std::fs::write(&path, &text).unwrap();
        assert!(read_journal(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_append_truncates_a_torn_tail_before_writing() {
        let dir = std::env::temp_dir().join(format!("mpipu-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-append.jsonl");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_unit(&record(0)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"unit\":1,\"lo\":4,\"hi");
        std::fs::write(&path, &text).unwrap();
        // Resume appends after the torn fragment: without truncation the
        // fragment and the fresh line would fuse into garbage.
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append_unit(&record(2)).unwrap();
        drop(w);
        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], record(0));
        assert_eq!(records[1], record(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_units_keep_the_first_record() {
        let dir = std::env::temp_dir().join(format!("mpipu-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.jsonl");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_unit(&record(0)).unwrap();
        let mut other = record(0);
        other.hits = 999;
        w.append_unit(&other).unwrap();
        drop(w);
        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].hits, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memo_rows_keyed_by_the_pre_merge_batched_name_still_warm_start() {
        // A journal written before the analytic backends merged keys its
        // memo rows "analytic-batched"; the values are bit-identical to
        // today's "analytic" backend, so they must preload and hit.
        let line = unit_json(&record(0)).to_string_compact();
        assert!(line.contains(r#"["analytic","#), "{line}");
        let old = line.replace(r#"["analytic","#, r#"["analytic-batched","#);
        let parsed = unit_record_from_json(&Json::parse(&old).unwrap()).unwrap();
        assert_eq!(parsed, record(0), "read as the analytic backend's key");

        let memo = Memoized::new(Arc::new(AnalyticBatched::new()));
        assert_eq!(memo.preload(memo_entries(&[parsed])), 1);
        assert_eq!(
            memo.window_cycles(&query()),
            123.456789,
            "served from the journal"
        );
        assert_eq!((memo.hits(), memo.misses()), (1, 0));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        assert!(parse_header(&Json::obj([("journal", Json::str("nope"))])).is_err());
        let j = Json::obj([
            ("journal", Json::str(JOURNAL_MAGIC)),
            ("version", Json::from(99u64)),
        ]);
        assert!(parse_header(&j).is_err());
    }
}
