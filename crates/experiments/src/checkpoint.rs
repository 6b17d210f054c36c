//! JSONL checkpoint/resume for interrupted sweeps.
//!
//! A checkpoint file is a header line identifying the sweep followed
//! by one line per completed cell:
//!
//! ```text
//! {"fingerprint":1234567890,"cells":28}
//! {"cell":3,"words":[500123,500000,...]}
//! {"cell":0,"words":[...]}
//! ```
//!
//! * The **fingerprint** hashes the run parameters and every cell's
//!   configuration, so a stale file from a different sweep is
//!   rejected instead of silently poisoning results.
//! * Cell lines carry the [`SimStats::to_words`] integer codec — no
//!   floats, no serialization dependency, bit-exact round-trip.
//! * Lines are appended (under a mutex, one `write_all` per line) as
//!   workers finish, in completion order; resumption only cares
//!   about the `cell` index, so the order is irrelevant.
//! * A torn final line from a killed process doesn't end with `}`
//!   and/or fails to decode; it is ignored and that cell re-runs.
//!
//! Simulations are deterministic, so a resumed sweep's final output
//! is byte-identical to an uninterrupted one — `scripts/verify.sh`
//! checks exactly that by killing and resuming a degradation sweep.

// A panic in the fan-out or checkpoint code is a sweep bug, not a
// cell failure: per-cell containment only means something while
// panics here stay exceptional, so every panicking construct is
// flagged and the few that remain say why in an `#[expect]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::indexing_slicing,
    clippy::string_slice
)]

use crate::par_sweep::SweepCell;
use crate::runner::RunParams;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use tpc_processor::{SimStats, MODEL_VERSION};

/// Streaming 64-bit FNV-1a hasher for sweep fingerprints. Stable
/// across runs and platforms (a pure byte fold, no randomized state).
#[derive(Debug, Clone)]
struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the standard FNV-1a offset basis.
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprints a sweep: the [`MODEL_VERSION`], the run window and
/// seed plus every cell's configuration (via its `Debug` rendering,
/// which covers each field) and the cell count. Two sweeps get the
/// same fingerprint exactly when their checkpoints are
/// interchangeable.
///
/// `jobs` is deliberately excluded — thread count never changes
/// results, so a sweep may be resumed with a different `--jobs`.
pub fn sweep_fingerprint(params: &RunParams, cells: &[SweepCell]) -> u64 {
    fingerprint_at(MODEL_VERSION, params, cells)
}

/// [`sweep_fingerprint`] as a given model version computes it.
fn fingerprint_at(model_version: u32, params: &RunParams, cells: &[SweepCell]) -> u64 {
    let mut h = Fnv64::new();
    h.write(&model_version.to_le_bytes());
    h.write(&params.warmup.to_le_bytes());
    h.write(&params.measure.to_le_bytes());
    h.write(&params.seed.to_le_bytes());
    h.write(&(cells.len() as u64).to_le_bytes());
    for cell in cells {
        h.write(format!("{:?}", cell.config).as_bytes());
    }
    h.finish()
}

/// An open checkpoint file accepting streaming appends from sweep
/// workers (`&self` — the file handle is behind a mutex).
#[derive(Debug)]
pub struct SweepCheckpoint {
    file: Mutex<File>,
}

impl SweepCheckpoint {
    /// Opens `path` for the sweep identified by `fingerprint` over
    /// `cell_count` cells, creating it (with its header) if absent.
    /// Returns the checkpoint plus any previously completed cells'
    /// statistics, indexed by cell.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] when the file
    /// exists but belongs to a different sweep (fingerprint or cell
    /// count mismatch) — delete the stale file to proceed.
    pub fn open(
        path: &Path,
        fingerprint: u64,
        cell_count: usize,
    ) -> io::Result<(SweepCheckpoint, Vec<Option<SimStats>>)> {
        let mut prior: Vec<Option<SimStats>> = vec![None; cell_count];
        let mut torn_tail = false;
        if path.exists() {
            // Checkpoint files are small (one short line per cell),
            // so read them whole: this also tells us whether the file
            // ends mid-line — a writer killed between `write_all` and
            // completing the line — which streaming `lines()` hides.
            let contents = String::from_utf8_lossy(&std::fs::read(path)?).into_owned();
            let mut lines = contents.lines();
            if let Some(header) = lines.next() {
                let (fp, cells) = parse_header(header)
                    .ok_or_else(|| invalid(format!("malformed checkpoint header: {header:?}")))?;
                if fp != fingerprint || cells != cell_count {
                    return Err(invalid(format!(
                        "checkpoint belongs to a different sweep \
                         (file: fingerprint {fp:#018x} over {cells} cells; \
                         this sweep: {fingerprint:#018x} over {cell_count} cells) \
                         — delete it to start over"
                    )));
                }
                for line in lines {
                    // A torn line (killed writer) fails to parse;
                    // skip it and let that cell re-run. Duplicate
                    // records for one cell are last-wins: a later
                    // line overwrites the earlier entry.
                    if let Some((i, stats)) = parse_cell(line) {
                        if let Some(slot) = prior.get_mut(i) {
                            *slot = Some(stats);
                        }
                    }
                }
                torn_tail = !contents.ends_with('\n');
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() == 0 {
            writeln!(
                file,
                "{{\"fingerprint\":{fingerprint},\"cells\":{cell_count}}}"
            )?;
            file.flush()?;
        } else if torn_tail {
            // Terminate the torn tail so the next record starts on a
            // fresh line instead of being glued onto the fragment
            // (which would corrupt *both* records).
            file.write_all(b"\n")?;
            file.flush()?;
        }
        Ok((
            SweepCheckpoint {
                file: Mutex::new(file),
            },
            prior,
        ))
    }

    /// Appends one completed cell. Each line is a single `write_all`,
    /// so concurrent workers' lines never interleave.
    ///
    /// A failed write may leave a torn partial line (e.g. a full
    /// disk); the tail is then best-effort newline-terminated so a
    /// *subsequent* successful record is not glued onto the fragment
    /// and lost with it.
    pub fn record(&self, cell: usize, stats: &SimStats) -> io::Result<()> {
        let line = encode_cell(cell, stats);
        let mut file = self
            .file
            .lock()
            .map_err(|_| io::Error::other("checkpoint mutex poisoned"))?;
        if let Err(e) = file.write_all(line.as_bytes()) {
            let _ = file.write_all(b"\n");
            let _ = file.flush();
            return Err(e);
        }
        file.flush()
    }
}

/// Encodes a `{"cell":<index>,"words":[...]}` JSONL record carrying
/// the [`SimStats::to_words`] integer codec, newline-terminated.
fn encode_cell(cell: usize, stats: &SimStats) -> String {
    let words: Vec<String> = stats.to_words().iter().map(u64::to_string).collect();
    format!("{{\"cell\":{cell},\"words\":[{}]}}\n", words.join(","))
}

/// Parses a line produced by [`encode_cell`]. Returns `None` for torn
/// or corrupt lines: a missing closing brace (killed writer), a
/// truncated or over-long words array, or non-numeric fields — the
/// caller skips such lines and the cell re-runs.
fn parse_cell(line: &str) -> Option<(usize, SimStats)> {
    if !line.ends_with('}') {
        return None; // torn write
    }
    let cell = field_u64(line, "\"cell\":")?;
    let (_, rest) = line.split_once("\"words\":[")?;
    let (list, _) = rest.split_once(']')?;
    let words: Option<Vec<u64>> = list.split(',').map(|w| w.trim().parse().ok()).collect();
    Some((cell as usize, SimStats::from_words(&words?)?))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Extracts the run of digits following `"key":` in a JSON line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let (_, rest) = line.split_once(key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest.get(..end)?.parse().ok()
}

fn parse_header(line: &str) -> Option<(u64, usize)> {
    Some((
        field_u64(line, "\"fingerprint\":")?,
        field_u64(line, "\"cells\":")? as usize,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tpc_processor::SimConfig;
    use tpc_workloads::{Benchmark, WorkloadBuilder};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tpc-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn sample_stats(x: u64) -> SimStats {
        let mut s = SimStats {
            cycles: 1000 + x,
            retired_instructions: 500 + x,
            ..SimStats::default()
        };
        s.faults.landed_by_kind[3] = x;
        s
    }

    #[test]
    fn record_and_reload_round_trips() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (ck, prior) = SweepCheckpoint::open(&path, 0xABCD, 4).unwrap();
        assert!(prior.iter().all(Option::is_none));
        ck.record(2, &sample_stats(7)).unwrap();
        ck.record(0, &sample_stats(9)).unwrap();
        drop(ck);
        let (_, prior) = SweepCheckpoint::open(&path, 0xABCD, 4).unwrap();
        assert_eq!(prior[0], Some(sample_stats(9)));
        assert!(prior[1].is_none());
        assert_eq!(prior[2], Some(sample_stats(7)));
        assert!(prior[3].is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let path = temp_path("foreign");
        let _ = std::fs::remove_file(&path);
        let (ck, _) = SweepCheckpoint::open(&path, 1, 4).unwrap();
        drop(ck);
        let err = SweepCheckpoint::open(&path, 2, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = SweepCheckpoint::open(&path, 1, 5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_ignored() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (ck, _) = SweepCheckpoint::open(&path, 3, 4).unwrap();
        ck.record(1, &sample_stats(1)).unwrap();
        drop(ck);
        // Simulate a writer killed mid-line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"cell\":2,\"words\":[55,66").unwrap();
        drop(f);
        let (_, prior) = SweepCheckpoint::open(&path, 3, 4).unwrap();
        assert_eq!(prior[1], Some(sample_stats(1)));
        assert!(prior[2].is_none(), "torn line dropped, cell will re-run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_cell_records_are_last_wins() {
        let path = temp_path("dup");
        let _ = std::fs::remove_file(&path);
        let (ck, _) = SweepCheckpoint::open(&path, 11, 3).unwrap();
        ck.record(1, &sample_stats(1)).unwrap();
        ck.record(1, &sample_stats(2)).unwrap();
        ck.record(0, &sample_stats(5)).unwrap();
        ck.record(1, &sample_stats(3)).unwrap();
        drop(ck);
        let (_, prior) = SweepCheckpoint::open(&path, 11, 3).unwrap();
        assert_eq!(prior[0], Some(sample_stats(5)));
        assert_eq!(prior[1], Some(sample_stats(3)), "latest record wins");
        assert!(prior[2].is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_only_file_resumes_from_scratch() {
        let path = temp_path("header-only");
        let _ = std::fs::remove_file(&path);
        let (ck, _) = SweepCheckpoint::open(&path, 21, 2).unwrap();
        drop(ck);
        let (ck, prior) = SweepCheckpoint::open(&path, 21, 2).unwrap();
        assert!(prior.iter().all(Option::is_none));
        // And the reopened file still accepts records.
        ck.record(0, &sample_stats(4)).unwrap();
        drop(ck);
        let (_, prior) = SweepCheckpoint::open(&path, 21, 2).unwrap();
        assert_eq!(prior[0], Some(sample_stats(4)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_line_mid_file_spares_later_records() {
        let path = temp_path("torn-mid");
        let _ = std::fs::remove_file(&path);
        let (ck, _) = SweepCheckpoint::open(&path, 31, 4).unwrap();
        ck.record(0, &sample_stats(1)).unwrap();
        drop(ck);
        // A torn-but-newline-terminated fragment *mid-file* (e.g. a
        // partial write the kernel padded on crash), followed by more
        // good records.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"cell\":2,\"words\":[55,66\n").unwrap();
        drop(f);
        let (ck, prior) = SweepCheckpoint::open(&path, 31, 4).unwrap();
        assert_eq!(prior[0], Some(sample_stats(1)));
        assert!(prior[2].is_none(), "torn mid-file line dropped");
        ck.record(3, &sample_stats(9)).unwrap();
        drop(ck);
        let (_, prior) = SweepCheckpoint::open(&path, 31, 4).unwrap();
        assert_eq!(prior[0], Some(sample_stats(1)));
        assert!(prior[2].is_none());
        assert_eq!(prior[3], Some(sample_stats(9)), "later records survive");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_after_torn_tail_is_not_lost() {
        // The fsync-failure shape: a writer died mid-line with no
        // trailing newline, and the sweep is then resumed. Before the
        // repair in `open`, the resumed process's first record was
        // appended onto the fragment, corrupting *both* records; now
        // the tail is newline-terminated on open and the new record
        // survives.
        let path = temp_path("torn-tail-append");
        let _ = std::fs::remove_file(&path);
        let (ck, _) = SweepCheckpoint::open(&path, 41, 4).unwrap();
        ck.record(0, &sample_stats(1)).unwrap();
        drop(ck);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"cell\":1,\"words\":[12,34").unwrap(); // no newline
        drop(f);
        let (ck, prior) = SweepCheckpoint::open(&path, 41, 4).unwrap();
        assert_eq!(prior[0], Some(sample_stats(1)));
        assert!(prior[1].is_none(), "torn tail dropped, cell 1 re-runs");
        ck.record(2, &sample_stats(7)).unwrap();
        drop(ck);
        let (_, prior) = SweepCheckpoint::open(&path, 41, 4).unwrap();
        assert_eq!(prior[0], Some(sample_stats(1)));
        assert!(prior[1].is_none());
        assert_eq!(
            prior[2],
            Some(sample_stats(7)),
            "record appended after a torn tail must not be glued onto the fragment"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn glued_record_after_torn_fragment_is_dropped_not_misparsed() {
        // The pre-repair failure mode, pinned at the parser level: a
        // complete record glued onto a torn fragment on one line must
        // be rejected wholesale — never parsed into a wrong (cell,
        // stats) association.
        let good = sample_stats(3);
        let words: Vec<String> = good.to_words().iter().map(u64::to_string).collect();
        let glued = format!(
            "{{\"cell\":1,\"words\":[12,34{{\"cell\":2,\"words\":[{}]}}",
            words.join(",")
        );
        assert_eq!(parse_cell(&glued), None);
        // Whereas a clean encode round-trips.
        let line = encode_cell(2, &good);
        assert_eq!(parse_cell(line.trim_end()), Some((2, good)));
    }

    #[test]
    fn fnv64_is_stable_and_streaming() {
        let mut a = Fnv64::new();
        a.write(b"hello world");
        let mut b = Fnv64::new();
        b.write(b"hello ");
        b.write(b"world");
        assert_eq!(a.finish(), b.finish(), "chunking never changes the hash");
        // Known FNV-1a vector: the empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn fingerprint_tracks_configs_and_params() {
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Compress).seed(1).build());
        let cells = vec![crate::par_sweep::SweepCell::new(
            Arc::clone(&program),
            SimConfig::baseline(64),
        )];
        let params = RunParams::quick();
        let a = sweep_fingerprint(&params, &cells);
        assert_eq!(a, sweep_fingerprint(&params, &cells), "deterministic");
        let mut other_params = params;
        other_params.measure += 1;
        assert_ne!(a, sweep_fingerprint(&other_params, &cells));
        let other_cells = vec![crate::par_sweep::SweepCell::new(
            program,
            SimConfig::baseline(128),
        )];
        assert_ne!(a, sweep_fingerprint(&params, &other_cells));
        // Thread count is excluded: resuming with different --jobs
        // is allowed.
        let mut jobs_params = params;
        jobs_params.jobs = 17;
        assert_eq!(a, sweep_fingerprint(&jobs_params, &cells));
        // Another model version never replays this one's results.
        assert_eq!(a, fingerprint_at(MODEL_VERSION, &params, &cells));
        assert_ne!(a, fingerprint_at(MODEL_VERSION + 1, &params, &cells));
    }
}
