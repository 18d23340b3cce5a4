//! The streaming JSONL event-log sink.
//!
//! One JSON object per line, written as events arrive:
//!
//! ```text
//! {"event":"run_start","algorithm":"single-selection","nodes":345,"num_patterns":10048,"seq":0,"threads":1,"threshold":0.05,"v":9}
//! {"event":"engine_refresh","cache_hits":0,"candidates_pruned":0,"evaluated":345,"nanos":41873021,"nodes_skipped":0,"seq":1,"v":9}
//! ...
//! ```
//!
//! Every line carries the schema version (`"v"`) and a per-sink sequence
//! number (`"seq"`), so interleaved logs from concurrent runs into separate
//! files stay individually ordered and versioned for offline analysis.

use crate::{Event, TelemetrySink};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the JSONL line schema; bump on breaking field changes.
/// v2: `run_start` gained `seed`, and every accepted change emits a
/// `change_committed` certificate line (node, ASE, claimed apparent rate).
/// v3: `resimulated` lines carry incremental-resimulation work counts
/// (dirty, resim_nodes, skipped_early_exit, full_equivalent).
/// v4: adaptive pattern sampling — `resimulated` lines gained `words`
/// (signature words actually written), probe rounds emit
/// `sampling_escalated` lines (from_words, to_words, errors, early_reject),
/// and SASIMI candidate generation emits one aggregated
/// `similarity_scanned` line per sweep (pairs, early_rejects, words,
/// words_full).
/// v5: design-space sweeps — a sweep emits one `sweep_start` line
/// (grid_points, workers) and one `sweep_point_done` line per grid point
/// (algorithm, threshold, literals, mapped_delay, error_rate, nanos), in
/// deterministic grid order.
/// v6: incremental SAT — don't-care classification emits aggregated
/// `sat_activity` lines (sat_queries, solver_instances, clauses_retracted)
/// per engine refresh / classical simplification pass.
/// v7: the `als serve` daemon — job admission emits `job_admitted` lines
/// (job, queue_depth) and every cross-job artifact-cache lookup emits an
/// `artifact_cache` line (artifact, hit).
/// v8: per-candidate `candidate_pruned` lines are gone; each
/// `engine_refresh` line carries the refresh's `candidates_pruned` count.
/// v9: `sampling_escalated` lines are gone (every trial is measured on the
/// full pattern set), and `artifact_cache` lines no longer name a
/// `delay_map` artifact.
pub const EVENT_LOG_SCHEMA_VERSION: u64 = 9;

/// A [`TelemetrySink`] that streams every event as one JSON line to a
/// writer. Lines are written (and the writer flushed) synchronously per
/// event — the log is for offline analysis of runs that take seconds to
/// minutes, where per-line flush cost is noise and a crash loses nothing.
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
    seq: AtomicU64,
}

impl JsonlSink {
    /// A sink writing to `writer` (e.g. a `Vec<u8>`, a file, a pipe).
    pub fn new(writer: impl Write + Send + 'static) -> JsonlSink {
        JsonlSink {
            writer: Mutex::new(Box::new(writer)),
            seq: AtomicU64::new(0),
        }
    }

    /// A sink writing to a freshly created (truncated) file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }

    /// Events written so far.
    pub fn lines_written(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines_written", &self.lines_written())
            .finish()
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&self, event: &Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut json = event.to_json();
        json.set("v", EVENT_LOG_SCHEMA_VERSION).set("seq", seq);
        let line = json.render();
        // Telemetry must never abort the synthesis run it observes: a
        // poisoned lock keeps writing (the log line is self-contained) and
        // a full disk degrades to a truncated log.
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // lint:allow(silent-result): telemetry writes must not abort the run they observe
        let _ = writeln!(writer, "{line}");
        // lint:allow(silent-result): telemetry writes must not abort the run they observe
        let _ = writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;
    use std::sync::Arc;

    /// A `Write` handle into a shared buffer, so the test can read back
    /// what the sink (which owns its writer) wrote.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writes_one_versioned_line_per_event() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        sink.record(&Event::ConeInvalidated {
            changed: 1,
            dropped: 4,
        });
        sink.record(&Event::RunEnd {
            iterations: 2,
            literals: 10,
            error_rate: 0.5,
            nanos: 99,
        });
        assert_eq!(sink.lines_written(), 2);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(
                parsed.get("v").and_then(Json::as_u64),
                Some(EVENT_LOG_SCHEMA_VERSION)
            );
            assert_eq!(parsed.get("seq").and_then(Json::as_u64), Some(i as u64));
        }
        let last = Json::parse(lines[1]).unwrap();
        assert_eq!(last.get("event").and_then(Json::as_str), Some("run_end"));
        assert_eq!(last.get("literals").and_then(Json::as_u64), Some(10));
    }
}
