//! The structured run journal: one event per traced contour point.
//!
//! Events are serialized as JSON Lines — one flat object per line — so a
//! characterization run can be replayed, diffed, or post-processed without
//! any parsing machinery beyond a line splitter.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::json;

/// One journal record, emitted per traced contour point.
///
/// `level` is the degradation-level index for `trace_batch` runs and `None`
/// for single-contour traces. Transient statistics are the totals
/// accumulated over every simulation the corrector ran for this point.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Zero-based index of the point along its contour.
    pub point: u64,
    /// Degradation-level index for batch traces; `None` for single traces.
    pub level: Option<u64>,
    /// Setup skew, seconds.
    pub tau_s: f64,
    /// Hold skew, seconds.
    pub tau_h: f64,
    /// Final corrector residual `|h|`, seconds.
    pub residual: f64,
    /// Euclidean norm of the contour Jacobian `[dh/dtau_s, dh/dtau_h]`.
    pub jacobian_norm: f64,
    /// Unit tangent of the contour at this point.
    pub tangent: [f64; 2],
    /// MPNR corrector iterations spent on this point.
    pub corrector_iterations: u64,
    /// Predictor step length used to reach this point (0 for the seed).
    pub alpha: f64,
    /// Accepted transient integration steps for this point.
    pub transient_steps: u64,
    /// Inner Newton iterations for this point.
    pub newton_iterations: u64,
    /// Newton step cuts for this point.
    pub rejected_steps: u64,
    /// Failed corrector attempts (step halvings, bisection fallbacks,
    /// tracer restarts) absorbed since the previous accepted point.
    pub recovery_attempts: u64,
    /// Optional per-point phase breakdown: a pre-rendered JSON object
    /// mapping phase names to `{"self_ns":…,"count":…}` deltas accumulated
    /// since the previous accepted point. Populated by the tracer only
    /// when an `shc-prof` profiler is installed; `None` (and the field is
    /// omitted from the line) otherwise. Kept as a raw string because this
    /// crate must not depend on `shc-prof`.
    pub phases: Option<String>,
}

impl JournalEvent {
    /// Renders the event as a single JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        let mut first = true;
        json::push_u64_field(&mut s, &mut first, "point", self.point);
        match self.level {
            Some(l) => json::push_u64_field(&mut s, &mut first, "level", l),
            None => json::push_raw_field(&mut s, &mut first, "level", "null"),
        }
        json::push_f64_field(&mut s, &mut first, "tau_s", self.tau_s);
        json::push_f64_field(&mut s, &mut first, "tau_h", self.tau_h);
        json::push_f64_field(&mut s, &mut first, "residual", self.residual);
        json::push_f64_field(&mut s, &mut first, "jacobian_norm", self.jacobian_norm);
        let tangent = format!(
            "[{},{}]",
            json::fmt_f64(self.tangent[0]),
            json::fmt_f64(self.tangent[1])
        );
        json::push_raw_field(&mut s, &mut first, "tangent", &tangent);
        json::push_u64_field(
            &mut s,
            &mut first,
            "corrector_iterations",
            self.corrector_iterations,
        );
        json::push_f64_field(&mut s, &mut first, "alpha", self.alpha);
        json::push_u64_field(&mut s, &mut first, "transient_steps", self.transient_steps);
        json::push_u64_field(
            &mut s,
            &mut first,
            "newton_iterations",
            self.newton_iterations,
        );
        json::push_u64_field(&mut s, &mut first, "rejected_steps", self.rejected_steps);
        json::push_u64_field(
            &mut s,
            &mut first,
            "recovery_attempts",
            self.recovery_attempts,
        );
        if let Some(phases) = &self.phases {
            json::push_raw_field(&mut s, &mut first, "phases", phases);
        }
        s.push('}');
        s
    }

    /// Parses a line produced by [`JournalEvent::to_json_line`].
    ///
    /// Intended for tests and validation tools; this is a key scanner, not
    /// a general JSON parser.
    #[must_use]
    pub fn from_json(line: &str) -> Option<JournalEvent> {
        let tangent = json::scan_f64_array(line, "tangent")?;
        if tangent.len() != 2 {
            return None;
        }
        Some(JournalEvent {
            point: json::scan_u64(line, "point")?,
            level: json::scan_u64(line, "level"),
            tau_s: json::scan_f64(line, "tau_s")?,
            tau_h: json::scan_f64(line, "tau_h")?,
            residual: json::scan_f64(line, "residual")?,
            jacobian_norm: json::scan_f64(line, "jacobian_norm")?,
            tangent: [tangent[0], tangent[1]],
            corrector_iterations: json::scan_u64(line, "corrector_iterations")?,
            alpha: json::scan_f64(line, "alpha")?,
            transient_steps: json::scan_u64(line, "transient_steps")?,
            newton_iterations: json::scan_u64(line, "newton_iterations")?,
            rejected_steps: json::scan_u64(line, "rejected_steps")?,
            recovery_attempts: json::scan_u64(line, "recovery_attempts")?,
            phases: json::scan_raw_object(line, "phases").map(str::to_string),
        })
    }

    /// Sort key used to order-normalize events across serial/parallel runs.
    #[must_use]
    pub fn sort_key(&self) -> (u64, u64) {
        (self.level.unwrap_or(0), self.point)
    }
}

/// Destination for journal events.
///
/// `record` takes `&self` so a single sink can be shared by the worker
/// threads `parallel::run_indexed` spawns; implementations synchronize
/// internally.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &JournalEvent);

    /// Flushes buffered events to their destination.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error for file-backed sinks.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// In-memory sink for tests: collects events behind a mutex.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<JournalEvent>>,
}

impl MemorySink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Returns a copy of all recorded events, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn events(&self) -> Vec<JournalEvent> {
        self.events.lock().expect("journal sink poisoned").clone()
    }

    /// Removes and returns all recorded events.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    pub fn drain(&self) -> Vec<JournalEvent> {
        std::mem::take(&mut *self.events.lock().expect("journal sink poisoned"))
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &JournalEvent) {
        self.events
            .lock()
            .expect("journal sink poisoned")
            .push(event.clone());
    }
}

/// Buffered JSONL file writer for CLI runs.
///
/// Events are written eagerly into a `BufWriter`; `flush` (called by the
/// CLI on both success and error paths) pushes them to disk, and `Drop`
/// makes a best-effort flush so partial journals survive early exits.
#[derive(Debug)]
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Creates (truncating) the journal file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the `File::create` error.
    pub fn create(path: &Path) -> io::Result<FileSink> {
        Ok(FileSink {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Sink for FileSink {
    fn record(&self, event: &JournalEvent) {
        let mut w = self.writer.lock().expect("journal sink poisoned");
        // I/O errors surface at flush(); record() must stay infallible so
        // instrumented solver code needs no error plumbing.
        let _ = writeln!(w, "{}", event.to_json_line());
    }

    fn flush(&self) -> io::Result<()> {
        self.writer.lock().expect("journal sink poisoned").flush()
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(point: u64, level: Option<u64>) -> JournalEvent {
        JournalEvent {
            point,
            level,
            tau_s: 1.25e-10,
            tau_h: -3.5e-11,
            residual: 4.2e-15,
            jacobian_norm: 0.731,
            tangent: [0.6, -0.8],
            corrector_iterations: 2,
            alpha: 1.5,
            transient_steps: 1234,
            newton_iterations: 4321,
            rejected_steps: 7,
            recovery_attempts: 1,
            phases: None,
        }
    }

    #[test]
    fn event_round_trips_through_json() {
        for ev in [sample(0, None), sample(3, Some(1))] {
            let line = ev.to_json_line();
            assert!(!line.contains('\n'));
            let back = JournalEvent::from_json(&line).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn phase_breakdown_round_trips_and_is_omitted_when_absent() {
        let mut ev = sample(0, None);
        assert!(!ev.to_json_line().contains("phases"));
        ev.phases = Some("{\"newton_overhead\":{\"self_ns\":1200,\"count\":3}}".to_string());
        let line = ev.to_json_line();
        assert!(line.contains("\"phases\":{\"newton_overhead\""));
        let back = JournalEvent::from_json(&line).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn non_finite_fields_become_null_and_fail_strict_parse() {
        let mut ev = sample(0, None);
        ev.residual = f64::NAN;
        let line = ev.to_json_line();
        assert!(line.contains("\"residual\":null"));
        assert!(JournalEvent::from_json(&line).is_none());
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        sink.record(&sample(0, None));
        sink.record(&sample(1, None));
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].point, 0);
        assert_eq!(events[1].point, 1);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn file_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("shc_obs_sink_{}.jsonl", std::process::id()));
        {
            let sink = FileSink::create(&path).unwrap();
            sink.record(&sample(0, None));
            sink.record(&sample(1, Some(2)));
            sink.flush().unwrap();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        let events: Vec<JournalEvent> = body
            .lines()
            .map(|l| JournalEvent::from_json(l).unwrap())
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].level, Some(2));
        std::fs::remove_file(&path).ok();
    }
}
