//! The program's flight recorder, collected in segments so that busy
//! times only ever use completely recorded intervals.
//!
//! Each recorder thread keeps a bounded ring that evicts its oldest
//! events when full. A ring that evicted holds everything after its
//! oldest surviving event, so within one segment the recording is
//! complete from the latest such "oldest surviving" start among full
//! rings up to the segment's end. Sequential workloads cut a segment
//! after every operation, when no program thread is recording.

use std::sync::Mutex;

use syrk_telemetry::flight::{self, RING_CAPACITY};
use syrk_telemetry::{FlightEvent, FlightKind, FlightRecording};

use crate::spans::{clip, length, union};

/// Every collected segment.
#[derive(Debug, Default)]
pub struct FlightLog {
    /// Surviving events of all segments.
    pub events: Vec<FlightEvent>,
    /// Events the rings evicted.
    pub dropped: u64,
    /// Completely recorded intervals, disjoint and sorted.
    pub complete: Vec<(u64, u64)>,
}

struct Active {
    log: FlightLog,
    segment_start: u64,
}

static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

fn active() -> std::sync::MutexGuard<'static, Option<Active>> {
    ACTIVE
        .lock()
        .expect("flight log poisoned by a panicking collector")
}

/// Clear the recorder and start recording.
pub fn begin() {
    flight::disable();
    flight::clear();
    *active() = Some(Active {
        log: FlightLog::default(),
        segment_start: flight::now_ns(),
    });
    flight::enable();
}

/// Close the current segment (no program thread may be recording) and
/// open the next. A no-op while not tracing.
pub fn checkpoint() {
    let mut guard = active();
    let Some(act) = guard.as_mut() else { return };
    flight::disable();
    let end = flight::now_ns();
    absorb(&mut act.log, flight::collect(), act.segment_start, end);
    flight::clear();
    act.segment_start = flight::now_ns();
    flight::enable();
}

/// Stop recording and return the log.
pub fn finish() -> FlightLog {
    flight::disable();
    let end = flight::now_ns();
    let mut act = active().take().expect("finish() without begin()");
    absorb(&mut act.log, flight::collect(), act.segment_start, end);
    flight::clear();
    act.log.complete = union(act.log.complete);
    act.log
}

fn absorb(log: &mut FlightLog, rec: FlightRecording, start: u64, end: u64) {
    let mut from = start;
    if rec.dropped > 0 {
        let mut per_tid: std::collections::BTreeMap<u64, (usize, u64)> = Default::default();
        for e in &rec.events {
            let entry = per_tid.entry(e.tid).or_insert((0, u64::MAX));
            entry.0 += 1;
            entry.1 = entry.1.min(e.start_ns);
        }
        for &(count, oldest) in per_tid.values() {
            if count >= RING_CAPACITY {
                from = from.max(oldest);
            }
        }
    }
    if end > from {
        log.complete.push((from, end));
    }
    log.dropped += rec.dropped;
    log.events.extend(rec.events);
}

impl FlightLog {
    /// Union of `kind` spans inside the complete intervals.
    pub fn busy(&self, kind: FlightKind) -> Vec<(u64, u64)> {
        let spans: Vec<(u64, u64)> = self
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.start_ns, e.end_ns))
            .collect();
        let spans = union(spans);
        let mut out = Vec::new();
        for &(lo, hi) in &self.complete {
            out.extend(clip(&spans, lo, hi));
        }
        out
    }

    /// Summed duration of `kind` spans inside the complete intervals
    /// (overlaps on different threads add up).
    pub fn total(&self, kind: FlightKind) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| length(&self.completed_part((e.start_ns, e.end_ns))))
            .sum()
    }

    /// The completely recorded part of one interval.
    pub fn completed_part(&self, (lo, hi): (u64, u64)) -> Vec<(u64, u64)> {
        clip(&self.complete, lo, hi)
    }

    /// Whether every interval of `busy` lies inside a complete interval:
    /// the check that no busy time rests on an evicting ring.
    pub fn covers(&self, busy: &[(u64, u64)]) -> bool {
        busy.iter()
            .all(|&(s, e)| self.complete.iter().any(|&(lo, hi)| lo <= s && e <= hi))
    }

    /// The recording as the telemetry exporter's input.
    pub fn recording(&self) -> FlightRecording {
        let mut events = self.events.clone();
        events.sort_by_key(|e| (e.start_ns, e.tid));
        FlightRecording {
            events,
            dropped: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u64, s: u64, e: u64) -> FlightEvent {
        FlightEvent {
            tid,
            kind: FlightKind::Task,
            start_ns: s,
            end_ns: e,
            arg: 0,
        }
    }

    #[test]
    fn an_evicting_ring_shrinks_the_complete_window() {
        let mut log = FlightLog::default();
        let mut events: Vec<FlightEvent> = (0..RING_CAPACITY as u64)
            .map(|i| ev(0, 1000 + i, 1001 + i))
            .collect();
        events.push(ev(1, 10, 20));
        absorb(&mut log, FlightRecording { events, dropped: 5 }, 0, 9000);
        assert_eq!(log.complete, vec![(1000, 9000)]);
        // The early span on the non-evicting thread is outside the window.
        assert_eq!(length(&log.busy(FlightKind::Task)), RING_CAPACITY as u64);
        assert!(log.covers(&log.busy(FlightKind::Task)));
        assert!(!log.covers(&[(10, 20)]));
    }

    #[test]
    fn a_clean_segment_is_complete() {
        let mut log = FlightLog::default();
        absorb(
            &mut log,
            FlightRecording {
                events: vec![ev(0, 10, 20), ev(1, 15, 30)],
                dropped: 0,
            },
            0,
            100,
        );
        assert_eq!(log.complete, vec![(0, 100)]);
        assert_eq!(log.busy(FlightKind::Task), vec![(10, 30)]);
        assert_eq!(log.total(FlightKind::Task), 25);
    }
}
