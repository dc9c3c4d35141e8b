//! The benchmark's own spans around each call into a layer's public
//! functions, the per-layer self-time table derived from them, and the
//! Chrome-trace export.
//!
//! A span is `(id, parent, run, layer, start, end)` on the flight
//! recorder's clock, so benchmark spans and the program's wall-clock
//! flight events share one time axis. Spans are kept in memory while
//! recording and written out once, when the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use syrk_telemetry::{flight, wall_trace_events, FlightRecording};

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (parents refer to it).
    pub id: usize,
    /// The enclosing span, `None` for an operation's root.
    pub parent: Option<usize>,
    /// The operation this span belongs to (shared by its whole tree).
    pub run: u64,
    /// Layer name: a module of the stack, or `op` for a root.
    pub layer: &'static str,
    /// Recording thread (benchmark-local numbering).
    pub tid: u64,
    /// Start, ns on the flight recorder's clock.
    pub start_ns: u64,
    /// End, ns on the flight recorder's clock.
    pub end_ns: u64,
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicUsize = AtomicUsize::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Start keeping spans (and pin the shared clock's epoch).
pub fn start_recording() {
    flight::now_ns();
    RECORDING.store(true, Ordering::SeqCst);
}

/// Stop recording and hand back every span kept so far.
pub fn take() -> Vec<Span> {
    RECORDING.store(false, Ordering::SeqCst);
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span list poisoned by a panicking recorder"),
    )
}

/// Run `f` as a span of `layer` and return its result with the elapsed
/// ns. The clock is read the same way whether or not spans are kept, so
/// traced and untraced runs time identical code; `f` receives the
/// span's id (while recording) to parent its children.
pub fn measure<R>(
    layer: &'static str,
    run: u64,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> (R, u64) {
    let id = RECORDING
        .load(Ordering::Relaxed)
        .then(|| NEXT_ID.fetch_add(1, Ordering::Relaxed));
    let start_ns = flight::now_ns();
    let out = f(id);
    let end_ns = flight::now_ns();
    if let Some(id) = id {
        let span = Span {
            id,
            parent,
            run,
            layer,
            tid: TID.with(|t| *t),
            start_ns,
            end_ns,
        };
        SPANS
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
    }
    (out, end_ns - start_ns)
}

/// Sort and merge half-open intervals into a disjoint union.
pub fn union(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.retain(|&(s, e)| e > s);
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a disjoint union.
pub fn length(v: &[(u64, u64)]) -> u64 {
    v.iter().map(|&(s, e)| e - s).sum()
}

/// The part of a disjoint union inside `[lo, hi)`.
pub fn clip(v: &[(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
    v.iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect()
}

/// Per-layer self time summed over every operation of a traced run.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// Layer → self ns (span minus the union of its children).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Root time covered by no layer span (the benchmark's own glue).
    pub untagged_ns: u64,
    /// Sum of the roots' durations.
    pub root_ns: u64,
    /// Operations (span trees) accounted.
    pub ops: usize,
}

/// Build the self-time table. `busy` is a disjoint union of intervals
/// attached as a synthetic `dense` child to every `busy_parent` span.
///
/// Enforces, per operation and exactly in ns, that the self times of
/// its spans plus its untagged time equal its root span; a child that
/// leaks outside its parent or overlaps a sibling breaks the equality
/// and is reported as an error.
pub fn layer_table(
    spans: &[Span],
    busy: &[(u64, u64)],
    busy_parent: &str,
) -> Result<LayerTable, String> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let by_id: BTreeMap<usize, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut table = LayerTable::default();
    let mut per_root: BTreeMap<usize, (u64, u64)> = BTreeMap::new(); // root → (Σ self, untagged)
    for s in spans {
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        for &(cs, ce) in &kids {
            if cs < s.start_ns || ce > s.end_ns {
                return Err(format!(
                    "a child of span {} ({}) leaks outside it",
                    s.id, s.layer
                ));
            }
        }
        let mut dense = 0;
        if s.layer == busy_parent {
            let inside = clip(busy, s.start_ns, s.end_ns);
            dense = length(&inside);
            kids.extend(inside);
        }
        let covered = length(&union(kids));
        let self_ns = (s.end_ns - s.start_ns) - covered;
        let mut root = s;
        while let Some(p) = root.parent {
            root = by_id
                .get(&p)
                .ok_or_else(|| format!("span {} names a missing parent {p}", root.id))?;
        }
        let entry = per_root.entry(root.id).or_default();
        if s.parent.is_none() {
            entry.1 += self_ns;
            table.untagged_ns += self_ns;
            table.root_ns += s.end_ns - s.start_ns;
            table.ops += 1;
        } else {
            entry.0 += self_ns;
            *table.self_ns.entry(s.layer).or_default() += self_ns;
        }
        entry.0 += dense;
        if dense > 0 {
            *table.self_ns.entry("dense").or_default() += dense;
        }
    }
    for (root, (layers, untagged)) in per_root {
        let r = by_id[&root];
        let total = r.end_ns - r.start_ns;
        if layers + untagged != total {
            return Err(format!(
                "operation {}: layer self times {layers} ns + untagged {untagged} ns != span {total} ns",
                r.run
            ));
        }
    }
    Ok(table)
}

/// Chrome trace-event document: the flight recording through the
/// telemetry exporter (pid 1) beside the benchmark's spans (pid 2), on
/// the exporter's time base.
pub fn chrome_trace(spans: &[Span], rec: &FlightRecording) -> String {
    let mut events = wall_trace_events(rec, syrk_telemetry::export::WALL_PID);
    let base = rec
        .events
        .iter()
        .map(|e| e.start_ns)
        .min()
        .or_else(|| spans.iter().map(|s| s.start_ns).min())
        .unwrap_or(0);
    events.push(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, \
         \"args\": {\"name\": \"benchmark spans\"}}"
            .to_string(),
    );
    for s in spans {
        let ts = (s.start_ns as f64 - base as f64) / 1000.0;
        let dur = (s.end_ns - s.start_ns) as f64 / 1000.0;
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        events.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 2, \"tid\": {}, \"ts\": {ts:.3}, \
             \"dur\": {dur:.3}, \"args\": {{\"run\": {}, \"id\": {}, \"parent\": {parent}}}}}",
            s.layer, s.tid, s.run, s.id
        ));
    }
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        let _ = writeln!(out, "{e}{sep}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            layer,
            tid: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(
            union(vec![(5, 9), (0, 3), (2, 4), (9, 10)]),
            vec![(0, 4), (5, 10)]
        );
        assert_eq!(length(&clip(&[(0, 4), (5, 10)], 3, 6)), 2);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            span(2, Some(1), "core.planner", 1, 11),
            span(3, Some(1), "core.algorithms", 20, 90),
            span(4, Some(1), "core.abft", 91, 99),
        ];
        let busy = union(vec![(30, 40), (35, 50), (95, 200)]);
        let t = layer_table(&spans, &busy, "core.algorithms").unwrap();
        assert_eq!(t.self_ns["dense"], 20);
        assert_eq!(t.self_ns["core.algorithms"], 50);
        assert_eq!(t.self_ns["core.planner"], 10);
        assert_eq!(t.untagged_ns, 100 - 10 - 70 - 8);
        assert_eq!(t.root_ns, 100);
    }

    #[test]
    fn overlapping_siblings_break_the_invariant() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            span(2, Some(1), "core.planner", 0, 60),
            span(3, Some(1), "core.algorithms", 50, 100),
        ];
        assert!(layer_table(&spans, &[], "core.algorithms").is_err());
    }
}
