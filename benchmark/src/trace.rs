//! The benchmark's own span recorder.
//!
//! Spans bracket the benchmark's calls into each layer's public functions; nothing
//! inside the crates under test is touched. A span records its name, id, parent,
//! start, end and the repetition it belongs to. Spans are held in memory and written
//! out once, when the traced run ends. A span's self time is its duration minus the
//! part of that interval its children cover (children may run on other threads, so
//! the cover is the union of their intervals).
//!
//! Disabled (every `--trace 0` run), a span site is one relaxed atomic load.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The name of the span every traced repetition is rooted at.
pub const ROOT: &str = "rep";

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static REPETITION: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Id of the innermost open span on this thread (0 = none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub name: &'static str,
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub repetition: u32,
}

/// Start or stop recording.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Tag the spans opened from now on with repetition `index`.
pub fn set_repetition(index: u32) {
    REPETITION.store(index, Ordering::SeqCst);
}

/// An open span; recorded when dropped. Inert while recording is disabled.
pub struct Span {
    id: u32,
    parent: u32,
    /// What `CURRENT` held before this span opened on this thread.
    outer: u32,
    name: &'static str,
    start_ns: u64,
}

impl Span {
    /// This span's id, to hand to work it causes on another thread
    /// ([`span_under`]). 0 while recording is disabled.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Open a span whose parent is the innermost span open on this thread.
pub fn span(name: &'static str) -> Span {
    span_under(name, CURRENT.with(Cell::get))
}

/// Open a span under an explicit parent, for work a span on another thread caused.
pub fn span_under(name: &'static str, parent: u32) -> Span {
    // Relaxed: a statistic-like flag; spans publish their data through the mutex.
    if !ENABLED.load(Ordering::Relaxed) {
        return Span {
            id: 0,
            parent: 0,
            outer: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    Span {
        id,
        parent,
        outer: CURRENT.with(|c| c.replace(id)),
        name,
        start_ns: now_ns(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let record = SpanRecord {
            name: self.name,
            id: self.id,
            parent: self.parent,
            start_ns: self.start_ns,
            end_ns: now_ns(),
            repetition: REPETITION.load(Ordering::SeqCst),
        };
        CURRENT.with(|c| c.set(self.outer));
        // A poisoned lock only means another thread panicked mid-push; the vector
        // is still a valid list of finished spans.
        SPANS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(record);
    }
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Totals of every span that shares a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// What the recorded spans add up to.
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    spans: Vec<(SpanRecord, u64)>,
}

impl Summary {
    /// Summed duration of the spans called `name`; 0 when there were none.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.total_s)
    }

    /// Mean duration of the spans called `name`; 0 when there were none.
    pub fn mean_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |t| t.total_s / t.count.max(1) as f64)
    }

    /// Share of the repetitions' wall time that named spans below the roots account
    /// for: 1 − (roots' self time ÷ roots' duration).
    pub fn coverage_ratio(&self) -> f64 {
        match self.by_name.get(ROOT) {
            Some(root) if root.total_s > 0.0 => 1.0 - root.self_s / root.total_s,
            _ => 0.0,
        }
    }

    /// Write every span (with its self time) and `metrics_json` to `path`.
    pub fn write(&self, path: &Path, workload: &str, metrics_json: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(s, self_ns)| {
                format!(
                    "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\
                     \"repetition\":{},\"self_ns\":{}}}",
                    s.name, s.id, s.parent, s.start_ns, s.end_ns, s.repetition, self_ns
                )
            })
            .collect();
        // This benchmark defines the baseline; it claims no gain.
        let body = format!(
            "{{\"workload\":\"{workload}\",\"spans\":[\n{}\n],\"per_layer\":{metrics_json},\
             \"claim\":null}}\n",
            spans.join(",\n")
        );
        std::fs::write(path, body)
    }
}

/// Stop recording and sum up what was recorded.
pub fn finish() -> Summary {
    set_enabled(false);
    let mut records = std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()),
    );
    records.sort_by_key(|s| s.start_ns);
    summarise(records)
}

fn summarise(records: Vec<SpanRecord>) -> Summary {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &records {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut spans = Vec::with_capacity(records.len());
    for s in records {
        let duration = s.end_ns - s.start_ns;
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        let self_ns = duration - covered;
        let totals = by_name.entry(s.name).or_default();
        totals.count += 1;
        totals.total_s += duration as f64 * 1e-9;
        totals.self_s += self_ns as f64 * 1e-9;
        spans.push((s, self_ns));
    }
    Summary { by_name, spans }
}

/// Length of the union of `intervals` (sorted by start) clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            repetition: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root 0..100; two children on different threads overlap on 20..30, and a
        // third sticks out past the root's end and is clipped.
        let summary = summarise(vec![
            record(ROOT, 1, 0, 0, 100),
            record("a", 2, 1, 10, 30),
            record("b", 3, 1, 20, 50),
            record("c", 4, 1, 90, 120),
        ]);
        let root = summary.by_name[ROOT];
        assert!((root.self_s - 50e-9).abs() < 1e-15, "{root:?}");
        assert!((summary.coverage_ratio() - 0.5).abs() < 1e-12);
        assert!((summary.mean_s("b") - 30e-9).abs() < 1e-15);
        assert_eq!(summary.mean_s("absent"), 0.0);
    }

    #[test]
    fn disabled_spans_record_nothing_and_nest_when_enabled() {
        {
            let _idle = span("idle");
        }
        set_enabled(true);
        let outer_id;
        {
            let outer = span("outer");
            outer_id = outer.id();
            let _inner = span("inner");
        }
        let summary = finish();
        assert!(!summary.by_name.contains_key("idle"));
        let inner = summary
            .spans
            .iter()
            .find(|(s, _)| s.name == "inner")
            .expect("inner span recorded");
        assert_eq!(inner.0.parent, outer_id);
    }
}
