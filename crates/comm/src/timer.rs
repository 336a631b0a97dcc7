//! Per-phase wall-clock accounting used by the experiment harnesses.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::Serialize;

/// Accumulates named phase durations (initialisation, vertex balance, edge balance, ...).
///
/// The paper's discussion distinguishes where time is spent (e.g. the initialisation
/// stage depends on diameter, the balance stages on cut size); harnesses use this to
/// report per-phase breakdowns.
#[derive(Debug, Default, Clone, Serialize)]
pub struct PhaseTimer {
    phases: BTreeMap<String, Duration>,
}

impl PhaseTimer {
    /// Create an empty phase timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time `f` and add its duration to the named phase.
    pub fn time<R>(&mut self, phase: &str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.add(phase, t.elapsed());
        out
    }

    /// Add a duration to the named phase.
    pub fn add(&mut self, phase: &str, d: Duration) {
        *self.phases.entry(phase.to_string()).or_default() += d;
    }

    /// Duration accumulated for one phase (zero if never recorded).
    pub fn get(&self, phase: &str) -> Duration {
        self.phases.get(phase).copied().unwrap_or_default()
    }

    /// Total duration across all phases.
    pub fn total(&self) -> Duration {
        self.phases.values().copied().sum()
    }

    /// Iterate over `(phase, duration)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.phases.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Fold another timer in, keeping the larger duration per phase. Aggregating
    /// per-rank timers this way yields the wall-clock view of a collective job
    /// (every phase ends at a barrier, so the slowest rank defines the phase).
    pub fn merge_max(&mut self, other: &PhaseTimer) {
        for (phase, d) in other.iter() {
            let entry = self.phases.entry(phase.to_string()).or_default();
            if d > *entry {
                *entry = d;
            }
        }
    }
}
