//! The traced run's instruments: an in-memory sink for the program's own
//! events and spans, and deltas of the program's `snapea_obs` counters.

use snapea_obs::json::Json;
use snapea_obs::sink::Sink;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

#[derive(Debug, Default)]
struct SinkState {
    span_ms: BTreeMap<String, f64>,
}

/// An in-memory sink that sums the program's span durations by name,
/// so a long traced run holds no event log.
#[derive(Debug, Clone, Default)]
pub struct SpanSink {
    state: Arc<Mutex<SinkState>>,
}

impl Sink for SpanSink {
    fn emit(&mut self, event: &Json) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if event.get("kind").and_then(Json::as_str) == Some("span") {
            if let (Some(name), Some(ms)) = (
                event.get("name").and_then(Json::as_str),
                event.get("ms").and_then(Json::as_f64),
            ) {
                *s.span_ms.entry(name.to_string()).or_default() += ms;
            }
        }
    }
}

impl SpanSink {
    /// Installs a handle to this sink as the program's only sink.
    pub fn attach(&self) {
        snapea_obs::sink::install(Box::new(self.clone()));
    }

    /// Removes every installed sink.
    pub fn detach() {
        snapea_obs::sink::clear();
    }

    /// Summed duration of the spans named `name`, milliseconds.
    pub fn span_ms(&self, name: &str) -> f64 {
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.span_ms.get(name).copied().unwrap_or(0.0)
    }
}

/// The program counters the traced run reads.
pub const COUNTERS: [&str; 8] = [
    "par/tasks",
    "par/invocations",
    "exec/lane_windows",
    "exec/scalar_windows",
    "exec/gather_cache_hits",
    "exec/gather_cache_misses",
    "optimizer/probes",
    "optimizer/kernels_profiled",
];

/// A reading of [`COUNTERS`].
#[derive(Debug, Clone, Copy)]
pub struct Snapshot([u64; COUNTERS.len()]);

impl Snapshot {
    /// Reads every counter now.
    pub fn take() -> Self {
        Self(COUNTERS.map(|c| snapea_obs::counter(c).get()))
    }
}

/// Counter increments accumulated over the traced sections.
#[derive(Debug, Clone, Default)]
pub struct Deltas(BTreeMap<&'static str, u64>);

impl Deltas {
    /// Adds the increments since `before`.
    pub fn add_since(&mut self, before: Snapshot) {
        let now = Snapshot::take();
        for (i, name) in COUNTERS.iter().enumerate() {
            *self.0.entry(name).or_default() += now.0[i].saturating_sub(before.0[i]);
        }
    }

    /// The accumulated increment of `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}
