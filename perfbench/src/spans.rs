//! Spans and counters recorded by the benchmark around every call into a
//! layer of the library.  Nothing inside the library is instrumented:
//! each span brackets one public call made from the benchmark's client.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers of a request, named after the modules they call into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `explore`, `explore_board`.
    Explore,
    /// `explore_degraded`, `explore_degraded_board`.
    ExploreDegraded,
    /// `ExplorerSolution::realize`, `BoardExploration::mapping`.
    Realize,
    /// `mapper::compile`, `compile_board`.
    Compile,
    /// `execute` on the fast tier (includes per-column profiling).
    ExecuteFast,
    /// `execute` on the interpreted tier.
    ExecuteInterpreted,
    /// `execute_faulted`.
    ExecuteFaulted,
    /// `RingBufferSink::events`, `attribute`, `bottlenecks`,
    /// `execution_energy`.
    Analyze,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Explore,
        Layer::ExploreDegraded,
        Layer::Realize,
        Layer::Compile,
        Layer::ExecuteFast,
        Layer::ExecuteInterpreted,
        Layer::ExecuteFaulted,
        Layer::Analyze,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Explore => "explore",
            Layer::ExploreDegraded => "explore_degraded",
            Layer::Realize => "realize",
            Layer::Compile => "compile",
            Layer::ExecuteFast => "execute.fast",
            Layer::ExecuteInterpreted => "execute.interpreted",
            Layer::ExecuteFaulted => "execute_faulted",
            Layer::Analyze => "analyze",
        }
    }
}

/// One timed interval.  `layer` is `None` for the span of a whole
/// request, which is the parent of every layer span with the same
/// `request` id.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id (position in the run).
    pub request: u64,
    /// The layer called, or `None` for the request itself.
    pub layer: Option<Layer>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans and named counters while enabled; does nothing but run
/// the closure while disabled, so untraced requests pay for no clock
/// reads.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    request: u64,
    /// Spans recorded so far, in completion order.
    pub spans: Vec<Span>,
    /// Counter totals by name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A disabled recorder.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            enabled: false,
            request: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start recording request `request` (or stop recording, when
    /// `enabled` is false).
    pub fn begin(&mut self, request: u64, enabled: bool) {
        self.request = request;
        self.enabled = enabled;
    }

    /// Record a span for `layer` around `f`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            layer: Some(layer),
            start_ns,
            end_ns,
        });
        out
    }

    /// Record the span of the whole current request.
    pub fn request_span(&mut self, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            request: self.request,
            layer: None,
            start_ns,
            end_ns,
        });
    }

    /// Add `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += value;
        }
    }
}
