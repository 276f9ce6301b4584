//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around each call the benchmark makes into a
//! layer's public functions. A disabled tracer records nothing, so the same
//! workload code runs traced and untraced. Spans are kept in memory and
//! written out as Chrome trace-event JSON when the run ends.

use std::time::Instant;

use cm_json::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stable `layer.operation` name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle for an open span; closing it out of order is a programming error.
#[must_use]
pub struct Open(Option<usize>);

/// Records nested spans when enabled; does nothing when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(idx), "span {} closed out of order", self.spans[idx].name);
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in ms: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Summed self time (ms) of every span named `name`.
    pub fn total_self_ms(&self, name: &str) -> f64 {
        let own = self.self_ms();
        self.spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, ms)| ms).sum()
    }

    /// Durations (ms) of every span named `name`, in opening order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Chrome trace-event JSON (complete events, microsecond timestamps),
    /// loadable in `chrome://tracing` or Perfetto.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.to_owned())),
                    ("cat", Json::Str(s.name.split('.').next().unwrap_or("").to_owned())),
                    ("ph", Json::Str("X".to_owned())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::Str("ms".into()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        t.time("child", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(root);
        let own = t.self_ms();
        assert!((own[0] + own[1] - t.spans()[0].ms()).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
