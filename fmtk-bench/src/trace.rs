//! The benchmark's own spans around calls into the program's layers.
//!
//! A span has a name (the per-layer metric it feeds), a request id, a
//! parent (the request span), start and end times, and the `fmt_obs`
//! counter deltas taken around it. Spans stay in memory and are written
//! as Chrome trace-event JSON when the run ends.

use fmt_core::obs;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Name of the span that covers one whole request.
pub const REQUEST: &str = "request";
/// Name of the span that covers a runtime's set-up (churn).
pub const SETUP: &str = "setup";

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub request: usize,
    /// `None` for a top span; layer spans name theirs.
    pub parent: Option<&'static str>,
    pub start_us: f64,
    pub dur_us: f64,
    /// Counters that moved during the span, then values noted on it.
    pub counters: Vec<(String, u64)>,
}

/// Records spans when enabled; when disabled every call goes straight
/// to the layer, which is the untraced mirror.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<SpanRec>,
    request: usize,
    top: Option<(&'static str, Instant)>,
}

fn counter_deltas(before: &obs::Snapshot, after: &obs::Snapshot) -> Vec<(String, u64)> {
    after
        .counters
        .iter()
        .filter_map(|(name, v)| {
            let d = v - before.counter(name).unwrap_or(0);
            (d > 0).then(|| (name.clone(), d))
        })
        .collect()
}

impl Tracer {
    /// A tracer; enabling it also turns on the `fmt_obs` counters.
    pub fn new(enabled: bool) -> Tracer {
        if enabled {
            obs::reset();
            obs::enable();
        } else {
            obs::disable();
        }
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            request: 0,
            top: None,
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens top span `name` (normally [`REQUEST`]) with request id `id`.
    pub fn begin(&mut self, id: usize, name: &'static str) {
        self.request = id;
        self.top = Some((name, Instant::now()));
    }

    /// Closes the open top span and returns its duration in ms.
    pub fn end(&mut self) -> f64 {
        let (name, start) = self.top.take().expect("a top span is open");
        let end = Instant::now();
        if self.enabled {
            self.spans.push(SpanRec {
                name,
                request: self.request,
                parent: None,
                start_us: self.us(start),
                dur_us: self.us(end) - self.us(start),
                counters: Vec::new(),
            });
        }
        end.duration_since(start).as_secs_f64() * 1e3
    }

    /// Attaches `value` under `key` to the last layer span, for a count
    /// the layer returns rather than records in `fmt_obs`.
    pub fn note(&mut self, key: &str, value: u64) {
        if let Some(s) = self.spans.last_mut().filter(|_| self.enabled) {
            s.counters.push((key.to_owned(), value));
        }
    }

    /// Runs `f` as layer `name` of the open request.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let before = obs::snapshot();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let after = obs::snapshot();
        self.spans.push(SpanRec {
            name,
            request: self.request,
            parent: Some(self.top.expect("a top span is open").0),
            start_us: self.us(start),
            dur_us: self.us(end) - self.us(start),
            counters: counter_deltas(&before, &after),
        });
        out
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        if self.enabled {
            obs::disable();
        }
    }
}

/// Per span name: total self time in µs and the number of distinct
/// requests that opened such a span. Self time is a span's duration
/// minus the part of it its child spans cover; request ids must be
/// unique within `spans`.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut children: BTreeMap<usize, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        children.entry(s.request).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, (f64, BTreeSet<usize>)> = BTreeMap::new();
    for s in spans {
        let end = s.start_us + s.dur_us;
        let covered: f64 = children
            .get(&s.request)
            .into_iter()
            .flatten()
            .filter(|c| c.parent == Some(s.name))
            .map(|c| ((c.start_us + c.dur_us).min(end) - c.start_us.max(s.start_us)).max(0.0))
            .sum();
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_us - covered;
        e.1.insert(s.request);
    }
    out.into_iter()
        .map(|(k, (t, reqs))| (k, (t, reqs.len())))
        .collect()
}

/// Sum of counter `name` over the layer spans of requests.
pub fn counter_total(spans: &[SpanRec], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(REQUEST))
        .flat_map(|s| &s.counters)
        .filter(|(n, _)| n == name)
        .map(|(_, v)| v)
        .sum()
}

/// Largest value of counter `name` on any layer span of a request.
pub fn counter_max(spans: &[SpanRec], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(REQUEST))
        .flat_map(|s| &s.counters)
        .filter(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .max()
        .unwrap_or(0)
}

/// Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`).
pub fn to_chrome_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut args = format!("\"request\":{}", s.request);
        if let Some(p) = s.parent {
            args.push_str(&format!(",\"parent\":\"{p}\""));
        }
        for (name, v) in &s.counters {
            args.push_str(&format!(",\"{name}\":{v}"));
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            s.name,
            if s.parent.is_some() {
                "layer"
            } else {
                "request"
            },
            s.start_us,
            s.dur_us,
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, start: f64, dur: f64) -> SpanRec {
        SpanRec {
            name,
            request: 0,
            parent,
            start_us: start,
            dur_us: dur,
            counters: vec![("c".to_owned(), 2)],
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(REQUEST, None, 0.0, 10.0),
            span("a", Some(REQUEST), 1.0, 3.0),
            span("a", Some(REQUEST), 5.0, 2.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[REQUEST], (5.0, 1));
        assert_eq!(st["a"], (5.0, 1));
        // Only layer spans of requests count.
        assert_eq!(counter_total(&spans, "c"), 4);
        assert_eq!(counter_max(&spans, "c"), 2);
        let json = to_chrome_json(&spans);
        assert!(fmt_core::obs::json::parse(&json).is_ok(), "{json}");
    }
}
