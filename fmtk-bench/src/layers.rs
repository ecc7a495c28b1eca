//! The metric tables: end-to-end metrics, and per-layer metrics with
//! where each comes from. `BENCHMARK.json` lists the same names (a test
//! keeps the two in step).

use crate::trace::{counter_max, counter_total, self_times, SpanRec, REQUEST};
use std::collections::{BTreeMap, BTreeSet};

/// `(name, unit)` of the end-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Mean self time of span `.0`, in ms, per request that opened it.
    Time(&'static str),
    /// Total of counter `counter` over the requests' layer spans, per
    /// request that opened span `per` (every request when `None`).
    Count {
        counter: &'static str,
        per: Option<&'static str>,
    },
    /// Total of `num` over the sum of the totals of `den` (0 if that
    /// is 0).
    Ratio {
        num: &'static str,
        den: &'static [&'static str],
    },
    /// Largest value of a counter noted on any request's layer span.
    Max(&'static str),
    /// Measured by the runner outside the mirror.
    Runner,
}

#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
}

const fn time(name: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit: "ms",
        better: "lower",
        source: Source::Time(name),
    }
}

const fn count(
    name: &'static str,
    counter: &'static str,
    per: Option<&'static str>,
) -> LayerMetric {
    LayerMetric {
        name,
        unit: "count",
        better: "lower",
        source: Source::Count { counter, per },
    }
}

const fn ratio(
    name: &'static str,
    better: &'static str,
    num: &'static str,
    den: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit: "ratio",
        better,
        source: Source::Ratio { num, den },
    }
}

const fn runner(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: "lower",
        source: Source::Runner,
    }
}

const EVAL: Option<&str> = Some("datalog.eval_ms");
const POLL: Option<&str> = Some("incr.poll_ms");
const RANK: Option<&str> = Some("games.rank_ms");
const CENSUS: Option<&str> = Some("locality.census_ms");

/// Every per-layer metric, in `BENCHMARK.json` order. Counts are per
/// request that calls the layer; `store.*` and `index.*` are per
/// request. A layer a workload does not call reports 0.
pub const PER_LAYER: [LayerMetric; 41] = [
    runner("cli.output_bytes", "bytes"),
    runner("cli.unattributed_ms", "ms"),
    time("structures.parse_ms"),
    time("queries.parse_ms"),
    time("magic.rewrite_ms"),
    time("magic.answers_ms"),
    ratio(
        "magic.derivations_per_answer",
        "lower",
        "datalog.derivations",
        &["magic.answers"],
    ),
    time("datalog.eval_ms"),
    count("datalog.rounds", "datalog.rounds", EVAL),
    count("datalog.derivations", "datalog.derivations", EVAL),
    ratio(
        "datalog.dedup_ratio",
        "higher",
        "datalog.output_tuples",
        &["datalog.derivations"],
    ),
    count("datalog.delta_facts", "queries.datalog.delta_facts", EVAL),
    LayerMetric {
        better: "higher",
        ..count(
            "datalog.parallel_jobs",
            "queries.datalog.parallel_jobs",
            EVAL,
        )
    },
    LayerMetric {
        unit: "bytes",
        ..count("store.arena_bytes", "queries.store.arena_bytes", None)
    },
    count("store.rehashes", "queries.store.rehashes", None),
    count("store.probe_allocs", "queries.store.probe_allocs", None),
    count("index.probes", "queries.index.probes", None),
    time("incr.build_ms"),
    time("incr.first_poll_ms"),
    time("incr.apply_ms"),
    time("incr.poll_ms"),
    time("incr.lookup_ms"),
    count("incr.derived", "incr.derived", POLL),
    count("incr.overdeleted", "incr.overdeleted", POLL),
    count("incr.rederived", "incr.rederived", POLL),
    count("incr.rounds", "incr.rounds", POLL),
    ratio(
        "incr.rederive_ratio",
        "lower",
        "incr.rederived",
        &["incr.overdeleted"],
    ),
    count("store.tombstones", "queries.store.tombstones", None),
    count("store.compactions", "queries.store.compactions", None),
    time("games.rank_ms"),
    time("games.optimal_play_ms"),
    count(
        "games.positions_expanded",
        "games.solver.positions_expanded",
        RANK,
    ),
    ratio(
        "games.memo_hit_ratio",
        "higher",
        "games.solver.memo_hits",
        &["games.solver.memo_hits", "games.solver.memo_misses"],
    ),
    time("locality.census_ms"),
    count("locality.balls_expanded", "locality.balls_expanded", CENSUS),
    count("locality.types_interned", "locality.types_interned", CENSUS),
    LayerMetric {
        source: Source::Max("locality.max_ball_size"),
        ..count("locality.max_ball_size", "", None)
    },
    time("zeroone.decide_mu_ms"),
    LayerMetric {
        name: "request.self_ms",
        ..time(REQUEST)
    },
    runner("trace.overhead_pct", "%"),
    LayerMetric {
        better: "higher",
        ..runner("trace.requests", "count")
    },
];

/// Requests (distinct ids) that opened a span named `name` under a
/// request; every request when `name` is `None`.
fn requests_with(spans: &[SpanRec], name: Option<&str>) -> usize {
    spans
        .iter()
        .filter(|s| match name {
            Some(n) => s.name == n && s.parent == Some(REQUEST),
            None => s.parent.is_none() && s.name == REQUEST,
        })
        .map(|s| s.request)
        .collect::<BTreeSet<_>>()
        .len()
}

fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Values of the mirror-measured per-layer metrics: times from
/// `timed` (every traced pass), counts from `counted` (one pass, so
/// they repeat exactly for a seed). `Runner` metrics are left out.
pub fn layer_values(timed: &[SpanRec], counted: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let st = self_times(timed);
    let total = |name: &str| counter_total(counted, name) as f64;
    PER_LAYER
        .iter()
        .filter_map(|m| {
            let v = match m.source {
                Source::Time(span) => st.get(span).map_or(0.0, |&(us, n)| per(us / 1e3, n)),
                Source::Count { counter, per: p } => per(total(counter), requests_with(counted, p)),
                Source::Ratio { num, den } => {
                    let d: f64 = den.iter().map(|c| total(c)).sum();
                    if d == 0.0 {
                        0.0
                    } else {
                        total(num) / d
                    }
                }
                Source::Max(counter) => counter_max(counted, counter) as f64,
                Source::Runner => return None,
            };
            Some((m.name, v))
        })
        .collect()
}
