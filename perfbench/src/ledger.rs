//! The benchmark's metric sets: end-to-end figures from the untraced run,
//! and the per-layer ledger from the traced run.

use crate::mem;
use crate::report::Metrics;
use crate::setup::Outcome;
use crate::stats::{median, tail_value};
use crate::trace::{by_name, self_by_layer, Span, REQUEST};
use std::fmt::Write as _;

/// End-to-end metrics, every workload: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "op/s"),
    ("latency_p50_us", "us"),
];

/// Layers whose self time the traced run reports, per request.
const LAYERS: [&str; 7] = [
    "email",
    "tokenizer",
    "intern",
    "serve",
    "core",
    "mailflow",
    "bench",
];

/// Functions whose spans get `calls`, `busy_ms` and `p50_us`.
const CALLS: [&str; 7] = [
    "email.parse",
    "tokenizer.token_set",
    "intern.intern_set",
    "serve.classify_ids",
    "serve.train",
    "serve.untrain",
    "core.roni.screen_ids",
];

/// Set-up steps reported as `<step>_ms` (median over the run's set-ups).
const SETUP_STEPS: [&str; 5] = [
    "corpus.generate",
    "filter.train_base",
    "filter.image.pack",
    "core.roni.new",
    "mailflow.try_new",
];

/// Per-layer metrics, every workload (0 where a workload does not call
/// the layer): name and unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for f in CALLS {
        v.push((format!("{f}.calls"), "count"));
        v.push((format!("{f}.busy_ms"), "ms"));
        v.push((format!("{f}.p50_us"), "us"));
    }
    for (name, unit) in [
        ("tokenizer.token_set.p99_us", "us"),
        ("tokenizer.token_set.tokens_per_msg", "tokens"),
        ("intern.new_ids", "count"),
        ("intern.hit_ratio", "ratio"),
        ("filter.image.checksum_ms", "ms"),
        ("filter.image.parse_ms", "ms"),
        ("serve.open_ms", "ms"),
        ("serve.classify_ids.p99_us", "us"),
        ("serve.classify_ids.warm_p50_us", "us"),
        ("serve.classify_ids.after_write_p50_us", "us"),
        ("core.roni.screen_ids.candidates", "count"),
        ("core.roni.screen_ids.tokens_per_candidate", "tokens"),
        ("core.roni.rejected_dictionary", "ratio"),
        ("core.roni.rejected_ordinary", "ratio"),
        ("mailflow.step_week.calls", "count"),
        ("mailflow.step_week.p50_ms", "ms"),
        ("mailflow.offered", "count"),
        ("mailflow.accepted", "count"),
        ("mailflow.bounced", "count"),
        ("mailflow.deferred", "count"),
    ] {
        v.push((name.to_string(), unit));
    }
    for s in SETUP_STEPS {
        v.push((format!("{s}_ms"), "ms"));
    }
    for l in LAYERS {
        v.push((format!("{l}.self_us_per_req"), "us"));
    }
    for (name, unit) in [
        ("trace.untraced_us_per_req", "us"),
        ("trace.traced_us_per_req", "us"),
        ("trace.overhead_pct", "%"),
        ("trace.accounted_pct", "%"),
        ("trace.spans", "count"),
    ] {
        v.push((name.to_string(), unit));
    }
    v
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(out: &Outcome) -> Metrics {
    let values = [
        median(&out.setup.totals),
        mem::peak_rss_mib(),
        out.throughput(),
        out.latency_p50_us(),
    ];
    let mut m = Metrics::default();
    for (&(name, unit), v) in END_TO_END.iter().zip(values) {
        m.push(name, v, unit);
    }
    m
}

/// The per-layer ledger of a traced run. `untraced_throughput` is the
/// untraced twin's `mean_throughput_per_s`: self times are summed over
/// every request, so they are compared with time per request over every
/// chunk, slow ones included.
pub fn per_layer(out: &Outcome, spans: &[Span], untraced_throughput: f64) -> Metrics {
    let names = by_name(spans);
    let selfs = self_by_layer(spans);
    let reqs = names.get(REQUEST).map_or(0, |s| s.calls).max(1) as f64;
    let durations = |n: &str| -> Vec<f64> {
        names
            .get(n)
            .map(|s| s.durations_us.clone())
            .unwrap_or_default()
    };
    let mut got = Metrics::default();
    for f in CALLS {
        let s = names.get(f).cloned().unwrap_or_default();
        got.push(format!("{f}.calls"), s.calls as f64, "count");
        got.push(format!("{f}.busy_ms"), s.busy_ns as f64 / 1e6, "ms");
        got.push(format!("{f}.p50_us"), median(&durations(f)), "us");
    }
    got.push(
        "tokenizer.token_set.p99_us",
        tail_value(&durations("tokenizer.token_set")),
        "us",
    );
    got.push(
        "filter.image.checksum_ms",
        median(&durations("filter.image.checksum")) / 1e3,
        "ms",
    );
    got.push(
        "filter.image.parse_ms",
        median(&durations("filter.image.parse")) / 1e3,
        "ms",
    );
    got.push(
        "serve.open_ms",
        median(&durations("serve.open")) / 1e3,
        "ms",
    );
    let classify = durations("serve.classify_ids");
    got.push("serve.classify_ids.p99_us", tail_value(&classify), "us");
    if classify.len() == out.classify_after_write.len() {
        let split = |want: bool| -> Vec<f64> {
            classify
                .iter()
                .zip(&out.classify_after_write)
                .filter(|(_, &w)| w == want)
                .map(|(&d, _)| d)
                .collect()
        };
        got.push(
            "serve.classify_ids.warm_p50_us",
            median(&split(false)),
            "us",
        );
        got.push(
            "serve.classify_ids.after_write_p50_us",
            median(&split(true)),
            "us",
        );
    }
    let weeks = durations("mailflow.step_week");
    got.push("mailflow.step_week.calls", weeks.len() as f64, "count");
    got.push("mailflow.step_week.p50_ms", median(&weeks) / 1e3, "ms");
    for s in SETUP_STEPS {
        if let Some(v) = out.setup.steps.get(s) {
            got.push(format!("{s}_ms"), median(v), "ms");
        }
    }
    let mut accounted = 0.0;
    for l in LAYERS {
        let us = selfs.get(l).copied().unwrap_or(0) as f64 / 1e3 / reqs;
        if l != "bench" {
            accounted += us;
        }
        got.push(format!("{l}.self_us_per_req"), us, "us");
    }
    // Throughput counts candidates and offered messages where one request
    // is a batch or a week, so scale it by work per request.
    let work_per_req = out.work as f64 / reqs;
    let per_req = |throughput: f64| {
        if throughput > 0.0 {
            work_per_req * 1e6 / throughput
        } else {
            0.0
        }
    };
    let untraced_per_req = per_req(untraced_throughput);
    let traced_per_req = per_req(out.meter.mean_rate());
    got.push("trace.untraced_us_per_req", untraced_per_req, "us");
    got.push("trace.traced_us_per_req", traced_per_req, "us");
    got.push(
        "trace.overhead_pct",
        pct(traced_per_req - untraced_per_req, untraced_per_req),
        "%",
    );
    got.push("trace.accounted_pct", pct(accounted, untraced_per_req), "%");
    got.push("trace.spans", spans.len() as f64, "count");
    got.0.extend(out.layer.0.iter().cloned());

    // Emit exactly the declared set, in declared order, 0 where absent.
    let mut m = Metrics::default();
    for (name, unit) in per_layer_names() {
        m.push(name.clone(), got.get(&name).unwrap_or(0.0), unit);
    }
    m
}

/// The self-time table of a per-layer ledger: each layer's self time per
/// request and its share, then the tracing overhead.
pub fn self_time_table(ledger: &Metrics) -> String {
    let rows: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&l| {
            (
                l,
                ledger.get(&format!("{l}.self_us_per_req")).unwrap_or(0.0),
            )
        })
        .filter(|&(_, us)| us > 0.0)
        .collect();
    let total: f64 = rows.iter().map(|&(_, us)| us).sum();
    let mut out = format!(
        "{:<10}  {:>15}  {:>6}\n",
        "layer", "self_us_per_req", "share"
    );
    for (layer, us) in rows {
        let _ = writeln!(out, "{layer:<10}  {us:>15.3}  {:>5.1}%", pct(us, total));
    }
    let overhead = ledger.get("trace.overhead_pct").unwrap_or(0.0);
    let _ = writeln!(out, "tracing overhead vs the untraced run: {overhead:.2}%");
    out
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}
