//! Self-tests for the benchmark harness: percentile choice, self time
//! from nested spans, failure counting, the result line, the peak-memory
//! reset, and agreement between `BENCHMARK.json` and the metrics the
//! harness emits.

use perfbench::ledger::{per_layer_names, END_TO_END};
use perfbench::report::{metric_from_comments, metric_from_line, result_line, Metrics, Tally};
use perfbench::stats::{beyond, median, tail, Histogram, MIN_BEYOND};
use perfbench::trace::{self_by_layer, self_times, Span, Tracer, NO_PARENT, REQUEST};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        req: 0,
    }
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let t = tail(&samples).expect("1000 samples have a p99");
    assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
    assert_eq!(beyond(99.0, 1000), 10);

    // 100 samples: p99 and p95 have too few beyond them, p90 has ten.
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(beyond(95.0, 100), 5);
    let t = tail(&samples).expect("100 samples have a p90");
    assert_eq!((t.pct, t.value, t.n), (90.0, 90.0, 100));
    assert!(beyond(t.pct, t.n) >= MIN_BEYOND);

    // Too few samples for any tail, even the median.
    assert_eq!(tail(&[1.0; 15]), None);
    assert_eq!(tail(&[]), None);
}

#[test]
fn histogram_percentiles_and_tail_match_exact_nearest_rank_to_a_tenth_of_a_percent() {
    // Durations from 0.5 us to about 2 s, out of order.
    let samples: Vec<f64> = (0..5000u64)
        .map(|i| 0.5 * 1.003f64.powi(((i * 7919) % 5000) as i32))
        .collect();
    let mut h = Histogram::default();
    for &s in &samples {
        h.record(s);
    }
    let mut sorted = samples.clone();
    sorted.sort_by(f64::total_cmp);
    for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
        let exact = sorted[((p / 100.0 * 5000.0) as usize).clamp(1, 5000) - 1];
        let got = h.percentile(p).expect("not empty");
        assert!(
            (got / exact - 1.0).abs() < 1e-3,
            "p{p}: histogram {got}, exact {exact}"
        );
    }

    let (t, exact) = (h.tail().expect("a p99"), tail(&samples).expect("a p99"));
    assert_eq!((t.pct, t.n), (exact.pct, exact.n));
    assert!((t.value / exact.value - 1.0).abs() < 1e-3);

    let empty = Histogram::default();
    assert_eq!((empty.percentile(50.0), empty.tail()), (None, None));
}

#[test]
fn median_is_nearest_rank() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span(REQUEST, 0, 100, NO_PARENT),
        span("tokenizer.token_set", 10, 30, 0),
        span("intern.intern_set", 25, 50, 0), // overlaps its sibling
        span("email.parse", 12, 20, 1),
        span("serve.open", 200, 260, NO_PARENT), // outside any request
    ];
    // Root: 100 - |[10, 50)| = 60; first child: 20 - 8 = 12.
    assert_eq!(self_times(&spans), vec![60, 12, 25, 8, 60]);

    let layers = self_by_layer(&spans);
    assert_eq!(layers.get("bench"), Some(&60));
    assert_eq!(layers.get("tokenizer"), Some(&12));
    assert_eq!(layers.get("intern"), Some(&25));
    assert_eq!(layers.get("email"), Some(&8));
    assert_eq!(
        layers.get("serve"),
        None,
        "spans outside requests stay out of the ledger"
    );
}

#[test]
fn children_clipped_to_their_parent() {
    let spans = [span("a.x", 10, 20, NO_PARENT), span("b.y", 5, 15, 0)];
    assert_eq!(self_times(&spans)[0], 5);
}

#[test]
fn tracer_nests_spans_and_is_silent_when_disabled() {
    let mut tr = Tracer::new(true);
    tr.begin(REQUEST, 7);
    let v = tr.span("email.parse", 7, || 41 + 1);
    tr.end();
    assert_eq!(v, 42);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
    assert_eq!((spans[0].req, spans[1].req), (7, 7));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let mut off = Tracer::new(false);
    off.begin(REQUEST, 0);
    off.span("email.parse", 0, || ());
    off.end();
    assert!(off.spans().is_empty());
}

#[test]
fn failed_ratio_counts_errors_and_check_failures_over_attempts() {
    let t = Tally {
        attempted: 10,
        errors: 1,
        check_failures: 2,
    };
    assert_eq!(t.failed(), 3);
    assert!((t.failed_ratio() - 0.3).abs() < 1e-12);
    assert!(!t.correct());

    let capped = Tally {
        attempted: 2,
        errors: 2,
        check_failures: 5,
    };
    assert_eq!(capped.failed(), 2, "failures never exceed attempts");
    assert_eq!(capped.failed_ratio(), 1.0);

    let clean = Tally {
        attempted: 5,
        ..Tally::default()
    };
    assert!(clean.correct());
    assert_eq!(clean.failed_ratio(), 0.0);

    assert!(
        !Tally::default().correct(),
        "nothing attempted is not a pass"
    );
    assert_eq!(Tally::default().failed_ratio(), 0.0);
}

#[test]
fn result_line_has_the_four_keys_and_round_trips_values() {
    let mut m = Metrics::default();
    m.push("setup_s", 0.8127, "s");
    m.push("throughput_per_s", 7311.041237172136, "op/s");
    let t = Tally {
        attempted: 1000,
        ..Tally::default()
    };
    let line = result_line(&t, &m);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {")
    );
    assert!(line.ends_with("}}"));
    assert_eq!(metric_from_line(&line, "setup_s"), Some(0.8127));
    assert_eq!(
        metric_from_line(&line, "throughput_per_s"),
        Some(7311.041237172136)
    );
    assert_eq!(metric_from_line(&line, "missing"), None);

    let comments: String = m.table().lines().map(|l| format!("# {l}\n")).collect();
    let output = format!("# setup_s_total  1.5  s\n{comments}{line}\n");
    assert_eq!(
        metric_from_comments(&output, "throughput_per_s"),
        Some(7311.0412)
    );
    assert_eq!(metric_from_comments(&output, "setup_s"), Some(0.8127));
    assert_eq!(metric_from_comments(&output, "missing"), None);
}

#[cfg(target_os = "linux")]
#[test]
fn peak_memory_reset_forgets_freed_tables() {
    use perfbench::mem::{peak_rss_mib, reset_peak, trim_heap};
    let table = vec![1u8; 96 << 20];
    std::hint::black_box(&table);
    let with_table = peak_rss_mib();
    drop(table);
    trim_heap();
    reset_peak().expect("clear_refs is writable on Linux");
    let after = peak_rss_mib();
    assert!(
        after + 64.0 < with_table,
        "peak {with_table} MiB with the table, {after} MiB after the reset"
    );
}

/// The values of `field` in one top-level array of `BENCHMARK.json`.
fn field_in(json: &str, key: &str, field: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split(&format!("\"{field}\": \""))
        .skip(1)
        .map(|s| s[..s.find('"').expect("value closes")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let strings = |v: Vec<(String, &str)>| -> (Vec<String>, Vec<String>) {
        v.into_iter().map(|(n, u)| (n, u.to_string())).unzip()
    };
    let (names, units) = strings(
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect(),
    );
    assert_eq!(field_in(&json, "end_to_end", "name"), names);
    assert_eq!(field_in(&json, "end_to_end", "unit"), units);
    let (names, units) = strings(per_layer_names());
    assert_eq!(field_in(&json, "per_layer", "name"), names);
    assert_eq!(field_in(&json, "per_layer", "unit"), units);
    let workloads: Vec<String> = perfbench::WORKLOADS.iter().map(|w| w.to_string()).collect();
    assert_eq!(field_in(&json, "workloads", "name"), workloads);
}
