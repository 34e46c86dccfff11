//! In-memory span recorder and the per-layer self-time ledger.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public functions; nothing inside the program is instrumented.
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Name of the root span around one request of a timed loop. Layer self
/// times are summed over the spans under these roots only, so set-up and
/// between-epoch work stay out of the per-request ledger.
pub const REQUEST: &str = "bench.request";

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Span name, `<layer>.<function>` (the layer is the part before the
    /// first dot).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id: the message, operation, batch or week index.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, req);
        let r = f();
        self.end();
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations.
    pub busy_ns: u64,
    /// Each span's duration, in microseconds, in record order.
    pub durations_us: Vec<f64>,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            if let Some(c) = children.get_mut(s.parent as usize) {
                c.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Aggregate spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.busy_ns += s.dur_ns();
        e.durations_us.push(s.dur_ns() as f64 / 1e3);
    }
    out
}

/// Self time summed per layer (the name up to its first dot) over the
/// spans under [`REQUEST`] roots. The request spans' own self time is the
/// harness's share, under layer `bench`.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut root = vec![0usize; spans.len()];
    let mut out = BTreeMap::new();
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        root[i] = match s.parent {
            NO_PARENT => i,
            p => root.get(p as usize).copied().unwrap_or(i),
        };
        if spans[root[i]].name == REQUEST {
            *out.entry(s.layer()).or_insert(0) += own;
        }
    }
    out
}

/// The span file: one tab-separated line per span with its index, parent
/// (`-` for a root), name, request id, start and end in nanoseconds.
pub fn span_file(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tname\treq\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.name, s.req, s.start_ns, s.end_ns
        );
    }
    out
}
