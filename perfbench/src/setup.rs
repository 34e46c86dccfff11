//! Shared run context, set-up timing, the timed-loop meter and the
//! workload outcome.

use crate::mem;
use crate::report::{Metrics, Tally};
use crate::stats::{median, Histogram};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Each run builds its set-up at least this many times; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 3;
/// A quick set-up is built again, up to [`SETUP_MAX_REPEATS`] times,
/// until the builds add up to this long.
const SETUP_MIN_TOTAL_S: f64 = 1.0;
/// Most set-up builds per run.
const SETUP_MAX_REPEATS: usize = 9;

/// What a workload is given.
pub struct RunCtx {
    /// Input seed: every message, id set, batch and org configuration
    /// derives from it.
    pub seed: u64,
    /// Length of the measuring phase.
    pub measure: Duration,
    /// Span recorder (disabled in the untraced run).
    pub tracer: Tracer,
    /// Scratch directory for the packed model image.
    pub out_dir: PathBuf,
    /// Worker threads the program may use (`SB_THREADS`, org shards).
    pub threads: usize,
}

impl RunCtx {
    /// Whether the measuring phase that began at `start` is over.
    pub fn done(&self, start: Instant) -> bool {
        start.elapsed() >= self.measure
    }
}

/// Wall time of each named set-up step, over every set-up of a run.
#[derive(Debug, Default)]
pub struct SetupClock {
    /// Milliseconds per step name, one entry per set-up.
    pub steps: BTreeMap<&'static str, Vec<f64>>,
    /// Seconds per whole set-up.
    pub totals: Vec<f64>,
}

impl SetupClock {
    /// Time `f` as set-up step `name` (also a span when tracing).
    pub fn step<R>(&mut self, tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> R {
        let rep = self.totals.len() as u64;
        let t0 = Instant::now();
        let r = tr.span(name, rep, f);
        self.record(name, t0.elapsed().as_secs_f64() * 1e3);
        r
    }

    /// Record a step timed elsewhere.
    pub fn record(&mut self, name: &'static str, ms: f64) {
        self.steps.entry(name).or_default().push(ms);
    }

    /// Build the set-up [`SETUP_REPEATS`] times or more (see
    /// [`SETUP_MIN_TOTAL_S`]), timing each, and keep the last. Earlier
    /// copies are dropped before the next is built.
    pub fn repeat<S, E>(
        &mut self,
        tr: &mut Tracer,
        mut build: impl FnMut(&mut SetupClock, &mut Tracer) -> Result<S, E>,
    ) -> Result<S, E> {
        let mut last = None;
        while self.totals.len() < SETUP_REPEATS
            || (self.totals.iter().sum::<f64>() < SETUP_MIN_TOTAL_S
                && self.totals.len() < SETUP_MAX_REPEATS)
        {
            drop(last.take());
            let t0 = Instant::now();
            let s = build(self, tr)?;
            self.totals.push(t0.elapsed().as_secs_f64());
            last = Some(s);
        }
        Ok(last.expect("SETUP_REPEATS is at least 1"))
    }
}

/// Times a workload's loop in chunks.
///
/// Every workload repeats identical work: epoch after epoch the same
/// messages, operations, batches or organization, cut into the same
/// chunks, each named by its `slot`. On a shared host, other tenants only
/// ever slow a chunk down, and by up to half in phases lasting seconds,
/// so the time figures come from the fastest instance of each slot:
/// throughput is their work over their summed wall time, and the median
/// latency is taken over their calls. The meter keeps only those
/// instances' calls and a fixed-size histogram of every call, so its
/// memory does not grow with the run.
#[derive(Debug, Default)]
pub struct Meter {
    started: Option<(usize, Instant)>,
    /// Call durations of the current chunk, in microseconds.
    current: Vec<f64>,
    /// Per slot, the fastest instance so far: wall time, work and calls.
    best: BTreeMap<usize, (f64, u64, Vec<f64>)>,
    /// Wall time and work over every chunk.
    all: (f64, u64),
    /// Every call's duration.
    pub calls: Histogram,
}

impl Meter {
    /// Start a chunk of slot `slot`.
    pub fn start(&mut self, slot: usize) {
        self.current.clear();
        self.started = Some((slot, Instant::now()));
    }

    /// Record one call of the current chunk.
    #[inline]
    pub fn call(&mut self, d: Duration) {
        let us = d.as_secs_f64() * 1e6;
        self.current.push(us);
        self.calls.record(us);
    }

    /// End the chunk, which did `work`.
    pub fn stop(&mut self, work: u64) {
        if let Some((slot, t0)) = self.started.take() {
            let wall = t0.elapsed().as_secs_f64();
            self.all.0 += wall;
            self.all.1 += work;
            let best = self
                .best
                .entry(slot)
                .or_insert((f64::INFINITY, 0, Vec::new()));
            if wall < best.0 {
                best.0 = wall;
                best.1 = work;
                // The replaced instance's buffer is reused by the next chunk.
                std::mem::swap(&mut best.2, &mut self.current);
            }
        }
    }

    /// End a chunk whose work is its calls.
    pub fn stop_per_call(&mut self) {
        self.stop(self.current.len() as u64);
    }

    /// Work per second over the fastest chunk of each slot.
    pub fn rate(&self) -> f64 {
        let wall: f64 = self.best.values().map(|b| b.0).sum();
        let work: u64 = self.best.values().map(|b| b.1).sum();
        work as f64 / wall.max(f64::MIN_POSITIVE)
    }

    /// Median call duration in microseconds over the fastest chunk of
    /// each slot.
    pub fn latency_p50_us(&self) -> f64 {
        let calls: Vec<f64> = self
            .best
            .values()
            .flat_map(|b| b.2.iter().copied())
            .collect();
        median(&calls)
    }

    /// Work per second over every chunk, slow ones included.
    pub fn mean_rate(&self) -> f64 {
        self.all.1 as f64 / self.all.0.max(f64::MIN_POSITIVE)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Set-up timings.
    pub setup: SetupClock,
    /// Requests issued inside timed loops (messages, operations,
    /// candidates, or offered org messages).
    pub work: u64,
    /// The timed loop's chunks and calls.
    pub meter: Meter,
    /// For each `serve.classify_ids` call in order, in a traced run only:
    /// whether the tenant's stack changed since its previous classify.
    pub classify_after_write: Vec<bool>,
    /// The workload's own end-to-end figures, under their workload names.
    pub named: Metrics,
    /// Counts and samples per layer that spans do not carry.
    pub layer: Metrics,
}

impl Outcome {
    /// Work per second (see [`Meter::rate`]).
    pub fn throughput(&self) -> f64 {
        self.meter.rate()
    }

    /// Median call duration (see [`Meter::latency_p50_us`]).
    pub fn latency_p50_us(&self) -> f64 {
        self.meter.latency_p50_us()
    }

    /// Build the set-up through [`SetupClock::repeat`].
    pub fn set_up<S, E>(
        &mut self,
        tr: &mut Tracer,
        build: impl FnMut(&mut SetupClock, &mut Tracer) -> Result<S, E>,
    ) -> Result<S, E> {
        self.setup.repeat(tr, build)
    }

    /// Mark the start of the measuring phase, once every input and
    /// expected output exists and the harness's own tables are dropped.
    /// Records the peak memory so far as `harness_peak_rss_mib`, returns
    /// freed heap to the system and resets the peak, so that
    /// `peak_rss_mib` covers the measuring phase only.
    pub fn begin_measuring(&mut self) -> Result<Instant, String> {
        self.named
            .push("harness_peak_rss_mib", mem::peak_rss_mib(), "MiB");
        mem::trim_heap();
        mem::reset_peak()?;
        self.named
            .push("measure_start_rss_mib", mem::rss_mib(), "MiB");
        Ok(Instant::now())
    }
}
