//! The bench-side wall-clock [`Recorder`]: it stamps every telemetry
//! event the engine emits with `Instant::now()` and folds the stamps
//! into per-request spans (arrival → first probe → retrial → verdict) and
//! event-loop gaps (verdict → next arrival). It is passed to
//! `run_experiment_traced` / `OnlineEngine`; nothing inside the program
//! changes. [`Mark`] is its disabled sibling, used to split an untraced
//! run into set-up and decisions.

use anycast_telemetry::{Event, Recorder};
use std::cell::Cell;
use std::time::Instant;

/// A disabled recorder that stamps the wall time at which the simulator
/// first asks whether it is enabled. `run_experiment_traced` asks once,
/// inside its set-up after the route provider and link state are built
/// and before any event runs, so the stamp splits the call into set-up
/// and decisions. Being disabled, it keeps the run on `run_experiment`'s
/// own path (`run_experiment` is `run_experiment_traced` with a disabled
/// recorder): no event is ever built or recorded.
#[derive(Default)]
pub struct Mark(Cell<Option<Instant>>);

impl Mark {
    fn stamp(&self) {
        if self.0.get().is_none() {
            self.0.set(Some(Instant::now()));
        }
    }

    /// Wall seconds from the stamp to `end`: the run's decision work when
    /// `end` is taken as the run returns. Zero if nothing asked.
    pub fn secs_until(&self, end: Instant) -> f64 {
        self.0
            .get()
            .map_or(0.0, |t| end.saturating_duration_since(t).as_secs_f64())
    }
}

impl Recorder for Mark {
    fn enabled(&self) -> bool {
        self.stamp();
        false
    }

    fn record(&mut self, _time_secs: f64, _event: Event) {}
}

/// Per-request wall stamps, ns since the recorder was created.
#[derive(Clone, Copy, Default)]
struct Request {
    arrival: u64,
    first_probe: Option<u64>,
    first_retrial: Option<u64>,
    verdict: Option<u64>,
}

/// Span folding over the event stream of one traced run.
pub struct SpanRecorder {
    /// Set-up / decisions split of the traced run, as for [`Mark`].
    pub mark: Mark,
    origin: Instant,
    requests: Vec<Request>,
    probes: u64,
    teardowns: u64,
    /// Sum and count of verdict → next-arrival gaps.
    between_ns: u64,
    between_n: u64,
    last_verdict: Option<u64>,
}

impl SpanRecorder {
    pub fn new() -> Self {
        SpanRecorder {
            mark: Mark::default(),
            origin: Instant::now(),
            requests: Vec::new(),
            probes: 0,
            teardowns: 0,
            between_ns: 0,
            between_n: 0,
            last_verdict: None,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn request(&mut self, id: u64) -> Option<&mut Request> {
        self.requests.get_mut(id as usize)
    }

    fn verdict(&mut self, id: u64, at: u64) {
        if let Some(r) = self.request(id) {
            if r.verdict.is_none() {
                r.verdict = Some(at);
                self.last_verdict = Some(at);
            }
        }
    }
}

/// Folds the stamps of one or more traced runs into span statistics.
pub fn spans_of(recs: &[SpanRecorder]) -> Spans {
    let decided: Vec<&Request> = recs
        .iter()
        .flat_map(|r| &r.requests)
        .filter(|r| r.verdict.is_some())
        .collect();
    let n = decided.len().max(1) as f64;
    let decide = crate::stats::sorted(
        decided
            .iter()
            .map(|r| r.verdict.unwrap_or(r.arrival).saturating_sub(r.arrival) as f64)
            .collect(),
    );
    let first_probe: Vec<f64> = decided
        .iter()
        .filter_map(|r| r.first_probe.map(|p| p.saturating_sub(r.arrival) as f64))
        .collect();
    let retry_total: f64 = decided
        .iter()
        .filter_map(|r| Some(r.verdict?.saturating_sub(r.first_retrial?) as f64))
        .sum();
    let sum = |f: fn(&SpanRecorder) -> u64| recs.iter().map(f).sum::<u64>() as f64;
    Spans {
        decide_mean_ns: crate::stats::mean(&decide),
        decide_p99_ns: crate::stats::tail(&decide, 0.99).map_or(0.0, |p| p.value),
        first_probe_ns: if first_probe.is_empty() {
            0.0
        } else {
            crate::stats::mean(&first_probe)
        },
        retry_ns: retry_total / n,
        probes_per_decision: sum(|r| r.probes) / n,
        teardowns_per_decision: sum(|r| r.teardowns) / n,
        between_ns: sum(|r| r.between_ns) / sum(|r| r.between_n).max(1.0),
    }
}

impl Recorder for SpanRecorder {
    fn enabled(&self) -> bool {
        self.mark.stamp();
        true
    }

    fn record(&mut self, _time_secs: f64, event: Event) {
        let at = self.now();
        match event {
            Event::RequestArrival { request, .. } => {
                if let Some(v) = self.last_verdict.take() {
                    self.between_ns += at.saturating_sub(v);
                    self.between_n += 1;
                }
                let idx = request as usize;
                if self.requests.len() <= idx {
                    self.requests.resize(idx + 1, Request::default());
                }
                self.requests[idx].arrival = at;
            }
            Event::DestinationProbe { request, .. } => {
                self.probes += 1;
                if let Some(r) = self.request(request) {
                    r.first_probe.get_or_insert(at);
                }
            }
            Event::Retrial { request, .. } => {
                if let Some(r) = self.request(request) {
                    r.first_retrial.get_or_insert(at);
                }
            }
            Event::ReservationSetup { request, .. } | Event::Rejection { request, .. } => {
                self.verdict(request, at)
            }
            Event::ReservationTeardown { .. } => self.teardowns += 1,
            _ => {}
        }
    }
}

/// What a traced run's spans say, per decision.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    /// Arrival → verdict wall time (for two-phase signalling this spans
    /// the whole PATH/RESV exchange, interleaved with other events).
    pub decide_mean_ns: f64,
    pub decide_p99_ns: f64,
    /// Arrival → first destination probe: route lookup plus weights.
    pub first_probe_ns: f64,
    /// First retrial → verdict, averaged over all decisions.
    pub retry_ns: f64,
    pub probes_per_decision: f64,
    pub teardowns_per_decision: f64,
    /// Verdict → next arrival: the event loop's work between decisions.
    pub between_ns: f64,
}
