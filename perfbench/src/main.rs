//! The repository benchmark: four workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <mci-paper|fattree-34|mci-two-phase|daemon-loopback>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-digests
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; earlier lines carry run metadata and per-step
//! detail. A failed correctness check is named on stderr and makes the
//! exit code 1. See `perfbench/README.md`.

mod des;
mod host;
mod layers;
mod openloop;
mod stats;
mod trace;

use anycast_dac::experiment::{run_experiment, run_experiment_traced, ExperimentConfig};
use anycast_dac::online::{record_arrivals, OnlineArrival, OnlineEngine};
use anycast_net::Topology;
use anycast_telemetry::json::JsonValue;
use anycast_telemetry::NullRecorder;
use des::Des;
use openloop::{Step, HEAVY_RATE, LADDER, LIGHT_RATE};
use stats::{median, sorted, tail};
use std::collections::BTreeMap;
use std::time::Instant;

/// Committed input sets: `--seed n` selects input slot `n % SLOTS`, whose
/// DES digests are committed in `digests.txt`.
const SLOTS: u64 = 64;
/// The seed tuning runs use by default, and the one held out for
/// validating claims (never used while writing a change).
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 33;
/// A run that hangs (a daemon that never drains, say) exits with an
/// error after this long instead of holding its caller.
const WATCHDOG_SECS: u64 = 170;

/// One run's outcome.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    /// Correctness checks that failed, by name.
    broken: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Run {
    fn check(&mut self, name: &str, ok: bool) {
        if !ok && !self.broken.iter().any(|b| b == name) {
            self.broken.push(name.to_string());
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Counts a fixed-rate step toward attempted/failed.
    fn count(&mut self, step: &Step) {
        self.attempted += step.attempted;
        self.failed += step.failed();
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <mci-paper|fattree-34|mci-two-phase|daemon-loopback> \
         --seed <n> --seconds <s> --trace <0|1>\n       perfbench --print-digests"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => out.workload = value(),
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                out.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                out.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--print-digests" => {
                print_digests();
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    out
}

/// Prints `workload slot digest` lines of every input slot for the
/// committed table, from `run_experiment` itself.
fn print_digests() {
    for w in [Des::MciPaper, Des::FatTree, Des::TwoPhase] {
        let topo = des::topology(w);
        for slot in 0..SLOTS {
            let metrics: Vec<_> = des::configs(w, slot)
                .iter()
                .map(|(_, c)| run_experiment(&topo, c))
                .collect();
            println!("{} {slot} {}", w.name(), des::digest(&metrics));
        }
    }
}

/// Peak resident set of this process, MiB (VmHWM).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_owned))
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working
/// directory (never above it); `unknown` when there is none.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let resolve = |head: String| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        }),
    };
    read(".git/HEAD")
        .and_then(resolve)
        .unwrap_or_else(|| "unknown".into())
}

fn meta_line(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    JsonValue::obj([(
        "meta",
        JsonValue::obj([
            ("workload", JsonValue::Str(args.workload.clone())),
            ("seed", JsonValue::Num(args.seed as f64)),
            ("input_slot", JsonValue::Num((args.seed % SLOTS) as f64)),
            ("held_out_seed", JsonValue::Num(HELD_OUT_SEED as f64)),
            ("seconds", JsonValue::Num(args.seconds)),
            ("trace", JsonValue::Bool(args.trace)),
            ("cores", JsonValue::Num(cores as f64)),
            ("git_rev", JsonValue::Str(git_rev())),
            ("rustc", JsonValue::Str(env!("PERFBENCH_RUSTC").into())),
            (
                "profile",
                JsonValue::Str(
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }
                    .into(),
                ),
            ),
        ]),
    )])
    .render()
}

/// Client p50 of a light/heavy step as an end-to-end metric, with its
/// sample count and the highest tail percentile on a detail line.
fn latency_metric(run: &mut Run, label: &str, step: &Step) {
    let l = sorted(step.latency_us.clone());
    let p50 = stats::percentile(&l, 0.5).unwrap_or(f64::NAN);
    let p99 = tail(&l, 0.99);
    run.put(&format!("p50_us.{label}"), p50, "us");
    println!(
        "{}",
        JsonValue::obj([(
            "latency",
            JsonValue::obj([
                ("step", JsonValue::Str(label.into())),
                ("rate", JsonValue::Num(step.rate)),
                ("attempted", JsonValue::Num(step.attempted as f64)),
                ("verdicts", JsonValue::Num(step.verdicts as f64)),
                ("shed", JsonValue::Num(step.shed as f64)),
                ("queue_peak", JsonValue::Num(step.queue_peak as f64)),
                ("samples", JsonValue::Num(l.len() as f64)),
                ("p50_us", JsonValue::Num(p50)),
                ("tail_p", JsonValue::Num(p99.map_or(f64::NAN, |p| p.p))),
                ("tail_us", JsonValue::Num(p99.map_or(f64::NAN, |p| p.value))),
            ]),
        )])
        .render()
    );
}

/// The SLO ladder: every step's verdict on a detail line, the highest
/// step meeting the objective and how many lower steps miss it.
fn ladder_metrics(run: &mut Run, steps: &[Step]) {
    let best = steps
        .iter()
        .filter(|s| s.meets_slo())
        .map(|s| s.rate)
        .fold(0.0, f64::max);
    let missed_below = steps
        .iter()
        .filter(|s| s.rate < best && !s.meets_slo())
        .count();
    let verdicts = steps
        .iter()
        .map(|s| {
            JsonValue::obj([
                ("rate", JsonValue::Num(s.rate)),
                ("meets_slo", JsonValue::Bool(s.meets_slo())),
                (
                    "p99_us",
                    JsonValue::Num(
                        tail(&sorted(s.latency_us.clone()), 0.99).map_or(f64::NAN, |p| p.value),
                    ),
                ),
                ("failed", JsonValue::Num(s.failed() as f64)),
                ("backlog_end", JsonValue::Num(s.backlog_end as f64)),
            ])
        })
        .collect();
    println!(
        "{}",
        JsonValue::obj([("ladder", JsonValue::Arr(verdicts))]).render()
    );
    run.put("ladder.max_rate_at_slo", best, "1/s");
    run.put(
        "ladder.steps_missing_slo_below_max",
        missed_below as f64,
        "count",
    );
}

/// Merges per-config steps of one rate into one pooled step.
fn pool(steps: Vec<Step>) -> Step {
    let mut out = Step::default();
    for s in steps {
        out.rate = s.rate;
        out.attempted += s.attempted;
        out.verdicts += s.verdicts;
        out.backlog_end += s.backlog_end;
        out.bad_lines += s.bad_lines;
        out.latency_us.extend(s.latency_us);
        out.server_us.extend(s.server_us);
        out.late_us.extend(s.late_us);
        out.span_s += s.span_s;
        out.daemon_cpu_s += s.daemon_cpu_s;
        out.queue_peak = out.queue_peak.max(s.queue_peak);
        out.shed += s.shed;
    }
    out
}

type Configs = [(&'static str, ExperimentConfig)];

/// One DES pass: `run_experiment` for every config on a built topology,
/// called as `run_experiment_traced` with a disabled [`trace::Mark`] that
/// splits each run's set-up from its decisions, each run between host
/// probes. Returns the digest, leaked bps and each config's decision
/// seconds, raw and scaled to the nominal host.
fn des_pass(topo: &Topology, configs: &Configs) -> (String, u64, Vec<(f64, f64)>) {
    let mut metrics = Vec::with_capacity(configs.len());
    let mut decide = Vec::with_capacity(configs.len());
    for (_, c) in configs {
        let (secs, scale) = host::around(|| {
            let mut mark = trace::Mark::default();
            metrics.push(run_experiment_traced(topo, c, &mut mark));
            mark.secs_until(Instant::now())
        });
        decide.push((secs, secs * scale));
    }
    (des::digest(&metrics), des::leaked_bps(&metrics), decide)
}

/// Decision seconds of one pass that transient interference cannot move:
/// every config's run at its median over the passes, summed.
fn robust_decide_secs(passes: &[Vec<f64>]) -> f64 {
    (0..passes[0].len())
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

/// Median seconds of one set-up at the nominal host, from samples
/// filling `window` seconds (at least three), each between host probes.
/// A sample runs back-to-back set-ups for about 10 ms and takes their
/// mean, so a set-up of microseconds is not read off a single timer
/// interval. Returns the median and the set-ups run.
fn setup_median(window: f64, mut one: impl FnMut() -> f64) -> (f64, usize) {
    let started = Instant::now();
    let (first, scale) = host::around(&mut one);
    let batch = (0.01 / first).ceil().clamp(1.0, 10_000.0) as usize;
    let mut samples = if batch == 1 {
        vec![first * scale]
    } else {
        Vec::new()
    };
    let mut runs = 1;
    while samples.len() < 3 || started.elapsed().as_secs_f64() < window {
        let (secs, scale) = host::around(|| (0..batch).map(|_| one()).sum::<f64>() / batch as f64);
        samples.push(secs * scale);
        runs += batch;
    }
    (median(&samples), runs)
}

/// A light or heavy step against live daemons serving the workload's
/// configs, the step's time split evenly between them and pooled.
fn daemon_latency(
    run: &mut Run,
    w: Option<Des>,
    configs: &Configs,
    arrivals: &[Vec<OnlineArrival>],
    rate: f64,
    secs: f64,
) -> Step {
    let topology = w.map_or(anycast_net::topologies::mci as fn() -> _, des::topology_fn);
    let steps: Vec<Step> = configs
        .iter()
        .zip(arrivals)
        .map(|((_, c), arr)| {
            openloop::daemon_step(topology, c, arr, rate, secs / configs.len() as f64)
        })
        .collect();
    for s in &steps {
        check_daemon(run, s);
    }
    let step = pool(steps);
    run.count(&step);
    step
}

/// The workload's inputs: configs for its input slot and their arrivals.
fn inputs(
    w: Option<Des>,
    slot: u64,
) -> (
    Vec<(&'static str, ExperimentConfig)>,
    Vec<Vec<OnlineArrival>>,
) {
    let configs = match w {
        Some(w) => des::configs(w, slot),
        None => vec![("wddh", openloop::daemon_config(slot))],
    };
    let arrivals = configs.iter().map(|(_, c)| record_arrivals(c)).collect();
    (configs, arrivals)
}

/// Light and heavy client p50 (end-to-end), or, traced, the live daemon
/// layer breakdown of the same two steps. Returns the heavy step.
fn light_heavy(
    run: &mut Run,
    w: Option<Des>,
    configs: &Configs,
    arrivals: &[Vec<OnlineArrival>],
    args: &Args,
) -> Step {
    let secs = 0.15 * args.seconds;
    let light = daemon_latency(run, w, configs, arrivals, LIGHT_RATE, secs);
    let heavy = daemon_latency(run, w, configs, arrivals, HEAVY_RATE, secs);
    if args.trace {
        put_live_daemon(run, &light, &heavy);
    } else {
        latency_metric(run, "light", &light);
        latency_metric(run, "heavy", &heavy);
    }
    heavy
}

fn des_workload(w: Des, args: &Args) -> Run {
    let mut run = Run::default();
    let slot = args.seed % SLOTS;
    let (configs, arrivals) = inputs(Some(w), slot);
    let decisions: u64 = arrivals.iter().map(|a| a.len() as u64).sum();
    let expected = des::committed_digest(w.name(), slot);
    run.check("des.digest_committed", expected.is_some());

    if args.trace {
        des_traced(w, &mut run, &configs, decisions, expected);
    } else {
        // Set-ups first, on a fresh heap.
        let (setup, setups) = setup_median(0.05 * args.seconds, || des::time_setup(w, &configs));
        // Decisions: at least four passes, else 60% of the window.
        let topo = des::topology(w);
        let mut passes = Vec::new();
        let started = Instant::now();
        while passes.len() < 4 || started.elapsed().as_secs_f64() < 0.6 * args.seconds {
            let (digest, leaked, decide) = des_pass(&topo, &configs);
            run.check("des.digest_matches", Some(digest.as_str()) == expected);
            run.check("des.zero_leak", leaked == 0);
            passes.push(decide);
            run.attempted += decisions;
        }
        let raw: Vec<Vec<f64>> = passes
            .iter()
            .map(|p| p.iter().map(|d| d.0).collect())
            .collect();
        let scaled: Vec<Vec<f64>> = passes
            .iter()
            .map(|p| p.iter().map(|d| d.1).collect())
            .collect();
        let rates: Vec<f64> = raw
            .iter()
            .map(|p| decisions as f64 / p.iter().sum::<f64>())
            .collect();
        println!(
            "{}",
            JsonValue::obj([(
                "passes",
                JsonValue::obj([
                    ("decisions", JsonValue::Num(decisions as f64)),
                    (
                        "decisions_per_s",
                        JsonValue::Arr(rates.iter().map(|r| JsonValue::Num(*r)).collect())
                    ),
                    (
                        "raw_decisions_per_s",
                        JsonValue::Num(decisions as f64 / robust_decide_secs(&raw)),
                    ),
                    ("setups", JsonValue::Num(setups as f64)),
                ]),
            )])
            .render()
        );
        run.put(
            "decisions_per_s",
            decisions as f64 / robust_decide_secs(&scaled),
            "1/s",
        );
        run.put("setup_s", setup, "s");
        // The simulation's own peak, before any daemon threads exist.
        run.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    light_heavy(&mut run, Some(w), &configs, &arrivals, args);
    if args.trace {
        run.put("ladder.max_rate_at_slo", 0.0, "1/s");
        run.put("ladder.steps_missing_slo_below_max", 0.0, "count");
    }
    run
}

/// Trace mode for a DES workload: one untraced pass, one pass through
/// `run_experiment_traced` with the span recorder, and the layer timings.
fn des_traced(w: Des, run: &mut Run, configs: &Configs, decisions: u64, expected: Option<&str>) {
    let topo = des::topology(w);
    let (digest, leaked, decide) = des_pass(&topo, configs);
    let untraced_decide: f64 = decide.iter().map(|d| d.0).sum();
    run.check("des.digest_matches", Some(digest.as_str()) == expected);
    run.check("des.zero_leak", leaked == 0);
    run.attempted += decisions;

    let mut traced_decide = 0.0;
    let mut recs = Vec::new();
    let mut metrics = Vec::new();
    for (_, c) in configs {
        let mut rec = trace::SpanRecorder::new();
        let m = run_experiment_traced(&topo, c, &mut rec);
        traced_decide += rec.mark.secs_until(Instant::now());
        recs.push(rec);
        metrics.push(m);
    }
    run.check(
        "des.traced_digest_matches",
        Some(des::digest(&metrics).as_str()) == expected,
    );
    run.attempted += decisions;
    let spans = trace::spans_of(&recs);
    put_spans(run, &spans);
    run.put("trace_overhead", traced_decide / untraced_decide, "ratio");

    // The layer context is the workload's WD/D+H config.
    let config = configs
        .iter()
        .find(|(n, _)| *n == "wddh")
        .map(|(_, c)| c)
        .expect("every DES workload runs WD/D+H");
    let mut layer = BTreeMap::new();
    layers::measure(
        &layers::Context {
            topo: &topo,
            config,
        },
        &mut layer,
    );
    put_layers(run, &layer);
    reconcile(
        run,
        &layer,
        &spans,
        untraced_decide * 1e9 / decisions as f64,
    );
}

fn put_spans(run: &mut Run, s: &trace::Spans) {
    run.put("core.decide_ns.mean", s.decide_mean_ns, "ns");
    run.put("core.decide_ns.p99", s.decide_p99_ns, "ns");
    run.put("core.first_probe_ns", s.first_probe_ns, "ns");
    run.put("core.retry_ns", s.retry_ns, "ns");
    run.put("core.probes_per_decision", s.probes_per_decision, "count");
    run.put(
        "rsvp.teardowns_per_decision",
        s.teardowns_per_decision,
        "count",
    );
    run.put("sim.between_ns", s.between_ns, "ns");
}

fn put_layers(run: &mut Run, layer: &BTreeMap<String, f64>) {
    for (k, v) in layer {
        let unit = if k.ends_with("_ns") || k.contains("_ns.") {
            "ns"
        } else {
            "count"
        };
        run.put(k, *v, unit);
    }
}

/// Reconciles layer time × calls per decision against the untraced
/// per-decision wall time; the gap is time no layer timing explains.
fn reconcile(run: &mut Run, layer: &BTreeMap<String, f64>, s: &trace::Spans, per_decision_ns: f64) {
    let g = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    let events = 1.0 + s.teardowns_per_decision;
    let attributed = g("net.route_hit_ns")
        + g("core.weights_ns.wddh")
        + s.probes_per_decision * g("rsvp.probe_reserve_ns")
        + s.teardowns_per_decision * g("rsvp.teardown_ns")
        + events * g("sim.schedule_step_ns");
    run.put("reconcile.per_decision_ns", per_decision_ns, "ns");
    run.put("reconcile.attributed_ns", attributed, "ns");
    run.put(
        "reconcile.unattributed_ns",
        per_decision_ns - attributed,
        "ns",
    );
}

/// The live daemon's layer breakdown of the light and heavy steps:
/// client latency split into the daemon's own `latency_us` and the rest
/// (write path, socket, client), queue peak, shedding, generator lag.
fn put_live_daemon(run: &mut Run, light: &Step, heavy: &Step) {
    let pct = |v: &[f64], p: f64| tail(v, p).map_or(f64::NAN, |x| x.value);
    for (label, s) in [("light", light), ("heavy", heavy)] {
        let client = sorted(s.latency_us.clone());
        let server = sorted(s.server_us.clone());
        let wire = sorted(
            s.latency_us
                .iter()
                .zip(&s.server_us)
                .map(|(c, sv)| c - sv)
                .collect(),
        );
        for (name, v) in [
            ("client_us", &client),
            ("server_latency_us", &server),
            ("wire_us", &wire),
        ] {
            run.put(&format!("daemon.{name}.p50.{label}"), pct(v, 0.5), "us");
            run.put(&format!("daemon.{name}.p99.{label}"), pct(v, 0.99), "us");
        }
    }
    // Share of the mean light-load client latency spent outside the
    // daemon's own measurement.
    let client: f64 = light.latency_us.iter().sum();
    let server: f64 = light.server_us.iter().sum();
    run.put(
        "daemon.wire_share.light",
        (client - server) / client,
        "ratio",
    );
    // Verdicts per CPU second of the daemon's threads at heavy load: its
    // cost per decision, wire included, whatever the offered rate.
    run.put(
        "daemon.decisions_per_cpu_s",
        heavy.verdicts as f64 / heavy.daemon_cpu_s,
        "1/s",
    );
    run.put(
        "daemon.queue_peak",
        light.queue_peak.max(heavy.queue_peak) as f64,
        "count",
    );
    run.put(
        "daemon.shed_count",
        (light.shed + heavy.shed) as f64,
        "count",
    );
    let late = sorted(
        light
            .late_us
            .iter()
            .chain(&heavy.late_us)
            .copied()
            .collect(),
    );
    run.put("generator.late_us.p50", pct(&late, 0.5), "us");
    run.put("generator.late_us.p99", pct(&late, 0.99), "us");
}

/// Checks a finished daemon step: the accounting identity, parseable
/// decision lines, zero leaked bandwidth at drain.
fn check_daemon(run: &mut Run, step: &Step) {
    let Some(r) = &step.report else {
        run.check("daemon.report", false);
        return;
    };
    let c = &r.counters;
    run.check(
        "daemon.accounting_identity",
        c.admits_received == r.submitted + c.duplicates + c.shed + c.rejected_shutdown,
    );
    run.check("daemon.lines_parse", step.bad_lines == 0);
    run.check(
        "daemon.zero_leak",
        r.metrics.leaked_bandwidth_bps == 0 && r.metrics.leaked_hold_bps == 0,
    );
}

fn daemon_workload(args: &Args) -> Run {
    let mut run = Run::default();
    let slot = args.seed % SLOTS;
    let (configs, arrivals) = inputs(None, slot);
    let (config, arr) = (&configs[0].1, &arrivals[0]);
    let heavy = light_heavy(&mut run, None, &configs, &arrivals, args);

    if args.trace {
        // The SLO ladder, one fresh daemon per step.
        let ladder: Vec<Step> = LADDER
            .iter()
            .map(|&rate| {
                let step = openloop::daemon_step(
                    anycast_net::topologies::mci,
                    config,
                    arr,
                    rate,
                    0.05 * args.seconds,
                );
                check_daemon(&mut run, &step);
                step
            })
            .collect();
        ladder_metrics(&mut run, &ladder);

        // The engine the daemon wraps, replayed in virtual time: untraced
        // for the baseline, then traced for spans.
        let topo = anycast_net::topologies::mci();
        let t = Instant::now();
        let (m, _, _) = OnlineEngine::replay(&topo, config, arr, NullRecorder);
        let untraced = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (mt, _, rec) = OnlineEngine::replay(&topo, config, arr, trace::SpanRecorder::new());
        let traced = t.elapsed().as_secs_f64();
        run.check("daemon.replay_traced_identical", m == mt);
        run.check(
            "daemon.replay_zero_leak",
            m.leaked_bandwidth_bps == 0 && m.leaked_hold_bps == 0,
        );
        run.attempted += 2 * arr.len() as u64;
        let spans = trace::spans_of(&[rec]);
        put_spans(&mut run, &spans);
        run.put("trace_overhead", traced / untraced, "ratio");
        let mut layer = BTreeMap::new();
        layers::measure(
            &layers::Context {
                topo: &topo,
                config,
            },
            &mut layer,
        );
        put_layers(&mut run, &layer);
        reconcile(&mut run, &layer, &spans, untraced * 1e9 / arr.len() as f64);
        return run;
    }

    // Verdicts delivered per second under the heavy offered load. It is
    // capped at the offered 8 000/s, so it shows only a daemon that falls
    // below that; `daemon.decisions_per_cpu_s` (traced) is not capped.
    let rate = heavy.verdicts as f64 / heavy.span_s;
    // Set-ups: daemons that answer one `stats` and shut down.
    let (setup, _) = setup_median(0.05 * args.seconds, || {
        let step = openloop::daemon_step(anycast_net::topologies::mci, config, arr, 1.0, 0.0);
        check_daemon(&mut run, &step);
        step.setup_s
    });
    run.put("decisions_per_s", rate, "1/s");
    run.put("setup_s", setup, "s");
    run.put("peak_rss_mb", peak_rss_mb(), "MiB");
    run
}

fn main() {
    let args = parse_args();
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECS));
        eprintln!("perfbench: run exceeded {WATCHDOG_SECS} s");
        std::process::exit(3);
    });
    let des = match args.workload.as_str() {
        "mci-paper" => Some(Des::MciPaper),
        "fattree-34" => Some(Des::FatTree),
        "mci-two-phase" => Some(Des::TwoPhase),
        "daemon-loopback" => None,
        "" => usage("--workload is required"),
        other => usage(&format!("unknown workload `{other}`")),
    };
    println!("{}", meta_line(&args));
    let mut run = match des {
        Some(w) => des_workload(w, &args),
        None => daemon_workload(&args),
    };
    if !args.trace {
        let answered = if run.attempted == 0 {
            f64::NAN
        } else {
            (run.attempted - run.failed) as f64 / run.attempted as f64
        };
        run.put("answered_ratio", answered, "ratio");
    }
    let finite = run.metrics.values().all(|(v, _)| v.is_finite());
    run.check("metrics.finite", finite);
    let correct = run.broken.is_empty() && run.attempted > 0;
    for b in &run.broken {
        eprintln!("perfbench: correctness check failed: {b}");
    }
    let metrics = JsonValue::Obj(
        run.metrics
            .iter()
            .map(|(k, (v, u))| {
                (
                    k.clone(),
                    JsonValue::obj([
                        ("value", JsonValue::Num(*v)),
                        ("unit", JsonValue::Str((*u).into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = JsonValue::obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(run.attempted.max(1) as f64)),
        ("failed", JsonValue::Num(run.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
