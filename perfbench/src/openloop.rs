//! Open-loop load: requests are due on a fixed schedule (`i / rate`
//! seconds after the step starts) whether or not earlier ones were
//! answered, and every latency counts from the request's *scheduled*
//! time, so a stall also charges the requests queued behind it.
//!
//! The target is the live daemon over loopback TCP: one connection, one
//! sender and one receiver thread (no more than two cores' worth).

use crate::stats::{sorted, tail};
use anycast_dac::experiment::{ExperimentConfig, SystemSpec};
use anycast_dac::online::OnlineArrival;
use anycast_dac::policy::PolicySpec;
use anycast_daemon::{BoundServer, Endpoint, ServeOptions, ServeReport, ShutdownFlag};
use anycast_net::Topology;
use anycast_telemetry::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client p99 limit of the service-level objective: well under a WAN
/// flow-setup round trip.
const SLO_P99_US: f64 = 10_000.0;
/// Fixed rates of the light and heavy latency steps, requests/s.
pub const LIGHT_RATE: f64 = 1_000.0;
pub const HEAVY_RATE: f64 = 8_000.0;
/// The geometric rate ladder `max_rate_at_slo` climbs (×2 per step).
pub const LADDER: [f64; 8] = [
    500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0,
];
/// How long unanswered requests may trail the send window before they
/// count as missing.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// What one fixed-rate step measured.
#[derive(Debug, Default)]
pub struct Step {
    pub rate: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that got a verdict (admitted or rejected).
    pub verdicts: u64,
    /// Client latency of every verdict, µs from its scheduled send time.
    pub latency_us: Vec<f64>,
    /// The daemon's own `latency_us` of every verdict (daemon only).
    pub server_us: Vec<f64>,
    /// How late the generator sent each request, µs.
    pub late_us: Vec<f64>,
    /// Requests due but unanswered when the send window closed.
    pub backlog_end: u64,
    /// Decision lines that failed to parse (daemon only).
    pub bad_lines: u64,
    /// Seconds from start until the daemon answered its first request.
    pub setup_s: f64,
    /// Seconds from the first scheduled send to the last verdict.
    pub span_s: f64,
    /// CPU seconds the daemon's threads ran from the first scheduled send
    /// until every request was answered (or the drain grace ran out).
    pub daemon_cpu_s: f64,
    /// The daemon's closing report (a single daemon's step only).
    pub report: Option<ServeReport>,
    /// Queue high-water mark and `overloaded` refusals (pooled steps).
    pub queue_peak: u64,
    pub shed: u64,
}

impl Step {
    pub fn failed(&self) -> u64 {
        self.attempted - self.verdicts
    }

    /// Whether the step meets the objective: client p99 within the limit,
    /// every request answered with a verdict, and no growing backlog
    /// (fewer requests outstanding at the end than the limit's worth).
    pub fn meets_slo(&self) -> bool {
        let p99 = tail(&sorted(self.latency_us.clone()), 0.99).map(|p| p.value);
        let backlog_ok = (self.backlog_end as f64) <= self.rate * SLO_P99_US / 1e6 + 16.0;
        self.failed() == 0 && backlog_ok && p99.is_some_and(|v| v <= SLO_P99_US)
    }
}

/// Index of the scheduled request that is due at `elapsed` seconds, plus
/// one (how many are due so far), capped at `total`.
fn due(elapsed: f64, rate: f64, total: u64) -> u64 {
    ((elapsed * rate).floor() as u64 + 1).min(total)
}

/// Sleeps until `elapsed` reaches `target`. The generator never spins:
/// a spinning sender would take a core from the daemon it measures.
/// Oversleep shows up as generator lateness, and each latency still
/// counts from the scheduled time.
fn wait_until(start: Instant, target: f64) {
    let left = target - start.elapsed().as_secs_f64();
    if left > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(left));
    }
}

/// This thread's kernel id (`/proc/thread-self` links to `<pid>/task/<tid>`).
fn own_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// CPU nanoseconds every live thread of this process has run, by thread
/// id (the first field of `/proc/self/task/<tid>/schedstat`).
fn thread_cpu_ns() -> BTreeMap<u64, u64> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return BTreeMap::new();
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let tid = t.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            Some((tid, stat.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// The daemon's engine config: MCI, WD/D+H at R = 2, the workload seed.
pub fn daemon_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::paper_defaults(
        crate::des::LAMBDA,
        SystemSpec::dac(PolicySpec::wd_dh_default(), 2),
    )
    .with_seed(seed)
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match v {
        JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// What the receiver thread hands back.
#[derive(Default)]
struct Received {
    last_verdict_s: f64,
    latency_us: Vec<f64>,
    server_us: Vec<f64>,
    verdicts: u64,
    bad_lines: u64,
}

/// One step against a fresh live daemon serving `config` on the
/// topology `topology` builds: bind, serve on a thread, drive `rate`
/// admits/s for `secs` over one TCP connection, then shut it down on the
/// same connection and collect its report. The daemon's simulated clock
/// runs at `rate / λ` so the engine always sees paper load λ = 40.
pub fn daemon_step(
    topology: fn() -> Topology,
    config: &ExperimentConfig,
    arrivals: &[OnlineArrival],
    rate: f64,
    secs: f64,
) -> Step {
    let t0 = Instant::now();
    let topo = topology();
    let options = ServeOptions {
        speed: rate / crate::des::LAMBDA,
        ..ServeOptions::default()
    };
    let server = BoundServer::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp endpoint");
    let total = (rate * secs).round() as u64;
    let answered = &AtomicU64::new(0);
    let recv_tid = &AtomicU64::new(0);
    std::thread::scope(|s| {
        let serve = s.spawn(|| server.run(&topo, config, &options, ShutdownFlag::new()));
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.set_nodelay(true).expect("nodelay");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);
        // Set-up ends when the daemon answers its first request.
        writer
            .write_all(b"{\"op\":\"stats\"}\n")
            .expect("send stats");
        let mut line = String::new();
        reader.read_line(&mut line).expect("stats reply");
        let setup_s = t0.elapsed().as_secs_f64();

        let start = Instant::now() + Duration::from_millis(5);
        let recv = s.spawn(move || {
            recv_tid.store(own_tid(), Ordering::Relaxed);
            let mut got = Received::default();
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = start.elapsed().as_secs_f64();
                let Ok(v) = parse(line.trim()) else {
                    got.bad_lines += 1;
                    continue;
                };
                let op = match field(&v, "op") {
                    Some(JsonValue::Str(op)) => op.as_str(),
                    _ => {
                        got.bad_lines += 1;
                        continue;
                    }
                };
                if op == "shutting_down" && field(&v, "token").is_none() {
                    continue; // the shutdown acknowledgement
                }
                answered.fetch_add(1, Ordering::Relaxed);
                if op != "decision" {
                    continue; // overloaded, error or shutdown rejection
                }
                let seq = match field(&v, "token") {
                    Some(JsonValue::Str(t)) => t.parse::<u64>().ok(),
                    _ => None,
                };
                let (Some(seq), Some(JsonValue::Num(server)), Some(JsonValue::Bool(_))) =
                    (seq, field(&v, "latency_us"), field(&v, "admitted"))
                else {
                    got.bad_lines += 1;
                    continue;
                };
                got.verdicts += 1;
                got.last_verdict_s = at;
                got.latency_us.push((at - seq as f64 / rate) * 1e6);
                got.server_us.push(*server);
            }
            got
        });

        let mut late_us = Vec::with_capacity(total as usize);
        let mut sent = 0u64;
        let mut buf = String::new();
        let cpu_before = thread_cpu_ns();
        wait_until(start, 0.0);
        while sent < total {
            let el = start.elapsed().as_secs_f64();
            let now_due = due(el, rate, total);
            for i in sent..now_due {
                let a = &arrivals[i as usize % arrivals.len()];
                buf.push_str(&format!(
                    "{{\"op\":\"admit\",\"source\":{},\"group\":{},\"demand_bps\":{},\
                     \"holding_secs\":{},\"token\":\"{i}\"}}\n",
                    a.source_index,
                    a.group_index,
                    a.demand.bps(),
                    a.holding_secs
                ));
                late_us.push((el - i as f64 / rate) * 1e6);
            }
            if now_due > sent {
                writer.write_all(buf.as_bytes()).expect("send admits");
                buf.clear();
                sent = now_due;
            }
            if sent < total {
                wait_until(start, sent as f64 / rate);
            }
        }
        let backlog_end = sent - answered.load(Ordering::Relaxed);
        let drain_until = Instant::now() + DRAIN_GRACE;
        while answered.load(Ordering::Relaxed) < sent && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Every thread but the generator's two is the daemon's (the
        // watchdog's only sleeps).
        let generator = [own_tid(), recv_tid.load(Ordering::Relaxed)];
        let daemon_cpu_s = thread_cpu_ns()
            .into_iter()
            .filter(|(tid, _)| !generator.contains(tid))
            .map(|(tid, ns)| ns - cpu_before.get(&tid).copied().unwrap_or(0).min(ns))
            .sum::<u64>() as f64
            / 1e9;
        writer
            .write_all(b"{\"op\":\"shutdown\"}\n")
            .expect("send shutdown");
        let report = serve.join().expect("daemon thread").expect("daemon run");
        let got = recv.join().expect("receiver thread");
        Step {
            rate,
            attempted: sent,
            verdicts: got.verdicts,
            latency_us: got.latency_us,
            server_us: got.server_us,
            late_us,
            backlog_end,
            bad_lines: got.bad_lines,
            setup_s,
            span_s: got.last_verdict_s,
            daemon_cpu_s,
            queue_peak: report.counters.queue_peak,
            shed: report.counters.shed,
            report: Some(report),
        }
    })
}
