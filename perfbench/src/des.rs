//! The three offline DES workloads: their inputs, the timed (untraced)
//! pass, and the committed-digest correctness check.

use anycast_dac::backoff::BackoffPolicy;
use anycast_dac::experiment::{
    ExperimentConfig, Metrics, SignalingMode, SystemSpec, TwoPhaseConfig,
};
use anycast_dac::online::OnlineEngine;
use anycast_dac::policy::PolicySpec;
use anycast_net::{topologies, Bandwidth, NodeId, Topology};
use anycast_telemetry::NullRecorder;
use std::hint::black_box;
use std::time::Instant;

/// Paper load (§5): λ = 40 flows/s.
pub const LAMBDA: f64 = 40.0;
/// Simulated warm-up and measurement spans of one DES run. Shorter than
/// the paper's 1800 + 3600 s so a run fits several times into the
/// measurement window; 200 s already exceeds the 180 s mean holding time.
const WARMUP_SECS: f64 = 200.0;
const MEASURE_SECS: f64 = 1_000.0;
/// Per-hop signalling delay of the two-phase workload (`--signaling-delay`).
const SIGNALING_DELAY_SECS: f64 = 0.005;
/// Fat-tree parameter of the datacenter workload: 11 271 nodes.
const FAT_TREE_K: usize = 34;

/// Which DES workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Des {
    MciPaper,
    FatTree,
    TwoPhase,
}

impl Des {
    pub fn name(self) -> &'static str {
        match self {
            Des::MciPaper => "mci-paper",
            Des::FatTree => "fattree-34",
            Des::TwoPhase => "mci-two-phase",
        }
    }
}

/// Builds the workload's topology (timed as part of set-up).
pub fn topology(w: Des) -> Topology {
    match w {
        Des::MciPaper | Des::TwoPhase => topologies::mci(),
        Des::FatTree => topologies::fat_tree(FAT_TREE_K, Bandwidth::from_mbps(100)),
    }
}

/// The workload's topology constructor as a plain function (for daemons that
/// build their own).
pub fn topology_fn(w: Des) -> fn() -> Topology {
    match w {
        Des::MciPaper | Des::TwoPhase => topologies::mci,
        Des::FatTree => || topology(Des::FatTree),
    }
}

/// Picks `count` evenly spaced entries of `pool`.
fn spread(pool: &[NodeId], count: usize) -> Vec<NodeId> {
    (0..count).map(|i| pool[i * pool.len() / count]).collect()
}

/// The five systems of the paper's comparison (Figure 6), at R = 2.
fn paper_systems() -> Vec<(&'static str, SystemSpec)> {
    vec![
        ("ed", SystemSpec::dac(PolicySpec::Ed, 2)),
        ("wddh", SystemSpec::dac(PolicySpec::wd_dh_default(), 2)),
        ("wddb", SystemSpec::dac(PolicySpec::WdDb, 2)),
        ("sp", SystemSpec::ShortestPath),
        ("gdi", SystemSpec::GlobalDynamic),
    ]
}

/// The experiment configs one pass of the workload runs, in order. Every
/// config uses the default execution and route modes.
pub fn configs(w: Des, seed: u64) -> Vec<(&'static str, ExperimentConfig)> {
    let wddh = SystemSpec::dac(PolicySpec::wd_dh_default(), 2);
    let base = |system| {
        ExperimentConfig::paper_defaults(LAMBDA, system)
            .with_warmup_secs(WARMUP_SECS)
            .with_measure_secs(MEASURE_SECS)
            .with_seed(seed)
    };
    match w {
        Des::MciPaper => paper_systems()
            .into_iter()
            .map(|(name, system)| (name, base(system)))
            .collect(),
        Des::FatTree => {
            // The 8-member / 64-source spread placement across pods.
            let hosts = topologies::fat_tree_hosts(FAT_TREE_K);
            let members = spread(&hosts, 8);
            let pool: Vec<NodeId> = hosts
                .iter()
                .copied()
                .filter(|h| !members.contains(h))
                .collect();
            let sources = spread(&pool, 64);
            vec![("wddh", base(wddh).with_group(members).with_sources(sources))]
        }
        Des::TwoPhase => vec![(
            "wddh",
            base(wddh).with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig {
                per_hop_delay_secs: SIGNALING_DELAY_SECS,
                setup_timeout_secs: 1.0,
                backoff: BackoffPolicy::default(),
            })),
        )],
    }
}

/// Times one set-up: the topology build plus route-provider and engine
/// construction for every config (what a run pays before its first
/// arrival), in seconds. `OnlineEngine::new` builds the same simulator
/// state `run_experiment` does; only the first arrival is left to
/// `submit`.
pub fn time_setup(w: Des, configs: &[(&str, ExperimentConfig)]) -> f64 {
    let start = Instant::now();
    let topo = topology(w);
    for (_, c) in configs {
        black_box(OnlineEngine::new(&topo, c, NullRecorder));
    }
    start.elapsed().as_secs_f64()
}

/// FNV-1a 64 over the `Debug` rendering of every config's metrics: the
/// exact bits of every counter and estimate a pass produced.
pub fn digest(metrics: &[Metrics]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in metrics {
        for b in format!("{m:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The committed digest of `workload` for input `slot`, if any.
pub fn committed_digest(workload: &str, slot: u64) -> Option<&'static str> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == workload && s.parse() == Ok(slot) => Some(d),
            _ => None,
        }
    })
}

/// Leaked bandwidth (ledger and two-phase holds) summed over a pass.
pub fn leaked_bps(metrics: &[Metrics]) -> u64 {
    metrics
        .iter()
        .map(|m| m.leaked_bandwidth_bps + m.leaked_hold_bps)
        .sum()
}
