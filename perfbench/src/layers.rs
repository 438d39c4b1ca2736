//! Per-layer timings: calls into each layer's public functions, made
//! from the benchmark's own code against the workload's topology, group,
//! sources and a link state loaded to paper load.

use anycast_dac::baselines::GlobalDynamicSystem;
use anycast_dac::experiment::{Decision, ExperimentConfig};
use anycast_dac::online::{record_arrivals, OnlineArrival, OnlineEngine};
use anycast_dac::policy::PolicySpec;
use anycast_dac::{AdmissionController, RetrialPolicy};
use anycast_daemon::journal::DecisionJournal;
use anycast_daemon::overload::{AdmissionQueue, QueuedAdmit};
use anycast_daemon::wire::{decision_response, parse_request};
use anycast_net::{
    AnycastGroup, Bandwidth, LinkStateTable, NodeId, Path, RouteOracle, RouteProvider, RouteTable,
    Topology,
};
use anycast_rsvp::{ReservationEngine, SessionId, SetupTable};
use anycast_sim::{Engine, SimRng, SimTime};
use anycast_telemetry::NullRecorder;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each micro-timing runs.
const BUDGET: Duration = Duration::from_millis(150);

/// Runs `op` (which returns the wall nanoseconds it wants charged) until
/// the budget is spent; returns the mean charged ns per call.
fn mean_ns(mut op: impl FnMut(usize) -> u64) -> f64 {
    let start = Instant::now();
    let (mut total, mut n) = (0u64, 0usize);
    while start.elapsed() < BUDGET || n < 16 {
        total += op(n);
        n += 1;
    }
    total as f64 / n as f64
}

/// Wall ns of one closure call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// The workload's routing context: topology, group, source nodes.
pub struct Context<'a> {
    pub topo: &'a Topology,
    pub config: &'a ExperimentConfig,
}

impl Context<'_> {
    fn group(&self) -> AnycastGroup {
        AnycastGroup::new("bench", self.config.group_members.iter().copied())
            .expect("workload group is valid")
    }

    fn sources(&self) -> &[NodeId] {
        &self.config.sources
    }

    fn demand(&self) -> Bandwidth {
        self.config.flow_bandwidth
    }

    /// Each source's fixed routes to every member, via the oracle.
    fn routes(&self) -> Vec<Vec<Path>> {
        let group = self.group();
        let mut oracle = RouteOracle::with_default_capacity(group);
        self.sources()
            .iter()
            .map(|s| {
                oracle
                    .routes(self.topo, *s)
                    .expect("sources reach every member")
                    .to_vec()
            })
            .collect()
    }

    /// The anycast partition loaded as at paper load: λ·T = 7200 flow
    /// attempts on random source→member routes, each reserved if it fits.
    fn loaded_state(
        &self,
        routes: &[Vec<Path>],
    ) -> (LinkStateTable, ReservationEngine, Vec<SessionId>) {
        let mut links = LinkStateTable::with_uniform_fraction(
            self.topo,
            self.config.default_link_capacity,
            self.config.anycast_fraction,
        );
        let mut rsvp = ReservationEngine::new();
        let mut rng = SimRng::seed_from(self.config.seed);
        let mut sessions = Vec::new();
        let flows = (self.config.lambda * self.config.mean_holding_secs) as usize;
        for _ in 0..flows {
            let r = &routes[rng.below(routes.len())];
            let path = &r[rng.below(r.len())];
            if let Ok(out) = rsvp.probe_and_reserve(&mut links, path, self.demand()) {
                sessions.push(out.session);
            }
        }
        (links, rsvp, sessions)
    }
}

/// Every per-layer micro-timing; values in ns per call unless named
/// otherwise.
pub fn measure(ctx: &Context<'_>, out: &mut BTreeMap<String, f64>) {
    let routes = ctx.routes();
    let group = ctx.group();
    let demand = ctx.demand();
    let k = group.len();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    // core::online: submit + pump per decision on recorded arrivals.
    let depth = {
        let arrivals: Vec<OnlineArrival> = record_arrivals(ctx.config);
        let mut engine = OnlineEngine::new(ctx.topo, ctx.config, NullRecorder);
        let start = Instant::now();
        let mut n = 0usize;
        while n < arrivals.len() && (start.elapsed() < BUDGET * 2 || n < 1_000) {
            engine.submit(arrivals[n]);
            black_box(engine.pump());
            n += 1;
        }
        put(
            "online.decide_ns",
            start.elapsed().as_nanos() as f64 / n as f64,
        );
        // Pending events at steady state: a departure per live flow, a
        // timer per setup in flight, the next arrival.
        let snap = engine.snapshot();
        snap.active_sessions + snap.setups_in_flight + 1
    };

    // sim: one schedule_at + step at the workload's queue depth.
    put("sim.queue_depth", depth as f64);
    {
        let mut engine: Engine<u64> = Engine::new();
        let mut rng = SimRng::seed_from(7);
        for i in 0..depth as u64 {
            engine.schedule_at(SimTime::from_secs(rng.uniform() * 180.0), i);
        }
        let mut handler = |_: &mut Engine<u64>, _: SimTime, e: u64| {
            black_box(e);
        };
        let start = Instant::now();
        let mut n = 0u64;
        while start.elapsed() < BUDGET {
            for _ in 0..256 {
                let at = SimTime::from_secs(engine.now().as_secs() + rng.exp(180.0));
                engine.schedule_at(at, n);
                engine.step(&mut handler);
                n += 1;
            }
        }
        put(
            "sim.schedule_step_ns",
            start.elapsed().as_nanos() as f64 / n as f64,
        );
    }

    // net::routing: lookups in the default precomputed table (what every
    // workload runs), cold per-source computation by the on-demand
    // oracle, and the table's resident paths.
    {
        let mut table = RouteTable::shortest_paths(ctx.topo, &group);
        let mut dist = Vec::with_capacity(k);
        let sources = ctx.sources();
        put(
            "net.route_hit_ns",
            mean_ns(|i| {
                let s = sources[i % sources.len()];
                timed(|| {
                    black_box(RouteProvider::routes(&mut table, ctx.topo, s).expect("route"));
                    RouteProvider::distances_into(&mut table, ctx.topo, s, &mut dist)
                        .expect("route");
                })
                .1
            }),
        );
        put(
            "net.route_miss_ns",
            mean_ns(|i| {
                let s = sources[i % sources.len()];
                let mut cold = RouteOracle::new(group.clone(), 1);
                timed(|| black_box(cold.routes(ctx.topo, s).expect("route"))).1
            }),
        );
        let resident: usize = ctx
            .topo
            .nodes()
            .filter_map(|n| table.routes_from(n).map(<[Path]>::len))
            .sum();
        put("net.routes_resident", resident as f64);
    }

    let (mut links, mut rsvp, sessions) = ctx.loaded_state(&routes);

    // core::weights through the controller, per policy, K = group size.
    for (name, policy) in [
        ("ed", PolicySpec::Ed),
        ("wddh", PolicySpec::wd_dh_default()),
        ("wddb", PolicySpec::WdDb),
    ] {
        let mut controllers: Vec<AdmissionController> = routes
            .iter()
            .map(|r| {
                AdmissionController::new(
                    policy.build().expect("valid policy"),
                    RetrialPolicy::FixedLimit(2),
                    r.iter().map(|p| p.hops() as u32).collect(),
                )
            })
            .collect();
        let v = mean_ns(|i| {
            let s = i % routes.len();
            // Touch the ledger so bandwidth-aware policies recompute.
            let p = &routes[s][i % k];
            if links.reserve_path(p, demand).is_ok() {
                links.release_path(p, demand).expect("just reserved");
            }
            let c = &mut controllers[s];
            timed(|| black_box(c.selection_weights(&routes[s], &links))).1
        });
        put(&format!("core.weights_ns.{name}"), v);
    }

    // core::baselines: GDI's global feasible-path search + reservation.
    {
        let mut gdi = GlobalDynamicSystem::new();
        let sources = ctx.sources();
        put(
            "core.gdi_admit_ns",
            mean_ns(|i| {
                let s = sources[i % sources.len()];
                let (out, ns) =
                    timed(|| gdi.admit(ctx.topo, &group, s, &mut links, &mut rsvp, demand));
                if let Some(f) = out.admitted {
                    rsvp.teardown(&mut links, f.session).expect("just admitted");
                }
                ns
            }),
        );
    }

    // rsvp::engine + net::link_state on the loaded ledger.
    {
        let all: Vec<&Path> = routes.iter().flatten().collect();
        let mut hops = 0usize;
        let mut walks = 0usize;
        let probe = mean_ns(|i| {
            let p = all[i % all.len()];
            let (res, ns) = timed(|| rsvp.probe_and_reserve(&mut links, p, demand));
            hops += p.hops();
            walks += 1;
            if let Ok(out) = res {
                rsvp.teardown(&mut links, out.session)
                    .expect("just reserved");
            }
            ns
        });
        put("rsvp.probe_reserve_ns", probe);
        put(
            "rsvp.probe_reserve_ns.per_hop",
            probe * walks as f64 / hops.max(1) as f64,
        );
        // Teardown on a route with room (reserve untimed first).
        let mut fresh = LinkStateTable::with_uniform_fraction(
            ctx.topo,
            ctx.config.default_link_capacity,
            ctx.config.anycast_fraction,
        );
        let mut engine = ReservationEngine::new();
        put(
            "rsvp.teardown_ns",
            mean_ns(|i| {
                let p = all[i % all.len()];
                let s = engine
                    .probe_and_reserve(&mut fresh, p, demand)
                    .expect("empty ledger has room")
                    .session;
                timed(|| engine.teardown(&mut fresh, s)).1
            }),
        );
        put(
            "net.reserve_path_ns",
            mean_ns(|i| {
                let p = all[i % all.len()];
                let (res, ns) = timed(|| fresh.reserve_path(p, demand));
                res.expect("empty ledger has room");
                fresh.release_path(p, demand).expect("just reserved");
                ns
            }),
        );
        put(
            "net.check_path_ns",
            mean_ns(|i| {
                let p = all[i % all.len()];
                timed(|| black_box(links.check_path(p, demand))).1
            }),
        );

        // rsvp::two_phase: begin, PATH per hop, RESV per hop, commit.
        let mut setups = SetupTable::new();
        let (mut hop_total, mut calls) = (0usize, 0usize);
        let per_setup = mean_ns(|i| {
            let p = all[i % all.len()];
            let h = p.hops();
            hop_total += h;
            calls += 1;
            let (out, ns) = timed(|| {
                let id = setups.begin(p.clone(), demand, 0.0);
                for hop in 0..h {
                    setups.path_step(&mut engine, &mut fresh, id, hop);
                }
                for _ in 0..h {
                    setups.resv_step(&mut engine, id);
                }
                setups.complete(&mut engine, &mut fresh, id)
            });
            let out = out.expect("empty ledger commits");
            engine
                .teardown(&mut fresh, out.session)
                .expect("just committed");
            ns
        });
        put(
            "rsvp.two_phase_hop_ns",
            per_setup * calls as f64 / hop_total.max(1) as f64,
        );
    }

    // daemon::wire / overload / journal.
    {
        let line = "{\"op\":\"admit\",\"source\":3,\"group\":0,\"demand_bps\":64000,\
                    \"holding_secs\":181.25,\"token\":\"12345\"}";
        put(
            "daemon.parse_ns",
            mean_ns(|_| timed(|| black_box(parse_request(black_box(line)))).1),
        );
        let decision = Decision {
            request: 12_345,
            at_secs: 1_234.5,
            admitted: true,
            member_index: Some(2),
            session: sessions.first().copied(),
            tries: 1,
        };
        put(
            "daemon.render_ns",
            mean_ns(|_| timed(|| black_box(decision_response(&decision, 42, Some("12345")))).1),
        );
        let mut queue = AdmissionQueue::new(1_024, 128);
        let now = Instant::now();
        put(
            "daemon.queue_ns",
            mean_ns(|i| {
                let item = QueuedAdmit {
                    conn: (i % 4) as u64,
                    token: None,
                    source_index: i % 8,
                    group_index: 0,
                    demand,
                    holding_secs: 180.0,
                    received: now,
                };
                timed(|| {
                    queue.push(item).map_err(|_| ()).expect("queue has room");
                    black_box(queue.pop())
                })
                .1
            }),
        );
        let mut journal = DecisionJournal::new(4_096);
        let tokens: Vec<String> = (0..8_192).map(|i| i.to_string()).collect();
        let rendered = decision_response(&decision, 42, Some("12345"));
        put(
            "daemon.journal_ns",
            mean_ns(|i| {
                let t = &tokens[i % tokens.len()];
                let line = rendered.clone();
                timed(|| {
                    journal.forget(t);
                    journal.enqueue(t, 1);
                    journal.dispatch(t, i as u64);
                    journal.decide(t, line);
                })
                .1
            }),
        );
    }
}
