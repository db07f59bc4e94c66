//! The parallel reactor's round loop, driven from the benchmark: one
//! [`Pump`] in a [`ReactorCluster`], a [`SuperRootDriver`] on the
//! coordinator side, fault-free, with the machine's barrier clock (summed
//! wave cost over the engine count). Counting and timing each
//! [`ReactorCluster::round`] call gives rounds and time per round, which
//! `ParallelReactorMachine` does not report.

use crate::spec::Spec;
use splice_applicative::{Value, Workload};
use splice_core::engine::Timer;
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::sink::ActionSink;
use splice_harness::{
    ClusterMap, DriverLoop, Pump, ReactorCluster, RoundInput, ShardMap, Substrate, SuperRootDriver,
    TimerWheel, Transfer,
};
use splice_simnet::trace::TraceMode;
use std::sync::Arc;
use std::time::Instant;

/// Rounds after which a run that has not answered counts as stuck.
const MAX_ROUNDS: u64 = 50_000_000;

/// The coordinator's substrate: super-root sends become injections into
/// the pump's next round; super-root timers ride a local wheel.
struct Coord {
    cluster: Arc<ClusterMap>,
    now: u64,
    inject: Vec<Transfer>,
    timers: TimerWheel<u64, Timer>,
}

impl Substrate for Coord {
    fn n_procs(&self) -> u32 {
        self.cluster.n()
    }

    fn is_live(&self, p: ProcId) -> bool {
        self.cluster.is_live(p)
    }

    fn now_units(&self) -> u64 {
        self.now
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        self.inject.push(Transfer::Deliver { from, to, msg });
    }

    fn arm_timer(&mut self, _owner: ProcId, timer: Timer, delay: u64) {
        self.timers.arm(self.now + delay, timer);
    }

    fn report_death(&mut self, _dead: ProcId) {}

    fn complete_wave(&mut self, _proc: ProcId, _sink: &mut ActionSink, _work: u64) {}
}

pub struct Rounds {
    pub result: Option<Value>,
    pub rounds: u64,
    /// Time inside `ReactorCluster::round`, ns.
    pub round_ns: u64,
}

/// Runs `spec`'s program on a one-pump reactor cluster with `spec`'s
/// shape, placement, router and recovery configuration.
pub fn run(spec: &Spec, w: &Workload) -> Rounds {
    let cfg = &spec.cfg;
    let n = cfg.topology.len();
    let program = Arc::new(w.program.clone());
    let all: Arc<[ProcId]> = (0..n).map(ProcId).collect();
    let cluster = Arc::new(ClusterMap::new(n, cfg.detector.broadcast, |_| 0));
    let engines = (0..n)
        .map(|i| {
            let id = ProcId(i);
            let node = DriverLoop::new(
                id,
                program.clone(),
                cfg.engine_recovery(),
                cfg.policy.build_shared(id, &cfg.topology, cfg.seed, &all),
            );
            (id, Box::new(node))
        })
        .collect();
    let map = ShardMap::new(cfg.topology.shard_count(), cfg.topology.per_shard());
    let pump = Pump::new(
        0,
        1,
        cluster.clone(),
        engines,
        map,
        cfg.router_latency,
        cfg.batch_window,
        TraceMode::Off,
    );
    let mut fleet = ReactorCluster::new(vec![pump], cluster.clone());
    let mut sr = SuperRootDriver::new(w, &cfg.recovery);
    let mut coord = Coord {
        cluster,
        now: 0,
        inject: Vec::new(),
        timers: TimerWheel::new(),
    };
    sr.launch(&mut coord);

    let mut out = Rounds {
        result: None,
        rounds: 0,
        round_ns: 0,
    };
    let (mut inputs, mut outs) = (Vec::with_capacity(1), Vec::with_capacity(1));
    let (mut sr_buf, mut donated_buf) = (Vec::new(), Vec::new());
    let mut carry = 0u64;
    while out.rounds < MAX_ROUNDS {
        while let Some(timer) = coord.timers.pop_due(&coord.now) {
            sr.on_timer(timer, &mut coord);
        }
        inputs.push(RoundInput {
            now: coord.now,
            kills: Vec::new(),
            inject: std::mem::take(&mut coord.inject),
            donate: None,
            sr_mail_buf: std::mem::take(&mut sr_buf),
            donated_buf: std::mem::take(&mut donated_buf),
        });
        let t = Instant::now();
        fleet.round(&mut inputs, &mut outs);
        out.round_ns += t.elapsed().as_nanos() as u64;
        out.rounds += 1;
        let mut r = outs.pop().expect("one output per pump");
        for msg in r.sr_mail.drain(..) {
            sr.on_message(msg, &mut coord);
        }
        sr_buf = r.sr_mail;
        donated_buf = r.donated;
        if sr.result().is_some() {
            break;
        }
        if r.waves > 0 || r.turns > 0 {
            carry += r.waves * cfg.cost.wave_base + r.work * cfg.cost.per_work_unit;
            if r.waves == 0 {
                carry += r.turns * cfg.cost.wave_base;
            }
            coord.now += carry / u64::from(n);
            carry %= u64::from(n);
            continue;
        }
        if r.ready > 0 || r.backlog > 0 || r.sent_cross || !coord.inject.is_empty() {
            continue;
        }
        // Idle: skip to the next deadline, or stop without an answer.
        let next = [r.next_deadline, coord.timers.next_deadline().copied()]
            .into_iter()
            .flatten()
            .min();
        match next {
            Some(at) => coord.now = coord.now.max(at),
            None => break,
        }
    }
    out.result = sr.result().cloned();
    drop(fleet.finish());
    out
}
