//! A loopback [`Substrate`] owned by the benchmark: every send lands in
//! one FIFO mailbox, timers in a wheel, and the clock moves by the
//! parallel charge of each sweep's waves (summed wave cost over the engine
//! count, as the parallel reactor charges a round). It drives the
//! workload's [`DriverLoop`]s and a [`SuperRootDriver`] fault-free, and
//! times the public engine entry points — `run_ready_wave`, `on_message`,
//! `on_timer` — and the `send` calls nested inside them, so engine self
//! time excludes dispatch.

use crate::spec::Spec;
use splice_applicative::{Value, Workload};
use splice_core::engine::Timer;
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::sink::ActionSink;
use splice_harness::{DriverLoop, Substrate, SuperRootDriver, TimerWheel};
use splice_sim::CostModel;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Waves one engine may run per sweep before the others get a turn (the
/// parallel reactor's per-round burst).
const BURST: usize = splice_harness::parallel::WAVE_BURST;

/// Sweeps after which a run that has not answered counts as stuck.
const MAX_SWEEPS: u64 = 50_000_000;

struct Loop {
    n: u32,
    now: u64,
    mail: VecDeque<(ProcId, Msg)>,
    timers: TimerWheel<u64, (ProcId, Timer)>,
    /// Every message sent, in send order, when capturing.
    captured: Option<Vec<Msg>>,
    sends: u64,
    send_ns: u64,
    /// Work of the wave that just completed.
    last_work: u64,
}

impl Substrate for Loop {
    fn n_procs(&self) -> u32 {
        self.n
    }

    fn is_live(&self, _p: ProcId) -> bool {
        true
    }

    fn now_units(&self) -> u64 {
        self.now
    }

    fn send(&mut self, _from: ProcId, to: ProcId, msg: Msg) {
        if let Some(c) = &mut self.captured {
            c.push(msg.clone());
        }
        let t = Instant::now();
        self.mail.push_back((to, msg));
        self.send_ns += t.elapsed().as_nanos() as u64;
        self.sends += 1;
    }

    fn arm_timer(&mut self, owner: ProcId, timer: Timer, delay: u64) {
        self.timers.arm(self.now + delay, (owner, timer));
    }

    fn report_death(&mut self, _dead: ProcId) {}

    fn complete_wave(&mut self, _proc: ProcId, _sink: &mut ActionSink, work: u64) {
        self.last_work = work;
    }
}

/// Engine and dispatch figures of one loopback run.
#[derive(Default)]
pub struct Loopback {
    pub result: Option<Value>,
    pub waves: u64,
    /// Wave self time (nested sends excluded), ns.
    pub wave_ns: u64,
    /// Messages and timer fires handled by engines.
    pub handled: u64,
    /// Handler self time (nested sends excluded), ns.
    pub handle_ns: u64,
    pub sends: u64,
    pub send_ns: u64,
    pub captured: Vec<Msg>,
}

/// Runs `spec`'s program on the loopback, fault-free, with `spec`'s
/// placement and recovery configuration. `capture` keeps every sent
/// message (the copy happens outside the timed sends).
pub fn run(spec: &Spec, w: &Workload, capture: bool) -> Loopback {
    let cfg = &spec.cfg;
    let n = cfg.topology.len();
    let program = Arc::new(w.program.clone());
    let all: Arc<[ProcId]> = (0..n).map(ProcId).collect();
    let mut nodes: Vec<DriverLoop> = (0..n)
        .map(|i| {
            let id = ProcId(i);
            DriverLoop::new(
                id,
                program.clone(),
                cfg.engine_recovery(),
                cfg.policy.build_shared(id, &cfg.topology, cfg.seed, &all),
            )
        })
        .collect();
    let mut sr = SuperRootDriver::new(w, &cfg.recovery);
    let mut sub = Loop {
        n,
        now: 0,
        mail: VecDeque::new(),
        timers: TimerWheel::new(),
        captured: capture.then(Vec::new),
        sends: 0,
        send_ns: 0,
        last_work: 0,
    };
    let mut out = Loopback::default();
    // Engines whose ready queue may be non-empty, each listed once.
    let mut ready: Vec<u32> = Vec::new();
    let mut listed = vec![false; n as usize];
    let cost = CostModel::default();
    let mut carry = 0u64;

    for node in &mut nodes {
        node.start(&mut sub);
    }
    sr.launch(&mut sub);
    for _ in 0..MAX_SWEEPS {
        let mut progressed = false;
        while let Some((to, msg)) = sub.mail.pop_front() {
            progressed = true;
            if to.is_super_root() {
                sr.on_message(msg, &mut sub);
                continue;
            }
            let node = &mut nodes[to.0 as usize];
            let s0 = sub.send_ns;
            let t = Instant::now();
            node.on_message(msg, &mut sub);
            out.handle_ns += (t.elapsed().as_nanos() as u64).saturating_sub(sub.send_ns - s0);
            out.handled += 1;
            if !listed[to.0 as usize] && node.has_ready() {
                listed[to.0 as usize] = true;
                ready.push(to.0);
            }
        }
        if sr.result().is_some() {
            break;
        }
        let mut swept = 0u64;
        for p in std::mem::take(&mut ready) {
            listed[p as usize] = false;
            let node = &mut nodes[p as usize];
            for _ in 0..BURST {
                let s0 = sub.send_ns;
                let t = Instant::now();
                if !node.run_ready_wave(&mut sub) {
                    break;
                }
                out.wave_ns += (t.elapsed().as_nanos() as u64).saturating_sub(sub.send_ns - s0);
                out.waves += 1;
                swept += cost.wave_cost(sub.last_work);
            }
            if node.has_ready() && !listed[p as usize] {
                listed[p as usize] = true;
                ready.push(p);
            }
        }
        if swept > 0 {
            progressed = true;
            carry += swept;
            sub.now += carry / u64::from(n);
            carry %= u64::from(n);
        }
        while let Some((owner, timer)) = sub.timers.pop_due(&sub.now) {
            progressed = true;
            if owner.is_super_root() {
                sr.on_timer(timer, &mut sub);
                continue;
            }
            let node = &mut nodes[owner.0 as usize];
            let s0 = sub.send_ns;
            let t = Instant::now();
            node.on_timer(timer, &mut sub);
            out.handle_ns += (t.elapsed().as_nanos() as u64).saturating_sub(sub.send_ns - s0);
            out.handled += 1;
            if !listed[owner.0 as usize] && node.has_ready() {
                listed[owner.0 as usize] = true;
                ready.push(owner.0);
            }
        }
        if !progressed && sub.mail.is_empty() {
            // Idle: skip the clock to the next timer, or give up.
            match sub.timers.next_deadline() {
                Some(&at) => sub.now = sub.now.max(at),
                None => break,
            }
        }
    }
    out.result = sr.result().cloned();
    out.sends = sub.sends;
    out.send_ns = sub.send_ns;
    out.captured = sub.captured.unwrap_or_default();
    out
}
