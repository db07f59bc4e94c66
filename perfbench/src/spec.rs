//! The four workloads: machine shape, program input and fault plan, all
//! made from the run's `--seed`, plus the expected answer computed apart
//! from the machine.

use splice_applicative::{Value, Workload};
use splice_gradient::Policy;
use splice_sim::{Machine, MachineConfig, ParallelReactorMachine, RunReport};
use splice_simnet::fault::{FaultKind, FaultPlan};
use splice_simnet::time::VirtualTime;

/// Which scheduler runs the workload.
#[derive(Clone, Copy)]
pub enum Backend {
    /// The discrete-event simulator.
    Des,
    /// The parallel reactor (pump count from the config).
    Parallel,
}

/// The program a workload runs, as the benchmark generates it.
#[derive(Clone, Copy)]
pub enum Input {
    /// `fib(n)`.
    Fib(i64),
    /// Mergesort of `len` integers generated from `seed`.
    Sort { len: usize, seed: u64 },
}

impl Input {
    pub fn workload(self) -> Workload {
        match self {
            Input::Fib(n) => Workload::fib(n),
            Input::Sort { len, seed } => Workload::mergesort(len, seed),
        }
    }

    /// The answer, computed without the machine or its evaluator: an
    /// iterative Fibonacci, or the generated list sorted by the standard
    /// library.
    pub fn expected(self, w: &Workload) -> Value {
        match self {
            Input::Fib(n) => {
                let (mut a, mut b) = (0i64, 1i64);
                for _ in 0..n {
                    (a, b) = (b, a + b);
                }
                Value::Int(a)
            }
            Input::Sort { .. } => {
                let list = w.args[0].as_list().expect("mergesort takes one list");
                let mut xs: Vec<i64> = list
                    .iter()
                    .map(|v| v.as_int().expect("mergesort input is integers"))
                    .collect();
                xs.sort_unstable();
                Value::ints(xs)
            }
        }
    }
}

/// One workload, fully determined by its name, size and seed.
pub struct Spec {
    pub name: &'static str,
    pub backend: Backend,
    pub input: Input,
    pub cfg: MachineConfig,
    pub plan: FaultPlan,
}

pub const NAMES: [&str; 3] = ["sort-gradient", "fib-crash", "fib-wide"];

impl Spec {
    /// The workload `name` at full size (`tiny == false`) or at the
    /// self-check size.
    pub fn new(name: &str, seed: u64, tiny: bool) -> Option<Spec> {
        let spec = match name {
            // Mergesort on 16 flat processors with gradient placement: long
            // sequential merge chains, so nearly all traffic is load
            // beacons. Fault-free.
            "sort-gradient" => {
                let mut cfg = MachineConfig::new(16);
                cfg.seed = seed;
                Spec {
                    name: "sort-gradient",
                    backend: Backend::Des,
                    input: Input::Sort {
                        len: if tiny { 32 } else { 512 },
                        seed,
                    },
                    cfg,
                    plan: FaultPlan::none(),
                }
            }
            // fib on 4 shards of 4 behind a 400-tick router, round-robin,
            // under the mixed plan of `crash_plan`.
            "fib-crash" => {
                let mut cfg = MachineConfig::sharded(4, 4, 400);
                cfg.policy = Policy::RoundRobin;
                cfg.seed = seed;
                let mut spec = Spec {
                    name: "fib-crash",
                    backend: Backend::Des,
                    input: Input::Fib(if tiny { 11 } else { 17 }),
                    cfg,
                    plan: FaultPlan::none(),
                };
                spec.plan = crash_plan(&spec, seed);
                spec
            }
            // fib on 16,384 engines of the one-pump parallel reactor,
            // round-robin placement, load beacons off. Fault-free. fib(20)
            // rather than a smaller tree: each repetition builds and frees
            // the whole engine roster, and the allocator's page traffic
            // makes a fib(18) repetition swing 58-150 ms; three times the
            // work over the same roster holds its median and tail.
            "fib-wide" => {
                let n = if tiny { 256 } else { 16_384 };
                let mut cfg = MachineConfig::new(n);
                cfg.policy = Policy::RoundRobin;
                cfg.recovery.load_beacon_period = 0;
                cfg.threads = 1;
                cfg.seed = seed;
                Spec {
                    name: "fib-wide",
                    backend: Backend::Parallel,
                    input: Input::Fib(if tiny { 10 } else { 20 }),
                    cfg,
                    plan: FaultPlan::none(),
                }
            }
            _ => return None,
        };
        Some(spec)
    }

    /// Builds the machine for one repetition (the part `setup_s` times).
    pub fn build(&self, w: &Workload) -> Built {
        match self.backend {
            Backend::Des => Built::Des(Box::new(Machine::new(self.cfg.clone(), w))),
            Backend::Parallel => {
                Built::Parallel(Box::new(ParallelReactorMachine::new(self.cfg.clone(), w)))
            }
        }
    }

    /// Runs the workload once, fault-free, on the DES with the same shape.
    pub fn fault_free_des(&self) -> RunReport {
        let w = self.input.workload();
        Machine::new(self.cfg.clone(), &w).run(&FaultPlan::none())
    }
}

/// A machine ready to run.
pub enum Built {
    Des(Box<Machine>),
    Parallel(Box<ParallelReactorMachine>),
}

impl Built {
    pub fn run(self, plan: &FaultPlan) -> RunReport {
        match self {
            Built::Des(m) => m.run(plan),
            Built::Parallel(m) => m.run(plan),
        }
    }
}

/// The `fib-crash` plan: three processors crash one after another (one in
/// each of shards 1-3), then the whole of shard 0, then the primary
/// super-root replica, at 20, 30, 40, 50 and 60% of the fault-free finish.
/// `seed` shifts the whole plan later by up to 2% of that finish. The
/// victims stay fixed: which processors die moves the cost by a factor of
/// 1.5 (fib(17): 326k-495k work units over three victim draws), the shift
/// by about 2%, so the seed varies the input without swamping the figures.
fn crash_plan(spec: &Spec, seed: u64) -> FaultPlan {
    let finish = spec.fault_free_des().finish.ticks();
    let shift = mix(seed) % (finish / 50).max(1);
    let at = |pct: u64| VirtualTime(finish * pct / 100 + shift);
    let crash = FaultKind::Crash;
    let mut plan = FaultPlan::none()
        .and(5, at(20), crash)
        .and(9, at(30), crash)
        .and(14, at(40), crash);
    for v in 0..4 {
        plan = plan.and(v, at(50), crash);
    }
    plan.crash_root_replica(0, at(60))
}

/// One SplitMix64 step: spreads consecutive seeds over the whole range.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
