//! The end-to-end run: many repetitions of one workload with tracing off,
//! each one built, run and checked.

use crate::check::Checks;
use crate::spec::{Backend, Spec};
use crate::stats::{median, tail};
use crate::Metrics;
use splice_applicative::Value;
use splice_sim::{MachineConfig, RunReport};
use splice_simnet::trace::{TraceKind, TraceMode};
use std::time::{Duration, Instant};

/// Repetitions every run makes at least, so the tail percentile has ten
/// repetitions beyond it whatever `--seconds` says.
pub const MIN_REPS: usize = 21;

/// What the timed repetitions measured, for both output modes.
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub wall_ms: Vec<f64>,
    pub ticks: Vec<f64>,
    pub work: Vec<f64>,
    pub msgs: Vec<f64>,
    pub peak_rss_mb: f64,
}

/// One untimed repetition, checked like every timed one.
pub fn run_once(spec: &Spec, expected: &Value, checks: &mut Checks) -> RunReport {
    let w = spec.input.workload();
    let report = spec.build(&w).run(&spec.plan);
    checks.report(spec, &report, expected);
    report
}

/// Repeats build + run until `seconds` have passed (and at least
/// [`MIN_REPS`] repetitions ran), timing the build and the run apart.
pub fn run(spec: &Spec, expected: &Value, seconds: f64, checks: &mut Checks) -> Timed {
    // The warm-up repetition, excluded from every figure: fills caches and
    // finishes lazy set-up.
    let first = run_once(spec, expected, checks);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut wall_ms = Vec::new();
    let mut ticks = Vec::new();
    let mut work = Vec::new();
    let mut msgs = Vec::new();
    while setup_s.len() < MIN_REPS || start.elapsed() < budget {
        let t0 = Instant::now();
        let w = spec.input.workload();
        let machine = spec.build(&w);
        let t1 = Instant::now();
        let report = machine.run(&spec.plan);
        let t2 = Instant::now();
        setup_s.push((t1 - t0).as_secs_f64());
        wall_ms.push((t2 - t1).as_secs_f64() * 1e3);
        ticks.push(report.finish.ticks() as f64);
        work.push(report.stats.work_units as f64);
        msgs.push(report.delivered as f64);
        checks.report(spec, &report, expected);
        if report != first {
            checks.fail(format!(
                "{}: repetition {} differs from the first (finish {} vs {}, events {} vs {})",
                spec.name,
                setup_s.len(),
                report.finish.ticks(),
                first.finish.ticks(),
                report.events,
                first.events
            ));
        }
        checks.attempt(report.completed);
    }
    Timed {
        setup_s,
        wall_ms,
        ticks,
        work,
        msgs,
        peak_rss_mb: peak_rss_mb(),
    }
}

impl Timed {
    /// The end-to-end metrics, by name and unit.
    pub fn metrics(&self, out: &mut Metrics) {
        out.push("setup_s", median(&self.setup_s), "s");
        out.push("wall_ms", median(&self.wall_ms), "ms");
        out.push("wall_ms_tail", tail(&self.wall_ms), "ms");
        out.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        out.push("virt_ticks", median(&self.ticks), "ticks");
        out.push("work_units", median(&self.work), "count");
        out.push("msgs", median(&self.msgs), "count");
    }
}

/// One repetition with the full canonical trace on, outside the timed
/// loop: its wall time and its events.
pub struct FullTrace {
    pub ms: f64,
    pub report: RunReport,
    pub kinds: KindCounts,
}

/// Trace events by kind.
#[derive(Default, Debug)]
pub struct KindCounts {
    pub deliver: u64,
    pub timer: u64,
    pub faults_applied: u64,
    pub faults_ignored: u64,
    pub failovers: u64,
}

pub fn full_trace(spec: &Spec, expected: &Value, checks: &mut Checks) -> FullTrace {
    let w = spec.input.workload();
    let cfg = MachineConfig {
        trace: TraceMode::Full,
        ..spec.cfg.clone()
    };
    let backend = match spec.backend {
        Backend::Des => splice_sim::Backend::Des,
        Backend::Parallel => splice_sim::Backend::ParallelReactor,
    };
    let t0 = Instant::now();
    let (report, events) = splice_sim::execute(backend, cfg, &w, &spec.plan);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    checks.report(spec, &report, expected);
    let mut kinds = KindCounts::default();
    for ev in &events {
        match ev.kind {
            TraceKind::Deliver { .. } => kinds.deliver += 1,
            TraceKind::TimerFire { .. } => kinds.timer += 1,
            TraceKind::Fault { applied: true, .. } => kinds.faults_applied += 1,
            TraceKind::Fault { applied: false, .. } => kinds.faults_ignored += 1,
            TraceKind::RootFailover { .. } => kinds.failovers += 1,
            _ => {}
        }
    }
    FullTrace { ms, report, kinds }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
