//! `perfbench` — the recovery machine's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! With `--trace 0` one workload runs for `--seconds` with tracing off and
//! the end-to-end metrics are printed; with `--trace 1` the per-layer
//! metrics are. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--self-check` runs every workload at a tiny size through the same
//! checks in both modes. See README.md for the workloads and metrics.

mod check;
mod loopback;
mod pumps;
mod spec;
mod stats;
mod timed;
mod traced;

use check::Checks;
use spec::Spec;
use std::process::ExitCode;

/// Metrics in output order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self, checks: &Checks) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.correct(),
            checks.attempted,
            checks.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One workload in one mode: measures, checks, and returns the metrics.
fn run(spec: &Spec, seconds: f64, trace: bool) -> (Metrics, Checks) {
    let mut checks = Checks::default();
    let expected = spec.input.expected(&spec.input.workload());
    checks.reference(spec, &expected);
    let mut metrics = Metrics::default();
    if trace {
        traced::run(spec, &expected, seconds, &mut checks, &mut metrics);
    } else {
        let timed = timed::run(spec, &expected, seconds, &mut checks);
        let full = timed::full_trace(spec, &expected, &mut checks);
        checks.faults_landed(spec, &full);
        timed.metrics(&mut metrics);
    }
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            checks.fail(format!("{}: {name} could not be measured", spec.name));
        }
    }
    (metrics, checks)
}

/// Every workload at a tiny size, in both modes, through the same checks.
fn self_check() -> ExitCode {
    let mut ok = true;
    for name in spec::NAMES {
        let spec = Spec::new(name, 7, true).expect("known workload");
        for trace in [false, true] {
            let (metrics, checks) = run(&spec, 0.05, trace);
            let good = checks.correct() && checks.failed == 0;
            ok &= good;
            println!(
                "{name} trace={} {}: {} metrics, {} attempted",
                u8::from(trace),
                if good { "ok" } else { "FAILED" },
                metrics.0.len(),
                checks.attempted
            );
            for e in &checks.errors {
                println!("  {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-check") {
        return self_check();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::new(&args.workload, args.seed, false) else {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {}",
            args.workload,
            spec::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let (metrics, checks) = run(&spec, args.seconds, args.trace);
    for e in &checks.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", metrics.json(&checks));
    ExitCode::SUCCESS
}
