//! The traced run: per-layer metrics. Counts come from the workload's own
//! run (its `RunReport`) and from a repetition with the full canonical
//! trace (event kinds). Per-unit times come from timing public calls of
//! each layer on the workload's program: the evaluator alone, the engine
//! and dispatch on the loopback substrate, the codec on the loopback's
//! traffic, the parallel reactor's round loop, and the process machine's
//! fixed cost.

use crate::check::Checks;
use crate::spec::{Input, Spec};
use crate::stats::median;
use crate::timed::{self, FullTrace};
use crate::{loopback, pumps, Metrics};
use splice_applicative::wave::run_local;
use splice_applicative::{Value, Workload};
use splice_core::packet::{Msg, MsgKind};
use splice_gradient::Policy;
use splice_sim::{MachineConfig, ParallelReactorMachine};
use splice_simnet::codec::{decode_msg, encode_msg_frame, FrameBuf};
use splice_simnet::fault::FaultPlan;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions every timed layer measurement makes at least.
const MIN_REPS: usize = 3;

/// Calls `f` until `slice` has passed and at least [`MIN_REPS`] times,
/// collecting what it returns.
fn repeat<T>(slice: Duration, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed() < slice {
        out.push(f());
    }
    out
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(spec: &Spec, expected: &Value, seconds: f64, checks: &mut Checks, out: &mut Metrics) {
    // Seven timed layer measurements share the run's length.
    let slice = Duration::from_secs_f64(seconds / 7.0);
    let w = spec.input.workload();

    // The workload's own run, tracing off, and its fault-free twin on the
    // DES (the base of redone work).
    let report = &timed::run_once(spec, expected, checks);
    checks.attempt(report.completed);
    let fault_free = spec.fault_free_des();
    checks.report(spec, &fault_free, expected);
    let base_work = fault_free.stats.work_units;

    // The same repetition with the full trace on.
    let mut full: Option<FullTrace> = None;
    let full_ms = repeat(slice, || {
        let f = timed::full_trace(spec, expected, checks);
        checks.attempt(f.report.completed);
        let ms = f.ms;
        full = Some(f);
        ms
    });
    let full = full.expect("at least one full-trace repetition");
    checks.faults_landed(spec, &full);
    let handled = full.kinds.deliver + full.kinds.timer;

    // The evaluator alone.
    let eval_ms = repeat(slice, || {
        let t = Instant::now();
        let v = run_local(&w.program, w.entry, black_box(&w.args));
        let ms = ms_since(t);
        if v.as_ref() != Ok(expected) {
            checks.fail(format!("{}: wave::run_local gave {v:?}", spec.name));
        }
        ms
    });

    // Engine and dispatch on the loopback; the codec on its traffic.
    let captured = loopback::run(spec, &w, true);
    if captured.result.as_ref() != Some(expected) {
        checks.fail(format!(
            "{}: loopback run gave {:?}",
            spec.name, captured.result
        ));
    }
    let loops = repeat(slice, || loopback::run(spec, &w, false));
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64 / 1e3;
    let wave_us = median(
        &loops
            .iter()
            .map(|l| per(l.wave_ns, l.waves))
            .collect::<Vec<_>>(),
    );
    let handle_us = median(
        &loops
            .iter()
            .map(|l| per(l.handle_ns, l.handled))
            .collect::<Vec<_>>(),
    );
    let send_us = median(
        &loops
            .iter()
            .map(|l| per(l.send_ns, l.sends))
            .collect::<Vec<_>>(),
    );
    let codec = codec(&captured.captured, slice, spec, checks);

    // The parallel reactor's round loop on one pump, and the same input
    // on the two-pump machine.
    let rounds = repeat(slice, || pumps::run(spec, &w));
    for r in &rounds {
        if r.result.as_ref() != Some(expected) {
            checks.fail(format!(
                "{}: one-pump round loop gave {:?}",
                spec.name, r.result
            ));
        }
    }
    let round_us = median(
        &rounds
            .iter()
            .map(|r| per(r.round_ns, r.rounds))
            .collect::<Vec<_>>(),
    );
    let two_pump_ms = repeat(slice, || {
        let cfg = MachineConfig {
            threads: 2,
            ..spec.cfg.clone()
        };
        let m = ParallelReactorMachine::new(cfg, &w);
        let t = Instant::now();
        let r = m.run(&spec.plan);
        let ms = ms_since(t);
        checks.report(spec, &r, expected);
        if !r.completed {
            checks.fail(format!("{}: two-pump run did not complete", spec.name));
        }
        ms
    });

    let process = process_layer(slice, checks);

    let s = &report.stats;
    let count = |x: u64| x as f64;
    out.push("applicative.eval_ms", median(&eval_ms), "ms");
    out.push("core.engine.waves", count(s.waves_run), "count");
    out.push("core.engine.wave_us", wave_us, "us");
    out.push("core.engine.handled", count(handled), "count");
    out.push("core.engine.handle_us", handle_us, "us");
    out.push(
        "core.engine.load_msgs",
        count(s.sent_of(MsgKind::Load)),
        "count",
    );
    out.push("core.checkpoint.stored", count(report.ckpt_stored), "count");
    out.push(
        "core.checkpoint.peak_kib",
        report.ckpt_peak_bytes as f64 / 1024.0,
        "KiB",
    );
    out.push("core.recovery.reissues", count(s.reissues), "count");
    out.push(
        "core.recovery.twins",
        count(s.step_parents_created),
        "count",
    );
    out.push("core.recovery.salvaged", count(s.salvaged_results), "count");
    out.push("core.recovery.aborted", count(s.tasks_aborted), "count");
    out.push(
        "core.recovery.redone_work",
        s.work_units as f64 - base_work as f64,
        "count",
    );
    out.push(
        "core.superroot.failovers",
        count(report.root_failovers),
        "count",
    );
    out.push("harness.dispatch.sends", count(s.total_sent()), "count");
    out.push("harness.dispatch.send_us", send_us, "us");
    out.push(
        "harness.shard.inter_msgs",
        count(report.shard_msgs_inter),
        "count",
    );
    out.push("simnet.queue.events", count(report.events), "count");
    out.push("simnet.trace.full_ms", median(&full_ms), "ms");
    out.push("simnet.codec.bytes_per_msg", codec.bytes_per_msg, "bytes");
    out.push("simnet.codec.encode_ns", codec.encode_ns, "ns");
    out.push("simnet.codec.decode_ns", codec.decode_ns, "ns");
    out.push("sim.parallel.rounds", count(rounds[0].rounds), "count");
    out.push("sim.parallel.round_us", round_us, "us");
    out.push("sim.parallel.two_pump_ms", median(&two_pump_ms), "ms");
    out.push("sim.proc.fixed_ms", process.fixed_ms, "ms");
    out.push("sim.proc.frames", count(process.frames), "count");
    out.push("sim.proc.reconnects", count(process.reconnects), "count");
}

struct Process {
    fixed_ms: f64,
    frames: u64,
    reconnects: u64,
}

/// The process machine (2 worker processes × 4 engines, round-robin),
/// the same in every workload's traced run: its fixed cost is the wall
/// time of fib(1), which sends no data frame; its traffic is that of
/// fib(15).
fn process_layer(slice: Duration, checks: &mut Checks) -> Process {
    let mut cfg = MachineConfig::sharded(2, 4, 0);
    cfg.policy = Policy::RoundRobin;
    let mut run = |n: i64| {
        let w = Workload::fib(n);
        let t = Instant::now();
        let (r, _) = splice_sim::execute(
            splice_sim::Backend::Process,
            cfg.clone(),
            &w,
            &FaultPlan::none(),
        );
        let ms = ms_since(t);
        let want = Input::Fib(n).expected(&w);
        if !r.completed || r.result.as_ref() != Some(&want) {
            checks.fail(format!("process fib({n}) gave {:?}", r.result));
        }
        (ms, r)
    };
    let fixed_ms = median(&repeat(slice, || run(1).0));
    let (_, r) = run(15);
    Process {
        fixed_ms,
        frames: r.frames_sent,
        reconnects: r.reconnects,
    }
}

struct Codec {
    bytes_per_msg: f64,
    encode_ns: f64,
    decode_ns: f64,
}

/// Frames every captured message, times encoding and decoding per
/// message, and checks that each one decodes back to itself.
fn codec(msgs: &[Msg], slice: Duration, spec: &Spec, checks: &mut Checks) -> Codec {
    let n = msgs.len().max(1) as f64;
    let mut scratch = Vec::new();
    let mut stream = Vec::new();
    for m in msgs {
        encode_msg_frame(m, &mut scratch, &mut stream);
    }
    let mut fb = FrameBuf::new();
    fb.extend(&stream);
    let mut bad = 0usize;
    for m in msgs {
        match fb.next_frame() {
            Ok(Some(body)) if decode_msg(&body).as_ref() == Ok(m) => {}
            _ => bad += 1,
        }
    }
    if bad > 0 || fb.pending() != 0 {
        checks.fail(format!(
            "{}: {bad} of {} captured messages did not decode back to themselves",
            spec.name,
            msgs.len()
        ));
    }
    let mut frame = Vec::new();
    let encode = repeat(slice / 2, || {
        let t = Instant::now();
        for m in msgs {
            frame.clear();
            encode_msg_frame(black_box(m), &mut scratch, &mut frame);
            black_box(&frame);
        }
        t.elapsed().as_nanos() as f64 / n
    });
    let decode = repeat(slice / 2, || {
        let t = Instant::now();
        let mut fb = FrameBuf::new();
        fb.extend(&stream);
        while let Ok(Some(body)) = fb.next_frame() {
            black_box(decode_msg(&body).ok());
        }
        t.elapsed().as_nanos() as f64 / n
    });
    Codec {
        bytes_per_msg: stream.len() as f64 / n,
        encode_ns: median(&encode),
        decode_ns: median(&decode),
    }
}
