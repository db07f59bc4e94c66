//! One shard of the multi-process machine, spawned by the `fib-proc`
//! workload (`splice_sim::proc::run_process`) with the run directory and
//! shard index as arguments.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (Some(dir), Some(shard)) = (args.get(1), args.get(2).and_then(|s| s.parse::<u32>().ok()))
    else {
        eprintln!("usage: splice-proc-worker <run-dir> <shard-index>");
        return ExitCode::from(2);
    };
    ExitCode::from(splice_sim::proc::worker_main(Path::new(dir), shard) as u8)
}
