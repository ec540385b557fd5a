//! `nqpv-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host/provenance record, then (last) one JSON result line.
//! Exits 1 when a verdict misses its known answer, 2 on bad usage.

use nqpv_perfbench::report::{host_line, result_line};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nqpv-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        nqpv_perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag("--workload"),
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
        flag("--seconds").and_then(|s| s.parse::<f64>().ok()),
        flag("--trace"),
    ) else {
        return usage();
    };
    let traced = match trace.as_str() {
        "0" => false,
        "1" => true,
        _ => return usage(),
    };
    let Some(out) = nqpv_perfbench::run(&workload, seed, seconds, traced) else {
        return usage();
    };
    println!(
        "{}",
        host_line(&workload, seed, out.kernel_threads, out.workers, out.tally)
    );
    println!("{}", result_line(out.tally, &out.metrics));
    if out.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
