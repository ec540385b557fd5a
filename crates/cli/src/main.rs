//! `nqpv` — the command-line proof assistant for nondeterministic quantum
//! programs (Rust reproduction of the ASPLOS '23 NQPV prototype).
//!
//! ```text
//! nqpv verify FILE.nqpv      verify every proof in FILE, print show output
//! nqpv explain FILE.nqpv     verify FILE and turn every REJECTED proof
//!                            into a counterexample (witness state,
//!                            scheduler trace, expectation trajectory)
//! nqpv show FILE.nqpv NAME   verify FILE, then print the named artifact
//! nqpv check FILE.nqpv       parse only; report syntax errors
//! nqpv batch DIR             verify every .nqpv under DIR in parallel
//! nqpv serve --addr H:P      run the verification daemon (NDJSON/TCP)
//! nqpv client ADDR CMD …     talk to a running daemon
//! nqpv top ADDR              live terminal dashboard over a daemon
//! nqpv ops                   list the built-in operator library
//! ```
//!
//! Exit code 0 = everything verified; 1 = a proof was rejected (or, for
//! `batch`/`client submit`, any job failed); 2 = usage/parse/structural
//! error.

use nqpv_core::{Session, VcOptions};
use nqpv_engine::{run_batch, BatchOptions, Corpus, DiskCache};
use nqpv_lang::parse_source;
use nqpv_service::{serve_blocking, Client, Event, Request, RetryPolicy, ServeOptions};
use nqpv_telemetry::json_string;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let infer = if let Some(pos) = args.iter().position(|a| a == "--infer") {
        args.remove(pos);
        true
    } else {
        false
    };
    match args.first().map(String::as_str) {
        Some("verify") if args.len() == 2 => cmd_verify(&args[1], None, infer),
        Some("explain") => cmd_explain(&args[1..], infer),
        Some("show") if args.len() == 3 => cmd_verify(&args[1], Some(&args[2]), infer),
        Some("check") if args.len() == 2 => cmd_check(&args[1]),
        Some("batch") => cmd_batch(&args[1..], infer),
        Some("serve") => cmd_serve(&args[1..], infer),
        Some("client") => cmd_client(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("ops") => cmd_ops(),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  nqpv verify [--infer] FILE.nqpv\n  nqpv explain [--infer] [--json] [--trace DIR] [--profile-out FILE]\n              [--kernel-threads N] FILE.nqpv\n  nqpv show [--infer] FILE.nqpv NAME\n  nqpv check FILE.nqpv\n  nqpv batch [--infer] [--jobs N] [--json] [--no-cache] [--cache-cap N]\n             [--cache-dir DIR] [--cache-max-bytes N] [--no-bin]\n             [--explain] [--trace DIR] [--flight-dir DIR]\n             [--job-timeout SECS] [--kernel-threads N]\n             [--profile-out FILE] DIR|MANIFEST\n  nqpv serve --addr HOST:PORT [--infer] [--jobs N] [--no-cache]\n             [--cache-cap N] [--cache-dir DIR] [--cache-max-bytes N]\n             [--max-queue N] [--max-per-client N] [--job-timeout SECS]\n             [--drain-timeout SECS] [--explain] [--metrics-addr HOST:PORT]\n             [--flight-dir DIR] [--log-level LVL] [--log-json]\n             [--kernel-threads N] [--sample-secs N]\n             [--slo-ms N] [--trace-store N]\n  nqpv client ADDR submit [--priority N] [--trace-out DIR] PATH…\n                                                 submit + stream verdicts\n  nqpv client ADDR watch                         stream every job event\n  nqpv client ADDR stats|ping|series|profile\n  nqpv client ADDR shutdown [--drain]\n  nqpv top ADDR [--once] [--interval SECS]   live terminal dashboard\n  nqpv ops\n\n  --infer        attempt wlp-fixpoint invariant inference for\n                 while loops lacking an inv: annotation\n  --jobs N       worker threads (default: available cores)\n  --kernel-threads N\n                 data-parallel threads *inside* each job's linalg\n                 kernels (default: 1, or NQPV_KERNEL_THREADS); results\n                 are bitwise identical for every value\n  --json         print the report as JSON instead of a summary\n  --no-cache     disable the shared wp memo cache\n  --cache-cap N  bound each cache tier to N entries (LRU eviction;\n                 eviction counts appear in the report)\n  --cache-dir D  persist solver verdicts under D (survives restarts,\n                 shared between batch runs and the daemon)\n  --cache-max-bytes N\n                 size budget for the verdict store under --cache-dir:\n                 oldest records are evicted to stay under N bytes\n  --no-bin       disable verdict-cache affinity scheduling\n  --explain      extract a counterexample (witness state, scheduler\n                 trace, expectation trajectory) for every rejected proof\n  --trace DIR    write one Chrome trace-event JSON per job under DIR\n                 (open in chrome://tracing or Perfetto)\n  --trace-out DIR\n                 (client submit) mint a wire trace id, propagate it to\n                 the daemon, and write one *stitched* Chrome trace per\n                 job under DIR combining the client's submit/wait spans\n                 with the daemon's queue/worker spans\n  --flight-dir DIR\n                 write flight-recorder snapshots (recent span/log\n                 events as JSON) under DIR on panics, timeouts and\n                 error verdicts — and on 'dump_flight' requests\n  --log-level LVL\n                 daemon stderr log threshold: error|warn|info|debug\n                 (default info)\n  --log-json     emit daemon logs as JSON lines instead of plain text\n  --job-timeout SECS\n                 per-job verification deadline: a job still unverified\n                 after SECS is stopped cooperatively and reported with\n                 a 'timeout' verdict\n  --max-queue N  refuse submissions once N jobs are queued (daemon\n                 backpressure; structured 'overloaded' reply)\n  --max-per-client N\n                 bound one connection's queued+running jobs to N\n                 (client-scoped 'overloaded' reply)\n  --drain-timeout SECS\n                 bound on 'shutdown --drain' backlog completion\n                 (default 30)\n  --metrics-addr HOST:PORT\n                 serve Prometheus text metrics at http://HOST:PORT/metrics\n                 (plus /healthz readiness and /series ring dump)\n  --sample-secs N\n                 metrics time-series sampling interval for the in-daemon\n                 ring (default 5)\n  --slo-ms N     per-job latency objective: track jobs within/over N ms\n                 and an error-budget burn-rate gauge (99% objective)\n  --trace-store N\n                 finished-trace FIFO capacity for wire-trace stitching\n                 (default 256; evictions are counted)\n  --profile-out FILE\n                 write a collapsed-stack self-time profile (folded\n                 flamegraph text: 'stack;frames count-in-us' lines)\n  --once         (top) render one dashboard frame and exit\n  --interval SECS\n                 (top) seconds between dashboard refreshes (default 2)\n  --priority N   scheduling priority for submitted jobs (higher first)\n  --drain        (client shutdown) finish the whole backlog before the\n                 daemon stops, instead of dropping queued jobs\n\nenvironment:\n  NQPV_FAULTS=<seed>:<site>[*<cap>],…\n                 arm the deterministic fault-injection harness (sites:\n                 worker_panic, solver_delay, disk_read, disk_write,\n                 conn_drop); inert when unset\n  NQPV_KERNEL_THREADS=N\n                 default kernel thread count when --kernel-threads\n                 is not given"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read '{path}': {e}");
        ExitCode::from(2)
    })
}

fn cmd_check(path: &str) -> ExitCode {
    let src = match read(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match parse_source(&src) {
        Ok(file) => {
            println!("OK: {} command(s)", file.commands.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_verify(path: &str, show: Option<&str>, infer: bool) -> ExitCode {
    let src = match read(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let base = Path::new(path)
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_default();
    let mut session = Session::new()
        .with_options(VcOptions {
            infer_invariants: infer,
            ..VcOptions::default()
        })
        .with_base_dir(base);
    if let Err(e) = session.run_str(&src) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    for text in session.output() {
        println!("{text}");
    }
    if let Some(name) = show {
        match session.show(name) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    // Exit status reflects verification results (execution order, robust
    // to duplicate proof names).
    let mut all_ok = true;
    for (name, verified) in session.proof_verdicts() {
        if *verified {
            println!("proof '{name}': verified");
        } else {
            println!("proof '{name}': REJECTED");
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `nqpv explain [--infer] [--json] FILE.nqpv` — verify the file and turn
/// every REJECTED proof into a counterexample: witness state, demonic
/// scheduler trace, and per-statement expectation trajectory, confirmed
/// by forward replay. Exit codes mirror `verify` (0 all proofs verified,
/// 1 any rejected, 2 structural error).
fn cmd_explain(rest: &[String], infer: bool) -> ExitCode {
    let mut json = false;
    let mut trace_dir: Option<&str> = None;
    let mut profile_out: Option<&str> = None;
    let mut target: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--kernel-threads" => match positive_arg(&mut it, "--kernel-threads") {
                Ok(n) => nqpv_linalg::par::set_kernel_threads(n),
                Err(code) => return code,
            },
            "--trace" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --trace expects a directory");
                    return ExitCode::from(2);
                };
                trace_dir = Some(dir);
            }
            "--profile-out" => {
                let Some(file) = it.next() else {
                    eprintln!("error: --profile-out expects a file path");
                    return ExitCode::from(2);
                };
                profile_out = Some(file);
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown explain flag '{other}'");
                return usage();
            }
            other => {
                if target.replace(other).is_some() {
                    eprintln!("error: explain expects exactly one FILE");
                    return usage();
                }
            }
        }
    }
    let Some(path) = target else {
        eprintln!("error: explain expects a FILE.nqpv");
        return usage();
    };
    let src = match read(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let base = Path::new(path)
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_default();
    let mut opts = VcOptions {
        infer_invariants: infer,
        ..VcOptions::default()
    };
    // Both sinks need full span events: the Chrome trace replays them on a
    // timeline, the collapsed-stack profile folds them by self-time.
    let tracer = if trace_dir.is_some() || profile_out.is_some() {
        nqpv_telemetry::Tracer::create(true)
    } else {
        nqpv_telemetry::Tracer::DISABLED
    };
    if tracer.enabled() {
        opts = opts.with_tracer(tracer);
    }
    let report = nqpv_diagnose::explain_source(&src, &base, opts);
    if tracer.enabled() {
        let name = Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "explain".to_string());
        let data = tracer.finish().unwrap_or_default();
        if let Some(dir) = trace_dir {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                std::fs::write(
                    Path::new(dir).join(format!("{name}.trace.json")),
                    data.chrome_json(&name),
                )
            }) {
                eprintln!("warning: cannot write trace under '{dir}': {e}");
            }
        }
        if let Some(file) = profile_out {
            let profile = nqpv_telemetry::profile::Profile::new();
            profile.fold(&data);
            if let Err(e) = std::fs::write(file, profile.render()) {
                eprintln!("warning: cannot write profile '{file}': {e}");
            }
        }
    }
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    if json {
        let mut out = String::new();
        out.push_str("{\"file\": ");
        out.push_str(&json_string(path));
        out.push_str(", \"proofs\": [");
        for (i, d) in report.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"verified\": {}",
                json_string(&d.name),
                d.verified
            ));
            if let Some(cex) = &d.counterexample {
                out.push_str(", \"counterexample\": ");
                out.push_str(&cex.to_json());
            }
            out.push('}');
            all_ok &= d.verified;
        }
        out.push_str("]}");
        println!("{out}");
    } else {
        for d in &report {
            if d.verified {
                println!("proof '{}': verified (no counterexample)", d.name);
            } else {
                all_ok = false;
                println!("proof '{}': REJECTED", d.name);
                match &d.counterexample {
                    Some(cex) => print!("{}", cex.human()),
                    None => println!("  (comparison unresolved — no witness extracted)"),
                }
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Parses the positive-integer argument of `flag`.
fn positive_arg(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, ExitCode> {
    match it.next().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => Ok(n),
        _ => {
            eprintln!("error: {flag} expects a positive integer");
            Err(ExitCode::from(2))
        }
    }
}

/// `nqpv batch [--infer] [--jobs N] [--json] [--no-cache] [--cache-cap N]
/// [--cache-dir DIR] [--no-bin] DIR|MANIFEST` — load a corpus (directory
/// of `.nqpv` files, or a manifest listing them) and verify it on a
/// worker pool with a shared (optionally LRU-bounded, optionally
/// disk-persistent) wp memo cache and verdict-affinity scheduling.
fn cmd_batch(rest: &[String], infer: bool) -> ExitCode {
    let mut jobs: usize = 0;
    let mut json = false;
    let mut use_cache = true;
    let mut bin_jobs = true;
    let mut explain = false;
    let mut cache_cap: Option<usize> = None;
    let mut cache_dir: Option<&str> = None;
    let mut cache_max_bytes: Option<u64> = None;
    let mut job_timeout: Option<Duration> = None;
    let mut trace_dir: Option<&str> = None;
    let mut flight_dir: Option<&str> = None;
    let mut profile_out: Option<&str> = None;
    let mut target: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => match positive_arg(&mut it, "--jobs") {
                Ok(n) => jobs = n,
                Err(code) => return code,
            },
            "--kernel-threads" => match positive_arg(&mut it, "--kernel-threads") {
                Ok(n) => nqpv_linalg::par::set_kernel_threads(n),
                Err(code) => return code,
            },
            "--cache-cap" => match positive_arg(&mut it, "--cache-cap") {
                Ok(n) => cache_cap = Some(n),
                Err(code) => return code,
            },
            "--cache-max-bytes" => match positive_arg(&mut it, "--cache-max-bytes") {
                Ok(n) => cache_max_bytes = Some(n as u64),
                Err(code) => return code,
            },
            "--job-timeout" => match positive_arg(&mut it, "--job-timeout") {
                Ok(n) => job_timeout = Some(Duration::from_secs(n as u64)),
                Err(code) => return code,
            },
            "--cache-dir" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --cache-dir expects a directory");
                    return ExitCode::from(2);
                };
                cache_dir = Some(dir);
            }
            "--trace" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --trace expects a directory");
                    return ExitCode::from(2);
                };
                trace_dir = Some(dir);
            }
            "--flight-dir" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --flight-dir expects a directory");
                    return ExitCode::from(2);
                };
                flight_dir = Some(dir);
            }
            "--profile-out" => {
                let Some(file) = it.next() else {
                    eprintln!("error: --profile-out expects a file path");
                    return ExitCode::from(2);
                };
                profile_out = Some(file);
            }
            "--json" => json = true,
            "--no-cache" => use_cache = false,
            "--no-bin" => bin_jobs = false,
            "--explain" => explain = true,
            other if other.starts_with('-') => {
                eprintln!("error: unknown batch flag '{other}'");
                return usage();
            }
            other => {
                if target.replace(other).is_some() {
                    eprintln!("error: batch expects exactly one DIR or MANIFEST");
                    return usage();
                }
            }
        }
    }
    let Some(target) = target else {
        eprintln!("error: batch expects a DIR or MANIFEST");
        return usage();
    };
    // Batch runs log to stderr at the daemon's default threshold so
    // worker panics and flight dumps are visible without a flag.
    nqpv_telemetry::log::init(nqpv_telemetry::log::Level::Info, false);
    let disk = match cache_dir {
        Some(dir) if use_cache => match DiskCache::open_with_budget(dir, cache_max_bytes) {
            Ok(d) => Some(Arc::new(d)),
            Err(e) => {
                eprintln!("error: opening verdict cache: {e}");
                return ExitCode::from(2);
            }
        },
        _ => None,
    };
    let path = Path::new(target);
    let corpus = if path.is_dir() {
        Corpus::from_dir(path)
    } else {
        Corpus::from_manifest(path)
    };
    let corpus = match corpus {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for (dir, what) in [(trace_dir, "trace"), (flight_dir, "flight")] {
        if let Some(dir) = dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {what} directory '{dir}': {e}");
                return ExitCode::from(2);
            }
        }
    }
    // The profile collector rides the same record_job seam as the metrics
    // registry: enabling it makes every worker record full span events and
    // fold each finished trace into the process-global collapsed stacks.
    if profile_out.is_some() {
        nqpv_telemetry::profile::enable();
    }
    let report = run_batch(
        &corpus,
        &BatchOptions {
            jobs,
            use_cache,
            cache_cap,
            disk,
            bin_jobs,
            explain,
            trace_dir: trace_dir.map(std::path::PathBuf::from),
            flight_dir: flight_dir.map(std::path::PathBuf::from),
            job_timeout,
            vc: VcOptions {
                infer_invariants: infer,
                ..VcOptions::default()
            },
        },
    );
    if let Some(file) = profile_out {
        if let Err(e) = std::fs::write(file, nqpv_telemetry::profile::global().render()) {
            eprintln!("error: cannot write profile '{file}': {e}");
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.human_summary());
    }
    if report.all_verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `nqpv serve --addr HOST:PORT [--infer] [--jobs N] [--no-cache]
/// [--cache-cap N] [--cache-dir DIR]` — run the verification daemon
/// until a protocol `shutdown` request arrives.
fn cmd_serve(rest: &[String], infer: bool) -> ExitCode {
    let mut opts = ServeOptions {
        vc: VcOptions {
            infer_invariants: infer,
            ..VcOptions::default()
        },
        ..ServeOptions::default()
    };
    let mut addr: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(a) = it.next() else {
                    eprintln!("error: --addr expects HOST:PORT");
                    return ExitCode::from(2);
                };
                addr = Some(a);
            }
            "--jobs" => match positive_arg(&mut it, "--jobs") {
                Ok(n) => opts.jobs = n,
                Err(code) => return code,
            },
            "--kernel-threads" => match positive_arg(&mut it, "--kernel-threads") {
                Ok(n) => nqpv_linalg::par::set_kernel_threads(n),
                Err(code) => return code,
            },
            "--cache-cap" => match positive_arg(&mut it, "--cache-cap") {
                Ok(n) => opts.cache_cap = Some(n),
                Err(code) => return code,
            },
            "--cache-dir" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --cache-dir expects a directory");
                    return ExitCode::from(2);
                };
                opts.cache_dir = Some(dir.into());
            }
            "--cache-max-bytes" => match positive_arg(&mut it, "--cache-max-bytes") {
                Ok(n) => opts.cache_max_bytes = Some(n as u64),
                Err(code) => return code,
            },
            "--job-timeout" => match positive_arg(&mut it, "--job-timeout") {
                Ok(n) => opts.job_timeout = Some(Duration::from_secs(n as u64)),
                Err(code) => return code,
            },
            "--drain-timeout" => match positive_arg(&mut it, "--drain-timeout") {
                Ok(n) => opts.drain_timeout = Duration::from_secs(n as u64),
                Err(code) => return code,
            },
            "--max-per-client" => match positive_arg(&mut it, "--max-per-client") {
                Ok(n) => opts.max_per_client = Some(n),
                Err(code) => return code,
            },
            "--no-cache" => opts.use_cache = false,
            "--explain" => opts.explain = true,
            "--flight-dir" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --flight-dir expects a directory");
                    return ExitCode::from(2);
                };
                opts.flight_dir = Some(dir.into());
            }
            "--log-level" => match it.next().and_then(|v| nqpv_telemetry::log::Level::parse(v)) {
                Some(level) => opts.log_level = level,
                None => {
                    eprintln!("error: --log-level expects error|warn|info|debug");
                    return ExitCode::from(2);
                }
            },
            "--log-json" => opts.log_json = true,
            "--metrics-addr" => {
                let Some(a) = it.next() else {
                    eprintln!("error: --metrics-addr expects HOST:PORT");
                    return ExitCode::from(2);
                };
                opts.metrics_addr = Some(a.to_string());
            }
            "--sample-secs" => match positive_arg(&mut it, "--sample-secs") {
                Ok(n) => opts.sample_secs = n as u64,
                Err(code) => return code,
            },
            "--slo-ms" => match positive_arg(&mut it, "--slo-ms") {
                Ok(n) => opts.slo_ms = Some(n as u64),
                Err(code) => return code,
            },
            "--trace-store" => match positive_arg(&mut it, "--trace-store") {
                Ok(n) => opts.trace_store = n,
                Err(code) => return code,
            },
            "--max-queue" => {
                // 0 is meaningful (refuse everything), so this flag takes
                // any non-negative integer.
                match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => opts.max_queue = Some(n),
                    None => {
                        eprintln!("error: --max-queue expects a non-negative integer");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!("error: unknown serve flag '{other}'");
                return usage();
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: serve requires --addr HOST:PORT");
        return usage();
    };
    opts.addr = addr.to_string();
    match serve_blocking(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `nqpv client ADDR submit|watch|stats|ping|shutdown …` — the daemon's
/// command-line companion. Every received protocol line is echoed to
/// stdout verbatim (NDJSON), so output is scriptable.
fn cmd_client(rest: &[String]) -> ExitCode {
    let (Some(addr), Some(cmd)) = (rest.first(), rest.get(1)) else {
        eprintln!("error: client expects ADDR and a command");
        return usage();
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connecting to {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cmd.as_str() {
        "submit" => client_submit(&mut client, &rest[2..]),
        "watch" => client_watch(&mut client),
        "stats" => client_oneshot(&mut client, &Request::Stats),
        "ping" => client_oneshot(&mut client, &Request::Ping),
        "series" => client_oneshot(
            &mut client,
            &Request::Series {
                last: 0,
                filter: None,
            },
        ),
        "profile" => client_oneshot(&mut client, &Request::Profile),
        // `Client::shutdown` tolerates the daemon closing the connection
        // before the reply is read — that still means a successful stop.
        // With `--drain` the call blocks until the daemon has worked off
        // its whole backlog (bounded by the daemon's --drain-timeout).
        "shutdown" => {
            let drain = match rest.get(2).map(String::as_str) {
                None => false,
                Some("--drain") => true,
                Some(other) => {
                    eprintln!("error: unknown shutdown flag '{other}'");
                    return usage();
                }
            };
            client.shutdown_with(drain).map(|()| {
                println!("{}", Event::ShuttingDown.to_line());
                ExitCode::SUCCESS
            })
        }
        other => {
            eprintln!("error: unknown client command '{other}'");
            return usage();
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Sends one request, echoes the reply line.
fn client_oneshot(client: &mut Client, req: &Request) -> std::io::Result<ExitCode> {
    let reply = client.request(req)?;
    println!("{}", reply.to_line());
    Ok(match reply {
        Event::Error { .. } => ExitCode::from(2),
        _ => ExitCode::SUCCESS,
    })
}

/// `client ADDR submit [--priority N] [--trace-out DIR] PATH…` — submits
/// each path (file, directory or manifest), then streams events until
/// every accepted job has its verdict. With `--trace-out`, a wire trace
/// id minted here rides along on the submission; once the verdicts are
/// in, the daemon half of each job's trace is fetched and stitched with
/// the client's own spans into `DIR/<job>.trace.json`. Exit 0 iff all
/// verified.
fn client_submit(client: &mut Client, rest: &[String]) -> std::io::Result<ExitCode> {
    let mut priority: i64 = 0;
    let mut trace_out: Option<&str> = None;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--priority" => {
                let Some(p) = it.next().and_then(|v| v.parse::<i64>().ok()) else {
                    eprintln!("error: --priority expects an integer");
                    return Ok(ExitCode::from(2));
                };
                priority = p;
            }
            "--trace-out" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --trace-out expects a directory");
                    return Ok(ExitCode::from(2));
                };
                trace_out = Some(dir);
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown submit flag '{other}'");
                return Ok(ExitCode::from(2));
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprintln!("error: submit expects at least one PATH");
        return Ok(ExitCode::from(2));
    }
    if let Some(dir) = trace_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create trace directory '{dir}': {e}");
            return Ok(ExitCode::from(2));
        }
    }
    // One wire trace id covers the whole submit command: every job
    // submitted here shares it, the daemon tags its queue/worker spans
    // with it, and the client records its own half under the same id.
    let ctx = trace_out.map(|_| nqpv_telemetry::TraceContext::mint());
    let trace_hex = ctx.map(|c| c.to_hex());
    let tracer = match ctx {
        Some(c) => nqpv_telemetry::Tracer::create_with(true, c),
        None => nqpv_telemetry::Tracer::DISABLED,
    };
    // Transient failures — a dropped connection, an overloaded refusal —
    // retry with backoff. A reconnect orphans the event subscriptions of
    // everything submitted earlier in this sequence (subscriptions are
    // per-connection), so the whole sequence is resubmitted from scratch
    // when one slipped in; re-running an already-verified job is cheap
    // (warm cache), hanging on verdicts that can never arrive is not.
    let policy = RetryPolicy::default();
    let mut pending = std::collections::HashSet::new();
    let mut names = std::collections::HashMap::new();
    for pass in 0.. {
        let mut orphaned = false;
        pending.clear();
        names.clear();
        for path in &paths {
            let generation = client.reconnects();
            // `.nqpv` files go up as single jobs; everything else —
            // directories and manifests — goes up as a corpus, mirroring
            // how `nqpv batch` treats its target. Extension-based so the
            // decision also holds for daemon-side paths that don't exist
            // on the client's filesystem.
            let single = Path::new(path.as_str())
                .extension()
                .is_some_and(|x| x == "nqpv");
            let req = if single {
                Request::SubmitPath {
                    path: (*path).clone(),
                    priority,
                    trace: trace_hex.clone(),
                }
            } else {
                Request::SubmitDir {
                    path: (*path).clone(),
                    priority,
                    trace: trace_hex.clone(),
                }
            };
            let mut span = tracer.span(nqpv_telemetry::Phase::Other, "submit");
            if span.recording() {
                span.arg("path", nqpv_telemetry::ArgValue::Str((*path).clone()));
            }
            let submitted = client.submit_with_retry(&req, &policy);
            drop(span);
            match submitted {
                Ok(accepted) => {
                    if client.reconnects() != generation && !pending.is_empty() {
                        orphaned = true;
                    }
                    let ids: Vec<String> = accepted
                        .iter()
                        .map(|(id, name)| format!("{{\"id\":{id},\"name\":{}}}", json_string(name)))
                        .collect();
                    println!("{{\"event\":\"accepted\",\"jobs\":[{}]}}", ids.join(","));
                    pending.extend(accepted.iter().map(|(id, _)| *id));
                    names.extend(accepted);
                }
                Err(e) => {
                    eprintln!("error: submitting '{path}': {e}");
                    return Ok(ExitCode::from(2));
                }
            }
        }
        if !orphaned {
            break;
        }
        if pass >= 2 {
            eprintln!("error: connection too unstable to hold a submission stream");
            return Ok(ExitCode::from(2));
        }
    }
    let mut all_verified = true;
    let mut wait_span = tracer.span(nqpv_telemetry::Phase::Other, "wait_verdicts");
    if wait_span.recording() {
        wait_span.arg("jobs", nqpv_telemetry::ArgValue::U64(pending.len() as u64));
    }
    while !pending.is_empty() {
        let Some(event) = client.next_event()? else {
            eprintln!("error: daemon closed the connection early");
            return Ok(ExitCode::from(2));
        };
        println!("{}", event.to_line());
        if let Event::Verdict(v) = event {
            if pending.remove(&v.id) && v.status != "verified" {
                all_verified = false;
            }
        }
    }
    drop(wait_span);
    if let (Some(dir), Some(hex)) = (trace_out, &trace_hex) {
        let client_half = tracer
            .finish()
            .unwrap_or_default()
            .chrome_events_json(1, "client");
        for (id, name) in &names {
            match client.fetch_trace(*id) {
                Ok((_, _, daemon_half)) => {
                    let stitched =
                        nqpv_telemetry::stitch_chrome_json(hex, &[&client_half, &daemon_half]);
                    let file = Path::new(dir).join(format!("{name}.trace.json"));
                    if let Err(e) = std::fs::write(&file, stitched) {
                        eprintln!("warning: cannot write trace '{}': {e}", file.display());
                    }
                }
                Err(e) => eprintln!("warning: no daemon trace for job {id} ({name}): {e}"),
            }
        }
    }
    Ok(if all_verified {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `client ADDR watch` — subscribes to everything and echoes events until
/// the daemon goes away.
fn client_watch(client: &mut Client) -> std::io::Result<ExitCode> {
    let reply = client.request(&Request::Watch)?;
    println!("{}", reply.to_line());
    while let Some(event) = client.next_event()? {
        println!("{}", event.to_line());
    }
    Ok(ExitCode::SUCCESS)
}

/// `nqpv top ADDR [--once] [--interval SECS]` — a live terminal dashboard
/// over a running daemon, built from two protocol requests per frame:
/// `stats` (queue depths, cache counters) and `series` (the daemon's
/// in-memory metrics ring). Latency quantiles are interpolated from
/// histogram bucket deltas re-accumulated across the ring window, so
/// they describe *recent* jobs, not the whole process lifetime. Plain
/// ANSI redraw; `--once` prints a single frame and exits (scriptable).
fn cmd_top(rest: &[String]) -> ExitCode {
    let mut once = false;
    let mut interval = Duration::from_secs(2);
    let mut addr: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval" => match positive_arg(&mut it, "--interval") {
                Ok(n) => interval = Duration::from_secs(n as u64),
                Err(code) => return code,
            },
            other if other.starts_with('-') => {
                eprintln!("error: unknown top flag '{other}'");
                return usage();
            }
            other => {
                if addr.replace(other).is_some() {
                    eprintln!("error: top expects exactly one ADDR");
                    return usage();
                }
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: top expects a daemon ADDR");
        return usage();
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connecting to {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    loop {
        let frame = match top_frame(&mut client, addr) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        if once {
            print!("{frame}");
            return ExitCode::SUCCESS;
        }
        // Clear screen + home cursor; no terminal library, no raw mode —
        // ^C exits, every frame is a full repaint.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

/// One metric observation inside a ring sample, as decoded from the
/// daemon's `series` reply.
enum TopValue {
    Rate {
        delta: u64,
        per_sec: f64,
    },
    #[allow(dead_code)]
    Gauge(i64),
    Hist {
        bounds: Vec<f64>,
        deltas: Vec<u64>,
        sum: f64,
    },
}

struct TopPoint {
    name: String,
    labels: String,
    value: TopValue,
}

struct TopSample {
    points: Vec<TopPoint>,
}

/// Decodes the `series` JSON dump into typed samples, skipping anything
/// malformed (forward compatibility: unknown kinds are ignored).
fn parse_series(text: &str) -> Vec<TopSample> {
    use nqpv_service::Json;
    let Ok(root) = Json::parse(text) else {
        return Vec::new();
    };
    let Some(samples) = root.get("samples").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for s in samples {
        let mut points = Vec::new();
        for p in s.get("points").and_then(Json::as_arr).unwrap_or(&[]) {
            let (Some(name), Some(kind)) = (
                p.get("name").and_then(Json::as_str),
                p.get("kind").and_then(Json::as_str),
            ) else {
                continue;
            };
            let labels = p.get("labels").and_then(Json::as_str).unwrap_or("");
            let value = match kind {
                "rate" => TopValue::Rate {
                    delta: p.get("delta").and_then(Json::as_u64).unwrap_or(0),
                    per_sec: p.get("per_sec").and_then(Json::as_f64).unwrap_or(0.0),
                },
                "gauge" => TopValue::Gauge(p.get("value").and_then(Json::as_i64).unwrap_or(0)),
                "hist" => TopValue::Hist {
                    bounds: p
                        .get("bounds")
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Json::as_f64).collect())
                        .unwrap_or_default(),
                    deltas: p
                        .get("deltas")
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default(),
                    sum: p.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
                },
                _ => continue,
            };
            points.push(TopPoint {
                name: name.to_string(),
                labels: labels.to_string(),
                value,
            });
        }
        out.push(TopSample { points });
    }
    out
}

/// Re-accumulates the per-window histogram bucket deltas for `name`
/// (labels must contain `label_sub` when given) across the whole ring
/// window into one [`nqpv_telemetry::HistogramSnapshot`], ready for
/// interpolated quantiles over recent jobs.
fn hist_window(
    samples: &[TopSample],
    name: &str,
    label_sub: Option<&str>,
) -> Option<nqpv_telemetry::HistogramSnapshot> {
    let mut bounds: Option<Vec<f64>> = None;
    let mut acc: Vec<u64> = Vec::new();
    let mut sum = 0.0;
    for s in samples {
        for p in &s.points {
            if p.name != name || !label_sub.is_none_or(|sub| p.labels.contains(sub)) {
                continue;
            }
            if let TopValue::Hist {
                bounds: b,
                deltas,
                sum: ds,
                ..
            } = &p.value
            {
                match &bounds {
                    None => {
                        bounds = Some(b.clone());
                        acc = deltas.clone();
                    }
                    Some(known) if known == b && acc.len() == deltas.len() => {
                        for (a, d) in acc.iter_mut().zip(deltas) {
                            *a += d;
                        }
                    }
                    _ => continue, // bound layout changed mid-window; skip
                }
                sum += ds;
            }
        }
    }
    let bounds = bounds?;
    let mut cumulative = Vec::with_capacity(acc.len());
    let mut running = 0u64;
    for d in &acc {
        running += d;
        cumulative.push(running);
    }
    Some(nqpv_telemetry::HistogramSnapshot {
        bounds,
        cumulative,
        sum,
        count: running,
    })
}

/// Per-sample summed `per_sec` rates for `name` across matching labels —
/// the sparkline series.
fn rate_series(samples: &[TopSample], name: &str, label_sub: Option<&str>) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            s.points
                .iter()
                .filter(|p| p.name == name && label_sub.is_none_or(|sub| p.labels.contains(sub)))
                .map(|p| match &p.value {
                    TopValue::Rate { per_sec, .. } => *per_sec,
                    _ => 0.0,
                })
                .sum()
        })
        .collect()
}

/// Total counter delta for `name` over the whole ring window.
fn rate_total(samples: &[TopSample], name: &str, label_sub: Option<&str>) -> u64 {
    samples
        .iter()
        .flat_map(|s| &s.points)
        .filter(|p| p.name == name && label_sub.is_none_or(|sub| p.labels.contains(sub)))
        .map(|p| match &p.value {
            TopValue::Rate { delta, .. } => *delta,
            _ => 0,
        })
        .sum()
}

/// Extracts one label value from a rendered label block like
/// `{status="verified",phase="wp"}`.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    let start = labels.find(&format!("{key}=\""))? + key.len() + 2;
    let rest = &labels[start..];
    Some(&rest[..rest.find('"')?])
}

/// Unicode sparkline over `vals`, scaled to the series max.
fn sparkline(vals: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = vals.iter().cloned().fold(0.0f64, f64::max);
    vals.iter()
        .map(|v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[(((v / max) * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Milliseconds with sensible precision for dashboard rows.
fn fmt_ms(seconds: f64) -> String {
    let ms = seconds * 1000.0;
    if ms >= 100.0 {
        format!("{ms:.0}ms")
    } else if ms >= 10.0 {
        format!("{ms:.1}ms")
    } else {
        format!("{ms:.2}ms")
    }
}

/// Fetches `stats` + `series` and renders one dashboard frame.
fn top_frame(client: &mut Client, addr: &str) -> std::io::Result<String> {
    let stats = client.stats()?;
    let Event::Stats { queue, cache } = stats else {
        return Err(std::io::Error::other("unexpected stats reply"));
    };
    let (sample_secs, slo_ms, series_json) = client.series(0, None)?;
    let samples = parse_series(&series_json);
    let mut out = String::new();
    out.push_str(&format!(
        "nqpv top — {addr}  (uptime {}s, ring: {} sample(s) × {:.0}s)\n",
        queue.uptime_ms / 1000,
        samples.len(),
        sample_secs
    ));
    if samples.len() < 2 {
        out.push_str("  (warming up: quantiles need at least two ring samples)\n");
    }
    // Queue block: live depths from stats, throughput from the ring.
    let rates = rate_series(&samples, "nqpv_jobs_completed_total", None);
    let jobs_per_sec = rates.last().copied().unwrap_or(0.0);
    out.push_str(&format!(
        "\njobs      {} queued / {} running / {} done   jobs/s {:.2}  {}\n",
        queue.queued,
        queue.running,
        queue.done,
        jobs_per_sec,
        sparkline(&rates)
    ));
    if !queue.depths.is_empty() {
        let depths: Vec<String> = queue
            .depths
            .iter()
            .map(|(prio, n)| format!("p{prio}:{n}"))
            .collect();
        out.push_str(&format!("          depths {}\n", depths.join(" ")));
    }
    // Verdict mix over the ring window, by status label.
    let mut mix: Vec<(String, u64)> = Vec::new();
    for s in &samples {
        for p in &s.points {
            if p.name != "nqpv_jobs_completed_total" {
                continue;
            }
            if let (TopValue::Rate { delta, .. }, Some(status)) =
                (&p.value, label_value(&p.labels, "status"))
            {
                match mix.iter_mut().find(|(k, _)| k == status) {
                    Some((_, n)) => *n += delta,
                    None => mix.push((status.to_string(), *delta)),
                }
            }
        }
    }
    if !mix.is_empty() {
        mix.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let parts: Vec<String> = mix.iter().map(|(k, n)| format!("{k} {n}")).collect();
        out.push_str(&format!("verdicts  {}\n", parts.join("  ")));
    }
    // Cache hit ratios from live daemon counters.
    match &cache {
        Some(c) => {
            let ratio = |h: u64, m: u64| {
                if h + m == 0 {
                    "—".to_string()
                } else {
                    format!("{:.1}%", 100.0 * h as f64 / (h + m) as f64)
                }
            };
            out.push_str(&format!(
                "cache     transformer {} hit  verdict {}  disk {}\n",
                ratio(c.hits, c.misses),
                ratio(c.verdict_hits, c.verdict_misses),
                ratio(c.disk_hits, c.disk_misses)
            ));
        }
        None => out.push_str("cache     (disabled)\n"),
    }
    // Cost-model calibration: predicted/actual ratio p50 over the window.
    if let Some(h) = hist_window(&samples, "nqpv_cost_prediction_ratio", None) {
        if h.count > 0 {
            out.push_str(&format!(
                "cost      predicted/actual p50 {:.2}\n",
                h.quantile(0.5)
            ));
        }
    }
    // Latency quantiles re-accumulated over the ring window.
    out.push_str("\nlatency (ring window)       p50       p95       p99\n");
    if let Some(h) = hist_window(&samples, "nqpv_job_duration_seconds", None) {
        if h.count > 0 {
            out.push_str(&format!(
                "  job                  {:>8}  {:>8}  {:>8}\n",
                fmt_ms(h.quantile(0.5)),
                fmt_ms(h.quantile(0.95)),
                fmt_ms(h.quantile(0.99))
            ));
        }
    }
    for phase in ["parse", "wp", "solver", "cache", "diagnose", "queue"] {
        let sub = format!("phase=\"{phase}\"");
        if let Some(h) = hist_window(&samples, "nqpv_phase_duration_seconds", Some(&sub)) {
            if h.count > 0 {
                out.push_str(&format!(
                    "  phase {phase:<14} {:>8}  {:>8}  {:>8}\n",
                    fmt_ms(h.quantile(0.5)),
                    fmt_ms(h.quantile(0.95)),
                    fmt_ms(h.quantile(0.99))
                ));
            }
        }
    }
    // SLO error budget: 99% of jobs within --slo-ms, burn rate from the
    // ring window (1.0x = consuming the budget exactly at its allowance).
    if slo_ms > 0 {
        let total = rate_total(&samples, "nqpv_slo_jobs_total", None);
        let bad = rate_total(&samples, "nqpv_slo_jobs_total", Some("within=\"false\""));
        if total > 0 {
            let burn = (bad as f64 / total as f64) / 0.01;
            let budget = (1.0 - bad as f64 / (0.01 * total as f64)).clamp(0.0, 1.0);
            out.push_str(&format!(
                "\nslo       99% of jobs < {slo_ms}ms — budget remaining {:.1}%  (burn {burn:.2}x, {bad}/{total} over)\n",
                budget * 100.0
            ));
        } else {
            out.push_str(&format!(
                "\nslo       99% of jobs < {slo_ms}ms — no jobs in window yet\n"
            ));
        }
    }
    Ok(out)
}

fn cmd_ops() -> ExitCode {
    let mut session = Session::new();
    let mut names: Vec<&str> = [
        "I", "X", "Y", "Z", "H", "S", "T", "CX", "C0X", "CZ", "SWAP", "CCX", "W1", "W2", "M01",
        "Mpm", "MQWalk", "Zero", "P0", "P1", "Pp", "Pm",
    ]
    .to_vec();
    names.sort_unstable();
    for n in names {
        if let Ok(text) = session.show(n) {
            println!("{text}");
        }
    }
    ExitCode::SUCCESS
}
