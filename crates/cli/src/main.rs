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
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Set once stdout's reader has gone; later output is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout and flushes, returning `false` once stdout's reader
/// has gone. A reader that closes its end early (`nqpv ops | head -1`)
/// ends the output quietly: the `BrokenPipe` write and every later one
/// are dropped, and the command still finishes with its own exit code.
/// Any other write error is reported on stderr and exits with 2.
fn write_out(args: std::fmt::Arguments) -> bool {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return false;
    }
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            false
        }
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(2)
        }
    }
}

/// `print!` through [`write_out`].
macro_rules! out {
    ($($arg:tt)*) => {{
        write_out(format_args!($($arg)*));
    }};
}

/// `println!` through [`write_out`].
macro_rules! outln {
    ($($arg:tt)*) => {{
        write_out(format_args!("{}\n", format_args!($($arg)*)));
    }};
}

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
        Some("ops") => cmd_ops(),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  nqpv verify [--infer] FILE.nqpv\n  nqpv explain [--infer] [--json] [--trace DIR] [--profile-out FILE]\n              [--kernel-threads N] FILE.nqpv\n  nqpv show [--infer] FILE.nqpv NAME\n  nqpv check FILE.nqpv\n  nqpv batch [--infer] [--jobs N] [--json] [--no-cache] [--cache-cap N]\n             [--cache-dir DIR] [--cache-max-bytes N] [--explain]\n             [--trace DIR] [--job-timeout SECS]\n             [--kernel-threads N] [--profile-out FILE] DIR|MANIFEST\n  nqpv serve --addr HOST:PORT [--infer] [--jobs N] [--no-cache]\n             [--cache-cap N] [--cache-dir DIR] [--cache-max-bytes N]\n             [--max-queue N] [--max-per-client N] [--job-timeout SECS]\n             [--drain-timeout SECS] [--explain] [--metrics-addr HOST:PORT]\n             [--log-level LVL] [--log-json]\n             [--kernel-threads N] [--trace-store N]\n  nqpv client ADDR submit [--priority N] [--trace-out DIR] PATH…\n                                                 submit + stream verdicts\n  nqpv client ADDR watch                         stream every job event\n  nqpv client ADDR stats|ping|profile\n  nqpv client ADDR shutdown [--drain]\n  nqpv ops\n\n  --infer        attempt wlp-fixpoint invariant inference for\n                 while loops lacking an inv: annotation\n  --jobs N       worker threads (default: available cores)\n  --kernel-threads N\n                 data-parallel threads *inside* each job's linalg\n                 kernels (default: 1, or NQPV_KERNEL_THREADS); results\n                 are bitwise identical for every value\n  --json         print the report as JSON instead of a summary\n  --no-cache     disable the shared wp memo cache\n  --cache-cap N  bound each cache tier to N entries (LRU eviction;\n                 eviction counts appear in the report)\n  --cache-dir D  persist solver verdicts under D (survives restarts,\n                 shared between batch runs and the daemon)\n  --cache-max-bytes N\n                 size budget for the verdict store under --cache-dir:\n                 oldest records are evicted to stay under N bytes\n  --explain      extract a counterexample (witness state, scheduler\n                 trace, expectation trajectory) for every rejected proof\n  --trace DIR    write one Chrome trace-event JSON per job under DIR\n                 (open in chrome://tracing or Perfetto)\n  --trace-out DIR\n                 (client submit) mint a wire trace id, propagate it to\n                 the daemon, and write one *stitched* Chrome trace per\n                 job under DIR combining the client's submit/wait spans\n                 with the daemon's queue/worker spans\n  --log-level LVL\n                 daemon stderr log threshold: error|warn|info|debug\n                 (default info)\n  --log-json     emit daemon logs as JSON lines instead of plain text\n  --job-timeout SECS\n                 per-job verification deadline: a job still unverified\n                 after SECS is stopped cooperatively and reported with\n                 a 'timeout' verdict\n  --max-queue N  refuse submissions once N jobs are queued (daemon\n                 backpressure; structured 'overloaded' reply)\n  --max-per-client N\n                 bound one connection's queued+running jobs to N\n                 (client-scoped 'overloaded' reply)\n  --drain-timeout SECS\n                 bound on 'shutdown --drain' backlog completion\n                 (default 30)\n  --metrics-addr HOST:PORT\n                 serve Prometheus text metrics at http://HOST:PORT/metrics\n                 (plus /healthz readiness)\n  --trace-store N\n                 finished-trace FIFO capacity for wire-trace stitching\n                 (default 256; evictions are counted)\n  --profile-out FILE\n                 write a collapsed-stack self-time profile (folded\n                 flamegraph text: 'stack;frames count-in-us' lines)\n  --priority N   scheduling priority for submitted jobs (higher first)\n  --drain        (client shutdown) finish the whole backlog before the\n                 daemon stops, instead of dropping queued jobs\n\nenvironment:\n  NQPV_FAULTS=<seed>:<site>[*<cap>],…\n                 arm the deterministic fault-injection harness (sites:\n                 worker_panic, solver_delay, disk_read, disk_write,\n                 conn_drop); inert when unset\n  NQPV_KERNEL_THREADS=N\n                 default kernel thread count when --kernel-threads\n                 is not given"
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
            outln!("OK: {} command(s)", file.commands.len());
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
        outln!("{text}");
    }
    if let Some(name) = show {
        match session.show(name) {
            Ok(text) => outln!("{text}"),
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
            outln!("proof '{name}': verified");
        } else {
            outln!("proof '{name}': REJECTED");
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
        outln!("{out}");
    } else {
        for d in &report {
            if d.verified {
                outln!("proof '{}': verified (no counterexample)", d.name);
            } else {
                all_ok = false;
                outln!("proof '{}': REJECTED", d.name);
                match &d.counterexample {
                    Some(cex) => out!("{}", cex.human()),
                    None => outln!("  (comparison unresolved — no witness extracted)"),
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
/// [--cache-dir DIR] DIR|MANIFEST` — load a corpus (directory
/// of `.nqpv` files, or a manifest listing them) and verify it on a
/// worker pool, in corpus order, with a shared (optionally LRU-bounded,
/// optionally disk-persistent) wp memo cache.
fn cmd_batch(rest: &[String], infer: bool) -> ExitCode {
    let mut jobs: usize = 0;
    let mut json = false;
    let mut use_cache = true;
    let mut explain = false;
    let mut cache_cap: Option<usize> = None;
    let mut cache_dir: Option<&str> = None;
    let mut cache_max_bytes: Option<u64> = None;
    let mut job_timeout: Option<Duration> = None;
    let mut trace_dir: Option<&str> = None;
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
            "--profile-out" => {
                let Some(file) = it.next() else {
                    eprintln!("error: --profile-out expects a file path");
                    return ExitCode::from(2);
                };
                profile_out = Some(file);
            }
            "--json" => json = true,
            "--no-cache" => use_cache = false,
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
    // worker panics are visible without a flag.
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
    if let Some(dir) = trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create trace directory '{dir}': {e}");
            return ExitCode::from(2);
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
            explain,
            trace_dir: trace_dir.map(std::path::PathBuf::from),
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
        out!("{}", report.to_json());
    } else {
        out!("{}", report.human_summary());
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
                outln!("{}", Event::ShuttingDown.to_line());
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
    outln!("{}", reply.to_line());
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
                    outln!("{{\"event\":\"accepted\",\"jobs\":[{}]}}", ids.join(","));
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
        outln!("{}", event.to_line());
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
    outln!("{}", reply.to_line());
    while let Some(event) = client.next_event()? {
        if !write_out(format_args!("{}\n", event.to_line())) {
            break;
        }
    }
    Ok(ExitCode::SUCCESS)
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
            outln!("{text}");
        }
    }
    ExitCode::SUCCESS
}
