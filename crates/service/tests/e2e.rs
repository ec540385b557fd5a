//! End-to-end tests for the verification daemon: the ISSUE acceptance
//! scenario — serve the example corpus over TCP with streamed per-job
//! reports and verdicts identical to `nqpv batch`, then a cold restart
//! against the same `--cache-dir` answering verdict queries from disk.

use nqpv_engine::{run_batch, BatchOptions, Corpus};
use nqpv_service::{Client, Daemon, Event, Request, ServeOptions};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/corpus")
}

/// A verifiable program that takes roughly `pairs` milliseconds to check
/// (six qubits, two gates per pair, ~1 ms of dense wp per statement in
/// debug builds) — the deterministic "busy worker" knob for scheduling
/// and timeout tests. Every statement is a cooperative-cancellation
/// checkpoint, so a deadline trips within a couple of milliseconds.
fn heavy_source(pairs: usize) -> String {
    let body = "[a] *= H; [b] *= H; ".repeat(pairs);
    format!("def pf := proof [a b c d e f] : {{ I[a] }}; {body}{{ I[a] }} end")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nqpv_service_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(cache_dir: Option<PathBuf>, jobs: usize) -> Daemon {
    Daemon::start(ServeOptions {
        jobs,
        cache_dir,
        ..ServeOptions::default()
    })
    .expect("daemon starts on a loopback port")
}

#[test]
fn daemon_streams_corpus_verdicts_matching_batch() {
    let daemon = start(None, 2);
    let mut client = Client::connect(daemon.local_addr()).unwrap();

    let accepted = client
        .submit_path(corpus_dir().to_str().unwrap(), 0, true)
        .unwrap();
    assert_eq!(accepted.len(), 8, "all eight corpus jobs accepted");
    let ids: Vec<u64> = accepted.iter().map(|(id, _)| *id).collect();

    // Streamed lifecycle: collect every event until all verdicts are in,
    // then check each job went queued → running → verdict.
    let mut phases: HashMap<u64, Vec<&'static str>> = HashMap::new();
    let mut verdicts = Vec::new();
    let mut pending: HashSet<u64> = ids.iter().copied().collect();
    while !pending.is_empty() {
        match client.next_event().unwrap().expect("stream stays open") {
            Event::Queued { id, .. } => phases.entry(id).or_default().push("queued"),
            Event::Running { id, .. } => phases.entry(id).or_default().push("running"),
            Event::Verdict(v) => {
                phases.entry(v.id).or_default().push("verdict");
                pending.remove(&v.id);
                verdicts.push(v);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    for id in &ids {
        assert_eq!(
            phases[id],
            ["queued", "running", "verdict"],
            "job {id} lifecycle"
        );
    }

    // Verdicts (and per-proof detail) identical to the batch engine.
    let corpus = Corpus::from_dir(corpus_dir()).unwrap();
    let batch = run_batch(&corpus, &BatchOptions::default());
    assert_eq!(verdicts.len(), batch.jobs.len());
    for job in &batch.jobs {
        let streamed = verdicts
            .iter()
            .find(|v| v.name == job.name)
            .unwrap_or_else(|| panic!("job {} missing from stream", job.name));
        assert_eq!(
            streamed.status,
            job.status.label(),
            "{}: daemon and batch must agree",
            job.name
        );
        assert!(streamed.ms >= 0.0);
        match &job.status {
            nqpv_engine::JobStatus::Error { .. } | nqpv_engine::JobStatus::Timeout { .. } => {
                assert!(streamed.error.is_some(), "{}", job.name);
            }
            nqpv_engine::JobStatus::Verified { proofs }
            | nqpv_engine::JobStatus::Rejected { proofs } => {
                let want: Vec<(String, bool)> = proofs
                    .iter()
                    .map(|p| (p.name.clone(), p.verified))
                    .collect();
                assert_eq!(streamed.proofs, want, "{}", job.name);
            }
        }
    }
    daemon.join();
}

#[test]
fn disk_cache_survives_daemon_restart() {
    let cache_dir = temp_dir("restart");
    let dir = corpus_dir();

    // Generation 1: cold cache — every verdict is solved and persisted.
    let daemon = start(Some(cache_dir.clone()), 2);
    let mut client = Client::connect(daemon.local_addr()).unwrap();
    let accepted = client.submit_path(dir.to_str().unwrap(), 0, true).unwrap();
    let ids: Vec<u64> = accepted.iter().map(|(id, _)| *id).collect();
    let first = client.wait_verdicts(&ids).unwrap();
    let Event::Stats { cache, .. } = client.stats().unwrap() else {
        unreachable!()
    };
    let s1 = cache.expect("cache enabled");
    assert!(s1.disk_writes >= 1, "cold run persists verdicts: {s1:?}");
    assert_eq!(s1.disk_hits, 0, "nothing to hit yet: {s1:?}");
    client.shutdown().unwrap();
    daemon.join();

    // Generation 2: a cold restart over the same directory — memory tiers
    // are empty, so every first verdict query per key must be answered
    // from disk, and nothing new is solved or written.
    let daemon = start(Some(cache_dir.clone()), 2);
    let mut client = Client::connect(daemon.local_addr()).unwrap();
    let accepted = client.submit_path(dir.to_str().unwrap(), 0, true).unwrap();
    let ids: Vec<u64> = accepted.iter().map(|(id, _)| *id).collect();
    let second = client.wait_verdicts(&ids).unwrap();
    let Event::Stats { cache, .. } = client.stats().unwrap() else {
        unreachable!()
    };
    let s2 = cache.expect("cache enabled");

    // Verdicts agree run-over-run.
    let status_of = |vs: &[nqpv_service::VerdictEvent]| -> HashMap<String, String> {
        vs.iter()
            .map(|v| (v.name.clone(), v.status.clone()))
            .collect()
    };
    assert_eq!(status_of(&first), status_of(&second));

    // ≥1 disk hit per previously-solved job, counting content-twins
    // once: the grover twins differ only in comments, so they share every
    // content-addressed verdict key — the first to run pulls from disk,
    // the sibling hits the promoted memory entry. A job's content is its
    // source with `//` comments and blank lines stripped.
    let code = |source: &str| -> String {
        source
            .lines()
            .map(|line| line.split("//").next().unwrap_or_default().trim_end())
            .filter(|line| !line.is_empty())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let corpus = Corpus::from_dir(&dir).unwrap();
    let distinct_solved: HashSet<String> = corpus
        .jobs()
        .iter()
        .filter(|j| {
            first
                .iter()
                .any(|v| v.name == j.name && v.status != "error")
        })
        .map(|j| code(&j.source))
        .collect();
    assert!(
        s2.disk_hits >= distinct_solved.len() as u64,
        "restart must answer each previously-solved job from disk: \
         {} distinct obligations, stats {s2:?}",
        distinct_solved.len()
    );
    assert_eq!(
        s2.disk_writes, 0,
        "a fully warm restart solves nothing new: {s2:?}"
    );
    client.shutdown().unwrap();
    daemon.join();
}

#[test]
fn priorities_reorder_the_backlog() {
    // One worker, pinned down by a deliberately heavy first job (the
    // three-qubit error-correction proof takes orders of magnitude
    // longer than two inline submissions), so a real backlog forms: the
    // high-priority straggler must then be verified before the
    // earlier-submitted low-priority job.
    const LOOPY: &str = "def pf := proof [q] : { I[q] }; [q] := 0; [q] *= H; \
                         { inv : I[q] }; while M01[q] do [q] *= H end; { P0[q] } end";
    let daemon = start(None, 1);
    let mut client = Client::connect(daemon.local_addr()).unwrap();
    // Pipeline all three submissions in one burst — a single write, no
    // reply round-trips — so `low` and `high` are enqueued back-to-back
    // (the daemon handles consecutive lines of one segment microseconds
    // apart) while the worker is still busy with the heavier blocker.
    let burst = [
        Request::SubmitPath {
            path: corpus_dir().join("err_corr.nqpv").display().to_string(),
            priority: 0,
            trace: None,
        },
        Request::Submit {
            name: "low".into(),
            source: LOOPY.into(),
            priority: 0,
            trace: None,
        },
        Request::Submit {
            name: "high".into(),
            source: LOOPY.into(),
            priority: 9,
            trace: None,
        },
    ]
    .iter()
    .map(Request::to_line)
    .collect::<Vec<_>>()
    .join("\n");
    client.send_raw(&burst).unwrap();
    let mut verdicts = Vec::new();
    while verdicts.len() < 3 {
        match client.next_event().unwrap().expect("stream stays open") {
            Event::Verdict(v) => verdicts.push(v),
            Event::Error { message } => panic!("submission failed: {message}"),
            _ => {}
        }
    }
    let pos = |name: &str| verdicts.iter().position(|v| v.name == name).unwrap();
    assert!(
        pos("high") < pos("low"),
        "priority 9 must overtake the priority-0 backlog: {verdicts:?}"
    );
    assert!(verdicts.iter().all(|v| v.status == "verified"));
    daemon.join();
}

#[test]
fn protocol_errors_keep_the_connection_usable() {
    let daemon = start(None, 1);
    let mut client = Client::connect(daemon.local_addr()).unwrap();

    // Unknown command.
    let reply = client
        .request(&Request::Ping)
        .and_then(|_| {
            client.send_raw("{\"cmd\":\"frobnicate\"}")?;
            client.next_event()
        })
        .unwrap()
        .unwrap();
    assert!(matches!(reply, Event::Error { .. }), "{reply:?}");

    // The removed flight-recorder request is an unknown command like any
    // other, and the connection keeps answering.
    client.send_raw("{\"cmd\":\"dump_flight\"}").unwrap();
    let reply = client.next_event().unwrap().unwrap();
    match &reply {
        Event::Error { message } => {
            assert!(message.contains("unknown cmd 'dump_flight'"), "{message}")
        }
        other => panic!("expected an error event, got {other:?}"),
    }
    assert_eq!(client.request(&Request::Ping).unwrap(), Event::Pong);

    // Bad submit path.
    let err = client
        .submit_path("/nonexistent/corpus", 0, true)
        .expect_err("missing corpus must be rejected");
    assert!(err.to_string().contains("nonexistent"), "{err}");

    // The connection still works afterwards.
    let pong = client.request(&Request::Ping).unwrap();
    assert_eq!(pong, Event::Pong);

    // A watcher connection sees jobs submitted by *another* connection.
    let mut watcher = Client::connect(daemon.local_addr()).unwrap();
    assert_eq!(watcher.request(&Request::Watch).unwrap(), Event::Watching);
    let id = client
        .submit_source(
            "observed",
            "def pf := proof [q] : { P0[q] }; [q] *= H; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    let seen = watcher.wait_verdicts(&[id]).unwrap();
    assert_eq!(seen[0].name, "observed");
    assert_eq!(seen[0].status, "verified");

    // Shutdown closes every live connection: join() returns even with
    // clients still connected, and both clients observe EOF instead of
    // hanging (the submitter first drains the job events it buffered
    // while awaiting the `accepted` reply).
    daemon.join();
    assert_eq!(watcher.next_event().unwrap(), None, "watcher must see EOF");
    while client.next_event().unwrap().is_some() {}
}

#[test]
fn max_queue_backpressure_rejects_with_a_structured_event() {
    // A zero-capacity queue refuses every submission deterministically —
    // the admission check runs before any id is allocated, so no worker
    // race can sneak a job through.
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        max_queue: Some(0),
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).unwrap();

    let reply = client
        .request(&Request::Submit {
            name: "refused".into(),
            source: "def pf := proof [q] : { P0[q] }; skip; { P0[q] } end".into(),
            priority: 0,
            trace: None,
        })
        .unwrap();
    assert_eq!(
        reply,
        Event::Overloaded {
            queued: 0,
            max_queue: 0,
            rejected: 1,
        },
        "zero-capacity daemon must refuse with the structured event"
    );
    // Corpus submissions are refused whole (all-or-nothing admission).
    let reply = client
        .request(&Request::SubmitDir {
            path: corpus_dir().display().to_string(),
            priority: 0,
            trace: None,
        })
        .unwrap();
    match reply {
        Event::Overloaded { rejected, .. } => assert!(rejected >= 7, "{rejected}"),
        other => panic!("expected overloaded, got {other:?}"),
    }
    // The client helper surfaces the refusal as a retryable error…
    let err = client.submit_source("again", "skip", 0).unwrap_err();
    assert!(err.to_string().contains("overloaded"), "{err}");
    // …and the connection stays usable: nothing ever ran.
    assert_eq!(client.request(&Request::Ping).unwrap(), Event::Pong);
    let Event::Stats { queue, .. } = client.stats().unwrap() else {
        unreachable!()
    };
    assert_eq!((queue.queued, queue.running, queue.done), (0, 0, 0));

    // A bounded-but-roomy daemon still accepts and verifies normally.
    let roomy = Daemon::start(ServeOptions {
        jobs: 1,
        max_queue: Some(64),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut ok = Client::connect(roomy.local_addr()).unwrap();
    let id = ok
        .submit_source(
            "fits",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    assert_eq!(ok.wait_verdicts(&[id]).unwrap()[0].status, "verified");
    roomy.join();
    daemon.join();
}

#[test]
fn explain_mode_attaches_counterexamples_to_streamed_verdicts() {
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        explain: true,
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).unwrap();

    // A rejected nondeterministic triple: the verdict event must carry
    // the witness payload with the demon's branch choice.
    let rejected = client
        .submit_source(
            "bad",
            "def pf := proof [q] : { P0[q] }; ( skip # [q] *= X ); { P0[q] } end",
            0,
        )
        .unwrap();
    let verdict = &client.wait_verdicts(&[rejected]).unwrap()[0];
    assert_eq!(verdict.status, "rejected");
    assert_eq!(verdict.counterexamples.len(), 1, "{verdict:?}");
    let cex = &verdict.counterexamples[0];
    assert_eq!(
        cex.get("confirmed").and_then(nqpv_service::Json::as_bool),
        Some(true),
        "{cex:?}"
    );
    let gap = cex
        .get("gap")
        .and_then(nqpv_service::Json::as_f64)
        .expect("gap present");
    assert!((gap - 1.0).abs() < 1e-6, "gap {gap}");
    let schedule = cex
        .get("schedule")
        .and_then(nqpv_service::Json::as_arr)
        .expect("schedule present");
    assert_eq!(schedule.len(), 1);
    assert_eq!(
        schedule[0]
            .get("branch")
            .and_then(nqpv_service::Json::as_str),
        Some("right"),
        "the demon takes the X branch"
    );

    // Verified jobs stream no counterexamples even in explain mode.
    let ok = client
        .submit_source(
            "good",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    let verdict = &client.wait_verdicts(&[ok]).unwrap()[0];
    assert_eq!(verdict.status, "verified");
    assert!(verdict.counterexamples.is_empty());
    daemon.join();
}

#[test]
fn job_timeout_stops_runaway_jobs_and_daemon_keeps_serving() {
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        job_timeout: Some(Duration::from_millis(200)),
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).unwrap();

    // A ~4 s job against a 200 ms budget: the verdict must be `timeout`,
    // must carry the partial-trajectory marker, and must come back well
    // under the job's natural runtime (the cooperative check trips at
    // the next statement boundary).
    let t0 = Instant::now();
    let slow = client
        .submit_source("runaway", &heavy_source(4000), 0)
        .unwrap();
    let verdict = &client.wait_verdicts(&[slow]).unwrap()[0];
    let elapsed = t0.elapsed();
    assert_eq!(verdict.status, "timeout", "{verdict:?}");
    let message = verdict.error.as_deref().expect("timeout carries a message");
    assert!(message.contains("deadline exceeded"), "{message}");
    assert!(message.contains("at "), "partial trajectory: {message}");
    assert!(
        elapsed < Duration::from_secs(2),
        "timeout must cut the job short, took {elapsed:?}"
    );

    // The worker survives: the very next job verifies normally under the
    // same (ample, for a small job) budget.
    let quick = client
        .submit_source(
            "after",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    assert_eq!(
        client.wait_verdicts(&[quick]).unwrap()[0].status,
        "verified"
    );

    let Event::Stats { queue, .. } = client.stats().unwrap() else {
        unreachable!()
    };
    assert!(queue.timed_out >= 1, "stats count timeouts: {queue:?}");
    daemon.join();
}

#[test]
fn per_client_inflight_cap_is_client_scoped() {
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        max_per_client: Some(1),
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let mut greedy = Client::connect(daemon.local_addr()).unwrap();
    let mut modest = Client::connect(daemon.local_addr()).unwrap();

    // The greedy client's first job occupies its whole allowance while
    // it runs (~1 s)…
    let held = greedy
        .submit_source("held", &heavy_source(1000), 0)
        .unwrap();
    // …so its second submission is refused with a *client-scoped*
    // overloaded event: `max_queue` echoes the per-client bound.
    let reply = greedy
        .request(&Request::Submit {
            name: "excess".into(),
            source: "def pf := proof [q] : { P0[q] }; skip; { P0[q] } end".into(),
            priority: 0,
            trace: None,
        })
        .unwrap();
    assert_eq!(
        reply,
        Event::Overloaded {
            queued: 1,
            max_queue: 1,
            rejected: 1,
        },
        "the per-client bound must refuse the greedy client"
    );

    // Another connection is unaffected by the greedy client's refusal.
    let other = modest
        .submit_source(
            "other",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    assert_eq!(
        modest.wait_verdicts(&[other]).unwrap()[0].status,
        "verified"
    );
    assert_eq!(greedy.wait_verdicts(&[held]).unwrap()[0].status, "verified");

    // With its job finished the allowance frees up again.
    let again = greedy
        .submit_source(
            "again",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    assert_eq!(
        greedy.wait_verdicts(&[again]).unwrap()[0].status,
        "verified"
    );
    daemon.join();
}

#[test]
fn disconnecting_submitter_cancels_its_queued_jobs() {
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let mut doomed = Client::connect(daemon.local_addr()).unwrap();

    // One running job (~1 s) plus two stuck behind it — then the
    // submitter vanishes. The backlog must be cancelled (nobody is left
    // to read those verdicts); the running job finishes on its own.
    doomed
        .submit_source("running", &heavy_source(1000), 0)
        .unwrap();
    doomed
        .submit_source("queued1", &heavy_source(1000), 0)
        .unwrap();
    doomed
        .submit_source("queued2", &heavy_source(1000), 0)
        .unwrap();
    drop(doomed);

    let mut observer = Client::connect(daemon.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let Event::Stats { queue, .. } = observer.stats().unwrap() else {
            unreachable!()
        };
        if queue.cancelled == 2 && queue.queued == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backlog never cancelled: {queue:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The daemon is fully healthy for other clients afterwards.
    let id = observer
        .submit_source(
            "after",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    assert_eq!(observer.wait_verdicts(&[id]).unwrap()[0].status, "verified");
    daemon.join();
}

#[test]
fn drain_shutdown_finishes_the_backlog_and_refuses_new_work() {
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        drain_timeout: Duration::from_secs(30),
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let mut submitter = Client::connect(daemon.local_addr()).unwrap();
    let mut stopper = Client::connect(daemon.local_addr()).unwrap();

    // One running job (~1 s) and two queued behind it; a plain shutdown
    // would drop the queued pair, a drain must finish all three.
    let a = submitter
        .submit_source("a", &heavy_source(1000), 0)
        .unwrap();
    let b = submitter
        .submit_source(
            "b",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    let c = submitter
        .submit_source(
            "c",
            "def pf := proof [q] : { P0[q] }; skip; { P0[q] } end",
            0,
        )
        .unwrap();

    let drainer = std::thread::spawn(move || {
        stopper.shutdown_with(true).unwrap();
    });
    // While the drain works off the backlog, new submissions are refused.
    std::thread::sleep(Duration::from_millis(150));
    let mut late = Client::connect(daemon.local_addr()).unwrap();
    let err = late
        .submit_source("late", "skip", 0)
        .expect_err("draining daemon must refuse new work");
    assert!(err.to_string().contains("draining"), "{err}");

    let verdicts = submitter.wait_verdicts(&[a, b, c]).unwrap();
    assert!(
        verdicts.iter().all(|v| v.status == "verified"),
        "a drain finishes every backlogged job: {verdicts:?}"
    );
    drainer.join().unwrap();
    daemon.join();
}

#[test]
fn metrics_endpoint_serves_prometheus_text_after_jobs() {
    use std::io::{Read as _, Write as _};
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let metrics_addr = daemon.metrics_addr().expect("metrics listener bound");
    let mut client = Client::connect(daemon.local_addr()).unwrap();
    let id = client
        .submit_source(
            "observed",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            3,
        )
        .unwrap();
    assert_eq!(client.wait_verdicts(&[id]).unwrap()[0].status, "verified");

    // The extended stats event: done counted, nothing rejected, backlog
    // drained; the raw reply line carries the daemon's uptime.
    client.send(&Request::Stats).unwrap();
    let line = std::iter::from_fn(|| client.next_line().unwrap())
        .find(|l| matches!(Event::parse(l), Ok(Event::Stats { .. })))
        .expect("stats reply");
    assert!(line.contains("\"uptime_ms\""), "{line}");
    let Ok(Event::Stats { queue, .. }) = Event::parse(&line) else {
        unreachable!()
    };
    assert_eq!(queue.done, 1);
    assert_eq!(queue.rejected, 0);
    assert!(queue.depths.is_empty(), "drained: {:?}", queue.depths);

    let mut stream = std::net::TcpStream::connect(metrics_addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("body");

    // The job-completion counter is non-zero (the registry is
    // process-wide, so other tests may have contributed too — assert the
    // floor, not the exact count)…
    let completed: u64 = body
        .lines()
        .filter(|l| l.starts_with("nqpv_jobs_completed_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(completed >= 1, "jobs must be counted:\n{body}");
    let verified: u64 = body
        .lines()
        .filter_map(|l| l.strip_prefix("nqpv_jobs_completed_total{status=\"verified\"} "))
        .map(|v| v.parse::<u64>().unwrap())
        .sum();
    assert!(verified >= 1, "verified jobs must be counted:\n{body}");
    // …and one scrape carries the whole surface: phase latency
    // histograms, queue wait, solver path mix, per-tier cache counters,
    // the drained-but-still-reported priority-3 depth gauge, uptime, and
    // the rejected counter.
    for needle in [
        "# TYPE nqpv_phase_duration_seconds histogram",
        "nqpv_phase_duration_seconds_bucket{phase=\"wp\",le=",
        "# TYPE nqpv_queue_wait_seconds histogram",
        "\nnqpv_queue_wait_seconds_count",
        "nqpv_solver_obligations_total{path=",
        "nqpv_cache_lookups_total{tier=\"verdict\",outcome=",
        "nqpv_queue_depth{priority=\"3\"} 0",
        "# TYPE nqpv_uptime_seconds gauge",
        "nqpv_jobs_rejected_total 0",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    daemon.join();
}

/// One HTTP/1.0 GET against the daemon's observability listener.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn profile_and_http_endpoints_cover_live_jobs() {
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let metrics_addr = daemon.metrics_addr().expect("metrics listener bound");
    let mut client = Client::connect(daemon.local_addr()).unwrap();
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            client
                .submit_source(
                    &format!("live-{i}"),
                    "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
                    0,
                )
                .unwrap()
        })
        .collect();
    let verdicts = client.wait_verdicts(&ids).unwrap();
    assert!(verdicts.iter().all(|v| v.status == "verified"));

    // The daemon-wide profile aggregated every job since startup (the
    // collector is process-global, so other tests only push it higher).
    let (jobs, collapsed) = client.profile().unwrap();
    assert!(jobs >= 3, "profile folded the submitted jobs: {jobs}");
    assert!(
        collapsed.lines().any(|l| l.contains("wp:")),
        "wp frames appear in the collapsed stacks:\n{collapsed}"
    );

    // Readiness beside /metrics, and a 404 for anything unrouted.
    let healthz = http_get(metrics_addr, "/healthz");
    assert!(healthz.starts_with("HTTP/1.0 200 OK\r\n"), "{healthz}");
    assert!(healthz.ends_with("ok\n"), "{healthz}");
    let missing = http_get(metrics_addr, "/nope");
    assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
    // The exposition is current without any background sampling: the
    // scrape itself refreshes the daemon-owned gauges.
    let metrics = http_get(metrics_addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
    assert!(
        metrics.contains("nqpv_jobs_completed_total{status=\"verified\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("\nnqpv_jobs_running "), "{metrics}");
    daemon.join();
}

#[test]
fn trace_store_eviction_is_bounded_and_reported() {
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        trace_store: 1,
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).unwrap();
    let source = "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end";
    let first = client
        .submit_source_traced(
            "evicted",
            source,
            0,
            Some(nqpv_telemetry::TraceContext::mint().to_hex()),
        )
        .unwrap();
    client.wait_verdicts(&[first]).unwrap();
    let second = client
        .submit_source_traced(
            "kept",
            source,
            0,
            Some(nqpv_telemetry::TraceContext::mint().to_hex()),
        )
        .unwrap();
    client.wait_verdicts(&[second]).unwrap();

    // Capacity 1: the second finished trace evicted the first. The
    // kept trace still serves; the evicted one answers with the
    // structured error, not a hang or a protocol break.
    let (name, _, events) = client.fetch_trace(second).unwrap();
    assert_eq!(name, "kept");
    assert!(events.starts_with('['), "trace events are a JSON array");
    let err = client
        .fetch_trace(first)
        .expect_err("evicted trace is gone");
    assert!(err.to_string().contains("evicted"), "{err}");
    // The eviction shows up in the process-wide registry.
    let text = nqpv_telemetry::global().render();
    let evicted: u64 = text
        .lines()
        .filter(|l| l.starts_with("nqpv_trace_store_evicted_total"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(evicted >= 1, "eviction counted:\n{text}");
    daemon.join();
}
