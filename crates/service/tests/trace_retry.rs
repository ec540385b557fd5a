//! Trace propagation through a retried job, end to end, isolated in its
//! own test binary: the deterministic fault plan is parsed from
//! `NQPV_FAULTS` once per process, so arming `worker_panic` here must
//! not leak into the main e2e suite.

use nqpv_service::{Client, Daemon, ServeOptions};
use nqpv_telemetry::TraceContext;

#[test]
fn traced_submission_survives_an_injected_panic() {
    // The first worker_panic call fires; the retry succeeds — the
    // verdict is still `verified` while the job's trace keeps the
    // evidence of the crash.
    std::env::set_var("NQPV_FAULTS", "42:worker_panic*1");

    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).unwrap();

    let ctx = TraceContext::mint();
    let hex = ctx.to_hex();
    let id = client
        .submit_source_traced(
            "panicky",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
            Some(hex.clone()),
        )
        .unwrap();
    let verdict = &client.wait_verdicts(&[id]).unwrap()[0];
    assert_eq!(verdict.status, "verified", "{verdict:?}");
    assert_eq!(verdict.trace.as_deref(), Some(hex.as_str()), "{verdict:?}");

    // The daemon half of the trace is retrievable by job id, tagged with
    // the client-minted id, and shows the successful attempt ran as a
    // retry after waiting in the queue.
    let (name, trace_hex, events) = client.fetch_trace(id).unwrap();
    assert_eq!(name, "panicky");
    assert_eq!(trace_hex, hex);
    for needle in ["queue_wait", "retry_attempt", "\"cat\":\"wp\""] {
        assert!(events.contains(needle), "missing {needle} in {events}");
    }

    // An untraced job yields no stored trace to fetch.
    let plain = client
        .submit_source(
            "plain",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    assert_eq!(
        client.wait_verdicts(&[plain]).unwrap()[0].status,
        "verified"
    );
    let err = client.fetch_trace(plain).unwrap_err();
    assert!(err.to_string().contains("no trace"), "{err}");
    daemon.join();
}
