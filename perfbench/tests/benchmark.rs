//! Tests of the benchmark's own code: seeded determinism, tiny instances
//! of every workload against their known answers, detection of a wrong
//! expected answer, and the metric names.

use nqpv_engine::{run_batch, BatchOptions};
use nqpv_perfbench::gen::{self, Expect};
use nqpv_perfbench::report::{complete, quantile, windows, Metrics, END_TO_END, PER_LAYER};
use nqpv_perfbench::{corpus, daemon, grover};
use nqpv_service::Json;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    let a = gen::corpus(7, 200, "ops");
    let b = gen::corpus(7, 200, "ops");
    assert_eq!(a, b);
    for ((fx, mx), (fy, my)) in a.npy.iter().zip(&b.npy) {
        assert_eq!(fx, fy);
        assert_eq!(
            nqpv_linalg::write_matrix_bytes(mx),
            nqpv_linalg::write_matrix_bytes(my)
        );
    }
    assert_eq!(gen::pool(7, 16), gen::pool(7, 16));
    let s1 = gen::arrivals(7, 2500.0, 500, 16);
    let s2 = gen::arrivals(7, 2500.0, 500, 16);
    assert_eq!(
        s1.iter()
            .map(|(t, k)| (t.to_bits(), *k))
            .collect::<Vec<_>>(),
        s2.iter()
            .map(|(t, k)| (t.to_bits(), *k))
            .collect::<Vec<_>>()
    );
    assert_eq!(gen::grover_marked(7, 10), gen::grover_marked(7, 10));
    assert_ne!(
        gen::corpus(8, 200, "ops"),
        a,
        "another seed gives another corpus"
    );
}

#[test]
fn corpus_jobs_are_distinct_and_cover_every_answer() {
    let jobs = gen::corpus(3, 400, "ops").jobs;
    let sources: HashSet<&str> = jobs.iter().map(|j| j.source.as_str()).collect();
    assert_eq!(sources.len(), jobs.len());
    for want in [Expect::Verified, Expect::Rejected, Expect::Error] {
        assert!(jobs.iter().any(|j| j.expect == want), "{want:?} missing");
    }
    let rejected = jobs.iter().filter(|j| j.expect == Expect::Rejected).count();
    assert!(
        (60..=140).contains(&rejected),
        "about a quarter rejected: {rejected}"
    );
}

#[test]
fn arrivals_follow_the_rate() {
    let s = gen::arrivals(5, 2000.0, 4000, 16);
    let span = s.last().expect("non-empty").0;
    assert!(
        (span - 2.0).abs() < 0.2,
        "4000 jobs at 2000/s span ~2 s: {span}"
    );
    assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn grover4_passes_its_known_answer_and_a_wrong_one_is_caught() {
    let g = grover::setup(4, gen::grover_marked(1, 4));
    let outcome = grover::verify(&g, nqpv_core::VcOptions::default());
    assert!(grover::check(&g, g.p, &outcome));
    assert!(
        !grover::check(&g, g.p + 0.01, &outcome),
        "a wrong p·I must fail"
    );
    let (replayed, calls) = grover::replay_unitary(&g).expect("straight-line body");
    let iterations = nqpv_core::casestudies::grover_parameters(4).iterations;
    assert_eq!(
        calls,
        2 + 2 * iterations,
        "init, Hⁿ, then Oracle and Diff per iteration"
    );
    assert!(replayed.approx_set_eq(&outcome.expect("verifies").computed_pre, 1e-6));
}

#[test]
fn tiny_grover_run_reports_every_end_to_end_metric() {
    let (tally, m) = grover::run(2, 0.0, 4);
    assert!(tally.attempted >= 1 && tally.failed == 0);
    let m = complete(&END_TO_END, m);
    assert!(m.0.iter().all(|(_, v, _)| *v > 0.0), "{m:?}");
}

#[test]
fn corpus20_passes_its_known_answers_and_a_wrong_one_is_caught() {
    let dir = tmp("corpus20");
    let (jobs, c) = corpus::setup(4, 20, &dir);
    let report = run_batch(
        &c,
        &BatchOptions {
            jobs: 2,
            explain: true,
            ..BatchOptions::default()
        },
    );
    let mut expected: HashMap<&str, Expect> =
        jobs.iter().map(|j| (j.name.as_str(), j.expect)).collect();
    let tally = corpus::check(&report, &expected);
    assert_eq!((tally.attempted, tally.failed), (20, 0));
    let flipped = jobs[0].name.as_str();
    let wrong = match expected[flipped] {
        Expect::Verified => Expect::Rejected,
        _ => Expect::Verified,
    };
    expected.insert(flipped, wrong);
    assert_eq!(corpus::check(&report, &expected).failed, 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn daemon50_passes_its_known_answers() {
    let mut h = daemon::start(9);
    let phase = h.phase(&gen::arrivals(9, 500.0, 50, daemon::POOL), false, 10);
    let tally = phase.tally();
    assert_eq!((tally.attempted, tally.failed), (50, 0));
    assert!(phase.latencies().iter().all(|l| *l > 0.0));
    assert!(h.cache_stats().is_some_and(|c| c.hits + c.verdict_hits > 0));
    h.stop();
}

#[test]
fn quantiles_interpolate() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 0.5), 2.5);
    assert_eq!(quantile(&v, 1.0), 4.0);
    let lat: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
    assert_eq!(daemon::windowed_p99(&lat), quantile(&lat[..1000], 0.99));
}

#[test]
fn windows_close_on_duration_and_drop_a_short_tail() {
    let v = [0.4, 0.7, 1.0, 0.2, 0.3, 0.1];
    assert_eq!(windows(&v, 1.0), vec![&v[..2], &v[2..3]]);
    assert_eq!(windows(&v[3..], 1.0), vec![&v[3..]]);
    assert!(windows(&[], 1.0).is_empty());
}

#[test]
fn ladder_crossing_uses_a_monotone_fit() {
    assert_eq!(
        daemon::isotonic(&[1.0, 3.0, 2.0, 4.0]),
        vec![1.0, 2.5, 2.5, 4.0]
    );
    let rates = [1000.0, 2000.0, 3000.0, 4000.0];
    // A stalled second step does not end the ladder early.
    assert_eq!(daemon::crossing(&rates, &[1.0, 7.0, 1.0, 9.0], 5.0), 3200.0);
    assert_eq!(daemon::crossing(&rates, &[1.0, 2.0, 3.0, 4.0], 5.0), 4000.0);
    assert_eq!(
        daemon::crossing(&rates, &[10.0, 20.0, 30.0, 40.0], 5.0),
        500.0
    );
}

#[test]
fn complete_orders_and_zero_fills() {
    let mut m = Metrics::default();
    m.put("core.wp_ms", 2.0, "ms");
    let full = complete(&PER_LAYER, m);
    assert_eq!(full.0.len(), PER_LAYER.len());
    assert_eq!(full.get("core.wp_ms"), Some(2.0));
    assert_eq!(full.get("service.overhead_ms"), Some(0.0));
}

/// The `name` of every entry of one top-level array of BENCHMARK.json.
fn declared(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("array present")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let ok = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (n, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(ok(n), "{n}");
    }
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(declared(&spec, "end_to_end"), names(&END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), names(&PER_LAYER));
    assert_eq!(
        declared(&spec, "workloads"),
        nqpv_perfbench::WORKLOADS.to_vec()
    );
}
