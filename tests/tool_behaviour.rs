//! Integration tests for experiment E4: the NQPV tool behaviours of paper
//! Sec. 6.1–6.2 — proof-outline generation with `VAR*` predicates, `show`
//! output, `.npy` loading, precondition omission, and the invalid-invariant
//! error message.

use nqpv::core::casestudies::qwalk_invariant;
use nqpv::core::{Session, SessionError};
use nqpv::linalg::write_matrix;
use nqpv::service::json::{n, obj, Json};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nqpv_it_{tag}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

const QWALK_SOURCE: &str = r#"
def invN := load "invN.npy" end
def pf := proof [q1 q2] :
  { I[q1] };
  [q1 q2] := 0;
  { inv : invN[q1 q2] };
  while MQWalk[q1 q2] do
    ( [q1 q2] *= W1; [q1 q2] *= W2
    # [q1 q2] *= W2; [q1 q2] *= W1 )
  end;
  { Zero[q1] }
end
show pf end
"#;

#[test]
fn e4_full_session_reproduces_sec62_outline() {
    let dir = temp_dir("outline");
    write_matrix(dir.join("invN.npy"), &qwalk_invariant()).unwrap();
    let mut session = Session::new().with_base_dir(&dir);
    session.run_str(QWALK_SOURCE).unwrap();
    let outcome = session.outcome("pf").expect("proof ran");
    assert!(outcome.status.verified());

    let shown = &session.output()[0];
    // The structural landmarks of the paper's output.
    for needle in [
        "proof [q1 q2] :",
        "{ I[q1] }",
        "// the Veri. Con.",
        "[q1 q2] := 0",
        "{ inv : invN[q1 q2] }",
        "while MQWalk[q1 q2] do",
        "{ invN[q1 q2] }",
        "[q1 q2] *= W1",
        "VAR0[q1 q2]",
        "VAR1[q1 q2]",
        "{ Zero[q1] }",
    ] {
        assert!(
            shown.contains(needle),
            "outline missing {needle:?}:\n{shown}"
        );
    }
}

#[test]
fn e4_show_var_predicates() {
    let dir = temp_dir("show");
    write_matrix(dir.join("invN.npy"), &qwalk_invariant()).unwrap();
    let mut session = Session::new().with_base_dir(&dir);
    session.run_str(QWALK_SOURCE).unwrap();
    // `show VAR0 end`: the intermediate predicate W2† invN W2.
    let var0 = session.show("VAR0").expect("VAR0 registered");
    assert!(var0.contains("VAR0 ="));
    // The invariant itself can be shown under its source display name.
    let inv = session.show("invN[q1 q2]").unwrap();
    assert!(inv.contains("invN[q1 q2] ="));
    // Built-ins.
    assert!(session.show("W1").unwrap().contains("0.5774"));
    assert!(matches!(
        session.show("NOSUCH"),
        Err(SessionError::UnknownShow(_))
    ));
}

#[test]
fn e4_invalid_invariant_reproduces_the_error_message() {
    let dir = temp_dir("invalid");
    write_matrix(dir.join("invN.npy"), &qwalk_invariant()).unwrap();
    let broken = QWALK_SOURCE.replace("invN[q1 q2]", "P0[q1]");
    let mut session = Session::new().with_base_dir(&dir);
    let err = session.run_str(&broken).unwrap_err();
    let msg = err.to_string();
    // The two lines of the paper's Sec. 6.2 error output.
    assert!(msg.contains("Order relation not satisfied"), "{msg}");
    assert!(msg.contains("not a valid loop invariant"), "{msg}");
}

#[test]
fn e4_omitted_precondition_computes_weakest_precondition() {
    // Sec. 6.1: "NQPV also allows users to omit preconditions and specify
    // only postconditions. In this case, NQPV outputs the weakest
    // precondition it can compute."
    let mut session = Session::new();
    session
        .run_str("def wp := proof [q] : [q] *= H; { P0[q] } end")
        .unwrap();
    let outcome = session.outcome("wp").unwrap();
    assert!(outcome.status.verified());
    assert!(outcome.computed_pre.ops()[0].approx_eq(&nqpv::quantum::ket("+").projector(), 1e-9));
}

#[test]
fn e4_malformed_inputs_fail_cleanly() {
    let dir = temp_dir("malformed");
    // Corrupt npy.
    std::fs::write(dir.join("bad.npy"), b"not numpy at all").unwrap();
    let mut s = Session::new().with_base_dir(&dir);
    assert!(matches!(
        s.run_str("def op := load \"bad.npy\" end"),
        Err(SessionError::Npy(_, _))
    ));
    // Non-operator matrix (not unitary, not a predicate).
    let bad = nqpv::linalg::CMat::from_real(2, 2, &[3.0, 0.0, 0.0, 0.0]);
    write_matrix(dir.join("big.npy"), &bad).unwrap();
    let mut s2 = Session::new().with_base_dir(&dir);
    assert!(matches!(
        s2.run_str("def op := load \"big.npy\" end"),
        Err(SessionError::Library(_))
    ));
    // Unknown qubit in a program.
    let mut s3 = Session::new();
    let err = s3
        .run_str("def p := proof [q] : { I[q] }; [r] *= H; { I[q] } end")
        .unwrap_err();
    assert!(err.to_string().contains("unknown qubit"), "{err}");
    // Measurement used as a unitary.
    let mut s4 = Session::new();
    let err2 = s4
        .run_str("def p := proof [q] : { I[q] }; [q] *= M01; { I[q] } end")
        .unwrap_err();
    assert!(err2.to_string().contains("expected a unitary"), "{err2}");
}

/// Path to the `nqpv` binary of this test profile. The first call runs
/// `cargo build -p nqpv-cli` (a no-op when it is current): `cargo test`
/// does not rebuild the plain binary, and a stale one would test old
/// code.
fn nqpv_bin() -> Option<PathBuf> {
    static BIN: std::sync::OnceLock<Option<PathBuf>> = std::sync::OnceLock::new();
    BIN.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let target = std::env::var("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| root.join("target"));
        let bin = target.join(profile).join("nqpv");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = std::process::Command::new(cargo);
        cmd.current_dir(root).args(["build", "-p", "nqpv-cli"]);
        if profile == "release" {
            cmd.arg("--release");
        }
        let _ = cmd.status();
        bin.exists().then_some(bin)
    })
    .clone()
}

fn run_nqpv(args: &[&str]) -> Option<std::process::Output> {
    let bin = nqpv_bin()?;
    Some(
        std::process::Command::new(bin)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .args(args)
            .output()
            .expect("binary runs"),
    )
}

#[test]
fn e4_cli_binary_verifies_the_shipped_examples() {
    // Drive the actual `nqpv` binary on the checked-in example files.
    for file in ["qwalk.nqpv", "err_corr.nqpv", "deutsch.nqpv"] {
        let path = format!("examples/nqpv_files/{file}");
        let Some(out) = run_nqpv(&["verify", &path]) else {
            return; // Binary unavailable; skip silently.
        };
        assert!(
            out.status.success(),
            "{file}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("verified"), "{file}: {stdout}");
    }
}

#[test]
fn cli_outputs_match_the_golden_fixtures() {
    // `verify`, `show` and `explain` output is byte-identical to the
    // fixtures under tests/golden/: outlines, `VARk` numbering across the
    // proofs of one file, `Error:` blocks of rejected proofs, shown
    // matrices, and counterexamples (human and JSON).
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let manifest = std::fs::read_to_string(golden.join("MANIFEST")).expect("manifest");
    let mut cases = 0;
    for line in manifest
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let mut fields = line.split_whitespace();
        let (Some(code), Some(file)) = (fields.next(), fields.next()) else {
            panic!("malformed manifest line {line:?}");
        };
        let args: Vec<&str> = fields.collect();
        let Some(out) = run_nqpv(&args) else { return };
        let expected = std::fs::read(golden.join(file)).expect("golden file");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&expected),
            "stdout of `nqpv {}` differs from {file}",
            args.join(" ")
        );
        assert_eq!(out.stdout, expected, "{file}: bytes differ");
        assert_eq!(
            out.status.code().map(|c| c.to_string()).as_deref(),
            Some(code),
            "exit code of `nqpv {}`",
            args.join(" ")
        );
        cases += 1;
    }
    assert_eq!(cases, 74, "every fixture case ran");
}

#[test]
fn explain_structural_errors_keep_their_messages_and_exit_code() {
    // A structural failure is an error, not a diagnosis: nothing on
    // stdout, the message on stderr, exit 2 — for a missing `.npy`, two
    // `.npy` headers whose shapes outsize their payload (no panic, no
    // allocation), a parse error and an unknown operator, in both output
    // modes.
    let cases = [
        (
            "tests/golden/explain_missing_npy.nqpv",
            "loading 'no_such_operator.npy': npy i/o error: No such file or directory (os error 2)\n",
        ),
        (
            "tests/golden/explain_shape_2p60_plus_1.nqpv",
            "loading '../../crates/linalg/tests/data/shape_2p60_plus_1.npy': \
             npy payload shorter than header shape\n",
        ),
        (
            "tests/golden/explain_shape_2p32_squared.nqpv",
            "loading '../../crates/linalg/tests/data/shape_2p32_squared.npy': \
             malformed npy header: shape (4294967296, 4294967296) overflows the address space\n",
        ),
        (
            "examples/corpus/parse_error.nqpv",
            "parse error at 5:10: expected an identifier (found ';')\n",
        ),
        (
            "tests/golden/explain_unknown_op.nqpv",
            "verifying proof 'pf':\nunknown operator 'NOPE'\n",
        ),
    ];
    for (file, stderr) in cases {
        for args in [vec!["explain", file], vec!["explain", "--json", file]] {
            let Some(out) = run_nqpv(&args) else { return };
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(out.stdout.is_empty(), "{args:?}");
            assert_eq!(String::from_utf8_lossy(&out.stderr), stderr, "{args:?}");
        }
    }
}

#[test]
fn cli_batch_traces_are_chrome_json_without_outline_spans() {
    // `batch --trace` writes one Chrome trace-event JSON per corpus job,
    // each with a parse span; a cold job also shows wp and solver spans
    // (verdict-cache twins legitimately skip the solver). Batch jobs show
    // no outline, so none of them renders one.
    let dir = temp_dir("batch_traces");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy().into_owned();
    let args = [
        "batch",
        "examples/corpus",
        "--jobs",
        "2",
        "--trace",
        &dir_arg,
    ];
    let Some(out) = run_nqpv(&args) else { return };
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("trace dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".trace.json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 8, "{files:?}");
    let span_cats = |trace: &Json| -> Vec<(String, String)> {
        trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                let field = |k| {
                    e.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("cat"), field("name"))
            })
            .collect()
    };
    for file in &files {
        let text = std::fs::read_to_string(file).expect("trace readable");
        let trace = Json::parse(&text).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        assert_eq!(
            trace.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms"),
            "{file:?}"
        );
        let spans = span_cats(&trace);
        assert!(
            spans.iter().any(|(cat, _)| cat == "parse"),
            "{file:?}: {spans:?}"
        );
        assert!(
            !spans.iter().any(|(_, name)| name == "outline"),
            "{file:?}: {spans:?}"
        );
        if file.ends_with("deutsch.trace.json") {
            for cat in ["parse", "wp", "solver"] {
                assert!(spans.iter().any(|(c, _)| c == cat), "{cat}: {spans:?}");
            }
        }
    }
    assert!(
        files.iter().any(|f| f.ends_with("deutsch.trace.json")),
        "{files:?}"
    );
}

#[test]
fn cli_usage_and_exit_codes() {
    // No arguments: usage on stderr, exit 2.
    let Some(out) = run_nqpv(&[]) else { return };
    assert_eq!(out.status.code(), Some(2), "bare nqpv must exit 2");
    assert!(out.stdout.is_empty(), "usage must go to stderr");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
    assert!(err.contains("batch"), "usage must list batch: {err}");

    // Unknown subcommand and wrong arity are usage errors too.
    for bad in [
        vec!["frobnicate"],
        vec!["verify"],
        vec!["show", "examples/nqpv_files/qwalk.nqpv"],
        vec!["batch"],
        vec!["batch", "--jobs", "examples/corpus"],
        vec!["batch", "--jobs", "0", "examples/corpus"],
        vec!["batch", "--cache-cap", "examples/corpus"],
        vec!["batch", "--cache-cap", "0", "examples/corpus"],
    ] {
        let out = run_nqpv(&bad).expect("binary available");
        assert_eq!(out.status.code(), Some(2), "nqpv {bad:?} must exit 2");
    }
    // Removed commands and flags are refused with the usage text.
    for gone in [
        vec!["top", "127.0.0.1:7071"],
        vec!["serve", "--addr", "127.0.0.1:0", "--slo-ms", "5"],
        vec!["serve", "--addr", "127.0.0.1:0", "--sample-secs", "1"],
        vec!["batch", "--no-bin", "examples/corpus"],
        vec!["batch", "--flight-dir", "D", "examples/corpus"],
        vec!["serve", "--addr", "127.0.0.1:0", "--flight-dir", "D"],
    ] {
        let out = run_nqpv(&gone).expect("binary available");
        assert_eq!(out.status.code(), Some(2), "nqpv {gone:?} must exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "nqpv {gone:?}: {out:?}"
        );
    }

    // verify: 0 on success, 1 on a rejected proof, 2 on a missing file.
    let ok = run_nqpv(&["verify", "examples/corpus/grover_step.nqpv"]).unwrap();
    assert_eq!(ok.status.code(), Some(0));
    let rejected = run_nqpv(&["verify", "examples/corpus/rejected.nqpv"]).unwrap();
    assert_eq!(rejected.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&rejected.stdout).contains("REJECTED"));
    let missing = run_nqpv(&["verify", "examples/corpus/nosuch.nqpv"]).unwrap();
    assert_eq!(missing.status.code(), Some(2));

    // check: 0 on a parseable file, 2 on a syntax error.
    let check_ok = run_nqpv(&["check", "examples/corpus/rus.nqpv"]).unwrap();
    assert_eq!(check_ok.status.code(), Some(0));
    let check_bad = run_nqpv(&["check", "examples/corpus/parse_error.nqpv"]).unwrap();
    assert_eq!(check_bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&check_bad.stderr).contains("parse error"));
}

#[test]
fn cli_output_to_a_closed_pipe_stops_quietly() {
    // A reader that closes its end before the CLI writes (`nqpv ops |
    // head -0`) must not panic the CLI: it stops writing and exits with
    // the code the command has when its output is read.
    let Some(bin) = nqpv_bin() else { return };
    for args in [
        vec!["show", "examples/nqpv_files/qwalk.nqpv", "VAR0"],
        vec!["ops"],
        vec!["verify", "examples/corpus/rejected.nqpv"],
        vec!["explain", "examples/corpus/rejected.nqpv"],
        vec!["batch", "--jobs", "1", "examples/corpus"],
    ] {
        let read = run_nqpv(&args).expect("binary available");
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = std::process::Command::new(&bin)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .args(&args)
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "nqpv {args:?}: {stderr}");
        assert_eq!(out.status.code(), read.status.code(), "nqpv {args:?}");
    }
}

#[test]
fn cli_verify_refuses_registers_too_wide_to_index() {
    // `{ P1[q_last] } [q0] *= X; { P0[q_last] }` is false and its mirror
    // with P0 is true. On 65 qubits, 2^65 wraps a machine word and q0
    // would alias q64, so the verifier must refuse the register instead
    // of deciding either proof; on 3 qubits both verdicts are decided.
    let dir = temp_dir("wide_register");
    let wide: Vec<String> = (0..65).map(|i| format!("q{i}")).collect();
    let narrow: Vec<String> = (0..3).map(|i| format!("q{i}")).collect();
    for (qubits, codes) in [(&wide, [Some(2), Some(2)]), (&narrow, [Some(1), Some(0)])] {
        let last = qubits.last().expect("non-empty register");
        for (pre, code) in ["P1", "P0"].into_iter().zip(codes) {
            let file = dir.join(format!("{}_{pre}.nqpv", qubits.len()));
            std::fs::write(
                &file,
                format!(
                    "def pf := proof [{}] :\n  {{ {pre}[{last}] }};\n  [q0] *= X;\n  {{ P0[{last}] }}\nend\n",
                    qubits.join(" ")
                ),
            )
            .unwrap();
            let Some(out) = run_nqpv(&["verify", file.to_str().unwrap()]) else {
                return;
            };
            assert_eq!(
                out.status.code(),
                code,
                "{} qubits, {pre}: {out:?}",
                qubits.len()
            );
            if qubits.len() == 65 {
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(err.contains("register of 65 qubits is too wide"), "{err}");
                assert!(out.stdout.is_empty(), "no verdict is printed: {out:?}");
            }
        }
    }
}

#[test]
fn cli_batch_verifies_the_corpus_in_parallel() {
    // The acceptance scenario: `nqpv batch examples/corpus --jobs 4 --json`
    // reports per-job status + timings + cache counters, and each verdict
    // matches what sequential `nqpv verify` says about the same file.
    let Some(out) = run_nqpv(&["batch", "examples/corpus", "--jobs", "4", "--json"]) else {
        return;
    };
    // Corpus contains one rejected and one parse-error job → exit 1.
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"workers\": 4"), "{json}");
    assert!(json.contains("\"cache\""), "{json}");
    assert!(json.contains("\"ms\""), "{json}");
    // The solver verdict-cache tier is reported alongside the transformer
    // cache counters.
    assert!(json.contains("\"verdict_hits\""), "{json}");
    assert!(json.contains("\"verdict_misses\""), "{json}");
    assert!(json.contains("\"verdict_hit_rate\""), "{json}");

    // Cross-check every job verdict against the single-file CLI path.
    for (file, status) in CORPUS_STATUSES {
        let needle = format!("\"name\": \"{file}\", \"path\": ");
        let line = json
            .lines()
            .find(|l| l.contains(&needle))
            .unwrap_or_else(|| panic!("job {file} missing from {json}"));
        assert!(
            line.contains(&format!("\"status\": \"{status}\"")),
            "{file}: {line}"
        );
        let verify = run_nqpv(&["verify", &format!("examples/corpus/{file}.nqpv")]).unwrap();
        let expected_exit = match status {
            "verified" => 0,
            "rejected" => 1,
            _ => 2,
        };
        assert_eq!(
            verify.status.code(),
            Some(expected_exit),
            "{file}: batch and sequential verdicts must agree"
        );
    }

    // Manifest form: only verifying jobs listed → exit 0, human summary.
    // Sequential (--jobs 1) so the twin job deterministically runs after
    // grover_step has populated the cache.
    let manifest = run_nqpv(&["batch", "examples/corpus/manifest.txt", "--jobs", "1"]).unwrap();
    assert_eq!(
        manifest.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&manifest.stderr)
    );
    let summary = String::from_utf8_lossy(&manifest.stdout);
    assert!(summary.contains("5 job(s): 5 verified"), "{summary}");
    // grover_step_twin is program-identical to grover_step. The
    // transformer tier admits a subterm only on its second sighting, so
    // the twin stores its body's result (the one entry) without hitting;
    // its repeated ⊑_inf queries must still land in the verdict tier.
    let line = |prefix: &str| {
        summary
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in {summary}"))
            .to_string()
    };
    let transformer = line("cache:");
    assert!(
        transformer.starts_with("cache: 0 hit(s), ") && transformer.contains(", 1 entry, "),
        "twin job must be admitted, not hit: {summary}"
    );
    // "verdict cache: 0 hit(s)" matches an exact zero count without also
    // matching counts that merely end in 0 (e.g. "10 hit(s)").
    assert!(
        !line("verdict cache:").starts_with("verdict cache: 0 hit(s)"),
        "twin job must hit the verdict tier: {summary}"
    );

    // Corpus-level failures are usage-style errors: exit 2.
    let nodir = run_nqpv(&["batch", "examples/no_such_dir"]).unwrap();
    assert_eq!(nodir.status.code(), Some(2));
}

#[test]
fn cli_batch_cache_tiers_count_as_recorded() {
    // Transformer and verdict tier hits, misses and entries of a
    // sequential batch over the shipped corpus. Memo keys are built from
    // per-statement digests and separate exactly the subterms that
    // hashing every subtree in full at each key separated, so these are
    // the counts recorded with those keys.
    let keys = [
        "hits",
        "misses",
        "entries",
        "verdict_hits",
        "verdict_misses",
        "verdict_entries",
    ];
    for (target, counts) in [
        ("examples/corpus", [0, 16, 1, 2, 6, 6]),
        ("examples/corpus/manifest.txt", [0, 15, 1, 2, 4, 4]),
    ] {
        let Some(out) = run_nqpv(&["batch", target, "--jobs", "1", "--json"]) else {
            return;
        };
        let json = String::from_utf8_lossy(&out.stdout);
        for (key, want) in keys.into_iter().zip(counts) {
            assert_eq!(json_counter(&json, key), Some(want), "{target}: {key}");
        }
    }
}

/// The verdict-bearing fields (`name`, `status`, `error`, `proofs`) of
/// every job in a `batch --json` report, sorted by job name. Timings and
/// cache counters vary run to run; these must not.
fn batch_verdicts(args: &[&str]) -> Option<Vec<Vec<String>>> {
    let out = run_nqpv(args)?;
    // The corpus holds rejected and parse-error jobs → exit 1.
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("batch JSON parses");
    let mut jobs: Vec<Vec<String>> = report
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("jobs array")
        .iter()
        .map(|job| {
            ["name", "status", "error", "proofs"]
                .iter()
                .map(|k| job.get(k).map_or_else(|| "null".into(), Json::to_string))
                .collect()
        })
        .collect();
    jobs.sort();
    Some(jobs)
}

#[test]
fn cli_batch_verdicts_are_identical_across_kernel_threads() {
    // The parallel kernels keep each output element's floating-point
    // accumulation inside one chunk, so verdicts are bitwise independent
    // of the kernel thread count.
    let corpus = ["batch", "examples/corpus", "--json", "--kernel-threads"];
    let Some(one) = batch_verdicts(&[&corpus[..], &["1"]].concat()) else {
        return;
    };
    let four = batch_verdicts(&[&corpus[..], &["4"]].concat()).expect("binary available");
    assert_eq!(one.len(), 8, "{one:?}");
    assert_eq!(one, four);
}

#[test]
fn cli_explain_turns_rejections_into_witnesses() {
    // Deterministic rejection: {P1} H {P0}. The counterexample must name
    // the witness, report a replay-confirmed gap, and exit 1.
    let Some(out) = run_nqpv(&["explain", "examples/corpus/rejected.nqpv"]) else {
        return;
    };
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REJECTED"), "{text}");
    assert!(text.contains("witness |v⟩"), "{text}");
    assert!(text.contains("CONFIRMED violation"), "{text}");
    assert!(text.contains("replay gap = 0.707107"), "{text}");

    // Nondeterministic rejection: the demonic scheduler trace names the
    // violating branch of the `□`.
    let ndet = run_nqpv(&["explain", "examples/corpus/rejected_ndet.nqpv"]).unwrap();
    assert_eq!(ndet.status.code(), Some(1));
    let text = String::from_utf8_lossy(&ndet.stdout);
    assert!(text.contains("#0 → right"), "{text}");
    assert!(text.contains("replay gap = 1.000000"), "{text}");

    // JSON form: machine-checkable gap, schedule and witness amplitudes.
    let json_out = run_nqpv(&["explain", "--json", "examples/corpus/rejected_ndet.nqpv"]).unwrap();
    assert_eq!(json_out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&json_out.stdout);
    assert!(json.contains("\"gap\":1"), "{json}");
    assert!(json.contains("\"branch\":\"right\""), "{json}");
    assert!(json.contains("\"amplitudes\":"), "{json}");
    assert!(json.contains("\"confirmed\":true"), "{json}");

    // Verified files yield no counterexample and exit 0; structural
    // errors exit 2; missing target is a usage error.
    let ok = run_nqpv(&["explain", "examples/corpus/grover_step.nqpv"]).unwrap();
    assert_eq!(ok.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("no counterexample"));
    let broken = run_nqpv(&["explain", "examples/corpus/parse_error.nqpv"]).unwrap();
    assert_eq!(broken.status.code(), Some(2));
    let bare = run_nqpv(&["explain"]).unwrap();
    assert_eq!(bare.status.code(), Some(2));

    // Batch integration: `--explain --json` attaches the witnesses to
    // exactly the rejected jobs.
    let batch = run_nqpv(&[
        "batch",
        "examples/corpus",
        "--jobs",
        "2",
        "--explain",
        "--json",
    ])
    .unwrap();
    assert_eq!(batch.status.code(), Some(1));
    let json = String::from_utf8_lossy(&batch.stdout);
    assert_eq!(
        json.matches("\"counterexamples\": [").count(),
        2,
        "both rejected jobs diagnosed: {json}"
    );
    assert!(
        json.contains("\"schedule\":[{\"index\":0,\"branch\":\"right\"}]"),
        "{json}"
    );
}

/// The first proof's counterexample from `explain --json FILE`, which
/// must exit 1 (rejected).
fn explain_counterexample(file: &str) -> Option<Json> {
    let out = run_nqpv(&["explain", file, "--json"])?;
    assert_eq!(out.status.code(), Some(1), "{file}");
    let report = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("explain JSON parses");
    let proof = &report.get("proofs").and_then(Json::as_arr).expect("proofs")[0];
    Some(proof.get("counterexample").expect("counterexample").clone())
}

/// The witness amplitudes `[[re, im], …]` of a counterexample as
/// `(re, im)` pairs.
fn witness_amplitudes(cex: &Json) -> Vec<(f64, f64)> {
    cex.get("witness")
        .and_then(|w| w.get("amplitudes"))
        .and_then(Json::as_arr)
        .expect("witness amplitudes")
        .iter()
        .map(|a| {
            let a = a.as_arr().expect("[re, im]");
            (a[0].as_f64().unwrap(), a[1].as_f64().unwrap())
        })
        .collect()
}

fn num(cex: &Json, key: &str) -> f64 {
    cex.get(key).and_then(Json::as_f64).expect(key)
}

fn flag(cex: &Json, key: &str) -> bool {
    cex.get(key).and_then(Json::as_bool).expect(key)
}

#[test]
fn cli_explain_json_gap_rederives_from_the_witness() {
    // The reported replay gap is tr(Θρ) − tr(Ψ·⟦S⟧(ρ)) under the reported
    // scheduler. Recompute it from the JSON witness amplitudes alone.
    let norm = |(re, im): (f64, f64)| re * re + im * im;

    // rejected.nqpv: {P1} [q] *= H {P0}, so gap = |v₁|² − |(v₀+v₁)/√2|².
    let Some(cex) = explain_counterexample("examples/corpus/rejected.nqpv") else {
        return;
    };
    assert!(flag(&cex, "confirmed") && flag(&cex, "exhaustive"), "{cex}");
    let v = witness_amplitudes(&cex);
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let hv0 = (s * (v[0].0 + v[1].0), s * (v[0].1 + v[1].1));
    let gap = norm(v[1]) - norm(hv0);
    assert!((gap - num(&cex, "gap")).abs() < 1e-6, "{gap} vs {cex}");
    assert!(num(&cex, "gap") >= 1e-6, "{cex}");
    assert!(
        (num(&cex, "gap") - num(&cex, "solver_margin")).abs() < 1e-6,
        "{cex}"
    );
    assert_eq!(cex.get("schedule"), Some(&Json::Arr(vec![])), "{cex}");

    // rejected_ndet.nqpv: {P0} (skip # X) {P0}. The demon takes the right
    // branch, so gap = |v₀|² − |(Xv)₀|² = |v₀|² − |v₁|².
    let cex = explain_counterexample("examples/corpus/rejected_ndet.nqpv").unwrap();
    assert!(flag(&cex, "confirmed") && flag(&cex, "exhaustive"), "{cex}");
    let right = obj(vec![
        ("index", n(0.0)),
        ("branch", Json::Str("right".into())),
    ]);
    assert_eq!(cex.get("schedule"), Some(&Json::Arr(vec![right])), "{cex}");
    let v = witness_amplitudes(&cex);
    let gap = norm(v[0]) - norm(v[1]);
    assert!((gap - num(&cex, "gap")).abs() < 1e-6, "{gap} vs {cex}");
    assert!(
        (num(&cex, "gap") - num(&cex, "solver_margin")).abs() < 1e-6,
        "{cex}"
    );

    // Verified files carry no counterexample.
    let ok = run_nqpv(&["explain", "examples/corpus/grover_step.nqpv", "--json"]).unwrap();
    assert_eq!(ok.status.code(), Some(0));
    let ok = Json::parse(&String::from_utf8_lossy(&ok.stdout)).expect("explain JSON parses");
    for proof in ok.get("proofs").and_then(Json::as_arr).expect("proofs") {
        assert!(flag(proof, "verified"), "{proof}");
        assert!(proof.get("counterexample").is_none(), "{proof}");
    }

    // `batch --explain` attaches confirmed counterexamples to exactly the
    // rejected jobs.
    let batch = run_nqpv(&[
        "batch",
        "examples/corpus",
        "--jobs",
        "2",
        "--explain",
        "--json",
    ])
    .unwrap();
    assert_eq!(batch.status.code(), Some(1));
    let report = Json::parse(&String::from_utf8_lossy(&batch.stdout)).expect("batch JSON parses");
    let jobs = report.get("jobs").and_then(Json::as_arr).expect("jobs");
    let mut rejected = 0;
    for job in jobs {
        let cexs = job.get("counterexamples");
        if job.get("status").and_then(Json::as_str) == Some("rejected") {
            rejected += 1;
            let cexs = cexs.and_then(Json::as_arr).expect("counterexamples");
            assert!(!cexs.is_empty(), "{job}");
            assert!(cexs.iter().all(|c| flag(c, "confirmed")), "{job}");
        } else {
            assert!(cexs.is_none(), "{job}");
        }
    }
    assert_eq!(rejected, 2, "{report}");
}

#[test]
fn cli_batch_cache_cap_bounds_and_reports_evictions() {
    // A 1-entry-per-tier LRU over the manifest corpus: verdicts are
    // unchanged, eviction counters surface in both report formats.
    let Some(capped) = run_nqpv(&[
        "batch",
        "examples/corpus/manifest.txt",
        "--jobs",
        "1",
        "--cache-cap",
        "1",
        "--json",
    ]) else {
        return;
    };
    assert_eq!(
        capped.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&capped.stderr)
    );
    let json = String::from_utf8_lossy(&capped.stdout);
    assert!(json.contains("\"evictions\":"), "{json}");
    assert!(json.contains("\"verdict_evictions\":"), "{json}");
    // The tier never exceeds the cap.
    assert!(
        json.contains("\"entries\": 1") || json.contains("\"entries\": 0"),
        "{json}"
    );
    // Human summary carries the eviction counts too.
    let human = run_nqpv(&[
        "batch",
        "examples/corpus/manifest.txt",
        "--jobs",
        "1",
        "--cache-cap",
        "1",
    ])
    .unwrap();
    let summary = String::from_utf8_lossy(&human.stdout);
    assert!(summary.contains("eviction(s)"), "{summary}");
}

/// Extracts the integer value of `"key": N` from a JSON report line.
fn json_counter(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)? + needle.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn cli_batch_cache_dir_persists_verdicts_across_runs() {
    // `--cache-dir` layers the on-disk verdict store under the memo
    // cache: run 1 writes records, run 2 (a fresh process — a "restart")
    // answers its verdict queries from disk without solving anything new.
    let dir = temp_dir("cache_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.display().to_string();
    let args = [
        "batch",
        "examples/corpus/manifest.txt",
        "--jobs",
        "2",
        "--cache-dir",
        cache.as_str(),
        "--json",
    ];
    let Some(cold) = run_nqpv(&args) else { return };
    assert_eq!(
        cold.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_json = String::from_utf8_lossy(&cold.stdout);
    assert!(
        json_counter(&cold_json, "disk_writes").unwrap_or(0) >= 1,
        "cold run must persist verdicts: {cold_json}"
    );
    assert_eq!(
        json_counter(&cold_json, "disk_hits"),
        Some(0),
        "{cold_json}"
    );

    let warm = run_nqpv(&args).unwrap();
    assert_eq!(warm.status.code(), Some(0));
    let warm_json = String::from_utf8_lossy(&warm.stdout);
    assert!(
        json_counter(&warm_json, "disk_hits").unwrap_or(0) >= 1,
        "warm run must hit the disk store: {warm_json}"
    );
    assert_eq!(
        json_counter(&warm_json, "disk_writes"),
        Some(0),
        "fully warm run solves nothing new: {warm_json}"
    );
    // Verdicts agree run-over-run.
    for file in ["deutsch", "grover_step", "err_corr"] {
        let needle = format!("\"name\": \"{file}\", ");
        let status = |json: &str| {
            json.lines()
                .find(|l| l.contains(&needle))
                .map(|l| l.contains("\"status\": \"verified\""))
        };
        assert_eq!(status(&cold_json), status(&warm_json), "{file}");
    }

    // Each job reports the worker that ran it.
    assert!(warm_json.contains("\"worker\": "), "{warm_json}");
}

/// A `nqpv serve` child process and the loopback address its
/// `listening` banner announced.
struct ServeProc {
    bin: PathBuf,
    child: std::process::Child,
    addr: String,
    /// The rest of the daemon's stdout, kept open so later banner lines
    /// can still be written and read.
    stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl ServeProc {
    /// Spawns `nqpv serve --addr 127.0.0.1:0 ARGS…` from the repository
    /// root with `env` added and stderr sent to `stderr`, then waits for
    /// its banner.
    fn spawn(
        bin: &Path,
        env: &[(&str, &str)],
        args: &[&str],
        stderr: std::process::Stdio,
    ) -> ServeProc {
        let mut child = std::process::Command::new(bin)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .envs(env.iter().copied())
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("daemon spawns");
        let stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = ServeProc {
            bin: bin.to_path_buf(),
            child,
            addr: String::new(),
            stdout,
        };
        daemon.addr = daemon
            .banner()
            .rsplit(' ')
            .next()
            .expect("listening banner ends with the address")
            .to_string();
        daemon
    }

    /// The next stdout banner line.
    fn banner(&mut self) -> String {
        use std::io::BufRead;
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("banner");
        line.trim().to_string()
    }

    /// Runs `nqpv client ADDR ARGS…` against this daemon.
    fn client(&self, args: &[&str]) -> std::process::Output {
        std::process::Command::new(&self.bin)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .args(["client", self.addr.as_str()])
            .args(args)
            .output()
            .expect("client runs")
    }

    /// Sends `shutdown` and checks the daemon exits cleanly.
    fn shutdown(mut self) {
        let down = self.client(&["shutdown"]);
        assert!(String::from_utf8_lossy(&down.stdout).contains("shutting_down"));
        let status = self.child.wait().expect("daemon exits after shutdown");
        assert!(status.success(), "daemon exit: {status:?}");
    }
}

impl Drop for ServeProc {
    /// A test that fails before `shutdown` must not leave its daemon
    /// running (after a clean shutdown this is a no-op).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `name → status` of every job in a fault-free `nqpv batch --json` run
/// over the example corpus.
fn batch_statuses(bin: &Path) -> std::collections::BTreeMap<String, String> {
    let batch = std::process::Command::new(bin)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["batch", "examples/corpus", "--json"])
        .output()
        .expect("batch runs");
    assert_eq!(batch.status.code(), Some(1), "{batch:?}");
    let report = Json::parse(&String::from_utf8_lossy(&batch.stdout)).expect("batch JSON parses");
    report
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("jobs array")
        .iter()
        .map(|j| {
            let field = |k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("status"))
        })
        .collect()
}

/// The corpus verdicts every daemon and batch run must reproduce.
const CORPUS_STATUSES: [(&str, &str); 8] = [
    ("deutsch", "verified"),
    ("err_corr", "verified"),
    ("grover_step", "verified"),
    ("grover_step_twin", "verified"),
    ("rus", "verified"),
    ("rejected", "rejected"),
    ("rejected_ndet", "rejected"),
    ("parse_error", "error"),
];

#[test]
fn cli_serve_and_client_roundtrip() {
    // Drive the real daemon through the real binary: start `nqpv serve`
    // over a fresh --cache-dir, submit the corpus via `nqpv client`,
    // check the streamed verdicts match `nqpv batch`, then cold-restart
    // over the same directory and check the verdict queries are answered
    // from the persistent store.
    let Some(bin) = nqpv_bin() else { return };
    let cache = temp_dir("serve_roundtrip_cache");
    let _ = std::fs::remove_dir_all(&cache);
    let cache_str = cache.display().to_string();
    let serve_args = ["--jobs", "2", "--cache-dir", cache_str.as_str()];
    let daemon = ServeProc::spawn(&bin, &[], &serve_args, std::process::Stdio::inherit());

    let ping = daemon.client(&["ping"]);
    assert_eq!(ping.status.code(), Some(0), "{ping:?}");
    assert!(String::from_utf8_lossy(&ping.stdout).contains("pong"));

    // Corpus contains a rejected and an error job → exit 1, and the
    // streamed verdicts agree with `nqpv batch`.
    let submit = daemon.client(&["submit", "--priority", "3", "examples/corpus"]);
    assert_eq!(submit.status.code(), Some(1), "{submit:?}");
    let stream = String::from_utf8_lossy(&submit.stdout);
    let served = streamed_statuses(&stream);
    assert_eq!(served, batch_statuses(&bin), "daemon and batch verdicts");
    for (file, status) in CORPUS_STATUSES {
        assert_eq!(
            served.get(file).map(String::as_str),
            Some(status),
            "{file} must stream status {status}: {stream}"
        );
    }
    assert!(
        ndjson(&stream)
            .iter()
            .any(|e| e.get("event").and_then(Json::as_str) == Some("running")),
        "{stream}"
    );

    // Manifests submit as corpora (only verifying jobs listed → exit 0).
    let manifest = daemon.client(&["submit", "examples/corpus/manifest.txt"]);
    assert_eq!(manifest.status.code(), Some(0), "{manifest:?}");
    let mstream = String::from_utf8_lossy(&manifest.stdout);
    assert_eq!(streamed_statuses(&mstream).len(), 5, "{mstream}");

    let stats = daemon.client(&["stats"]);
    let stats_line = String::from_utf8_lossy(&stats.stdout).to_string();
    assert_eq!(stat_field(&stats_line, "done"), Some(13), "{stats_line}");
    assert!(
        cache_stat(&stats_line, "disk_writes").unwrap_or(0) >= 1,
        "the first daemon persists verdicts: {stats_line}"
    );
    // The daemon-wide self-time profile folds the jobs it has run.
    let profile = daemon.client(&["profile"]);
    assert_eq!(profile.status.code(), Some(0), "{profile:?}");
    let reply = ndjson(&String::from_utf8_lossy(&profile.stdout));
    assert_eq!(reply.len(), 1, "{reply:?}");
    assert_eq!(
        reply[0].get("event").and_then(Json::as_str),
        Some("profile")
    );
    assert!(
        reply[0].get("jobs").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{}",
        reply[0]
    );
    daemon.shutdown();

    // Cold restart over the same cache directory: the corpus's verdict
    // queries are answered from disk and nothing new is written.
    let restarted = ServeProc::spawn(&bin, &[], &serve_args, std::process::Stdio::inherit());
    let submit = restarted.client(&["submit", "examples/corpus"]);
    assert_eq!(submit.status.code(), Some(1), "{submit:?}");
    let stats = restarted.client(&["stats"]);
    let stats_line = String::from_utf8_lossy(&stats.stdout).to_string();
    assert!(
        cache_stat(&stats_line, "disk_hits").unwrap_or(0) >= 1,
        "the restarted daemon hits the disk store: {stats_line}"
    );
    assert_eq!(
        cache_stat(&stats_line, "disk_writes"),
        Some(0),
        "{stats_line}"
    );
    restarted.shutdown();
}

/// The integer counter `key` of the `cache` object in the first `stats`
/// reply of an NDJSON stream.
fn cache_stat(stream: &str, key: &str) -> Option<u64> {
    ndjson(stream)
        .into_iter()
        .find(|e| e.get("event").and_then(Json::as_str) == Some("stats"))?
        .get("cache")?
        .get(key)?
        .as_u64()
}

/// The integer field `key` of the first `stats` reply in an NDJSON stream.
fn stat_field(stream: &str, key: &str) -> Option<u64> {
    ndjson(stream)
        .into_iter()
        .find(|e| e.get("event").and_then(Json::as_str) == Some("stats"))?
        .get(key)?
        .as_u64()
}

/// Every line of an NDJSON stream, parsed.
fn ndjson(stream: &str) -> Vec<Json> {
    stream
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{l:?}: {e}")))
        .collect()
}

/// `name → status` of the verdict events in a client submit stream.
fn streamed_statuses(stream: &str) -> std::collections::BTreeMap<String, String> {
    ndjson(stream)
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("verdict"))
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("status"))
        })
        .collect()
}

#[test]
fn cli_serve_survives_injected_faults_with_verdicts_intact() {
    // Chaos smoke: run the daemon under the deterministic fault harness
    // (one worker panic, two dropped disk reads, one dropped disk write,
    // one dropped connection, two solver stalls — all capped so the run
    // is reproducible) and check that every corpus verdict matches a
    // fault-free `nqpv batch` of the same corpus. Faults are enabled only
    // in the serve process; batch and client subprocesses inherit a clean
    // environment.
    let Some(bin) = nqpv_bin() else { return };
    // The fault-free reference: `nqpv batch` over the same corpus.
    let fault_free = batch_statuses(&bin);
    let cache = temp_dir("chaos_cache");
    let _ = std::fs::remove_dir_all(&cache);
    let cache_str = cache.display().to_string();
    let daemon = ServeProc::spawn(
        &bin,
        &[(
            "NQPV_FAULTS",
            "42:worker_panic*1,disk_read*2,disk_write*1,conn_drop*1,solver_delay*2",
        )],
        &["--jobs", "2", "--cache-dir", cache_str.as_str()],
        std::process::Stdio::inherit(),
    );

    // The first submit-shaped request trips conn_drop: the daemon hangs
    // up before queueing anything, and the client's retry/backoff layer
    // must reconnect and resubmit transparently.
    let submit = daemon.client(&["submit", "examples/corpus"]);
    assert_eq!(submit.status.code(), Some(1), "{submit:?}");
    let stream = String::from_utf8_lossy(&submit.stdout);
    let served = streamed_statuses(&stream);
    assert_eq!(served, fault_free, "verdicts under injected faults");
    for (file, status) in CORPUS_STATUSES {
        assert_eq!(
            served.get(file).map(String::as_str),
            Some(status),
            "{file} must keep status {status} under faults: {stream}"
        );
    }

    // The harness really fired: every capped site is exercised by the
    // corpus run, so the daemon reports exactly 1+2+1+1+2 injections.
    // (`panicked` stays 0: the injected panic is retried once and the
    // retry verifies, so no job *ends* in a panic verdict.)
    let stats = daemon.client(&["stats"]);
    let stats_line = String::from_utf8_lossy(&stats.stdout).to_string();
    assert_eq!(
        stat_field(&stats_line, "faults_injected"),
        Some(7),
        "all capped faults must have fired: {stats_line}"
    );
    daemon.shutdown();
}

/// One HTTP/1.0 GET against a loopback listener; returns the body.
fn http_get_body(addr: &str, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("listener accepts");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    response
        .split_once("\r\n\r\n")
        .expect("header terminator")
        .1
        .to_string()
}

/// Every file in `dir` whose name starts with `prefix` and ends with
/// `suffix`, parsed as JSON, in name order.
fn json_files(dir: &Path, prefix: &str, suffix: &str) -> Vec<Json> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            name.starts_with(prefix) && name.ends_with(suffix)
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("readable");
            Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
        })
        .collect()
}

#[test]
fn cli_serve_observability_ties_logs_traces_and_metrics() {
    // A daemon with JSON logs and a metrics endpoint works the corpus
    // under one injected worker panic. A traced client submission must
    // yield one stitched Chrome trace per job, and the wire trace id
    // must tie together the verdict stream, the panic's log record and
    // the fetched traces.
    let Some(bin) = nqpv_bin() else { return };
    let dir = temp_dir("observability");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (traces, log) = (dir.join("traces"), dir.join("serve.log"));
    let traces_str = traces.display().to_string();
    let mut daemon = ServeProc::spawn(
        &bin,
        &[("NQPV_FAULTS", "42:worker_panic*1")],
        &[
            "--jobs",
            "2",
            "--metrics-addr",
            "127.0.0.1:0",
            "--log-level",
            "debug",
            "--log-json",
        ],
        std::fs::File::create(&log).expect("log file").into(),
    );
    let metrics_banner = daemon.banner();
    let metrics_addr = metrics_banner
        .split_once("http://")
        .and_then(|(_, rest)| rest.split_once('/'))
        .expect("metrics banner names the address")
        .0
        .to_string();

    let submit = daemon.client(&[
        "submit",
        "--trace-out",
        traces_str.as_str(),
        "examples/corpus",
    ]);
    assert_eq!(submit.status.code(), Some(1), "{submit:?}");
    let stream = String::from_utf8_lossy(&submit.stdout);

    let metrics = http_get_body(&metrics_addr, "/metrics");
    let metric = |series: &str| -> Option<f64> {
        metrics.lines().find_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            (name == series).then(|| value.parse().expect("numeric sample"))
        })
    };
    assert_eq!(metric("nqpv_jobs_panicked_total"), Some(1.0), "{metrics}");
    assert_eq!(
        metric("nqpv_faults_injected_total{site=\"worker_panic\"}"),
        Some(1.0),
        "{metrics}"
    );
    daemon.shutdown();

    // Every daemon stderr line is one JSON object with the core fields.
    let logs = ndjson(&std::fs::read_to_string(&log).expect("log written"));
    assert!(!logs.is_empty(), "daemon must log");
    for e in &logs {
        for key in ["ts_us", "level", "target", "msg"] {
            assert!(e.get(key).is_some(), "log line lacks {key}: {e}");
        }
    }
    let msgs: Vec<&str> = logs
        .iter()
        .filter_map(|e| e.get("msg").and_then(Json::as_str))
        .collect();
    assert!(msgs.contains(&"job admitted"), "admissions are logged");
    assert!(
        msgs.iter().any(|m| m.contains("panic")),
        "the injected panic is logged"
    );

    // One stitched trace per corpus job, all under one wire trace id,
    // with client (pid 1) and daemon (pid 2) halves.
    let stitched = json_files(&traces, "", ".trace.json");
    assert_eq!(stitched.len(), 8, "one trace per corpus job");
    let mut ids = std::collections::BTreeSet::new();
    for trace in &stitched {
        ids.insert(
            trace
                .get("traceId")
                .and_then(Json::as_str)
                .expect("traceId")
                .to_string(),
        );
        let pids: std::collections::BTreeSet<Option<u64>> = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents")
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("pid").and_then(Json::as_u64))
            .collect();
        assert_eq!(pids, [Some(1), Some(2)].into(), "{trace}");
    }
    assert_eq!(ids.len(), 1, "{ids:?}");
    let hex = ids.pop_first().expect("one id");

    // Every streamed verdict names that id.
    let verdicts: Vec<Json> = ndjson(&stream)
        .into_iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("verdict"))
        .collect();
    assert_eq!(verdicts.len(), 8, "{stream}");
    for v in &verdicts {
        assert_eq!(
            v.get("trace").and_then(Json::as_str),
            Some(hex.as_str()),
            "{v}"
        );
    }

    // The injected panic's log record carries the same trace id.
    let panics: Vec<&Json> = logs
        .iter()
        .filter(|e| {
            e.get("msg").and_then(Json::as_str) == Some("worker panicked; job will be retried once")
        })
        .collect();
    assert_eq!(panics.len(), 1, "one injected panic: {logs:?}");
    assert_eq!(
        panics[0].get("trace_id").and_then(Json::as_str),
        Some(hex.as_str()),
        "{}",
        panics[0]
    );
    // So does the panic hook's own record, the one naming the source
    // location of the panic.
    let hooked: Vec<&Json> = logs
        .iter()
        .filter(|e| {
            e.get("target").and_then(Json::as_str) == Some("panic")
                && e.get("location")
                    .and_then(Json::as_str)
                    .is_some_and(|l| l.contains("pool.rs"))
        })
        .collect();
    assert_eq!(hooked.len(), 1, "one hooked panic record: {logs:?}");
    assert_eq!(
        hooked[0].get("trace_id").and_then(Json::as_str),
        Some(hex.as_str()),
        "{}",
        hooked[0]
    );
}

#[test]
fn cli_serve_job_timeout_flags_runaway_jobs_and_daemon_survives() {
    // A deliberately heavy straight-line program (far slower than the
    // deadline) must come back as a TIMEOUT verdict well within 4x the
    // deadline, and the daemon must keep serving afterwards.
    let Some(bin) = nqpv_bin() else { return };
    let dir = temp_dir("timeout_heavy");
    let body = "[a] *= H; [b] *= H; ".repeat(20000);
    let heavy = dir.join("heavy.nqpv");
    std::fs::write(
        &heavy,
        format!("def pf := proof [a b c d e f] : {{ I[a] }}; {body}{{ I[a] }} end"),
    )
    .expect("heavy program written");
    let daemon = ServeProc::spawn(
        &bin,
        &[],
        &["--jobs", "1", "--job-timeout", "1"],
        std::process::Stdio::inherit(),
    );

    let heavy_path = heavy.display().to_string();
    let started = std::time::Instant::now();
    let submit = daemon.client(&["submit", heavy_path.as_str()]);
    let elapsed = started.elapsed();
    assert_eq!(submit.status.code(), Some(1), "{submit:?}");
    let stream = String::from_utf8_lossy(&submit.stdout);
    let verdicts: Vec<Json> = ndjson(&stream)
        .into_iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("verdict"))
        .collect();
    assert_eq!(verdicts.len(), 1, "{stream}");
    assert_eq!(
        verdicts[0].get("status").and_then(Json::as_str),
        Some("timeout"),
        "runaway job must time out: {stream}"
    );
    assert!(
        verdicts[0]
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("deadline exceeded")),
        "timeout verdict names the deadline: {stream}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(4),
        "timeout must fire near the deadline, took {elapsed:?}"
    );

    // The worker survived the cancelled job: a quick file still verifies.
    let quick = daemon.client(&["submit", "examples/corpus/deutsch.nqpv"]);
    assert_eq!(quick.status.code(), Some(0), "{quick:?}");
    let quick_stream = String::from_utf8_lossy(&quick.stdout);
    assert_eq!(
        streamed_statuses(&quick_stream)
            .get("deutsch")
            .map(String::as_str),
        Some("verified"),
        "{quick_stream}"
    );

    let stats = daemon.client(&["stats"]);
    let stats_line = String::from_utf8_lossy(&stats.stdout).to_string();
    assert!(
        stat_field(&stats_line, "timed_out").unwrap_or(0) >= 1,
        "{stats_line}"
    );
    daemon.shutdown();
}

#[test]
fn cli_batch_quarantines_corrupt_cache_records_and_stays_correct() {
    // A corrupt on-disk verdict record must not poison a warm restart:
    // the record is moved to verdicts/quarantine/, the obligation is
    // re-solved, and every corpus verdict matches the cold run.
    let dir = temp_dir("quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.display().to_string();
    let args = [
        "batch",
        "examples/corpus/manifest.txt",
        "--jobs",
        "2",
        "--cache-dir",
        cache.as_str(),
        "--json",
    ];
    let Some(cold) = run_nqpv(&args) else { return };
    assert_eq!(cold.status.code(), Some(0), "{cold:?}");
    let cold_json = String::from_utf8_lossy(&cold.stdout);

    // Corrupt one persisted record (skipping the quarantine directory,
    // which only exists on disk after a quarantine event).
    let verdicts = dir.join("verdicts");
    let mut corrupted = 0;
    for shard in std::fs::read_dir(&verdicts).expect("verdict store exists") {
        let shard = shard.expect("shard entry").path();
        if !shard.is_dir() || shard.file_name().is_some_and(|n| n == "quarantine") {
            continue;
        }
        if let Some(record) = std::fs::read_dir(&shard)
            .expect("shard readable")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "nqv"))
        {
            std::fs::write(&record, b"** not a verdict record **").unwrap();
            corrupted += 1;
            break;
        }
    }
    assert_eq!(corrupted, 1, "cold run must have persisted records");

    let warm = run_nqpv(&args).unwrap();
    assert_eq!(warm.status.code(), Some(0), "{warm:?}");
    let warm_json = String::from_utf8_lossy(&warm.stdout);
    assert!(
        json_counter(&warm_json, "disk_quarantined").unwrap_or(0) >= 1,
        "corrupt record must be quarantined: {warm_json}"
    );
    for file in ["deutsch", "grover_step", "err_corr"] {
        let needle = format!("\"name\": \"{file}\", ");
        let status = |json: &str| {
            json.lines()
                .find(|l| l.contains(&needle))
                .map(|l| l.contains("\"status\": \"verified\""))
        };
        assert_eq!(status(&cold_json), status(&warm_json), "{file}");
    }
    let quarantined: Vec<_> = std::fs::read_dir(verdicts.join("quarantine"))
        .expect("quarantine dir exists after the warm run")
        .filter_map(|e| e.ok())
        .collect();
    assert!(
        !quarantined.is_empty(),
        "quarantined file kept for forensics"
    );
}

#[test]
fn cli_profile_out_writes_collapsed_stacks() {
    // `batch --profile-out` folds every job's span events into one
    // collapsed-stack self-time profile (folded-flamegraph text).
    let Some(bin) = nqpv_bin() else { return };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join("nqpv_profile_out_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let batch_profile = dir.join("batch.folded");
    let out = std::process::Command::new(&bin)
        .current_dir(root)
        .args([
            "batch",
            "--jobs",
            "2",
            "--json",
            "--profile-out",
            batch_profile.to_str().unwrap(),
            "examples/corpus",
        ])
        .output()
        .expect("batch runs");
    // Corpus has rejected and error jobs → exit 1, but the profile is
    // written regardless of verdicts.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let folded = std::fs::read_to_string(&batch_profile).expect("profile written");
    let mut stacks = std::collections::HashMap::<String, u64>::new();
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("'stack count' shape");
        let count = count.parse::<u64>().expect("count is integer");
        assert!(count > 0, "{line}");
        *stacks.entry(stack.to_string()).or_default() += count;
    }
    assert!(
        stacks.len() >= 3,
        "at least three distinct stacks:\n{folded}"
    );
    assert!(
        folded.lines().any(|l| l.contains(';')),
        "nested frames appear (semicolon-joined):\n{folded}"
    );
    // Self-time partitions span durations, so the phase totals the
    // report prints bound the profile's total.
    let report = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("batch JSON parses");
    let Some(Json::Obj(phases)) = report.get("phases") else {
        panic!("phase totals object: {report}");
    };
    let phase_us = |p: &(String, Json)| p.1.get("ms").and_then(Json::as_f64).expect("ms") * 1e3;
    let phase_total: f64 = phases.iter().map(phase_us).sum();
    let total_self = stacks.values().sum::<u64>() as f64;
    assert!(
        total_self > 0.0 && total_self <= phase_total * 1.05 + 500.0,
        "self time {total_self} us vs phase totals {phase_total} us"
    );
    // Solver obligation spans are leaves, so their self-time reconciles
    // with the solver phase total within 10% (plus rounding slack).
    let solver_us = phases
        .iter()
        .find(|p| p.0 == "solver")
        .map_or(0.0, phase_us);
    let solver_self = stacks
        .iter()
        .filter(|(stack, _)| {
            stack
                .rsplit(';')
                .next()
                .is_some_and(|f| f.starts_with("solver:"))
        })
        .map(|(_, &c)| c)
        .sum::<u64>() as f64;
    assert!(
        (solver_self - solver_us).abs() <= (0.1 * solver_us).max(100.0),
        "solver self time {solver_self} us vs solver phase {solver_us} us"
    );

    // `explain --profile-out` does the same for a single diagnosed file.
    let explain_profile = dir.join("explain.folded");
    let out = std::process::Command::new(&bin)
        .current_dir(root)
        .args([
            "explain",
            "--profile-out",
            explain_profile.to_str().unwrap(),
            "examples/corpus/rejected.nqpv",
        ])
        .output()
        .expect("explain runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let folded = std::fs::read_to_string(&explain_profile).expect("profile written");
    assert!(!folded.trim().is_empty(), "explain profile non-empty");
    let _ = std::fs::remove_dir_all(&dir);
}
