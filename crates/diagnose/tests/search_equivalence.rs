//! Equivalence of the shared-prefix scheduler search with the restart
//! search it replaced.
//!
//! The reference below is a test-only copy of the earlier
//! implementation: a recursive forward executor driven by a
//! [`Scheduler`], and a depth-first search over script prefixes that
//! re-runs the whole program from the input for every prefix (so a
//! schedule with `k` trailing left choices is run `k + 1` times). It
//! meets the schedules in lexicographic order, left first. On random
//! programs (nested `#`, `if` with choices in both branches, `while` with
//! a `#` in its body, `abort`) in both modes, [`demonic_schedule`] with a
//! budget of `b` schedules must return exactly the best of the
//! reference's first `b` schedules: the same script and exhaustiveness,
//! and bitwise the same score and output state.

use nqpv_core::{Assertion, Mode};
use nqpv_diagnose::{demonic_schedule, ScriptSched};
use nqpv_lang::{parse_stmt, Stmt};
use nqpv_linalg::{conjugate_gate, CMat, CVec};
use nqpv_quantum::{ket, Measurement, OperatorLibrary, Register};
use nqpv_semantics::{Choice, ExecOptions, Scheduler};
use proptest::prelude::*;

/// The earlier `exec_one`: a recursive forward run under a scheduler.
fn ref_exec<S: Scheduler>(
    stmt: &Stmt,
    rho: CMat,
    lib: &OperatorLibrary,
    reg: &Register,
    sched: &mut S,
    counter: &mut usize,
    opts: ExecOptions,
) -> CMat {
    let n = reg.n_qubits();
    match stmt {
        Stmt::Skip | Stmt::Assert(_) => rho,
        Stmt::Abort => CMat::zeros(rho.rows(), rho.cols()),
        Stmt::Init { qubits } => {
            let pos = reg.positions(qubits).unwrap();
            let dk = 1usize << pos.len();
            let mut out = CMat::zeros(rho.rows(), rho.cols());
            let zero = CVec::basis(dk, 0);
            for i in 0..dk {
                out += &conjugate_gate(&zero.outer(&CVec::basis(dk, i)), &pos, n, &rho);
            }
            out
        }
        Stmt::Unitary { qubits, op } => {
            let u = lib.unitary(op).unwrap();
            conjugate_gate(u, &reg.positions(qubits).unwrap(), n, &rho)
        }
        Stmt::Seq(items) => {
            let mut acc = rho;
            for item in items {
                acc = ref_exec(item, acc, lib, reg, sched, counter, opts);
            }
            acc
        }
        Stmt::NDet(a, b) => {
            let k = *counter;
            *counter += 1;
            match sched.decide(k) {
                Choice::Left => ref_exec(a, rho, lib, reg, sched, counter, opts),
                Choice::Right => ref_exec(b, rho, lib, reg, sched, counter, opts),
            }
        }
        Stmt::If {
            meas,
            qubits,
            then_branch,
            else_branch,
        } => {
            let (m, pos) = meas_of(lib, reg, meas, qubits);
            let rho0 = conjugate_gate(m.projector(0), &pos, n, &rho);
            let rho1 = conjugate_gate(m.projector(1), &pos, n, &rho);
            let out0 = ref_exec(else_branch, rho0, lib, reg, sched, counter, opts);
            let out1 = ref_exec(then_branch, rho1, lib, reg, sched, counter, opts);
            out0.add_mat(&out1)
        }
        Stmt::While {
            meas, qubits, body, ..
        } => {
            let (m, pos) = meas_of(lib, reg, meas, qubits);
            let mut exited = CMat::zeros(rho.rows(), rho.cols());
            let mut circulating = rho;
            for _ in 0..opts.fuel {
                exited += &conjugate_gate(m.projector(0), &pos, n, &circulating);
                let cont = conjugate_gate(m.projector(1), &pos, n, &circulating);
                if cont.trace_re() < opts.mass_cutoff {
                    return exited;
                }
                circulating = ref_exec(body, cont, lib, reg, sched, counter, opts);
            }
            exited += &conjugate_gate(m.projector(0), &pos, n, &circulating);
            exited
        }
    }
}

fn meas_of(
    lib: &OperatorLibrary,
    reg: &Register,
    meas: &str,
    qubits: &[String],
) -> (Measurement, Vec<usize>) {
    (
        lib.measurement(meas).unwrap().clone(),
        reg.positions(qubits).unwrap(),
    )
}

/// One schedule as the reference met it.
struct Leaf {
    bits: Vec<bool>,
    score: f64,
    sigma: CMat,
}

/// The earlier restart search, run to completion, listing each schedule
/// the first time a run realises it (in the order the runs meet them).
#[allow(clippy::too_many_arguments)]
fn ref_leaves(
    stmt: &Stmt,
    rho: &CMat,
    post: &Assertion,
    lib: &OperatorLibrary,
    reg: &Register,
    mode: Mode,
    exec: ExecOptions,
) -> Vec<Leaf> {
    let mut leaves: Vec<Leaf> = Vec::new();
    let mut stack: Vec<Vec<bool>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        let mut sched = ScriptSched::new(prefix.clone());
        let sigma = ref_exec(stmt, rho.clone(), lib, reg, &mut sched, &mut 0, exec);
        let slack = match mode {
            Mode::Partial => (rho.trace_re() - sigma.trace_re()).max(0.0),
            Mode::Total => 0.0,
        };
        let score = post.expectation(&sigma) + slack;
        let used = sched.used;
        let mut realised = prefix.clone();
        realised.resize(used, false);
        if leaves.last().is_none_or(|l| l.bits != realised) {
            leaves.push(Leaf {
                bits: realised,
                score,
                sigma,
            });
        }
        if used > prefix.len() {
            let mut right = prefix.clone();
            right.push(true);
            stack.push(right);
            let mut left = prefix;
            left.push(false);
            stack.push(left);
        }
    }
    leaves
}

/// Builds a random statement from `genes`, at most `depth` levels deep.
fn build(genes: &mut impl Iterator<Item = usize>, depth: usize) -> String {
    const LEAVES: [&str; 8] = [
        "skip",
        "[q1] *= X",
        "[q2] *= H",
        "[q1] *= H",
        "[q1 q2] *= CX",
        "abort",
        "[q2] := 0",
        "[q1] *= S",
    ];
    let g = genes.next().unwrap_or(0);
    if depth == 0 {
        return LEAVES[g % LEAVES.len()].to_string();
    }
    let mut sub = || build(genes, depth - 1);
    match g % 6 {
        0 => LEAVES[(g / 6) % LEAVES.len()].to_string(),
        1 => format!("( {} # {} )", sub(), sub()),
        2 => format!("if M01[q1] then {} else {} end", sub(), sub()),
        3 => format!("while M01[q2] do ( {} # {} ) end", sub(), sub()),
        4 => format!("{}; {}", sub(), sub()),
        _ => format!("( {} # {} ); {}", sub(), sub(), sub()),
    }
}

fn input_state(k: usize) -> CMat {
    match k % 4 {
        0 => ket("00").projector(),
        1 => ket("+1").projector(),
        2 => ket("1+").projector(),
        _ => ket("01")
            .projector()
            .scale_re(0.25)
            .add_mat(&ket("-+").projector().scale_re(0.75)),
    }
}

fn postcondition(k: usize) -> Assertion {
    let ops = match k % 3 {
        0 => vec![ket("00").projector().add_mat(&ket("01").projector())],
        1 => vec![ket("+0").projector(), ket("11").projector()],
        _ => vec![CMat::identity(4).scale_re(0.5)],
    };
    Assertion::from_ops(4, ops).unwrap()
}

fn same_bits(a: &CMat, b: &CMat) -> bool {
    a.rows() == b.rows()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shared_prefix_search_matches_the_restart_search(
        genes in proptest::collection::vec(0usize..1000, 4..24),
        state in 0usize..4,
        post_kind in 0usize..3,
        total in 0usize..2,
    ) {
        let src = build(&mut genes.iter().copied(), 3);
        let stmt = parse_stmt(&src).unwrap();
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q1", "q2"]).unwrap();
        let rho = input_state(state);
        let post = postcondition(post_kind);
        let mode = if total == 1 { Mode::Total } else { Mode::Partial };
        let exec = ExecOptions { fuel: 3, ..ExecOptions::default() };
        let leaves = ref_leaves(&stmt, &rho, &post, &lib, &reg, mode, exec);
        prop_assume!(leaves.len() <= 512);
        // Schedules are met in lexicographic order, left first.
        prop_assert!(leaves.windows(2).all(|w| w[0].bits < w[1].bits), "{}", src);
        for budget in [1, 2, 3, 7, leaves.len(), 4096] {
            let got = demonic_schedule(&stmt, &rho, &post, &lib, &reg, mode, exec, budget)
                .unwrap();
            let scored = &leaves[..budget.min(leaves.len())];
            let mut best = &scored[0];
            for leaf in scored {
                if leaf.score < best.score {
                    best = leaf;
                }
            }
            prop_assert_eq!(&got.bits, &best.bits, "{} (budget {})", src, budget);
            prop_assert_eq!(got.exhaustive, budget >= leaves.len(), "{}", src);
            prop_assert_eq!(got.runs, scored.len(), "{}", src);
            prop_assert_eq!(got.score.to_bits(), best.score.to_bits(), "{}", src);
            prop_assert!(same_bits(&got.sigma, &best.sigma), "{} (budget {})", src, budget);
        }
    }
}
