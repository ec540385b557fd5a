//! Forward (operational) execution of programs on density operators.
//!
//! Complements the denotational view: `exec_all` computes the output *set*
//! `[[S]](ρ)` directly on states, `exec_scheduled` runs one scheduler and
//! `exec_branching` runs every schedule an explorer asks for, sharing
//! their prefixes.
//! Forward execution is exact for loop-free programs and fuel-bounded for
//! loops (dropping the not-yet-exited mass, a trace-nonincreasing
//! under-approximation, consistent with `F_n^η ⪯ [[while]]`).

use crate::error::SemanticsError;
use crate::scheduler::{Choice, Scheduler};
use nqpv_lang::Stmt;
use nqpv_linalg::CMat;
use nqpv_quantum::{Measurement, OperatorLibrary, Register};
use std::collections::HashSet;
use std::rc::Rc;

/// Options for set-valued forward execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Maximum loop iterations to execute.
    pub fuel: usize,
    /// Bound on the state-set size.
    pub max_set: usize,
    /// States with trace below this are treated as terminated branches.
    pub mass_cutoff: f64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            fuel: 64,
            max_set: 4096,
            mass_cutoff: 1e-12,
        }
    }
}

/// Computes the set of possible output states `[[S]](ρ)` by structural
/// recursion on the program (deduplicated).
///
/// # Errors
///
/// Returns [`SemanticsError`] on resolution failures or set blow-up.
///
/// # Examples
///
/// ```
/// use nqpv_lang::parse_stmt;
/// use nqpv_quantum::{ket, OperatorLibrary, Register};
/// use nqpv_semantics::{exec_all, ExecOptions};
///
/// let s = parse_stmt("( skip # [q] *= X )").unwrap();
/// let outs = exec_all(
///     &s,
///     &ket("0").projector(),
///     &OperatorLibrary::with_builtins(),
///     &Register::new(&["q"]).unwrap(),
///     ExecOptions::default(),
/// )?;
/// assert_eq!(outs.len(), 2); // {|0⟩⟨0|, |1⟩⟨1|}
/// # Ok::<(), nqpv_semantics::SemanticsError>(())
/// ```
pub fn exec_all(
    stmt: &Stmt,
    rho: &CMat,
    lib: &OperatorLibrary,
    reg: &Register,
    opts: ExecOptions,
) -> Result<Vec<CMat>, SemanticsError> {
    let ctx = FCtx { lib, reg, opts };
    let out = ctx.go(stmt, rho.clone())?;
    dedupe_states(out, opts.max_set)
}

/// Runs the program once under an explicit scheduler, returning the single
/// output state. Loops run for at most `opts.fuel` iterations; remaining
/// mass is dropped.
///
/// This is the one-branch case of [`exec_branching`]: the `k`-th `□`
/// met on the way asks `sched.decide(k)`.
///
/// # Errors
///
/// Returns [`SemanticsError`] on resolution failures.
pub fn exec_scheduled<S: Scheduler>(
    stmt: &Stmt,
    rho: &CMat,
    lib: &OperatorLibrary,
    reg: &Register,
    sched: &mut S,
    opts: ExecOptions,
) -> Result<CMat, SemanticsError> {
    struct OneBranch<'a, S> {
        sched: &'a mut S,
        out: Option<CMat>,
    }
    impl<S: Scheduler> Explorer for OneBranch<'_, S> {
        fn fork(&mut self, path: &[bool]) -> Fork {
            match self.sched.decide(path.len()) {
                Choice::Left => Fork::Left,
                Choice::Right => Fork::Right,
            }
        }
        fn leaf(&mut self, _path: &[bool], sigma: CMat) -> bool {
            self.out = Some(sigma);
            true
        }
    }
    let mut one = OneBranch { sched, out: None };
    exec_branching(stmt, rho, lib, reg, &mut one, opts)?;
    Ok(one
        .out
        .expect("a one-branch execution reaches exactly one leaf"))
}

/// How [`exec_branching`] continues at one `□`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fork {
    /// Run the left operand only.
    Left,
    /// Run the right operand only.
    Right,
    /// Run the left operand now and the right one after every schedule
    /// through the left has been visited.
    Both,
}

/// Drives [`exec_branching`]: resolves each `□` and receives the output
/// state of each complete schedule. A schedule is written as its path,
/// one bit per `□` met, in execution order (`true` = right operand).
pub trait Explorer {
    /// Resolves the `□` met after the choices in `path`.
    fn fork(&mut self, path: &[bool]) -> Fork;
    /// Receives the output state of the schedule `path`. Returning
    /// `false` stops the execution.
    fn leaf(&mut self, path: &[bool], sigma: CMat) -> bool;
}

/// Runs the program under every schedule `explorer` forks into, depth
/// first with the left operand first, so schedules reach
/// [`Explorer::leaf`] in lexicographic order (left before right).
///
/// The schedules share their prefixes: a fork copies the state once and
/// runs the statements before it once, where a restart per schedule would
/// re-run them from the input. Only the current path is kept — for each
/// fork on it whose right operand is still to run, that operand's input
/// state — never the visited leaves. Loops run for at most `opts.fuel`
/// iterations; mass still circulating then is dropped.
///
/// Returns `true` when every schedule was visited, `false` when `leaf`
/// stopped the execution with some still unvisited.
///
/// # Errors
///
/// Returns [`SemanticsError`] on resolution failures.
pub fn exec_branching<E: Explorer>(
    stmt: &Stmt,
    rho: &CMat,
    lib: &OperatorLibrary,
    reg: &Register,
    explorer: &mut E,
    opts: ExecOptions,
) -> Result<bool, SemanticsError> {
    let n = reg.n_qubits();
    let mut path = Vec::new();
    // The untried right operands on the current path: the path length
    // at the fork, the operand, its input state and its continuation.
    let mut pending: Vec<(usize, &Stmt, CMat, Rc<Kont>)> = Vec::new();
    let mut k = Rc::new(Kont::Done);
    let mut step = Step::Exec(stmt, rho.clone());
    loop {
        step = match step {
            Step::Exec(stmt, rho) => match stmt {
                Stmt::Skip | Stmt::Assert(_) => Step::Ret(rho),
                Stmt::Abort => Step::Ret(CMat::zeros(rho.rows(), rho.cols())),
                Stmt::Init { qubits } => {
                    let pos = reg.positions(qubits)?;
                    Step::Ret(apply_init(&rho, &pos, n))
                }
                Stmt::Unitary { qubits, op } => {
                    let u = lib.unitary(op)?;
                    let pos = reg.positions(qubits)?;
                    check_arity(op, u.rows(), pos.len())?;
                    Step::Ret(u.conjugate_state(&pos, n, &rho))
                }
                Stmt::Seq(items) => seq(items, rho, &mut k),
                Stmt::NDet(a, b) => match explorer.fork(&path) {
                    Fork::Left => {
                        path.push(false);
                        Step::Exec(a, rho)
                    }
                    Fork::Right => {
                        path.push(true);
                        Step::Exec(b, rho)
                    }
                    Fork::Both => {
                        pending.push((path.len(), b, rho.clone(), k.clone()));
                        path.push(false);
                        Step::Exec(a, rho)
                    }
                },
                Stmt::If {
                    meas,
                    qubits,
                    then_branch,
                    else_branch,
                } => {
                    let (m, pos) = resolve_meas(lib, reg, meas, qubits)?;
                    let rho0 = collapse(&m, 0, &rho, &pos, n);
                    let rho1 = collapse(&m, 1, &rho, &pos, n);
                    k = Rc::new(Kont::Then {
                        then_branch,
                        rho1,
                        next: k,
                    });
                    Step::Exec(else_branch, rho0)
                }
                Stmt::While {
                    meas, qubits, body, ..
                } => {
                    let (m, pos) = resolve_meas(lib, reg, meas, qubits)?;
                    let exited = CMat::zeros(rho.rows(), rho.cols());
                    let lp = Rc::new(Loop { m, pos, body });
                    loop_step(lp, exited, rho, 0, &mut k, n, opts)
                }
            },
            Step::Ret(sigma) => {
                if let Kont::Done = *k {
                    if !explorer.leaf(&path, sigma) {
                        return Ok(pending.is_empty());
                    }
                    let Some((depth, b, rho, next)) = pending.pop() else {
                        return Ok(true);
                    };
                    path.truncate(depth);
                    path.push(true);
                    k = next;
                    Step::Exec(b, rho)
                } else {
                    // Another branch still sharing the frame keeps its own
                    // copy; the last one to leave takes it.
                    let frame = Rc::try_unwrap(k).unwrap_or_else(|shared| (*shared).clone());
                    match frame {
                        Kont::Done => unreachable!("handled above"),
                        Kont::Seq(rest, next) => {
                            k = next;
                            seq(rest, sigma, &mut k)
                        }
                        Kont::Then {
                            then_branch,
                            rho1,
                            next,
                        } => {
                            k = Rc::new(Kont::Join { out0: sigma, next });
                            Step::Exec(then_branch, rho1)
                        }
                        Kont::Join { out0, next } => {
                            k = next;
                            Step::Ret(out0.add_mat(&sigma))
                        }
                        Kont::Loop {
                            lp,
                            exited,
                            iter,
                            next,
                        } => {
                            k = next;
                            loop_step(lp, exited, sigma, iter, &mut k, n, opts)
                        }
                    }
                }
            }
        };
    }
}

/// The next move of [`exec_branching`]'s machine.
enum Step<'s> {
    /// Execute a statement on a state.
    Exec(&'s Stmt, CMat),
    /// Hand a statement's output state to the continuation.
    Ret(CMat),
}

/// What is left to do once the current statement returns its state. A
/// frame is shared by every branch forked beneath it.
#[derive(Clone)]
enum Kont<'s> {
    /// The program is done: the state is a schedule's output.
    Done,
    /// The rest of a sequence.
    Seq(&'s [Stmt], Rc<Kont<'s>>),
    /// The `else` branch returned: run the `then` branch on `rho1`.
    Then {
        then_branch: &'s Stmt,
        rho1: CMat,
        next: Rc<Kont<'s>>,
    },
    /// Both branches returned: add the `else` output.
    Join { out0: CMat, next: Rc<Kont<'s>> },
    /// One loop iteration returned; `iter` iterations have run.
    Loop {
        lp: Rc<Loop<'s>>,
        exited: CMat,
        iter: usize,
        next: Rc<Kont<'s>>,
    },
}

/// A resolved `while` statement.
struct Loop<'s> {
    m: Measurement,
    pos: Vec<usize>,
    body: &'s Stmt,
}

/// Starts the statements `items` on `rho`.
fn seq<'s>(items: &'s [Stmt], rho: CMat, k: &mut Rc<Kont<'s>>) -> Step<'s> {
    match items {
        [] => Step::Ret(rho),
        [only] => Step::Exec(only, rho),
        [first, rest @ ..] => {
            *k = Rc::new(Kont::Seq(rest, k.clone()));
            Step::Exec(first, rho)
        }
    }
}

/// One loop test on `circulating` after `iter` iterations: the exit mass
/// joins `exited`; the rest runs the body again, unless it is negligible
/// or the fuel is spent, in which case it is dropped.
fn loop_step<'s>(
    lp: Rc<Loop<'s>>,
    mut exited: CMat,
    circulating: CMat,
    iter: usize,
    k: &mut Rc<Kont<'s>>,
    n: usize,
    opts: ExecOptions,
) -> Step<'s> {
    exited += &collapse(&lp.m, 0, &circulating, &lp.pos, n);
    if iter == opts.fuel {
        return Step::Ret(exited);
    }
    let cont = collapse(&lp.m, 1, &circulating, &lp.pos, n);
    if cont.trace_re() < opts.mass_cutoff {
        return Step::Ret(exited);
    }
    let body = lp.body;
    *k = Rc::new(Kont::Loop {
        lp,
        exited,
        iter: iter + 1,
        next: k.clone(),
    });
    Step::Exec(body, cont)
}

struct FCtx<'a> {
    lib: &'a OperatorLibrary,
    reg: &'a Register,
    opts: ExecOptions,
}

impl FCtx<'_> {
    fn go(&self, stmt: &Stmt, rho: CMat) -> Result<Vec<CMat>, SemanticsError> {
        let n = self.reg.n_qubits();
        match stmt {
            Stmt::Skip | Stmt::Assert(_) => Ok(vec![rho]),
            Stmt::Abort => Ok(vec![CMat::zeros(rho.rows(), rho.cols())]),
            Stmt::Init { qubits } => {
                let pos = self.reg.positions(qubits)?;
                Ok(vec![apply_init(&rho, &pos, n)])
            }
            Stmt::Unitary { qubits, op } => {
                let u = self.lib.unitary(op)?;
                let pos = self.reg.positions(qubits)?;
                check_arity(op, u.rows(), pos.len())?;
                Ok(vec![u.conjugate_state(&pos, n, &rho)])
            }
            Stmt::Seq(items) => {
                let mut acc = vec![rho];
                for item in items {
                    let mut next = Vec::new();
                    for s in acc {
                        next.extend(self.go(item, s)?);
                    }
                    acc = dedupe_states(next, self.opts.max_set)?;
                }
                Ok(acc)
            }
            Stmt::NDet(a, b) => {
                let mut out = self.go(a, rho.clone())?;
                out.extend(self.go(b, rho)?);
                dedupe_states(out, self.opts.max_set)
            }
            Stmt::If {
                meas,
                qubits,
                then_branch,
                else_branch,
            } => {
                let (m, pos) = resolve_meas(self.lib, self.reg, meas, qubits)?;
                let rho0 = collapse(&m, 0, &rho, &pos, n);
                let rho1 = collapse(&m, 1, &rho, &pos, n);
                let outs0 = self.go(else_branch, rho0)?;
                let outs1 = self.go(then_branch, rho1)?;
                let mut out = Vec::with_capacity(outs0.len() * outs1.len());
                for a in &outs0 {
                    for b in &outs1 {
                        out.push(a.add_mat(b));
                    }
                }
                dedupe_states(out, self.opts.max_set)
            }
            Stmt::While {
                meas, qubits, body, ..
            } => {
                let (m, pos) = resolve_meas(self.lib, self.reg, meas, qubits)?;
                self.while_go(&m, &pos, body, rho, self.opts.fuel)
            }
        }
    }

    fn while_go(
        &self,
        m: &Measurement,
        pos: &[usize],
        body: &Stmt,
        rho: CMat,
        fuel: usize,
    ) -> Result<Vec<CMat>, SemanticsError> {
        let n = self.reg.n_qubits();
        let exit = collapse(m, 0, &rho, pos, n);
        let cont = collapse(m, 1, &rho, pos, n);
        if fuel == 0 || cont.trace_re() < self.opts.mass_cutoff {
            return Ok(vec![exit]);
        }
        let mut out = Vec::new();
        for s in self.go(body, cont)? {
            for tail in self.while_go(m, pos, body, s, fuel - 1)? {
                out.push(exit.add_mat(&tail));
            }
        }
        dedupe_states(out, self.opts.max_set)
    }
}

fn resolve_meas(
    lib: &OperatorLibrary,
    reg: &Register,
    meas: &str,
    qubits: &[String],
) -> Result<(Measurement, Vec<usize>), SemanticsError> {
    let m = lib.measurement(meas)?.clone();
    let pos = reg.positions(qubits)?;
    if m.n_qubits() != pos.len() {
        return Err(SemanticsError::ArityMismatch {
            op: meas.to_string(),
            expected: m.n_qubits(),
            got: pos.len(),
        });
    }
    Ok((m, pos))
}

fn check_arity(op: &str, rows: usize, qubits: usize) -> Result<(), SemanticsError> {
    let k = rows.trailing_zeros() as usize;
    if 1usize << qubits != rows {
        return Err(SemanticsError::ArityMismatch {
            op: op.to_string(),
            expected: k,
            got: qubits,
        });
    }
    Ok(())
}

fn collapse(m: &Measurement, outcome: usize, rho: &CMat, pos: &[usize], n: usize) -> CMat {
    // P·ρ·P via the strided kernel (projectors are hermitian), without
    // materialising the 2ⁿ-dimensional embedding.
    nqpv_linalg::conjugate_gate(m.projector(outcome), pos, n, rho)
}

fn apply_init(rho: &CMat, pos: &[usize], n: usize) -> CMat {
    // Set0(ρ) = Σᵢ |0⟩⟨i| ρ |i⟩⟨0| on the sub-register, each branch run
    // as a strided local conjugation.
    let k = pos.len();
    let dk = 1usize << k;
    let mut out = CMat::zeros(rho.rows(), rho.cols());
    let zero_base = nqpv_linalg::CVec::basis(dk, 0);
    for i in 0..dk {
        let ei = zero_base.outer(&nqpv_linalg::CVec::basis(dk, i));
        out += &nqpv_linalg::conjugate_gate(&ei, pos, n, rho);
    }
    out
}

fn dedupe_states(states: Vec<CMat>, max_set: usize) -> Result<Vec<CMat>, SemanticsError> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for s in states {
        if seen.insert(s.fingerprint(1e7)) {
            out.push(s);
        }
    }
    if out.len() > max_set {
        return Err(SemanticsError::SetBlowup { limit: max_set });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denote::{apply_set, denote};
    use crate::scheduler::{AlwaysLeft, AlwaysRight, FromBits};
    use nqpv_lang::parse_stmt;
    use nqpv_quantum::ket;

    fn setup(names: &[&str]) -> (OperatorLibrary, Register) {
        (
            OperatorLibrary::with_builtins(),
            Register::new(names).unwrap(),
        )
    }

    #[test]
    fn forward_agrees_with_denotational_on_loopfree_programs() {
        let (lib, reg) = setup(&["q1", "q2"]);
        let progs = [
            "skip",
            "[q1] := 0",
            "[q1 q2] *= CX",
            "( skip # [q1] *= X )",
            "if M01[q1] then [q2] *= X else skip end",
            "( [q1] *= H # [q1] *= Z ); if M01[q1] then skip else abort end",
        ];
        let rho = ket("+1").projector();
        for src in progs {
            let s = parse_stmt(src).unwrap();
            let via_denote = {
                let set = denote(&s, &lib, &reg).unwrap();
                apply_set(&set, &rho)
            };
            let via_exec = exec_all(&s, &rho, &lib, &reg, ExecOptions::default()).unwrap();
            assert_eq!(via_denote.len(), via_exec.len(), "{src}");
            for a in &via_denote {
                assert!(
                    via_exec.iter().any(|b| b.approx_eq(a, 1e-8)),
                    "{src}: state missing in forward output"
                );
            }
        }
    }

    #[test]
    fn scheduled_execution_selects_branches() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("( skip # [q] *= X )").unwrap();
        let rho = ket("0").projector();
        let left = exec_scheduled(
            &s,
            &rho,
            &lib,
            &reg,
            &mut AlwaysLeft,
            ExecOptions::default(),
        )
        .unwrap();
        assert!(left.approx_eq(&rho, 1e-10));
        let right = exec_scheduled(
            &s,
            &rho,
            &lib,
            &reg,
            &mut AlwaysRight,
            ExecOptions::default(),
        )
        .unwrap();
        assert!(right.approx_eq(&ket("1").projector(), 1e-10));
    }

    /// Records every schedule an always-forking execution visits.
    struct Leaves {
        stop_after: usize,
        seen: Vec<(Vec<bool>, CMat)>,
    }

    impl Explorer for Leaves {
        fn fork(&mut self, _path: &[bool]) -> Fork {
            Fork::Both
        }
        fn leaf(&mut self, path: &[bool], sigma: CMat) -> bool {
            self.seen.push((path.to_vec(), sigma));
            self.seen.len() < self.stop_after
        }
    }

    #[test]
    fn branching_execution_visits_every_schedule_left_first() {
        let (lib, reg) = setup(&["q1", "q2"]);
        // Choices nested in a choice and in both branches of an `if`.
        let s = parse_stmt(
            "( skip # ( [q1] *= H # [q2] *= X ) ); \
             if M01[q1] then ( skip # [q2] *= H ) else ( [q2] *= X # abort ) end",
        )
        .unwrap();
        let rho = ket("+0").projector();
        let mut all = Leaves {
            stop_after: usize::MAX,
            seen: Vec::new(),
        };
        assert!(exec_branching(&s, &rho, &lib, &reg, &mut all, ExecOptions::default()).unwrap());
        // 3 ways through the first choice, then 2 × 2 through the `if`.
        assert_eq!(all.seen.len(), 12);
        assert!(all.seen.windows(2).all(|w| w[0].0 < w[1].0));
        for (path, sigma) in &all.seen {
            let mut sched = FromBits::new(path.clone());
            let one =
                exec_scheduled(&s, &rho, &lib, &reg, &mut sched, ExecOptions::default()).unwrap();
            assert_eq!(one.as_slice(), sigma.as_slice(), "{path:?}");
        }
        // The same outputs as the set-valued semantics.
        let set = exec_all(&s, &rho, &lib, &reg, ExecOptions::default()).unwrap();
        for out in &set {
            assert!(all.seen.iter().any(|(_, s)| s.approx_eq(out, 1e-12)));
        }
        // Stopping early reports the unvisited schedules.
        let mut two = Leaves {
            stop_after: 2,
            seen: Vec::new(),
        };
        assert!(!exec_branching(&s, &rho, &lib, &reg, &mut two, ExecOptions::default()).unwrap());
        assert_eq!(two.seen.len(), 2);
        assert_eq!(two.seen[1].0, all.seen[1].0);
        let mut last = Leaves {
            stop_after: 12,
            seen: Vec::new(),
        };
        assert!(exec_branching(&s, &rho, &lib, &reg, &mut last, ExecOptions::default()).unwrap());
    }

    #[test]
    fn qwalk_never_terminates_under_sampled_schedulers() {
        // Empirical check of the paper's Sec. 5.3 theorem: output trace is 0
        // under every scheduler we try.
        let (lib, reg) = setup(&["q1", "q2"]);
        let s = parse_stmt(
            "[q1 q2] := 0; while MQWalk[q1 q2] do \
             ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end",
        )
        .unwrap();
        let rho = ket("11").projector(); // arbitrary input; init resets it
        let opts = ExecOptions {
            fuel: 40,
            ..ExecOptions::default()
        };
        for seed in 1..12u64 {
            let mut sched = FromBits::pseudo_random(seed, 64);
            let out = exec_scheduled(&s, &rho, &lib, &reg, &mut sched, opts).unwrap();
            assert!(
                out.trace_re() < 1e-9,
                "scheduler {seed} terminated with mass {}",
                out.trace_re()
            );
        }
    }

    #[test]
    fn terminating_loop_accumulates_exit_mass() {
        let (lib, reg) = setup(&["q"]);
        // while continue-on-1 do H: from |+⟩, terminates with probability 1.
        let s = parse_stmt("while M01[q] do [q] *= H end").unwrap();
        let rho = ket("+").projector();
        let opts = ExecOptions {
            fuel: 200,
            ..ExecOptions::default()
        };
        let outs = exec_all(&s, &rho, &lib, &reg, opts).unwrap();
        assert_eq!(outs.len(), 1);
        assert!((outs[0].trace_re() - 1.0).abs() < 1e-9);
        // Output should be supported on |0⟩⟨0| (exit state).
        assert!(outs[0].approx_eq(&ket("0").projector(), 1e-9));
    }

    #[test]
    fn nondet_inside_loop_produces_multiple_outcomes() {
        let (lib, reg) = setup(&["q"]);
        // body flips or dephases; outcomes depend on the scheduler.
        let s = parse_stmt("while M01[q] do ( [q] *= X # [q] *= H ) end").unwrap();
        let rho = ket("1").projector();
        let opts = ExecOptions {
            fuel: 8,
            max_set: 1000,
            mass_cutoff: 1e-12,
        };
        let outs = exec_all(&s, &rho, &lib, &reg, opts).unwrap();
        assert!(outs.len() > 1);
        for o in &outs {
            assert!(o.trace_re() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn abort_kills_mass() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("if M01[q] then abort else skip end").unwrap();
        let rho = ket("+").projector();
        let outs = exec_all(&s, &rho, &lib, &reg, ExecOptions::default()).unwrap();
        assert_eq!(outs.len(), 1);
        assert!((outs[0].trace_re() - 0.5).abs() < 1e-10);
    }
}
