//! Per-layer timing from outside the program: replays
//! `verify_proof_term` stage by stage through the crates' public
//! functions, next to an opaque call that gives the wall the stages must
//! account for.

use crate::report::Metrics;
use nqpv_core::{
    backward_with_cache, render_outline, Assertion, FailedObligation, PredicateRegistry, VcOptions,
    VerifyStatus,
};
use nqpv_lang::{parse_source, pretty_assertion, AssertionExpr, Command, Decl, ProofTerm, Stmt};
use nqpv_quantum::{OperatorLibrary, Register};
use nqpv_solver::Verdict;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Milliseconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Stage samples, one entry per job (parse) or per proof (the rest).
#[derive(Debug, Default)]
pub struct Stages {
    pub parse_ms: Vec<f64>,
    pub parsed_bytes: usize,
    pub resolve_ms: Vec<f64>,
    pub wp_ms: Vec<f64>,
    pub le_inf_ms: Vec<f64>,
    pub outline_ms: Vec<f64>,
    /// Opaque `verify_proof_term` wall of the same proofs.
    pub verify_ms: Vec<f64>,
    pub explain_ms: Vec<f64>,
}

impl Stages {
    /// Means per job / proof, and the share of the opaque wall the
    /// stages leave unexplained.
    pub fn metrics(&self, m: &mut Metrics) {
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        m.put("lang.parse_ms", mean(&self.parse_ms), "ms");
        let parse_s = sum(&self.parse_ms) / 1e3;
        m.put(
            "lang.bytes_per_s",
            if parse_s > 0.0 {
                self.parsed_bytes as f64 / parse_s
            } else {
                0.0
            },
            "B/s",
        );
        m.put("core.proofs", self.verify_ms.len() as f64, "count");
        m.put("core.resolve_ms", mean(&self.resolve_ms), "ms");
        m.put("core.wp_ms", mean(&self.wp_ms), "ms");
        m.put("core.outline_ms", mean(&self.outline_ms), "ms");
        m.put("solver.le_inf_ms", mean(&self.le_inf_ms), "ms");
        let staged =
            sum(&self.resolve_ms) + sum(&self.wp_ms) + sum(&self.le_inf_ms) + sum(&self.outline_ms);
        let wall = sum(&self.verify_ms);
        m.put(
            "core.unattributed_pct",
            if wall > 0.0 {
                100.0 * (1.0 - staged / wall)
            } else {
                0.0
            },
            "%",
        );
        m.put("diagnose.explain_ms", mean(&self.explain_ms), "ms");
        m.put("diagnose.explained", self.explain_ms.len() as f64, "count");
    }

    /// Of several replays of one proof, the one whose opaque wall is the
    /// median, so that its stages and its wall come from the same replay.
    pub fn median_of(mut reps: Vec<Stages>) -> Stages {
        let wall = |s: &Stages| s.verify_ms.first().copied().unwrap_or(f64::INFINITY);
        reps.sort_by(|a, b| wall(a).total_cmp(&wall(b)));
        let mid = reps.len() / 2;
        reps.swap_remove(mid)
    }
}

/// Replays one `.nqpv` source: parse, operator loading, then every proof
/// through [`replay_term`].
pub fn replay_source(source: &str, base_dir: &Path, opts: VcOptions, st: &mut Stages) {
    let (file, ms) = timed(|| parse_source(source));
    st.parse_ms.push(ms);
    st.parsed_bytes += source.len();
    let Ok(file) = file else { return };
    let mut lib = OperatorLibrary::with_builtins();
    for cmd in &file.commands {
        match cmd {
            Command::Def(Decl::LoadOperator { name, path }) => {
                let Ok(m) = nqpv_linalg::read_matrix(base_dir.join(path)) else {
                    return;
                };
                if lib.insert_auto(name, m).is_err() {
                    return;
                }
            }
            Command::Def(Decl::Proof { name, term }) => replay_term(name, term, &lib, opts, st),
            Command::Show(_) => {}
        }
    }
}

/// One proof: an opaque `verify_proof_term` call, then the same work as
/// separate stages — resolve (`Assertion::from_expr_with` +
/// `validate_predicates`), wp (`backward_with_cache`), `le_inf`, outline
/// (`register_named` + `render_outline`) — and `explain_term` when the
/// proof is rejected.
pub fn replay_term(
    name: &str,
    term: &ProofTerm,
    lib: &OperatorLibrary,
    opts: VcOptions,
    st: &mut Stages,
) {
    let rankings = HashMap::new();
    let (opaque, verify_ms) = timed(|| {
        nqpv_core::verify_proof_term(term, lib, opts, &rankings, &mut PredicateRegistry::new())
    });
    let Ok(opaque) = opaque else { return };

    let (resolved, resolve_ms) = timed(|| -> Option<(Register, Assertion, Option<Assertion>)> {
        let reg = Register::new(&term.qubits).ok()?;
        let resolve = |e: &AssertionExpr| {
            Assertion::from_expr_with(e, lib, &reg, opts.factor_assertions)
                .ok()
                .filter(|a| a.validate_predicates(1e-6))
        };
        let post = resolve(&term.post)?;
        let pre = match &term.pre {
            Some(e) => Some(resolve(e)?),
            None => None,
        };
        Some((reg, post, pre))
    });
    let Some((reg, post, pre)) = resolved else {
        return;
    };
    let mut registry = PredicateRegistry::new();
    let ((), register_ms) = timed(|| {
        register_expr(&term.post, lib, &reg, &mut registry);
        if let Some(e) = &term.pre {
            register_expr(e, lib, &reg, &mut registry);
        }
        register_stmt(&term.body, lib, &reg, &mut registry);
    });
    let (ann, wp_ms) =
        timed(|| backward_with_cache(&term.body, &post, lib, &reg, opts, &rankings, None));
    let Ok(ann) = ann else { return };
    let (verdict, le_inf_ms) = timed(|| pre.as_ref().map(|p| p.le_inf(&ann.pre, opts.lowner)));
    let (_, render_ms) = timed(|| {
        let pre_display = term.pre.as_ref().map(pretty_assertion);
        render_outline(
            &term.qubits,
            pre_display.as_deref(),
            &ann,
            &pretty_assertion(&term.post),
            &mut registry,
        )
    });
    st.verify_ms.push(verify_ms);
    st.resolve_ms.push(resolve_ms);
    st.wp_ms.push(wp_ms);
    st.le_inf_ms.push(le_inf_ms);
    st.outline_ms.push(register_ms + render_ms);
    if let (Some(Ok(Verdict::Violated(v))), VerifyStatus::PreconditionViolated { .. }) =
        (verdict, &opaque.status)
    {
        let violation = FailedObligation {
            vc_index: v.index,
            witness: v.witness,
            margin: v.margin,
        };
        let (_, ms) = timed(|| nqpv_diagnose::explain_term(name, term, lib, opts, &violation));
        st.explain_ms.push(ms);
    }
}

/// What the verifier does to name a source assertion in the outline:
/// embed each term's predicate and register it under its display name.
fn register_expr(
    expr: &AssertionExpr,
    lib: &OperatorLibrary,
    reg: &Register,
    registry: &mut PredicateRegistry,
) {
    for t in &expr.terms {
        let (Ok(m), Ok(pos)) = (lib.predicate(&t.op), reg.positions(&t.qubits)) else {
            continue;
        };
        if m.rows() == 1 << pos.len() {
            let embedded = nqpv_linalg::embed(&m, &pos, reg.n_qubits());
            registry.register_named(&format!("{}[{}]", t.op, t.qubits.join(" ")), &embedded);
        }
    }
}

fn register_stmt(
    stmt: &Stmt,
    lib: &OperatorLibrary,
    reg: &Register,
    registry: &mut PredicateRegistry,
) {
    match stmt {
        Stmt::Assert(a) => register_expr(a, lib, reg, registry),
        Stmt::Seq(items) => items
            .iter()
            .for_each(|s| register_stmt(s, lib, reg, registry)),
        Stmt::NDet(a, b) => {
            register_stmt(a, lib, reg, registry);
            register_stmt(b, lib, reg, registry);
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            register_stmt(then_branch, lib, reg, registry);
            register_stmt(else_branch, lib, reg, registry);
        }
        Stmt::While {
            invariant, body, ..
        } => {
            if let Some(inv) = invariant {
                register_expr(inv, lib, reg, registry);
            }
            register_stmt(body, lib, reg, registry);
        }
        _ => {}
    }
}
