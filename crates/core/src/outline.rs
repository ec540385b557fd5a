//! Proof-outline rendering and the predicate name registry.
//!
//! NQPV annotates "every sub-program statement … with the corresponding
//! pre- and postconditions", naming freshly computed predicates `VAR0`,
//! `VAR1`, … (paper Sec. 6.2); `show NAME end` then prints the matrix.
//! [`PredicateRegistry`] owns the fingerprint→name map and the matrices;
//! [`render_outline`] produces the annotated listing, and [`render_proof`]
//! names and renders one verified proof the way `show` prints it.
//! Verification itself never names a predicate: only callers that show
//! an outline pay for it.

use crate::assertion::{Assertion, Predicate};
use crate::transformer::{Annotated, AnnotatedNode};
use crate::verifier::{VerifyOutcome, VerifyStatus};
use nqpv_lang::{pretty_assertion, AssertionExpr, ProofTerm, Stmt};
use nqpv_linalg::{CMat, Complex};
use nqpv_quantum::{OperatorLibrary, Register};
use nqpv_telemetry::{Phase, Tracer};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

/// Fingerprint quantisation used for name lookup.
const FP_SCALE: f64 = 1e8;

/// Probe agreement slack per unit dimension. Operators whose dense
/// fingerprints collide at [`FP_SCALE`] differ by `< 10⁻⁸` per entry, so
/// their probe images differ by at most `dim·10⁻⁸` per component (probe
/// entries lie in `[-1, 1]²`); the screen uses 10× that, so it can never
/// separate two operators the dense fingerprint would identify.
const PROBE_TOL_PER_DIM: f64 = 1e-7;

/// One first-sighted operator: the match-screen data plus the predicate
/// itself, so a true cross-representation match can still be decided by
/// dense fingerprint — but only then.
#[derive(Debug, Clone)]
struct Sighting {
    trace: f64,
    probe: Vec<Complex>,
    pred: Arc<Predicate>,
    name: String,
    /// Whether `pred`'s dense fingerprint has been indexed in `names`.
    dense_indexed: bool,
}

/// Maps predicate matrices to display names and back.
///
/// Naming is keyed on quantised fingerprints. Dense matrices hash their
/// entries; factored predicates hash their `2ⁿ×r` factor
/// ([`Predicate::fingerprint`]), so the repeat queries an outline walk
/// issues at every node cost `O(2ⁿ·r)` and never materialise the dense
/// operator. Matching a factored predicate against operators known only
/// densely (user registrations, dense sightings) would need the dense
/// fingerprint — an `O(4ⁿ·r)` materialisation per fresh predicate, which
/// dominated large verifications. Instead every sighting records its
/// trace and its image `M·z` of a fixed pseudo-random **probe vector**
/// (`O(2ⁿ·r)` for factored predicates, and — unlike any spectral
/// invariant — sensitive to the eigenbasis rotations a unitary wp pass
/// produces). A fresh predicate densifies only when some prior sighting
/// agrees on both, i.e. only when a genuine cross-representation match is
/// on the table; the dense fingerprint then settles it exactly as before.
#[derive(Debug, Clone, Default)]
pub struct PredicateRegistry {
    /// Fingerprint (dense, or a factored predicate's native) → name.
    names: HashMap<u64, String>,
    /// Display/bare name → predicate, for `show` (densified on demand).
    matrices: HashMap<String, Arc<Predicate>>,
    /// Every first-sighted operator, with its match-screen data.
    sightings: Vec<Sighting>,
    next_var: usize,
}

/// The fixed probe vector for dimension `dim`: splitmix64-derived entries
/// in `[-1, 1]²`, identical across runs.
fn probe_vector(dim: usize) -> Vec<Complex> {
    (0..dim)
        .map(|i| {
            let mix = |salt: u64| {
                let mut z = (i as u64)
                    .wrapping_add(salt)
                    .wrapping_add(0x9e3779b97f4a7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            };
            Complex {
                re: mix(0),
                im: mix(0x5851f42d4c957f2d),
            }
        })
        .collect()
}

/// `M·z` for the fixed probe `z`: `O(4ⁿ)` dense, `O(2ⁿ·r)` factored
/// (`V·(V†z)`).
fn probe_image(p: &Predicate) -> Vec<Complex> {
    let z = probe_vector(p.dim());
    match p {
        Predicate::Dense(_) | Predicate::Diagonal(_) => (0..p.rows())
            .map(|i| {
                p.row(i)
                    .iter()
                    .zip(&z)
                    .fold(Complex::ZERO, |acc, (a, b)| acc + *a * *b)
            })
            .collect(),
        Predicate::Factored(f) => {
            let v = f.v();
            let r = v.cols();
            // w = V†z
            let mut w = vec![Complex::ZERO; r];
            for (i, zi) in z.iter().enumerate() {
                for (k, wk) in w.iter_mut().enumerate() {
                    *wk += v[(i, k)].conj() * *zi;
                }
            }
            // y = V·w
            (0..v.rows())
                .map(|i| {
                    w.iter()
                        .enumerate()
                        .fold(Complex::ZERO, |acc, (k, wk)| acc + v[(i, k)] * *wk)
                })
                .collect()
        }
    }
}

/// Whether two (trace, probe) screens are compatible, i.e. the operators
/// *could* share a dense fingerprint. `false` is a proof they do not.
fn screens_match(ta: f64, pa: &[Complex], tb: f64, pb: &[Complex]) -> bool {
    if pa.len() != pb.len() {
        return false;
    }
    let tol = PROBE_TOL_PER_DIM * pa.len().max(1) as f64;
    (ta - tb).abs() <= tol
        && pa
            .iter()
            .zip(pb)
            .all(|(x, y)| (x.re - y.re).abs() <= tol && (x.im - y.im).abs() <= tol)
}

impl PredicateRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PredicateRegistry::default()
    }

    /// Registers a matrix under a user-facing display name (e.g.
    /// `invN[q1 q2]`); also indexes the bare name (`invN`) for `show`.
    pub fn register_named(&mut self, display: &str, m: &CMat) {
        let pred = Arc::new(Predicate::dense_from(m.clone()));
        let trace = m.trace_re();
        let probe = probe_image(&pred);
        self.promote_matches(trace, &probe);
        self.names
            .entry(m.fingerprint(FP_SCALE))
            .or_insert_with(|| display.to_string());
        self.sightings.push(Sighting {
            trace,
            probe,
            pred: pred.clone(),
            name: display.to_string(),
            dense_indexed: true,
        });
        self.matrices.insert(display.to_string(), pred.clone());
        if let Some(bare) = display.split('[').next() {
            self.matrices.entry(bare.to_string()).or_insert(pred);
        }
    }

    /// Returns the display name for a matrix, allocating a fresh
    /// `VARk[q̄]` name when unknown.
    pub fn name_of(&mut self, m: &CMat, register_display: &str) -> String {
        self.name_of_pred(&Predicate::dense_from(m.clone()), register_display)
    }

    /// [`PredicateRegistry::name_of`] for a [`Predicate`]. Repeat queries
    /// hit the native fingerprint; a first sighting densifies only when
    /// the trace/probe screen admits a match against a prior sighting.
    pub fn name_of_pred(&mut self, p: &Predicate, register_display: &str) -> String {
        let native_fp = p.fingerprint(FP_SCALE);
        if let Some(n) = self.names.get(&native_fp) {
            return n.clone();
        }
        let trace = p.trace_re();
        let probe = probe_image(p);
        let possible = self.promote_matches(trace, &probe);
        let shared = Arc::new(p.clone());
        let dense_indexed = possible || !p.is_factored();
        if dense_indexed {
            // A match is on the table (or dense hashing is free): decide
            // by dense fingerprint, exactly as a dense-only index would.
            let dense_fp = shared.dense().fingerprint(FP_SCALE);
            if let Some(n) = self.names.get(&dense_fp).cloned() {
                self.names.insert(native_fp, n.clone());
                return n;
            }
            let display = self.fresh_name(register_display);
            self.names.insert(dense_fp, display.clone());
            if native_fp != dense_fp {
                self.names.insert(native_fp, display.clone());
            }
            self.record_sighting(trace, probe, shared, display, true)
        } else {
            // Provably fresh: every prior sighting's screen separates it.
            let display = self.fresh_name(register_display);
            self.names.insert(native_fp, display.clone());
            self.record_sighting(trace, probe, shared, display, false)
        }
    }

    /// Dense-indexes every prior sighting whose screen is compatible with
    /// `(trace, probe)`; returns whether any was.
    fn promote_matches(&mut self, trace: f64, probe: &[Complex]) -> bool {
        let mut any = false;
        for i in 0..self.sightings.len() {
            let s = &self.sightings[i];
            if !screens_match(trace, probe, s.trace, &s.probe) {
                continue;
            }
            any = true;
            if !self.sightings[i].dense_indexed {
                let fp = self.sightings[i].pred.dense().fingerprint(FP_SCALE);
                let name = self.sightings[i].name.clone();
                self.names.entry(fp).or_insert(name);
                self.sightings[i].dense_indexed = true;
            }
        }
        any
    }

    /// Files a sighting and indexes its matrices; returns the display name.
    fn record_sighting(
        &mut self,
        trace: f64,
        probe: Vec<Complex>,
        pred: Arc<Predicate>,
        display: String,
        dense_indexed: bool,
    ) -> String {
        self.sightings.push(Sighting {
            trace,
            probe,
            pred: pred.clone(),
            name: display.clone(),
            dense_indexed,
        });
        self.matrices.insert(display.clone(), pred.clone());
        if let Some(bare) = display.split('[').next() {
            self.matrices.insert(bare.to_string(), pred);
        }
        display
    }

    /// Allocates the next `VARk[q̄]` display name.
    fn fresh_name(&mut self, register_display: &str) -> String {
        let bare = format!("VAR{}", self.next_var);
        self.next_var += 1;
        format!("{bare}[{register_display}]")
    }

    /// Looks up the matrix behind a (bare or full) name, for `show`;
    /// factored predicates materialise (and cache) their dense form here.
    pub fn matrix(&self, name: &str) -> Option<&CMat> {
        self.matrices.get(name).map(|p| p.dense())
    }
}

/// Renders an assertion as `{ name1 name2 … }` using (and extending) the
/// registry.
pub fn render_assertion(
    a: &crate::assertion::Assertion,
    registry: &mut PredicateRegistry,
    register_display: &str,
) -> String {
    let names: Vec<String> = a
        .ops()
        .iter()
        .map(|m| registry.name_of_pred(m, register_display))
        .collect();
    format!("{{ {} }}", names.join(" "))
}

/// Renders the annotated proof outline in the tool's output format.
pub fn render_outline(
    qubits: &[String],
    user_pre: Option<&str>,
    ann: &Annotated,
    post_display: &str,
    registry: &mut PredicateRegistry,
) -> String {
    outline_text(
        qubits,
        user_pre,
        &ann.pre,
        &ann.node,
        post_display,
        registry,
    )
}

/// Names and renders one verified proof exactly as `show` prints it: the
/// outline, plus the `Error:` / `Warning:` block of a rejected or
/// unresolved proof. `lib` must bind the proof's operators as they stood
/// when it was verified.
///
/// Naming follows the tool's order: the post-, then the precondition,
/// then the statements' cut assertions and invariants are registered
/// under their source names; then the violated VC (if any) and the outline
/// allocate `VARk` names. A session shares one registry across its proofs
/// and must render them in execution order for stable `VARk` numbering.
pub fn render_proof(
    term: &ProofTerm,
    lib: &OperatorLibrary,
    outcome: &VerifyOutcome,
    registry: &mut PredicateRegistry,
    tracer: Tracer,
) -> String {
    let _span = tracer.span(Phase::Other, "outline");
    if let Ok(reg) = Register::new(&term.qubits) {
        register_expr(&term.post, lib, &reg, registry);
        if let Some(pre) = &term.pre {
            register_expr(pre, lib, &reg, registry);
        }
        register_stmt_assertions(&term.body, lib, &reg, registry);
    }
    let pre_display = term.pre.as_ref().map(pretty_assertion);
    let suffix = match &outcome.status {
        VerifyStatus::Verified => String::new(),
        VerifyStatus::PreconditionViolated { violation } => format!(
            "\nError:\n  Order relation not satisfied:\n  {} <= {}\n  (violation margin {:.3e})\n",
            pre_display.as_deref().unwrap_or_default(),
            render_assertion(&outcome.computed_pre, registry, &term.qubits.join(" ")),
            violation.margin
        ),
        VerifyStatus::Unresolved { details } => format!("\nWarning: {details}\n"),
    };
    let mut text = outline_text(
        &term.qubits,
        pre_display.as_deref(),
        &outcome.computed_pre,
        &outcome.body,
        &pretty_assertion(&term.post),
        registry,
    );
    text.push_str(&suffix);
    text
}

/// Registers the embedded matrix of each term of a source assertion under
/// its display name (`op[q̄]`), so the outline shows it instead of `VAR*`.
fn register_expr(
    expr: &AssertionExpr,
    lib: &OperatorLibrary,
    reg: &Register,
    registry: &mut PredicateRegistry,
) {
    for term in &expr.terms {
        let (Ok((m, _)), Ok(pos)) = (
            lib.predicate_structure(&term.op),
            reg.positions(&term.qubits),
        ) else {
            continue;
        };
        if m.rows() == 1 << pos.len() {
            let embedded = nqpv_linalg::embed(m, &pos, reg.n_qubits());
            registry.register_named(
                &format!("{}[{}]", term.op, term.qubits.join(" ")),
                &embedded,
            );
        }
    }
}

/// [`register_expr`] for every cut assertion and invariant inside a
/// statement, in source order.
fn register_stmt_assertions(
    stmt: &Stmt,
    lib: &OperatorLibrary,
    reg: &Register,
    registry: &mut PredicateRegistry,
) {
    match stmt {
        Stmt::Assert(a) => register_expr(a, lib, reg, registry),
        Stmt::Seq(items) => {
            for s in items {
                register_stmt_assertions(s, lib, reg, registry);
            }
        }
        Stmt::NDet(a, b) => {
            register_stmt_assertions(a, lib, reg, registry);
            register_stmt_assertions(b, lib, reg, registry);
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            register_stmt_assertions(then_branch, lib, reg, registry);
            register_stmt_assertions(else_branch, lib, reg, registry);
        }
        Stmt::While {
            invariant, body, ..
        } => {
            if let Some(inv) = invariant {
                register_expr(inv, lib, reg, registry);
            }
            register_stmt_assertions(body, lib, reg, registry);
        }
        _ => {}
    }
}

/// The outline of a proof whose root precondition (the VC) and statement
/// tree are held apart.
fn outline_text(
    qubits: &[String],
    user_pre: Option<&str>,
    vc: &Assertion,
    body: &AnnotatedNode,
    post_display: &str,
    registry: &mut PredicateRegistry,
) -> String {
    let register_display = qubits.join(" ");
    let mut out = String::new();
    let _ = writeln!(out, "proof [{register_display}] :");
    if let Some(pre) = user_pre {
        let _ = writeln!(out, "  {pre};");
    }
    let vc_text = render_assertion(vc, registry, &register_display);
    let _ = writeln!(out, "  {vc_text}; // the Veri. Con.");
    render_node(&mut out, vc, body, 1, registry, &register_display);
    let _ = writeln!(out, ";\n  {post_display}");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Renders a nested statement, its computed precondition first.
fn render_annotated(
    out: &mut String,
    ann: &Annotated,
    depth: usize,
    registry: &mut PredicateRegistry,
    reg_disp: &str,
) {
    let pre = render_assertion(&ann.pre, registry, reg_disp);
    indent(out, depth);
    out.push_str(&pre);
    out.push_str(";\n");
    render_node(out, &ann.pre, &ann.node, depth, registry, reg_disp);
}

/// Renders a statement whose computed precondition `pre` is printed by
/// the caller (or, for the first item of a sequence, by the enclosing
/// statement).
fn render_node(
    out: &mut String,
    pre: &Assertion,
    node: &AnnotatedNode,
    depth: usize,
    registry: &mut PredicateRegistry,
    reg_disp: &str,
) {
    match node {
        AnnotatedNode::Skip => {
            indent(out, depth);
            out.push_str("skip");
        }
        AnnotatedNode::Abort => {
            indent(out, depth);
            out.push_str("abort");
        }
        AnnotatedNode::Assert => {
            indent(out, depth);
            let a = render_assertion(pre, registry, reg_disp);
            out.push_str(&a);
        }
        AnnotatedNode::Init { qubits } => {
            indent(out, depth);
            let _ = write!(out, "[{}] := 0", qubits.join(" "));
        }
        AnnotatedNode::Unitary { qubits, op } => {
            indent(out, depth);
            let _ = write!(out, "[{}] *= {}", qubits.join(" "), op);
        }
        AnnotatedNode::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(";\n");
                }
                if i > 0 {
                    render_annotated(out, item, depth, registry, reg_disp);
                } else {
                    render_node(out, &item.pre, &item.node, depth, registry, reg_disp);
                }
            }
        }
        AnnotatedNode::NDet(a, b) => {
            indent(out, depth);
            out.push_str("(\n");
            render_annotated(out, a, depth + 1, registry, reg_disp);
            out.push('\n');
            indent(out, depth);
            out.push_str("#\n");
            render_annotated(out, b, depth + 1, registry, reg_disp);
            out.push('\n');
            indent(out, depth);
            out.push(')');
        }
        AnnotatedNode::If {
            meas,
            qubits,
            then_branch,
            else_branch,
        } => {
            indent(out, depth);
            let _ = writeln!(out, "if {}[{}] then", meas, qubits.join(" "));
            render_annotated(out, then_branch, depth + 1, registry, reg_disp);
            out.push('\n');
            indent(out, depth);
            out.push_str("else\n");
            render_annotated(out, else_branch, depth + 1, registry, reg_disp);
            out.push('\n');
            indent(out, depth);
            out.push_str("end");
        }
        AnnotatedNode::While {
            meas,
            qubits,
            invariant,
            body,
            ..
        } => {
            let inv = render_assertion(invariant, registry, reg_disp);
            indent(out, depth);
            let _ = writeln!(
                out,
                "{{ inv : {} }};",
                inv.trim_start_matches("{ ").trim_end_matches(" }")
            );
            indent(out, depth);
            let _ = writeln!(out, "while {}[{}] do", meas, qubits.join(" "));
            render_annotated(out, body, depth + 1, registry, reg_disp);
            out.push('\n');
            indent(out, depth);
            out.push_str("end");
        }
    }
}

/// Pretty-prints a matrix for `show NAME end` output.
pub fn render_matrix(name: &str, m: &CMat) -> String {
    format!("{name} =\n{m}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_linalg::CVec;

    #[test]
    fn registry_names_and_allocates() {
        let mut reg = PredicateRegistry::new();
        let p0 = CVec::basis(2, 0).projector();
        reg.register_named("P0[q]", &p0);
        assert_eq!(reg.name_of(&p0, "q"), "P0[q]");
        let other = CMat::identity(2).scale_re(0.5);
        let n = reg.name_of(&other, "q");
        assert_eq!(n, "VAR0[q]");
        // Stable on re-query.
        assert_eq!(reg.name_of(&other, "q"), "VAR0[q]");
        // Bare and full lookups work.
        assert!(reg.matrix("VAR0").is_some());
        assert!(reg.matrix("VAR0[q]").is_some());
        assert!(reg.matrix("P0").is_some());
    }

    #[test]
    fn factored_predicates_name_stably_across_representations() {
        use crate::assertion::Predicate;
        let mut reg = PredicateRegistry::new();
        let v = CMat::from_real(4, 1, &[1.0, 0.0, 0.0, 0.0]);
        let p = Predicate::from_factor(v);
        assert!(p.is_factored());
        let n1 = reg.name_of_pred(&p, "q1 q2");
        // Repeat queries hit the native (factor) fingerprint.
        assert_eq!(reg.name_of_pred(&p, "q1 q2"), n1);
        // A dense predicate holding the same operator resolves to the
        // same name instead of allocating a fresh VAR.
        let dense = Predicate::dense_from(p.dense().clone());
        assert_eq!(reg.name_of_pred(&dense, "q1 q2"), n1);
        assert_eq!(reg.next_var, 1);
    }

    #[test]
    fn render_assertion_uses_names() {
        let mut reg = PredicateRegistry::new();
        let p0 = CVec::basis(2, 0).projector();
        reg.register_named("P0[q]", &p0);
        let a = Assertion::from_ops(2, vec![p0, CMat::identity(2)]).unwrap();
        let s = render_assertion(&a, &mut reg, "q");
        assert!(s.contains("P0[q]"));
        assert!(s.contains("VAR0[q]"));
    }

    #[test]
    fn matrix_rendering() {
        let m = CMat::identity(2);
        let s = render_matrix("I", &m);
        assert!(s.starts_with("I =\n"));
        assert!(s.contains("1.0000"));
    }
}
