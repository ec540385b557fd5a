//! Weakest-(liberal-)precondition transformers (paper Fig. 5) and
//! backward verification-condition generation.
//!
//! The verifier works exactly like the paper's tool (Sec. 6.2): "calculate
//! the weakest preconditions in the backward direction, starting from the
//! postcondition of the whole program". For `while` loops the user-supplied
//! invariant is checked (`Θ_inv ⊑_inf wlp.body.(P⁰(Ψ)+P¹(Θ_inv))`) and the
//! loop contributes `P⁰(Ψ)+P¹(Θ_inv)` as its precondition — rule (While).
//! In total-correctness mode, `abort` maps to `{0}` and loops additionally
//! require a [`RankingCertificate`] discharging Definition 4.3.

use crate::assertion::Assertion;
use crate::cache::{CacheKey, KeyHasher, TransformerCache};
use crate::error::VerifError;
pub use crate::ranking::RankingCertificate;
use nqpv_lang::{AssertionExpr, Stmt};
use nqpv_linalg::{embed, CMat};
use nqpv_quantum::{OperatorLibrary, Register};
use nqpv_solver::{LownerOptions, Verdict};
use nqpv_telemetry::{ArgValue, Deadline, Phase, Tracer};
use std::collections::HashMap;

/// Partial (`wlp`) vs total (`wp`) correctness mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Partial correctness: `abort` has wlp `{I}`; loops need invariants.
    Partial,
    /// Total correctness: `abort` has wp `{0}`; loops additionally need
    /// ranking certificates.
    Total,
}

/// Options for verification-condition generation.
#[derive(Debug, Clone, Copy)]
pub struct VcOptions {
    /// Correctness mode.
    pub mode: Mode,
    /// `⊑_inf` solver options.
    pub lowner: LownerOptions,
    /// Bound on intermediate assertion-set sizes.
    pub max_set: usize,
    /// Attempt wlp-fixpoint invariant inference (see [`crate::infer`]) for
    /// `while` loops lacking an `inv:` annotation, instead of failing with
    /// [`VerifError::MissingInvariant`].
    pub infer_invariants: bool,
    /// Run rank detection on resolved assertions so low-rank predicates
    /// enter the pipeline factored (see
    /// [`Assertion::from_expr`]). `false` forces the dense
    /// representation everywhere — the factored-vs-dense ablation knob.
    pub factor_assertions: bool,
    /// Telemetry handle: the backward pass records one `wp` span per
    /// statement visit (with statement path, predicate rank and local
    /// footprint), plus cache-tier lookup spans, into it. Set it with
    /// [`VcOptions::with_tracer`] so the solver's copy
    /// ([`LownerOptions::tracer`]) stays in sync. Inert by default;
    /// deliberately **excluded** from [`context_key`] — which job traced
    /// a subterm must never partition the memo caches.
    pub tracer: Tracer,
    /// Cooperative job deadline, checked at every statement entry of the
    /// backward pass (yielding [`VerifError::Timeout`] with the
    /// statement span) and at every solver obligation through the copy
    /// on [`LownerOptions::deadline`]. Set it with
    /// [`VcOptions::with_deadline`] so the two copies stay in sync.
    /// Never expires by default; like the tracer, it renders a constant
    /// `Debug` and is excluded from [`context_key`] — a job's wall-clock
    /// budget must never partition the memo caches.
    pub deadline: Deadline,
}

impl Default for VcOptions {
    fn default() -> Self {
        VcOptions {
            mode: Mode::Partial,
            lowner: LownerOptions::default(),
            max_set: 1024,
            infer_invariants: false,
            factor_assertions: true,
            tracer: Tracer::DISABLED,
            deadline: Deadline::NONE,
        }
    }
}

impl VcOptions {
    /// Returns a copy carrying `tracer` on both the transformer seam and
    /// the solver seam ([`LownerOptions::tracer`]) — the one way to arm
    /// telemetry, so the two handles cannot drift apart.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> VcOptions {
        self.tracer = tracer;
        self.lowner.tracer = tracer;
        self
    }

    /// Returns a copy carrying `deadline` on both the transformer seam
    /// and the solver seam ([`LownerOptions::deadline`]) — the one way
    /// to arm a job budget, so the two copies cannot drift apart.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> VcOptions {
        self.deadline = deadline;
        self.lowner.deadline = deadline;
        self
    }
}

/// A statement annotated with the computed precondition at its entry —
/// the data behind the tool's proof-outline output.
#[derive(Debug, Clone)]
pub struct Annotated {
    /// The verification condition holding *before* this statement.
    pub pre: Assertion,
    /// The annotated statement structure.
    pub node: AnnotatedNode,
}

/// Statement structure mirroring [`Stmt`], with computed annotations.
#[derive(Debug, Clone)]
pub enum AnnotatedNode {
    /// `skip`.
    Skip,
    /// `abort`.
    Abort,
    /// A user cut assertion (checked against the computed condition).
    Assert,
    /// `q̄ := 0`.
    Init {
        /// Target qubits.
        qubits: Vec<String>,
    },
    /// `q̄ *= U`.
    Unitary {
        /// Target qubits.
        qubits: Vec<String>,
        /// Unitary name.
        op: String,
    },
    /// Sequential composition.
    Seq(Vec<Annotated>),
    /// Nondeterministic choice.
    NDet(Box<Annotated>, Box<Annotated>),
    /// Measurement conditional.
    If {
        /// Measurement name.
        meas: String,
        /// Measured qubits.
        qubits: Vec<String>,
        /// Outcome-1 branch.
        then_branch: Box<Annotated>,
        /// Outcome-0 branch.
        else_branch: Box<Annotated>,
    },
    /// While loop with its (checked) invariant.
    While {
        /// Measurement name.
        meas: String,
        /// Measured qubits.
        qubits: Vec<String>,
        /// The loop id (pre-order numbering; keys ranking certificates).
        loop_id: usize,
        /// The resolved invariant assertion.
        invariant: Assertion,
        /// Annotated body.
        body: Box<Annotated>,
    },
}

/// Computes the annotated backward pass of `stmt` against `post`,
/// discharging all embedded side conditions (cuts, invariants, rankings).
///
/// # Errors
///
/// Returns [`VerifError`] when any side condition fails or resources are
/// exceeded; see the variants for the failure taxonomy.
pub fn backward(
    stmt: &Stmt,
    post: &Assertion,
    lib: &OperatorLibrary,
    reg: &Register,
    opts: VcOptions,
    rankings: &HashMap<usize, RankingCertificate>,
) -> Result<Annotated, VerifError> {
    backward_with_cache(stmt, post, lib, reg, opts, rankings, None)
}

/// [`backward`] with an optional memo cache for subterm results (see
/// [`crate::cache`]): composite subterms whose annotated pass was already
/// computed — in this run or for an earlier program sharing the cache —
/// are returned without recomputation.
///
/// # Errors
///
/// Same as [`backward`]. Failed subterms are never cached.
pub fn backward_with_cache(
    stmt: &Stmt,
    post: &Assertion,
    lib: &OperatorLibrary,
    reg: &Register,
    opts: VcOptions,
    rankings: &HashMap<usize, RankingCertificate>,
    cache: Option<&dyn TransformerCache>,
) -> Result<Annotated, VerifError> {
    let mut ctx = Ctx {
        lib,
        reg,
        opts,
        rankings,
        next_loop_id: 0,
        cache,
        ctx_key: context_key(reg, opts),
        path: Vec::new(),
    };
    let tagged = tag_loops(stmt, &mut ctx.next_loop_id);
    ctx.go(&tagged, post)
}

/// Hashes the run context every subterm key must incorporate: register
/// layout and the verification options that influence computed results.
fn context_key(reg: &Register, opts: VcOptions) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_usize(reg.n_qubits());
    for name in reg.names() {
        h.write_str(name);
    }
    h.write_u8(match opts.mode {
        Mode::Partial => 0,
        Mode::Total => 1,
    });
    h.write_usize(opts.max_set);
    // Factored and dense pipelines compute the same operators but store
    // them differently; keep their cached artifacts apart.
    h.write_u8(opts.factor_assertions as u8);
    // The solver verdict depends on every LownerOptions field (eps,
    // iteration budgets, lanczos and primal sub-options); the Debug
    // rendering covers them all — f64 Debug is shortest-roundtrip, so
    // distinct values always render apart.
    h.write_str(&format!("{:?}", opts.lowner));
    h.finish()
}

/// Convenience wrapper returning only the computed weakest (liberal)
/// precondition.
///
/// # Errors
///
/// Same as [`backward`].
pub fn precondition(
    stmt: &Stmt,
    post: &Assertion,
    lib: &OperatorLibrary,
    reg: &Register,
    opts: VcOptions,
    rankings: &HashMap<usize, RankingCertificate>,
) -> Result<Assertion, VerifError> {
    Ok(backward(stmt, post, lib, reg, opts, rankings)?.pre)
}

/// Internal statement tree with pre-order loop ids.
enum TStmt {
    Skip,
    Abort,
    Assert(AssertionExpr),
    Init(Vec<String>),
    Unitary(Vec<String>, String),
    Seq(Vec<TStmt>),
    NDet(Box<TStmt>, Box<TStmt>),
    If {
        meas: String,
        qubits: Vec<String>,
        then_branch: Box<TStmt>,
        else_branch: Box<TStmt>,
    },
    While {
        meas: String,
        qubits: Vec<String>,
        invariant: Option<AssertionExpr>,
        loop_id: usize,
        body: Box<TStmt>,
    },
}

fn tag_loops(stmt: &Stmt, counter: &mut usize) -> TStmt {
    match stmt {
        Stmt::Skip => TStmt::Skip,
        Stmt::Abort => TStmt::Abort,
        Stmt::Assert(a) => TStmt::Assert(a.clone()),
        Stmt::Init { qubits } => TStmt::Init(qubits.clone()),
        Stmt::Unitary { qubits, op } => TStmt::Unitary(qubits.clone(), op.clone()),
        Stmt::Seq(items) => TStmt::Seq(items.iter().map(|s| tag_loops(s, counter)).collect()),
        Stmt::NDet(a, b) => TStmt::NDet(
            Box::new(tag_loops(a, counter)),
            Box::new(tag_loops(b, counter)),
        ),
        Stmt::If {
            meas,
            qubits,
            then_branch,
            else_branch,
        } => TStmt::If {
            meas: meas.clone(),
            qubits: qubits.clone(),
            then_branch: Box::new(tag_loops(then_branch, counter)),
            else_branch: Box::new(tag_loops(else_branch, counter)),
        },
        Stmt::While {
            meas,
            qubits,
            invariant,
            body,
        } => {
            let loop_id = *counter;
            *counter += 1;
            TStmt::While {
                meas: meas.clone(),
                qubits: qubits.clone(),
                invariant: invariant.clone(),
                loop_id,
                body: Box::new(tag_loops(body, counter)),
            }
        }
    }
}

struct Ctx<'a> {
    lib: &'a OperatorLibrary,
    reg: &'a Register,
    opts: VcOptions,
    rankings: &'a HashMap<usize, RankingCertificate>,
    next_loop_id: usize,
    cache: Option<&'a dyn TransformerCache>,
    ctx_key: CacheKey,
    /// Child-index path from the program root to the subterm currently
    /// being transformed — the statement *span* reported when an embedded
    /// obligation (cut assertion, loop invariant) fails, so a rejected
    /// comparison names the statement that produced it.
    path: Vec<usize>,
}

/// Measurement branch projectors kept at their native dimension with a
/// register footprint, so the (Meas)/(While) sandwiches `P·M·P` run as
/// strided conjugations (`O(4ⁿ·2ᵏ)` dense, `O(2ⁿ·2ᵏ·r)` on factored
/// predicates) instead of embedded dense matmuls (`O(8ⁿ)`).
struct BranchProjectors {
    p0: CMat,
    p1: CMat,
    pos: Vec<usize>,
}

impl BranchProjectors {
    /// `P⁰·Θ·P⁰` element-wise via the strided/factored kernels.
    fn sandwich0(&self, a: &Assertion, n: usize) -> Assertion {
        a.sandwich_local(&self.p0, &self.pos, n)
    }

    /// `P¹·Θ·P¹` element-wise via the strided/factored kernels.
    fn sandwich1(&self, a: &Assertion, n: usize) -> Assertion {
        a.sandwich_local(&self.p1, &self.pos, n)
    }

    /// The full-dimension embedding of `P¹`, for the (rare) consumers that
    /// need a whole-space operator (ranking certificates).
    fn embedded_p1(&self, n: usize) -> CMat {
        embed(&self.p1, &self.pos, n)
    }
}

impl Ctx<'_> {
    /// Backward pass over one subterm, consulting the memo cache for
    /// composite nodes (leaves are cheaper to recompute than to look up).
    ///
    /// Every visit records one `wp` span (even cache hits — the span's
    /// `cached` argument tells them apart), so a trace of a loop-free
    /// program carries exactly one wp span per statement node.
    fn go(&mut self, stmt: &TStmt, post: &Assertion) -> Result<Annotated, VerifError> {
        // Cooperative cancellation at every statement boundary: the span
        // in the error is the backward pass's position when the budget
        // ran out — the "how far did it get" marker of a TIMEOUT
        // verdict.
        if self.opts.deadline.expired() {
            return Err(VerifError::Timeout { at: self.span() });
        }
        let tracer = self.opts.tracer;
        let mut span = tracer.span(Phase::Wp, stmt_kind(stmt));
        if span.recording() {
            span.arg("path", ArgValue::Str(self.span()));
            span.arg("set_size", ArgValue::U64(post.len() as u64));
            if let Some(r) = post.ops().iter().filter_map(|p| p.rank()).max() {
                span.arg("max_rank", ArgValue::U64(r as u64));
            }
            if let Some(fp) = stmt_footprint(stmt) {
                span.arg("footprint", ArgValue::U64(fp as u64));
            }
        }
        match self.cache {
            Some(cache) if self.cacheable(stmt) => {
                let key = self.subterm_key(stmt, post);
                let hit = {
                    let mut cspan = tracer.span(Phase::Cache, "transformer_tier");
                    let hit = cache.get(key);
                    cspan.classify(
                        "transformer_tier",
                        if hit.is_some() { "hit" } else { "miss" },
                    );
                    hit
                };
                if let Some(hit) = hit {
                    span.arg("cached", ArgValue::Bool(true));
                    return Ok(hit);
                }
                let ann = self.go_uncached(stmt, post)?;
                cache.put(key, &ann);
                Ok(ann)
            }
            _ => self.go_uncached(stmt, post),
        }
    }

    /// [`Ctx::go`] on a child subterm, tracking the statement path for
    /// span-bearing failure reports.
    fn go_child(
        &mut self,
        idx: usize,
        stmt: &TStmt,
        post: &Assertion,
    ) -> Result<Annotated, VerifError> {
        self.path.push(idx);
        let out = self.go(stmt, post);
        self.path.pop();
        out
    }

    /// Renders the current statement path, e.g. `statement 2.0` (dotted
    /// child indices from the program root) or `top level`.
    fn span(&self) -> String {
        if self.path.is_empty() {
            "top level".to_string()
        } else {
            let dotted: Vec<String> = self.path.iter().map(ToString::to_string).collect();
            format!("statement {}", dotted.join("."))
        }
    }

    /// Whether a subterm's annotated result may be memoised: composite
    /// nodes only, and loop-bearing subterms only in partial mode (total
    /// mode consults ranking certificates outside the cache key).
    fn cacheable(&self, stmt: &TStmt) -> bool {
        let composite = matches!(
            stmt,
            TStmt::Seq(_) | TStmt::NDet(_, _) | TStmt::If { .. } | TStmt::While { .. }
        );
        composite && (self.opts.mode == Mode::Partial || !contains_while(stmt))
    }

    /// Content key of `(subterm, postcondition)` under the run context:
    /// structure plus every referenced operator resolved to exact matrix
    /// bits, so renamed-but-identical and identical-by-content subterms
    /// share entries while any numerical difference separates them.
    fn subterm_key(&self, stmt: &TStmt, post: &Assertion) -> CacheKey {
        let mut h = KeyHasher::new();
        h.write_u64((self.ctx_key >> 64) as u64);
        h.write_u64(self.ctx_key as u64);
        self.hash_stmt(&mut h, stmt);
        h.write_usize(post.dim());
        h.write_usize(post.len());
        for m in post.ops() {
            h.write_predicate(m);
        }
        h.finish()
    }

    fn hash_expr(&self, h: &mut KeyHasher, expr: &AssertionExpr) {
        h.write_usize(expr.terms.len());
        for term in &expr.terms {
            h.write_str(&term.op);
            h.write_usize(term.qubits.len());
            for q in &term.qubits {
                h.write_str(q);
            }
            if let Ok((m, _)) = self.lib.predicate_structure(&term.op) {
                h.write_matrix(m);
            }
        }
    }

    fn hash_stmt(&self, h: &mut KeyHasher, stmt: &TStmt) {
        match stmt {
            TStmt::Skip => h.write_u8(0),
            TStmt::Abort => h.write_u8(1),
            TStmt::Assert(expr) => {
                h.write_u8(2);
                self.hash_expr(h, expr);
            }
            TStmt::Init(qubits) => {
                h.write_u8(3);
                h.write_usize(qubits.len());
                for q in qubits {
                    h.write_str(q);
                }
            }
            TStmt::Unitary(qubits, op) => {
                h.write_u8(4);
                h.write_usize(qubits.len());
                for q in qubits {
                    h.write_str(q);
                }
                h.write_str(op);
                if let Ok(u) = self.lib.unitary(op) {
                    h.write_matrix(u);
                }
            }
            TStmt::Seq(items) => {
                h.write_u8(5);
                h.write_usize(items.len());
                for item in items {
                    self.hash_stmt(h, item);
                }
            }
            TStmt::NDet(a, b) => {
                h.write_u8(6);
                self.hash_stmt(h, a);
                self.hash_stmt(h, b);
            }
            TStmt::If {
                meas,
                qubits,
                then_branch,
                else_branch,
            } => {
                h.write_u8(7);
                self.hash_meas(h, meas, qubits);
                self.hash_stmt(h, then_branch);
                self.hash_stmt(h, else_branch);
            }
            TStmt::While {
                meas,
                qubits,
                invariant,
                body,
                // Pre-order numbering is positional, not semantic; rankings
                // (the only loop_id consumer) gate `cacheable` instead.
                loop_id: _,
            } => {
                h.write_u8(8);
                self.hash_meas(h, meas, qubits);
                match invariant {
                    Some(expr) => {
                        h.write_u8(1);
                        self.hash_expr(h, expr);
                        // Inference settings change what an un-annotated
                        // loop produces, so keep annotated/inferred apart.
                    }
                    None => h.write_u8(if self.opts.infer_invariants { 2 } else { 0 }),
                }
                self.hash_stmt(h, body);
            }
        }
    }

    fn hash_meas(&self, h: &mut KeyHasher, meas: &str, qubits: &[String]) {
        h.write_str(meas);
        h.write_usize(qubits.len());
        for q in qubits {
            h.write_str(q);
        }
        if let Ok(m) = self.lib.measurement(meas) {
            h.write_matrix(m.p0());
            h.write_matrix(m.p1());
        }
    }

    fn go_uncached(&mut self, stmt: &TStmt, post: &Assertion) -> Result<Annotated, VerifError> {
        let n = self.reg.n_qubits();
        let dim = self.reg.dim();
        match stmt {
            TStmt::Skip => Ok(Annotated {
                pre: post.clone(),
                node: AnnotatedNode::Skip,
            }),
            TStmt::Abort => Ok(Annotated {
                pre: match self.opts.mode {
                    Mode::Partial => Assertion::identity(dim),
                    Mode::Total => Assertion::zero(dim),
                },
                node: AnnotatedNode::Abort,
            }),
            TStmt::Assert(expr) => {
                let a = Assertion::from_expr_with(
                    expr,
                    self.lib,
                    self.reg,
                    self.opts.factor_assertions,
                )?;
                if !a.validate_predicates(1e-6) {
                    return Err(VerifError::InvalidInvariant {
                        details: "cut assertion contains operators outside 0 ⊑ M ⊑ I".into(),
                    });
                }
                match a.le_inf_cached(post, self.opts.lowner, self.cache)? {
                    Verdict::Holds => Ok(Annotated {
                        pre: a,
                        node: AnnotatedNode::Assert,
                    }),
                    Verdict::Violated(v) => Err(VerifError::CutFailed {
                        index: 0,
                        details: format!(
                            "cut assertion does not entail the computed condition \
                             (margin {:.3e}, at {})",
                            v.margin,
                            self.span()
                        ),
                    }),
                    Verdict::Inconclusive { lower, upper, .. } => Err(VerifError::Inconclusive {
                        details: format!(
                            "cut assertion comparison unresolved in [{lower:.3e}, {upper:.3e}]"
                        ),
                    }),
                }
            }
            TStmt::Init(qubits) => {
                let pos = self.reg.positions(qubits)?;
                // Dense elements run the strided initialiser kernels;
                // factored ones take the structured I ⊗ ⟨0|M|0⟩ route
                // (rank growth + recompression) — see `Assertion::wp_init`.
                let pre = post.wp_init(&pos, n).check_size(self.opts.max_set)?;
                Ok(Annotated {
                    pre,
                    node: AnnotatedNode::Init {
                        qubits: qubits.clone(),
                    },
                })
            }
            TStmt::Unitary(qubits, op) => {
                let u = self.lib.unitary(op)?;
                let pos = self.reg.positions(qubits)?;
                let k = u.rows().trailing_zeros() as usize;
                if k != pos.len() {
                    return Err(VerifError::ArityMismatch {
                        op: op.clone(),
                        expected: k,
                        got: pos.len(),
                    });
                }
                let pre = post.wp_unitary(u, &pos, n).check_size(self.opts.max_set)?;
                Ok(Annotated {
                    pre,
                    node: AnnotatedNode::Unitary {
                        qubits: qubits.clone(),
                        op: op.clone(),
                    },
                })
            }
            TStmt::Seq(items) => {
                let mut annotated_rev: Vec<Annotated> = Vec::with_capacity(items.len());
                let mut current = post.clone();
                for (idx, item) in items.iter().enumerate().rev() {
                    let ann = self.go_child(idx, item, &current)?;
                    current = ann.pre.clone();
                    annotated_rev.push(ann);
                }
                annotated_rev.reverse();
                Ok(Annotated {
                    pre: current,
                    node: AnnotatedNode::Seq(annotated_rev),
                })
            }
            TStmt::NDet(a, b) => {
                let left = self.go_child(0, a, post)?;
                let right = self.go_child(1, b, post)?;
                let pre = left.pre.union(&right.pre)?.check_size(self.opts.max_set)?;
                Ok(Annotated {
                    pre,
                    node: AnnotatedNode::NDet(Box::new(left), Box::new(right)),
                })
            }
            TStmt::If {
                meas,
                qubits,
                then_branch,
                else_branch,
            } => {
                let br = self.branch_projectors(meas, qubits)?;
                let then_ann = self.go_child(0, then_branch, post)?;
                let else_ann = self.go_child(1, else_branch, post)?;
                // xp.(if).M = P¹(xp.S₁.M) + P⁰(xp.S₀.M)  (Fig. 5) — the
                // sandwiches run strided on the local projectors (factored
                // predicates stay factored); no full-dimension embedding
                // is materialised.
                let sandw1 = br.sandwich1(&then_ann.pre, n);
                let sandw0 = br.sandwich0(&else_ann.pre, n);
                let pre = sandw1
                    .sum_pairwise(&sandw0)?
                    .check_size(self.opts.max_set)?;
                Ok(Annotated {
                    pre,
                    node: AnnotatedNode::If {
                        meas: meas.clone(),
                        qubits: qubits.clone(),
                        then_branch: Box::new(then_ann),
                        else_branch: Box::new(else_ann),
                    },
                })
            }
            TStmt::While {
                meas,
                qubits,
                invariant,
                loop_id,
                body,
            } => {
                let inv = match invariant {
                    Some(inv_expr) => {
                        let inv = Assertion::from_expr_with(
                            inv_expr,
                            self.lib,
                            self.reg,
                            self.opts.factor_assertions,
                        )?;
                        if !inv.validate_predicates(1e-6) {
                            return Err(VerifError::InvalidInvariant {
                                details: "invariant contains operators outside 0 ⊑ M ⊑ I".into(),
                            });
                        }
                        inv
                    }
                    None if self.opts.infer_invariants => {
                        // wlp-fixpoint inference (Lemma A.2); inner passes
                        // run in partial mode — rankings are still checked
                        // below for Mode::Total.
                        let infer_opts = crate::infer::InferOptions {
                            max_iters: 64,
                            vc: VcOptions {
                                mode: Mode::Partial,
                                ..self.opts
                            },
                        };
                        match crate::infer::infer_invariant(
                            meas,
                            qubits,
                            &untag(body),
                            post,
                            self.lib,
                            self.reg,
                            infer_opts,
                        )? {
                            crate::infer::InferredInvariant::Found { invariant, .. } => invariant,
                            crate::infer::InferredInvariant::NoFixpoint { .. } => {
                                return Err(VerifError::MissingInvariant)
                            }
                        }
                    }
                    None => return Err(VerifError::MissingInvariant),
                };
                let br = self.branch_projectors(meas, qubits)?;
                // Φ = P⁰(Ψ) + P¹(Θ_inv): the (While)-rule precondition.
                let phi = br
                    .sandwich0(post, n)
                    .sum_pairwise(&br.sandwich1(&inv, n))?
                    .check_size(self.opts.max_set)?;
                let body_ann = self.go_child(0, body, &phi)?;
                // Invariant validity: Θ_inv ⊑_inf wlp.body.Φ.
                match inv.le_inf_cached(&body_ann.pre, self.opts.lowner, self.cache)? {
                    Verdict::Holds => {}
                    Verdict::Violated(v) => {
                        return Err(VerifError::InvalidInvariant {
                            details: format!(
                                "{{ inv }} <= {{ wlp of loop body }} fails with \
                                 margin {:.3e} (loop {loop_id}, at {})",
                                v.margin,
                                self.span()
                            ),
                        })
                    }
                    Verdict::Inconclusive { lower, upper, .. } => {
                        return Err(VerifError::Inconclusive {
                            details: format!(
                                "invariant comparison unresolved in [{lower:.3e}, {upper:.3e}]"
                            ),
                        })
                    }
                }
                if self.opts.mode == Mode::Total {
                    let cert = self
                        .rankings
                        .get(loop_id)
                        .ok_or(VerifError::MissingRanking)?;
                    // The ranking checker is a per-loop side condition, not
                    // the per-statement hot path; it takes the embedded P¹.
                    self.check_ranking(cert, &phi, body, &br.embedded_p1(n))?;
                }
                Ok(Annotated {
                    pre: phi,
                    node: AnnotatedNode::While {
                        meas: meas.clone(),
                        qubits: qubits.clone(),
                        loop_id: *loop_id,
                        invariant: inv,
                        body: Box::new(body_ann),
                    },
                })
            }
        }
    }

    /// Resolves the branch projectors `P⁰`, `P¹` of a measurement in
    /// *local form* — native dimension plus footprint — for the strided
    /// sandwich kernels.
    fn branch_projectors(
        &self,
        meas: &str,
        qubits: &[String],
    ) -> Result<BranchProjectors, VerifError> {
        let m = self.lib.measurement(meas)?;
        let pos = self.reg.positions(qubits)?;
        if m.n_qubits() != pos.len() {
            return Err(VerifError::ArityMismatch {
                op: meas.to_string(),
                expected: m.n_qubits(),
                got: pos.len(),
            });
        }
        Ok(BranchProjectors {
            p0: m.p0().clone(),
            p1: m.p1().clone(),
            pos,
        })
    }

    /// Discharges a [`RankingCertificate`] via [`crate::ranking::check_ranking`].
    fn check_ranking(
        &self,
        cert: &RankingCertificate,
        phi: &Assertion,
        body: &TStmt,
        p1: &CMat,
    ) -> Result<(), VerifError> {
        crate::ranking::check_ranking(
            cert,
            phi,
            &untag(body),
            p1,
            self.lib,
            self.reg,
            self.opts.lowner,
        )
    }
}

/// Stable span name for a statement node (the wp span's `name`).
fn stmt_kind(stmt: &TStmt) -> &'static str {
    match stmt {
        TStmt::Skip => "skip",
        TStmt::Abort => "abort",
        TStmt::Assert(_) => "assert",
        TStmt::Init(_) => "init",
        TStmt::Unitary(_, _) => "unitary",
        TStmt::Seq(_) => "seq",
        TStmt::NDet(_, _) => "ndet",
        TStmt::If { .. } => "if",
        TStmt::While { .. } => "while",
    }
}

/// The statement's local register footprint — how many qubits its
/// operator touches — for the statements that have one.
fn stmt_footprint(stmt: &TStmt) -> Option<usize> {
    match stmt {
        TStmt::Init(qubits) | TStmt::Unitary(qubits, _) => Some(qubits.len()),
        TStmt::If { qubits, .. } | TStmt::While { qubits, .. } => Some(qubits.len()),
        _ => None,
    }
}

/// Whether any `while` loop occurs in the subterm.
fn contains_while(stmt: &TStmt) -> bool {
    match stmt {
        TStmt::While { .. } => true,
        TStmt::Seq(items) => items.iter().any(contains_while),
        TStmt::NDet(a, b) => contains_while(a) || contains_while(b),
        TStmt::If {
            then_branch,
            else_branch,
            ..
        } => contains_while(then_branch) || contains_while(else_branch),
        _ => false,
    }
}

/// Reconstructs a plain [`Stmt`] from the tagged tree (for semantics calls).
fn untag(stmt: &TStmt) -> Stmt {
    match stmt {
        TStmt::Skip => Stmt::Skip,
        TStmt::Abort => Stmt::Abort,
        TStmt::Assert(a) => Stmt::Assert(a.clone()),
        TStmt::Init(q) => Stmt::Init { qubits: q.clone() },
        TStmt::Unitary(q, op) => Stmt::Unitary {
            qubits: q.clone(),
            op: op.clone(),
        },
        TStmt::Seq(items) => Stmt::Seq(items.iter().map(untag).collect()),
        TStmt::NDet(a, b) => Stmt::NDet(Box::new(untag(a)), Box::new(untag(b))),
        TStmt::If {
            meas,
            qubits,
            then_branch,
            else_branch,
        } => Stmt::If {
            meas: meas.clone(),
            qubits: qubits.clone(),
            then_branch: Box::new(untag(then_branch)),
            else_branch: Box::new(untag(else_branch)),
        },
        TStmt::While {
            meas,
            qubits,
            invariant,
            body,
            ..
        } => Stmt::While {
            meas: meas.clone(),
            qubits: qubits.clone(),
            invariant: invariant.clone(),
            body: Box::new(untag(body)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_lang::{parse_stmt, OpApp};
    use nqpv_linalg::{CVec, TOL};
    use nqpv_quantum::ket;

    fn setup(names: &[&str]) -> (OperatorLibrary, Register) {
        (
            OperatorLibrary::with_builtins(),
            Register::new(names).unwrap(),
        )
    }

    fn no_rankings() -> HashMap<usize, RankingCertificate> {
        HashMap::new()
    }

    #[test]
    fn unit_rule_is_adjoint_conjugation() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("[q] *= H").unwrap();
        // post = P0 ⇒ pre = H†P0H = |+⟩⟨+|.
        let post = Assertion::from_expr(
            &nqpv_lang::AssertionExpr::singleton(OpApp::new("P0", &["q"])),
            &lib,
            &reg,
        )
        .unwrap();
        let pre =
            precondition(&s, &post, &lib, &reg, VcOptions::default(), &no_rankings()).unwrap();
        assert_eq!(pre.len(), 1);
        let plus = ket("+").projector();
        assert!(pre.ops()[0].approx_eq(&plus, TOL));
    }

    #[test]
    fn init_rule_matches_fig5_formula() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("[q] := 0").unwrap();
        // xp.(q:=0).M = Σ_i |i⟩⟨0| M |0⟩⟨i| = ⟨0|M|0⟩·I (1 qubit).
        let m = ket("+").projector();
        let post = Assertion::from_ops(2, vec![m.clone()]).unwrap();
        let pre =
            precondition(&s, &post, &lib, &reg, VcOptions::default(), &no_rankings()).unwrap();
        let expected = CMat::identity(2).scale_re(m[(0, 0)].re);
        assert!(pre.ops()[0].approx_eq(&expected, TOL));
    }

    #[test]
    fn abort_differs_between_modes() {
        let (lib, reg) = setup(&["q"]);
        let s = Stmt::Abort;
        let post = Assertion::zero(2);
        let wlp = precondition(
            &s,
            &post,
            &lib,
            &reg,
            VcOptions {
                mode: Mode::Partial,
                ..VcOptions::default()
            },
            &no_rankings(),
        )
        .unwrap();
        assert!(wlp.ops()[0].approx_eq(&CMat::identity(2), TOL));
        let wp = precondition(
            &s,
            &post,
            &lib,
            &reg,
            VcOptions {
                mode: Mode::Total,
                ..VcOptions::default()
            },
            &no_rankings(),
        )
        .unwrap();
        assert!(wp.ops()[0].is_zero(TOL));
    }

    #[test]
    fn ndet_takes_union() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("( skip # [q] *= X )").unwrap();
        let post = Assertion::from_expr(
            &nqpv_lang::AssertionExpr::singleton(OpApp::new("P0", &["q"])),
            &lib,
            &reg,
        )
        .unwrap();
        let pre =
            precondition(&s, &post, &lib, &reg, VcOptions::default(), &no_rankings()).unwrap();
        // {P0, X P0 X = P1}.
        assert_eq!(pre.len(), 2);
    }

    #[test]
    fn if_rule_combines_branch_preconditions() {
        let (lib, reg) = setup(&["q"]);
        // if M01 then X else skip: post P0.
        let s = parse_stmt("if M01[q] then [q] *= X else skip end").unwrap();
        let post = Assertion::from_expr(
            &nqpv_lang::AssertionExpr::singleton(OpApp::new("P0", &["q"])),
            &lib,
            &reg,
        )
        .unwrap();
        let pre =
            precondition(&s, &post, &lib, &reg, VcOptions::default(), &no_rankings()).unwrap();
        // pre = P1(X†P0X)P1 + P0(P0)P0 = P1·P1·P1 + P0 = P1 + P0 = I.
        assert_eq!(pre.len(), 1);
        assert!(pre.ops()[0].approx_eq(&CMat::identity(2), 1e-9));
    }

    #[test]
    fn wp_duality_on_random_loopfree_programs() {
        // tr(wlp.S.M · ρ) vs Exp over semantics: for deterministic S the
        // identity tr(E†(M)ρ) = tr(M·E(ρ)) must hold; for nondeterministic
        // sets, the wlp set elements must each correspond to a semantic
        // branch (Lemma A.1(2) for wlp: E†(M) + I - E†(I)).
        let (lib, reg) = setup(&["q1", "q2"]);
        let srcs = [
            "[q1] *= H; [q1 q2] *= CX",
            "if M01[q1] then [q2] *= X else [q2] *= H end",
            "[q1] := 0; ( skip # [q1] *= X )",
        ];
        for src in srcs {
            let s = parse_stmt(src).unwrap();
            let m = ket("00").projector();
            let post = Assertion::from_ops(4, vec![m.clone()]).unwrap();
            let opts = VcOptions {
                mode: Mode::Total,
                ..VcOptions::default()
            };
            let pre = precondition(&s, &post, &lib, &reg, opts, &no_rankings()).unwrap();
            let sem = nqpv_semantics::denote(&s, &lib, &reg).unwrap();
            // wp set = {E†(M) : E ∈ [[S]]} (Lemma A.1(1)): same cardinality
            // after dedupe and pointwise agreement of expectations.
            let rho = ket("++").projector();
            let wp_vals: Vec<f64> = pre.ops().iter().map(|w| w.trace_product(&rho).re).collect();
            let sem_vals: Vec<f64> = sem
                .iter()
                .map(|e| e.apply(&rho).trace_product(&m).re)
                .collect();
            for sv in &sem_vals {
                assert!(
                    wp_vals.iter().any(|wv| (wv - sv).abs() < 1e-8),
                    "{src}: semantic value {sv} missing from wp values {wp_vals:?}"
                );
            }
        }
    }

    #[test]
    fn while_requires_invariant() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("while M01[q] do [q] *= H end").unwrap();
        let post = Assertion::identity(2);
        let err =
            precondition(&s, &post, &lib, &reg, VcOptions::default(), &no_rankings()).unwrap_err();
        assert!(matches!(err, VerifError::MissingInvariant));
    }

    #[test]
    fn qwalk_invariant_is_accepted_and_p0_rejected() {
        let (mut lib, reg) = {
            let (l, r) = setup(&["q1", "q2"]);
            (l, r)
        };
        // invN = [|00⟩] + [(|01⟩+|11⟩)/√2] as a single predicate (sum of two
        // orthogonal rank-1 projectors).
        let n00 = ket("00").projector();
        let v = CVec::new(vec![
            nqpv_linalg::cr(0.0),
            nqpv_linalg::cr(std::f64::consts::FRAC_1_SQRT_2),
            nqpv_linalg::cr(0.0),
            nqpv_linalg::cr(std::f64::consts::FRAC_1_SQRT_2),
        ]);
        let inv_n = n00.add_mat(&v.projector());
        lib.insert_predicate("invN", inv_n).unwrap();
        let src = "{ inv : invN[q1 q2] }; while MQWalk[q1 q2] do \
                   ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end";
        let s = parse_stmt(src).unwrap();
        let post = Assertion::zero(4);
        let pre =
            precondition(&s, &post, &lib, &reg, VcOptions::default(), &no_rankings()).unwrap();
        // Φ = P⁰(0) + P¹(invN) = invN (its support avoids |10⟩).
        assert_eq!(pre.len(), 1);
        // Now the paper's Sec. 6.2 error scenario: invariant P0[q1] fails.
        let bad_src = "{ inv : P0[q1] }; while MQWalk[q1 q2] do \
                       ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end";
        let bad = parse_stmt(bad_src).unwrap();
        let err = precondition(
            &bad,
            &post,
            &lib,
            &reg,
            VcOptions::default(),
            &no_rankings(),
        )
        .unwrap_err();
        assert!(
            matches!(err, VerifError::InvalidInvariant { .. }),
            "got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("not a valid loop invariant"), "{msg}");
    }

    #[test]
    fn total_mode_requires_and_checks_rankings() {
        let (lib, reg) = setup(&["q"]);
        // Repeat-until-success: continue on outcome 1, body H.
        let src = "{ inv : I[q] }; while M01[q] do [q] *= H end";
        let s = parse_stmt(src).unwrap();
        let post = Assertion::identity(2);
        let opts = VcOptions {
            mode: Mode::Total,
            ..VcOptions::default()
        };
        // Missing ranking.
        let err = precondition(&s, &post, &lib, &reg, opts, &no_rankings()).unwrap_err();
        assert!(matches!(err, VerifError::MissingRanking));
        // Valid geometric ranking: R_0 = I, R_1 = |1⟩⟨1|, γ = 1/2.
        let mut rankings = HashMap::new();
        rankings.insert(
            0,
            RankingCertificate {
                prefix: vec![CMat::identity(2), ket("1").projector()],
                tail_factor: 0.5,
            },
        );
        let pre = precondition(&s, &post, &lib, &reg, opts, &rankings).unwrap();
        // Φ = P0(I) + P1(I) = I.
        assert!(pre.ops()[0].approx_eq(&CMat::identity(2), 1e-9));
        // Invalid ranking: non-decreasing prefix.
        let mut bad = HashMap::new();
        bad.insert(
            0,
            RankingCertificate {
                prefix: vec![ket("1").projector(), CMat::identity(2)],
                tail_factor: 0.5,
            },
        );
        let err2 = precondition(&s, &post, &lib, &reg, opts, &bad).unwrap_err();
        assert!(matches!(err2, VerifError::InvalidRanking { .. }));
        // Invalid ranking: tail factor ≥ 1.
        let mut bad2 = HashMap::new();
        bad2.insert(
            0,
            RankingCertificate {
                prefix: vec![CMat::identity(2), ket("1").projector()],
                tail_factor: 1.0,
            },
        );
        let err3 = precondition(&s, &post, &lib, &reg, opts, &bad2).unwrap_err();
        assert!(matches!(err3, VerifError::InvalidRanking { .. }));
    }

    #[test]
    fn nonterminating_loop_rejects_all_rankings() {
        // while M01[q] (continue on 1) do skip: from |1⟩ never terminates,
        // so no valid ranking certificate can exist: P¹∘E†(R_i) = P1 R_i P1
        // must shrink below γR_k, but condition (1) forces R_0 ⊒ Φ ∋ P1
        // mass... concretely any candidate fails.
        let (lib, reg) = setup(&["q"]);
        let src = "{ inv : P1[q] }; while M01[q] do skip end";
        let s = parse_stmt(src).unwrap();
        let post = Assertion::zero(2);
        let opts = VcOptions {
            mode: Mode::Total,
            ..VcOptions::default()
        };
        let mut rankings = HashMap::new();
        rankings.insert(
            0,
            RankingCertificate {
                prefix: vec![CMat::identity(2)],
                tail_factor: 0.9,
            },
        );
        let err = precondition(&s, &post, &lib, &reg, opts, &rankings).unwrap_err();
        assert!(matches!(err, VerifError::InvalidRanking { .. }));
    }

    #[test]
    fn cut_assertions_are_checked() {
        let (lib, reg) = setup(&["q"]);
        // Valid cut: {Pp} before H with post P0 (wlp = |+⟩⟨+| = Pp).
        let ok = parse_stmt("{ Pp[q] }; [q] *= H").unwrap();
        let post = Assertion::from_expr(
            &nqpv_lang::AssertionExpr::singleton(OpApp::new("P0", &["q"])),
            &lib,
            &reg,
        )
        .unwrap();
        assert!(precondition(&ok, &post, &lib, &reg, VcOptions::default(), &no_rankings()).is_ok());
        // Invalid cut: {P1} before H with post P0.
        let bad = parse_stmt("{ P1[q] }; [q] *= H").unwrap();
        let err = precondition(
            &bad,
            &post,
            &lib,
            &reg,
            VcOptions::default(),
            &no_rankings(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifError::CutFailed { .. }));
    }

    #[test]
    fn expired_deadline_stops_the_backward_pass_with_a_span() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("[q] *= H; [q] *= H").unwrap();
        let post = Assertion::identity(2);
        let opts = VcOptions::default().with_deadline(Deadline::after(std::time::Duration::ZERO));
        let err = precondition(&s, &post, &lib, &reg, opts, &no_rankings()).unwrap_err();
        assert!(err.is_timeout(), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("deadline exceeded"), "{msg}");
        // A job's wall-clock budget must not partition the memo caches.
        assert_eq!(
            context_key(&reg, opts),
            context_key(&reg, VcOptions::default())
        );
    }

    #[test]
    fn annotation_structure_records_intermediate_conditions() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("[q] *= H; [q] *= H").unwrap();
        let post = Assertion::from_expr(
            &nqpv_lang::AssertionExpr::singleton(OpApp::new("P0", &["q"])),
            &lib,
            &reg,
        )
        .unwrap();
        let ann = backward(&s, &post, &lib, &reg, VcOptions::default(), &no_rankings()).unwrap();
        // H;H = I so the overall pre is P0 again.
        assert!(ann.pre.ops()[0].approx_eq(&ket("0").projector(), 1e-9));
        match &ann.node {
            AnnotatedNode::Seq(items) => {
                assert_eq!(items.len(), 2);
                // Before the second H the condition is |+⟩⟨+|.
                assert!(items[1].pre.ops()[0].approx_eq(&ket("+").projector(), 1e-9));
            }
            other => panic!("expected Seq, got {other:?}"),
        }
    }
}
