//! Session driver: executes whole NQPV source files
//! (`def … end` / `show … end`), maintaining the operator library, proof
//! outcomes and the `show` registry — the programmatic face of the CLI.

use crate::cache::TransformerCache;
use crate::error::VerifError;
use crate::outline::{render_matrix, render_proof, PredicateRegistry};
use crate::ranking::RankingCertificate;
use crate::transformer::VcOptions;
use crate::verifier::{verify_proof_term_with, VerifyOutcome};
use nqpv_lang::{parse_source, Command, Decl, ProofTerm, SourceFile};
use nqpv_quantum::OperatorLibrary;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Errors produced while executing a source file.
#[derive(Debug)]
pub enum SessionError {
    /// Parse failure.
    Parse(nqpv_lang::ParseError),
    /// `.npy` load failure.
    Npy(String, nqpv_linalg::NpyError),
    /// Operator registration failure.
    Library(nqpv_quantum::LibraryError),
    /// Verification failure (structural).
    Verify {
        /// The proof's `def` name.
        name: String,
        /// The underlying error.
        error: VerifError,
    },
    /// `show` of an unknown name.
    UnknownShow(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Npy(path, e) => write!(f, "loading '{path}': {e}"),
            SessionError::Library(e) => write!(f, "{e}"),
            SessionError::Verify { name, error } => {
                write!(f, "verifying proof '{name}':\n{error}")
            }
            SessionError::UnknownShow(n) => write!(f, "show: unknown name '{n}'"),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// `true` when the underlying failure is a cooperative-deadline
    /// expiry (see [`VerifError::is_timeout`]) — the batch engine maps
    /// these to `TIMEOUT` verdicts instead of generic errors.
    pub fn is_timeout(&self) -> bool {
        matches!(self, SessionError::Verify { error, .. } if error.is_timeout())
    }
}

/// One proof a [`Session`] verified, with everything it was verified
/// against: diagnosis explains a rejected proof from its record without
/// verifying it again.
#[derive(Debug, Clone)]
pub struct ProofRecord {
    /// The proof's `def` name.
    pub name: String,
    /// The proof term.
    pub term: ProofTerm,
    /// The verification outcome: verdict, violation and annotated tree.
    pub outcome: VerifyOutcome,
    /// The operator library as it stood when the proof ran. A later
    /// `load` that rebinds a name leaves it alone and changes a copy.
    pub lib: Arc<OperatorLibrary>,
}

/// An interactive-style NQPV session.
///
/// Proof outlines are rendered only when something shows them. Verified
/// proofs wait, unnamed, in execution order; the first `show` after them
/// names their predicates and renders their outlines in that order, each
/// against the library it was verified with. So `VARk` numbering is the
/// same as if every proof had been named as it ran, and a session that
/// shows nothing (a batch job) names nothing.
///
/// # Examples
///
/// ```
/// use nqpv_core::Session;
/// let mut session = Session::new();
/// session.run_str(
///     "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end show pf end",
/// )?;
/// assert!(session.outcome("pf").unwrap().status.verified());
/// # Ok::<(), nqpv_core::SessionError>(())
/// ```
pub struct Session {
    /// Shared with the records of the proofs verified against it; a
    /// change while shared copies it (`Arc::make_mut`).
    lib: Arc<OperatorLibrary>,
    registry: PredicateRegistry,
    /// Rendered outlines of named proofs, by proof name.
    outlines: HashMap<String, String>,
    /// Every verified proof, in execution order (shadowed duplicates
    /// included: their names still count).
    records: Vec<ProofRecord>,
    /// `records[named..]` are not named yet.
    named: usize,
    rankings: HashMap<String, HashMap<usize, RankingCertificate>>,
    opts: VcOptions,
    base_dir: PathBuf,
    output: Vec<String>,
    cache: Option<Arc<dyn TransformerCache>>,
    proof_log: Vec<(String, bool)>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("lib", &self.lib)
            .field("registry", &self.registry)
            .field("outlines", &self.outlines)
            .field("records", &self.records)
            .field("named", &self.named)
            .field("rankings", &self.rankings)
            .field("opts", &self.opts)
            .field("base_dir", &self.base_dir)
            .field("output", &self.output)
            .field("proof_log", &self.proof_log)
            .field("cache", &self.cache.as_ref().map(|_| "<shared>"))
            .finish()
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh session with the built-in operator library and default
    /// options.
    pub fn new() -> Self {
        Session {
            lib: Arc::new(OperatorLibrary::with_builtins()),
            registry: PredicateRegistry::new(),
            outlines: HashMap::new(),
            records: Vec::new(),
            named: 0,
            rankings: HashMap::new(),
            opts: VcOptions::default(),
            base_dir: PathBuf::from("."),
            output: Vec::new(),
            cache: None,
            proof_log: Vec::new(),
        }
    }

    /// Overrides the verification options.
    pub fn with_options(mut self, opts: VcOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the directory `.npy` paths are resolved against.
    pub fn with_base_dir<P: Into<PathBuf>>(mut self, dir: P) -> Self {
        self.base_dir = dir.into();
        self
    }

    /// Shares a memo cache for backward-transformer subterm results;
    /// batch drivers hand the same `Arc` to every session so repeated
    /// subterms across a corpus are computed once.
    pub fn with_cache(mut self, cache: Arc<dyn TransformerCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The verification options.
    pub fn options(&self) -> VcOptions {
        self.opts
    }

    /// Mutable access to the operator library (to pre-register operators
    /// programmatically, as tests and examples do). The proofs already
    /// verified keep the library they were verified with.
    pub fn library_mut(&mut self) -> &mut OperatorLibrary {
        Arc::make_mut(&mut self.lib)
    }

    /// Supplies ranking certificates for the loops of a named proof
    /// (keyed by pre-order loop index), for total-correctness runs.
    pub fn set_rankings(&mut self, proof: &str, rankings: HashMap<usize, RankingCertificate>) {
        self.rankings.insert(proof.to_string(), rankings);
    }

    /// Parses and executes NQPV source text.
    ///
    /// # Errors
    ///
    /// Returns the first [`SessionError`] encountered.
    pub fn run_str(&mut self, src: &str) -> Result<(), SessionError> {
        let file = {
            let mut span = self.opts.tracer.span(nqpv_telemetry::Phase::Parse, "parse");
            if span.recording() {
                span.arg("bytes", nqpv_telemetry::ArgValue::U64(src.len() as u64));
            }
            parse_source(src).map_err(SessionError::Parse)?
        };
        self.run(&file)
    }

    /// Executes a parsed source file.
    ///
    /// # Errors
    ///
    /// Returns the first [`SessionError`] encountered.
    pub fn run(&mut self, file: &SourceFile) -> Result<(), SessionError> {
        for cmd in &file.commands {
            match cmd {
                Command::Def(Decl::LoadOperator { name, path }) => {
                    let full = self.base_dir.join(path);
                    let m = nqpv_linalg::read_matrix(&full)
                        .map_err(|e| SessionError::Npy(path.clone(), e))?;
                    // Copies the library only if a verified proof still
                    // holds it.
                    Arc::make_mut(&mut self.lib)
                        .insert_auto(name, m)
                        .map_err(SessionError::Library)?;
                }
                Command::Def(Decl::Proof { name, term }) => {
                    // One span per proof: brackets the whole wp+solver
                    // cascade so a multi-proof file's trace shows where
                    // each proof's time went.
                    let mut span = self.opts.tracer.span(nqpv_telemetry::Phase::Other, "proof");
                    if span.recording() {
                        span.arg("name", nqpv_telemetry::ArgValue::Str(name.clone()));
                        span.arg(
                            "qubits",
                            nqpv_telemetry::ArgValue::U64(term.qubits.len() as u64),
                        );
                    }
                    let empty = HashMap::new();
                    let rankings = self.rankings.get(name).unwrap_or(&empty);
                    let outcome = verify_proof_term_with(
                        term,
                        &self.lib,
                        self.opts,
                        rankings,
                        self.cache.as_deref(),
                    )
                    .map_err(|error| SessionError::Verify {
                        name: name.clone(),
                        error,
                    })?;
                    self.proof_log
                        .push((name.clone(), outcome.status.verified()));
                    self.records.push(ProofRecord {
                        name: name.clone(),
                        term: term.clone(),
                        outcome,
                        lib: self.lib.clone(),
                    });
                }
                Command::Show(name) => {
                    let text = self.show(name)?;
                    self.output.push(text);
                }
            }
        }
        Ok(())
    }

    /// Renders a proof outline or an operator matrix by name.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::UnknownShow`] for unresolved names.
    pub fn show(&mut self, name: &str) -> Result<String, SessionError> {
        self.name_pending();
        if let Some(text) = self.outlines.get(name) {
            return Ok(text.clone());
        }
        if let Some(m) = self.registry.matrix(name) {
            return Ok(render_matrix(name, m));
        }
        if let Some(op) = self.lib.get(name) {
            return Ok(match op {
                nqpv_quantum::LibOp::Unitary(u) => render_matrix(name, u),
                nqpv_quantum::LibOp::Predicate(m, _) => render_matrix(name, m),
                nqpv_quantum::LibOp::Measurement(meas) => {
                    format!("{name}.P0 =\n{}\n{name}.P1 =\n{}", meas.p0(), meas.p1())
                }
            });
        }
        Err(SessionError::UnknownShow(name.to_string()))
    }

    /// The outcome for a named proof, if it has been verified.
    /// With duplicate `def` names, later proofs shadow earlier ones;
    /// [`Session::proof_verdicts`] keeps every run in order.
    pub fn outcome(&self, name: &str) -> Option<&VerifyOutcome> {
        self.records
            .iter()
            .rev()
            .find(|r| r.name == name)
            .map(|r| &r.outcome)
    }

    /// Every proof this session has verified, in execution order, with
    /// its verdict — the per-proof record batch drivers and the CLI
    /// report from (robust to duplicate proof names, unlike the
    /// name-keyed [`Session::outcome`]).
    pub fn proof_verdicts(&self) -> &[(String, bool)] {
        &self.proof_log
    }

    /// Every proof this session has verified, in execution order, with
    /// what it was verified against.
    pub fn proof_records(&self) -> &[ProofRecord] {
        &self.records
    }

    /// Output accumulated by `show` commands, in order.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Names the predicates of every pending proof in execution order,
    /// keeping the outline of each proof its name still refers to.
    fn name_pending(&mut self) {
        for (i, record) in self.records.iter().enumerate().skip(self.named) {
            let text = render_proof(
                &record.term,
                &record.lib,
                &record.outcome,
                &mut self.registry,
                self.opts.tracer,
            );
            if !self.records[i + 1..].iter().any(|r| r.name == record.name) {
                self.outlines.insert(record.name.clone(), text);
            }
        }
        self.named = self.records.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_a_simple_proof_and_show() {
        let mut s = Session::new();
        s.run_str("def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end\nshow pf end")
            .unwrap();
        assert!(s.outcome("pf").unwrap().status.verified());
        assert_eq!(s.output().len(), 1);
        assert!(s.output()[0].contains("proof [q]"));
    }

    #[test]
    fn show_library_operators_and_measurements() {
        let mut s = Session::new();
        assert!(s.show("H").unwrap().contains("0.7071"));
        let m01 = s.show("M01").unwrap();
        assert!(m01.contains("M01.P0"));
        assert!(m01.contains("M01.P1"));
        assert!(matches!(s.show("NOPE"), Err(SessionError::UnknownShow(_))));
    }

    #[test]
    fn load_command_reads_npy_files() {
        let dir = std::env::temp_dir().join("nqpv_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m = nqpv_quantum::gates::h();
        nqpv_linalg::write_matrix(dir.join("had.npy"), &m).unwrap();
        let mut s = Session::new().with_base_dir(&dir);
        s.run_str("def MyH := load \"had.npy\" end").unwrap();
        assert!(s.library_mut().unitary("MyH").is_ok());
        // Broken path errors out.
        let mut s2 = Session::new().with_base_dir(&dir);
        let err = s2.run_str("def Q := load \"missing.npy\" end").unwrap_err();
        assert!(matches!(err, SessionError::Npy(_, _)));
    }

    #[test]
    fn structural_errors_carry_the_proof_name() {
        let mut s = Session::new();
        let err = s
            .run_str("def broken := proof [q] : { I[q] }; [q] *= NOPE; { I[q] } end")
            .unwrap_err();
        match err {
            SessionError::Verify { name, .. } => assert_eq!(name, "broken"),
            other => panic!("expected verify error, got {other}"),
        }
    }

    #[test]
    fn failed_precondition_shows_error_in_outline() {
        let mut s = Session::new();
        s.run_str("def pf := proof [q] : { P1[q] }; [q] *= H; { P0[q] } end\nshow pf end")
            .unwrap();
        assert!(!s.outcome("pf").unwrap().status.verified());
        assert!(s.output()[0].contains("Order relation not satisfied"));
    }

    #[test]
    fn pending_proofs_are_named_before_the_library_changes() {
        // `pf` is verified against the built-in P1 = |1⟩⟨1|. Rebinding P1
        // afterwards must not change how `pf`'s predicates are named.
        let mut s = Session::new();
        s.run_str("def pf := proof [q] : { P0[q] }; [q] *= X; { P1[q] } end")
            .unwrap();
        let half = nqpv_linalg::CMat::identity(2).scale_re(0.5);
        s.library_mut().insert_predicate("P1", half).unwrap();
        let outline = s.show("pf").unwrap();
        assert!(
            outline.contains("{ P0[q] }; // the Veri. Con."),
            "{outline}"
        );
        let p1 = s.show("P1").unwrap();
        assert!(p1.contains("[0.0000, 0.0000]\n[0.0000, 1.0000]"), "{p1}");
    }
}
