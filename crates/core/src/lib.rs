//! # nqpv-core
//!
//! The primary contribution of *Verification of Nondeterministic Quantum
//! Programs* (ASPLOS '23), reproduced in Rust:
//!
//! * [`Assertion`] — finite sets of quantum predicates with the `⊑_inf`
//!   order (paper Sec. 4);
//! * [`backward`]/[`precondition`] — weakest-(liberal-)precondition
//!   transformers and verification-condition generation (Fig. 5, Sec. 6.2),
//!   with loop invariants and [`RankingCertificate`]s (Def. 4.3);
//! * [`proof`] — explicit proof objects for the Hoare logic of Fig. 3 with
//!   a side-condition checker (soundness enforced numerically);
//! * [`verify_proof_term`] — the NQPV verifier: parse-bind-verify into
//!   an annotated proof tree, which [`render_proof`] names and renders
//!   as the tool's proof outline on demand;
//! * [`casestudies`] — the paper's Sec. 5 examples (QEC, Deutsch, QWalk),
//!   Grover for the Sec. 6.5 scaling study, and a repeat-until-success
//!   total-correctness example.

pub mod angelic;
mod assertion;
pub mod cache;
pub mod casestudies;
pub mod correctness;
pub mod derivations;
mod error;
pub mod infer;
mod outline;
pub mod proof;
mod ranking;
pub mod refinement;
mod session;
mod transformer;
mod verifier;

pub use assertion::{Assertion, Factor, Predicate};
pub use cache::{
    decode_verdict, encode_verdict, verdict_key, CacheKey, TransformerCache, VERDICT_KEY_SCHEMA,
    VERDICT_TAG_INF, VERDICT_TAG_SUP,
};
pub use error::VerifError;
pub use outline::{
    render_assertion, render_matrix, render_outline, render_proof, PredicateRegistry,
};
pub use ranking::{check_ranking, RankingCertificate};
pub use session::{Session, SessionError};
pub use transformer::{
    backward, backward_with_cache, precondition, Annotated, AnnotatedNode, Mode, VcOptions,
};
pub use verifier::{
    verify_proof_term, verify_proof_term_with, FailedObligation, VerifyOutcome, VerifyStatus,
};
