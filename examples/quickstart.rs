//! Quickstart: verify the paper's headline example in a few lines.
//!
//! The three-qubit bit-flip error-correction scheme (paper Ex. 3.1,
//! Sec. 5.1) is a nondeterministic quantum program — the unknown error is
//! a four-way demonic choice. The verifier establishes total correctness:
//! `⊨tot {[ψ]_q} ErrCorr {[ψ]_q}` — whatever the adversary flips, the
//! logical qubit survives.
//!
//! Run with: `cargo run --example quickstart`

use nqpv::core::casestudies;

fn main() {
    let study = casestudies::err_corr(0.6, 0.8);
    println!("case study : {}", study.name);
    println!("statement  : {}", study.description);
    println!();

    let outcome = study.verify().expect("verification runs");
    println!("{}", study.outline(&outcome));
    println!(
        "result     : {}",
        if outcome.status.verified() {
            "VERIFIED — the error-corrected qubit is preserved under every nondeterministic error"
        } else {
            "REJECTED"
        }
    );

    // The computed weakest precondition is exactly [ψ]⊗I⊗I: the scheme is
    // not just sufficient but tight.
    let wp = &outcome.computed_pre;
    println!(
        "computed wp: {} predicate(s), first diagonal entry {:.3}",
        wp.len(),
        wp.ops()[0][(0, 0)].re
    );
    assert!(outcome.status.verified());
}
