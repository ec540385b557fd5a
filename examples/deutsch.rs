//! The Deutsch algorithm as a nondeterministic program (paper Sec. 5.2).
//!
//! The oracle `U_f` is unknown: within each measured branch of the
//! selector qubit `q`, the concrete oracle is a demonic choice between the
//! two functions consistent with that branch. Verification establishes
//! `⊨tot {I} Deutsch {(|00⟩⟨00|+|11⟩⟨11|)_{q,q1}}`: the answer in `q1`
//! agrees with the constant/balanced nature of `f` for *every* choice.
//!
//! Run with: `cargo run --example deutsch`

use nqpv::core::casestudies;
use nqpv::lang::parse_stmt;
use nqpv::linalg::partial_trace;
use nqpv::quantum::{ket, maximally_mixed, OperatorLibrary, Register};
use nqpv::semantics::denote;

fn main() {
    // ----- Verify the Hoare-logic statement ------------------------------
    let study = casestudies::deutsch();
    let outcome = study.verify().expect("verification runs");
    println!("{}", study.outline(&outcome));
    println!(
        "⊨tot {{I}} Deutsch {{(|00⟩⟨00|+|11⟩⟨11|)_(q,q1)}} : {}",
        if outcome.status.verified() {
            "verified"
        } else {
            "REJECTED"
        }
    );
    assert!(outcome.status.verified());

    // ----- Cross-check semantically: run all four oracle choices ---------
    let lib = OperatorLibrary::with_builtins();
    let reg = Register::new(&["q", "q1", "q2"]).expect("register");
    let prog = parse_stmt(
        "[q1 q2] := 0; \
         [q1] *= H; [q2] *= X; [q2] *= H; \
         if M01[q] then ( [q1 q2] *= CX # [q1 q2] *= C0X ) \
         else ( skip # [q2] *= X ) end; \
         [q1] *= H; \
         if M01[q1] then skip else skip end",
    )
    .expect("program parses");
    let branches = denote(&prog, &lib, &reg).expect("loop-free semantics");
    println!("\n[[Deutsch]] contains {} super-operators", branches.len());

    // Feed the selector qubit in |0⟩ (f constant) and |1⟩ (f balanced).
    for (sel, expect_q1, label) in [("0", "0", "constant"), ("1", "1", "balanced")] {
        let input = ket(sel).kron(&ket("00")).projector();
        for e in &branches {
            let out = e.apply(&input);
            // Reduced state of q1 must be |expect⟩⟨expect|.
            let q1_state = partial_trace(&out, &[0, 2], 3);
            let target = ket(expect_q1).projector();
            let fid = target.trace_product(&q1_state).re;
            assert!(
                (fid - 1.0).abs() < 1e-9,
                "oracle branch answered wrongly for {label} f"
            );
        }
        println!("  selector |{sel}⟩ ({label} f): all oracle choices answer q1 = |{expect_q1}⟩");
    }

    // A maximally-mixed selector exercises both branches at once.
    let mm_in = maximally_mixed(1).kron(&ket("00").projector());
    let out = branches[0].apply(&mm_in);
    println!(
        "  mixed selector: output trace {:.6} (trace-preserving as required)",
        out.trace_re()
    );
}
