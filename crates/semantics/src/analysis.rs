//! Termination analysis of nondeterministic quantum programs.
//!
//! The paper's verification generalises the termination analyses of
//! Li–Yu–Ying \[12\] and Li–Ying \[11\]; this module recovers those analyses
//! numerically. For a program `S` and input `ρ`, the *termination
//! probability under a scheduler* is the trace of the corresponding
//! output; demonic/angelic termination are the inf/sup over schedulers:
//!
//! ```text
//! pmin(ρ) = inf_{E ∈ [[S]]} tr(E(ρ))     pmax(ρ) = sup_{E ∈ [[S]]} tr(E(ρ))
//! ```
//!
//! Loops are handled by bounded unrolling, so `pmin`/`pmax` are reported as
//! monotone lower bounds (`F_n^η ⪯ [[S]]` pointwise): exact for loop-free
//! programs, converging from below as fuel grows for loops.

use crate::denote::{denote_bounded, DenoteOptions};
use crate::error::SemanticsError;
use nqpv_lang::Stmt;
use nqpv_linalg::CMat;
use nqpv_quantum::{OperatorLibrary, Register};

/// Bounds on the termination probability of `S` from `ρ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminationBounds {
    /// Demonic (guaranteed) termination probability at the analysed depth.
    pub demonic: f64,
    /// Angelic (best-scheduler) termination probability at the analysed
    /// depth.
    pub angelic: f64,
    /// Number of distinct scheduler behaviours examined.
    pub branches: usize,
}

/// Computes depth-bounded termination bounds.
///
/// # Errors
///
/// Propagates semantic-enumeration failures.
///
/// # Examples
///
/// ```
/// use nqpv_lang::parse_stmt;
/// use nqpv_quantum::{ket, OperatorLibrary, Register};
/// use nqpv_semantics::{termination_bounds, DenoteOptions};
///
/// // The RUS loop terminates almost surely: both bounds approach 1.
/// let s = parse_stmt("[q] := 0; [q] *= H; while M01[q] do [q] *= H end").unwrap();
/// let b = termination_bounds(
///     &s,
///     &ket("0").projector(),
///     &OperatorLibrary::with_builtins(),
///     &Register::new(&["q"]).unwrap(),
///     DenoteOptions { loop_depth: 20, ..DenoteOptions::default() },
/// )?;
/// assert!(b.demonic > 0.999);
/// # Ok::<(), nqpv_semantics::SemanticsError>(())
/// ```
pub fn termination_bounds(
    stmt: &Stmt,
    rho: &CMat,
    lib: &OperatorLibrary,
    reg: &Register,
    opts: DenoteOptions,
) -> Result<TerminationBounds, SemanticsError> {
    let set = denote_bounded(stmt, lib, reg, opts)?;
    let mut demonic = f64::INFINITY;
    let mut angelic = f64::NEG_INFINITY;
    for e in &set {
        let p = e.apply(rho).trace_re();
        demonic = demonic.min(p);
        angelic = angelic.max(p);
    }
    Ok(TerminationBounds {
        demonic: demonic.clamp(0.0, 1.0),
        angelic: angelic.clamp(0.0, 1.0),
        branches: set.len(),
    })
}

/// Classification of a program's termination behaviour on an input, in the
/// terminology of Li–Yu–Ying \[12\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationClass {
    /// Terminates with probability ~1 under every scheduler at the
    /// analysed depth.
    AlmostSurelyTerminating,
    /// Some scheduler terminates (within tolerance) but another does not.
    SchedulerDependent,
    /// No scheduler accumulates any terminating mass.
    Diverging,
    /// All schedulers terminate with the same intermediate probability —
    /// undetermined at this depth (increase fuel).
    Undetermined,
}

/// Classifies termination at the analysed depth with tolerance `tol`.
pub fn classify_termination(bounds: TerminationBounds, tol: f64) -> TerminationClass {
    let one = 1.0 - tol;
    if bounds.demonic >= one {
        TerminationClass::AlmostSurelyTerminating
    } else if bounds.angelic <= tol {
        TerminationClass::Diverging
    } else if bounds.angelic >= one && bounds.demonic < one {
        TerminationClass::SchedulerDependent
    } else {
        TerminationClass::Undetermined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_lang::parse_stmt;
    use nqpv_quantum::ket;

    fn setup(names: &[&str]) -> (OperatorLibrary, Register) {
        (
            OperatorLibrary::with_builtins(),
            Register::new(names).unwrap(),
        )
    }

    fn opts(depth: usize) -> DenoteOptions {
        DenoteOptions {
            loop_depth: depth,
            max_set: 4096,
            dedupe: true,
        }
    }

    #[test]
    fn qwalk_diverges_under_every_scheduler() {
        let (lib, reg) = setup(&["q1", "q2"]);
        let s = parse_stmt(
            "[q1 q2] := 0; while MQWalk[q1 q2] do \
             ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end",
        )
        .unwrap();
        let b = termination_bounds(&s, &ket("00").projector(), &lib, &reg, opts(6)).unwrap();
        assert!(
            b.angelic < 1e-9,
            "even the best scheduler must not terminate"
        );
        assert_eq!(classify_termination(b, 1e-6), TerminationClass::Diverging);
    }

    #[test]
    fn rus_terminates_almost_surely() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("[q] := 0; [q] *= H; while M01[q] do [q] *= H end").unwrap();
        let b = termination_bounds(&s, &ket("0").projector(), &lib, &reg, opts(25)).unwrap();
        assert!(b.demonic > 0.9999);
        assert_eq!(
            classify_termination(b, 1e-3),
            TerminationClass::AlmostSurelyTerminating
        );
    }

    #[test]
    fn scheduler_dependent_termination_detected() {
        // body: H (progresses towards exit) □ skip (spins forever).
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("while M01[q] do ( [q] *= H # skip ) end").unwrap();
        let b = termination_bounds(&s, &ket("1").projector(), &lib, &reg, opts(20)).unwrap();
        assert!(b.demonic < 1e-9, "the skip-forever scheduler never exits");
        assert!(b.angelic > 0.999, "the H scheduler exits geometrically");
        assert_eq!(
            classify_termination(b, 1e-3),
            TerminationClass::SchedulerDependent
        );
    }

    #[test]
    fn loop_free_programs_report_exact_trace() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("if M01[q] then abort else skip end").unwrap();
        let b = termination_bounds(&s, &ket("+").projector(), &lib, &reg, opts(4)).unwrap();
        assert!((b.demonic - 0.5).abs() < 1e-10);
        assert!((b.angelic - 0.5).abs() < 1e-10);
        assert_eq!(
            classify_termination(b, 1e-6),
            TerminationClass::Undetermined
        );
    }

    #[test]
    fn deeper_fuel_is_monotone() {
        let (lib, reg) = setup(&["q"]);
        let s = parse_stmt("while M01[q] do [q] *= H end").unwrap();
        let rho = ket("1").projector();
        let mut last = 0.0;
        for depth in [1usize, 3, 6, 12] {
            let b = termination_bounds(&s, &rho, &lib, &reg, opts(depth)).unwrap();
            assert!(b.demonic + 1e-12 >= last, "bounds must be monotone in fuel");
            last = b.demonic;
        }
        assert!(last > 0.99);
    }
}
