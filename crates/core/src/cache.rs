//! Memoisation hook for the backward weakest-precondition transformer.
//!
//! Corpus-level drivers (the `nqpv-engine` batch engine) repeatedly verify
//! programs that share subterms — the same Grover iteration, the same QEC
//! syndrome block, byte-identical files. The backward pass is compositional
//! (`wlp.(S1;S2).Ψ = wlp.S1.(wlp.S2.Ψ)`), so the annotated result of any
//! subterm is fully determined by
//!
//! * the subterm's structure with every operator name resolved to its
//!   concrete matrix,
//! * the postcondition assertion it is pushed through,
//! * the register layout, and
//! * the verification options (mode, set bound, solver tolerances).
//!
//! [`TransformerCache`] abstracts a content-addressed store over exactly
//! that key. `nqpv-core` stays dependency-free: it only *consults* a cache
//! handed in by the caller (see [`crate::backward_with_cache`]); the
//! concurrent implementation with hit/miss accounting lives in
//! `nqpv-engine`.
//!
//! Correctness note: results for subterms containing `while` are only
//! cached in partial-correctness mode — in total mode loop verification
//! additionally depends on externally supplied ranking certificates keyed
//! by loop id, which are not part of the cache key.

use crate::transformer::Annotated;
use nqpv_solver::{LownerOptions, Verdict, Violation};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// Content hash identifying a `(subterm, postcondition, context)` triple.
///
/// 128 bits assembled from two independently seeded 64-bit hashers, so
/// accidental collisions across a corpus run are negligible.
pub type CacheKey = u128;

/// A memo store for annotated backward-pass results.
///
/// Implementations must be thread-safe: the batch engine shares one cache
/// across its whole worker pool. `get` returning a clone (rather than a
/// reference) keeps the trait object-safe and lock scopes small.
pub trait TransformerCache: Send + Sync {
    /// Looks up the annotated result for `key`, cloning on hit.
    fn get(&self, key: CacheKey) -> Option<Annotated>;

    /// Offers the annotated result computed for `key`. An implementation
    /// may decline to store it (the engine's `MemoCache` admits a key
    /// only on its second offer), so callers must not assume a later
    /// `get` hits; a miss just recomputes the same result.
    fn put(&self, key: CacheKey, value: &Annotated);

    /// Looks up a memoised `⊑_inf`/`⊑_sup` solver verdict for `key` — the
    /// second cache tier. Keys are content hashes of `(Θ, Ψ, ε/options)`
    /// (see [`verdict_key`]), so verdicts are shared across programs,
    /// registers and batch jobs whenever the same operator sets recur.
    /// The default implementation caches nothing.
    fn get_verdict(&self, _key: CacheKey) -> Option<Verdict> {
        None
    }

    /// Stores a solver verdict for `key`. The default implementation
    /// drops it.
    fn put_verdict(&self, _key: CacheKey, _verdict: &Verdict) {}
}

/// Content key of a `⊑_inf`/`⊑_sup` query: the operator content of both
/// assertion sides plus every solver option that can influence the verdict.
/// Order within each side matters (the solver reports witness indices), so
/// the sides are hashed in sequence.
///
/// Dense predicates hash their exact bits. Factored predicates hash the
/// **quantised canonical factor** ([`crate::assertion::Factor::canonical`],
/// rounded at [`VERDICT_KEY_QUANT`]): different factorings of the same
/// operator — e.g. the same invariant reached through different transform
/// orders, or loaded in different jobs — produce the same key, so the
/// verdict tier (and its on-disk backend) is representation-independent.
/// Diagonal predicates hash the exact bits of their diagonal under a tag
/// of their own. The dense operator is never materialised to build a
/// key. Quantisation can only conflate operators equal to ~10⁻⁹
/// entry-wise, three orders below the default solver precision, where
/// the verdicts coincide anyway.
pub fn verdict_key(
    tag: u8,
    theta: &crate::assertion::Assertion,
    psi: &crate::assertion::Assertion,
    opts: &LownerOptions,
) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_u8(tag);
    // Every LownerOptions field influences the verdict; the Debug rendering
    // covers them all (f64 Debug is shortest-roundtrip, so distinct values
    // always render apart).
    h.write_str(&format!("{opts:?}"));
    h.write_usize(theta.len());
    for m in theta.ops() {
        h.write_predicate_canonical(m);
    }
    h.write_usize(psi.len());
    for m in psi.ops() {
        h.write_predicate_canonical(m);
    }
    h.finish()
}

/// Tag byte for `⊑_inf` verdict keys.
pub const VERDICT_TAG_INF: u8 = 0x1F;
/// Tag byte for `⊑_sup` verdict keys.
pub const VERDICT_TAG_SUP: u8 = 0x2F;

/// Quantisation scale for canonical-factor entries in verdict keys: entries
/// are rounded to multiples of `1/VERDICT_KEY_QUANT` before hashing.
pub const VERDICT_KEY_QUANT: f64 = 1e9;

/// Version of the verdict-key hashing scheme. Persistent verdict stores
/// (the engine's disk cache) record this alongside their own layout
/// version: keys computed under a different schema address different
/// content and must not be mixed.
pub const VERDICT_KEY_SCHEMA: u32 = 2;

// ---------------------------------------------------------------------------
// Serialisable verdict records
// ---------------------------------------------------------------------------

/// Magic prefix of an encoded verdict record (see [`encode_verdict`]).
pub const VERDICT_RECORD_MAGIC: [u8; 4] = *b"NQVD";
/// Format version of encoded verdict records.
pub const VERDICT_RECORD_VERSION: u8 = 1;

/// 64-bit FNV-1a — the integrity checksum on encoded verdict records.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes a solver [`Verdict`] as a small, self-validating byte record:
/// magic + version + variant payload + FNV-1a checksum, all little-endian.
/// `Holds` records are 17 bytes; `Violated` records carry the witness
/// density matrix so a persisted violation replays with its evidence.
/// This is the value format of the engine's on-disk verdict cache
/// (cross-run persistence was the ROADMAP's stated reason to persist the
/// verdict tier first — the records are tiny and content-keyed).
pub fn encode_verdict(v: &Verdict) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&VERDICT_RECORD_MAGIC);
    out.push(VERDICT_RECORD_VERSION);
    match v {
        Verdict::Holds => out.push(0),
        Verdict::Violated(w) => {
            out.push(1);
            out.extend_from_slice(&(w.index as u64).to_le_bytes());
            out.extend_from_slice(&w.margin.to_le_bytes());
            out.extend_from_slice(&(w.witness.rows() as u64).to_le_bytes());
            out.extend_from_slice(&(w.witness.cols() as u64).to_le_bytes());
            for z in w.witness.as_slice() {
                out.extend_from_slice(&z.re.to_le_bytes());
                out.extend_from_slice(&z.im.to_le_bytes());
            }
        }
        Verdict::Inconclusive {
            index,
            lower,
            upper,
        } => {
            out.push(2);
            out.extend_from_slice(&(*index as u64).to_le_bytes());
            out.extend_from_slice(&lower.to_le_bytes());
            out.extend_from_slice(&upper.to_le_bytes());
        }
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes a record produced by [`encode_verdict`]. Returns `None` on any
/// structural problem — bad magic, unknown version or variant, truncation,
/// trailing bytes, checksum mismatch, or an implausible witness shape —
/// so corrupt or stale cache files degrade to a miss, never a panic.
pub fn decode_verdict(bytes: &[u8]) -> Option<Verdict> {
    const TRAILER: usize = 8;
    if bytes.len() < VERDICT_RECORD_MAGIC.len() + 2 + TRAILER {
        return None;
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - TRAILER);
    let sum = u64::from_le_bytes(sum_bytes.try_into().ok()?);
    if fnv1a(body) != sum {
        return None;
    }
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let s = body.get(*pos..*pos + n)?;
        *pos += n;
        Some(s)
    };
    let take_u64 = |pos: &mut usize| -> Option<u64> {
        Some(u64::from_le_bytes(take(pos, 8)?.try_into().ok()?))
    };
    let take_f64 = |pos: &mut usize| -> Option<f64> { Some(f64::from_bits(take_u64(pos)?)) };
    if take(&mut pos, 4)? != VERDICT_RECORD_MAGIC {
        return None;
    }
    if take(&mut pos, 1)? != [VERDICT_RECORD_VERSION] {
        return None;
    }
    let verdict = match take(&mut pos, 1)?[0] {
        0 => Verdict::Holds,
        1 => {
            let index = take_u64(&mut pos)? as usize;
            let margin = take_f64(&mut pos)?;
            let rows = take_u64(&mut pos)? as usize;
            let cols = take_u64(&mut pos)? as usize;
            let n = rows.checked_mul(cols)?;
            // Plausibility bound: witnesses are register-sized density
            // matrices; refuse absurd allocations from corrupt headers.
            if n > (1usize << 24) {
                return None;
            }
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                let re = take_f64(&mut pos)?;
                let im = take_f64(&mut pos)?;
                data.push(nqpv_linalg::c(re, im));
            }
            let witness = nqpv_linalg::CMat::from_fn(rows, cols, |i, j| data[i * cols + j]);
            Verdict::Violated(Violation {
                index,
                witness,
                margin,
            })
        }
        2 => Verdict::Inconclusive {
            index: take_u64(&mut pos)? as usize,
            lower: take_f64(&mut pos)?,
            upper: take_f64(&mut pos)?,
        },
        _ => return None,
    };
    (pos == body.len()).then_some(verdict)
}

/// Double-width streaming hasher used to build [`CacheKey`]s.
///
/// Feeds every byte into two `DefaultHasher`s initialised with different
/// prefixes; `finish` concatenates their outputs. Deterministic within a
/// process, which is all an in-memory memo cache needs.
pub(crate) struct KeyHasher {
    a: DefaultHasher,
    b: DefaultHasher,
}

impl KeyHasher {
    pub(crate) fn new() -> Self {
        let mut a = DefaultHasher::new();
        let mut b = DefaultHasher::new();
        a.write_u8(0xA5);
        b.write_u8(0x5A);
        KeyHasher { a, b }
    }

    pub(crate) fn write_u8(&mut self, v: u8) {
        self.a.write_u8(v);
        self.b.write_u8(v);
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.a.write_u64(v);
        self.b.write_u64(v);
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.a.write(s.as_bytes());
        self.b.write(s.as_bytes());
    }

    /// Exact-bits hash of a float (canonicalising `-0.0` to `0.0`).
    pub(crate) fn write_f64(&mut self, x: f64) {
        self.write_u64((x + 0.0).to_bits());
    }

    /// Exact-bits hash of a complex matrix, dimensions included.
    pub(crate) fn write_matrix(&mut self, m: &nqpv_linalg::CMat) {
        self.write_usize(m.rows());
        self.write_usize(m.cols());
        for z in m.as_slice() {
            self.write_f64(z.re);
            self.write_f64(z.im);
        }
    }

    /// Quantised hash of a complex matrix: each component is rounded to a
    /// multiple of `1/scale` before hashing, so values within rounding
    /// noise of each other (but not near a rounding boundary) hash
    /// together. Used for canonical-factor keys, where entries are
    /// reproducible across representations only up to numerical noise.
    pub(crate) fn write_matrix_quantised(&mut self, m: &nqpv_linalg::CMat, scale: f64) {
        self.write_usize(m.rows());
        self.write_usize(m.cols());
        for z in m.as_slice() {
            // `+ 0.0` canonicalises `-0.0`; round-half-away matches the
            // fingerprint quantiser elsewhere in the stack.
            self.write_u64(((z.re * scale).round() + 0.0).to_bits());
            self.write_u64(((z.im * scale).round() + 0.0).to_bits());
        }
    }

    /// Exact-bits hash of a real diagonal under the diagonal tag, length
    /// included: the key of a diagonal predicate in both cache tiers.
    fn write_diagonal(&mut self, d: &[f64]) {
        self.write_u8(0xDA);
        self.write_usize(d.len());
        for &x in d {
            self.write_f64(x);
        }
    }

    /// Exact-bits hash of a predicate: dense matrices, factored forms and
    /// diagonals hash their own representation (under distinct tags), so
    /// no dense materialisation happens on the key path. Different
    /// factorings of the same operator hash apart — that only costs cache
    /// hits, never correctness, and the pipeline is deterministic so
    /// byte-identical jobs reproduce byte-identical factors. The
    /// **transformer tier** uses this exact form; the verdict tier
    /// canonicalises factors instead (see
    /// [`KeyHasher::write_predicate_canonical`]).
    pub(crate) fn write_predicate(&mut self, p: &crate::assertion::Predicate) {
        match p {
            crate::assertion::Predicate::Dense(m) => {
                self.write_u8(0xD0);
                self.write_matrix(m);
            }
            crate::assertion::Predicate::Factored(f) => {
                self.write_u8(0xF0);
                self.write_matrix(f.v());
            }
            crate::assertion::Predicate::Diagonal(d) => self.write_diagonal(d.diag()),
        }
    }

    /// Representation-independent hash of a predicate for **verdict**
    /// keys: dense matrices hash exact bits as before; factored ones hash
    /// the quantised canonical (eigenbasis-phase-fixed) factor, so any
    /// factoring of the same operator lands on the same key — the
    /// property that makes the on-disk verdict cache shareable across
    /// corpora, machines and transform orders.
    pub(crate) fn write_predicate_canonical(&mut self, p: &crate::assertion::Predicate) {
        match p {
            crate::assertion::Predicate::Dense(m) => {
                self.write_u8(0xD0);
                self.write_matrix(m);
            }
            crate::assertion::Predicate::Factored(f) => {
                self.write_u8(0xF1);
                self.write_matrix_quantised(f.canonical(), VERDICT_KEY_QUANT);
            }
            crate::assertion::Predicate::Diagonal(d) => self.write_diagonal(d.diag()),
        }
    }

    pub(crate) fn finish(&self) -> CacheKey {
        ((self.a.finish() as u128) << 64) | self.b.finish() as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_linalg::CMat;

    #[test]
    fn keys_separate_streams_and_are_deterministic() {
        let mut h1 = KeyHasher::new();
        h1.write_str("abc");
        let mut h2 = KeyHasher::new();
        h2.write_str("abc");
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = KeyHasher::new();
        h3.write_str("abd");
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn verdict_keys_are_factoring_independent() {
        use crate::assertion::{Assertion, Predicate};
        let opts = LownerOptions::default();
        // Two factorings of the same rank-2 projector: {|00⟩,|01⟩} vs the
        // mixed basis {(|00⟩±|01⟩)/√2}.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let v1 = CMat::from_real(4, 2, &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let v2 = CMat::from_real(4, 2, &[s, s, s, -s, 0.0, 0.0, 0.0, 0.0]);
        let a1 = Assertion::from_predicates(4, vec![Predicate::from_factor(v1.clone())]).unwrap();
        let a2 = Assertion::from_predicates(4, vec![Predicate::from_factor(v2)]).unwrap();
        let id = Assertion::identity(4);
        let k1 = verdict_key(VERDICT_TAG_INF, &a1, &id, &opts);
        let k2 = verdict_key(VERDICT_TAG_INF, &a2, &id, &opts);
        assert_eq!(k1, k2, "factorings of the same operator must share keys");
        // A genuinely different operator keys apart.
        let v3 = CMat::from_real(4, 2, &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let a3 = Assertion::from_predicates(4, vec![Predicate::from_factor(v3)]).unwrap();
        let k3 = verdict_key(VERDICT_TAG_INF, &a3, &id, &opts);
        assert_ne!(k1, k3);
        // Tag and side-order still separate queries.
        assert_ne!(k1, verdict_key(VERDICT_TAG_SUP, &a1, &id, &opts));
        assert_ne!(k1, verdict_key(VERDICT_TAG_INF, &id, &a1, &opts));
        // And the factored form keys apart from the dense form of the same
        // operator (dense keys stay exact-bits — a representation split,
        // not a correctness issue).
        let dense = Assertion::from_ops(4, vec![v1.mul(&v1.adjoint())]).unwrap();
        assert_ne!(k1, verdict_key(VERDICT_TAG_INF, &dense, &id, &opts));
    }

    #[test]
    fn verdict_codec_roundtrips_every_variant() {
        let wit = CMat::from_real(2, 2, &[0.5, 0.0, 0.0, 0.5]);
        let cases = [
            Verdict::Holds,
            Verdict::Violated(Violation {
                index: 3,
                witness: wit,
                margin: 1.25e-3,
            }),
            Verdict::Inconclusive {
                index: 1,
                lower: -1e-9,
                upper: 2e-8,
            },
        ];
        for v in &cases {
            let bytes = encode_verdict(v);
            let back = decode_verdict(&bytes).expect("roundtrip");
            match (v, &back) {
                (Verdict::Holds, Verdict::Holds) => {}
                (Verdict::Violated(a), Verdict::Violated(b)) => {
                    assert_eq!(a.index, b.index);
                    assert_eq!(a.margin, b.margin);
                    assert!(a.witness.approx_eq(&b.witness, 0.0), "witness exact");
                }
                (
                    Verdict::Inconclusive {
                        index: ai,
                        lower: al,
                        upper: au,
                    },
                    Verdict::Inconclusive {
                        index: bi,
                        lower: bl,
                        upper: bu,
                    },
                ) => {
                    assert_eq!((ai, al, au), (bi, bl, bu));
                }
                _ => panic!("variant changed in roundtrip"),
            }
        }
    }

    #[test]
    fn verdict_codec_rejects_corruption() {
        let good = encode_verdict(&Verdict::Holds);
        assert!(decode_verdict(&good).is_some());
        // Any single flipped byte must be caught by the checksum (or the
        // structural checks).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode_verdict(&bad).is_none(), "flip at byte {i}");
        }
        // Truncations and extensions are rejected too.
        for cut in 0..good.len() {
            assert!(decode_verdict(&good[..cut]).is_none());
        }
        let mut long = good.clone();
        long.push(0);
        assert!(decode_verdict(&long).is_none());
        assert!(decode_verdict(&[]).is_none());
    }

    #[test]
    fn matrix_hash_is_exact_not_quantised() {
        let a = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let mut b = a.clone();
        b[(0, 0)] = nqpv_linalg::c(1.0 + 1e-15, 0.0);
        let mut ha = KeyHasher::new();
        ha.write_matrix(&a);
        let mut hb = KeyHasher::new();
        hb.write_matrix(&b);
        assert_ne!(ha.finish(), hb.finish(), "distinct bits must hash apart");
        // -0.0 and 0.0 canonicalise together.
        let mut c1 = a.clone();
        c1[(0, 1)] = nqpv_linalg::c(-0.0, 0.0);
        let mut hc = KeyHasher::new();
        hc.write_matrix(&c1);
        let mut hd = KeyHasher::new();
        hd.write_matrix(&a);
        assert_eq!(hc.finish(), hd.finish());
    }
}
