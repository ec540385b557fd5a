//! The content hasher behind every memo key and operator [`Digest`].
//!
//! [`Digest`]: crate::Digest

use nqpv_linalg::CMat;

/// Initial state of lane `a` (hex digits of π).
const SEED_A: u64 = 0x243f_6a88_85a3_08d3;
/// Initial state of lane `b`.
const SEED_B: u64 = 0x1319_8a2e_0370_7344;
/// Multiplier of lane `a`.
const MUL_A: u64 = 0xa409_3822_299f_31d1;
/// Multiplier of lane `b`.
const MUL_B: u64 = 0x082e_fa98_ec4e_6c89;
/// Multiplier of the final round of both lanes.
const MUL_FIN: u64 = 0x4528_21e6_38d0_1377;

/// The full 64×64→128-bit product of `x` and `y`, its halves xor-folded.
#[inline(always)]
fn fold(x: u64, y: u64) -> u64 {
    let p = (x as u128) * (y as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The 128-bit streaming hasher of the memo keys and operator digests.
///
/// Input is taken a 64-bit word at a time, and each word goes through a
/// folded multiply in two lanes with their own seeds and multipliers. A
/// final round per lane mixes every input bit into every output bit, the
/// low ones included, which index the engine's doorkeeper slots. Lane `a`
/// gives the key's high 64 bits, lane `b` its low 64 bits.
///
/// The writers fix what a key hashes: floats by their exact bits with
/// `-0.0` read as `0.0`, strings and matrices with their length or shape
/// in front. The output depends on nothing but the words written, so a
/// key is the same on every host and toolchain, which is what lets the
/// engine keep verdict keys on disk. It separates contents, not
/// adversaries: it is no cryptographic hash, and inputs crafted to
/// collide can be found.
///
/// # Examples
///
/// ```
/// use nqpv_quantum::KeyHasher;
/// let key = |x: f64| {
///     let mut h = KeyHasher::new();
///     h.write_str("theta");
///     h.write_f64(x);
///     h.finish()
/// };
/// assert_eq!(key(0.0), key(-0.0));
/// assert_ne!(key(0.0), key(f64::MIN_POSITIVE));
/// ```
#[derive(Debug)]
pub struct KeyHasher {
    a: u64,
    b: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// A hasher that has seen nothing.
    pub fn new() -> Self {
        KeyHasher {
            a: SEED_A,
            b: SEED_B,
        }
    }

    /// Feeds one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.a = fold(self.a ^ w, MUL_A);
        self.b = fold(self.b ^ w, MUL_B);
    }

    /// Feeds a byte, as one word.
    pub fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    /// Feeds a length or count, as one word.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a 128-bit key or digest, as two words.
    pub fn write_key(&mut self, key: u128) {
        self.write_u64((key >> 64) as u64);
        self.write_u64(key as u64);
    }

    /// Feeds a string: its length, then its bytes eight to a
    /// little-endian word, the last word zero-padded.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        let mut words = s.as_bytes().chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    /// Feeds a float's exact bits, `-0.0` read as `0.0`.
    #[inline]
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64((x + 0.0).to_bits());
    }

    /// Feeds a complex matrix: its shape, then the exact bits of every
    /// entry (see [`KeyHasher::write_f64`]), row-major, real part first.
    pub fn write_matrix(&mut self, m: &CMat) {
        self.write_usize(m.rows());
        self.write_usize(m.cols());
        for z in m.as_slice() {
            self.write_f64(z.re);
            self.write_f64(z.im);
        }
    }

    /// The 128-bit key of everything written so far.
    pub fn finish(&self) -> u128 {
        let a = fold(self.a ^ SEED_B, MUL_FIN);
        let b = fold(self.b ^ SEED_A, MUL_FIN);
        ((a as u128) << 64) | b as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_linalg::Complex;
    use std::collections::HashSet;

    /// The engine doorkeeper's slot count: keys index it by their low bits.
    const SLOTS: usize = 1 << 14;

    fn key_of(m: &CMat) -> u128 {
        let mut h = KeyHasher::new();
        h.write_matrix(m);
        h.finish()
    }

    #[test]
    fn every_single_bit_flip_of_a_matrix_changes_its_key() {
        // No zero entries: flipping a zero's sign bit is the one flip that
        // keeps the key (see `signed_zeros_hash_together`).
        let m = CMat::from_vec(
            2,
            2,
            vec![
                Complex::new(0.6, -0.8),
                Complex::new(1.0, -3.5),
                Complex::new(-0.25, 1e-300),
                Complex::new(f64::MAX, std::f64::consts::PI),
            ],
        );
        let base = key_of(&m);
        let mut seen = HashSet::from([base]);
        for i in 0..4 {
            for part in 0..2 {
                for bit in 0..64 {
                    let mut flipped = m.clone();
                    let z = &mut flipped.as_mut_slice()[i];
                    let x = if part == 0 { &mut z.re } else { &mut z.im };
                    *x = f64::from_bits(x.to_bits() ^ (1 << bit));
                    assert!(
                        seen.insert(key_of(&flipped)),
                        "entry {i}, part {part}, bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn signed_zeros_hash_together() {
        let zero = CMat::zeros(2, 2);
        let mut signed = zero.clone();
        for z in signed.as_mut_slice() {
            *z = Complex::new(-0.0, -0.0);
        }
        assert_eq!(key_of(&zero), key_of(&signed));
    }

    #[test]
    fn lengths_separate_adjacent_strings() {
        let key = |parts: &[&str]| {
            let mut h = KeyHasher::new();
            for s in parts {
                h.write_str(s);
            }
            h.finish()
        };
        assert_ne!(key(&["ab", "c"]), key(&["a", "bc"]));
        assert_ne!(key(&["", "a"]), key(&["a", ""]));
        assert_ne!(key(&["abcdefgh"]), key(&["abcdefgh", ""]));
        assert_eq!(key(&["abcdefghi"]), key(&["abcdefghi"]));
    }

    #[test]
    fn structured_keys_are_distinct_and_spread_over_the_doorkeeper_slots() {
        let n = 1u64 << 16;
        let matrices = (0..n).map(|i| key_of(&CMat::from_real(1, 1, &[i as f64])));
        let integers = (0..n).map(|i| {
            let mut h = KeyHasher::new();
            h.write_u64(i);
            h.finish()
        });
        let mut all = HashSet::new();
        for (family, keys) in [
            ("matrices", matrices.collect::<Vec<_>>()),
            ("integers", integers.collect()),
        ] {
            let mut load = vec![0u32; SLOTS];
            for &k in &keys {
                assert!(all.insert(k), "{family}: repeated key {k:032x}");
                load[k as usize % SLOTS] += 1;
            }
            // 2¹⁶ uniform keys over 2¹⁴ slots: 4 a slot on average, about
            // 300 slots empty, and a slot holds more than 16 keys with odds
            // of about 10⁻⁶.
            let empty = load.iter().filter(|&&c| c == 0).count();
            let max = *load.iter().max().unwrap();
            assert!(empty < 600, "{family}: {empty} empty slots");
            assert!(max <= 16, "{family}: a slot holds {max} keys");
        }
    }
}
