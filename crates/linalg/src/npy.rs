//! Minimal NumPy `.npy` reader/writer for operator matrices.
//!
//! The original NQPV tool expects unitaries, measurements and loop invariants
//! to be "input by the user as numpy matrices" (paper Sec. 6.1, e.g.
//! `def invN := load "invN.npy" end`). This module reproduces that workflow:
//! version-1.0 `.npy` files holding little-endian `complex128` (`<c16`) or
//! `float64` (`<f8`) arrays of rank 1 or 2, C-order.

use crate::complex::Complex;
use crate::matrix::CMat;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

/// Errors produced while reading or writing `.npy` files.
#[derive(Debug)]
pub enum NpyError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `\x93NUMPY` magic.
    BadMagic,
    /// Unsupported format version (only 1.0 is handled).
    BadVersion(u8, u8),
    /// Header dictionary could not be parsed.
    BadHeader(String),
    /// Dtype other than `<c16` / `<f8`.
    UnsupportedDtype(String),
    /// Fortran-order arrays are not supported.
    FortranOrder,
    /// Rank other than 1 or 2.
    UnsupportedRank(usize),
    /// Payload shorter than the shape requires.
    Truncated,
}

impl fmt::Display for NpyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NpyError::Io(e) => write!(f, "npy i/o error: {e}"),
            NpyError::BadMagic => write!(f, "not an npy file (bad magic)"),
            NpyError::BadVersion(a, b) => write!(f, "unsupported npy version {a}.{b}"),
            NpyError::BadHeader(h) => write!(f, "malformed npy header: {h}"),
            NpyError::UnsupportedDtype(d) => write!(f, "unsupported npy dtype {d}"),
            NpyError::FortranOrder => write!(f, "fortran-order npy arrays are unsupported"),
            NpyError::UnsupportedRank(r) => write!(f, "unsupported npy rank {r}"),
            NpyError::Truncated => write!(f, "npy payload shorter than header shape"),
        }
    }
}

impl std::error::Error for NpyError {}

impl From<std::io::Error> for NpyError {
    fn from(e: std::io::Error) -> Self {
        NpyError::Io(e)
    }
}

const MAGIC: &[u8; 6] = b"\x93NUMPY";

/// Reads a complex matrix from `.npy` bytes.
///
/// Rank-1 arrays of length `n` are returned as `n × 1` column matrices;
/// `<f8` data is promoted to complex.
///
/// # Errors
///
/// Returns [`NpyError`] on malformed input; see its variants.
pub fn read_matrix_bytes(bytes: &[u8]) -> Result<CMat, NpyError> {
    if bytes.len() < 10 || &bytes[..6] != MAGIC {
        return Err(NpyError::BadMagic);
    }
    let (major, minor) = (bytes[6], bytes[7]);
    if major != 1 {
        return Err(NpyError::BadVersion(major, minor));
    }
    let header_len = u16::from_le_bytes([bytes[8], bytes[9]]) as usize;
    if bytes.len() < 10 + header_len {
        return Err(NpyError::Truncated);
    }
    let header = std::str::from_utf8(&bytes[10..10 + header_len])
        .map_err(|_| NpyError::BadHeader("non-utf8 header".into()))?;
    let descr =
        extract_quoted(header, "descr").ok_or_else(|| NpyError::BadHeader(header.to_string()))?;
    let fortran = extract_bool(header, "fortran_order")
        .ok_or_else(|| NpyError::BadHeader(header.to_string()))?;
    if fortran {
        return Err(NpyError::FortranOrder);
    }
    let shape = extract_shape(header).ok_or_else(|| NpyError::BadHeader(header.to_string()))?;
    let (rows, cols) = match shape.len() {
        1 => (shape[0], 1),
        2 => (shape[0], shape[1]),
        r => return Err(NpyError::UnsupportedRank(r)),
    };
    // The shape comes from the file: size it with checked arithmetic and
    // against the payload before anything is allocated.
    let width = match descr.as_str() {
        "<c16" | "|c16" | "=c16" => 16,
        "<f8" | "|f8" | "=f8" => 8,
        other => return Err(NpyError::UnsupportedDtype(other.to_string())),
    };
    let Some(count) = rows.checked_mul(cols) else {
        return Err(NpyError::BadHeader(format!(
            "shape ({rows}, {cols}) overflows the address space"
        )));
    };
    let payload = &bytes[10 + header_len..];
    if count
        .checked_mul(width)
        .is_none_or(|need| payload.len() < need)
    {
        return Err(NpyError::Truncated);
    }
    let data = if width == 16 {
        payload[..count * 16]
            .chunks_exact(16)
            .map(|b| {
                Complex::new(
                    f64::from_le_bytes(b[..8].try_into().unwrap()),
                    f64::from_le_bytes(b[8..].try_into().unwrap()),
                )
            })
            .collect::<Vec<_>>()
    } else {
        payload[..count * 8]
            .chunks_exact(8)
            .map(|b| Complex::real(f64::from_le_bytes(b.try_into().unwrap())))
            .collect::<Vec<_>>()
    };
    Ok(CMat::from_vec(rows, cols, data))
}

/// Reads a complex matrix from a `.npy` file.
///
/// # Errors
///
/// Returns [`NpyError`] on I/O failure or malformed content.
pub fn read_matrix<P: AsRef<Path>>(path: P) -> Result<CMat, NpyError> {
    let mut buf = Vec::new();
    fs::File::open(path)?.read_to_end(&mut buf)?;
    read_matrix_bytes(&buf)
}

/// Serialises a matrix as version-1.0 `.npy` bytes with dtype `<c16`.
pub fn write_matrix_bytes(m: &CMat) -> Vec<u8> {
    let dict = format!(
        "{{'descr': '<c16', 'fortran_order': False, 'shape': ({}, {}), }}",
        m.rows(),
        m.cols()
    );
    // Pad with spaces so that 10 + len is a multiple of 64, ending in \n.
    let mut header = dict.into_bytes();
    let total = 10 + header.len() + 1;
    let pad = (64 - total % 64) % 64;
    header.extend(std::iter::repeat_n(b' ', pad));
    header.push(b'\n');
    let mut out = Vec::with_capacity(10 + header.len() + m.rows() * m.cols() * 16);
    out.extend_from_slice(MAGIC);
    out.push(1);
    out.push(0);
    out.extend_from_slice(&(header.len() as u16).to_le_bytes());
    out.extend_from_slice(&header);
    for z in m.as_slice() {
        out.extend_from_slice(&z.re.to_le_bytes());
        out.extend_from_slice(&z.im.to_le_bytes());
    }
    out
}

/// Writes a matrix to a `.npy` file with dtype `<c16`.
///
/// # Errors
///
/// Returns [`NpyError::Io`] on filesystem failure.
pub fn write_matrix<P: AsRef<Path>>(path: P, m: &CMat) -> Result<(), NpyError> {
    let bytes = write_matrix_bytes(m);
    fs::File::create(path)?.write_all(&bytes)?;
    Ok(())
}

fn extract_quoted(header: &str, key: &str) -> Option<String> {
    let kpos = header.find(&format!("'{key}'"))?;
    let rest = &header[kpos + key.len() + 2..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    let quote = rest.chars().next()?;
    if quote != '\'' && quote != '"' {
        return None;
    }
    let end = rest[1..].find(quote)?;
    Some(rest[1..1 + end].to_string())
}

fn extract_bool(header: &str, key: &str) -> Option<bool> {
    let kpos = header.find(&format!("'{key}'"))?;
    let rest = &header[kpos + key.len() + 2..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    if rest.starts_with("True") {
        Some(true)
    } else if rest.starts_with("False") {
        Some(false)
    } else {
        None
    }
}

fn extract_shape(header: &str) -> Option<Vec<usize>> {
    let kpos = header.find("'shape'")?;
    let rest = &header[kpos + 7..];
    let open = rest.find('(')?;
    let close = rest[open..].find(')')? + open;
    let inner = &rest[open + 1..close];
    let mut dims = Vec::new();
    for part in inner.split(',') {
        let p = part.trim();
        if p.is_empty() {
            continue;
        }
        dims.push(p.parse::<usize>().ok()?);
    }
    if dims.is_empty() {
        // 0-d scalar array: treat as 1×1.
        dims.push(1);
    }
    Some(dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c;
    use std::path::PathBuf;

    #[test]
    fn round_trip_complex_matrix() {
        let m = CMat::from_fn(3, 4, |i, j| c(i as f64 + 0.5, j as f64 - 1.25));
        let bytes = write_matrix_bytes(&m);
        let back = read_matrix_bytes(&bytes).unwrap();
        assert!(back.approx_eq(&m, 0.0_f64.max(1e-15)));
    }

    /// A checked-in regression file under `tests/data/`.
    fn regression(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/data")
            .join(name)
    }

    #[test]
    fn shapes_larger_than_the_payload_are_errors_before_allocation() {
        // 144 bytes claiming 2⁶⁰+1 complex entries: `count * 16` wraps to
        // 16, so an unchecked size test would pass and then allocate.
        assert!(matches!(
            read_matrix(regression("shape_2p60_plus_1.npy")),
            Err(NpyError::Truncated)
        ));
        // 2³²·2³² entries: `rows * cols` itself overflows.
        match read_matrix(regression("shape_2p32_squared.npy")) {
            Err(NpyError::BadHeader(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("expected a bad-header error, got {other:?}"),
        }
        // One entry short of the shape.
        let mut bytes = write_matrix_bytes(&CMat::identity(2));
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            read_matrix_bytes(&bytes),
            Err(NpyError::Truncated)
        ));
    }

    #[test]
    fn header_is_64_byte_aligned() {
        let m = CMat::identity(2);
        let bytes = write_matrix_bytes(&m);
        let header_len = u16::from_le_bytes([bytes[8], bytes[9]]) as usize;
        assert_eq!((10 + header_len) % 64, 0);
        assert_eq!(bytes[10 + header_len - 1], b'\n');
    }

    #[test]
    fn reads_real_f8_files() {
        // Hand-construct an <f8 file for a 2×2 identity.
        let dict = "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), }";
        let mut header = dict.as_bytes().to_vec();
        let total = 10 + header.len() + 1;
        let pad = (64 - total % 64) % 64;
        header.extend(std::iter::repeat_n(b' ', pad));
        header.push(b'\n');
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&[1, 0]);
        bytes.extend_from_slice(&(header.len() as u16).to_le_bytes());
        bytes.extend_from_slice(&header);
        for v in [1.0f64, 0.0, 0.0, 1.0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let m = read_matrix_bytes(&bytes).unwrap();
        assert!(m.approx_eq(&CMat::identity(2), 1e-15));
    }

    #[test]
    fn rank1_becomes_column() {
        let dict = "{'descr': '<f8', 'fortran_order': False, 'shape': (3,), }";
        let mut header = dict.as_bytes().to_vec();
        let total = 10 + header.len() + 1;
        let pad = (64 - total % 64) % 64;
        header.extend(std::iter::repeat_n(b' ', pad));
        header.push(b'\n');
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&[1, 0]);
        bytes.extend_from_slice(&(header.len() as u16).to_le_bytes());
        bytes.extend_from_slice(&header);
        for v in [1.0f64, 2.0, 3.0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let m = read_matrix_bytes(&bytes).unwrap();
        assert_eq!((m.rows(), m.cols()), (3, 1));
        assert!((m[(2, 0)].re - 3.0).abs() < 1e-15);
    }

    #[test]
    fn error_paths() {
        assert!(matches!(
            read_matrix_bytes(b"not an npy"),
            Err(NpyError::BadMagic)
        ));
        let mut bad_version = write_matrix_bytes(&CMat::identity(2));
        bad_version[6] = 3;
        assert!(matches!(
            read_matrix_bytes(&bad_version),
            Err(NpyError::BadVersion(3, 0))
        ));
        let good = write_matrix_bytes(&CMat::identity(2));
        let truncated = &good[..good.len() - 8];
        assert!(matches!(
            read_matrix_bytes(truncated),
            Err(NpyError::Truncated)
        ));
    }

    #[test]
    fn fortran_order_rejected() {
        let dict = "{'descr': '<c16', 'fortran_order': True, 'shape': (1, 1), }";
        let mut header = dict.as_bytes().to_vec();
        let total = 10 + header.len() + 1;
        let pad = (64 - total % 64) % 64;
        header.extend(std::iter::repeat_n(b' ', pad));
        header.push(b'\n');
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&[1, 0]);
        bytes.extend_from_slice(&(header.len() as u16).to_le_bytes());
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_matrix_bytes(&bytes),
            Err(NpyError::FortranOrder)
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("nqpv_npy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("op.npy");
        let m = CMat::from_fn(4, 4, |i, j| c((i * 7 + j) as f64, -(j as f64)));
        write_matrix(&path, &m).unwrap();
        let back = read_matrix(&path).unwrap();
        assert!(back.approx_eq(&m, 1e-15));
        std::fs::remove_file(&path).ok();
    }
}
