//! Bit fields and CRC-16 for the §2.4 report payload.
//!
//! Each device's report to the leader is a run of fixed-width unsigned
//! fields, written and read MSB first, closed by a CRC-16/CCITT checksum
//! that lets the leader reject a corrupted report.

use crate::{DspError, Result};

/// CRC-16/CCITT-FALSE over a bit slice (MSB-first within the running
/// register, initial value 0xFFFF).
pub fn crc16(bits: &[bool]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &bit in bits {
        let top = (crc >> 15) & 1 == 1;
        crc <<= 1;
        if top ^ bit {
            crc ^= 0x1021;
        }
    }
    crc
}

/// Writes the low `width` bits of `value` (MSB first) into a bit vector.
pub fn push_uint(bits: &mut Vec<bool>, value: u64, width: usize) {
    for i in (0..width).rev() {
        bits.push((value >> i) & 1 == 1);
    }
}

/// Reads `width` bits (MSB first) starting at `offset`, returning the value
/// and the new offset.
pub fn read_uint(bits: &[bool], offset: usize, width: usize) -> Result<(u64, usize)> {
    if offset + width > bits.len() {
        return Err(DspError::InvalidLength {
            reason: "bit buffer too short for field",
        });
    }
    let mut v = 0u64;
    for &bit in &bits[offset..offset + width] {
        v = (v << 1) | bit as u64;
    }
    Ok((v, offset + width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_bool(0.5)).collect()
    }

    #[test]
    fn crc_detects_corruption() {
        let bits = random_bits(64, 3);
        let crc = crc16(&bits);
        let mut corrupted = bits.clone();
        corrupted[10] = !corrupted[10];
        assert_ne!(crc, crc16(&corrupted));
        assert_eq!(crc, crc16(&bits));
    }

    #[test]
    fn crc_known_vector() {
        // CRC-16/CCITT-FALSE of ASCII "123456789" is 0x29B1.
        let mut bits = Vec::new();
        for &byte in b"123456789" {
            push_uint(&mut bits, byte as u64, 8);
        }
        assert_eq!(crc16(&bits), 0x29B1);
    }

    #[test]
    fn uint_field_roundtrip() {
        let mut bits = Vec::new();
        push_uint(&mut bits, 0x2A, 8);
        push_uint(&mut bits, 1000, 10);
        push_uint(&mut bits, 3, 2);
        let (a, off) = read_uint(&bits, 0, 8).unwrap();
        let (b, off) = read_uint(&bits, off, 10).unwrap();
        let (c, off) = read_uint(&bits, off, 2).unwrap();
        assert_eq!((a, b, c), (0x2A, 1000, 3));
        assert_eq!(off, 20);
        assert!(read_uint(&bits, off, 1).is_err());
    }
}
