//! Arbitrary-precision unsigned integers.
//!
//! The OnionBots reproduction cannot depend on external cryptography crates,
//! so RSA (used for hidden-service identities, botmaster signatures and
//! rental tokens) is built on this minimal big-integer type. The
//! implementation favours clarity and correctness over speed: schoolbook
//! multiplication and binary long division are more than fast enough for the
//! 512–2048 bit moduli exercised by the simulator and its tests.
//!
//! ```
//! use onion_crypto::bignum::BigUint;
//!
//! let a = BigUint::from_u64(1_000_000_007);
//! let b = BigUint::from_u64(998_244_353);
//! let product = &a * &b;
//! assert_eq!(product, BigUint::from_u64(1_000_000_007u64 * 998_244_353u64));
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Rem, Sub};

use rand::Rng;

/// An arbitrary-precision unsigned integer stored as little-endian 32-bit
/// limbs.
///
/// The representation is always normalized: the most significant limb is
/// non-zero, and zero is represented by an empty limb vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl BigUint {
    /// Returns the value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// Returns the value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Creates a value from a `u64`.
    pub fn from_u64(value: u64) -> Self {
        let mut n = BigUint {
            limbs: vec![value as u32, (value >> 32) as u32],
        };
        n.normalize();
        n
    }

    /// Creates a value from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut chunk_start = bytes.len();
        while chunk_start > 0 {
            let take = chunk_start.min(4);
            let lo = chunk_start - take;
            let mut limb: u32 = 0;
            for &b in &bytes[lo..chunk_start] {
                limb = (limb << 8) | u32::from(b);
            }
            limbs.push(limb);
            chunk_start = lo;
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes with no leading zero bytes.
    ///
    /// Zero serializes to an empty vector.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the top limb.
                let mut skipping = true;
                for b in bytes {
                    if skipping && b == 0 {
                        continue;
                    }
                    skipping = false;
                    out.push(b);
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left padded with zeros.
    ///
    /// # Panics
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, case insensitive).
    ///
    /// # Errors
    /// Returns `None` if the string contains non-hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() {
            return Some(BigUint::zero());
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<char> = s.chars().collect();
        let mut idx = 0;
        // Handle an odd-length leading nibble.
        if chars.len() % 2 == 1 {
            bytes.push(chars[0].to_digit(16)? as u8);
            idx = 1;
        }
        while idx < chars.len() {
            let hi = chars[idx].to_digit(16)? as u8;
            let lo = chars[idx + 1].to_digit(16)? as u8;
            bytes.push((hi << 4) | lo);
            idx += 2;
        }
        Some(BigUint::from_bytes_be(&bytes))
    }

    /// Formats as lowercase hexadecimal with no leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let bytes = self.to_bytes_be();
        let mut s = String::with_capacity(bytes.len() * 2);
        for (i, b) in bytes.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{b:x}"));
            } else {
                s.push_str(&format!("{b:02x}"));
            }
        }
        s
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (`0` for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        let off = i % 32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to one, growing the representation if necessary.
    fn set_bit(&mut self, i: usize) {
        let limb = i / 32;
        let off = i % 32;
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Shifts left by one bit in place.
    fn shl1_assign(&mut self) {
        let mut carry = 0u32;
        for limb in &mut self.limbs {
            let new_carry = *limb >> 31;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// Shifts left by `bits` bits, returning a new value.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        let mut limbs = vec![0u32; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Shifts right by `bits` bits, returning a new value.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 32;
        let mut limbs: Vec<u32> = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            let mut carry = 0u32;
            for l in limbs.iter_mut().rev() {
                let new_carry = *l << (32 - bit_shift);
                *l = (*l >> bit_shift) | carry;
                carry = new_carry;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Adds two values.
    pub fn add_ref(&self, other: &BigUint) -> BigUint {
        let mut limbs = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = u64::from(*self.limbs.get(i).unwrap_or(&0));
            let b = u64::from(*other.limbs.get(i).unwrap_or(&0));
            let sum = a + b + carry;
            limbs.push(sum as u32);
            carry = sum >> 32;
        }
        if carry != 0 {
            limbs.push(carry as u32);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    /// Panics if `other > self`.
    pub fn sub_ref(&self, other: &BigUint) -> BigUint {
        assert!(
            self >= other,
            "BigUint subtraction underflow: {} - {}",
            self.to_hex(),
            other.to_hex()
        );
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let a = i64::from(self.limbs[i]);
            let b = i64::from(*other.limbs.get(i).unwrap_or(&0));
            let mut diff = a - b - borrow;
            if diff < 0 {
                diff += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(diff as u32);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Multiplies two values (schoolbook).
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let idx = i + j;
                let cur = u64::from(limbs[idx]) + u64::from(a) * u64::from(b) + carry;
                limbs[idx] = cur as u32;
                carry = cur >> 32;
            }
            let mut idx = i + other.limbs.len();
            while carry != 0 {
                let cur = u64::from(limbs[idx]) + carry;
                limbs[idx] = cur as u32;
                carry = cur >> 32;
                idx += 1;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Computes the quotient and remainder of `self / divisor` using binary
    /// long division.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        let mut quotient = BigUint::zero();
        let mut remainder = BigUint::zero();
        for i in (0..self.bit_len()).rev() {
            remainder.shl1_assign();
            if self.bit(i) {
                if remainder.limbs.is_empty() {
                    remainder.limbs.push(0);
                }
                remainder.limbs[0] |= 1;
            }
            if &remainder >= divisor {
                remainder = remainder.sub_ref(divisor);
                quotient.set_bit(i);
            }
        }
        quotient.normalize();
        remainder.normalize();
        (quotient, remainder)
    }

    /// Computes `self mod modulus`.
    pub fn rem_ref(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Computes `self^exponent mod modulus` by square-and-multiply.
    ///
    /// # Panics
    /// Panics if `modulus` is zero.
    pub fn mod_exp(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modulus must be non-zero");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem_ref(modulus);
        for i in 0..exponent.bit_len() {
            if exponent.bit(i) {
                result = result.mul_ref(&base).rem_ref(modulus);
            }
            base = base.mul_ref(&base).rem_ref(modulus);
        }
        result
    }

    /// Computes the greatest common divisor of `self` and `other`.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem_ref(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Computes the multiplicative inverse of `self` modulo `modulus`.
    ///
    /// Returns `None` when `gcd(self, modulus) != 1`.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        let mut t = BigUint::zero();
        let mut new_t = BigUint::one();
        let mut r = modulus.clone();
        let mut new_r = self.rem_ref(modulus);
        while !new_r.is_zero() {
            let (q, rem) = r.div_rem(&new_r);
            // next_t = (t - q*new_t) mod modulus, computed without signs.
            let q_nt = q.mul_ref(&new_t).rem_ref(modulus);
            let next_t = if t >= q_nt {
                t.sub_ref(&q_nt)
            } else {
                t.add_ref(modulus).sub_ref(&q_nt)
            };
            t = new_t;
            new_t = next_t;
            r = new_r;
            new_r = rem;
        }
        if r.is_one() {
            Some(t.rem_ref(modulus))
        } else {
            None
        }
    }

    /// Generates a uniformly random value with exactly `bits` bits
    /// (the top bit is always set), using the provided RNG.
    ///
    /// # Panics
    /// Panics if `bits` is zero.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0, "cannot generate a zero-bit number");
        let limbs_needed = bits.div_ceil(32);
        let mut limbs: Vec<u32> = (0..limbs_needed).map(|_| rng.gen()).collect();
        let top_bits = bits % 32;
        if top_bits != 0 {
            let mask = (1u32 << top_bits) - 1;
            let last = limbs.last_mut().expect("at least one limb");
            *last &= mask;
        }
        let mut n = BigUint { limbs };
        n.set_bit(bits - 1);
        n.normalize();
        n
    }

    /// Generates a uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bit_len();
        loop {
            let limbs_needed = bits.div_ceil(32);
            let mut limbs: Vec<u32> = (0..limbs_needed).map(|_| rng.gen()).collect();
            let top_bits = bits % 32;
            if top_bits != 0 {
                let mask = (1u32 << top_bits) - 1;
                let last = limbs.last_mut().expect("at least one limb");
                *last &= mask;
            }
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(value: u64) -> Self {
        BigUint::from_u64(value)
    }
}

impl From<u32> for BigUint {
    fn from(value: u32) -> Self {
        BigUint::from_u64(u64::from(value))
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        self.add_ref(rhs)
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.sub_ref(rhs)
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}

impl Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.rem_ref(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl BigUint {
        /// Converts to `u64`, returning `None` when the value does not fit.
        fn to_u64(&self) -> Option<u64> {
            match self.limbs.len() {
                0 => Some(0),
                1 => Some(u64::from(self.limbs[0])),
                2 => Some(u64::from(self.limbs[0]) | (u64::from(self.limbs[1]) << 32)),
                _ => None,
            }
        }
    }

    #[test]
    fn zero_and_one_identities() {
        let zero = BigUint::zero();
        let one = BigUint::one();
        assert!(zero.is_zero());
        assert!(one.is_one());
        assert!(!one.is_zero());
        assert_eq!(zero.bit_len(), 0);
        assert_eq!(one.bit_len(), 1);
        assert_eq!(zero.to_hex(), "0");
        assert_eq!(one.to_hex(), "1");
    }

    #[test]
    fn from_u64_roundtrip() {
        for v in [0u64, 1, 42, 0xffff_ffff, 0x1_0000_0000, u64::MAX] {
            let n = BigUint::from_u64(v);
            assert_eq!(n.to_u64(), Some(v));
        }
    }

    #[test]
    fn byte_roundtrip() {
        let bytes = [0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
        let n = BigUint::from_bytes_be(&bytes);
        assert_eq!(n.to_bytes_be(), bytes.to_vec());
    }

    #[test]
    fn byte_parsing_strips_leading_zeros() {
        let n = BigUint::from_bytes_be(&[0, 0, 0, 0x12, 0x34]);
        assert_eq!(n.to_bytes_be(), vec![0x12, 0x34]);
        assert_eq!(n.to_u64(), Some(0x1234));
    }

    #[test]
    fn padded_serialization() {
        let n = BigUint::from_u64(0xabcd);
        assert_eq!(n.to_bytes_be_padded(4), vec![0, 0, 0xab, 0xcd]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_serialization_too_small_panics() {
        BigUint::from_u64(0xabcdef).to_bytes_be_padded(2);
    }

    #[test]
    fn hex_roundtrip() {
        let cases = ["1", "ff", "deadbeef", "123456789abcdef0123456789abcdef"];
        for c in cases {
            let n = BigUint::from_hex(c).expect("valid hex");
            assert_eq!(n.to_hex(), c, "case {c}");
        }
        assert_eq!(BigUint::from_hex("0").unwrap().to_hex(), "0");
        assert_eq!(BigUint::from_hex("000012ab").unwrap().to_hex(), "12ab");
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn addition_and_subtraction() {
        let a = BigUint::from_hex("ffffffffffffffffffffffff").unwrap();
        let one = BigUint::one();
        let sum = &a + &one;
        assert_eq!(sum.to_hex(), "1000000000000000000000000");
        assert_eq!((&sum - &one).to_hex(), a.to_hex());
        assert_eq!((&a - &a).to_hex(), "0");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = &BigUint::one() - &BigUint::from_u64(2);
    }

    #[test]
    fn multiplication_against_u128_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            let expected = u128::from(a) * u128::from(b);
            let got = &BigUint::from_u64(a) * &BigUint::from_u64(b);
            let expected_big = BigUint::from_bytes_be(&expected.to_be_bytes());
            assert_eq!(got, expected_big);
        }
    }

    #[test]
    fn division_against_u128_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let a: u128 = rng.gen();
            let b: u64 = rng.gen_range(1..u64::MAX);
            let (q, r) = BigUint::from_bytes_be(&a.to_be_bytes()).div_rem(&BigUint::from_u64(b));
            let expected_q = a / u128::from(b);
            let expected_r = a % u128::from(b);
            assert_eq!(q, BigUint::from_bytes_be(&expected_q.to_be_bytes()));
            assert_eq!(r, BigUint::from_bytes_be(&expected_r.to_be_bytes()));
        }
    }

    #[test]
    fn division_identity_holds_for_large_values() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let a = BigUint::random_bits(&mut rng, 512);
            let b = BigUint::random_bits(&mut rng, 200);
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            assert_eq!(&(&q * &b) + &r, a);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        let n = BigUint::from_u64(0b1011);
        assert_eq!(n.shl(4).to_u64(), Some(0b1011_0000));
        assert_eq!(n.shl(64).shr(64), n);
        assert_eq!(n.shr(10).to_u64(), Some(0));
        let big = BigUint::from_hex("ffffffffffffffff").unwrap();
        assert_eq!(big.shl(33).shr(33), big);
    }

    #[test]
    fn bit_accessors() {
        let n = BigUint::from_u64(0b1010_0001);
        assert!(n.bit(0));
        assert!(!n.bit(1));
        assert!(n.bit(5));
        assert!(n.bit(7));
        assert!(!n.bit(100));
        let mut m = BigUint::zero();
        m.set_bit(70);
        assert_eq!(m.bit_len(), 71);
        assert!(m.bit(70));
    }

    #[test]
    fn mod_exp_small_cases() {
        let base = BigUint::from_u64(4);
        let exp = BigUint::from_u64(13);
        let modulus = BigUint::from_u64(497);
        // 4^13 mod 497 = 445 (classic textbook example).
        assert_eq!(base.mod_exp(&exp, &modulus).to_u64(), Some(445));
        // Anything to the zero power is 1.
        assert_eq!(base.mod_exp(&BigUint::zero(), &modulus).to_u64(), Some(1));
        // Modulus one collapses everything to zero.
        assert_eq!(base.mod_exp(&exp, &BigUint::one()).to_u64(), Some(0));
    }

    #[test]
    fn mod_exp_matches_fermat_little_theorem() {
        // For prime p and a not divisible by p: a^(p-1) = 1 mod p.
        let p = BigUint::from_u64(1_000_000_007);
        let p_minus_1 = &p - &BigUint::one();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let a = BigUint::from_u64(rng.gen_range(2..1_000_000_006));
            assert_eq!(a.mod_exp(&p_minus_1, &p).to_u64(), Some(1));
        }
    }

    #[test]
    fn gcd_and_inverse() {
        let a = BigUint::from_u64(270);
        let b = BigUint::from_u64(192);
        assert_eq!(a.gcd(&b).to_u64(), Some(6));

        let e = BigUint::from_u64(17);
        let m = BigUint::from_u64(3120);
        let inv = e.mod_inverse(&m).expect("17 invertible mod 3120");
        assert_eq!(inv.to_u64(), Some(2753));
        assert_eq!((&e * &inv).rem_ref(&m).to_u64(), Some(1));

        // Non-invertible case.
        assert!(BigUint::from_u64(6)
            .mod_inverse(&BigUint::from_u64(9))
            .is_none());
    }

    #[test]
    fn mod_inverse_large_random() {
        let mut rng = StdRng::seed_from_u64(21);
        let m = BigUint::random_bits(&mut rng, 256);
        for _ in 0..10 {
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() || !a.gcd(&m).is_one() {
                continue;
            }
            let inv = a.mod_inverse(&m).expect("coprime value must invert");
            assert_eq!((&a * &inv).rem_ref(&m), BigUint::one());
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let bound = BigUint::from_u64(1000);
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_bits_sets_top_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        for bits in [1usize, 7, 32, 33, 64, 257] {
            let v = BigUint::random_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits, "bits = {bits}");
        }
    }

    #[test]
    fn ordering_is_consistent() {
        let a = BigUint::from_u64(100);
        let b = BigUint::from_u64(200);
        let c = BigUint::from_hex("1ffffffffffffffff").unwrap();
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let n = BigUint::from_u64(255);
        assert_eq!(format!("{n}"), "0xff");
        assert_eq!(format!("{n:?}"), "BigUint(0xff)");
        assert_eq!(format!("{n:x}"), "ff");
    }
}
