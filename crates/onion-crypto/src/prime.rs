//! Probabilistic primality testing and prime generation for RSA key
//! generation.
//!
//! Uses trial division by a sieve of small primes followed by Miller–Rabin
//! with random bases. Key sizes in the simulator are deliberately small
//! (512–1024 bit moduli) so generation stays fast inside tests.

use rand::Rng;

use crate::bignum::BigUint;

/// Returns all primes below `limit` using a simple sieve of Eratosthenes.
fn small_primes(limit: usize) -> Vec<u64> {
    if limit < 2 {
        return Vec::new();
    }
    let mut sieve = vec![true; limit];
    sieve[0] = false;
    sieve[1] = false;
    let mut i = 2usize;
    while i * i < limit {
        if sieve[i] {
            let mut j = i * i;
            while j < limit {
                sieve[j] = false;
                j += i;
            }
        }
        i += 1;
    }
    sieve
        .iter()
        .enumerate()
        .filter_map(|(n, &is_prime)| if is_prime { Some(n as u64) } else { None })
        .collect()
}

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// Numbers below 2 are composite; 2 and 3 are prime. The error probability is
/// at most 4^-rounds for adversarially chosen inputs, far smaller for random
/// candidates.
fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let two = BigUint::from_u64(2);
    let three = BigUint::from_u64(3);
    if n < &two {
        return false;
    }
    if n == &two || n == &three {
        return true;
    }
    if n.is_even() {
        return false;
    }
    // Trial division knocks out most composites cheaply.
    for p in small_primes(2000) {
        let p_big = BigUint::from_u64(p);
        if &p_big >= n {
            break;
        }
        if n.rem_ref(&p_big).is_zero() {
            return false;
        }
    }

    let one = BigUint::one();
    let n_minus_1 = n.sub_ref(&one);
    // Write n - 1 = d * 2^s with d odd.
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }

    'witness: for _ in 0..rounds {
        // a in [2, n-2]
        let range = n.sub_ref(&three);
        let a = BigUint::random_below(rng, &range).add_ref(&two);
        let mut x = a.mod_exp(&d, n);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = x.mul_ref(&x).rem_ref(n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
/// Panics if `bits < 8`; the simulator never needs primes that small and the
/// generation loop assumes a reasonable search space.
pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add_ref(&BigUint::one());
        }
        if candidate.bit_len() != bits {
            continue;
        }
        if is_probable_prime(&candidate, 20, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sieve_produces_known_primes() {
        let primes = small_primes(50);
        assert_eq!(
            primes,
            vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        );
        assert!(small_primes(0).is_empty());
        assert!(small_primes(2).is_empty());
    }

    #[test]
    fn classifies_small_numbers() {
        let mut rng = StdRng::seed_from_u64(1);
        let primes = [2u64, 3, 5, 7, 11, 101, 7919, 104_729, 1_000_000_007];
        let composites = [0u64, 1, 4, 9, 15, 100, 7917, 104_730, 1_000_000_008];
        for p in primes {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut rng),
                "{p} should be prime"
            );
        }
        for c in composites {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn rejects_carmichael_numbers() {
        // Carmichael numbers fool Fermat tests but not Miller-Rabin.
        let mut rng = StdRng::seed_from_u64(2);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut rng),
                "{c} is a Carmichael number and must be rejected"
            );
        }
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [64usize, 96, 128] {
            let p = gen_prime(bits, &mut rng);
            assert_eq!(p.bit_len(), bits);
            assert!(is_probable_prime(&p, 16, &mut rng));
        }
    }

    #[test]
    fn generated_primes_are_odd_and_distinct() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = gen_prime(96, &mut rng);
        let b = gen_prime(96, &mut rng);
        assert!(!a.is_even());
        assert!(!b.is_even());
        assert_ne!(a, b);
    }
}
