//! Hidden-service descriptor IDs and responsible-HSDir selection.
//!
//! Implements the recipe from §III of the paper:
//!
//! ```text
//! descriptor-id  = H(Identifier || secret-id-part)
//! secret-id-part = H(time-period || descriptor-cookie || replica)
//! time-period    = (current-time + permanent-id-byte * 86400 / 256) / 86400
//! ```
//!
//! `H` is SHA-1, `Identifier` is the 80-bit truncated SHA-1 of the service's
//! public key, and `replica` ∈ {0, 1} yields two descriptor IDs. Each
//! descriptor ID is stored on the 3 HSDirs whose fingerprints follow it on
//! the ring, so each service has 6 responsible HSDirs in total.
//!
//! Client authorization is not modelled: no bot or client sets the optional
//! 128-bit `descriptor-cookie`, so it is left out of `secret-id-part`, which
//! hashes `time-period || replica` only.

use onion_crypto::digest::Digest;
use onion_crypto::sha1::Sha1;

use crate::relay::Fingerprint;

/// Number of replicas (descriptor ID sets) per hidden service.
pub const REPLICAS: u8 = 2;

/// Number of consecutive HSDirs responsible for each descriptor ID.
pub const HSDIRS_PER_REPLICA: usize = 3;

/// Seconds per descriptor time period (24 hours).
pub const PERIOD_SECONDS: u64 = 86_400;

/// A 20-byte descriptor ID, ordered on the same ring as relay fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DescriptorId(pub [u8; 20]);

/// Computes the time period index for a service.
///
/// `permanent_id_byte` is the first byte of the service identifier; it
/// staggers period rollovers across services so "the descriptors [do not
/// change] all at the same time".
fn time_period(current_time_secs: u64, permanent_id_byte: u8) -> u64 {
    (current_time_secs + u64::from(permanent_id_byte) * PERIOD_SECONDS / 256) / PERIOD_SECONDS
}

/// Computes `secret-id-part = H(time-period || replica)`.
fn secret_id_part(period: u64, replica: u8) -> [u8; 20] {
    let mut hasher = Sha1::new();
    hasher.update(&period.to_be_bytes());
    hasher.update(&[replica]);
    let digest = hasher.finalize();
    let mut out = [0u8; 20];
    out.copy_from_slice(&digest);
    out
}

/// Computes `descriptor-id = H(identifier || secret-id-part)`.
pub fn descriptor_id(identifier: [u8; 10], current_time_secs: u64, replica: u8) -> DescriptorId {
    let period = time_period(current_time_secs, identifier[0]);
    let secret = secret_id_part(period, replica);
    let mut hasher = Sha1::new();
    hasher.update(&identifier);
    hasher.update(&secret);
    let digest = hasher.finalize();
    let mut out = [0u8; 20];
    out.copy_from_slice(&digest);
    DescriptorId(out)
}

/// Computes both replicas' descriptor IDs for a service.
pub fn descriptor_ids(
    identifier: [u8; 10],
    current_time_secs: u64,
) -> [DescriptorId; REPLICAS as usize] {
    [
        descriptor_id(identifier, current_time_secs, 0),
        descriptor_id(identifier, current_time_secs, 1),
    ]
}

/// Selects the responsible HSDirs for a descriptor ID from a fingerprint
/// ring (ascending fingerprint order).
///
/// Following Figure 2 of the paper: if the descriptor ID falls between
/// `HSDir_{k-1}` and `HSDir_k`, it is stored on `HSDir_k`, `HSDir_{k+1}` and
/// `HSDir_{k+2}` (wrapping around the ring). Returns fewer relays when the
/// ring is smaller than [`HSDIRS_PER_REPLICA`].
pub fn responsible_hsdirs(descriptor: DescriptorId, ring: &[Fingerprint]) -> Vec<Fingerprint> {
    if ring.is_empty() {
        return Vec::new();
    }
    // First relay whose fingerprint is >= the descriptor id; wrap to 0.
    let start = ring.iter().position(|fp| fp.0 >= descriptor.0).unwrap_or(0);
    let take = HSDIRS_PER_REPLICA.min(ring.len());
    (0..take).map(|i| ring[(start + i) % ring.len()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full responsible set of a service (both replicas, deduplicated,
    /// order preserved).
    fn responsible_hsdirs_for_service(
        identifier: [u8; 10],
        current_time_secs: u64,
        ring: &[Fingerprint],
    ) -> Vec<Fingerprint> {
        let mut out = Vec::new();
        for id in descriptor_ids(identifier, current_time_secs) {
            for fp in responsible_hsdirs(id, ring) {
                if !out.contains(&fp) {
                    out.push(fp);
                }
            }
        }
        out
    }

    fn ring_of(n: usize) -> Vec<Fingerprint> {
        // Evenly spaced fingerprints 0x00.., 0x10.., 0x20.. for predictable
        // placement in tests.
        (0..n)
            .map(|i| {
                let mut fp = [0u8; 20];
                fp[0] = (i * (256 / n)) as u8;
                Fingerprint(fp)
            })
            .collect()
    }

    #[test]
    fn time_period_changes_every_day() {
        assert_eq!(time_period(0, 0), 0);
        assert_eq!(time_period(PERIOD_SECONDS - 1, 0), 0);
        assert_eq!(time_period(PERIOD_SECONDS, 0), 1);
        assert_eq!(time_period(10 * PERIOD_SECONDS, 0), 10);
    }

    #[test]
    fn permanent_id_byte_staggers_rollover() {
        // With id byte 128 the rollover happens half a day earlier.
        let half_day = PERIOD_SECONDS / 2;
        assert_eq!(time_period(half_day, 128), 1);
        assert_eq!(time_period(half_day, 0), 0);
    }

    #[test]
    fn replicas_produce_distinct_descriptor_ids() {
        let ids = descriptor_ids([9u8; 10], 1000);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn descriptor_id_is_stable_within_a_period_and_rotates_across_periods() {
        let id = [1u8; 10];
        let a = descriptor_id(id, 1_000, 0);
        let b = descriptor_id(id, 2_000, 0);
        assert_eq!(a, b, "same period, same id");
        let next_day = descriptor_id(id, 1_000 + PERIOD_SECONDS, 0);
        assert_ne!(a, next_day, "descriptor ids rotate every 24 hours");
    }

    #[test]
    fn responsible_hsdirs_are_the_next_three_on_the_ring() {
        let ring = ring_of(8); // fingerprints 0x00, 0x20, 0x40 ... 0xe0
        let mut desc = [0u8; 20];
        desc[0] = 0x55; // falls between 0x40 and 0x60
        let responsible = responsible_hsdirs(DescriptorId(desc), &ring);
        assert_eq!(responsible.len(), 3);
        assert_eq!(responsible[0].0[0], 0x60);
        assert_eq!(responsible[1].0[0], 0x80);
        assert_eq!(responsible[2].0[0], 0xa0);
    }

    #[test]
    fn responsible_hsdirs_wrap_around_the_ring() {
        let ring = ring_of(4); // 0x00, 0x40, 0x80, 0xc0
        let mut desc = [0u8; 20];
        desc[0] = 0xd0; // past the last fingerprint -> wraps to start
        let responsible = responsible_hsdirs(DescriptorId(desc), &ring);
        assert_eq!(responsible[0].0[0], 0x00);
        assert_eq!(responsible[1].0[0], 0x40);
        assert_eq!(responsible[2].0[0], 0x80);
    }

    #[test]
    fn small_rings_return_every_hsdir() {
        let ring = ring_of(2);
        let responsible = responsible_hsdirs(DescriptorId([0u8; 20]), &ring);
        assert_eq!(responsible.len(), 2);
        assert!(responsible_hsdirs(DescriptorId([0u8; 20]), &[]).is_empty());
    }

    #[test]
    fn service_has_up_to_six_responsible_hsdirs() {
        let ring = ring_of(64);
        let responsible = responsible_hsdirs_for_service([0xabu8; 10], 12_345, &ring);
        assert!(responsible.len() <= 6);
        assert!(responsible.len() >= 3);
        // All unique.
        let mut dedup = responsible.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), responsible.len());
    }
}
