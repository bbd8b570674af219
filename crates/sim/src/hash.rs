//! Stable, dependency-free hashing shared across the workspace.
//!
//! Several subsystems need a hash that is *identical on every platform and
//! in every run* — `std::collections::hash_map::DefaultHasher` is
//! explicitly not that. Two users with hard reproducibility contracts
//! share these helpers:
//!
//! * **Chaos streams** (`smache-mem`'s fault injection) derive one PRNG
//!   stream per component as [`stream_seed`]`(seed, name)`, so a fault
//!   schedule is a pure function of the `(seed, component)` pair.
//! * **The result cache** (`smache-serve`) content-addresses responses by
//!   [`fingerprint128`] of the canonical request text, so a cache key
//!   computed today matches one computed by any future run of any build.
//!
//! The exact output values are part of the workspace's compatibility
//! surface; the unit tests below pin them.

/// 64-bit FNV-1a over a byte string.
///
/// The offset basis and prime are the standard Fowler–Noll–Vo constants,
/// so values can be cross-checked against any independent implementation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a state `h` over `bytes`:
/// `fnv1a_extend(fnv1a(a), b)` is the [`fnv1a`] of `a` followed by `b`.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The splitmix64 finaliser — a cheap, well-mixed `u64 -> u64` bijection.
///
/// Used to turn structured inputs (seeds XORed with name hashes) into
/// PRNG states and secondary fingerprint lanes.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives a per-component stream seed: `seed ^ fnv1a(name)`.
///
/// This is the seed-derivation rule documented in `docs/RESILIENCE.md`:
/// each named consumer gets an independent, reproducible stream from one
/// master seed, and adding a new named stream never perturbs existing
/// ones.
pub fn stream_seed(seed: u64, name: &str) -> u64 {
    seed ^ fnv1a(name.as_bytes())
}

/// A 128-bit content fingerprint of a byte string, as two `u64` lanes.
///
/// Lane one is plain FNV-1a; lane two re-walks the bytes through a
/// splitmix64-chained state so the lanes fail independently. 128 bits make
/// accidental collisions in a content-addressed cache implausible
/// (birthday bound ~2^64 entries) without pulling in a crypto hash.
pub fn fingerprint128(bytes: &[u8]) -> (u64, u64) {
    fingerprint128_split(&[], bytes)
}

/// [`fingerprint128`] of `head` followed by `tail`, without copying them
/// into one buffer. `head` must be a whole number of 8-byte words, so
/// lane two's words never straddle the seam.
pub fn fingerprint128_split(head: &[u8], tail: &[u8]) -> (u64, u64) {
    assert!(
        head.len().is_multiple_of(8),
        "fingerprint head of {} bytes",
        head.len()
    );
    let h1 = fnv1a_extend(fnv1a(head), tail);
    let mut h2 = splitmix64(h1 ^ (head.len() + tail.len()) as u64);
    for chunk in head.chunks(8).chain(tail.chunks(8)) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h2 = splitmix64(h2 ^ u64::from_le_bytes(word));
    }
    (h1, h2)
}

/// A 128-bit checksum of `head` followed by `tail`, folded a 64-bit
/// little-endian word at a time — several times faster than the
/// byte-serial [`fingerprint128`], for catching damage rather than
/// addressing content.
///
/// Each lane steps by xor, multiply by an odd constant and rotate: a
/// bijection of the lane for a fixed word and of the word for a fixed
/// lane, so two inputs of one length that differ in a single word always
/// differ in both lanes. `head` must be a whole number of words; the
/// final partial word of `tail` is zero-padded, and the total length
/// seeds the lanes, so padding never aliases a longer input.
pub fn checksum128(head: &[u8], tail: &[u8]) -> (u64, u64) {
    assert!(
        head.len().is_multiple_of(8),
        "checksum head of {} bytes",
        head.len()
    );
    let len = (head.len() + tail.len()) as u64;
    let (mut a, mut b) = (splitmix64(len), splitmix64(!len));
    let rest = tail.chunks_exact(8).remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    let words = head
        .chunks_exact(8)
        .chain(tail.chunks_exact(8))
        .chain((!rest.is_empty()).then_some(&last[..]));
    for word in words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        a = (a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
        b = (b ^ w).wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(27);
    }
    (splitmix64(a), splitmix64(b ^ a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stream_seed_is_stable_across_runs() {
        // These exact values are relied on by recorded chaos schedules:
        // changing them silently would invalidate every seeded artefact.
        assert_eq!(stream_seed(0, "mem.dram"), fnv1a(b"mem.dram"));
        assert_eq!(stream_seed(7, "mem.dram"), 7 ^ fnv1a(b"mem.dram"));
        assert_eq!(stream_seed(7, "mem.dram"), 0x12f5_7058_8239_7673);
        assert_eq!(stream_seed(7, "axi.stream"), 0x9018_cac3_ca07_cefc);
    }

    #[test]
    fn split_fingerprint_equals_the_joined_one() {
        let bytes: Vec<u8> = (0..203u32).map(|i| (i * 37 + 11) as u8).collect();
        for cut in (0..=200).step_by(8) {
            assert_eq!(
                fingerprint128_split(&bytes[..cut], &bytes[cut..]),
                fingerprint128(&bytes),
                "cut at {cut}"
            );
        }
        assert_eq!(fingerprint128_split(&[], &[]), fingerprint128(&[]));
        let h1 = fnv1a_extend(fnv1a(&bytes[..5]), &bytes[5..]);
        assert_eq!(h1, fnv1a(&bytes));
    }

    #[test]
    fn checksum_catches_every_single_word_change_and_padding() {
        let bytes: Vec<u8> = (0..203u32).map(|i| (i * 37 + 11) as u8).collect();
        let sum = checksum128(&bytes[..40], &bytes[40..]);
        // The seam moves freely along word boundaries.
        for cut in (0..=200).step_by(8) {
            assert_eq!(checksum128(&bytes[..cut], &bytes[cut..]), sum, "cut {cut}");
        }
        // Every single-bit flip changes both lanes.
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                let (a, b) = checksum128(&[], &flipped);
                assert!(a != sum.0 && b != sum.1, "byte {i} bit {bit}");
            }
        }
        assert_ne!(checksum128(&[], b"abc"), checksum128(&[], b"abc\0\0"));
        assert_ne!(checksum128(&[], &[]), checksum128(&[], &[0; 8]));
        // Pinned (an independent implementation agrees): stored entries
        // carry this checksum.
        assert_eq!(
            checksum128(&[], b"smache"),
            (0x8ced_0b31_577f_1925, 0xd65f_248d_791f_2cad)
        );
    }

    #[test]
    fn stream_seed_separates_components() {
        let a = stream_seed(1, "mem.dram");
        let b = stream_seed(1, "mem.resp_fifo");
        let c = stream_seed(2, "mem.dram");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn splitmix_is_a_bijection_on_samples() {
        let mut seen = std::collections::BTreeSet::new();
        for x in 0..1000u64 {
            assert!(seen.insert(splitmix64(x)));
        }
    }

    #[test]
    fn fingerprint_lanes_are_independent_and_stable() {
        let (a1, a2) = fingerprint128(b"simulate grid=11x11 seed=1");
        let (b1, b2) = fingerprint128(b"simulate grid=11x11 seed=2");
        assert_ne!((a1, a2), (b1, b2));
        // Pinned values: the content-addressed cache key format.
        assert_eq!(a1, fnv1a(b"simulate grid=11x11 seed=1"));
        let again = fingerprint128(b"simulate grid=11x11 seed=1");
        assert_eq!((a1, a2), again);
    }

    #[test]
    fn fingerprint_distinguishes_zero_padding() {
        // Chunked folding must not confuse a short string with its
        // zero-padded extension.
        let a = fingerprint128(b"abc");
        let b = fingerprint128(b"abc\0\0");
        assert_ne!(a, b);
    }
}
