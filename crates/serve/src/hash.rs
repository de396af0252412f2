//! Content hashing for cache keys.
//!
//! A served library's content hash is [`xxh64`]: XXH64 with seed 0 over
//! the raw bytes of its Liberty text, as the xxHash specification defines
//! it, so a client can compute the same value with any conforming
//! implementation. It is stable across platforms, Rust versions and
//! processes (unlike `std::hash`'s randomized `SipHash`), so a library's
//! hash — which appears in responses as `lib_hash` and keys every cache
//! layer — is the same in every process that ever serves it.
//!
//! XXH64 reads 32-byte stripes into four independent lanes of
//! little-endian `u64` words, folds the lanes and the length together,
//! mixes in the tail and ends with an avalanche. The lanes keep four
//! multiplies in flight, so the 6.06 MB generated library hashes in
//! 0.6 ms on the 2-vCPU bench host, where byte-serial FNV-1a, one
//! dependent multiply per byte, takes 10.2 ms.
//!
//! [`fnv1a64`] stays for values frozen under it (the parser reference
//! fixture and `serve_harness`'s response digest); nothing on the request
//! path calls it.

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane step: bijective in `acc` for a fixed word and in the word for
/// a fixed `acc`, so a change to one word always changes its lane.
#[inline]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// XXH64 of `bytes` with seed 0: the content hash of a served library.
#[must_use]
pub fn xxh64(bytes: &[u8]) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        P5
    } else {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *lane = round(*lane, u64::from_le_bytes(*word));
            }
        }
        let [v1, v2, v3, v4] = lanes;
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for lane in lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (words, rest) = tail.as_chunks::<8>();
    for word in words {
        h = (h ^ round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let (halves, rest) = rest.as_chunks::<4>();
    for half in halves {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// 64-bit FNV-1a of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The hash rendered the way responses carry it: fixed-width lowercase hex.
#[must_use]
pub fn hex64(hash: u64) -> String {
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1 KiB buffer that is not periodic in any lane width.
    fn kib() -> Vec<u8> {
        (0..1024u32).map(|i| ((i * 7 + 3) % 251) as u8).collect()
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Values of the reference implementation (libxxhash 0.8, seed 0).
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"foobar"), 0xa2aa_05ed_9085_aaf9);
        assert_eq!(xxh64(&kib()), 0xbcc1_4bbb_bb35_ede2);
    }

    /// The generated 304-cell library that the benchmark and the serve
    /// harness rename for their traffic.
    fn generated_library() -> String {
        let lib = varitune_libchar::generate_nominal(&varitune_libchar::GenerateConfig::full());
        assert_eq!(lib.cells.len(), 304);
        varitune_liberty::write_library(&lib).unwrap()
    }

    #[test]
    fn the_generated_library_hashes_to_its_reference_value() {
        let text = generated_library();
        assert_eq!(text.len(), 6_060_821);
        assert_eq!(xxh64(text.as_bytes()), 0x91d1_76aa_94d8_9223);
    }

    #[test]
    fn a_thousand_renamed_copies_hash_apart() {
        // The `serve_flood` traffic: every job renames the warm library.
        let warm = generated_library().replacen("library (", "library (w0_s1_", 1);
        let hashes: std::collections::BTreeSet<u64> = (0..1000)
            .map(|i| warm.replacen("library (", &format!("library (f{i}_"), 1))
            .map(|copy| xxh64(copy.as_bytes()))
            .collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn every_single_byte_change_moves_the_hash() {
        // Lengths 0–96 cover the byte, half-word and word tails, and one
        // to three stripes of the four lanes.
        let base = kib();
        for len in 0..=96 {
            let buf = &base[..len];
            let h = xxh64(buf);
            let mut edited = buf.to_vec();
            for at in 0..len {
                for value in (0..=u8::MAX).filter(|&v| v != buf[at]) {
                    edited[at] = value;
                    assert_ne!(xxh64(&edited), h, "length {len}, byte {at} = {value}");
                }
                edited[at] = buf[at];
            }
            edited.push(0);
            assert_ne!(xxh64(&edited), h, "length {len} plus a zero byte");
        }
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(hex64(0x2a), "000000000000002a");
        assert_eq!(hex64(u64::MAX), "ffffffffffffffff");
    }
}
