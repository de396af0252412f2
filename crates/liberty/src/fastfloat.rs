//! Fast-path float parsing for Liberty number runs.
//!
//! `values()` / `index_*` bodies are long comma-separated runs of short
//! decimal literals like `0.0213`; going through `str::parse::<f64>` for
//! each one pays for the full general-purpose decimal-to-binary machinery
//! (arbitrary precision fallback, special forms, locale-independent
//! scanning). Almost every literal in a real `.lib` file fits the
//! Clinger fast path: a mantissa below 2^53 and a decimal exponent within
//! ±22 convert exactly with one integer-to-double conversion and one
//! multiply or divide by a power of ten, both correctly rounded, so the
//! result is **bit-identical** to `str::parse::<f64>`.
//!
//! Full-precision literals — the library writer round-trips `f64`s via
//! shortest-representation formatting, which routinely needs 17
//! significant digits, pushing the mantissa past 2^53 — take a second
//! tier: the Eisel–Lemire algorithm, which resolves `m × 10^q` with one
//! or two 64×64→128-bit multiplies against a precomputed normalized
//! `5^q` table and is still correctly rounded (it detects the rare
//! ambiguous cases and defers instead of guessing).
//!
//! [`parse_f64_compat`] is the drop-in: it takes the Clinger path when
//! the literal qualifies, the Eisel–Lemire path when only the width
//! disqualified it, and falls back to `str::parse` for everything else
//! (mantissas beyond 19 digits, huge exponents, `inf`/`nan`/`infinity`
//! forms, hex oddities, trailing junk, ambiguous roundings). The
//! contract — checked exhaustively in tests — is
//! `parse_f64_compat(s) == s.parse::<f64>().ok()` for every input,
//! bit-for-bit.

/// Exactly representable powers of ten: `10^0 ..= 10^22`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

enum Scan {
    /// The literal qualified for the fast path; this is the exact value.
    Value(f64),
    /// Anything unusual: defer to `str::parse` for the verdict.
    Fallback,
}

/// Parses `s` as an `f64`, bit-identical to `s.parse::<f64>().ok()`.
pub fn parse_f64_compat(s: &str) -> Option<f64> {
    let b = s.as_bytes();
    match scan(b) {
        (Scan::Value(v), used) if used == b.len() => Some(v),
        _ => s.parse::<f64>().ok(),
    }
}

/// Parses the longest float literal starting at `b[0]` via the fast tiers
/// and returns it with its byte length. `None` means the prefix was unusual
/// (no digits, fallback-worthy width, ambiguous rounding): the caller must
/// re-parse through [`parse_f64_compat`] on the exactly-delimited field.
/// Used to fuse number-run scanning with parsing — the field scanner does
/// not need a separate pass to find the literal's end first.
pub(crate) fn parse_f64_prefix(b: &[u8]) -> Option<(f64, usize)> {
    match scan(b) {
        (Scan::Value(v), used) => Some((v, used)),
        (Scan::Fallback, _) => None,
    }
}

/// Whether all 8 bytes of the little-endian word are ASCII digits.
fn is_8digits(w: u64) -> bool {
    let a = w.wrapping_add(0x4646_4646_4646_4646);
    let b = w.wrapping_sub(0x3030_3030_3030_3030);
    (a | b) & 0x8080_8080_8080_8080 == 0
}

/// Value of 8 ASCII digits packed little-endian in `w` (caller guarantees
/// [`is_8digits`]): three multiply steps instead of eight serial
/// multiply-adds.
fn parse_8digits(w: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 0x000F_4240_0000_0064; // 100 + (10^6 << 32)
    const MUL2: u64 = 0x0000_2710_0000_0001; // 1 + (10^4 << 32)
    let w = w - 0x3030_3030_3030_3030;
    let w = (w * 10) + (w >> 8); // adjacent digit pairs → 2-digit values
    let v1 = (w & MASK).wrapping_mul(MUL1);
    let v2 = ((w >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((v1.wrapping_add(v2) >> 32) as u32)
}

fn scan(b: &[u8]) -> (Scan, usize) {
    let n = b.len();
    let mut i = 0;
    let neg = match b.first() {
        Some(b'-') => {
            i = 1;
            true
        }
        Some(b'+') => {
            i = 1;
            false
        }
        _ => false,
    };
    let mut mant: u64 = 0;
    let mut digits = 0u32; // significant digits accumulated in `mant`
    let mut exp10: i32 = 0;
    let mut seen_digit = false;
    while i < n && b[i].is_ascii_digit() {
        seen_digit = true;
        let d = u64::from(b[i] - b'0');
        if mant == 0 && d == 0 {
            // Leading zeros carry no information.
        } else if digits < 19 {
            mant = mant * 10 + d;
            digits += 1;
        } else {
            // Mantissa wider than u64 can hold exactly.
            return (Scan::Fallback, i);
        }
        i += 1;
    }
    if i < n && b[i] == b'.' {
        i += 1;
        while i < n && b[i].is_ascii_digit() {
            // Gulp 8 digits at a time once the mantissa is nonzero (so the
            // leading-zero exponent bookkeeping stays serial) and the
            // 19-digit budget allows: shortest-repr literals carry 17
            // significant digits, mostly in the fraction.
            if mant != 0 && digits + 8 <= 19 && i + 8 <= n {
                let mut chunk = [0u8; 8];
                chunk.copy_from_slice(&b[i..i + 8]);
                let w = u64::from_le_bytes(chunk);
                if is_8digits(w) {
                    mant = mant * 100_000_000 + parse_8digits(w);
                    digits += 8;
                    exp10 -= 8;
                    i += 8;
                    continue;
                }
            }
            seen_digit = true;
            let d = u64::from(b[i] - b'0');
            if mant == 0 && d == 0 {
                exp10 -= 1; // 0.000x — zeros shift the exponent only
            } else if digits < 19 {
                mant = mant * 10 + d;
                digits += 1;
                exp10 -= 1;
            } else {
                return (Scan::Fallback, i);
            }
            i += 1;
        }
    }
    if !seen_digit {
        // ".", "+", "e5", "" ... — let std decide (it rejects all of these).
        return (Scan::Fallback, i);
    }
    if i < n && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        let eneg = match b.get(i) {
            Some(b'-') => {
                i += 1;
                true
            }
            Some(b'+') => {
                i += 1;
                false
            }
            _ => false,
        };
        let mut e: i32 = 0;
        let mut eseen = false;
        while i < n && b[i].is_ascii_digit() {
            eseen = true;
            if e < 10_000 {
                e = e * 10 + i32::from(b[i] - b'0');
            }
            i += 1;
        }
        if !eseen {
            return (Scan::Fallback, i); // "1e", "1e+" — std rejects
        }
        exp10 += if eneg { -e } else { e };
    }
    if mant == 0 {
        return (Scan::Value(if neg { -0.0 } else { 0.0 }), i);
    }
    if mant < (1u64 << 53) && (-22..=22).contains(&exp10) {
        // Clinger fast path: both operands exact, one correctly rounded op.
        let m = mant as f64;
        #[allow(clippy::cast_sign_loss)]
        let p = POW10[exp10.unsigned_abs() as usize];
        let v = if exp10 < 0 { m / p } else { m * p };
        return (Scan::Value(if neg { -v } else { v }), i);
    }
    let verdict = match eisel_lemire(mant, exp10) {
        Some(v) => Scan::Value(if neg { -v } else { v }),
        None => Scan::Fallback,
    };
    (verdict, i)
}

// ---------------------------------------------------------------------------
// Eisel–Lemire: correctly rounded `w × 10^q` via 128-bit products.

/// `q` range the normalized `5^q` table covers. Liberty data never leaves
/// single-digit decades, so ±80 is generous; anything outside defers to
/// `str::parse` (after the guaranteed-underflow/overflow shortcuts).
const EL_MIN_Q: i32 = -80;
const EL_MAX_Q: i32 = 80;

/// Below this power of ten every nonzero mantissa underflows to zero …
const SMALLEST_POWER_OF_TEN: i32 = -342;
/// … and above this one everything overflows to infinity.
const LARGEST_POWER_OF_TEN: i32 = 308;

const MANTISSA_EXPLICIT_BITS: i32 = 52;
const MINIMUM_EXPONENT: i32 = -1023;
const INFINITE_POWER: i32 = 0x7FF;

/// Binary exponent of the normalized 128-bit approximation of `5^q`
/// (the classic `⌊q × log2(5)⌋ + 63` in fixed point).
fn pow5_exponent(q: i32) -> i32 {
    ((q.wrapping_mul(152_170 + 65_536)) >> 16) + 63
}

fn full_multiplication(a: u64, b: u64) -> (u64, u64) {
    let r = u128::from(a) * u128::from(b);
    (r as u64, (r >> 64) as u64)
}

/// `w × 5^q` to at least `precision` significant bits: one multiply by
/// the high half of the table entry, refined by the low half only when
/// the truncated bits could matter.
fn compute_product_approx(q: i32, w: u64, precision: u32) -> (u64, u64) {
    debug_assert!(precision < 64);
    let mask = u64::MAX >> precision;
    #[allow(clippy::cast_sign_loss)]
    let (hi5, lo5) = POWER_OF_FIVE_128[(q - EL_MIN_Q) as usize];
    let (mut first_lo, mut first_hi) = full_multiplication(w, hi5);
    if first_hi & mask == mask {
        let (_, second_hi) = full_multiplication(w, lo5);
        first_lo = first_lo.wrapping_add(second_hi);
        if second_hi > first_lo {
            first_hi += 1;
        }
    }
    (first_lo, first_hi)
}

/// Correctly rounded `w × 10^q` as an `f64`, or `None` when the rounding
/// is ambiguous at this precision (defer to `str::parse`). `w` must be
/// the exact decimal mantissa (no truncated digits).
fn eisel_lemire(w: u64, q: i32) -> Option<f64> {
    debug_assert!(w != 0);
    if q < SMALLEST_POWER_OF_TEN {
        return Some(0.0);
    }
    if q > LARGEST_POWER_OF_TEN {
        return Some(f64::INFINITY);
    }
    if !(EL_MIN_Q..=EL_MAX_Q).contains(&q) {
        return None;
    }
    let lz = w.leading_zeros();
    let w = w << lz;
    // 53 mantissa bits + hidden bit + rounding bit + possible leading zero.
    #[allow(clippy::cast_sign_loss)]
    let (lo, hi) = compute_product_approx(q, w, MANTISSA_EXPLICIT_BITS as u32 + 3);
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        // Truncated table bits could flip the rounding; within ±(27, 55)
        // the 128-bit product is provably exact, outside we defer.
        return None;
    }
    let upperbit = (hi >> 63) as i32;
    #[allow(clippy::cast_sign_loss)]
    let mut mantissa = hi >> (upperbit + 64 - MANTISSA_EXPLICIT_BITS - 3);
    #[allow(clippy::cast_possible_wrap)]
    let mut power2 = pow5_exponent(q) + upperbit - lz as i32 - MINIMUM_EXPONENT;
    if power2 <= 0 {
        // Subnormal (or underflow to zero) path.
        if -power2 + 1 >= 64 {
            return Some(0.0);
        }
        #[allow(clippy::cast_sign_loss)]
        {
            mantissa >>= (-power2 + 1) as u32;
        }
        mantissa += mantissa & 1;
        mantissa >>= 1;
        let e = i32::from(mantissa >= (1u64 << MANTISSA_EXPLICIT_BITS));
        return Some(assemble(e, mantissa));
    }
    // Round-ties-to-even correction when the product is exactly halfway.
    #[allow(clippy::cast_sign_loss)]
    if lo <= 1
        && (-4..=23).contains(&q)
        && mantissa & 0b11 == 0b01
        && (mantissa << (upperbit + 64 - MANTISSA_EXPLICIT_BITS - 3)) == hi
    {
        mantissa &= !1u64;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= (2u64 << MANTISSA_EXPLICIT_BITS) {
        mantissa = 1u64 << MANTISSA_EXPLICIT_BITS;
        power2 += 1;
    }
    mantissa &= !(1u64 << MANTISSA_EXPLICIT_BITS);
    if power2 >= INFINITE_POWER {
        return Some(f64::INFINITY);
    }
    Some(assemble(power2, mantissa))
}

fn assemble(biased_exponent: i32, mantissa: u64) -> f64 {
    #[allow(clippy::cast_sign_loss)]
    f64::from_bits(((biased_exponent as u64) << MANTISSA_EXPLICIT_BITS) | mantissa)
}

/// The most significant 128 bits of `5^q`, normalized so the top bit is
/// set, for `q` in [`EL_MIN_Q`]`..=`[`EL_MAX_Q`]. Negative powers are
/// rounded **up** (so a truncated product under-approximates in a known
/// direction); positive powers are truncated.
#[allow(clippy::unreadable_literal)]
const POWER_OF_FIVE_128: [(u64, u64); (EL_MAX_Q - EL_MIN_Q + 1) as usize] = [
    (0x97c560ba6b0919a5, 0xdccd879fc967d41b), // 5^-80
    (0xbdb6b8e905cb600f, 0x5400e987bbc1c921), // 5^-79
    (0xed246723473e3813, 0x290123e9aab23b69), // 5^-78
    (0x9436c0760c86e30b, 0xf9a0b6720aaf6522), // 5^-77
    (0xb94470938fa89bce, 0xf808e40e8d5b3e6a), // 5^-76
    (0xe7958cb87392c2c2, 0xb60b1d1230b20e05), // 5^-75
    (0x90bd77f3483bb9b9, 0xb1c6f22b5e6f48c3), // 5^-74
    (0xb4ecd5f01a4aa828, 0x1e38aeb6360b1af4), // 5^-73
    (0xe2280b6c20dd5232, 0x25c6da63c38de1b1), // 5^-72
    (0x8d590723948a535f, 0x579c487e5a38ad0f), // 5^-71
    (0xb0af48ec79ace837, 0x2d835a9df0c6d852), // 5^-70
    (0xdcdb1b2798182244, 0xf8e431456cf88e66), // 5^-69
    (0x8a08f0f8bf0f156b, 0x1b8e9ecb641b5900), // 5^-68
    (0xac8b2d36eed2dac5, 0xe272467e3d222f40), // 5^-67
    (0xd7adf884aa879177, 0x5b0ed81dcc6abb10), // 5^-66
    (0x86ccbb52ea94baea, 0x98e947129fc2b4ea), // 5^-65
    (0xa87fea27a539e9a5, 0x3f2398d747b36225), // 5^-64
    (0xd29fe4b18e88640e, 0x8eec7f0d19a03aae), // 5^-63
    (0x83a3eeeef9153e89, 0x1953cf68300424ad), // 5^-62
    (0xa48ceaaab75a8e2b, 0x5fa8c3423c052dd8), // 5^-61
    (0xcdb02555653131b6, 0x3792f412cb06794e), // 5^-60
    (0x808e17555f3ebf11, 0xe2bbd88bbee40bd1), // 5^-59
    (0xa0b19d2ab70e6ed6, 0x5b6aceaeae9d0ec5), // 5^-58
    (0xc8de047564d20a8b, 0xf245825a5a445276), // 5^-57
    (0xfb158592be068d2e, 0xeed6e2f0f0d56713), // 5^-56
    (0x9ced737bb6c4183d, 0x55464dd69685606c), // 5^-55
    (0xc428d05aa4751e4c, 0xaa97e14c3c26b887), // 5^-54
    (0xf53304714d9265df, 0xd53dd99f4b3066a9), // 5^-53
    (0x993fe2c6d07b7fab, 0xe546a8038efe402a), // 5^-52
    (0xbf8fdb78849a5f96, 0xde98520472bdd034), // 5^-51
    (0xef73d256a5c0f77c, 0x963e66858f6d4441), // 5^-50
    (0x95a8637627989aad, 0xdde7001379a44aa9), // 5^-49
    (0xbb127c53b17ec159, 0x5560c018580d5d53), // 5^-48
    (0xe9d71b689dde71af, 0xaab8f01e6e10b4a7), // 5^-47
    (0x9226712162ab070d, 0xcab3961304ca70e9), // 5^-46
    (0xb6b00d69bb55c8d1, 0x3d607b97c5fd0d23), // 5^-45
    (0xe45c10c42a2b3b05, 0x8cb89a7db77c506b), // 5^-44
    (0x8eb98a7a9a5b04e3, 0x77f3608e92adb243), // 5^-43
    (0xb267ed1940f1c61c, 0x55f038b237591ed4), // 5^-42
    (0xdf01e85f912e37a3, 0x6b6c46dec52f6689), // 5^-41
    (0x8b61313bbabce2c6, 0x2323ac4b3b3da016), // 5^-40
    (0xae397d8aa96c1b77, 0xabec975e0a0d081b), // 5^-39
    (0xd9c7dced53c72255, 0x96e7bd358c904a22), // 5^-38
    (0x881cea14545c7575, 0x7e50d64177da2e55), // 5^-37
    (0xaa242499697392d2, 0xdde50bd1d5d0b9ea), // 5^-36
    (0xd4ad2dbfc3d07787, 0x955e4ec64b44e865), // 5^-35
    (0x84ec3c97da624ab4, 0xbd5af13bef0b113f), // 5^-34
    (0xa6274bbdd0fadd61, 0xecb1ad8aeacdd58f), // 5^-33
    (0xcfb11ead453994ba, 0x67de18eda5814af3), // 5^-32
    (0x81ceb32c4b43fcf4, 0x80eacf948770ced8), // 5^-31
    (0xa2425ff75e14fc31, 0xa1258379a94d028e), // 5^-30
    (0xcad2f7f5359a3b3e, 0x096ee45813a04331), // 5^-29
    (0xfd87b5f28300ca0d, 0x8bca9d6e188853fd), // 5^-28
    (0x9e74d1b791e07e48, 0x775ea264cf55347e), // 5^-27
    (0xc612062576589dda, 0x95364afe032a819e), // 5^-26
    (0xf79687aed3eec551, 0x3a83ddbd83f52205), // 5^-25
    (0x9abe14cd44753b52, 0xc4926a9672793543), // 5^-24
    (0xc16d9a0095928a27, 0x75b7053c0f178294), // 5^-23
    (0xf1c90080baf72cb1, 0x5324c68b12dd6339), // 5^-22
    (0x971da05074da7bee, 0xd3f6fc16ebca5e04), // 5^-21
    (0xbce5086492111aea, 0x88f4bb1ca6bcf585), // 5^-20
    (0xec1e4a7db69561a5, 0x2b31e9e3d06c32e6), // 5^-19
    (0x9392ee8e921d5d07, 0x3aff322e62439fd0), // 5^-18
    (0xb877aa3236a4b449, 0x09befeb9fad487c3), // 5^-17
    (0xe69594bec44de15b, 0x4c2ebe687989a9b4), // 5^-16
    (0x901d7cf73ab0acd9, 0x0f9d37014bf60a11), // 5^-15
    (0xb424dc35095cd80f, 0x538484c19ef38c95), // 5^-14
    (0xe12e13424bb40e13, 0x2865a5f206b06fba), // 5^-13
    (0x8cbccc096f5088cb, 0xf93f87b7442e45d4), // 5^-12
    (0xafebff0bcb24aafe, 0xf78f69a51539d749), // 5^-11
    (0xdbe6fecebdedd5be, 0xb573440e5a884d1c), // 5^-10
    (0x89705f4136b4a597, 0x31680a88f8953031), // 5^-9
    (0xabcc77118461cefc, 0xfdc20d2b36ba7c3e), // 5^-8
    (0xd6bf94d5e57a42bc, 0x3d32907604691b4d), // 5^-7
    (0x8637bd05af6c69b5, 0xa63f9a49c2c1b110), // 5^-6
    (0xa7c5ac471b478423, 0x0fcf80dc33721d54), // 5^-5
    (0xd1b71758e219652b, 0xd3c36113404ea4a9), // 5^-4
    (0x83126e978d4fdf3b, 0x645a1cac083126ea), // 5^-3
    (0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a4), // 5^-2
    (0xcccccccccccccccc, 0xcccccccccccccccd), // 5^-1
    (0x8000000000000000, 0x0000000000000000), // 5^0
    (0xa000000000000000, 0x0000000000000000), // 5^1
    (0xc800000000000000, 0x0000000000000000), // 5^2
    (0xfa00000000000000, 0x0000000000000000), // 5^3
    (0x9c40000000000000, 0x0000000000000000), // 5^4
    (0xc350000000000000, 0x0000000000000000), // 5^5
    (0xf424000000000000, 0x0000000000000000), // 5^6
    (0x9896800000000000, 0x0000000000000000), // 5^7
    (0xbebc200000000000, 0x0000000000000000), // 5^8
    (0xee6b280000000000, 0x0000000000000000), // 5^9
    (0x9502f90000000000, 0x0000000000000000), // 5^10
    (0xba43b74000000000, 0x0000000000000000), // 5^11
    (0xe8d4a51000000000, 0x0000000000000000), // 5^12
    (0x9184e72a00000000, 0x0000000000000000), // 5^13
    (0xb5e620f480000000, 0x0000000000000000), // 5^14
    (0xe35fa931a0000000, 0x0000000000000000), // 5^15
    (0x8e1bc9bf04000000, 0x0000000000000000), // 5^16
    (0xb1a2bc2ec5000000, 0x0000000000000000), // 5^17
    (0xde0b6b3a76400000, 0x0000000000000000), // 5^18
    (0x8ac7230489e80000, 0x0000000000000000), // 5^19
    (0xad78ebc5ac620000, 0x0000000000000000), // 5^20
    (0xd8d726b7177a8000, 0x0000000000000000), // 5^21
    (0x878678326eac9000, 0x0000000000000000), // 5^22
    (0xa968163f0a57b400, 0x0000000000000000), // 5^23
    (0xd3c21bcecceda100, 0x0000000000000000), // 5^24
    (0x84595161401484a0, 0x0000000000000000), // 5^25
    (0xa56fa5b99019a5c8, 0x0000000000000000), // 5^26
    (0xcecb8f27f4200f3a, 0x0000000000000000), // 5^27
    (0x813f3978f8940984, 0x4000000000000000), // 5^28
    (0xa18f07d736b90be5, 0x5000000000000000), // 5^29
    (0xc9f2c9cd04674ede, 0xa400000000000000), // 5^30
    (0xfc6f7c4045812296, 0x4d00000000000000), // 5^31
    (0x9dc5ada82b70b59d, 0xf020000000000000), // 5^32
    (0xc5371912364ce305, 0x6c28000000000000), // 5^33
    (0xf684df56c3e01bc6, 0xc732000000000000), // 5^34
    (0x9a130b963a6c115c, 0x3c7f400000000000), // 5^35
    (0xc097ce7bc90715b3, 0x4b9f100000000000), // 5^36
    (0xf0bdc21abb48db20, 0x1e86d40000000000), // 5^37
    (0x96769950b50d88f4, 0x1314448000000000), // 5^38
    (0xbc143fa4e250eb31, 0x17d955a000000000), // 5^39
    (0xeb194f8e1ae525fd, 0x5dcfab0800000000), // 5^40
    (0x92efd1b8d0cf37be, 0x5aa1cae500000000), // 5^41
    (0xb7abc627050305ad, 0xf14a3d9e40000000), // 5^42
    (0xe596b7b0c643c719, 0x6d9ccd05d0000000), // 5^43
    (0x8f7e32ce7bea5c6f, 0xe4820023a2000000), // 5^44
    (0xb35dbf821ae4f38b, 0xdda2802c8a800000), // 5^45
    (0xe0352f62a19e306e, 0xd50b2037ad200000), // 5^46
    (0x8c213d9da502de45, 0x4526f422cc340000), // 5^47
    (0xaf298d050e4395d6, 0x9670b12b7f410000), // 5^48
    (0xdaf3f04651d47b4c, 0x3c0cdd765f114000), // 5^49
    (0x88d8762bf324cd0f, 0xa5880a69fb6ac800), // 5^50
    (0xab0e93b6efee0053, 0x8eea0d047a457a00), // 5^51
    (0xd5d238a4abe98068, 0x72a4904598d6d880), // 5^52
    (0x85a36366eb71f041, 0x47a6da2b7f864750), // 5^53
    (0xa70c3c40a64e6c51, 0x999090b65f67d924), // 5^54
    (0xd0cf4b50cfe20765, 0xfff4b4e3f741cf6d), // 5^55
    (0x82818f1281ed449f, 0xbff8f10e7a8921a4), // 5^56
    (0xa321f2d7226895c7, 0xaff72d52192b6a0d), // 5^57
    (0xcbea6f8ceb02bb39, 0x9bf4f8a69f764490), // 5^58
    (0xfee50b7025c36a08, 0x02f236d04753d5b4), // 5^59
    (0x9f4f2726179a2245, 0x01d762422c946590), // 5^60
    (0xc722f0ef9d80aad6, 0x424d3ad2b7b97ef5), // 5^61
    (0xf8ebad2b84e0d58b, 0xd2e0898765a7deb2), // 5^62
    (0x9b934c3b330c8577, 0x63cc55f49f88eb2f), // 5^63
    (0xc2781f49ffcfa6d5, 0x3cbf6b71c76b25fb), // 5^64
    (0xf316271c7fc3908a, 0x8bef464e3945ef7a), // 5^65
    (0x97edd871cfda3a56, 0x97758bf0e3cbb5ac), // 5^66
    (0xbde94e8e43d0c8ec, 0x3d52eeed1cbea317), // 5^67
    (0xed63a231d4c4fb27, 0x4ca7aaa863ee4bdd), // 5^68
    (0x945e455f24fb1cf8, 0x8fe8caa93e74ef6a), // 5^69
    (0xb975d6b6ee39e436, 0xb3e2fd538e122b44), // 5^70
    (0xe7d34c64a9c85d44, 0x60dbbca87196b616), // 5^71
    (0x90e40fbeea1d3a4a, 0xbc8955e946fe31cd), // 5^72
    (0xb51d13aea4a488dd, 0x6babab6398bdbe41), // 5^73
    (0xe264589a4dcdab14, 0xc696963c7eed2dd1), // 5^74
    (0x8d7eb76070a08aec, 0xfc1e1de5cf543ca2), // 5^75
    (0xb0de65388cc8ada8, 0x3b25a55f43294bcb), // 5^76
    (0xdd15fe86affad912, 0x49ef0eb713f39ebe), // 5^77
    (0x8a2dbf142dfcc7ab, 0x6e3569326c784337), // 5^78
    (0xacb92ed9397bf996, 0x49c2c37f07965404), // 5^79
    (0xd7e77a8f87daf7fb, 0xdc33745ec97be906), // 5^80
];

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// The whole contract in one assertion.
    fn check(s: &str) {
        let expect = s.parse::<f64>().ok();
        let got = parse_f64_compat(s);
        match (expect, got) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "mismatch on `{s}`: {a} vs {b}");
            }
            _ => panic!("presence mismatch on `{s}`: std={expect:?} fast={got:?}"),
        }
    }

    #[test]
    fn common_liberty_literals() {
        for s in [
            "0",
            "1",
            "-1",
            "+1",
            "0.0",
            "0.1",
            "-0.5",
            ".5",
            "-.25",
            "5.",
            "1.25",
            "0.0213",
            "1e-3",
            "1E3",
            "2.5E2",
            "1e22",
            "1e-22",
            "123456789.123456789",
            "0.000001",
            "9007199254740991",
            "9007199254740993",
            "-0",
            "-0.0",
        ] {
            check(s);
        }
    }

    #[test]
    fn odd_forms_match_std() {
        for s in [
            "",
            ".",
            "+",
            "-",
            "e5",
            "1e",
            "1e+",
            "1e999",
            "1e-999",
            "nan",
            "NaN",
            "inf",
            "infinity",
            "-inf",
            "1.2.3",
            "1_000",
            "0x10",
            " 1",
            "1 ",
            "--1",
            "1e10000000000",
            "00000000000000000000000001",
            "0.00000000000000000000000001",
            "184467440737095516150",
            "18446744073709551615",
            "2.2250738585072011e-308",
        ] {
            check(s);
        }
    }

    #[test]
    fn sweep_generated_literals() {
        // Deterministic sweep over mantissa/exponent/shape combinations.
        let mants = [
            "0",
            "1",
            "7",
            "42",
            "999",
            "12345",
            "4503599627370495",
            "9007199254740993",
            "19999999999999999999",
        ];
        let exps = ["", "e0", "e5", "e-5", "e22", "e-22", "e23", "e-23", "E+7"];
        let signs = ["", "-", "+"];
        for m in mants {
            for e in exps {
                for s in signs {
                    check(&format!("{s}{m}{e}"));
                    check(&format!("{s}{m}.{e}"));
                    check(&format!("{s}.{m}{e}"));
                    check(&format!("{s}0.{m}{e}"));
                    check(&format!("{s}{m}.{m}{e}"));
                }
            }
        }
    }

    #[test]
    fn eisel_lemire_tier_matches_std() {
        // 16–19 significant digit mantissas (past 2^53, so the Clinger
        // tier cannot take them) across the exponent range the 5^q table
        // covers and beyond it.
        let mants: [u64; 10] = [
            9007199254740993, // 2^53 + 1
            9007199254740995,
            21999999999999998, // writer-style shortest repr payload
            6525000000000001,
            18014398509481985, // 2^54 + 1 (tie-ish neighborhoods)
            99999999999999999,
            100000000000000003,
            1999999999999999999,
            9999999999999999999,
            18446744073709551615, // u64::MAX
        ];
        for m in mants {
            for e in [
                -90, -81, -80, -45, -25, -20, -17, -5, 0, 5, 20, 45, 80, 81, 300, 309,
            ] {
                for s in ["", "-"] {
                    check(&format!("{s}{m}e{e}"));
                    check(&format!("{s}0.{m}e{e}"));
                }
            }
        }
        // Shortest-repr round-trip: every f64 the writer can emit must
        // re-parse to the same bits through the fast path.
        for k in 0..20_000u64 {
            let x = f64::from_bits(0x3F00_0000_0000_0000 + k * 0x0000_1357_9BDF_0211);
            let s = format!("{x}");
            assert_eq!(
                parse_f64_compat(&s).map(f64::to_bits),
                Some(x.to_bits()),
                "round-trip failed for {s}"
            );
        }
        // Dense sweep around decimal rounding boundaries.
        for k in 0..50_000u64 {
            let m = 9007199254740990 + k;
            check(&format!("{m}e-16"));
            check(&format!("{m}e-20"));
        }
    }
}
