//! The x86_64 path: CRC-32 folded with carry-less multiplication, after
//! Intel's "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction" (Gopal et al., 2009), with the constants crc32fast and
//! Linux's `crc32-pclmul` use for the reflected polynomial 0xEDB88320.
//!
//! A CRC is the remainder of the message, as a polynomial over GF(2),
//! modulo P(x); `PCLMULQDQ` multiplies two 64-bit polynomials without
//! carries. A 128-bit chunk followed by `n` more bits of message is worth
//! the chunk times x^n, so the chunk can be *folded* forward `n` bits:
//! multiply its two halves by x^(n+64) mod P and x^n mod P and XOR the
//! products into the chunk `n` bits on. The kernel keeps four chunks in
//! flight and folds each over the next 512 bits (`K1`, `K2`), folds the
//! four into one (`K3`, `K4`), folds that over each remaining 128 bits,
//! shrinks it to 64 bits (`K4`, `K5`) and takes the last 64 → 32 bits by
//! Barrett reduction (`MU`, `P`). The constants are those powers of x,
//! bit-reflected and shifted left by one as the reflected variant needs.
//!
//! Every function here is safe: the intrinsics are safe to call inside a
//! `#[target_feature]` function that enables what they need, and loads
//! go through `u64::from_le_bytes`. Only calling [`update`] from code
//! that does not enable those features is `unsafe`; `lib.rs` does it once,
//! after detecting them.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

use crate::baseline;

/// Shortest input the kernel takes: the four 128-bit chunks it starts
/// from. Shorter input is not worth the reduction at the end.
pub(crate) const MIN_LEN: usize = 64;

/// x^(4·128+32) mod P, folding a chunk's low half over 512 bits.
const K1: i64 = 0x1_5444_2bd4;
/// x^(4·128−32) mod P, folding its high half.
const K2: i64 = 0x1_c6e4_1596;
/// x^(128+32) mod P, folding a low half over 128 bits.
const K3: i64 = 0x1_7519_97d0;
/// x^(128−32) mod P, folding a high half.
const K4: i64 = 0x0_ccaa_009e;
/// x^64 mod P, taking 96 bits down to 64.
const K5: i64 = 0x1_63cd_6124;
/// P(x) itself.
const P: i64 = 0x1_db71_0641;
/// μ = x^64 / P(x), the Barrett constant.
const MU: i64 = 0x1_f701_1641;

/// CRC-32 of `bytes` continuing from `crc`, as [`baseline::crc32`]
/// computes it. `bytes` is at least [`MIN_LEN`] long; the tail past the
/// last whole 16-byte chunk goes through the portable path.
#[target_feature(enable = "pclmulqdq,sse4.1")]
pub(crate) fn update(crc: u32, bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<16>();
    let (first, rest) = chunks
        .split_first_chunk::<4>()
        .expect("at least MIN_LEN bytes");
    let mut lanes = [
        load(&first[0]),
        load(&first[1]),
        load(&first[2]),
        load(&first[3]),
    ];
    // The seed enters as the register the first 32 bits are XORed into.
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!crc as i32));

    let k1k2 = _mm_set_epi64x(K2, K1);
    let (quads, singles) = rest.as_chunks::<4>();
    for quad in quads {
        for (lane, chunk) in lanes.iter_mut().zip(quad) {
            *lane = fold(*lane, load(chunk), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(lanes[0], lanes[1], k3k4);
    x = fold(x, lanes[2], k3k4);
    x = fold(x, lanes[3], k3k4);
    for chunk in singles {
        x = fold(x, load(chunk), k3k4);
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
        _mm_srli_si128::<8>(x),
    );
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P; the register
    // is the upper half of R ⊕ T2 in the reflected variant.
    let mu_p = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), mu_p);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), mu_p);
    let register = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
    baseline::crc32(!register, tail)
}

/// `acc` folded 128·k bits forward (k set by `keys`) onto `next`.
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let low = _mm_clmulepi64_si128::<0x00>(acc, keys);
    let high = _mm_clmulepi64_si128::<0x11>(acc, keys);
    _mm_xor_si128(_mm_xor_si128(next, low), high)
}

#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn load(chunk: &[u8; 16]) -> __m128i {
    let low = u64::from_le_bytes(*chunk.first_chunk().expect("16 bytes"));
    let high = u64::from_le_bytes(*chunk.last_chunk().expect("16 bytes"));
    _mm_set_epi64x(high as i64, low as i64)
}
