//! Offline shim for the `crc32fast` crate: CRC-32 (IEEE 802.3, zlib's
//! reflected polynomial 0xEDB88320) with **no external dependencies**.
//!
//! Two paths give the same values:
//!
//! * `baseline` — zlib's braided table CRC, on every platform;
//! * `pclmulqdq` — on x86_64, a kernel that folds the input 512 bits at
//!   a time with carry-less multiplication and ends in a Barrett
//!   reduction, several times faster on a segment-log record.
//!
//! [`Hasher::update`] takes the kernel when the CPU reports `pclmulqdq`
//! and `sse4.1` at run time and the input is at least 64 bytes long
//! (the kernel hands its own tail to the braided loop); anything else
//! takes the braided loop. Nothing else selects a path. The kernel is
//! safe Rust over `core::arch` intrinsics; this crate's one `unsafe`
//! block is the call into it, made after the features were detected.
//!
//! Only the API this workspace consumes: `Hasher::{new_with_initial,
//! update, finalize}`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
#[cfg(target_arch = "x86_64")]
mod pclmulqdq;

/// A running CRC-32.
pub struct Hasher {
    crc: u32,
}

impl Hasher {
    /// A hasher that continues from `init`, the CRC of the bytes
    /// before; `0` starts a fresh checksum.
    #[inline]
    pub fn new_with_initial(init: u32) -> Hasher {
        Hasher { crc: init }
    }

    /// Folds `bytes` into the checksum.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        self.crc = clmul(self.crc, bytes).unwrap_or_else(|| baseline::crc32(self.crc, bytes));
    }

    /// The CRC-32 of every byte folded in so far.
    #[inline]
    pub fn finalize(self) -> u32 {
        self.crc
    }
}

/// The folding kernel's CRC of `bytes` continuing from `crc`, or `None`
/// when the kernel does not run: input under its 64 bytes, or a CPU
/// without the instructions.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn clmul(crc: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < pclmulqdq::MIN_LEN
        || !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
    {
        return None;
    }
    // SAFETY: `pclmulqdq::update` is safe code compiled for the
    // `pclmulqdq` and `sse4.1` target features; calling it is sound
    // exactly when the running CPU has both, which was detected above.
    Some(unsafe { pclmulqdq::update(crc, bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn clmul(_crc: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CRC one bit at a time, straight from the polynomial.
    fn bitwise(seed: u32, bytes: &[u8]) -> u32 {
        let mut crc = !seed;
        for &b in bytes {
            crc = step(crc, b);
        }
        !crc
    }

    fn step(mut crc: u32, byte: u8) -> u32 {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        crc
    }

    /// SplitMix64 bytes: a fixed, seeded input.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    fn hash(seed: u32, bytes: &[u8]) -> u32 {
        let mut hasher = Hasher::new_with_initial(seed);
        hasher.update(bytes);
        hasher.finalize()
    }

    #[test]
    fn kernel_and_braided_loop_are_the_bitwise_crc_at_every_length_and_offset() {
        const LONGEST: usize = 4096;
        let data = bytes(1, LONGEST + 16);
        for seed in [0, 0xFFFF_FFFF, 0x1234_5678] {
            for offset in 0..16 {
                // The bitwise register after each prefix, one pass.
                let mut register = !seed;
                for len in 0..=LONGEST {
                    let slice = &data[offset..offset + len];
                    let want = !register;
                    assert_eq!(
                        baseline::crc32(seed, slice),
                        want,
                        "braided, len {len} at {offset}"
                    );
                    if let Some(got) = clmul(seed, slice) {
                        assert_eq!(got, want, "kernel, len {len} at {offset}, seed {seed:#x}");
                    }
                    if len < LONGEST {
                        register = step(register, data[offset + len]);
                    }
                }
            }
        }
        let mebibyte = bytes(2, 1 << 20);
        let want = bitwise(0, &mebibyte);
        assert_eq!(baseline::crc32(0, &mebibyte), want);
        assert_eq!(hash(0, &mebibyte), want);
    }

    #[test]
    fn a_checksum_continues_at_every_cut() {
        let data = bytes(3, 600);
        for len in 0..=data.len() {
            let slice = &data[..len];
            let whole = bitwise(0xDEAD_BEEF, slice);
            for cut in 0..=len {
                let (front, back) = slice.split_at(cut);
                let mut hasher = Hasher::new_with_initial(0xDEAD_BEEF);
                hasher.update(front);
                hasher.update(back);
                assert_eq!(hasher.finalize(), whole, "len {len}, cut {cut}");
            }
        }
    }

    #[test]
    fn zlibs_values() {
        // Computed with zlib's crc32 outside this repository, e.g.
        // python3 -c "import zlib; print(hex(zlib.crc32(bytes(range(256)))))".
        assert_eq!(hash(0, b""), 0);
        assert_eq!(hash(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(
            hash(0, b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        let counting: Vec<u8> = (0..=255).collect();
        assert_eq!(hash(0, &counting), 0x2905_8C73);
        assert_eq!(hash(0xDEAD_BEEF, &counting), 0xC2BF_5872);
        // bytes((i * 31 + 7) % 256 for i in range(1000))
        let strided: Vec<u8> = (0..1000u32).map(|i| ((i * 31 + 7) % 256) as u8).collect();
        assert_eq!(hash(0, &strided), 0x8902_161E);
        // bytes(i % 251 for i in range(65537))
        let modular: Vec<u8> = (0..65_537u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(hash(0, &modular), 0xA9CC_6E73);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_cpu_with_carry_less_multiply_runs_the_kernel() {
        let has_it = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        let data = [0x5A; pclmulqdq::MIN_LEN];
        assert_eq!(
            clmul(0, &data).is_some(),
            has_it,
            "pclmulqdq and sse4.1: {has_it}"
        );
        assert_eq!(clmul(0, &data[1..]), None, "under the kernel's threshold");
    }
}
