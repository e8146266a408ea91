//! `ScalarCode`, the one codec for numbers in an image, against the
//! oracle's own raw helpers (`tests/oracle`), with which it shares no
//! code: for widths 1, 2, 4 and 8, signed, unsigned and float, in both
//! byte orders, the range-checked store accepts and refuses exactly what
//! the oracle's `fits_*` do at each boundary, and over seeded values
//! `read`, `write` and `write_raw` agree with its `get_*` and `put_*`.

mod oracle;

use clayout::{Architecture, Endianness, LayoutError, Primitive, Scalar, ScalarCode};

const SEED: u64 = 0x5ca1_a2c0_de5e_ed33;
const VALUES: usize = 10_000;

/// A little- and a big-endian architecture that store `char`, `short`,
/// `int` and `long long` in 1, 2, 4 and 8 bytes.
const ARCHS: [Architecture; 2] = [Architecture::X86_64, Architecture::SPARC64];

/// The signed and the unsigned primitive of each width.
const WIDTHS: [(usize, Primitive, Primitive); 4] = [
    (1, Primitive::Char, Primitive::UChar),
    (2, Primitive::Short, Primitive::UShort),
    (4, Primitive::Int, Primitive::UInt),
    (8, Primitive::LongLong, Primitive::ULongLong),
];

/// splitmix64: a fixed stream of values, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value of about `bits` significant bits, so every width sees
    /// numbers that fit it and numbers that do not.
    fn value(&mut self) -> u64 {
        let bits = self.next() % 65;
        self.next().checked_shr(64 - bits as u32).unwrap_or(0)
    }
}

/// Stores `value` through `code` into a buffer of `fill` bytes and
/// returns the verdict and the buffer.
fn store(code: ScalarCode, value: Scalar, fill: u8) -> (Result<(), LayoutError>, [u8; 8]) {
    let mut buf = [fill; 8];
    let verdict = code.write(&mut buf, 0, value, "n");
    (verdict, buf)
}

/// The oracle's bytes for the integer `raw` in `width` bytes.
fn oracle_bytes(raw: u64, width: usize, order: Endianness, fill: u8) -> [u8; 8] {
    let mut buf = [fill; 8];
    oracle::put_uint(&mut buf, 0, width, order, raw);
    buf
}

/// The store's verdict matches the oracle's, a refusal names the field,
/// the value and the width and writes nothing, and an accepted value is
/// the oracle's bytes.
fn check_store(code: ScalarCode, value: Scalar, fits: bool, raw: u64, order: Endianness) {
    let width = code.size();
    let (verdict, bytes) = store(code, value, 0xa5);
    match verdict {
        Ok(()) => {
            assert!(fits, "{width}-byte {order} store accepted {value:?}");
            assert_eq!(bytes, oracle_bytes(raw, width, order, 0xa5), "{value:?}");
        }
        Err(LayoutError::ValueOutOfRange { field, value: shown, width: w }) => {
            assert!(!fits, "{width}-byte {order} store refused {value:?}");
            let expected = match value {
                Scalar::Int(v) => v.to_string(),
                Scalar::UInt(v) => v.to_string(),
                Scalar::Float(v) => v.to_string(),
            };
            assert_eq!((field.as_str(), shown, w), ("n", expected, width));
            assert_eq!(bytes, [0xa5; 8], "a refused store wrote");
        }
        Err(other) => panic!("{value:?}: {other:?}"),
    }
}

#[test]
fn the_store_refuses_exactly_what_the_oracle_does_at_every_boundary() {
    for arch in ARCHS {
        let order = arch.endianness;
        for (width, signed, unsigned) in WIDTHS {
            let (int, uint) = (ScalarCode::of(signed, &arch), ScalarCode::of(unsigned, &arch));
            assert_eq!((int.size(), uint.size()), (width, width));
            let bits = 8 * width as u32;
            let (min, max) = (i64::MIN >> (64 - bits), i64::MAX >> (64 - bits));
            let ints = [min.checked_sub(1), Some(min), Some(max), max.checked_add(1)];
            for v in ints.into_iter().flatten().chain([-1, 0, 1]) {
                let fits = oracle::fits_signed(v, width);
                check_store(int, Scalar::Int(v), fits, v as u64, order);
            }
            let umax = u64::MAX >> (64 - bits);
            for v in [Some(0), Some(umax), umax.checked_add(1)].into_iter().flatten() {
                let fits = oracle::fits_unsigned(v, width);
                check_store(uint, Scalar::UInt(v), fits, v, order);
            }
            // Both bounds are the oracle's: an off-by-one store fails here.
            assert!(oracle::fits_signed(min, width) && oracle::fits_signed(max, width));
            assert!(width == 8 || !oracle::fits_signed(min - 1, width));
            assert!(width == 8 || !oracle::fits_unsigned(umax + 1, width));
        }
    }
}

#[test]
fn reads_and_stores_agree_with_the_oracle_over_seeded_values() {
    let mut rng = Rng(SEED);
    for _ in 0..VALUES {
        let raw = rng.value();
        let at = (rng.next() % 8) as usize;
        let mut bytes = [0u8; 16];
        for b in &mut bytes {
            *b = rng.next() as u8;
        }
        for arch in ARCHS {
            let order = arch.endianness;
            let floats = [(4, Primitive::Float), (8, Primitive::Double)];
            for (width, signed, unsigned) in WIDTHS {
                let (int, uint) = (ScalarCode::of(signed, &arch), ScalarCode::of(unsigned, &arch));
                // Reads.
                let want = oracle::get_int(&bytes, at, width, order);
                assert_eq!(int.read(&bytes, at), Scalar::Int(want), "{width} {order}");
                let want = oracle::get_uint(&bytes, at, width, order);
                assert_eq!(uint.read(&bytes, at), Scalar::UInt(want), "{width} {order}");
                // Raw writes keep the low `width` bytes, as `put_uint`.
                let mut ours = bytes;
                uint.write_raw(&mut ours, at, raw);
                let mut theirs = bytes;
                oracle::put_uint(&mut theirs, at, width, order, raw);
                assert_eq!(ours, theirs, "{width} {order} {raw:#x}");
                // Range-checked stores of the same number.
                let v = raw as i64;
                check_store(int, Scalar::Int(v), oracle::fits_signed(v, width), raw, order);
                check_store(uint, Scalar::UInt(raw), oracle::fits_unsigned(raw, width), raw, order);
            }
            for (width, p) in floats {
                let code = ScalarCode::of(p, &arch);
                let bits = oracle::get_uint(&bytes, at, width, order);
                let want = match width {
                    4 => f64::from(f32::from_bits(bits as u32)),
                    _ => f64::from_bits(bits),
                };
                match code.read(&bytes, at) {
                    Scalar::Float(got) => assert_eq!(got.to_bits(), want.to_bits(), "{order}"),
                    other => panic!("a float code read {other:?}"),
                }
                // A float is stored at its width: binary32 rounds.
                let value = f64::from_bits(raw);
                let stored = match width {
                    4 => u64::from((value as f32).to_bits()),
                    _ => raw,
                };
                check_store(code, Scalar::Float(value), true, stored, order);
            }
        }
    }
}
