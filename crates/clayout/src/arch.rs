//! Machine/compiler ABI descriptions.

use std::fmt;

use crate::ctype::Primitive;

/// Byte order of a machine architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endianness {
    /// Least-significant byte first (x86, ARM in common configurations).
    Little,
    /// Most-significant byte first (SPARC, classic POWER — and the XDR
    /// canonical wire order).
    Big,
}

impl fmt::Display for Endianness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Endianness::Little => "little-endian",
            Endianness::Big => "big-endian",
        })
    }
}

/// The size and alignment of one C primitive under an ABI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SizeAlign {
    /// `sizeof` in bytes.
    pub size: usize,
    /// `alignof` in bytes.
    pub align: usize,
}

impl SizeAlign {
    /// Creates a naturally-aligned primitive (`align == size`).
    const fn natural(size: usize) -> Self {
        SizeAlign { size, align: size }
    }

    /// Creates a primitive with an explicit alignment (e.g. `double` on
    /// the classic i386 ABI is 8 bytes, aligned to 4).
    pub const fn with_align(size: usize, align: usize) -> Self {
        SizeAlign { size, align }
    }
}

/// A machine/compiler ABI: byte order plus the size and alignment of each
/// C primitive and of data pointers.
///
/// This is what the paper's metadata pipeline discovers about the host via
/// `sizeof` and offset macros. Modelling it as data lets one process bind
/// a format *as if it were* another machine, which is how heterogeneity is
/// simulated throughout this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Architecture {
    /// Human-readable ABI name (e.g. `"x86_64"`).
    pub name: &'static str,
    /// Byte order.
    pub endianness: Endianness,
    /// `short` / `unsigned short`.
    pub short: SizeAlign,
    /// `int` / `unsigned int`.
    pub int: SizeAlign,
    /// `long` / `unsigned long`.
    pub long: SizeAlign,
    /// `long long` / `unsigned long long`.
    pub long_long: SizeAlign,
    /// Data pointers (`char*` and friends).
    pub pointer: SizeAlign,
    /// `float`.
    pub float: SizeAlign,
    /// `double`.
    pub double: SizeAlign,
}

impl Architecture {
    /// The x86-64 System V ABI (LP64, little-endian).
    pub const X86_64: Architecture = Architecture {
        name: "x86_64",
        endianness: Endianness::Little,
        short: SizeAlign::natural(2),
        int: SizeAlign::natural(4),
        long: SizeAlign::natural(8),
        long_long: SizeAlign::natural(8),
        pointer: SizeAlign::natural(8),
        float: SizeAlign::natural(4),
        double: SizeAlign::natural(8),
    };

    /// The classic i386 System V ABI (ILP32, little-endian). Note the
    /// historically 4-byte alignment of 8-byte `double`/`long long`.
    pub const I386: Architecture = Architecture {
        name: "i386",
        endianness: Endianness::Little,
        short: SizeAlign::natural(2),
        int: SizeAlign::natural(4),
        long: SizeAlign::natural(4),
        long_long: SizeAlign::with_align(8, 4),
        pointer: SizeAlign::natural(4),
        float: SizeAlign::natural(4),
        double: SizeAlign::with_align(8, 4),
    };

    /// SPARC V8 (ILP32, big-endian) — the Sun workstations of the paper's
    /// evaluation era.
    pub const SPARC32: Architecture = Architecture {
        name: "sparc32",
        endianness: Endianness::Big,
        short: SizeAlign::natural(2),
        int: SizeAlign::natural(4),
        long: SizeAlign::natural(4),
        long_long: SizeAlign::natural(8),
        pointer: SizeAlign::natural(4),
        float: SizeAlign::natural(4),
        double: SizeAlign::natural(8),
    };

    /// SPARC V9 (LP64, big-endian).
    pub const SPARC64: Architecture = Architecture {
        name: "sparc64",
        endianness: Endianness::Big,
        short: SizeAlign::natural(2),
        int: SizeAlign::natural(4),
        long: SizeAlign::natural(8),
        long_long: SizeAlign::natural(8),
        pointer: SizeAlign::natural(8),
        float: SizeAlign::natural(4),
        double: SizeAlign::natural(8),
    };

    /// 32-bit ARM EABI (ILP32, little-endian, natural alignment).
    pub const ARM32: Architecture = Architecture {
        name: "arm32",
        endianness: Endianness::Little,
        short: SizeAlign::natural(2),
        int: SizeAlign::natural(4),
        long: SizeAlign::natural(4),
        long_long: SizeAlign::natural(8),
        pointer: SizeAlign::natural(4),
        float: SizeAlign::natural(4),
        double: SizeAlign::natural(8),
    };

    /// 64-bit POWER (LP64, big-endian).
    pub const POWER64: Architecture = Architecture {
        name: "power64",
        endianness: Endianness::Big,
        short: SizeAlign::natural(2),
        int: SizeAlign::natural(4),
        long: SizeAlign::natural(8),
        long_long: SizeAlign::natural(8),
        pointer: SizeAlign::natural(8),
        float: SizeAlign::natural(4),
        double: SizeAlign::natural(8),
    };

    /// All built-in architectures, for test/benchmark matrices.
    pub const ALL: [Architecture; 6] = [
        Architecture::X86_64,
        Architecture::I386,
        Architecture::SPARC32,
        Architecture::SPARC64,
        Architecture::ARM32,
        Architecture::POWER64,
    ];

    /// The architecture this process is actually running on, picked from
    /// the presets by pointer width and endianness.
    pub fn host() -> Architecture {
        let little = cfg!(target_endian = "little");
        let wide = cfg!(target_pointer_width = "64");
        match (little, wide) {
            (true, true) => Architecture::X86_64,
            (true, false) => Architecture::ARM32,
            (false, true) => Architecture::SPARC64,
            (false, false) => Architecture::SPARC32,
        }
    }

    /// Looks up a preset by its [`name`](Architecture::name).
    pub fn by_name(name: &str) -> Option<Architecture> {
        Architecture::ALL.into_iter().find(|a| a.name == name)
    }

    /// The [`SizeAlign`] of `prim` under this ABI.
    pub fn primitive(&self, prim: Primitive) -> SizeAlign {
        match prim {
            Primitive::Char | Primitive::UChar => SizeAlign::natural(1),
            Primitive::Short | Primitive::UShort => self.short,
            Primitive::Int | Primitive::UInt | Primitive::Enum => self.int,
            Primitive::Long | Primitive::ULong => self.long,
            Primitive::LongLong | Primitive::ULongLong => self.long_long,
            Primitive::Float => self.float,
            Primitive::Double => self.double,
        }
    }

    /// Whether two architectures lay data out identically (same byte
    /// order *and* same sizes/alignments for every primitive and for
    /// pointers). When this holds, NDR messages need no conversion at all.
    pub fn layout_compatible(&self, other: &Architecture) -> bool {
        self.endianness == other.endianness
            && self.short == other.short
            && self.int == other.int
            && self.long == other.long
            && self.long_long == other.long_long
            && self.pointer == other.pointer
            && self.float == other.float
            && self.double == other.double
    }

    /// A compact descriptor for wire headers: `(endianness, pointer size,
    /// long size, long long alignment, double alignment)` is enough to
    /// reconstruct any preset; unknown combinations decode to a custom
    /// architecture with natural alignments.
    pub fn descriptor(&self) -> [u8; 6] {
        [
            match self.endianness {
                Endianness::Little => 0,
                Endianness::Big => 1,
            },
            self.pointer.size as u8,
            self.long.size as u8,
            self.long_long.align as u8,
            self.double.align as u8,
            self.int.size as u8,
        ]
    }

    /// Reconstructs an architecture from a wire [`descriptor`](Self::descriptor).
    ///
    /// Preset architectures round-trip exactly; unknown descriptors yield
    /// a best-effort custom ABI named `"custom"`. Descriptor bytes come
    /// off the wire, so every value is clamped to a legal power of two —
    /// a corrupted header must never produce an unlayoutable ABI.
    pub fn from_descriptor(d: [u8; 6]) -> Architecture {
        for preset in Architecture::ALL {
            if preset.descriptor() == d {
                return preset;
            }
        }
        fn pow2_clamp(v: u8, min: usize, max: usize) -> usize {
            let v = (v as usize).clamp(min, max);
            if v.is_power_of_two() {
                v
            } else {
                // Round down to the previous power of two, staying ≥ min.
                (1usize << (usize::BITS - 1 - v.leading_zeros())).max(min)
            }
        }
        let endianness = if d[0] == 0 { Endianness::Little } else { Endianness::Big };
        Architecture {
            name: "custom",
            endianness,
            short: SizeAlign::natural(2),
            int: SizeAlign::natural(pow2_clamp(d[5], 2, 8)),
            long: SizeAlign::natural(pow2_clamp(d[2], 4, 8)),
            long_long: SizeAlign::with_align(8, pow2_clamp(d[3], 1, 8)),
            pointer: SizeAlign::natural(pow2_clamp(d[1], 4, 8)),
            float: SizeAlign::natural(4),
            double: SizeAlign::with_align(8, pow2_clamp(d[4], 1, 8)),
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {}-bit pointers)", self.name, self.endianness, self.pointer.size * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_invariants() {
        for arch in Architecture::ALL {
            assert!(arch.pointer.size == 4 || arch.pointer.size == 8, "{arch}");
            assert!(arch.long.size >= arch.int.size, "{arch}");
            for prim in Primitive::ALL {
                let sa = arch.primitive(prim);
                assert!(sa.align <= sa.size.max(1), "{arch} {prim:?}");
                assert!(sa.size.is_power_of_two(), "{arch} {prim:?}");
            }
        }
    }

    #[test]
    fn host_is_self_compatible() {
        let host = Architecture::host();
        assert!(host.layout_compatible(&host));
    }

    #[test]
    fn i386_differs_from_x86_64_in_layout() {
        assert!(!Architecture::I386.layout_compatible(&Architecture::X86_64));
    }

    #[test]
    fn x86_64_and_a_copy_are_compatible() {
        let copy = Architecture { name: "clone", ..Architecture::X86_64 };
        assert!(copy.layout_compatible(&Architecture::X86_64));
    }

    #[test]
    fn descriptors_round_trip_layout_for_all_presets() {
        // SPARC64 and POWER64 share a layout, so names need not round
        // trip — but the layout always must, since conversion planning
        // only depends on layout.
        for arch in Architecture::ALL {
            let back = Architecture::from_descriptor(arch.descriptor());
            assert!(back.layout_compatible(&arch), "{arch} -> {back}");
        }
    }

    #[test]
    fn by_name_finds_presets() {
        assert_eq!(Architecture::by_name("sparc32"), Some(Architecture::SPARC32));
        assert_eq!(Architecture::by_name("vax"), None);
    }

    #[test]
    fn i386_double_is_size_8_align_4() {
        let d = Architecture::I386.primitive(Primitive::Double);
        assert_eq!((d.size, d.align), (8, 4));
    }

    #[test]
    fn arbitrary_descriptors_always_yield_layoutable_abis() {
        // Corrupted wire headers must never produce an ABI with
        // non-power-of-two sizes or alignments (regression: proptest
        // found layout asserts tripping on fuzzed headers).
        for b in 0u8..=255 {
            let arch = Architecture::from_descriptor([b, b, b, b, b, b]);
            for prim in Primitive::ALL {
                let sa = arch.primitive(prim);
                assert!(sa.size.is_power_of_two(), "{b}: {prim:?} size {}", sa.size);
                assert!(sa.align.is_power_of_two(), "{b}: {prim:?} align {}", sa.align);
            }
            assert!(arch.pointer.size.is_power_of_two());
        }
    }

    #[test]
    fn unsigned_long_matches_long() {
        for arch in Architecture::ALL {
            assert_eq!(arch.primitive(Primitive::ULong), arch.primitive(Primitive::Long));
        }
    }
}
