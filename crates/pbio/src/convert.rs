//! Receiver-side conversion plans: "reader makes right", compiled once.
//!
//! PBIO generated native machine code on the fly to convert an incoming
//! wire image (in the *sender's* layout) into the receiver's native
//! layout. Emitting executable memory is not something a memory-safe
//! reproduction should do, so this module compiles, once per
//! (wire format, native format) pair, a flat vector of conversion ops
//! that a tight interpreter loop executes per message — same asymptotics
//! (all metadata interpretation happens at plan-build time, first
//! contact), same homogeneous fast path (a layout-compatible pair
//! produces an *identity* plan whose conversion borrows the payload
//! outright — zero copies; see [`ImageCow`]).
//!
//! Plans are cached in a [`PlanCache`], a [`Memo`] keyed by structure
//! fingerprint and the two architecture descriptors.

use std::borrow::Cow;
use std::sync::Arc;

use clayout::image::{fits_signed, fits_unsigned, get_int, get_uint, put_int, put_uint};
use clayout::{ArrayLen, Architecture, CType, Image, Layout, Primitive, StructType};

use crate::error::PbioError;
use crate::format::{struct_fingerprint, Format};
use crate::memo::{Memo, MemoStats};

/// Conversion applied to one scalar element (also the element action of
/// array ops).
#[derive(Debug, Clone, PartialEq)]
enum ElemPlan {
    /// Source and destination representations are identical: raw copy.
    Copy { len: usize },
    /// Same-size scalar whose only difference is byte order: reverse
    /// `width` bytes in place. Applies to integers *and* floats (a raw
    /// bit swap is exact; no round trip through `f64`).
    Swap { width: u8 },
    /// Integer resize/byte-swap. `checked` is true only on genuine
    /// narrowings (`dst_size < src_size`); widenings and same-size
    /// re-encodes cannot overflow (`fits_*` is vacuously true), so their
    /// overflow branch is compiled away at plan-build time.
    Int { src_size: u8, dst_size: u8, signed: bool, checked: bool, field: u32 },
    /// IEEE float between binary32/binary64 (and byte orders).
    Float { src_size: u8, dst_size: u8 },
    /// Out-of-line string: follow the source pointer, re-append in the
    /// destination variable section.
    String { field: u32 },
    /// A nested struct: sub-ops with element-relative offsets.
    Struct { ops: Vec<Op> },
}

/// One step of a conversion plan. All offsets are relative to the
/// enclosing struct's base (the top level runs with base 0).
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Bulk byte copy (coalesced across adjacent compatible fields,
    /// padding included).
    Copy { src: usize, dst: usize, len: usize },
    /// A single element at fixed offsets.
    Scalar { src: usize, dst: usize, elem: ElemPlan },
    /// `count` consecutive `width`-byte byte-swaps at the given offsets —
    /// the fused form of adjacent same-width [`ElemPlan::Swap`] scalars
    /// and of `Repeat`-of-swap with stride == width. Executes as
    /// `chunks_exact` + `u{16,32,64}::swap_bytes` (safe,
    /// autovectorizable), no per-element dispatch.
    SwapRun { src: usize, dst: usize, width: u8, count: usize },
    /// A fixed-size array: `count` elements at the given strides.
    Repeat { src: usize, dst: usize, count: usize, src_stride: usize, dst_stride: usize, elem: ElemPlan },
    /// A dynamic (count-field) array: pointer slots plus a runtime count
    /// read from the source image.
    DynArray {
        src_slot: usize,
        dst_slot: usize,
        count_off: usize,
        count_size: u8,
        count_signed: bool,
        src_stride: usize,
        dst_stride: usize,
        dst_align: usize,
        elem: ElemPlan,
        field: u32,
    },
}

/// Execution tier of a compiled plan, decided once at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanTier {
    /// Layout-compatible pair: conversion borrows the payload outright.
    Identity,
    /// Identical sizes and offsets, endianness the only difference, no
    /// pointer-bearing fields: one bulk copy plus a flat list of
    /// [`SwapSpan`] kernels — no op interpreter at all.
    PureSwap,
    /// Everything else: the (fused) op interpreter.
    General,
}

impl PlanTier {
    /// Short stable name, used by benches and stats snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            PlanTier::Identity => "identity",
            PlanTier::PureSwap => "pureswap",
            PlanTier::General => "general",
        }
    }
}

/// One run of the `PureSwap` tier's flat program: `count` consecutive
/// `width`-byte swaps starting at `off` (identical in source and
/// destination by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SwapSpan {
    off: usize,
    width: u8,
    count: usize,
}

/// Cap on the flat span program; plans whose swap structure would
/// explode past this (huge fixed arrays of structs) stay `General`.
const SWAP_SPAN_BUDGET: usize = 4096;

/// The result of [`ConversionPlan::convert`]: a native image whose
/// bytes are **borrowed** from the source payload on the identity fast
/// path (layout-compatible sender, zero copies) and owned otherwise.
///
/// Mirrors [`clayout::Image`] — same `bytes`/`fixed_len` shape, same
/// [`var_section`](ImageCow::var_section) accessor — so decode helpers
/// taking `&[u8]` work on either through deref.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageCow<'a> {
    /// The raw bytes: fixed part first, then the variable section.
    pub bytes: Cow<'a, [u8]>,
    /// Length of the fixed part (`sizeof` the root struct).
    pub fixed_len: usize,
}

impl ImageCow<'_> {
    /// Whether the bytes are borrowed straight from the source payload —
    /// true exactly when the plan was an identity (the NDR homogeneous
    /// fast path).
    pub fn is_borrowed(&self) -> bool {
        matches!(self.bytes, Cow::Borrowed(_))
    }

    /// The variable-section bytes (everything after the fixed part).
    pub fn var_section(&self) -> &[u8] {
        &self.bytes[self.fixed_len.min(self.bytes.len())..]
    }

    /// Detaches from the source buffer, copying only if still borrowed.
    pub fn into_owned(self) -> Image {
        Image { bytes: self.bytes.into_owned(), fixed_len: self.fixed_len }
    }
}

/// A compiled conversion from one format's wire image to another
/// architecture's native image.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionPlan {
    ops: Vec<Op>,
    names: Vec<String>,
    src_arch: Architecture,
    dst_arch: Architecture,
    src_fixed_len: usize,
    dst_fixed_len: usize,
    tier: PlanTier,
    /// Flat swap program; non-empty only on the `PureSwap` tier (empty
    /// there too when the pair is byte-identical but not
    /// layout-compatible — a pure memcpy).
    swap_spans: Vec<SwapSpan>,
}

impl ConversionPlan {
    /// Compiles a plan converting images of `struct_type` laid out on
    /// `src_arch` into images laid out on `dst_arch`.
    ///
    /// # Errors
    ///
    /// Propagates layout failures; a struct that lays out on both
    /// architectures always yields a plan.
    pub fn build(
        struct_type: &StructType,
        src_arch: &Architecture,
        dst_arch: &Architecture,
    ) -> Result<ConversionPlan, PbioError> {
        let src_layout = Layout::of_struct(struct_type, src_arch)?;
        let dst_layout = Layout::of_struct(struct_type, dst_arch)?;
        let identity = src_arch.layout_compatible(dst_arch);
        let mut names = Vec::new();
        let mut tier = if identity { PlanTier::Identity } else { PlanTier::General };
        let mut swap_spans = Vec::new();
        let ops = if identity {
            Vec::new()
        } else {
            let fused = fuse(build_ops(struct_type, src_arch, dst_arch, &mut names, "")?);
            // PureSwap candidacy: identical total size and every op a
            // same-offset copy or swap (recursively) — which also rules
            // out pointer-bearing fields, keeping error behaviour
            // identical to the General interpreter.
            if src_layout.size == dst_layout.size {
                if let Some(spans) = pure_swap_spans(&fused) {
                    swap_spans = spans;
                    tier = PlanTier::PureSwap;
                }
            }
            fused
        };
        Ok(ConversionPlan {
            ops,
            names,
            src_arch: *src_arch,
            dst_arch: *dst_arch,
            src_fixed_len: src_layout.size,
            dst_fixed_len: dst_layout.size,
            tier,
            swap_spans,
        })
    }

    /// Whether the two layouts are identical, making conversion a single
    /// bulk copy (the NDR homogeneous fast path).
    pub fn is_identity(&self) -> bool {
        self.tier == PlanTier::Identity
    }

    /// The execution tier this plan was classified into at build time.
    pub fn tier(&self) -> PlanTier {
        self.tier
    }

    /// Number of fused swap spans in the `PureSwap` flat program
    /// (0 on other tiers, and on byte-identical memcpy pairs).
    pub fn swap_span_count(&self) -> usize {
        self.swap_spans.len()
    }

    /// Size of the destination fixed part (what
    /// [`convert_into`](Self::convert_into) returns on success).
    pub fn dst_fixed_len(&self) -> usize {
        self.dst_fixed_len
    }

    /// Number of interpreter ops (after coalescing); exposed for the
    /// ablation benchmarks.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The architecture the plan converts from.
    pub fn src_arch(&self) -> &Architecture {
        &self.src_arch
    }

    /// The architecture the plan converts to.
    pub fn dst_arch(&self) -> &Architecture {
        &self.dst_arch
    }

    /// Converts one wire payload (fixed part + variable section, as
    /// produced by [`clayout::encode_record`] on the source
    /// architecture) into a native image for the destination
    /// architecture. An identity plan borrows the payload outright
    /// (zero copies, zero allocations); call
    /// [`ImageCow::into_owned`] to detach from the wire buffer.
    ///
    /// # Errors
    ///
    /// Reports truncated/corrupt source images and values that cannot be
    /// represented on the destination (narrowing overflow).
    pub fn convert<'a>(&self, payload: &'a [u8]) -> Result<ImageCow<'a>, PbioError> {
        if payload.len() < self.src_fixed_len {
            return Err(PbioError::Truncated { need: self.src_fixed_len, have: payload.len() });
        }
        if self.tier == PlanTier::Identity {
            return Ok(ImageCow { bytes: Cow::Borrowed(payload), fixed_len: self.src_fixed_len });
        }
        let mut dst = Vec::new();
        self.fill(payload, &mut dst)?;
        Ok(ImageCow { bytes: Cow::Owned(dst), fixed_len: self.dst_fixed_len })
    }

    /// Converts one wire payload into `out`, reusing its allocation —
    /// the pooled-destination mirror of `convert` (cf. PR 1's
    /// `encode_record_into`). `out` is cleared first and afterwards
    /// holds the native image bytes (fixed part then variable section);
    /// the returned value is the fixed-part length. On the identity
    /// tier the payload is copied (a pool cannot borrow); callers that
    /// can hold the source buffer should prefer [`convert`](Self::convert)
    /// there.
    ///
    /// Steady state (warm `out`, no variable-section growth) performs
    /// zero heap allocations per message on every tier.
    ///
    /// # Errors
    ///
    /// Same as [`convert`](Self::convert); `out` contents are
    /// unspecified after an error.
    pub fn convert_into(&self, payload: &[u8], out: &mut Vec<u8>) -> Result<usize, PbioError> {
        if payload.len() < self.src_fixed_len {
            return Err(PbioError::Truncated { need: self.src_fixed_len, have: payload.len() });
        }
        if self.tier == PlanTier::Identity {
            out.clear();
            out.extend_from_slice(payload);
            return Ok(self.src_fixed_len);
        }
        self.fill(payload, out)?;
        Ok(self.dst_fixed_len)
    }

    /// Non-identity conversion into a caller-owned buffer.
    fn fill(&self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), PbioError> {
        out.clear();
        match self.tier {
            PlanTier::PureSwap => {
                // One bulk copy of the fixed part, then the flat swap
                // program in place. No variable section can exist on
                // this tier (no pointer-bearing fields).
                out.extend_from_slice(&payload[..self.src_fixed_len]);
                for span in &self.swap_spans {
                    let end = span.off + span.width as usize * span.count;
                    swap_in_place(&mut out[span.off..end], span.width);
                }
                Ok(())
            }
            _ => {
                out.resize(self.dst_fixed_len, 0);
                self.run_ops(&self.ops, payload, 0, out, 0)
            }
        }
    }

    fn run_ops(
        &self,
        ops: &[Op],
        src: &[u8],
        src_base: usize,
        dst: &mut Vec<u8>,
        dst_base: usize,
    ) -> Result<(), PbioError> {
        // Bounds-check hoisting: `convert`/`convert_into` verify the
        // whole source fixed part up front, and every dynamic region is
        // verified once (below) before its elements run, so there are
        // no per-op checks — layout guarantees each op's extent lies
        // inside its enclosing (checked) extent.
        for op in ops {
            match op {
                Op::Copy { src: s, dst: d, len } => {
                    let s = src_base + s;
                    dst[dst_base + d..dst_base + d + len].copy_from_slice(&src[s..s + len]);
                }
                Op::SwapRun { src: s, dst: d, width, count } => {
                    let len = *width as usize * count;
                    let s = src_base + s;
                    let d = dst_base + d;
                    swap_into(&mut dst[d..d + len], &src[s..s + len], *width);
                }
                Op::Scalar { src: s, dst: d, elem } => {
                    self.run_elem(elem, src, src_base + s, dst, dst_base + d)?;
                }
                Op::Repeat { src: s, dst: d, count, src_stride, dst_stride, elem } => {
                    for i in 0..*count {
                        self.run_elem(
                            elem,
                            src,
                            src_base + s + i * src_stride,
                            dst,
                            dst_base + d + i * dst_stride,
                        )?;
                    }
                }
                Op::DynArray {
                    src_slot,
                    dst_slot,
                    count_off,
                    count_size,
                    count_signed,
                    src_stride,
                    dst_stride,
                    dst_align,
                    elem,
                    field,
                } => {
                    let count_at = src_base + count_off;
                    let count = if *count_signed {
                        get_int(src, count_at, *count_size as usize, self.src_arch.endianness)
                    } else {
                        get_uint(src, count_at, *count_size as usize, self.src_arch.endianness)
                            as i64
                    };
                    if count < 0 || count as usize > src.len() {
                        return Err(PbioError::Layout(clayout::LayoutError::BadCount {
                            field: self.names[*field as usize].clone(),
                            count,
                        }));
                    }
                    let count = count as usize;
                    let slot_at = src_base + src_slot;
                    if count == 0 {
                        put_uint(
                            dst,
                            dst_base + dst_slot,
                            self.dst_arch.pointer.size,
                            self.dst_arch.endianness,
                            0,
                        );
                        continue;
                    }
                    let target = get_uint(
                        src,
                        slot_at,
                        self.src_arch.pointer.size,
                        self.src_arch.endianness,
                    ) as usize;
                    // A forged count near usize::MAX / stride must
                    // error, not overflow into a tiny "valid" extent
                    // (or panic in the resize arithmetic below).
                    let bad_count = || {
                        PbioError::Layout(clayout::LayoutError::BadCount {
                            field: self.names[*field as usize].clone(),
                            count: count as i64,
                        })
                    };
                    let src_len = count.checked_mul(*src_stride).ok_or_else(bad_count)?;
                    let dst_len = count.checked_mul(*dst_stride).ok_or_else(bad_count)?;
                    // The one dynamic-region bounds check: covers every
                    // element read below (element extents lie inside
                    // their stride).
                    check(src, target, src_len)?;
                    let region = clayout::layout::align_up(dst.len(), *dst_align);
                    let new_len = region.checked_add(dst_len).ok_or_else(bad_count)?;
                    dst.resize(new_len, 0);
                    put_uint(
                        dst,
                        dst_base + dst_slot,
                        self.dst_arch.pointer.size,
                        self.dst_arch.endianness,
                        region as u64,
                    );
                    match elem {
                        // Bulk fast paths: a dynamic array of swap or
                        // copy scalars is one region-sized copy (plus an
                        // in-place swap pass), not `count` dispatches.
                        ElemPlan::Swap { width }
                            if *src_stride == *width as usize
                                && *dst_stride == *width as usize =>
                        {
                            dst[region..region + dst_len]
                                .copy_from_slice(&src[target..target + src_len]);
                            swap_in_place(&mut dst[region..region + dst_len], *width);
                        }
                        ElemPlan::Copy { len } if *len == *src_stride && *len == *dst_stride => {
                            dst[region..region + dst_len]
                                .copy_from_slice(&src[target..target + src_len]);
                        }
                        _ => {
                            for i in 0..count {
                                self.run_elem(
                                    elem,
                                    src,
                                    target + i * src_stride,
                                    dst,
                                    region + i * dst_stride,
                                )?;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn run_elem(
        &self,
        elem: &ElemPlan,
        src: &[u8],
        s_at: usize,
        dst: &mut Vec<u8>,
        d_at: usize,
    ) -> Result<(), PbioError> {
        match elem {
            ElemPlan::Copy { len } => {
                dst[d_at..d_at + len].copy_from_slice(&src[s_at..s_at + len]);
                Ok(())
            }
            ElemPlan::Swap { width } => {
                let w = *width as usize;
                dst[d_at..d_at + w].copy_from_slice(&src[s_at..s_at + w]);
                dst[d_at..d_at + w].reverse();
                Ok(())
            }
            ElemPlan::Int { src_size, dst_size, signed, checked, field } => {
                if *signed {
                    let v = get_int(src, s_at, *src_size as usize, self.src_arch.endianness);
                    if *checked && !fits_signed(v, *dst_size as usize) {
                        return Err(PbioError::ConversionOverflow {
                            field: self.names[*field as usize].clone(),
                            value: v.to_string(),
                        });
                    }
                    put_int(dst, d_at, *dst_size as usize, self.dst_arch.endianness, v);
                } else {
                    let v = get_uint(src, s_at, *src_size as usize, self.src_arch.endianness);
                    if *checked && !fits_unsigned(v, *dst_size as usize) {
                        return Err(PbioError::ConversionOverflow {
                            field: self.names[*field as usize].clone(),
                            value: v.to_string(),
                        });
                    }
                    put_uint(dst, d_at, *dst_size as usize, self.dst_arch.endianness, v);
                }
                Ok(())
            }
            ElemPlan::Float { src_size, dst_size } => {
                let value = match src_size {
                    4 => f32::from_bits(get_uint(src, s_at, 4, self.src_arch.endianness) as u32)
                        as f64,
                    _ => f64::from_bits(get_uint(src, s_at, 8, self.src_arch.endianness)),
                };
                match dst_size {
                    4 => put_uint(
                        dst,
                        d_at,
                        4,
                        self.dst_arch.endianness,
                        (value as f32).to_bits() as u64,
                    ),
                    _ => put_uint(dst, d_at, 8, self.dst_arch.endianness, value.to_bits()),
                }
                Ok(())
            }
            ElemPlan::String { field } => {
                check(src, s_at, self.src_arch.pointer.size)?;
                let target =
                    get_uint(src, s_at, self.src_arch.pointer.size, self.src_arch.endianness);
                if target == 0 {
                    put_uint(
                        dst,
                        d_at,
                        self.dst_arch.pointer.size,
                        self.dst_arch.endianness,
                        0,
                    );
                    return Ok(());
                }
                let start =
                    usize::try_from(target).ok().filter(|t| *t < src.len()).ok_or_else(|| {
                        PbioError::Layout(clayout::LayoutError::BadPointer {
                            field: self.names[*field as usize].clone(),
                            target,
                        })
                    })?;
                let end = src[start..].iter().position(|b| *b == 0).map(|r| start + r).ok_or(
                    PbioError::Truncated { need: src.len() + 1, have: src.len() },
                )?;
                let new_slot = dst.len() as u64;
                dst.extend_from_slice(&src[start..=end]);
                put_uint(
                    dst,
                    d_at,
                    self.dst_arch.pointer.size,
                    self.dst_arch.endianness,
                    new_slot,
                );
                Ok(())
            }
            ElemPlan::Struct { ops } => self.run_ops(ops, src, s_at, dst, d_at),
        }
    }
}

/// Builds a plan converting between a wire [`Format`] and a native
/// [`Format`] of the same struct type.
///
/// # Errors
///
/// Returns [`PbioError::Incompatible`] when the two formats do not share
/// a struct type (use [`crate::evolution`] for that case).
pub fn plan_between(wire: &Format, native: &Format) -> Result<ConversionPlan, PbioError> {
    if wire.struct_type() != native.struct_type() {
        return Err(PbioError::Incompatible {
            detail: format!(
                "wire format {:?} and native format {:?} have different structure",
                wire.name(),
                native.name()
            ),
        });
    }
    ConversionPlan::build(wire.struct_type(), wire.arch(), native.arch())
}

fn check(src: &[u8], at: usize, need: usize) -> Result<(), PbioError> {
    match at.checked_add(need) {
        Some(end) if end <= src.len() => Ok(()),
        _ => Err(PbioError::Truncated { need: at.saturating_add(need), have: src.len() }),
    }
}

fn prim_elem(
    p: Primitive,
    src_arch: &Architecture,
    dst_arch: &Architecture,
    field: u32,
) -> ElemPlan {
    let s = src_arch.primitive(p);
    let d = dst_arch.primitive(p);
    if s.size == d.size {
        if src_arch.endianness == dst_arch.endianness || s.size == 1 {
            ElemPlan::Copy { len: s.size }
        } else {
            // Same width, opposite byte order: a raw swap is exact for
            // integers and floats alike (bit-preserving, unlike a
            // decode/re-encode round trip through `f64`).
            ElemPlan::Swap { width: s.size as u8 }
        }
    } else if p.is_float() {
        ElemPlan::Float { src_size: s.size as u8, dst_size: d.size as u8 }
    } else {
        // Widening can never overflow (`fits_*` vacuously true), so its
        // check is compiled away; only genuine narrowings keep it.
        ElemPlan::Int {
            src_size: s.size as u8,
            dst_size: d.size as u8,
            signed: p.is_signed_integer(),
            checked: d.size < s.size,
            field,
        }
    }
}

fn elem_for(
    ty: &CType,
    src_arch: &Architecture,
    dst_arch: &Architecture,
    names: &mut Vec<String>,
    field_name: &str,
    field: u32,
) -> Result<(ElemPlan, usize, usize, usize), PbioError> {
    match ty {
        CType::Prim(p) => {
            let s = src_arch.primitive(*p);
            let d = dst_arch.primitive(*p);
            Ok((prim_elem(*p, src_arch, dst_arch, field), s.size, d.size, d.align))
        }
        CType::String => Ok((
            ElemPlan::String { field },
            src_arch.pointer.size,
            dst_arch.pointer.size,
            dst_arch.pointer.align,
        )),
        CType::Struct(inner) => {
            let ops =
                fuse(build_ops(inner, src_arch, dst_arch, names, &format!("{field_name}."))?);
            let s = Layout::of_struct(inner, src_arch)?;
            let d = Layout::of_struct(inner, dst_arch)?;
            Ok((ElemPlan::Struct { ops }, s.size, d.size, d.align))
        }
        CType::Array { .. } => Err(PbioError::Layout(clayout::LayoutError::NestedArray {
            field: field_name.to_owned(),
        })),
    }
}

fn build_ops(
    st: &StructType,
    src_arch: &Architecture,
    dst_arch: &Architecture,
    names: &mut Vec<String>,
    prefix: &str,
) -> Result<Vec<Op>, PbioError> {
    let src_layout = Layout::of_struct(st, src_arch)?;
    let dst_layout = Layout::of_struct(st, dst_arch)?;
    let mut ops = Vec::with_capacity(st.fields.len());

    for (sf, df) in src_layout.fields.iter().zip(&dst_layout.fields) {
        debug_assert_eq!(sf.name, df.name);
        let field = names.len() as u32;
        names.push(format!("{prefix}{}", sf.name));

        match &sf.ty {
            CType::Prim(_) | CType::String | CType::Struct(_) => {
                let (elem, _, _, _) =
                    elem_for(&sf.ty, src_arch, dst_arch, names, &sf.name, field)?;
                ops.push(match elem {
                    ElemPlan::Copy { len } => Op::Copy { src: sf.offset, dst: df.offset, len },
                    elem => Op::Scalar { src: sf.offset, dst: df.offset, elem },
                });
            }
            CType::Array { elem: elem_ty, len } => {
                let (elem, src_stride, dst_stride, dst_align) =
                    elem_for(elem_ty, src_arch, dst_arch, names, &sf.name, field)?;
                match len {
                    ArrayLen::Fixed(n) => {
                        // A fixed array of identically-represented
                        // elements is one contiguous copy.
                        if let ElemPlan::Copy { len } = elem {
                            if len == src_stride && len == dst_stride {
                                ops.push(Op::Copy {
                                    src: sf.offset,
                                    dst: df.offset,
                                    len: n * len,
                                });
                                continue;
                            }
                        }
                        ops.push(Op::Repeat {
                            src: sf.offset,
                            dst: df.offset,
                            count: *n,
                            src_stride,
                            dst_stride,
                            elem,
                        });
                    }
                    ArrayLen::CountField(count_name) => {
                        let count_src = src_layout.field(count_name).ok_or_else(|| {
                            PbioError::Layout(clayout::LayoutError::MissingCountField {
                                array: sf.name.clone(),
                                count_field: count_name.clone(),
                            })
                        })?;
                        let count_signed = matches!(
                            &count_src.ty,
                            CType::Prim(p) if p.is_signed_integer()
                        );
                        ops.push(Op::DynArray {
                            src_slot: sf.offset,
                            dst_slot: df.offset,
                            count_off: count_src.offset,
                            count_size: count_src.size as u8,
                            count_signed,
                            src_stride,
                            dst_stride,
                            dst_align,
                            elem,
                        field,
                        });
                    }
                }
            }
        }
    }
    Ok(ops)
}

/// Op fusion: adjacent raw copies merge, bridging equal-width padding
/// gaps, so the common "mostly compatible" case executes few large
/// copies instead of many small ones; `Scalar`-of-swap and
/// `Repeat`-of-swap with stride == width become [`Op::SwapRun`]s,
/// adjacent same-width contiguous runs merge, and `Repeat`-of-`Copy`
/// with stride == element length collapses into one `Copy`.
fn fuse(ops: Vec<Op>) -> Vec<Op> {
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    for raw in ops {
        let op = normalize(raw);
        if let Some(last) = out.last_mut() {
            if merge(last, &op) {
                continue;
            }
        }
        out.push(op);
    }
    out
}

/// Rewrites one op into its cheapest equivalent form.
fn normalize(op: Op) -> Op {
    match op {
        Op::Scalar { src, dst, elem: ElemPlan::Swap { width } } => {
            Op::SwapRun { src, dst, width, count: 1 }
        }
        Op::Scalar { src, dst, elem: ElemPlan::Copy { len } } => Op::Copy { src, dst, len },
        Op::Repeat { src, dst, count, src_stride, dst_stride, elem: ElemPlan::Swap { width } }
            if src_stride == width as usize && dst_stride == width as usize =>
        {
            Op::SwapRun { src, dst, width, count }
        }
        Op::Repeat { src, dst, count, src_stride, dst_stride, elem: ElemPlan::Copy { len } }
            if src_stride == len && dst_stride == len =>
        {
            Op::Copy { src, dst, len: count * len }
        }
        op => op,
    }
}

/// Merges `op` into `last` when they are contiguous compatible bulk
/// ops; returns whether the merge happened.
fn merge(last: &mut Op, op: &Op) -> bool {
    match (last, op) {
        (Op::Copy { src, dst, len }, Op::Copy { src: s2, dst: d2, len: l2 }) => {
            let src_gap = s2.checked_sub(*src + *len);
            let dst_gap = d2.checked_sub(*dst + *len);
            if let (Some(sg), Some(dg)) = (src_gap, dst_gap) {
                if sg == dg {
                    *len += sg + l2;
                    return true;
                }
            }
            false
        }
        (
            Op::SwapRun { src, dst, width, count },
            Op::SwapRun { src: s2, dst: d2, width: w2, count: c2 },
        ) => {
            let step = *width as usize * *count;
            if width == w2 && *s2 == *src + step && *d2 == *dst + step {
                *count += c2;
                return true;
            }
            false
        }
        _ => false,
    }
}

/// Attempts to lower a fused op list to the `PureSwap` tier's flat span
/// program. Succeeds only when every op (recursively) is a same-offset
/// copy or swap run — i.e. the two layouts are byte-identical modulo
/// byte order and carry no pointer-bearing fields. Returns `None` (stay
/// `General`) otherwise, or when the program would exceed
/// [`SWAP_SPAN_BUDGET`].
fn pure_swap_spans(ops: &[Op]) -> Option<Vec<SwapSpan>> {
    let mut spans = Vec::new();
    collect_spans(ops, 0, &mut spans)?;
    spans.sort_unstable_by_key(|s| s.off);
    let mut out: Vec<SwapSpan> = Vec::new();
    for span in spans {
        if let Some(last) = out.last_mut() {
            if last.width == span.width
                && last.off + last.width as usize * last.count == span.off
            {
                last.count += span.count;
                continue;
            }
        }
        out.push(span);
    }
    Some(out)
}

fn collect_spans(ops: &[Op], base: usize, spans: &mut Vec<SwapSpan>) -> Option<()> {
    for op in ops {
        if spans.len() > SWAP_SPAN_BUDGET {
            return None;
        }
        match op {
            Op::Copy { src, dst, .. } if src == dst => {}
            Op::SwapRun { src, dst, width, count } if src == dst => {
                spans.push(SwapSpan { off: base + src, width: *width, count: *count });
            }
            Op::Scalar { src, dst, elem: ElemPlan::Struct { ops } } if src == dst => {
                collect_spans(ops, base + src, spans)?;
            }
            Op::Repeat { src, dst, count, src_stride, dst_stride, elem }
                if src == dst && src_stride == dst_stride =>
            {
                match elem {
                    ElemPlan::Copy { .. } => {}
                    ElemPlan::Swap { width } => {
                        for i in 0..*count {
                            spans.push(SwapSpan {
                                off: base + src + i * src_stride,
                                width: *width,
                                count: 1,
                            });
                        }
                    }
                    ElemPlan::Struct { ops } => {
                        for i in 0..*count {
                            collect_spans(ops, base + src + i * src_stride, spans)?;
                        }
                    }
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(())
}

/// Byte-swaps `count = buf.len() / width` scalars in place.
fn swap_in_place(buf: &mut [u8], width: u8) {
    match width {
        2 => {
            for c in buf.chunks_exact_mut(2) {
                let v = u16::from_ne_bytes(c.try_into().unwrap()).swap_bytes();
                c.copy_from_slice(&v.to_ne_bytes());
            }
        }
        4 => {
            for c in buf.chunks_exact_mut(4) {
                let v = u32::from_ne_bytes(c.try_into().unwrap()).swap_bytes();
                c.copy_from_slice(&v.to_ne_bytes());
            }
        }
        8 => {
            for c in buf.chunks_exact_mut(8) {
                let v = u64::from_ne_bytes(c.try_into().unwrap()).swap_bytes();
                c.copy_from_slice(&v.to_ne_bytes());
            }
        }
        _ => debug_assert!(false, "swap width {width}"),
    }
}

/// Byte-swaps scalars from `src` into `dst` (equal lengths, a multiple
/// of `width`).
fn swap_into(dst: &mut [u8], src: &[u8], width: u8) {
    match width {
        2 => {
            for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
                let v = u16::from_ne_bytes(s.try_into().unwrap()).swap_bytes();
                d.copy_from_slice(&v.to_ne_bytes());
            }
        }
        4 => {
            for (d, s) in dst.chunks_exact_mut(4).zip(src.chunks_exact(4)) {
                let v = u32::from_ne_bytes(s.try_into().unwrap()).swap_bytes();
                d.copy_from_slice(&v.to_ne_bytes());
            }
        }
        8 => {
            for (d, s) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)) {
                let v = u64::from_ne_bytes(s.try_into().unwrap()).swap_bytes();
                d.copy_from_slice(&v.to_ne_bytes());
            }
        }
        _ => debug_assert!(false, "swap width {width}"),
    }
}

/// What a cached plan is keyed by: the structure fingerprint of the
/// definition it converts, and the source and destination architecture
/// descriptors concatenated. Two versions of one format name never
/// share a plan.
type PlanKey = (u64, [u8; 12]);

/// A cache of compiled plans, keyed by structure fingerprint and the
/// source and destination architecture descriptors.
///
/// This mirrors PBIO's cache of generated conversion routines: the first
/// message from a new (format version, architecture) pair pays for plan
/// compilation; every later message executes the cached plan. The hit
/// path is a [`Memo`] hit: no allocation, and nothing hashed but the
/// fixed-size key.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Memo<PlanKey, ConversionPlan>,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the cached plan for converting `struct_type` from
    /// `src_arch` to `dst_arch`, compiling it on first use.
    ///
    /// The definition is hashed for its fingerprint on every call;
    /// per-message callers hold a [`Format`], which memoizes it, and
    /// use [`plan_for_format`](Self::plan_for_format).
    ///
    /// # Errors
    ///
    /// Propagates plan-compilation failures (not cached).
    pub fn plan_for(
        &self,
        struct_type: &StructType,
        src_arch: &Architecture,
        dst_arch: &Architecture,
    ) -> Result<Arc<ConversionPlan>, PbioError> {
        self.plan_keyed(struct_fingerprint(struct_type), struct_type, src_arch, dst_arch)
    }

    /// Returns the cached plan for converting payloads of `native`'s
    /// definition laid out on `src_arch` into `native`'s architecture,
    /// compiling it on first use — the per-message entry point: the
    /// key is the format's memoized fingerprint and two descriptors.
    ///
    /// # Errors
    ///
    /// Propagates plan-compilation failures (not cached).
    pub fn plan_for_format(
        &self,
        native: &Format,
        src_arch: &Architecture,
    ) -> Result<Arc<ConversionPlan>, PbioError> {
        self.plan_keyed(native.fingerprint(), native.struct_type(), src_arch, native.arch())
    }

    /// The probe behind both entry points; `fingerprint` is
    /// `struct_type`'s.
    fn plan_keyed(
        &self,
        fingerprint: u64,
        struct_type: &StructType,
        src_arch: &Architecture,
        dst_arch: &Architecture,
    ) -> Result<Arc<ConversionPlan>, PbioError> {
        let mut archs = [0u8; 12];
        archs[..6].copy_from_slice(&src_arch.descriptor());
        archs[6..].copy_from_slice(&dst_arch.descriptor());
        self.plans.get_or_build((fingerprint, archs), || {
            ConversionPlan::build(struct_type, src_arch, dst_arch)
        })
    }

    /// Snapshot of the hit/miss/build counters and the resident plans.
    pub fn stats(&self) -> MemoStats {
        self.plans.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FormatId;
    use crate::view::RecordView;
    use clayout::{encode_record, Record, StructField, Value};

    fn decode_record(
        bytes: &[u8],
        st: &StructType,
        arch: &Architecture,
    ) -> Result<Record, PbioError> {
        let format = Format::new(FormatId(0), st.clone(), *arch)?;
        RecordView::over(bytes, &format, arch)?.to_record()
    }

    fn prim(p: Primitive) -> CType {
        CType::Prim(p)
    }

    fn structure_b() -> StructType {
        StructType::new(
            "asdOff",
            vec![
                StructField::new("cntrId", CType::String),
                StructField::new("arln", CType::String),
                StructField::new("fltNum", prim(Primitive::Int)),
                StructField::new("equip", CType::String),
                StructField::new("org", CType::String),
                StructField::new("dest", CType::String),
                StructField::new("off", CType::fixed_array(prim(Primitive::ULong), 5)),
                StructField::new(
                    "eta",
                    CType::dynamic_array(prim(Primitive::ULong), "eta_count"),
                ),
                StructField::new("eta_count", prim(Primitive::Int)),
            ],
        )
    }

    fn sample() -> Record {
        Record::new()
            .with("cntrId", "ZTL")
            .with("arln", "DL")
            .with("fltNum", 1202i64)
            .with("equip", "B752")
            .with("org", "ATL")
            .with("dest", "BOS")
            .with("off", vec![10u64, 20, 30, 40, 50])
            .with("eta", vec![100u64, 200, 300])
    }

    fn assert_same_values(a: &Record, b: &Record) {
        for (name, value) in a.iter() {
            let other = b.get(name).unwrap_or_else(|| panic!("missing {name}"));
            match (value, other) {
                (Value::Int(x), got) => assert_eq!(got.as_i64(), Some(*x), "{name}"),
                (Value::UInt(x), got) => assert_eq!(got.as_u64(), Some(*x), "{name}"),
                (Value::Float(x), got) => assert_eq!(got.as_f64(), Some(*x), "{name}"),
                (Value::String(x), got) => assert_eq!(got.as_str(), Some(x.as_str()), "{name}"),
                (Value::Array(xs), got) => {
                    let ys = got.as_array().unwrap();
                    assert_eq!(xs.len(), ys.len(), "{name}");
                    for (x, y) in xs.iter().zip(ys) {
                        match x {
                            Value::UInt(v) => assert_eq!(y.as_u64(), Some(*v), "{name}"),
                            Value::Int(v) => assert_eq!(y.as_i64(), Some(*v), "{name}"),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                }
                (Value::Record(_), _) => {}
            }
        }
    }

    #[test]
    fn full_matrix_conversion_round_trips() {
        let st = structure_b();
        let rec = sample();
        for src in Architecture::ALL {
            let wire = encode_record(&rec, &st, &src).unwrap();
            for dst in Architecture::ALL {
                let plan = ConversionPlan::build(&st, &src, &dst).unwrap();
                let native = plan.convert(&wire.bytes).unwrap();
                let decoded = decode_record(&native.bytes, &st, &dst).unwrap();
                assert_same_values(&rec, &decoded);
                // The converted image must equal a directly-encoded one
                // except for don't-care padding — check by re-decode plus
                // fixed length.
                let direct = encode_record(&rec, &st, &dst).unwrap();
                assert_eq!(native.fixed_len, direct.fixed_len, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn homogeneous_pairs_produce_identity_plans() {
        let st = structure_b();
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::X86_64).unwrap();
        assert!(plan.is_identity());
        assert_eq!(plan.op_count(), 0);
        // POWER64 and SPARC64 are distinct archs with identical layout.
        let plan2 =
            ConversionPlan::build(&st, &Architecture::POWER64, &Architecture::SPARC64).unwrap();
        assert!(plan2.is_identity());
    }

    #[test]
    fn identity_conversion_borrows_the_payload() {
        let st = structure_b();
        let rec = sample();
        let wire = encode_record(&rec, &st, &Architecture::X86_64).unwrap();
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::X86_64).unwrap();
        let out = plan.convert(&wire.bytes).unwrap();
        assert_eq!(out.bytes, wire.bytes);
        assert_eq!(out.fixed_len, wire.fixed_len);
        // Not merely equal bytes: the identity path must alias the source
        // buffer, not copy it.
        assert!(out.is_borrowed());
        assert_eq!(out.bytes.as_ptr(), wire.bytes.as_ptr());
        assert_eq!(out.var_section(), wire.var_section());
        // into_owned detaches; the copy outlives the source.
        let owned = out.into_owned();
        assert_eq!(owned.bytes, wire.bytes);
    }

    #[test]
    fn heterogeneous_conversion_owns_its_bytes() {
        let st = structure_b();
        let rec = sample();
        let wire = encode_record(&rec, &st, &Architecture::X86_64).unwrap();
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::SPARC32).unwrap();
        let out = plan.convert(&wire.bytes).unwrap();
        assert!(!out.is_borrowed());
    }

    #[test]
    fn pure_swap_plans_coalesce_strings_but_not_ints() {
        // x86_64 and POWER64 share sizes; only byte order differs. The
        // string pointers still need rewriting, ints need swapping.
        let st = structure_b();
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::POWER64).unwrap();
        assert!(!plan.is_identity());
        assert!(plan.op_count() >= st.fields.len() - 1);
    }

    #[test]
    fn same_endianness_different_width_coalesces_common_prefix() {
        // A struct of chars is layout-identical on any pair with one
        // coalesced copy.
        let st = StructType::new(
            "chars",
            vec![
                StructField::new("a", prim(Primitive::Char)),
                StructField::new("b", prim(Primitive::Char)),
                StructField::new("c", prim(Primitive::UChar)),
            ],
        );
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::SPARC32).unwrap();
        assert_eq!(plan.op_count(), 1);
    }

    #[test]
    fn narrowing_overflow_is_reported_with_field_name() {
        let st = StructType::new("t", vec![StructField::new("big", prim(Primitive::ULong))]);
        let rec = Record::new().with("big", (1u64 << 40) + 5);
        let wire = encode_record(&rec, &st, &Architecture::X86_64).unwrap();
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::I386).unwrap();
        match plan.convert(&wire.bytes) {
            Err(PbioError::ConversionOverflow { field, .. }) => assert_eq!(field, "big"),
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn widening_never_overflows() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Long))]);
        let rec = Record::new().with("x", -123456i64);
        let wire = encode_record(&rec, &st, &Architecture::I386).unwrap();
        let plan =
            ConversionPlan::build(&st, &Architecture::I386, &Architecture::X86_64).unwrap();
        let native = plan.convert(&wire.bytes).unwrap();
        let decoded = decode_record(&native.bytes, &st, &Architecture::X86_64).unwrap();
        assert_eq!(decoded.get("x").unwrap().as_i64(), Some(-123456));
    }

    #[test]
    fn nested_structs_convert() {
        let inner = StructType::new(
            "pt",
            vec![
                StructField::new("x", prim(Primitive::Double)),
                StructField::new("label", CType::String),
            ],
        );
        let outer = StructType::new(
            "wrap",
            vec![
                StructField::new("head", prim(Primitive::Long)),
                StructField::new("p", CType::Struct(inner)),
            ],
        );
        let rec = Record::new()
            .with("head", 9i64)
            .with("p", Record::new().with("x", 2.5f64).with("label", "L"));
        let wire = encode_record(&rec, &outer, &Architecture::SPARC32).unwrap();
        let plan =
            ConversionPlan::build(&outer, &Architecture::SPARC32, &Architecture::X86_64).unwrap();
        let native = plan.convert(&wire.bytes).unwrap();
        let decoded = decode_record(&native.bytes, &outer, &Architecture::X86_64).unwrap();
        assert_eq!(decoded.get("head").unwrap().as_i64(), Some(9));
        let p = decoded.get("p").unwrap().as_record().unwrap();
        assert_eq!(p.get("label").unwrap().as_str(), Some("L"));
    }

    #[test]
    fn dynamic_array_of_strings_converts() {
        let st = StructType::new(
            "t",
            vec![
                StructField::new("names", CType::dynamic_array(CType::String, "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let rec = Record::new().with("names", vec!["alpha", "beta"]);
        let wire = encode_record(&rec, &st, &Architecture::ARM32).unwrap();
        let plan =
            ConversionPlan::build(&st, &Architecture::ARM32, &Architecture::SPARC64).unwrap();
        let native = plan.convert(&wire.bytes).unwrap();
        let decoded = decode_record(&native.bytes, &st, &Architecture::SPARC64).unwrap();
        let names: Vec<&str> = decoded
            .get("names")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["alpha", "beta"]);
    }

    #[test]
    fn corrupt_source_is_an_error_not_a_panic() {
        let st = structure_b();
        let rec = sample();
        let wire = encode_record(&rec, &st, &Architecture::X86_64).unwrap();
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::SPARC32).unwrap();
        for cut in [0, 8, 16, wire.fixed_len - 1, wire.bytes.len() - 2] {
            assert!(plan.convert(&wire.bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn plan_cache_compiles_once() {
        let st = structure_b();
        let cache = PlanCache::new();
        let a = cache
            .plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32)
            .unwrap();
        let b = cache
            .plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().resident, 1);
        cache.plan_for(&st, &Architecture::SPARC32, &Architecture::X86_64).unwrap();
        assert_eq!(cache.stats().resident, 2);
    }

    fn telemetry() -> StructType {
        StructType::new(
            "tele",
            vec![
                StructField::new("a", prim(Primitive::ULongLong)),
                StructField::new("b", prim(Primitive::Double)),
                StructField::new("c", prim(Primitive::UInt)),
                StructField::new("d", prim(Primitive::UInt)),
                StructField::new("pts", CType::fixed_array(prim(Primitive::Double), 8)),
            ],
        )
    }

    #[test]
    fn tier_classification() {
        // Pure scalars, same sizes, opposite endianness: PureSwap.
        let st = telemetry();
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::POWER64).unwrap();
        assert_eq!(plan.tier(), PlanTier::PureSwap);
        // a+b fuse into one 8-byte run, c+d into one 4-byte run, pts is
        // its own 8-byte run (width break at c).
        assert_eq!(plan.swap_span_count(), 3);
        assert_eq!(plan.op_count(), 3);
        // A pointer-bearing struct must stay on the General tier even on
        // a swap-only pair, so forged pointers keep erroring identically.
        let plan2 = ConversionPlan::build(
            &structure_b(),
            &Architecture::X86_64,
            &Architecture::POWER64,
        )
        .unwrap();
        assert_eq!(plan2.tier(), PlanTier::General);
        // Layout-compatible pairs are Identity, not PureSwap.
        let plan3 =
            ConversionPlan::build(&st, &Architecture::POWER64, &Architecture::SPARC64).unwrap();
        assert_eq!(plan3.tier(), PlanTier::Identity);
    }

    #[test]
    fn convert_into_reuses_buffer_and_matches_convert() {
        let st = structure_b();
        let rec = sample();
        let wire = encode_record(&rec, &st, &Architecture::X86_64).unwrap();
        // General tier (strings + dynamic array).
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::SPARC32).unwrap();
        let mut buf = Vec::new();
        let fixed = plan.convert_into(&wire.bytes, &mut buf).unwrap();
        let whole = plan.convert(&wire.bytes).unwrap();
        assert_eq!(buf.as_slice(), whole.bytes.as_ref());
        assert_eq!(fixed, whole.fixed_len);
        let cap = buf.capacity();
        for _ in 0..16 {
            plan.convert_into(&wire.bytes, &mut buf).unwrap();
        }
        assert_eq!(buf.capacity(), cap, "steady-state convert_into must not reallocate");
        assert_eq!(buf.as_slice(), whole.bytes.as_ref());
        // Identity tier copies into the pool.
        let id = ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::X86_64).unwrap();
        let fixed = id.convert_into(&wire.bytes, &mut buf).unwrap();
        assert_eq!(fixed, wire.fixed_len);
        assert_eq!(buf.as_slice(), wire.bytes.as_slice());
    }

    #[test]
    fn widenings_compile_unchecked_narrowings_checked() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Long))]);
        // Long: 4 bytes on i386, 8 on x86_64, same endianness.
        let widen =
            ConversionPlan::build(&st, &Architecture::I386, &Architecture::X86_64).unwrap();
        match &widen.ops[0] {
            Op::Scalar { elem: ElemPlan::Int { checked, .. }, .. } => {
                assert!(!checked, "widening must compile unchecked")
            }
            other => panic!("expected Int scalar, got {other:?}"),
        }
        let narrow =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::I386).unwrap();
        match &narrow.ops[0] {
            Op::Scalar { elem: ElemPlan::Int { checked, .. }, .. } => {
                assert!(checked, "narrowing must keep its overflow check")
            }
            other => panic!("expected Int scalar, got {other:?}"),
        }
    }

    #[test]
    fn plan_cache_stats_count_hits_misses_builds() {
        let st = structure_b();
        let cache = PlanCache::new();
        cache.plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32).unwrap();
        cache.plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32).unwrap();
        cache.plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.built, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.resident, 1);
    }

    #[test]
    fn concurrent_first_contact_builds_once() {
        let st = structure_b();
        let cache = Arc::new(PlanCache::new());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let st = st.clone();
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32).unwrap()
                })
            })
            .collect();
        let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p), "all callers must observe the same plan");
        }
        let stats = cache.stats();
        assert_eq!(stats.built, 1, "racing first contacts must build exactly once");
        assert_eq!(stats.resident, 1);
    }

    #[test]
    fn plan_between_rejects_different_structures() {
        let a = Format::new(
            crate::format::FormatId(1),
            StructType::new("A", vec![StructField::new("x", prim(Primitive::Int))]),
            Architecture::X86_64,
        )
        .unwrap();
        let b = Format::new(
            crate::format::FormatId(2),
            StructType::new("B", vec![StructField::new("y", prim(Primitive::Int))]),
            Architecture::X86_64,
        )
        .unwrap();
        assert!(matches!(plan_between(&a, &b), Err(PbioError::Incompatible { .. })));
    }
}
