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
//! A plan is compiled from the two architectures' [`Layout`]s, zipped
//! field by field: every width, offset, stride and count slot comes from
//! the layout a view of the same payload reads through, and the sender's
//! bytes are checked by the view's own rules (the dynamic-region check,
//! the string chase). Every number is read and stored through
//! [`ScalarCode`].
//!
//! Plans are cached in a [`PlanCache`], a [`Memo`] keyed by structure
//! fingerprint and the two architecture descriptors.

use std::borrow::Cow;
use std::sync::Arc;

use clayout::layout::align_up;
use clayout::{
    Access, Architecture, ArrayCount, Image, Layout, LayoutError, ScalarCode, StructType,
};

use crate::error::PbioError;
use crate::format::{struct_fingerprint, Format};
use crate::memo::{Memo, MemoStats};
use crate::view::{dynamic_region, slot, str_at};

/// The code of `arch`'s pointer slots.
fn pointer_code(arch: &Architecture) -> ScalarCode {
    ScalarCode::unsigned(arch.pointer.size, arch.endianness)
}

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
    /// A number whose width differs: read in the source's code, stored
    /// range-checked in the destination's (a widening always fits).
    Recode {
        from: ScalarCode,
        to: ScalarCode,
        field: u32,
    },
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
    Scalar {
        src: usize,
        dst: usize,
        elem: ElemPlan,
    },
    /// `count` consecutive `width`-byte byte-swaps at the given offsets —
    /// the fused form of adjacent same-width [`ElemPlan::Swap`] scalars
    /// and of `Repeat`-of-swap with stride == width. Executes as
    /// `chunks_exact` + `u{16,32,64}::swap_bytes` (safe,
    /// autovectorizable), no per-element dispatch.
    SwapRun {
        src: usize,
        dst: usize,
        width: u8,
        count: usize,
    },
    /// A fixed-size array: `count` elements at the given strides.
    Repeat {
        src: usize,
        dst: usize,
        count: usize,
        src_stride: usize,
        dst_stride: usize,
        elem: ElemPlan,
    },
    /// A dynamic (count-field) array: pointer slots plus a runtime count
    /// read from the source image in the count field's code; `field`
    /// and `count_field` name the array and its count.
    DynArray {
        src_slot: usize,
        dst_slot: usize,
        count_off: usize,
        count: ScalarCode,
        src_stride: usize,
        dst_stride: usize,
        dst_align: usize,
        elem: ElemPlan,
        field: u32,
        count_field: u32,
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
        Image {
            bytes: self.bytes.into_owned(),
            fixed_len: self.fixed_len,
        }
    }
}

/// A compiled conversion from one format's wire image to another
/// architecture's native image.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionPlan {
    ops: Vec<Op>,
    /// Field names (`outer.inner` below the top level), for errors.
    names: Vec<String>,
    /// The codes of the two architectures' pointer slots.
    src_pointer: ScalarCode,
    dst_pointer: ScalarCode,
    src_fixed_len: usize,
    dst_fixed_len: usize,
    tier: PlanTier,
    /// Flat swap program; non-empty only on the `PureSwap` tier (empty
    /// there too when the pair is byte-identical but not
    /// layout-compatible — a pure memcpy).
    swap_spans: Vec<SwapSpan>,
    /// The sender's layout the plan was zipped from, which a view of the
    /// same payload reads through; `None` on the identity tier, where
    /// the sender's layout is the destination's.
    src: Option<Arc<Layout>>,
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
        let src = Layout::of_struct(struct_type, src_arch)?;
        if src_arch.layout_compatible(dst_arch) {
            return Ok(ConversionPlan::identity(src_arch, src.size));
        }
        let dst = Layout::of_struct(struct_type, dst_arch)?;
        Ok(ConversionPlan::zip(src, &dst))
    }

    /// [`build`](Self::build) into `native`'s architecture, through the
    /// layout `native` already holds: only the sender's layout is
    /// compiled, and none for a layout-compatible sender.
    fn for_format(native: &Format, src_arch: &Architecture) -> Result<ConversionPlan, PbioError> {
        let dst = native.layout();
        if src_arch.layout_compatible(dst.arch()) {
            return Ok(ConversionPlan::identity(src_arch, dst.size));
        }
        let src = Layout::of_struct(native.struct_type(), src_arch)?;
        Ok(ConversionPlan::zip(src, dst))
    }

    /// The plan between two layout-compatible architectures.
    fn identity(arch: &Architecture, fixed_len: usize) -> ConversionPlan {
        let pointer = pointer_code(arch);
        ConversionPlan {
            ops: Vec::new(),
            names: Vec::new(),
            src_pointer: pointer,
            dst_pointer: pointer,
            src_fixed_len: fixed_len,
            dst_fixed_len: fixed_len,
            tier: PlanTier::Identity,
            swap_spans: Vec::new(),
            src: None,
        }
    }

    /// The plan from `src` to `dst`, two layouts of one struct type on
    /// architectures that are not layout-compatible.
    fn zip(src: Layout, dst: &Layout) -> ConversionPlan {
        let mut names = Vec::new();
        let ops = fuse(build_ops(&src, dst, &mut names, ""));
        let mut plan = ConversionPlan {
            ops,
            names,
            src_pointer: pointer_code(src.arch()),
            dst_pointer: pointer_code(dst.arch()),
            src_fixed_len: src.size,
            dst_fixed_len: dst.size,
            tier: PlanTier::General,
            swap_spans: Vec::new(),
            src: None,
        };
        // PureSwap candidacy: identical total size and every op a
        // same-offset copy or swap (recursively) — which also rules out
        // pointer-bearing fields, keeping error behaviour identical to
        // the General interpreter.
        if src.size == dst.size {
            if let Some(spans) = pure_swap_spans(&plan.ops) {
                plan.swap_spans = spans;
                plan.tier = PlanTier::PureSwap;
            }
        }
        plan.src = Some(Arc::new(src));
        plan
    }

    /// The sender's layout, for a view of a payload this plan converts;
    /// `None` on the identity tier (the view reads the destination's).
    pub(crate) fn source_layout(&self) -> Option<&Arc<Layout>> {
        self.src.as_ref()
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

    /// Number of interpreter ops (after coalescing); exposed for the
    /// ablation benchmarks.
    pub fn op_count(&self) -> usize {
        self.ops.len()
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
    /// Reports source images the view would refuse — truncated, with a
    /// bad count or pointer, a region outside the payload, a string
    /// unterminated or not UTF-8 — and values the destination cannot
    /// represent ([`LayoutError::ValueOutOfRange`], as the encoder
    /// reports them).
    pub fn convert<'a>(&self, payload: &'a [u8]) -> Result<ImageCow<'a>, PbioError> {
        let bytes = if self.tier == PlanTier::Identity {
            self.covers(payload)?;
            Cow::Borrowed(payload)
        } else {
            let mut out = Vec::new();
            self.fill(payload, &mut out)?;
            Cow::Owned(out)
        };
        let fixed_len = self.dst_fixed_len;
        Ok(ImageCow { bytes, fixed_len })
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
        if self.tier == PlanTier::Identity {
            self.covers(payload)?;
            out.clear();
            out.extend_from_slice(payload);
        } else {
            self.fill(payload, out)?;
        }
        Ok(self.dst_fixed_len)
    }

    /// Refuses a payload shorter than the source's fixed part.
    fn covers(&self, payload: &[u8]) -> Result<(), PbioError> {
        match (self.src_fixed_len, payload.len()) {
            (need, have) if have < need => Err(PbioError::Truncated { need, have }),
            _ => Ok(()),
        }
    }

    /// Non-identity conversion into a caller-owned buffer.
    fn fill(&self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), PbioError> {
        self.covers(payload)?;
        out.clear();
        match self.tier {
            PlanTier::PureSwap => {
                // One bulk copy of the fixed part, then the flat swap
                // program over it. No variable section can exist on
                // this tier (no pointer-bearing fields).
                out.extend_from_slice(&payload[..self.src_fixed_len]);
                for span in &self.swap_spans {
                    let range = span.off..span.off + span.width as usize * span.count;
                    swap_into(&mut out[range.clone()], &payload[range], span.width);
                }
                Ok(())
            }
            _ => {
                out.resize(self.dst_fixed_len, 0);
                self.run_ops(&self.ops, payload, 0, out, 0)
            }
        }
    }

    /// The name of field `field`, for an error.
    fn name(&self, field: u32) -> &str {
        &self.names[field as usize]
    }

    fn run_ops(
        &self,
        ops: &[Op],
        input: &[u8],
        in_base: usize,
        out: &mut Vec<u8>,
        out_base: usize,
    ) -> Result<(), PbioError> {
        // Bounds-check hoisting: `convert`/`convert_into` verify the
        // whole source fixed part up front, and every dynamic region is
        // verified once (below) before its elements run, so there are
        // no per-op checks — layout guarantees each op's extent lies
        // inside its enclosing (checked) extent.
        for op in ops {
            match op {
                Op::Copy { src, dst, len } => {
                    let (s, d) = (in_base + src, out_base + dst);
                    out[d..d + len].copy_from_slice(&input[s..s + len]);
                }
                Op::SwapRun {
                    src,
                    dst,
                    width,
                    count,
                } => {
                    let (s, d, len) = (in_base + src, out_base + dst, *width as usize * count);
                    swap_into(&mut out[d..d + len], &input[s..s + len], *width);
                }
                Op::Scalar { src, dst, elem } => {
                    self.run_elem(elem, input, in_base + src, out, out_base + dst)?;
                }
                Op::Repeat {
                    src,
                    dst,
                    count,
                    src_stride,
                    dst_stride,
                    elem,
                } => {
                    for i in 0..*count {
                        let (s, d) = (
                            in_base + src + i * src_stride,
                            out_base + dst + i * dst_stride,
                        );
                        self.run_elem(elem, input, s, out, d)?;
                    }
                }
                Op::DynArray {
                    src_slot,
                    dst_slot,
                    count_off,
                    count,
                    src_stride,
                    dst_stride,
                    dst_align,
                    elem,
                    field,
                    count_field,
                } => {
                    let count = count.read(input, in_base + count_off);
                    let target = slot(self.src_pointer, input, in_base + src_slot);
                    let (array, count_field) = (self.name(*field), self.name(*count_field));
                    let (start, count) =
                        dynamic_region(input, count, target, *src_stride, array, count_field)?;
                    if count == 0 {
                        // The slot stays the null pointer it was zero-filled to.
                        continue;
                    }
                    // `count` fits the source; its destination region
                    // must fit memory.
                    let region = align_up(out.len(), *dst_align);
                    let end = count
                        .checked_mul(*dst_stride)
                        .and_then(|len| len.checked_add(region));
                    let count_i64 = count as i64;
                    let bad_count = || LayoutError::BadCount {
                        field: count_field.to_owned(),
                        count: count_i64,
                    };
                    out.resize(end.ok_or_else(bad_count)?, 0);
                    self.dst_pointer
                        .write_raw(out, out_base + dst_slot, region as u64);
                    let from = &input[start..start + count * src_stride];
                    match elem {
                        // Bulk fast paths: a dynamic array of swap or
                        // copy scalars is one region-sized copy (plus an
                        // in-place swap pass), not `count` dispatches.
                        ElemPlan::Swap { width }
                            if *src_stride == *width as usize && *dst_stride == *width as usize =>
                        {
                            swap_into(&mut out[region..], from, *width);
                        }
                        ElemPlan::Copy { len } if *len == *src_stride && *len == *dst_stride => {
                            out[region..].copy_from_slice(from);
                        }
                        _ => {
                            for i in 0..count {
                                let (s, d) = (start + i * src_stride, region + i * dst_stride);
                                self.run_elem(elem, input, s, out, d)?;
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
        input: &[u8],
        s: usize,
        out: &mut Vec<u8>,
        d: usize,
    ) -> Result<(), PbioError> {
        match elem {
            ElemPlan::Copy { len } => out[d..d + len].copy_from_slice(&input[s..s + len]),
            ElemPlan::Swap { width } => {
                let w = *width as usize;
                out[d..d + w].copy_from_slice(&input[s..s + w]);
                out[d..d + w].reverse();
            }
            ElemPlan::Recode { from, to, field } => {
                to.write(out, d, from.read(input, s), self.name(*field))?;
            }
            ElemPlan::String { field } => {
                // A null source pointer leaves the slot the null pointer
                // it was zero-filled to.
                let target = slot(self.src_pointer, input, s);
                if target != 0 {
                    let string = str_at(input, target, self.name(*field))?;
                    let at = out.len() as u64;
                    out.extend_from_slice(string.as_bytes());
                    out.push(0);
                    self.dst_pointer.write_raw(out, d, at);
                }
            }
            ElemPlan::Struct { ops } => return self.run_ops(ops, input, s, out, d),
        }
        Ok(())
    }
}

/// Zips two architectures' layouts of one struct type into conversion
/// ops; each field's name, `prefix` first, goes into `names`.
fn build_ops(from: &Layout, to: &Layout, names: &mut Vec<String>, prefix: &str) -> Vec<Op> {
    let first = names.len();
    names.extend(from.fields.iter().map(|f| format!("{prefix}{}", f.name)));
    let mut ops = Vec::with_capacity(from.fields.len());
    for (idx, (s, d)) in from.fields.iter().zip(&to.fields).enumerate() {
        let (src, dst, name) = (s.offset, d.offset, (first + idx) as u32);
        ops.push(match (&s.access, &d.access) {
            (Access::Array(sa), Access::Array(da)) => {
                let (src_stride, dst_stride) = (sa.stride, da.stride);
                let elem = elem_plan(&sa.elem, &da.elem, names, &s.name, name);
                match sa.count {
                    ArrayCount::Fixed(count) => Op::Repeat {
                        src,
                        dst,
                        count,
                        src_stride,
                        dst_stride,
                        elem,
                    },
                    ArrayCount::Counted(c) => Op::DynArray {
                        src_slot: src,
                        dst_slot: dst,
                        count_off: c.offset,
                        count: c.code,
                        src_stride,
                        dst_stride,
                        dst_align: da.align,
                        elem,
                        field: name,
                        count_field: (first + c.field) as u32,
                    },
                }
            }
            (sa, da) => {
                let elem = elem_plan(sa, da, names, &s.name, name);
                Op::Scalar { src, dst, elem }
            }
        });
    }
    ops
}

/// What converts one value between the accessors `s` and `d` of the
/// two layouts: equal or 1-byte codes copy, codes of one width swap, any
/// other pair of codes recodes.
fn elem_plan(s: &Access, d: &Access, names: &mut Vec<String>, name: &str, field: u32) -> ElemPlan {
    match (s, d) {
        (&Access::Scalar(from), &Access::Scalar(to)) => match from.size() {
            len if from == to || len == 1 => ElemPlan::Copy { len },
            width if width == to.size() => ElemPlan::Swap { width: width as u8 },
            _ => ElemPlan::Recode { from, to, field },
        },
        (Access::Str(_), Access::Str(_)) => ElemPlan::String { field },
        (Access::Struct(s), Access::Struct(d)) => ElemPlan::Struct {
            ops: fuse(build_ops(s, d, names, &format!("{name}."))),
        },
        _ => unreachable!("two layouts of one struct type pair up field by field"),
    }
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
        Op::Scalar {
            src,
            dst,
            elem: ElemPlan::Swap { width },
        } => Op::SwapRun {
            src,
            dst,
            width,
            count: 1,
        },
        Op::Scalar {
            src,
            dst,
            elem: ElemPlan::Copy { len },
        } => Op::Copy { src, dst, len },
        Op::Repeat {
            src,
            dst,
            count,
            src_stride,
            dst_stride,
            elem: ElemPlan::Swap { width },
        } if src_stride == width as usize && dst_stride == width as usize => Op::SwapRun {
            src,
            dst,
            width,
            count,
        },
        Op::Repeat {
            src,
            dst,
            count,
            src_stride,
            dst_stride,
            elem: ElemPlan::Copy { len },
        } if src_stride == len && dst_stride == len => Op::Copy {
            src,
            dst,
            len: count * len,
        },
        op => op,
    }
}

/// Merges `op` into `last` when they are contiguous compatible bulk
/// ops; returns whether the merge happened.
fn merge(last: &mut Op, op: &Op) -> bool {
    match (last, op) {
        (
            Op::Copy { src, dst, len },
            Op::Copy {
                src: s2,
                dst: d2,
                len: l2,
            },
        ) => {
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
            Op::SwapRun {
                src,
                dst,
                width,
                count,
            },
            Op::SwapRun {
                src: s2,
                dst: d2,
                width: w2,
                count: c2,
            },
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
            if last.width == span.width && last.off + last.width as usize * last.count == span.off {
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
            Op::SwapRun {
                src,
                dst,
                width,
                count,
            } if src == dst => {
                let (off, width, count) = (base + src, *width, *count);
                spans.push(SwapSpan { off, width, count });
            }
            Op::Scalar {
                src,
                dst,
                elem: ElemPlan::Struct { ops },
            } if src == dst => {
                collect_spans(ops, base + src, spans)?;
            }
            Op::Repeat {
                src,
                dst,
                count,
                src_stride,
                dst_stride,
                elem,
            } if src == dst && src_stride == dst_stride => match elem {
                ElemPlan::Copy { .. } => {}
                ElemPlan::Swap { width } => {
                    for off in (0..*count).map(|i| base + src + i * src_stride) {
                        spans.push(SwapSpan {
                            off,
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
            },
            _ => return None,
        }
    }
    Some(())
}

/// Byte-swaps scalars from `src` into `dst` (equal lengths, a multiple
/// of `width`).
fn swap_into(dst: &mut [u8], src: &[u8], width: u8) {
    match width {
        2 => swap_each::<2>(dst, src, |b| {
            u16::from_ne_bytes(b).swap_bytes().to_ne_bytes()
        }),
        4 => swap_each::<4>(dst, src, |b| {
            u32::from_ne_bytes(b).swap_bytes().to_ne_bytes()
        }),
        8 => swap_each::<8>(dst, src, |b| {
            u64::from_ne_bytes(b).swap_bytes().to_ne_bytes()
        }),
        _ => debug_assert!(false, "swap width {width}"),
    }
}

/// Writes `swap` of each `N`-byte chunk of `src` to `dst`.
#[inline(always)]
fn swap_each<const N: usize>(dst: &mut [u8], src: &[u8], swap: impl Fn([u8; N]) -> [u8; N]) {
    for (d, s) in dst.chunks_exact_mut(N).zip(src.chunks_exact(N)) {
        d.copy_from_slice(&swap(s.try_into().unwrap()));
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
        let fingerprint = struct_fingerprint(struct_type);
        self.plan_keyed(fingerprint, src_arch, dst_arch, || {
            ConversionPlan::build(struct_type, src_arch, dst_arch)
        })
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
        self.plan_keyed(native.fingerprint(), src_arch, native.arch(), || {
            ConversionPlan::for_format(native, src_arch)
        })
    }

    /// The probe behind both entry points, keyed by the definition's
    /// `fingerprint` and the two architectures; `build` compiles a miss.
    fn plan_keyed(
        &self,
        fingerprint: u64,
        src_arch: &Architecture,
        dst_arch: &Architecture,
        build: impl FnOnce() -> Result<ConversionPlan, PbioError>,
    ) -> Result<Arc<ConversionPlan>, PbioError> {
        let mut archs = [0u8; 12];
        archs[..6].copy_from_slice(&src_arch.descriptor());
        archs[6..].copy_from_slice(&dst_arch.descriptor());
        self.plans.get_or_build((fingerprint, archs), build)
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
    use clayout::{encode_record, CType, Primitive, Record, StructField, Value};

    impl ConversionPlan {
        /// Number of fused swap spans in the `PureSwap` flat program
        /// (0 on other tiers, and on byte-identical memcpy pairs).
        fn swap_span_count(&self) -> usize {
            self.swap_spans.len()
        }
    }

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
        let plan = ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::I386).unwrap();
        for verdict in [
            plan.convert(&wire.bytes).map(|_| ()),
            plan.convert_into(&wire.bytes, &mut Vec::new()).map(|_| ()),
        ] {
            match verdict {
                Err(PbioError::Layout(LayoutError::ValueOutOfRange {
                    field,
                    value,
                    width,
                })) => {
                    assert_eq!(
                        (field.as_str(), value.as_str(), width),
                        ("big", "1099511627781", 4)
                    );
                }
                other => panic!("expected out of range, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_string_that_is_not_utf8_is_refused() {
        // The view's rule: conversion copies only what a view would read.
        let st = StructType::new("t", vec![StructField::new("s", CType::String)]);
        let mut wire =
            encode_record(&Record::new().with("s", "hi"), &st, &Architecture::X86_64).unwrap();
        wire.bytes[wire.fixed_len] = 0xff;
        let plan =
            ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::SPARC32).unwrap();
        for verdict in [
            plan.convert(&wire.bytes).map(|_| ()),
            plan.convert_into(&wire.bytes, &mut Vec::new()).map(|_| ()),
        ] {
            match verdict {
                Err(PbioError::Layout(LayoutError::BadString { field })) => assert_eq!(field, "s"),
                other => panic!("expected a bad string, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_count_the_payload_cannot_hold_is_a_bad_count() {
        // Two 4-byte elements after a 16-byte fixed part: 24 bytes, room
        // for at most 6 elements. A count of 10 is more than fits but
        // less than the payload's length in bytes.
        let st = StructType::new(
            "t",
            vec![
                StructField::new("a", CType::dynamic_array(prim(Primitive::Int), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let src = Architecture::X86_64;
        let mut wire = encode_record(&Record::new().with("a", vec![1i64, 2]), &st, &src).unwrap();
        assert_eq!(wire.bytes.len(), 24);
        let count = ScalarCode::new(Primitive::Int, src.int.size, src.endianness);
        count.write_raw(&mut wire.bytes, 8, 10);
        let plan = ConversionPlan::build(&st, &src, &Architecture::SPARC32).unwrap();
        for verdict in [
            plan.convert(&wire.bytes).map(|_| ()),
            plan.convert_into(&wire.bytes, &mut Vec::new()).map(|_| ()),
        ] {
            match verdict {
                Err(PbioError::Layout(LayoutError::BadCount { field, count })) => {
                    assert_eq!((field.as_str(), count), ("n", 10));
                }
                other => panic!("expected a bad count, got {other:?}"),
            }
        }
    }

    #[test]
    fn widening_never_overflows() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Long))]);
        let rec = Record::new().with("x", -123456i64);
        let wire = encode_record(&rec, &st, &Architecture::I386).unwrap();
        let plan = ConversionPlan::build(&st, &Architecture::I386, &Architecture::X86_64).unwrap();
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
        cache
            .plan_for(&st, &Architecture::SPARC32, &Architecture::X86_64)
            .unwrap();
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
        assert_eq!(
            buf.capacity(),
            cap,
            "steady-state convert_into must not reallocate"
        );
        assert_eq!(buf.as_slice(), whole.bytes.as_ref());
        // Identity tier copies into the pool.
        let id = ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::X86_64).unwrap();
        let fixed = id.convert_into(&wire.bytes, &mut buf).unwrap();
        assert_eq!(fixed, wire.fixed_len);
        assert_eq!(buf.as_slice(), wire.bytes.as_slice());
    }

    #[test]
    fn width_changes_compile_to_one_recode_between_the_two_codes() {
        // Long: 4 bytes on i386, 8 on x86_64, same endianness.
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Long))]);
        let (narrow, wide) = (Architecture::I386, Architecture::X86_64);
        for (src, dst) in [(narrow, wide), (wide, narrow)] {
            let plan = ConversionPlan::build(&st, &src, &dst).unwrap();
            let (from, to) = (
                ScalarCode::new(Primitive::Long, src.long.size, src.endianness),
                ScalarCode::new(Primitive::Long, dst.long.size, dst.endianness),
            );
            assert_eq!(
                plan.ops,
                vec![Op::Scalar {
                    src: 0,
                    dst: 0,
                    elem: ElemPlan::Recode { from, to, field: 0 }
                }]
            );
        }
    }

    #[test]
    fn plan_cache_stats_count_hits_misses_builds() {
        let st = structure_b();
        let cache = PlanCache::new();
        cache
            .plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32)
            .unwrap();
        cache
            .plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32)
            .unwrap();
        cache
            .plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32)
            .unwrap();
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
                    cache
                        .plan_for(&st, &Architecture::X86_64, &Architecture::SPARC32)
                        .unwrap()
                })
            })
            .collect();
        let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for p in &plans[1..] {
            assert!(
                Arc::ptr_eq(&plans[0], p),
                "all callers must observe the same plan"
            );
        }
        let stats = cache.stats();
        assert_eq!(
            stats.built, 1,
            "racing first contacts must build exactly once"
        );
        assert_eq!(stats.resident, 1);
    }
}
