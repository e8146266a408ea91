//! C ABI data layout: architectures, struct layout, native byte images.
//!
//! This crate is the "Natural Data Representation" substrate of the Open
//! Metadata Formats reproduction. The original xml2wire determined field
//! sizes with the C `sizeof` operator and field offsets with PBIO's
//! `IOOffset` macro, *at runtime on the machine that would communicate*.
//! A Rust reproduction cannot consult a foreign C compiler, so this crate
//! models what that compiler would have produced:
//!
//! * [`Architecture`] describes a machine/compiler ABI (byte order and the
//!   size/alignment of each C primitive). Presets mirror real ABIs of the
//!   paper's era: [`Architecture::X86_64`], [`Architecture::I386`],
//!   [`Architecture::SPARC32`], [`Architecture::SPARC64`],
//!   [`Architecture::ARM32`], [`Architecture::POWER64`].
//! * [`CType`] models the C-level types that XML Schema metadata in the
//!   paper can describe: primitives, `char*` strings, fixed arrays,
//!   count-field dynamic arrays, and nested structs.
//! * [`Layout`] computes `sizeof`/`alignof`/field offsets with the
//!   standard C struct layout algorithm, including compiler padding, and
//!   compiles each field's [`Access`] — a number's [`ScalarCode`], a
//!   string's pointer code, a nested layout, or an array's element
//!   accessor, stride and count — once per struct type and
//!   architecture. It is the one compiled plan of a struct type: the
//!   encoder, pbio's views and conversion plans and backbone's filter
//!   programs all read it.
//! * [`image`] builds *native byte images*: the exact bytes a C struct
//!   instance occupies in memory on a given architecture, with pointers
//!   swizzled to in-buffer offsets (as PBIO's encode step does), in one
//!   pass of the layout over any [`Source`]: a dynamic [`Record`] or a
//!   derived struct. Reading them back is pbio's `RecordView`.
//! * [`ScalarCode`] is the one codec for numbers in an image: one
//!   primitive's width, signedness, float-ness and byte order, resolved
//!   once, with `read`, `write_raw` and the range-checked `write` that
//!   every reader of a layout goes through.
//!
//! Because architectures are plain data, one process can simulate a
//! heterogeneous machine room — a big-endian 32-bit sender talking to a
//! little-endian 64-bit receiver — which is how the reproduction's tests
//! and benchmarks exercise the cross-architecture conversion paths.
//!
//! # Examples
//!
//! ```
//! use clayout::{Architecture, CType, Layout, Primitive, StructField, StructType};
//!
//! // struct { int fltNum; char* arln; } on two architectures.
//! let ty = StructType::new("Flight", vec![
//!     StructField::new("fltNum", CType::Prim(Primitive::Int)),
//!     StructField::new("arln", CType::String),
//! ]);
//! let on64 = Layout::of_struct(&ty, &Architecture::X86_64).unwrap();
//! let on32 = Layout::of_struct(&ty, &Architecture::I386).unwrap();
//! assert_eq!(on64.size, 16); // 4 (int) + 4 (padding) + 8 (pointer)
//! assert_eq!(on32.size, 8);  // 4 (int) + 4 (pointer)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod ctype;
pub mod error;
pub mod image;
pub mod layout;
pub mod typed;
pub mod value;

pub use arch::{Architecture, Endianness, SizeAlign};
pub use ctype::{ArrayLen, CType, Primitive, StructField, StructType};
pub use error::LayoutError;
pub use image::{encode_record, encode_record_into, Image, Items, Source, SourceValue};
pub use layout::{Access, ArrayAccess, ArrayCount, CountSlot, FieldLayout, Layout, Scalar, ScalarCode};
pub use typed::{ConstCType, ConstField, ConstStructType};
pub use value::{Record, Value};
