//! Planar geometry substrate for the MC²LS reproduction.
//!
//! Every spatial structure in this workspace (R-tree, IQuad-tree, the
//! IA/NIB/IS/NIR pruning regions) is built on the small set of primitives
//! defined here:
//!
//! * [`Point`] — a position in a planar coordinate system measured in
//!   kilometres. Real latitude/longitude data is projected into this system
//!   with [`project::Equirectangular`].
//! * [`Rect`] — an axis-aligned rectangle (the paper's MBRs), with exact
//!   point–rectangle minimum/maximum distances, inflation, and containment.
//! * [`Square`] — axis-aligned squares addressed by their *diagonal* length,
//!   matching how the paper parameterises IQuad-tree nodes (`d̂` is always a
//!   diagonal).
//! * [`Extent`] — incremental bounding-box accumulation for datasets.
//! * [`morton_code`] / [`grid_coords`] — z-order codes and grid cells over
//!   quad subdivisions, one midpoint descent shared by the IQuad-tree
//!   builder, the blocked verification substrate and the candidate sweep.
//!   The batch forms [`morton_codes`] and [`grid_cells`] run that descent
//!   over [`LANE`] points at a time, bit-identically.
//! * [`codec`] — the little-endian binary reader/writer (plus CRC-32) the
//!   snapshot persistence layer pins every artifact's byte layout on.
//!
//! All distances are Euclidean in km. The substrate is `f64` throughout; the
//! algorithms never require exact arithmetic because every pruning rule is
//! paired with an exact verification phase.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod extent;
mod morton;
mod point;
pub mod project;
mod rect;
mod square;

pub use codec::{ByteReader, ByteWriter, CodecError, U32View};
pub use extent::Extent;
pub use morton::{grid_cells, grid_coords, morton_code, morton_codes, LANE};
pub use point::Point;
pub use rect::Rect;
pub use square::Square;
