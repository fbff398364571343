#![warn(missing_docs)]

//! Dense and sparse tensor primitives for the Parallax reproduction.
//!
//! This crate plays the role of TensorFlow's tensor layer in the original
//! system: a dense [`Tensor`] abstraction plus the [`IndexedSlices`]
//! sparse-gradient representation that Parallax's sparsity analysis is
//! built around. All math is `f32` on the host; simulated GPUs in the
//! upper layers execute these kernels on worker threads.

pub mod checksum;
pub mod error;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod sparse;
pub mod tensor;
pub mod view;

pub use checksum::crc32;
pub use error::TensorError;
pub use rng::DetRng;
pub use shape::Shape;
pub use sparse::IndexedSlices;
pub use tensor::Tensor;
pub use view::TensorView;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, TensorError>;
