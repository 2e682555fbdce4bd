//! MX (microexponent) block floating point arithmetic.
//!
//! This crate implements the MX number format used by the DaCapo accelerator
//! (Kim et al., ISCA 2024), which in turn adopts the format proposed by
//! Darvish Rouhani et al., *"With Shared Microexponents, A Little Shifting
//! Goes a Long Way"* (ISCA 2023).
//!
//! An MX **block** groups [`BLOCK_SIZE`] (16) address-adjacent values and
//! stores:
//!
//! * one 8-bit **shared exponent** — the largest FP32 exponent in the block,
//! * one 1-bit **microexponent** per [`SUBGROUP_SIZE`]-element (2) subgroup —
//!   set when every exponent in the subgroup is strictly smaller than the
//!   shared exponent, which shifts that subgroup's effective exponent down by
//!   one and recovers one bit of precision,
//! * per-element sign and a truncated mantissa whose width depends on the
//!   precision: 2 bits ([`MxPrecision::Mx4`]), 4 bits ([`MxPrecision::Mx6`]),
//!   or 7 bits ([`MxPrecision::Mx9`]).
//!
//! Most computation then happens in the integer domain; accumulation happens
//! in FP32 (the DPE's "FP32 generator"), which is why decoding an MX block to
//! `f32` and multiply-accumulating reproduces the hardware result exactly.
//!
//! [`MxBlock`] is the reference encoder and the serialisable format. The
//! simulator's hot GEMMs fake-quantise (encode then decode) through two
//! fused integer kernels instead, which compute the round trip's values
//! straight from the `f32` bits, bit-identically and without allocating:
//! [`MxVector::quantize_into`] for blocks of contiguous values, and
//! [`quantize_columns_into`] for blocks running down a matrix's columns.
//!
//! # Examples
//!
//! ```
//! use dacapo_mx::{MxPrecision, MxVector};
//!
//! # fn main() -> Result<(), dacapo_mx::MxError> {
//! let a: Vec<f32> = (0..64).map(|i| (i as f32) * 0.25 - 8.0).collect();
//! let b: Vec<f32> = (0..64).map(|i| ((i % 7) as f32) * 0.5).collect();
//!
//! let qa = MxVector::encode(&a, MxPrecision::Mx9)?;
//! let qb = MxVector::encode(&b, MxPrecision::Mx9)?;
//!
//! let exact: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
//! let approx = qa.dot(&qb)?;
//! assert!((exact - approx).abs() / exact.abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

mod block;
mod error;
mod error_analysis;
mod format;
mod kernel;
mod vector;

pub use block::MxBlock;
pub use error::MxError;
pub use error_analysis::{quantization_error, QuantError};
pub use format::{MxPrecision, RoundingMode, BLOCK_SIZE, SUBGROUP_COUNT, SUBGROUP_SIZE};
pub use kernel::quantize_columns_into;
pub use vector::MxVector;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, MxError>;
