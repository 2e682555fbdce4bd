//! Fused integer fake-quantisation kernels.
//!
//! The hot GEMMs never build an [`MxBlock`](crate::MxBlock). They call the
//! two kernels here, which produce, bit for bit, the values of the
//! `MxBlock::encode(.., RoundingMode::Nearest)` → `decode` round trip
//! straight from the `f32` bit patterns, without division, `powi`, an
//! intermediate struct, or a heap allocation. `MxBlock` stays the reference
//! oracle; the kernels are property-tested against it.
//!
//! For a block with shared exponent `shared` (the largest exponent field,
//! zero and subnormal inputs counting as 0) and a subgroup whose largest
//! exponent field is below `shared`, the effective exponent is
//! `eff = shared − 1`, otherwise `eff = shared`. An element with exponent
//! field `e ≥ 1` and 24-bit significand `M` gets the mantissa code
//!
//! ```text
//! code = min((M + 2^(s−1)) >> s, 2^mb − 1),   s = 23 + (eff − e) − (mb − 1)
//! ```
//!
//! which is the oracle's f64 `round()` (ties away from zero) of
//! `M · 2^−s`, exactly. The oracle caps `eff − e` at 62; every `s ≥ 25`
//! already yields code 0, so capping `s` at 25 is the same function. The
//! value is `±code · 2^(eff − 127 − (mb − 1))`, which `f32` holds exactly:
//! the code has at most 7 bits and the smallest step is `2^−133 ≥ 2^−149`.
//! Zero and subnormal inputs give a signed zero, except that a block with
//! no normal input decodes to `+0.0` throughout, as the oracle's does.

use crate::{MxError, MxPrecision, Result, BLOCK_SIZE, SUBGROUP_SIZE};

const SIGN_MASK: u32 = 0x8000_0000;
const FRAC_MASK: u32 = 0x007F_FFFF;
const HIDDEN_BIT: u32 = 0x0080_0000;
/// Exponent field of NaN and the infinities.
const NON_FINITE_EXP: u32 = 0xFF;
/// Every rounding shift at or beyond this yields code 0, since `M < 2^24`.
const MAX_ROUND_SHIFT: u32 = 25;
/// Columns per tile of the column-block kernel: one 512-bit vector of
/// `u32` lanes, two 256-bit ones.
const LANES: usize = 16;

/// Biased exponent field of an `f32` bit pattern.
#[inline(always)]
fn exp_field(bits: u32) -> u32 {
    (bits >> 23) & 0xFF
}

/// The per-precision constants of the element rounding step.
#[derive(Debug, Clone, Copy)]
struct Rounder {
    /// `23 − (mb − 1)`: the rounding shift of an element at `eff`.
    base_shift: u32,
    /// `2^mb − 1`, the largest mantissa code.
    max_code: u32,
    /// `127 + (mb − 1)`: subtracted from `eff` for the exponent of one step.
    step_bias: i32,
}

impl Rounder {
    fn new(precision: MxPrecision) -> Self {
        let mb = precision.mantissa_bits();
        Self { base_shift: 24 - mb, max_code: (1 << mb) - 1, step_bias: 127 + mb as i32 - 1 }
    }

    /// Quantises one element, given as bits, at effective exponent `eff`
    /// (`eff ≥` the element's exponent field). `sign_mask` is [`SIGN_MASK`],
    /// or 0 to force `+0.0` for a block without normal inputs.
    #[inline(always)]
    fn quantise(self, bits: u32, eff: u32, sign_mask: u32) -> f32 {
        let exp = exp_field(bits);
        let sig = (bits & FRAC_MASK) | HIDDEN_BIT;
        let shift = (self.base_shift + (eff - exp)).min(MAX_ROUND_SHIFT);
        let code = ((sig + (1 << (shift - 1))) >> shift).min(self.max_code);
        let code = if exp == 0 { 0 } else { code };
        // 2^step_exp is one code step; below 2^-126 it is a subnormal power
        // of two (never below 2^-149, see the module docs).
        let step_exp = eff as i32 - self.step_bias;
        let step = if step_exp >= -126 {
            ((step_exp + 127) as u32) << 23
        } else {
            1u32.wrapping_shl((step_exp + 149) as u32)
        };
        let magnitude = code as f32 * f32::from_bits(step);
        f32::from_bits(magnitude.to_bits() | (bits & sign_mask))
    }
}

/// Errors with the first non-finite value of `values`, reporting its index
/// plus `offset`; returns `Ok` if every value is finite.
fn check_finite(values: &[f32], offset: usize) -> Result<()> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(MxError::NonFiniteInput { index: offset + i, value: values[i] }),
        None => Ok(()),
    }
}

/// Quantises one zero-padded block, given as bits, into `out`; `false` if
/// the block holds a NaN or an infinity (and `out` is left unspecified).
#[inline(always)]
fn quantise_block(bits: &[u32; BLOCK_SIZE], rounder: Rounder, out: &mut [f32; BLOCK_SIZE]) -> bool {
    let shared = bits.iter().map(|&b| exp_field(b)).fold(0, u32::max);
    if shared == NON_FINITE_EXP {
        return false;
    }
    if shared == 0 {
        *out = [0.0; BLOCK_SIZE];
        return true;
    }
    for (pair, qs) in bits.chunks_exact(SUBGROUP_SIZE).zip(out.chunks_exact_mut(SUBGROUP_SIZE)) {
        let sub_max = exp_field(pair[0]).max(exp_field(pair[1]));
        let eff = shared - u32::from(sub_max < shared);
        for (&b, slot) in pair.iter().zip(qs) {
            *slot = rounder.quantise(b, eff, SIGN_MASK);
        }
    }
    true
}

/// Row kernel: fake-quantises `values` in 16-element blocks of contiguous
/// values into `out`. The caller guarantees `out.len() == values.len()`.
pub(crate) fn quantize_row(values: &[f32], precision: MxPrecision, out: &mut [f32]) -> Result<()> {
    let rounder = Rounder::new(precision);
    let mut src = values.chunks_exact(BLOCK_SIZE);
    let mut dst = out.chunks_exact_mut(BLOCK_SIZE);
    for (block, (s, d)) in (&mut src).zip(&mut dst).enumerate() {
        quantise_chunk(s, block * BLOCK_SIZE, rounder, d)?;
    }
    let tail = src.remainder();
    if tail.is_empty() {
        return Ok(());
    }
    quantise_chunk(tail, values.len() - tail.len(), rounder, dst.into_remainder())
}

/// Quantises up to 16 contiguous values (zero-padded to a block, as the
/// oracle pads) into `dst`; a non-finite value is reported at its index
/// plus `offset`.
#[inline(always)]
fn quantise_chunk(src: &[f32], offset: usize, rounder: Rounder, dst: &mut [f32]) -> Result<()> {
    let mut bits = [0u32; BLOCK_SIZE];
    for (b, v) in bits.iter_mut().zip(src) {
        *b = v.to_bits();
    }
    let mut q = [0.0f32; BLOCK_SIZE];
    if !quantise_block(&bits, rounder, &mut q) {
        check_finite(src, offset)?;
    }
    dst.copy_from_slice(&q[..dst.len()]);
    Ok(())
}

/// Column-block kernel: fake-quantises a row-major `rows × cols` matrix
/// whose MX blocks run down the columns, 16 rows at a time from row 0.
///
/// Works lane-parallel across columns, one tile of 16 columns × 16
/// rows at a time: each column's shared exponent is an elementwise max
/// over the tile's rows, and its subgroups are row pairs. A short last
/// block reads as zeros, as the oracle pads it, and a narrow last tile is
/// padded to full width, so every lane operation runs at a fixed width.
///
/// # Errors
///
/// Returns [`MxError::EmptyInput`] for an empty `values`,
/// [`MxError::LengthMismatch`] if `values.len()` is not a multiple of a
/// nonzero `cols` or `out.len() != values.len()`, and
/// [`MxError::NonFiniteInput`] for the first non-finite value in
/// column-major order, with `index` its row (its position in the column).
pub fn quantize_columns_into(
    values: &[f32],
    cols: usize,
    precision: MxPrecision,
    out: &mut [f32],
) -> Result<()> {
    if values.is_empty() {
        return Err(MxError::EmptyInput);
    }
    if cols == 0 || !values.len().is_multiple_of(cols) {
        return Err(MxError::LengthMismatch { left: values.len(), right: cols });
    }
    if out.len() != values.len() {
        return Err(MxError::LengthMismatch { left: values.len(), right: out.len() });
    }
    let rounder = Rounder::new(precision);
    let rows = values.len() / cols;
    for r0 in (0..rows).step_by(BLOCK_SIZE) {
        let tile_rows = BLOCK_SIZE.min(rows - r0);
        for c0 in (0..cols).step_by(LANES) {
            let start = r0 * cols + c0;
            let finite = match cols - c0 {
                w if w >= LANES => {
                    Tile { start, stride: cols, rows: tile_rows }.quantise(values, out, rounder)
                }
                // A narrow last tile runs zero-padded to full width on the stack.
                w => {
                    let mut src = [0.0f32; LANES * BLOCK_SIZE];
                    let mut dst = [0.0f32; LANES * BLOCK_SIZE];
                    for r in 0..tile_rows {
                        src[r * LANES..][..w].copy_from_slice(&values[start + r * cols..][..w]);
                    }
                    let tile = Tile { start: 0, stride: LANES, rows: tile_rows };
                    let finite = tile.quantise(&src, &mut dst, rounder);
                    for r in 0..tile_rows {
                        out[start + r * cols..][..w].copy_from_slice(&dst[r * LANES..][..w]);
                    }
                    finite
                }
            };
            if !finite {
                check_columns_finite(values, cols)?;
            }
        }
    }
    Ok(())
}

/// Up to 16 rows × [`LANES`] columns of a row-major matrix: one MX block
/// per column.
#[derive(Debug, Clone, Copy)]
struct Tile {
    /// Index of the tile's top-left element.
    start: usize,
    /// Row stride of the matrix.
    stride: usize,
    /// Rows in the tile (the block's values; the rest is zero padding).
    rows: usize,
}

impl Tile {
    /// Bits of row `r`, all zero below the tile's last row.
    #[inline(always)]
    fn load(self, values: &[f32], r: usize) -> [u32; LANES] {
        let mut bits = [0u32; LANES];
        if r < self.rows {
            for (b, v) in bits.iter_mut().zip(&values[self.start + r * self.stride..][..LANES]) {
                *b = v.to_bits();
            }
        }
        bits
    }

    /// Quantises the tile from `values` into the same positions of `out`;
    /// `false` if a NaN or an infinity is present (and `out` is left
    /// unspecified).
    #[inline(always)]
    fn quantise(self, values: &[f32], out: &mut [f32], rounder: Rounder) -> bool {
        let mut shared = [0u32; LANES];
        for r in 0..self.rows {
            for (s, b) in shared.iter_mut().zip(self.load(values, r)) {
                *s = (*s).max(exp_field(b));
            }
        }
        if shared.contains(&NON_FINITE_EXP) {
            return false;
        }
        // A column without normal inputs decodes to +0.0; give it a normal
        // effective exponent so no lane multiplies a subnormal.
        let mut sign_mask = [SIGN_MASK; LANES];
        for (s, m) in shared.iter_mut().zip(&mut sign_mask) {
            if *s == 0 {
                *s = 127;
                *m = 0;
            }
        }
        for p0 in (0..self.rows).step_by(SUBGROUP_SIZE) {
            let pair = [self.load(values, p0), self.load(values, p0 + 1)];
            let mut eff = [0u32; LANES];
            for (((e, &s), &b0), &b1) in eff.iter_mut().zip(&shared).zip(&pair[0]).zip(&pair[1]) {
                *e = s - u32::from(exp_field(b0).max(exp_field(b1)) < s);
            }
            for (r, lanes) in (p0..self.rows).zip(&pair) {
                let mut q = [0.0f32; LANES];
                for (((slot, &b), &e), &m) in q.iter_mut().zip(lanes).zip(&eff).zip(&sign_mask) {
                    *slot = rounder.quantise(b, e, m);
                }
                out[self.start + r * self.stride..][..LANES].copy_from_slice(&q);
            }
        }
        true
    }
}

/// Errors with the first non-finite value of a row-major `? × cols` matrix
/// in column-major order, reporting its row as the index.
fn check_columns_finite(values: &[f32], cols: usize) -> Result<()> {
    for c in 0..cols {
        for (r, &value) in values.iter().skip(c).step_by(cols).enumerate() {
            if !value.is_finite() {
                return Err(MxError::NonFiniteInput { index: r, value });
            }
        }
    }
    Ok(())
}
