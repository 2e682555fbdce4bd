//! MX-quantised matrix operations.
//!
//! The DaCapo accelerator executes GEMMs with MX-compressed operands while
//! accumulating in FP32. These helpers emulate exactly that: operands are
//! quantised block-by-block along the reduction (K) dimension, then the
//! multiplication proceeds in `f32`, so the result matches what the DPE array
//! would produce.
//!
//! Every MX operand goes through one of the two fused integer kernels of
//! `dacapo_mx`, which compute the quantised values straight from the `f32`
//! bits without allocating:
//!
//! * the row kernel, [`MxVector::quantize_into`], for operands blocked
//!   along contiguous rows — [`quantize_rows`] and the left GEMM operand;
//! * the column-block kernel, [`quantize_columns_into`], for operands
//!   blocked down the columns — [`quantize_cols`] and the right GEMM
//!   operand, which it quantises straight into the packed panel one
//!   [`K_BLOCK`] of rows at a time.
//!
//! Both are bit-identical to the `dacapo_mx::MxBlock` encode → decode round
//! trip, the reference oracle the tests compare them against.

use crate::workspace::K_BLOCK;
use crate::{ops, Matrix, Result, TensorError, Workspace};
use dacapo_mx::{quantize_columns_into, MxError, MxPrecision, MxVector};

/// Quantises every row of a matrix through the MX encode/decode round trip.
///
/// Each row is blocked independently (16-element blocks), mirroring how the
/// memory interface lays out operands along the reduction dimension.
///
/// # Errors
///
/// Returns [`TensorError::Quantization`] if the matrix contains non-finite
/// values.
pub fn quantize_rows(a: &Matrix, precision: MxPrecision) -> Result<Matrix> {
    let mut out = a.clone();
    quantize_rows_into(a, precision, &mut out)?;
    Ok(out)
}

/// Quantises every row of `a` into a reusable output matrix, allocation-free
/// once `out` has grown to size.
///
/// # Errors
///
/// Returns [`TensorError::Quantization`] if the matrix contains non-finite
/// values.
pub fn quantize_rows_into(a: &Matrix, precision: MxPrecision, out: &mut Matrix) -> Result<()> {
    let (m, k) = a.shape();
    out.reset_to(m, k)?;
    for r in 0..m {
        MxVector::quantize_into(a.row(r), precision, out.row_mut(r))?;
    }
    Ok(())
}

/// Quantises every column of a matrix through the MX encode/decode round trip.
///
/// Used for the right-hand GEMM operand, whose reduction dimension runs down
/// the columns. (This is also what DaCapo's precision-conversion unit does in
/// "column-major" mode when producing transposed operands for retraining.)
/// Runs the column-block kernel, which is bit-identical to transposing,
/// quantising rows, and transposing back, without the two transpose copies.
///
/// # Errors
///
/// Returns [`TensorError::Quantization`] if the matrix contains non-finite
/// values; the reported index is the offending element's row.
pub fn quantize_cols(a: &Matrix, precision: MxPrecision) -> Result<Matrix> {
    let mut out = a.clone();
    quantize_columns_into(a.as_slice(), a.cols(), precision, out.as_mut_slice())?;
    Ok(out)
}

/// Quantises rows `kb..kb + kc` of `b` column-block-wise straight into the
/// workspace panel (row-major by reduction index, the layout of `b`).
///
/// Because `kb` is always a [`K_BLOCK`] multiple and `K_BLOCK` is a multiple
/// of the 16-element MX block size, the MX blocks of each column segment
/// coincide exactly with the blocks of the full column — so fusing
/// quantisation into packing is bit-identical to quantising whole columns
/// up front. A non-finite element is reported by its row in `b`.
fn pack_quantized_panel(
    panel: &mut Vec<f32>,
    b: &Matrix,
    kb: usize,
    kc: usize,
    precision: MxPrecision,
) -> Result<()> {
    let n = b.cols();
    panel.clear();
    // J_TILE zeros of padding let the fixed-width tail kernel in
    // accumulate_panel read one full tile past the last packed row.
    panel.resize(kc * n + ops::J_TILE, 0.0);
    let src = &b.as_slice()[kb * n..(kb + kc) * n];
    quantize_columns_into(src, n, precision, &mut panel[..kc * n]).map_err(|e| match e {
        MxError::NonFiniteInput { index, value } => {
            MxError::NonFiniteInput { index: kb + index, value }
        }
        other => other,
    })?;
    Ok(())
}

/// MX GEMM into a reusable output, fusing B-operand quantisation into panel
/// packing. The left operand is quantised row-wise into the workspace, the
/// right operand column-wise one reduction block at a time; accumulation is
/// ascending-`k` FP32, so the result is bit-identical to [`mx_matmul`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()` and
/// [`TensorError::Quantization`] on non-finite inputs.
pub fn mx_matmul_into(
    a: &Matrix,
    b: &Matrix,
    precision: MxPrecision,
    out: &mut Matrix,
    ws: &mut Workspace,
) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "mx_matmul",
            left: a.shape(),
            right: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    out.reset_to(m, n)?;
    let Workspace { panel, qa } = ws;
    qa.clear();
    qa.resize(m * k, 0.0);
    for r in 0..m {
        MxVector::quantize_into(a.row(r), precision, &mut qa[r * k..(r + 1) * k])?;
    }
    for kb in (0..k).step_by(K_BLOCK) {
        let kc = K_BLOCK.min(k - kb);
        pack_quantized_panel(panel, b, kb, kc, precision)?;
        ops::accumulate_panel(qa, k, kb, kc, panel, out);
    }
    Ok(())
}

/// MX GEMM whose left operand `qa` is already row-quantised (as the DNN
/// forward cache keeps it); only the right operand is quantised, fused into
/// panel packing. Bit-identical to `matmul(qa, quantize_cols(b))`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `qa.cols() != b.rows()` and
/// [`TensorError::Quantization`] if `b` contains non-finite values.
pub fn mx_matmul_prequant_into(
    qa: &Matrix,
    b: &Matrix,
    precision: MxPrecision,
    out: &mut Matrix,
    ws: &mut Workspace,
) -> Result<()> {
    if qa.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "mx_matmul",
            left: qa.shape(),
            right: b.shape(),
        });
    }
    let (m, k) = qa.shape();
    let n = b.cols();
    out.reset_to(m, n)?;
    let Workspace { panel, .. } = ws;
    for kb in (0..k).step_by(K_BLOCK) {
        let kc = K_BLOCK.min(k - kb);
        pack_quantized_panel(panel, b, kb, kc, precision)?;
        ops::accumulate_panel(qa.as_slice(), k, kb, kc, panel, out);
    }
    Ok(())
}

/// MX-quantised GEMM: both operands are quantised along the reduction
/// dimension at `precision`, then multiplied with FP32 accumulation.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()` and
/// [`TensorError::Quantization`] on non-finite inputs.
///
/// # Examples
///
/// ```
/// use dacapo_tensor::{Matrix, ops, quant};
/// use dacapo_mx::MxPrecision;
///
/// # fn main() -> Result<(), dacapo_tensor::TensorError> {
/// let a = Matrix::from_fn(8, 32, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.1)?;
/// let b = Matrix::from_fn(32, 4, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.2)?;
/// let exact = ops::matmul(&a, &b)?;
/// let quantised = quant::mx_matmul(&a, &b, MxPrecision::Mx9)?;
/// let err = ops::frobenius_norm(&ops::sub(&exact, &quantised)?);
/// assert!(err / ops::frobenius_norm(&exact) < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn mx_matmul(a: &Matrix, b: &Matrix, precision: MxPrecision) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "mx_matmul",
            left: a.shape(),
            right: b.shape(),
        });
    }
    let mut ws = Workspace::new();
    let mut out = a.clone();
    mx_matmul_into(a, b, precision, &mut out, &mut ws)?;
    Ok(out)
}

/// Relative Frobenius-norm error of the MX GEMM against the FP32 GEMM.
///
/// This is the quantity Section III-C of the paper reasons about when arguing
/// MX9 is adequate for retraining and MX6 for inference.
///
/// # Errors
///
/// Propagates shape and quantisation errors from the underlying GEMMs.
pub fn mx_matmul_relative_error(a: &Matrix, b: &Matrix, precision: MxPrecision) -> Result<f32> {
    let exact = ops::matmul(a, b)?;
    let approx = mx_matmul(a, b, precision)?;
    let diff = ops::sub(&exact, &approx)?;
    let denom = ops::frobenius_norm(&exact).max(1e-20);
    Ok(ops::frobenius_norm(&diff) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operands() -> (Matrix, Matrix) {
        let a = Matrix::from_fn(16, 48, |r, c| (((r * 131 + c * 29) % 37) as f32 - 18.0) * 0.11)
            .unwrap();
        let b = Matrix::from_fn(48, 12, |r, c| (((r * 61 + c * 17) % 41) as f32 - 20.0) * 0.07)
            .unwrap();
        (a, b)
    }

    #[test]
    fn quantize_rows_preserves_shape() {
        let (a, _) = operands();
        let q = quantize_rows(&a, MxPrecision::Mx6).unwrap();
        assert_eq!(q.shape(), a.shape());
    }

    #[test]
    fn quantize_cols_equals_transposed_row_quantisation() {
        let (a, _) = operands();
        let via_cols = quantize_cols(&a, MxPrecision::Mx6).unwrap();
        let via_rows =
            ops::transpose(&quantize_rows(&ops::transpose(&a), MxPrecision::Mx6).unwrap());
        assert_eq!(via_cols, via_rows);
    }

    #[test]
    fn mx9_gemm_is_close_to_fp32() {
        let (a, b) = operands();
        let err = mx_matmul_relative_error(&a, &b, MxPrecision::Mx9).unwrap();
        assert!(err < 0.03, "MX9 relative error {err}");
    }

    #[test]
    fn error_grows_as_precision_drops() {
        let (a, b) = operands();
        let e9 = mx_matmul_relative_error(&a, &b, MxPrecision::Mx9).unwrap();
        let e6 = mx_matmul_relative_error(&a, &b, MxPrecision::Mx6).unwrap();
        let e4 = mx_matmul_relative_error(&a, &b, MxPrecision::Mx4).unwrap();
        assert!(e9 <= e6, "MX9 {e9} vs MX6 {e6}");
        assert!(e6 <= e4, "MX6 {e6} vs MX4 {e4}");
        assert!(e4 < 1.0, "even MX4 should retain some signal, got {e4}");
    }

    #[test]
    fn mx_matmul_validates_shapes() {
        let (a, _) = operands();
        assert!(matches!(
            mx_matmul(&a, &a, MxPrecision::Mx6),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_input_surfaces_as_quantization_error() {
        let mut a = Matrix::zeros(2, 16).unwrap();
        a[(0, 3)] = f32::NAN;
        let b = Matrix::zeros(16, 2).unwrap();
        assert!(matches!(mx_matmul(&a, &b, MxPrecision::Mx6), Err(TensorError::Quantization(_))));
    }

    #[test]
    fn fused_mx_gemm_is_bit_identical_to_unfused_reference() {
        // Shapes straddling the K_BLOCK boundary and non-multiple-of-16 K.
        for (m, k, n) in [(3, 5, 4), (2, 64, 3), (4, 70, 5), (1, 130, 2)] {
            let a = Matrix::from_fn(m, k, |r, c| (((r * 37 + c * 13) % 23) as f32 - 11.0) * 0.13)
                .unwrap();
            let b = Matrix::from_fn(k, n, |r, c| (((r * 19 + c * 7) % 29) as f32 - 14.0) * 0.09)
                .unwrap();
            for precision in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
                let reference = ops::matmul_reference(
                    &quantize_rows(&a, precision).unwrap(),
                    &quantize_cols(&b, precision).unwrap(),
                )
                .unwrap();
                assert_eq!(mx_matmul(&a, &b, precision).unwrap(), reference);
                let qa = quantize_rows(&a, precision).unwrap();
                let mut ws = Workspace::new();
                let mut out = Matrix::zeros(1, 1).unwrap();
                mx_matmul_prequant_into(&qa, &b, precision, &mut out, &mut ws).unwrap();
                assert_eq!(out, reference);
            }
        }
    }

    #[test]
    fn non_finite_b_operand_reports_its_row_in_the_column() {
        // Row 70 lies in the second K_BLOCK segment; the index must still be
        // relative to the whole column, as quantize_cols reports it.
        let a = Matrix::from_fn(2, 130, |r, c| (r + c) as f32 * 0.01).unwrap();
        let mut b = Matrix::from_fn(130, 3, |r, c| (r * 3 + c) as f32 * 0.02).unwrap();
        b[(70, 1)] = f32::NAN;
        let expect_row_70 = |result: Result<()>| match result {
            Err(TensorError::Quantization(MxError::NonFiniteInput { index, value })) => {
                assert_eq!(index, 70);
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteInput at 70, got {other:?}"),
        };
        let (mut out, mut ws) = (Matrix::unit(), Workspace::new());
        for precision in MxPrecision::ALL {
            expect_row_70(mx_matmul_into(&a, &b, precision, &mut out, &mut ws));
            expect_row_70(mx_matmul_prequant_into(&a, &b, precision, &mut out, &mut ws));
            expect_row_70(quantize_cols(&b, precision).map(drop));
        }
    }

    #[test]
    fn quantised_identity_times_matrix_is_near_identity_map() {
        let a = Matrix::from_fn(8, 8, |r, c| ((r + 2 * c) % 5) as f32).unwrap();
        let approx = mx_matmul(&Matrix::identity(8), &a, MxPrecision::Mx9).unwrap();
        let diff = ops::sub(&a, &approx).unwrap();
        assert!(ops::frobenius_norm(&diff) / ops::frobenius_norm(&a) < 0.03);
    }
}
