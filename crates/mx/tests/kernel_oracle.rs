//! Bit-exactness of the fused integer kernels (`MxVector::quantize_into`
//! and `quantize_columns_into`) against the `MxBlock` encode → decode
//! oracle, compared with `to_bits` so signed zeros count.

use dacapo_mx::{
    quantize_columns_into, MxBlock, MxError, MxPrecision, MxVector, RoundingMode, BLOCK_SIZE,
};
use proptest::prelude::*;

/// The reference: `MxBlock` encode → decode per 16-element chunk.
fn oracle(values: &[f32], precision: MxPrecision) -> Result<Vec<f32>, MxError> {
    let mut out = Vec::with_capacity(values.len());
    for (block, chunk) in values.chunks(BLOCK_SIZE).enumerate() {
        let decoded =
            MxBlock::encode(chunk, precision, RoundingMode::Nearest).map_err(|e| match e {
                MxError::NonFiniteInput { index, value } => {
                    MxError::NonFiniteInput { index: block * BLOCK_SIZE + index, value }
                }
                other => other,
            })?;
        out.extend_from_slice(&decoded.decode_valid());
    }
    Ok(out)
}

/// The reference for a row-major `rows × cols` matrix blocked down its
/// columns: each column through [`oracle`], first failing column first.
fn oracle_columns(
    values: &[f32],
    cols: usize,
    precision: MxPrecision,
) -> Result<Vec<f32>, MxError> {
    let rows = values.len() / cols;
    let mut out = vec![0.0f32; values.len()];
    for c in 0..cols {
        let column: Vec<f32> = (0..rows).map(|r| values[r * cols + c]).collect();
        for (r, q) in oracle(&column, precision)?.into_iter().enumerate() {
            out[r * cols + c] = q;
        }
    }
    Ok(out)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Error equality with the offending value compared bitwise (NaN ≠ NaN).
fn same_error(a: &MxError, b: &MxError) -> bool {
    match (a, b) {
        (
            MxError::NonFiniteInput { index: i, value: v },
            MxError::NonFiniteInput { index: j, value: w },
        ) => i == j && v.to_bits() == w.to_bits(),
        _ => a == b,
    }
}

fn check_row(values: &[f32], precision: MxPrecision, case: &str) {
    let mut out = vec![f32::NAN; values.len()];
    let got = MxVector::quantize_into(values, precision, &mut out);
    match oracle(values, precision) {
        Ok(expected) => {
            assert_eq!(got, Ok(()), "{case} at {precision}");
            assert_eq!(bits(&out), bits(&expected), "{case} at {precision}: {values:?}");
        }
        Err(e) => {
            let got = got.expect_err(case);
            assert!(same_error(&got, &e), "{case} at {precision}: {got:?} vs {e:?}");
        }
    }
}

fn check_columns(values: &[f32], cols: usize, precision: MxPrecision, case: &str) {
    let mut out = vec![f32::NAN; values.len()];
    let got = quantize_columns_into(values, cols, precision, &mut out);
    match oracle_columns(values, cols, precision) {
        Ok(expected) => {
            assert_eq!(got, Ok(()), "{case} at {precision}");
            assert_eq!(bits(&out), bits(&expected), "{case} at {precision}");
        }
        Err(e) => {
            let got = got.expect_err(case);
            assert!(same_error(&got, &e), "{case} at {precision}: {got:?} vs {e:?}");
        }
    }
}

/// Named edge cases: each is checked as a row, and as a column of a
/// matrix whose other columns are its negation and its reversal.
fn edge_cases(precision: MxPrecision) -> Vec<(&'static str, Vec<f32>)> {
    let mb = precision.mantissa_bits() as i32;
    let tiny = f32::MIN_POSITIVE;
    let sub = f32::from_bits(1);
    let big_sub = f32::from_bits(0x007F_FFFF);
    let mut cases = vec![
        // 1 + 2^-mb sits exactly halfway between two codes at eff = 127.
        (
            "tie at the shared exponent",
            vec![1.0 + 2f32.powi(-mb), 1.0, 0.5, -(1.0 + 2f32.powi(-mb))],
        ),
        // The same tie in a microexponent subgroup: eff = 126.
        ("tie under a microexponent", {
            let mut v = vec![0.0f32; BLOCK_SIZE];
            v[0] = 3.0;
            v[2] = 0.5 + 2f32.powi(-mb - 1);
            v[3] = -(0.5 + 3.0 * 2f32.powi(-mb - 1));
            v
        }),
        // Just below 2: rounds up to 2^mb, clamped to 2^mb - 1 at shift 0.
        ("max_code clamp at shift 0", vec![2.0 - f32::EPSILON, -1.999, 1.0, 1.99]),
        ("subnormal flush", vec![1.0, sub, big_sub, -sub, 0.25, -big_sub, 3.0, 1e-3]),
        ("all-zero block", vec![0.0; BLOCK_SIZE]),
        ("all-zero block with negative zeros", {
            let mut v = vec![0.0f32; BLOCK_SIZE];
            v[1] = -0.0;
            v[4] = -sub;
            v[9] = sub;
            v
        }),
        (
            "negative zero and subnormals in a mixed block",
            vec![-0.0, 1.0, -sub, -big_sub, 0.0, -2.0, -1e-30, 5.0],
        ),
        ("exponent spread above 62", vec![1e30, 1e-30, -1e12, 3e-20, 1.0, -1e-25, 7e29, 2e10]),
        ("exponent spread from field 254 to field 1", vec![f32::MAX, tiny, -tiny * 1.5, 1.0]),
        ("exponent field 254", vec![f32::MAX, -f32::MAX, f32::MAX / 1.5, 2f32.powi(127), -3e38]),
        ("exponent field 1", vec![tiny, -tiny * 1.75, tiny * 1.5, tiny * 1.999, 0.0, -tiny]),
        ("exponent fields 1 and 2", vec![tiny, tiny * 2.5, -tiny * 3.9, tiny * 1.1]),
        // 17 values: the second block holds one element in an odd subgroup.
        ("lone element in an odd tail subgroup", {
            let mut v: Vec<f32> = (0..17).map(|i| (i as f32 - 8.0) * 0.37).collect();
            v[16] = -0.011;
            v
        }),
        (
            "length not a block multiple",
            (0..37).map(|i| ((i * 7 % 13) as f32 - 6.0) * 1.3).collect(),
        ),
        ("single value", vec![-0.3]),
    ];
    // Ramps of every mantissa pattern the rounding can see near a code edge.
    cases.push((
        "significand ramp",
        (0..64).map(|i| f32::from_bits(0x3F80_0000 + i * 0x0002_0001)).collect(),
    ));
    cases
}

#[test]
fn row_kernel_matches_oracle_on_edge_cases() {
    for precision in MxPrecision::ALL {
        for (case, values) in edge_cases(precision) {
            check_row(&values, precision, case);
        }
    }
}

#[test]
fn column_kernel_matches_oracle_on_edge_cases() {
    for precision in MxPrecision::ALL {
        for (case, column) in edge_cases(precision) {
            let rows = column.len();
            let mut reversed = column.clone();
            reversed.reverse();
            let negated: Vec<f32> = column.iter().map(|v| -v).collect();
            let mut matrix = Vec::with_capacity(rows * 3);
            for r in 0..rows {
                matrix.extend_from_slice(&[column[r], negated[r], reversed[r]]);
            }
            check_columns(&matrix, 3, precision, case);
            check_columns(&column, 1, precision, case);
        }
    }
}

#[test]
fn column_kernel_rejects_bad_lengths() {
    let mut out = [0.0f32; 3];
    assert_eq!(quantize_columns_into(&[], 1, MxPrecision::Mx6, &mut []), Err(MxError::EmptyInput));
    assert!(matches!(
        quantize_columns_into(&[1.0; 4], 3, MxPrecision::Mx6, &mut out),
        Err(MxError::LengthMismatch { .. })
    ));
    assert!(matches!(
        quantize_columns_into(&[1.0; 4], 0, MxPrecision::Mx6, &mut out),
        Err(MxError::LengthMismatch { .. })
    ));
    assert!(matches!(
        quantize_columns_into(&[1.0; 4], 2, MxPrecision::Mx6, &mut out),
        Err(MxError::LengthMismatch { left: 4, right: 3 })
    ));
}

#[test]
fn non_finite_errors_match_the_oracle() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::from_bits(0xFFC0_0001)] {
        for (len, at) in [(1usize, 0usize), (16, 15), (40, 37), (33, 32)] {
            let mut values: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 3.0).collect();
            values[at] = bad;
            for precision in MxPrecision::ALL {
                check_row(&values, precision, "non-finite row");
            }
        }
        // Two non-finite values: the first in column-major order wins, even
        // though the other one sits in an earlier row and MX block.
        let (rows, cols) = (40, 5);
        let mut matrix: Vec<f32> = (0..rows * cols).map(|i| (i % 11) as f32 - 5.0).collect();
        matrix[33 * cols + 1] = bad;
        matrix[2 * cols + 3] = -bad;
        for precision in MxPrecision::ALL {
            check_columns(&matrix, cols, precision, "non-finite columns");
        }
        let mut out = vec![0.0f32; rows * cols];
        match quantize_columns_into(&matrix, cols, MxPrecision::Mx9, &mut out) {
            Err(MxError::NonFiniteInput { index, .. }) => assert_eq!(index, 33),
            other => panic!("expected NonFiniteInput, got {other:?}"),
        }
    }
}

/// SplitMix64, for drawing test data from a sampled seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A finite `f32` bit pattern. Half the draws keep the exponent within 3 of
/// `base`, so microexponents, ties, and the clamp all occur; the rest span
/// every finite exponent field, zeros and subnormals included.
fn finite_bits(state: &mut u64, base: u32) -> f32 {
    let raw = splitmix(state);
    let sign = (raw as u32) & 0x8000_0000;
    let frac = (raw as u32) & 0x007F_FFFF;
    let exp = match (raw >> 32) % 8 {
        0..=3 => (base + ((raw >> 40) % 4) as u32).min(254),
        4 => 0,
        5 if frac & 1 == 0 => return f32::from_bits(sign),
        _ => ((raw >> 40) % 255) as u32,
    };
    // Few mantissa bits set, so round-half ties show up often.
    let frac = if (raw >> 48).is_multiple_of(4) { frac & 0x007C_0000 } else { frac };
    f32::from_bits(sign | (exp << 23) | frac)
}

fn draw(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed;
    let base = (splitmix(&mut state) % 254) as u32 + 1;
    (0..len).map(|_| finite_bits(&mut state, base)).collect()
}

fn any_precision() -> impl Strategy<Value = MxPrecision> {
    prop_oneof![Just(MxPrecision::Mx4), Just(MxPrecision::Mx6), Just(MxPrecision::Mx9)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The row kernel is the oracle, bit for bit, on random bit patterns.
    #[test]
    fn row_kernel_is_bit_identical_to_the_oracle(
        seed in any::<u64>(),
        len in 1usize..100,
        precision in any_precision(),
    ) {
        check_row(&draw(seed, len), precision, "random row");
    }

    /// The column-block kernel is the oracle, bit for bit, on random bit
    /// patterns, for odd row counts and column counts straddling its tile.
    #[test]
    fn column_kernel_is_bit_identical_to_the_oracle(
        seed in any::<u64>(),
        rows in 1usize..40,
        cols in 1usize..140,
        precision in any_precision(),
    ) {
        check_columns(&draw(seed, rows * cols), cols, precision, "random columns");
    }
}
