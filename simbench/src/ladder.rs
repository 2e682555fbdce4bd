//! The layer ladder: fixed amounts of work in each library layer at the
//! student's real shapes, each timed around the public call it makes.
//!
//! Every rung repeats a fixed-size sample [`SAMPLES`] times and reports the
//! median rate, so the work counted is the same on every run and the rate
//! is robust to a single slow sample.

use crate::stats::median;
use dacapo_accel::estimator::{estimate, spatial_allocation, PrecisionPlan};
use dacapo_accel::{AccelConfig, DaCapoAccelerator};
use dacapo_datagen::{CenterCache, Frame, FrameStream, Scenario, StreamConfig, NUM_CLASSES};
use dacapo_dnn::zoo::ModelPair;
use dacapo_dnn::{Mlp, MlpConfig, QuantMode, TrainScratch};
use dacapo_mx::{MxPrecision, MxVector};
use dacapo_tensor::{ops, quant, Matrix, Workspace};
use std::hint::black_box;
use std::time::Instant;

/// Timed samples per rung.
const SAMPLES: usize = 5;
/// Student input width (the stream's feature dimension).
const INPUT_DIM: usize = 16;
/// Student hidden layers.
const HIDDEN: [usize; 2] = [64, 32];
/// Batch sizes the student's GEMMs run at: retraining batches and the
/// evaluation frames of one accuracy measurement.
const BATCHES: [usize; 2] = [16, 40];

/// The ladder's rates.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// fp32 GEMM, GMAC/s.
    pub gemm_fp32: f64,
    /// MX6 GEMM, GMAC/s.
    pub gemm_mx6: f64,
    /// MX9 GEMM, GMAC/s.
    pub gemm_mx9: f64,
    /// MX quantisation, millions of elements per second.
    pub quantize_melem: f64,
    /// fp32 training, samples per second.
    pub train_fp32: f64,
    /// MX training (MX9), samples per second.
    pub train_mx: f64,
    /// fp32 evaluation, frames per second.
    pub eval_fp32: f64,
    /// MX evaluation (MX6), frames per second.
    pub eval_mx: f64,
    /// Frame generation, frames per second.
    pub datagen_fps: f64,
    /// One DaCapo platform estimate (spatial allocation plus kernel
    /// estimate), microseconds.
    pub estimate_us: f64,
}

/// Runs `work` [`SAMPLES`] times; returns the median seconds per sample.
fn median_s(mut work: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            work();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// A deterministic matrix with entries in `[-1, 1)`.
fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data length")
}

/// The student's forward GEMMs at every batch size: `(activations,
/// weights)` pairs and their multiply-accumulate count.
fn student_gemms(seed: u64) -> (Vec<(Matrix, Matrix)>, u64) {
    let dims: Vec<usize> =
        std::iter::once(INPUT_DIM).chain(HIDDEN).chain(std::iter::once(NUM_CLASSES)).collect();
    let mut pairs = Vec::new();
    let mut macs = 0u64;
    for (b, &batch) in BATCHES.iter().enumerate() {
        for (l, w) in dims.windows(2).enumerate() {
            let s = seed.wrapping_add((b * 8 + l) as u64 * 2);
            pairs.push((matrix(batch, w[0], s), matrix(w[0], w[1], s + 1)));
            macs += (batch * w[0] * w[1]) as u64;
        }
    }
    (pairs, macs)
}

/// GEMM rate in GMAC/s for `reps` passes over the student's GEMMs.
fn gemm_rate(
    pairs: &[(Matrix, Matrix)],
    macs: u64,
    reps: usize,
    precision: Option<MxPrecision>,
) -> f64 {
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(1, 1).expect("non-empty shape");
    let s = median_s(|| {
        for _ in 0..reps {
            for (a, b) in pairs {
                match precision {
                    None => ops::matmul_into(black_box(a), black_box(b), &mut out, &mut ws),
                    Some(p) => {
                        quant::mx_matmul_into(black_box(a), black_box(b), p, &mut out, &mut ws)
                    }
                }
                .expect("ladder GEMM shapes agree");
                black_box(&out);
            }
        }
    });
    (macs * reps as u64) as f64 / s / 1e9
}

/// Labeled rows from a real stream: features and true classes.
fn stream_rows(frames: &[Frame]) -> (Vec<&[f32]>, Vec<usize>) {
    frames.iter().map(|f| (f.sample.features.as_slice(), f.sample.true_class)).unzip()
}

/// A student network in the given arithmetic modes.
fn student(inference: QuantMode, training: QuantMode, seed: u64) -> Mlp {
    Mlp::new(MlpConfig {
        input_dim: INPUT_DIM,
        hidden: HIDDEN.to_vec(),
        num_classes: NUM_CLASSES,
        inference_mode: inference,
        training_mode: training,
        seed,
    })
    .expect("student config is valid")
}

/// Training (samples/s) and evaluation (frames/s) rates of one student.
fn dnn_rates(mut net: Mlp, frames: &[Frame], train_reps: usize, eval_reps: usize) -> (f64, f64) {
    let mut scratch = TrainScratch::new();
    let (rows, labels) = stream_rows(&frames[..64]);
    let mut samples = 0usize;
    let train_s = median_s(|| {
        samples = 0;
        for _ in 0..train_reps {
            let report = net
                .train_rows_with(&rows, &labels, 3, 16, 0.01, &mut scratch)
                .expect("ladder training rows are well formed");
            samples += report.samples_processed;
        }
    });
    let (eval_rows, eval_labels) = stream_rows(&frames[..40]);
    let eval_s = median_s(|| {
        for _ in 0..eval_reps {
            black_box(
                net.evaluate_rows_with(&eval_rows, &eval_labels, &mut scratch)
                    .expect("ladder evaluation rows are well formed"),
            );
        }
    });
    (samples as f64 / train_s, (40 * eval_reps) as f64 / eval_s)
}

/// Runs every rung. `seed` varies the operands, not the amount of work.
pub fn run(seed: u64) -> Ladder {
    let (pairs, macs) = student_gemms(seed);
    let gemm_fp32 = gemm_rate(&pairs, macs, 400, None);
    let gemm_mx6 = gemm_rate(&pairs, macs, 40, Some(MxPrecision::Mx6));
    let gemm_mx9 = gemm_rate(&pairs, macs, 40, Some(MxPrecision::Mx9));

    // Quantise the weight matrices of every layer, as the MX GEMMs do.
    let weights: Vec<Vec<f32>> = pairs.iter().map(|(_, w)| w.as_slice().to_vec()).collect();
    let elements: usize = weights.iter().map(Vec::len).sum();
    let mut qout = vec![0.0f32; weights.iter().map(Vec::len).max().unwrap_or(0)];
    let quant_reps = 40;
    let quant_s = median_s(|| {
        for _ in 0..quant_reps {
            for w in &weights {
                MxVector::quantize_into(black_box(w), MxPrecision::Mx9, &mut qout[..w.len()])
                    .expect("finite weights quantise");
            }
        }
    });
    let quantize_melem = (elements * quant_reps) as f64 / quant_s / 1e6;

    // Frame generation across the whole scenario, so every context's class
    // centres are computed, as a session's labeling and evaluation do.
    let scenario = Scenario::s1();
    let stream = FrameStream::new(&scenario, StreamConfig { seed, ..StreamConfig::default() });
    let mut generated = 0usize;
    let mut frames = Vec::new();
    let datagen_s = median_s(|| {
        let mut cache = CenterCache::new();
        generated = 0;
        for window in 0..20 {
            let start = f64::from(window) * 60.0;
            let batch = stream.frames_between_cached(start, start + 5.0, 1, &mut cache);
            generated += batch.len();
            frames = batch;
        }
    });
    let datagen_fps = generated as f64 / datagen_s;

    let fp32 = student(QuantMode::Fp32, QuantMode::Fp32, seed);
    let (train_fp32, eval_fp32) = dnn_rates(fp32, &frames, 20, 200);
    let mx = student(QuantMode::Mx(MxPrecision::Mx6), QuantMode::Mx(MxPrecision::Mx9), seed);
    let (train_mx, eval_mx) = dnn_rates(mx, &frames, 2, 20);

    let accel_config = AccelConfig::default();
    let plan = PrecisionPlan::default();
    let estimate_reps = 20;
    let estimate_s = median_s(|| {
        for _ in 0..estimate_reps {
            let accelerator = DaCapoAccelerator::new(accel_config).expect("default accelerator");
            let tsa_rows = spatial_allocation(&accelerator, ModelPair::ResNet18Wrn50, 30.0, &plan)
                .expect("default accelerator sustains 30 FPS");
            black_box(
                estimate(&accelerator, ModelPair::ResNet18Wrn50, tsa_rows, 16, &plan)
                    .expect("estimate of a feasible partition"),
            );
        }
    });

    Ladder {
        gemm_fp32,
        gemm_mx6,
        gemm_mx9,
        quantize_melem,
        train_fp32,
        train_mx,
        eval_fp32,
        eval_mx,
        datagen_fps,
        estimate_us: estimate_s / estimate_reps as f64 * 1e6,
    }
}
