//! Criterion micro-benchmarks of the performance-critical building blocks:
//! MX encoding, fake quantisation and dot products, MX-quantised GEMM
//! (including the student's shapes with a reused workspace), accelerator cycle
//! estimation, and a short end-to-end continuous-learning step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dacapo_accel::estimator::{estimate, PrecisionPlan};
use dacapo_accel::{AccelConfig, DaCapoAccelerator};
use dacapo_core::{ClSimulator, PlatformKind, SchedulerKind, SimConfig};
use dacapo_datagen::{
    FrameStream, Scenario, Segment, SegmentAttributes, StreamConfig, NUM_CLASSES,
};
use dacapo_dnn::zoo::{ModelPair, PaperModel};
use dacapo_mx::{MxPrecision, MxVector};
use dacapo_tensor::{init, ops, quant, Matrix, Workspace};

fn bench_mx_encoding(c: &mut Criterion) {
    let data: Vec<f32> = (0..4096).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.03).collect();
    let mut group = c.benchmark_group("mx_encode_4096");
    for precision in MxPrecision::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(precision), &precision, |b, &p| {
            b.iter(|| MxVector::encode(&data, p).unwrap());
        });
    }
    group.finish();

    // The allocation-free fake-quantisation kernel the hot GEMMs call.
    let mut out = vec![0.0f32; data.len()];
    let mut group = c.benchmark_group("mx_quantize_into_4096");
    for precision in MxPrecision::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(precision), &precision, |b, &p| {
            b.iter(|| MxVector::quantize_into(&data, p, &mut out).unwrap());
        });
    }
    group.finish();

    let a = MxVector::encode(&data, MxPrecision::Mx9).unwrap();
    c.bench_function("mx_dot_4096_mx9", |b| b.iter(|| a.dot(&a).unwrap()));
}

fn bench_quantised_gemm(c: &mut Criterion) {
    let a = init::uniform(64, 256, -1.0, 1.0, 1).unwrap();
    let w = init::uniform(256, 64, -1.0, 1.0, 2).unwrap();
    c.bench_function("gemm_fp32_64x256x64", |b| b.iter(|| ops::matmul(&a, &w).unwrap()));
    c.bench_function("gemm_mx6_64x256x64", |b| {
        b.iter(|| quant::mx_matmul(&a, &w, MxPrecision::Mx6).unwrap())
    });

    // One student forward pass (16 → 64 → 32 → 10, `dacapo_core`'s student
    // on the stream's 16 features) at a retraining batch of 16, through the
    // allocation-free entry points with one reused workspace; the fp32 rung
    // is the yardstick for the MX ones.
    let dims = [16, 64, 32, NUM_CLASSES];
    let weights: Vec<Matrix> = dims
        .windows(2)
        .enumerate()
        .map(|(l, w)| init::uniform(w[0], w[1], -1.0, 1.0, 10 + l as u64).unwrap())
        .collect();
    let x = init::uniform(16, dims[0], -1.0, 1.0, 3).unwrap();
    let mut ws = Workspace::new();
    let mut acts = [Matrix::zeros(1, 1).unwrap(), Matrix::zeros(1, 1).unwrap()];
    for precision in [None, Some(MxPrecision::Mx6), Some(MxPrecision::Mx9)] {
        let name = precision.map_or("fp32".to_string(), |p| p.to_string().to_lowercase());
        c.bench_function(&format!("gemm_{name}_student_b16"), |b| {
            b.iter(|| {
                let [even, odd] = &mut acts;
                let mut layer = |a: &Matrix, w: &Matrix, out: &mut Matrix| match precision {
                    Some(p) => quant::mx_matmul_into(a, w, p, out, &mut ws).unwrap(),
                    None => ops::matmul_into(a, w, out, &mut ws).unwrap(),
                };
                layer(&x, &weights[0], even);
                layer(even, &weights[1], odd);
                layer(odd, &weights[2], even);
            })
        });
    }
}

fn bench_accelerator_model(c: &mut Criterion) {
    let accel = DaCapoAccelerator::new(AccelConfig::default()).unwrap();
    let partition = accel.partition(12).unwrap();
    let gemms = PaperModel::ResNet18.spec().forward_gemms(1);
    c.bench_function("accel_cycles_resnet18_forward", |b| {
        b.iter(|| partition.bsa().gemms_cycles(&gemms, MxPrecision::Mx6))
    });
    let plan = PrecisionPlan::default();
    c.bench_function("accel_estimate_full_pair", |b| {
        b.iter(|| estimate(&accel, ModelPair::ResNet18Wrn50, 12, 16, &plan).unwrap())
    });
}

fn bench_stream_and_sim(c: &mut Criterion) {
    let stream = FrameStream::new(&Scenario::s1(), StreamConfig::default());
    c.bench_function("stream_frame_generation", |b| {
        let mut index = 0u64;
        b.iter(|| {
            index = (index + 7) % stream.num_frames();
            stream.frame_at(index)
        })
    });

    // A 30-second, two-segment scenario keeps the end-to-end benchmark short.
    let scenario = Scenario::from_segments(
        "bench",
        vec![
            Segment { attributes: SegmentAttributes::default(), duration_s: 15.0 },
            Segment {
                attributes: SegmentAttributes {
                    labels: dacapo_datagen::LabelDistribution::All,
                    ..SegmentAttributes::default()
                },
                duration_s: 15.0,
            },
        ],
    );
    c.bench_function("end_to_end_30s_dacapo_spatiotemporal", |b| {
        b.iter(|| {
            let config = SimConfig::builder(scenario.clone(), ModelPair::ResNet18Wrn50)
                .platform(PlatformKind::DaCapo)
                .scheduler(SchedulerKind::DaCapoSpatiotemporal)
                .measurement(5.0, 10)
                .pretrain_samples(64)
                .build()
                .unwrap();
            ClSimulator::new(config).unwrap().run().unwrap()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mx_encoding, bench_quantised_gemm, bench_accelerator_model, bench_stream_and_sim
);
criterion_main!(benches);
