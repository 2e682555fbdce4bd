//! The traced run: per-layer numbers from spans the benchmark records
//! around its own calls into the simulator, plus the layer ladder.
//!
//! On `fleet-mx` the benchmark drives each camera's `Session` itself, one
//! camera after another (cluster results per camera equal solo runs): a
//! camera span with a child span per `Session::new` and per
//! `Session::step_phase`, tagged with the phase kind. On `cluster-shared`
//! a [`SpanObserver`] records one span per executed step (from
//! the end of the previous observer callback to the step's
//! `on_step_context`) and one per window barrier; observed runs execute
//! serially, so the callbacks arrive in order on one thread. The executor
//! stages the first phase of every resident when a window opens, so on
//! that workload this work lands in the window's first step span.
//!
//! The traced run is serial on every workload, so its overhead and the
//! executor's self time are taken against serial untraced runs.

use crate::check::Tally;
use crate::exec::{self, Mode, OutDir};
use crate::ladder;
use crate::span::{Span, SpanLog, CLUSTER_TRACK};
use crate::stats::{median, percentile};
use crate::workload::{Inputs, PARALLEL_THREADS, THREADS};
use crate::Metric;
use dacapo_core::{
    AcceleratorSample, ClusterResult, LabelRoute, PhaseKind, PhaseRecord, Session, SessionEvent,
    SimObserver, SimResult, WindowSample,
};
use dacapo_dnn::{Mlp, MlpConfig, QuantMode};
use std::time::Instant;

/// Span names.
const STEP: &str = "session.step_phase";
const NEW: &str = "session.new";
const BARRIER: &str = "cluster.barrier";

/// The tag of a phase span.
fn phase_tag(kind: PhaseKind) -> &'static str {
    match kind {
        PhaseKind::Label => "label",
        PhaseKind::Retrain => "retrain",
        PhaseKind::Wait => "wait",
    }
}

/// The tag of a step whose burst carried no phase (the session finished).
const FINISH: &str = "finish";

/// Records step and barrier spans from the observer callbacks of a serial
/// cluster execution.
pub struct SpanObserver {
    log: SpanLog,
    root: usize,
    /// End of the most recent callback.
    mark_ns: u64,
    /// End of the most recent step burst (start of the next barrier).
    step_end_ns: u64,
    /// The open step span waiting for its phase tag.
    open_step: Option<usize>,
    /// The current window's barrier span, extended by its sample hooks.
    barrier: Option<usize>,
}

impl SpanObserver {
    /// Starts recording now, under a root span named `cluster.run_with`.
    pub fn new(epoch: Instant) -> Self {
        let mut log = SpanLog::new(epoch);
        let root = log.open("cluster.run_with", "", CLUSTER_TRACK, None);
        let now = log.spans()[root].start_ns;
        Self { log, root, mark_ns: now, step_end_ns: now, open_step: None, barrier: None }
    }

    /// Closes the root span and returns the log.
    pub fn finish(mut self) -> SpanLog {
        self.log.close(self.root);
        self.log
    }

    fn mark(&mut self) {
        self.mark_ns = self.log.now_ns();
    }

    fn end_step_burst(&mut self) {
        self.mark();
        self.step_end_ns = self.mark_ns;
    }

    fn extend_barrier(&mut self) {
        self.mark();
        if let Some(id) = self.barrier {
            self.log.set_end(id, self.mark_ns);
        }
    }
}

impl SimObserver for SpanObserver {
    fn on_step_context(&mut self, _camera: &str, camera_index: usize, _accelerator: usize) {
        let now = self.log.now_ns();
        let id = self.log.record(Span {
            name: STEP,
            tag: FINISH,
            track: camera_index,
            start_ns: self.mark_ns,
            end_ns: now,
            parent: Some(self.root),
        });
        self.open_step = Some(id);
        self.barrier = None;
        self.mark();
    }

    fn on_phase(&mut self, phase: &PhaseRecord) {
        if let Some(id) = self.open_step.take() {
            self.log.retag(id, phase_tag(phase.kind));
        }
        self.end_step_burst();
    }

    fn on_event(&mut self, _event: &SessionEvent) {
        self.end_step_burst();
    }

    fn on_drift(&mut self, _at_s: f64, _response_index: usize) {
        self.end_step_burst();
    }

    fn on_accuracy(&mut self, _at_s: f64, _accuracy: f64) {
        self.end_step_burst();
    }

    fn on_finished(&mut self) {
        self.open_step = None;
        self.end_step_burst();
    }

    fn on_uplink_transfer(&mut self, _camera: &str, _at_s: f64, _bytes: u64, _labels: usize) {
        self.mark();
    }

    fn on_window_barrier(&mut self, _window_index: usize, _boundary_s: f64) {
        let now = self.log.now_ns();
        let id = self.log.record(Span {
            name: BARRIER,
            tag: "",
            track: CLUSTER_TRACK,
            start_ns: self.step_end_ns,
            end_ns: now,
            parent: Some(self.root),
        });
        self.barrier = Some(id);
        self.mark();
    }

    fn on_window_sample(&mut self, _sample: &WindowSample<'_>) {
        self.extend_barrier();
    }

    fn on_accelerator_sample(&mut self, _sample: &AcceleratorSample) {
        self.extend_barrier();
    }

    fn on_share(&mut self, _exporter: &str, _importer: &str, _admitted: usize, _boundary_s: f64) {
        self.mark();
    }

    fn on_offload_route(&mut self, _c: &str, _r: LabelRoute, _w: usize, _b: f64) {
        self.mark();
    }

    fn on_churn_join(&mut self, _camera: &str, _accelerator: Option<usize>, _at_s: f64) {
        self.mark();
    }

    fn on_churn_leave(&mut self, _camera: &str, _at_s: f64) {
        self.mark();
    }

    fn on_churn_drain(&mut self, _accelerator: usize, _at_s: f64) {
        self.mark();
    }

    fn on_migration(&mut self, _camera: &str, _from: usize, _to: Option<usize>, _at_s: f64) {
        self.mark();
    }
}

/// Runs one camera as a solo session under `parent`, recording a span per
/// `Session::new` and per `Session::step_phase`.
fn drive_camera(
    config: &dacapo_core::SimConfig,
    track: usize,
    parent: usize,
    log: &mut SpanLog,
) -> Result<SimResult, String> {
    let id = log.open(NEW, "", track, Some(parent));
    let mut session = Session::new(config.clone()).map_err(|e| e.to_string())?;
    log.close(id);
    loop {
        let id = log.open(STEP, FINISH, track, Some(parent));
        let events = session.step_phase().map_err(|e| e.to_string())?;
        log.close(id);
        match events.last() {
            Some(SessionEvent::Phase(phase)) => log.retag(id, phase_tag(phase.kind)),
            _ => return Ok(session.into_result()),
        }
    }
}

/// Per-camera results in camera order, as solo runs produce them.
type CameraResults = Vec<(String, Result<SimResult, String>)>;

/// Drives every camera's session to completion, one after another, under
/// a `fleet.drive` root span with one `camera` span per camera. Returns the
/// spans, the wall and the per-camera results.
fn drive_fleet(inputs: &Inputs, epoch: Instant) -> (SpanLog, f64, CameraResults) {
    let mut log = SpanLog::new(epoch);
    let root = log.open("fleet.drive", "", CLUSTER_TRACK, None);
    let started = Instant::now();
    let mut results = Vec::with_capacity(inputs.cameras.len());
    for (index, (name, config)) in inputs.cameras.iter().enumerate() {
        let camera = log.open("camera", "", index, Some(root));
        results.push((name.clone(), drive_camera(config, index, camera, &mut log)));
        log.close(camera);
    }
    let wall_s = started.elapsed().as_secs_f64();
    log.close(root);
    (log, wall_s, results)
}

/// Snapshot round trip of the first camera half-way through its run:
/// `snapshot`, `to_json`, `from_json` and `restore`, timed together.
/// Returns the median microseconds, the JSON size in bytes, and whether the
/// restored session finished bit-identically to the original.
fn snapshot_roundtrip(config: &dacapo_core::SimConfig) -> Result<(f64, usize, bool), String> {
    const REPS: usize = 10;
    let mut session = Session::new(config.clone()).map_err(|e| e.to_string())?;
    while session.progress() < 0.5 {
        session.step_phase().map_err(|e| e.to_string())?;
    }
    let mut bytes = 0;
    let mut restored = None;
    let mut walls = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let started = Instant::now();
        let json = session.snapshot().to_json();
        let back = dacapo_core::SessionSnapshot::from_json(&json)
            .and_then(Session::restore)
            .map_err(|e| e.to_string())?;
        walls.push(started.elapsed().as_secs_f64());
        bytes = json.len();
        restored = Some(back);
    }
    let mut restored = restored.ok_or("no snapshot round trip ran")?;
    restored.run_to_end().map_err(|e| e.to_string())?;
    session.run_to_end().map_err(|e| e.to_string())?;
    Ok((median(&walls) * 1e6, bytes, restored.into_result() == session.into_result()))
}

/// The student's forward multiply-accumulates per sample.
fn student_macs_per_sample() -> u64 {
    Mlp::new(MlpConfig {
        input_dim: dacapo_datagen::StreamConfig::default().feature_dim,
        hidden: vec![64, 32],
        num_classes: dacapo_datagen::NUM_CLASSES,
        inference_mode: QuantMode::Fp32,
        training_mode: QuantMode::Fp32,
        seed: 0,
    })
    .expect("student config is valid")
    .flops_per_sample()
}

/// Work counted from a result's phase records: (student GMAC, frames drawn
/// from the stream). Training counts three forward passes' worth of MACs
/// per sample-epoch (forward plus backward), pretraining two epochs;
/// evaluation counts the frames of each accuracy measurement. Frames
/// drawn are pretraining samples, labeled samples, measurement frames and
/// frames the edge filter dropped.
fn counted_work(result: &ClusterResult, inputs: &Inputs) -> (f64, f64) {
    let mut trained = 0usize;
    let mut evaluated = 0usize;
    let mut frames = result.edge.frames_filtered as usize;
    for camera in &result.fleet.cameras {
        let config =
            inputs.all_cameras().find(|(name, _)| *name == camera.camera).map(|(_, config)| config);
        let (pretrain, per_measurement) =
            config.map_or((0, 0), |c| (c.pretrain_samples, c.eval_frames_per_measurement));
        let measured = camera.result.accuracy_timeline.len() * per_measurement;
        trained += 2 * pretrain;
        evaluated += measured;
        frames += pretrain + measured;
        for phase in &camera.result.phases {
            match phase.kind {
                PhaseKind::Retrain => trained += phase.samples,
                PhaseKind::Label => frames += phase.samples,
                PhaseKind::Wait => {}
            }
        }
    }
    let macs = student_macs_per_sample() * (3 * trained + evaluated) as u64;
    (macs as f64 / 1e9, frames as f64)
}

/// Percent by which `wall` exceeds `base`.
fn overhead_pct(wall: f64, base: f64) -> f64 {
    if base > 0.0 {
        (wall / base - 1.0) * 100.0
    } else {
        0.0
    }
}

/// The traced run: ladder, set-up spans, snapshot round trip, then rounds
/// of interleaved executions (untraced at [`THREADS`] and at
/// [`PARALLEL_THREADS`], null observer, full telemetry, traced) until
/// `seconds` have passed, at least [`MIN_ROUNDS`] times. Every execution is
/// checked against the first untraced one.
pub fn run(inputs: &Inputs, seconds: f64, out: &OutDir) -> Result<(Vec<Metric>, Tally), String> {
    const MIN_ROUNDS: usize = 2;
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let ladder = ladder::run(inputs.seed);
    let mut setup_log = SpanLog::new(epoch);
    exec::setup_pass(inputs, Some(&mut setup_log))?;
    let new_s = setup_log.total_s(NEW);
    let new_ms: Vec<f64> = setup_log.durations_us(NEW, "").iter().map(|us| us / 1e3).collect();
    let reference = exec::run_cluster(inputs, THREADS, Mode::Plain, out, None).result?;
    let (snapshot_us, snapshot_bytes, snapshot_ok) = snapshot_roundtrip(&inputs.cameras[0].1)?;
    tally.single(snapshot_ok);

    // The traced run is serial on every workload (observed cluster runs
    // always are), as the untraced run at [`THREADS`] is.
    let [mut parallel, mut serial, mut null, mut telemetry, mut traced_walls] =
        std::array::from_fn::<Vec<f64>, 5, _>(|_| Vec::new());
    let mut self_s = Vec::new();
    let mut session_s = Vec::new();
    let mut summary = None;
    let mut traced = SpanLog::new(epoch);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        for (mode, threads, walls) in [
            (Mode::Plain, THREADS, &mut serial),
            (Mode::Plain, PARALLEL_THREADS, &mut parallel),
            (Mode::NullObserver, THREADS, &mut null),
            (Mode::Telemetry, THREADS, &mut telemetry),
        ] {
            let execution = exec::run_cluster(inputs, threads, mode, out, None);
            tally.cluster(&execution.result, &reference);
            walls.push(execution.wall_s);
            if let (Mode::Telemetry, Some(got)) = (mode, execution.telemetry) {
                // Telemetry output is deterministic: every run must record
                // the same events as the first.
                tally.single(*summary.get_or_insert(got) == got);
            }
        }
        let (log, wall_s) = if inputs.workload.is_fleet() {
            let (log, wall_s, results) = drive_fleet(inputs, epoch);
            tally.cameras(&results, &reference);
            (log, wall_s)
        } else {
            let mut observer = SpanObserver::new(epoch);
            let execution =
                exec::run_cluster(inputs, THREADS, Mode::Plain, out, Some(&mut observer));
            tally.cluster(&execution.result, &reference);
            (observer.finish(), execution.wall_s)
        };
        traced_walls.push(wall_s);
        let in_sessions = log.total_s(STEP) + new_s;
        session_s.push(in_sessions);
        self_s.push(serial[serial.len() - 1] - in_sessions);
        traced.absorb(log, None);
    }
    traced.absorb(setup_log, None);
    std::fs::write(
        out.file(&format!("{}.spans.jsonl", inputs.workload.name())),
        traced.to_json_lines(),
    )
    .map_err(|e| format!("cannot write spans: {e}"))?;
    for (name, count, total_s, own_s) in traced.breakdown() {
        eprintln!("span {name:<32} n={count:<7} total {total_s:>9.4} s  self {own_s:>9.4} s");
    }

    let (gmac, frames) = counted_work(&reference, inputs);
    let per_round = |n: usize| (n / rounds) as f64;
    let summary = summary.ok_or("no telemetry run completed")?;
    let mut m = vec![
        Metric::new("tensor.gemm_fp32.gmac_per_s", ladder.gemm_fp32, "GMAC/s"),
        Metric::new("tensor.gemm_mx6.gmac_per_s", ladder.gemm_mx6, "GMAC/s"),
        Metric::new("tensor.gemm_mx9.gmac_per_s", ladder.gemm_mx9, "GMAC/s"),
        Metric::new("mx.quantize.melem_per_s", ladder.quantize_melem, "Melem/s"),
        Metric::new("dnn.train_fp32.samples_per_s", ladder.train_fp32, "samples/s"),
        Metric::new("dnn.train_mx.samples_per_s", ladder.train_mx, "samples/s"),
        Metric::new("dnn.eval_fp32.frames_per_s", ladder.eval_fp32, "frames/s"),
        Metric::new("dnn.eval_mx.frames_per_s", ladder.eval_mx, "frames/s"),
        Metric::new("dnn.gmac_total", gmac, "GMAC"),
        Metric::new("dnn.gmac_per_host_s", gmac / median(&session_s), "GMAC/s"),
        Metric::new("datagen.frames_per_s", ladder.datagen_fps, "frames/s"),
        Metric::new("datagen.frames_generated", frames, "count"),
        Metric::new("accel.estimate_us", ladder.estimate_us, "us"),
        Metric::new("session.new_ms", median(&new_ms), "ms"),
    ];
    for kind in [PhaseKind::Label, PhaseKind::Retrain, PhaseKind::Wait] {
        let tag = phase_tag(kind);
        let us = traced.durations_us(STEP, tag);
        let name = format!("session.phase_{tag}_us");
        m.push(Metric::new(format!("{name}.p50"), percentile(&us, 50.0), "us"));
        m.push(Metric::new(format!("{name}.p99"), percentile(&us, 99.0), "us"));
        m.push(Metric::new(format!("{name}.count"), per_round(us.len()), "count"));
    }
    let barrier_us = traced.durations_us(BARRIER, "");
    let share = &reference.share;
    let edge = &reference.edge;
    let reuse_ratio = if share.labels_exported > 0 {
        share.labels_reused as f64 / share.labels_exported as f64
    } else {
        0.0
    };
    m.extend([
        Metric::new("session.snapshot_roundtrip_us", snapshot_us, "us"),
        Metric::new("session.snapshot_bytes", snapshot_bytes as f64, "bytes"),
        Metric::new("cluster.self_s", median(&self_s), "s"),
        Metric::new("cluster.thread_speedup", median(&serial) / median(&parallel), "x"),
        Metric::new("cluster.barrier_us.p50", percentile(&barrier_us, 50.0), "us"),
        Metric::new("cluster.barrier_us.p99", percentile(&barrier_us, 99.0), "us"),
        Metric::new("cluster.steps", reference.contention.steps_executed as f64, "count"),
        Metric::new("cluster.windows", per_round(barrier_us.len()), "count"),
        Metric::new("cluster.migrations", reference.churn.migrations as f64, "count"),
        Metric::new("share.labels_reused", share.labels_reused as f64, "count"),
        Metric::new("share.import_rejects", share.import_rejects as f64, "count"),
        Metric::new("share.reuse_ratio", reuse_ratio, "ratio"),
        Metric::new("edge.frames_filtered", edge.frames_filtered as f64, "count"),
        Metric::new("edge.labels_cloud", edge.labels_cloud as f64, "count"),
        Metric::new("edge.labels_local", edge.labels_local as f64, "count"),
        Metric::new("edge.bytes_shipped", edge.bytes_shipped as f64, "bytes"),
        Metric::new(
            "telemetry.overhead_pct",
            overhead_pct(median(&telemetry), median(&serial)),
            "%",
        ),
        Metric::new(
            "telemetry.null_overhead_pct",
            overhead_pct(median(&null), median(&serial)),
            "%",
        ),
        Metric::new("telemetry.trace_events", summary.trace_events as f64, "count"),
        Metric::new("telemetry.metrics_records", summary.metrics_records as f64, "count"),
        Metric::new(
            "trace.overhead_pct",
            overhead_pct(median(&traced_walls), median(&serial)),
            "%",
        ),
    ]);
    eprintln!(
        "trace: {rounds} rounds; walls (median s) serial {:.4} parallel {:.4} null {:.4} \
         telemetry {:.4} traced {:.4}",
        median(&serial),
        median(&parallel),
        median(&null),
        median(&telemetry),
        median(&traced_walls)
    );
    Ok((m, tally))
}
