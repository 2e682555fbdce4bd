//! The timed calls into the simulator: cluster executions in each observer
//! mode, solo session runs, and the set-up pass.

use crate::span::SpanLog;
use crate::workload::Inputs;
use dacapo_core::{ClusterResult, Session, SimObserver, SimResult};
use dacapo_telemetry::{TeeObserver, TelemetryRecorder, TelemetrySummary};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where the benchmark writes its files: `.simbench_out` under the
/// directory it was started from, resolved at run time.
#[derive(Debug, Clone)]
pub struct OutDir {
    dir: PathBuf,
}

impl OutDir {
    /// Directory name, relative to the working directory.
    const NAME: &'static str = ".simbench_out";

    /// Creates the output directory under the working directory.
    pub fn create() -> std::io::Result<Self> {
        let dir = Path::new(Self::NAME).to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// Path of the output file `name` (relative to the working directory).
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// How a cluster execution is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Cluster::run`: no observer.
    Plain,
    /// `Cluster::run_with` a recorder whose only sink is the reserved `null`.
    NullObserver,
    /// `Cluster::run_with` a recorder writing `chrome-trace` and
    /// `json-lines` sinks, flushed by `finish` inside the timed region.
    Telemetry,
}

/// One timed cluster execution.
pub struct Execution {
    /// Host seconds of the call (plus the recorder's flush, if any).
    pub wall_s: f64,
    /// The result, or the error as text.
    pub result: Result<ClusterResult, String>,
    /// The recorder's summary in [`Mode::Telemetry`].
    pub telemetry: Option<TelemetrySummary>,
}

/// A telemetry recorder writing its sinks under `out`, named by `stem`.
fn recorder(out: &OutDir, stem: &str) -> dacapo_telemetry::Result<TelemetryRecorder> {
    let trace = out.file(&format!("{stem}.trace.json"));
    let metrics = out.file(&format!("{stem}.metrics.jsonl"));
    TelemetryRecorder::new()
        .with_sink_spec(&format!("chrome-trace:{}", trace.display()))?
        .with_sink_spec(&format!("json-lines:{}", metrics.display()))
}

/// Runs the workload's cluster once in `mode` at `threads` threads,
/// optionally teeing `extra` (the span observer) behind the recorder. The
/// cluster and the recorder are built before the clock starts.
pub fn run_cluster(
    inputs: &Inputs,
    threads: usize,
    mode: Mode,
    out: &OutDir,
    extra: Option<&mut dyn SimObserver>,
) -> Execution {
    let failed = |e: String| Execution { wall_s: 0.0, result: Err(e), telemetry: None };
    let cluster = inputs.cluster(threads);
    let recorder = match mode {
        Mode::Plain => None,
        Mode::NullObserver => Some(TelemetryRecorder::new().with_sink_spec("null")),
        Mode::Telemetry => Some(recorder(out, inputs.workload.name())),
    };
    let mut recorder = match recorder.transpose() {
        Ok(recorder) => recorder,
        Err(e) => return failed(e.to_string()),
    };
    let started = Instant::now();
    let result = match (recorder.as_mut(), extra) {
        (None, None) => cluster.run(),
        (None, Some(extra)) => cluster.run_with(extra),
        (Some(rec), None) => cluster.run_with(rec),
        (Some(rec), Some(extra)) => cluster.run_with(&mut TeeObserver::new(rec, extra)),
    };
    let telemetry = recorder.map(TelemetryRecorder::finish).transpose();
    let wall_s = started.elapsed().as_secs_f64();
    match (result, telemetry) {
        (Ok(result), Ok(telemetry)) => Execution { wall_s, result: Ok(result), telemetry },
        (Err(e), _) => Execution { wall_s, ..failed(e.to_string()) },
        (_, Err(e)) => Execution { wall_s, ..failed(e.to_string()) },
    }
}

/// Runs every initial camera as a solo session, one after another.
pub fn solo_runs(inputs: &Inputs) -> Vec<(String, Result<SimResult, String>)> {
    inputs
        .cameras
        .iter()
        .map(|(name, config)| {
            let result = Session::new(config.clone()).and_then(|mut session| {
                session.run_to_end()?;
                Ok(session.into_result())
            });
            (name.clone(), result.map_err(|e| e.to_string()))
        })
        .collect()
}

/// The set-up pass: builds every camera's configuration and one `Session`
/// per camera, returning its host seconds. With a log, each `Session::new`
/// is recorded as a `session.new` span on its camera's track.
pub fn setup_pass(inputs: &Inputs, mut log: Option<&mut SpanLog>) -> Result<f64, String> {
    let started = Instant::now();
    let regenerated = Inputs::generate(inputs.workload, inputs.seed)?;
    for (index, (_, config)) in regenerated.all_cameras().enumerate() {
        let span = log.as_deref_mut().map(|log| log.open("session.new", "", index, None));
        let session = Session::new(config.clone()).map_err(|e| e.to_string())?;
        if let (Some(log), Some(span)) = (log.as_deref_mut(), span) {
            log.close(span);
        }
        std::hint::black_box(&session);
    }
    let wall_s = started.elapsed().as_secs_f64();
    if regenerated != *inputs {
        return Err("set-up regenerated different inputs from the same seed".into());
    }
    Ok(wall_s)
}

/// Simulated camera-seconds a result covers (partial runs of cameras that
/// left count for what they executed).
pub fn camera_seconds(result: &ClusterResult) -> f64 {
    result.fleet.cameras.iter().map(|c| c.result.duration_s).sum()
}

/// Peak resident memory of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
