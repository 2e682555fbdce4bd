//! `simbench`: the DaCapo simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <fleet-mx|cluster-shared> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's cluster executions for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it makes
//! the traced run and reports the per-layer metrics. Either way it checks
//! every execution's output and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Files go to
//! `.simbench_out/` under the working directory. See `README.md`.

mod check;
mod exec;
mod ladder;
mod probe;
mod span;
mod stats;
mod traced;
mod workload;

use check::Tally;
use exec::{Mode, OutDir};
use probe::Probe;
use stats::{median, quartiles};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Inputs, Workload, THREADS};

/// Fewest timed executions per `--trace 0` run, however short `--seconds`.
const MIN_REPS: usize = 5;
/// Set-up passes timed before each execution.
const SETUP_PASSES: usize = 3;

const USAGE: &str = "usage: simbench --workload <fleet-mx|cluster-shared> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The untraced run: the workload's cluster executed back to back for
/// `seconds` (at least [`MIN_REPS`] times) after one reference execution,
/// each execution preceded by [`SETUP_PASSES`] timed set-up passes. The
/// host-speed probe runs between executions; each execution and its set-up
/// passes are scaled by the mean of the probes on either side (see
/// `probe.rs`). Output checks run after the clock stops.
fn measure(inputs: &Inputs, seconds: f64, out: &OutDir) -> Result<(Vec<Metric>, Tally), String> {
    let mut tally = Tally::default();
    // The reference execution warms up, and every timed execution must
    // reproduce it. The process peak right after it is the workload's
    // memory: inputs plus one execution.
    let reference = exec::run_cluster(inputs, THREADS, Mode::Plain, out, None).result?;
    let peak_rss_mib = exec::peak_rss_mib().ok_or("VmHWM unreadable")?;
    let camera_s = exec::camera_seconds(&reference);
    let probe = Probe::new();
    let mut before = probe.slowness();
    let [mut raw_rates, mut rates, mut setups, mut slowness] =
        std::array::from_fn::<Vec<f64>, 4, _>(|_| Vec::new());
    let started = Instant::now();
    while rates.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let passes = (0..SETUP_PASSES)
            .map(|_| exec::setup_pass(inputs, None))
            .collect::<Result<Vec<f64>, String>>()?;
        let execution = exec::run_cluster(inputs, THREADS, Mode::Plain, out, None);
        let after = probe.slowness();
        let host = (before + after) / 2.0;
        before = after;
        slowness.push(host);
        setups.extend(passes.iter().map(|wall| wall / host));
        tally.cluster(&execution.result, &reference);
        if execution.result.is_ok() {
            raw_rates.push(camera_s / execution.wall_s);
            rates.push(camera_s / execution.wall_s * host);
        } else if started.elapsed().as_secs_f64() > 2.0 * seconds + 60.0 {
            return Err("executions keep failing".into());
        }
    }
    // Outside the timed region: the fleet's cameras must equal solo runs.
    if inputs.workload.is_fleet() {
        tally.cameras(&exec::solo_runs(inputs), &reference);
    }
    let (q1, q3) = quartiles(&rates);
    let (raw_q1, raw_q3) = quartiles(&raw_rates);
    eprintln!(
        "camera_s_per_host_s: median {:.2}, quartiles {q1:.2}..{q3:.2} (unscaled: median {:.2}, \
         quartiles {raw_q1:.2}..{raw_q3:.2}; host slowness median {:.4}), {} samples of \
         {camera_s} camera-seconds in {} executor steps; setup_s median {:.5} over {} passes",
        median(&rates),
        median(&raw_rates),
        median(&slowness),
        rates.len(),
        reference.contention.steps_executed,
        median(&setups),
        setups.len()
    );
    let metrics = vec![
        Metric::new("camera_s_per_host_s", median(&rates), "camera-s/s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
        Metric::new("sim_accuracy_pct", reference.fleet.mean_accuracy * 100.0, "%"),
        Metric::new("sim_energy_kj", reference.fleet.total_energy_joules / 1e3, "kJ"),
    ];
    Ok((metrics, tally))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(metrics: &[Metric], tally: Tally) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(body, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        finite && tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    )
}

fn run(args: &Args) -> Result<String, String> {
    let out = OutDir::create().map_err(|e| format!("cannot create the output directory: {e}"))?;
    let inputs = Inputs::generate(args.workload, args.seed)?;
    println!(
        "simbench workload={} seed={} seconds={} trace={} threads={THREADS} cameras={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.cameras.len() + inputs.joiners.len(),
    );
    let (metrics, tally) = if args.trace {
        traced::run(&inputs, args.seconds, &out)?
    } else {
        measure(&inputs, args.seconds, &out)?
    };
    let line = result_json(&metrics, tally);
    let name =
        format!("{}.trace{}.seed{}.json", args.workload.name(), u8::from(args.trace), args.seed);
    std::fs::write(out.file(&name), format!("{line}\n"))
        .map_err(|e| format!("cannot write the report: {e}"))?;
    Ok(line)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args =
            parse_args(&argv("--workload fleet-mx --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args { workload: Workload::FleetMx, seed: 42, seconds: 10.0, trace: true }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet-mx --seed -1 --seconds 1 --trace 0",
            "--workload fleet-mx --seed 1 --seconds 0 --trace 0",
            "--workload fleet-mx --seed 1 --seconds 1 --trace 2",
            "--workload fleet-mx --seed 1 --seconds 1",
            "--workload fleet-mx --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_four_keys_and_fails_on_any_failure() {
        let metrics = vec![Metric::new("setup_s", 0.25, "s")];
        let ok = result_json(&metrics, Tally { attempted: 3, failed: 0 });
        assert_eq!(
            ok,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_json(&metrics, Tally { attempted: 3, failed: 1 })
            .starts_with("{\"correct\": false"));
        let nan = vec![Metric::new("setup_s", f64::NAN, "s")];
        assert!(
            result_json(&nan, Tally { attempted: 3, failed: 0 }).starts_with("{\"correct\": false")
        );
    }
}
