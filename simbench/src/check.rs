//! Output checks and failure accounting.
//!
//! The operation counted is one camera's run within one cluster execution.
//! A camera fails when its execution errors, when its result is missing or
//! differs bit for bit from the expected one, or when the execution's
//! cluster-wide figures (contention, sharing, churn, edge, fleet aggregates)
//! differ, which puts every camera of that execution in doubt.

use dacapo_core::{ClusterResult, SimResult};

/// Attempted and failed operations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Camera runs checked.
    pub attempted: u64,
    /// Camera runs that errored or mismatched.
    pub failed: u64,
}

impl Tally {
    /// Checks one cluster execution against the expected result.
    pub fn cluster(&mut self, got: &Result<ClusterResult, String>, expected: &ClusterResult) {
        let cameras = expected.fleet.cameras.len() as u64;
        self.attempted += cameras;
        let got = match got {
            Ok(got) => got,
            Err(_) => {
                self.failed += cameras;
                return;
            }
        };
        if got == expected {
            return;
        }
        let mismatched = expected
            .fleet
            .cameras
            .iter()
            .filter(|cam| got.camera(&cam.camera) != Some(&cam.result))
            .count() as u64;
        // Equal cameras but different cluster-wide figures: the execution as
        // a whole is wrong.
        self.failed += if mismatched == 0 { cameras } else { mismatched };
    }

    /// Checks per-camera results produced outside a cluster (solo sessions)
    /// against the cameras of the expected cluster result.
    pub fn cameras(
        &mut self,
        got: &[(String, Result<SimResult, String>)],
        expected: &ClusterResult,
    ) {
        for (name, result) in got {
            self.attempted += 1;
            let ok = matches!((result, expected.camera(name)), (Ok(r), Some(e)) if r == e);
            if !ok {
                self.failed += 1;
            }
        }
    }

    /// Counts one operation that either passed or failed.
    pub fn single(&mut self, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacapo_core::{Cluster, SchedulerKind, SimConfig};
    use dacapo_datagen::Scenario;
    use dacapo_dnn::zoo::ModelPair;

    /// A two-camera cluster over a one-minute scenario: small enough for a
    /// unit test, real enough to produce genuine results.
    fn small_result() -> ClusterResult {
        let base = Scenario::s1();
        let scenario = Scenario::from_segments("tiny", vec![base.segments()[0]]);
        let mut cluster = Cluster::new(1).threads(1);
        for i in 0..2u64 {
            let config = SimConfig::builder(scenario.clone(), ModelPair::ResNet18Wrn50)
                .scheduler(SchedulerKind::DaCapoSpatiotemporal)
                .measurement(10.0, 10)
                .pretrain_samples(32)
                .seed(11 + i)
                .build()
                .unwrap();
            cluster = cluster.camera(format!("cam-{i}"), config);
        }
        cluster.run().unwrap()
    }

    #[test]
    fn identical_results_pass() {
        let expected = small_result();
        let mut tally = Tally::default();
        tally.cluster(&Ok(expected.clone()), &expected);
        assert_eq!(tally, Tally { attempted: 2, failed: 0 });
    }

    #[test]
    fn a_perturbed_camera_result_counts_as_one_failed_operation() {
        let expected = small_result();
        let mut perturbed = expected.clone();
        perturbed.fleet.cameras[1].result.mean_accuracy += 1e-12;
        let mut tally = Tally::default();
        tally.cluster(&Ok(perturbed), &expected);
        assert_eq!(tally, Tally { attempted: 2, failed: 1 });
    }

    #[test]
    fn a_perturbed_aggregate_fails_every_camera() {
        let expected = small_result();
        let mut perturbed = expected.clone();
        perturbed.contention.steps_executed += 1;
        let mut tally = Tally::default();
        tally.cluster(&Ok(perturbed), &expected);
        assert_eq!(tally, Tally { attempted: 2, failed: 2 });
    }

    #[test]
    fn an_errored_execution_fails_every_camera() {
        let expected = small_result();
        let mut tally = Tally::default();
        tally.cluster(&Err("boom".into()), &expected);
        assert_eq!(tally, Tally { attempted: 2, failed: 2 });
    }

    #[test]
    fn solo_results_are_checked_per_camera() {
        let expected = small_result();
        let good = expected.fleet.cameras[0].result.clone();
        let mut bad = expected.fleet.cameras[1].result.clone();
        bad.phases.pop();
        let got = vec![
            ("cam-0".to_string(), Ok(good)),
            ("cam-1".to_string(), Ok(bad)),
            ("cam-9".to_string(), Err("unknown".to_string())),
        ];
        let mut tally = Tally::default();
        tally.cameras(&got, &expected);
        assert_eq!(tally, Tally { attempted: 3, failed: 2 });
    }
}
