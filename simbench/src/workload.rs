//! The two workloads and the generation of their inputs from the seed.
//!
//! Everything the simulator receives is built here: camera configurations
//! (scenario, platform, scheduler, seeds, edge tier) and, on the cluster
//! workloads, the churn plan. The seed passed on the command line is the
//! only source of randomness; the program sees only the generated configs.

use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{ChurnPlan, Cluster, EdgeConfig, PlatformKind, SchedulerKind, SimConfig};
use dacapo_datagen::{FleetScenario, Scenario, StreamConfig};
use dacapo_dnn::zoo::ModelPair;

/// Worker threads of every timed end-to-end execution. One: the host gives
/// the benchmark two cores of a shared machine, and a second worker thread
/// makes the wall time depend on how the host schedules the pair.
pub const THREADS: usize = 1;
/// Worker threads of the parallel executions in the traced run, which
/// measure `cluster.thread_speedup`.
pub const PARALLEL_THREADS: usize = 2;
/// Shared accelerators in every workload.
const ACCELERATORS: usize = 2;
/// Cameras of the `fleet-mx` workload (one per paper scenario).
const FLEET_CAMERAS: usize = 8;
/// Initial cameras of the `cluster-shared` workload; one more joins mid-run.
const CLUSTER_CAMERAS: usize = 16;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 paper scenarios on the paper's MX `dacapo` platform: the isolated
    /// fast path.
    FleetMx,
    /// 16 correlated cameras with sharing, edge offload and churn.
    ClusterShared,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Self; 2] = [Self::FleetMx, Self::ClusterShared];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::FleetMx => "fleet-mx",
            Self::ClusterShared => "cluster-shared",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is a churn-, share- and edge-free fleet, whose
    /// per-camera results must equal solo `Session` runs.
    pub fn is_fleet(self) -> bool {
        self == Self::FleetMx
    }
}

/// The generated inputs of one workload at one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The seed they were generated from.
    pub seed: u64,
    /// The initial cameras, in admission order.
    pub cameras: Vec<(String, SimConfig)>,
    /// Cameras that join mid-run (their configs also sit in `churn`).
    pub joiners: Vec<(String, SimConfig)>,
    /// The churn plan (empty on the fleet workloads).
    pub churn: ChurnPlan,
}

/// SplitMix64: a fixed, well-mixed map from (seed, stream) to a sub-seed,
/// so each camera and the fleet derivation get independent seeds.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The synthetic fp32 capability sheet the executor benchmarks use (the
/// `churn-chip` of `steps_bench` and `elastic_churn`).
fn churn_chip() -> Result<PlatformRates, String> {
    PlatformRates::new(
        "churn-chip",
        KernelRate::fp32(120.0),
        KernelRate::fp32(40.0),
        KernelRate::fp32(160.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        1.5,
    )
    .map_err(|e| e.to_string())
}

/// A camera configuration: paper defaults plus the workload's platform,
/// the spatiotemporal scheduler, and seeds derived from `seed`.
fn camera_config(
    scenario: Scenario,
    mx: bool,
    edge: bool,
    seed: u64,
    camera: u64,
) -> Result<SimConfig, String> {
    let stream = StreamConfig { seed: sub_seed(seed, 2 * camera + 1), ..StreamConfig::default() };
    let mut builder = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
        .scheduler(SchedulerKind::DaCapoSpatiotemporal)
        .stream(stream)
        .seed(sub_seed(seed, 2 * camera));
    builder = if mx {
        builder.platform(PlatformKind::DaCapo)
    } else {
        builder.platform_rates(churn_chip()?)
    };
    if edge {
        builder = builder.edge(EdgeConfig::new("lte"));
    }
    builder.build().map_err(|e| e.to_string())
}

impl Inputs {
    /// Builds every camera's configuration for `workload` at `seed`. The
    /// same arguments always give equal inputs.
    pub fn generate(workload: Workload, seed: u64) -> Result<Self, String> {
        let mut inputs = Self {
            workload,
            seed,
            cameras: Vec::new(),
            joiners: Vec::new(),
            churn: ChurnPlan::new(),
        };
        if workload.is_fleet() {
            let scenarios = Scenario::all();
            for i in 0..FLEET_CAMERAS {
                let scenario = scenarios[i % scenarios.len()].clone();
                let config = camera_config(scenario, true, false, seed, i as u64)?;
                inputs.cameras.push((format!("cam-{i:03}"), config));
            }
            return Ok(inputs);
        }
        let scenarios = FleetScenario::new(Scenario::es1(), CLUSTER_CAMERAS + 1)
            .overlap(0.8)
            .offset_step_s(30.0)
            .seed(sub_seed(seed, u64::MAX))
            .derive()
            .map_err(|e| e.to_string())?;
        for (i, scenario) in scenarios.into_iter().enumerate() {
            let config = camera_config(scenario, false, true, seed, i as u64)?;
            let named = (format!("cam-{i:03}"), config);
            if i < CLUSTER_CAMERAS {
                inputs.cameras.push(named);
            } else {
                inputs.joiners.push(named);
            }
        }
        let mut plan = ChurnPlan::new().leave(150.0, "cam-001");
        for (name, config) in &inputs.joiners {
            plan = plan.join(300.0, name.clone(), config.clone());
        }
        inputs.churn = plan.drain(600.0, ACCELERATORS - 1);
        Ok(inputs)
    }

    /// The workload's cluster with `threads` worker threads.
    pub fn cluster(&self, threads: usize) -> Cluster {
        let mut cluster = Cluster::new(ACCELERATORS).threads(threads);
        if !self.workload.is_fleet() {
            cluster = cluster
                .arbiter("drift-first:3")
                .share("correlated:0.3")
                .share_window_s(30.0)
                .offload("threshold:8")
                .churn(self.churn.clone());
        }
        for (name, config) in &self.cameras {
            cluster = cluster.camera(name.clone(), config.clone());
        }
        cluster
    }

    /// Every camera configuration, joiners included.
    pub fn all_cameras(&self) -> impl Iterator<Item = &(String, SimConfig)> {
        self.cameras.iter().chain(&self.joiners)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_generates_identical_inputs() {
        for workload in Workload::ALL {
            let first = Inputs::generate(workload, 7).unwrap();
            let second = Inputs::generate(workload, 7).unwrap();
            assert_eq!(first, second, "{}", workload.name());
        }
    }

    #[test]
    fn different_seeds_generate_different_inputs() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 1).unwrap();
            let b = Inputs::generate(workload, 2).unwrap();
            assert_ne!(a.cameras, b.cameras, "{}", workload.name());
        }
    }

    #[test]
    fn workload_shapes_match_their_documentation() {
        let fleet = Inputs::generate(Workload::FleetMx, 3).unwrap();
        assert_eq!(fleet.cameras.len(), FLEET_CAMERAS);
        assert!(fleet.joiners.is_empty() && fleet.churn.is_empty());
        let cluster = Inputs::generate(Workload::ClusterShared, 3).unwrap();
        assert_eq!(cluster.cameras.len(), CLUSTER_CAMERAS);
        assert_eq!(cluster.joiners.len(), 1);
        assert_eq!(cluster.churn.len(), 3);
        assert!(cluster.all_cameras().all(|(_, c)| c.edge.is_some()));
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("fleet"), None);
    }
}
