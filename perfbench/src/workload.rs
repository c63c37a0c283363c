//! The three benchmark workloads: which FedHiSyn configuration each one
//! runs, how long a repeat is, and what it must reach to count as correct.

use fedhisyn_core::{DataMode, ExperimentConfig};
use fedhisyn_data::{DatasetProfile, Partition, Scale};
use fedhisyn_fleet::FleetDynamics;
use fedhisyn_nn::Codec;
use fedhisyn_simnet::FaultConfig;

/// Ring classes per round (`K` in the paper), the same on every workload.
pub const K: usize = 10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper MNIST stand-in: dense-GEMM local SGD dominates; the codec,
    /// fault and lazy paths are bypassed.
    MlpRing,
    /// The same `nn`/`tensor` layers through conv im2col/GEMM/col2im.
    CnnRing,
    /// A million-device lazy fleet with churn, mid-round failures, a
    /// lossy wire and the top-k error-feedback codec on the hot path.
    PlanetLossy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::MlpRing, Workload::CnnRing, Workload::PlanetLossy];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpRing => "mlp_ring",
            Workload::CnnRing => "cnn_ring",
            Workload::PlanetLossy => "planet_lossy",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds in one repeat. Each leaves a margin of at least nine rounds
    /// past the target crossing at both documented seeds (2022 and 7).
    pub fn rounds(self) -> usize {
        match self {
            Workload::MlpRing => 50,
            Workload::CnnRing => 35,
            Workload::PlanetLossy => 100,
        }
    }

    /// Test accuracy that defines time to accuracy.
    pub fn target(self) -> f32 {
        match self {
            Workload::MlpRing => 0.95,
            Workload::CnnRing => 0.30,
            Workload::PlanetLossy => 0.95,
        }
    }

    /// Lowest final accuracy a correct repeat may end on. Accuracy wobbles
    /// by a few tenths of a point after the crossing, so the floor sits
    /// below the target.
    pub fn floor(self) -> f32 {
        match self {
            Workload::MlpRing => 0.93,
            Workload::CnnRing => 0.25,
            Workload::PlanetLossy => 0.93,
        }
    }

    /// The experiment configuration at workload seed `seed`.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let b = match self {
            Workload::MlpRing => ExperimentConfig::builder(DatasetProfile::MnistLike)
                .devices(100)
                .partition(Partition::Dirichlet { beta: 0.1 }),
            Workload::CnnRing => ExperimentConfig::builder(DatasetProfile::Cifar10Like)
                .devices(100)
                .partition(Partition::Dirichlet { beta: 0.3 }),
            Workload::PlanetLossy => {
                let mut dynamics = FleetDynamics::churn(0.1);
                dynamics.mid_round_failure = 0.05;
                ExperimentConfig::builder(DatasetProfile::MnistLike)
                    .devices(1_000_000)
                    .data_mode(DataMode::Lazy {
                        beta: 0.3,
                        min_samples: 20,
                        max_samples: 40,
                        cache_capacity: 200,
                    })
                    .cohort(50)
                    .fleet(dynamics)
                    .codec(Codec::TopK { permille: 100 })
                    .faults(FaultConfig::lossy(0.15))
            }
        };
        b.scale(Scale::Smoke)
            .local_epochs(1)
            .rounds(self.rounds())
            .seed(seed)
            .build()
    }
}
