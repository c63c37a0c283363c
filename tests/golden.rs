//! Golden run digests: the cross-change half of the determinism contract.
//!
//! Each case runs a small fixed-seed experiment with an enabled telemetry
//! sink and folds everything the contract covers into one FNV-1a digest:
//! per-round accuracy bits, virtual time, every traffic ledger (per-round
//! deltas and the meter's final totals) and the masked, sorted
//! `deterministic_stream()` of spans. Next to each digest sits the
//! telemetry registry's `fingerprint()` (counters and histograms, whose
//! sums are integer nano-units), so a change that moves what the
//! registry records is caught even when the span stream stays put.
//!
//! The digests and fingerprints are checked in. They must match under every bit-exact
//! kernel tier (run the suite with `FEDHISYN_FORCE_SCALAR=0` and `=1`).
//! A change that moves one on purpose updates the table below and says so
//! in CHANGES.md; a refactor must leave every digest where it is.

use fedhisyn::core::ExperimentConfigBuilder;
use fedhisyn::nn::Codec;
use fedhisyn::prelude::*;
use fedhisyn::simnet::{FaultConfig, TrafficSnapshot};
use fedhisyn::telemetry::SpanEvent;

const CAPACITY: usize = 1 << 15;

/// A run's `(digest, registry fingerprint)`.
type Prints = (u64, u64);

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn traffic(&mut self, t: &TrafficSnapshot) {
        for v in [
            t.uploads,
            t.downloads,
            t.peer_transfers,
            t.parameters_moved,
            t.wire_bytes,
            t.retransmit_bytes,
            t.raw_bytes,
        ] {
            self.f64(v);
        }
    }

    fn spans(&mut self, stream: &[SpanEvent]) {
        self.u64(stream.len() as u64);
        for e in stream {
            self.u64(e.phase as u64);
            self.u64(e.round as u64);
            self.u64(e.lane as u64);
            self.u64(e.device as u64);
            self.u64(e.seq as u64);
            self.f64(e.vt_start);
            self.f64(e.vt_end);
        }
    }
}

fn traced_env(cfg: &ExperimentConfig) -> FlEnv {
    let mut env = cfg.build_env();
    env.telemetry = TelemetrySink::enabled(CAPACITY);
    env
}

/// Folds the deterministic span stream, checked to be complete, into `d`
/// and returns the run's `(digest, registry fingerprint)` pair.
fn finish(mut d: Digest, env: &FlEnv) -> Prints {
    let t = env.telemetry.telemetry().expect("enabled sink");
    assert_eq!(t.dropped(), 0, "span buffer sized for the whole run");
    d.spans(&t.deterministic_stream());
    (d.0, t.registry().fingerprint())
}

/// Digest and fingerprint of a FedHiSyn run, plus the record and final
/// traffic so a case can check it really exercises the path it is named
/// after.
fn fedhisyn_run(cfg: &ExperimentConfig, k: usize) -> (Prints, RunRecord, TrafficSnapshot) {
    let mut env = traced_env(cfg);
    let mut algo = FedHiSyn::new(cfg, k);
    let rec = run_experiment(&mut algo, &mut env, cfg.rounds);
    assert_eq!(rec.rounds.len(), cfg.rounds);
    let mut d = Digest::new();
    for r in &rec.rounds {
        d.u64(r.round as u64);
        d.u64(r.accuracy.to_bits() as u64);
        d.f64(r.virtual_time);
        d.u64(r.participants as u64);
        for v in [r.uploads, r.downloads, r.peer_transfers, r.wire_bytes] {
            d.f64(v);
        }
        let t = &r.telemetry;
        for v in [
            t.uploads,
            t.downloads,
            t.peer_transfers,
            t.parameters_moved,
            t.wire_bytes,
            t.raw_bytes,
            t.retransmit_bytes,
        ] {
            d.f64(v);
        }
    }
    let traffic = env.meter.snapshot();
    d.traffic(&traffic);
    (finish(d, &env), rec, traffic)
}

fn decentral_run(cfg: &ExperimentConfig, mode: DecentralMode) -> (Prints, TrafficSnapshot) {
    let env = traced_env(cfg);
    let mut sim = DecentralSim::new(&env, mode);
    let mut d = Digest::new();
    for round in 0..cfg.rounds {
        sim.run_round(&env, round);
        d.u64(sim.mean_accuracy(&env).to_bits() as u64);
        d.traffic(&env.meter.snapshot());
    }
    for m in sim.models() {
        for &x in m.as_slice() {
            d.u64(x.to_bits() as u64);
        }
    }
    (finish(d, &env), env.meter.snapshot())
}

fn base(devices: usize, rounds: usize, seed: u64) -> ExperimentConfigBuilder {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(devices)
        .partition(Partition::Dirichlet { beta: 0.5 })
        .heterogeneity(HeterogeneityModel::Uniform { h: 5.0 })
        .rounds(rounds)
        .local_epochs(1)
        .seed(seed)
}

fn churn() -> FleetDynamics {
    FleetDynamics::edge_fleet(0.2, 0.15)
}

fn ring(average: bool) -> DecentralMode {
    DecentralMode::ClusteredRings {
        k: 2,
        order: RingOrder::SmallToLarge,
        average,
    }
}

/// Name, checked-in digest and fingerprint, and the run that must
/// reproduce them.
type Case = (&'static str, Prints, fn() -> Prints);

fn cases() -> Vec<Case> {
    vec![
        (
            "fedhisyn_static",
            (0x30d6_1d14_adad_0779, 0xd575_715e_ea41_c784),
            || fedhisyn_run(&base(8, 3, 101).build(), 2).0,
        ),
        (
            "fedhisyn_churn_mid_round_failure",
            (0xa918_872b_6eec_2b19, 0x9275_6c20_4901_0d97),
            || {
                let (prints, rec, _) = fedhisyn_run(&base(10, 3, 102).fleet(churn()).build(), 3);
                assert!(
                    rec.rounds
                        .iter()
                        .any(|r| r.telemetry.uploads < r.participants as f64),
                    "some participant must die mid-interval"
                );
                prints
            },
        ),
        (
            "fedhisyn_lossy_topk_lazy_cohort",
            (0x053c_d5c5_17b3_65f2, 0x548f_23e3_7095_7b5b),
            || {
                let cfg = base(64, 3, 103)
                    .data_mode(DataMode::Lazy {
                        beta: 0.3,
                        min_samples: 20,
                        max_samples: 40,
                        cache_capacity: 12,
                    })
                    .cohort(10)
                    .codec(Codec::TopK { permille: 100 })
                    .faults(FaultConfig::lossy(0.3))
                    .build();
                let (prints, _, traffic) = fedhisyn_run(&cfg, 3);
                assert!(traffic.retransmit_bytes > 0.0, "the lossy wire must retry");
                assert!(traffic.wire_bytes < traffic.raw_bytes, "TopK must compress");
                prints
            },
        ),
        (
            "fedhisyn_int8",
            (0x686a_aa7e_8891_bb8a, 0x4cc1_b020_4033_1267),
            || {
                let (prints, _, traffic) =
                    fedhisyn_run(&base(8, 3, 104).codec(Codec::Int8).build(), 2);
                assert!(traffic.wire_bytes < traffic.raw_bytes, "Int8 must compress");
                prints
            },
        ),
        (
            "decentral_rings_faults_churn",
            (0x1444_68c0_cd88_40d6, 0xd066_0f07_c5b0_5099),
            || {
                let cfg = base(10, 3, 105)
                    .fleet(churn())
                    .faults(FaultConfig::edge_wireless())
                    .build();
                let (prints, traffic) = decentral_run(&cfg, ring(false));
                assert!(traffic.retransmit_bytes > 0.0, "the faulty wire must retry");
                prints
            },
        ),
        (
            "decentral_rings_average",
            (0x89b9_7eef_05f8_2c24, 0x2b82_5765_9ab1_e7ad),
            || decentral_run(&base(8, 3, 106).build(), ring(true)).0,
        ),
    ]
}

#[test]
fn golden_run_digests_are_unchanged() {
    let mut mismatches = Vec::new();
    for (name, want, run) in cases() {
        let got = run();
        for (what, want, got) in [("digest", want.0, got.0), ("fingerprint", want.1, got.1)] {
            if got != want {
                mismatches.push(format!(
                    "{name} {what}: expected {want:#018x}, got {got:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden digests or fingerprints moved:\n  {}",
        mismatches.join("\n  ")
    );
}
