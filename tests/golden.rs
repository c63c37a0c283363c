//! Golden run digests: the cross-change half of the determinism contract.
//!
//! Each case runs a small fixed-seed experiment with an enabled telemetry
//! sink and folds everything the contract covers into one FNV-1a digest:
//! per-round accuracy bits, virtual time, every traffic ledger (per-round
//! deltas and the meter's final totals) and the masked, sorted
//! `deterministic_stream()` of spans. The registry fingerprint is left
//! out: the span stream already carries every virtual-time extent it
//! summarises.
//!
//! The digests are checked in. They must match under every bit-exact
//! kernel tier (run the suite with `FEDHISYN_FORCE_SCALAR=0` and `=1`).
//! A change that moves one on purpose updates the table below and says so
//! in CHANGES.md; a refactor must leave every digest where it is.

use fedhisyn::core::ExperimentConfigBuilder;
use fedhisyn::nn::Codec;
use fedhisyn::prelude::*;
use fedhisyn::simnet::{FaultConfig, TrafficSnapshot};
use fedhisyn::telemetry::SpanEvent;

const CAPACITY: usize = 1 << 15;

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

/// The deterministic span stream, checked to be complete.
fn stream_of(env: &FlEnv) -> Vec<SpanEvent> {
    let t = env.telemetry.telemetry().expect("enabled sink");
    assert_eq!(t.dropped(), 0, "span buffer sized for the whole run");
    t.deterministic_stream()
}

/// Digest of a FedHiSyn run, plus the record and final traffic so a case
/// can check it really exercises the path it is named after.
fn fedhisyn_run(cfg: &ExperimentConfig, k: usize) -> (u64, RunRecord, TrafficSnapshot) {
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
    d.spans(&stream_of(&env));
    (d.0, rec, traffic)
}

fn decentral_run(cfg: &ExperimentConfig, mode: DecentralMode) -> (u64, TrafficSnapshot) {
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
    d.spans(&stream_of(&env));
    (d.0, env.meter.snapshot())
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

/// Name, checked-in digest, and the run that must reproduce it.
type Case = (&'static str, u64, fn() -> u64);

fn cases() -> Vec<Case> {
    vec![
        ("fedhisyn_static", 0x30d6_1d14_adad_0779, || {
            fedhisyn_run(&base(8, 3, 101).build(), 2).0
        }),
        (
            "fedhisyn_churn_mid_round_failure",
            0xa918_872b_6eec_2b19,
            || {
                let (digest, rec, _) = fedhisyn_run(&base(10, 3, 102).fleet(churn()).build(), 3);
                assert!(
                    rec.rounds
                        .iter()
                        .any(|r| r.telemetry.uploads < r.participants as f64),
                    "some participant must die mid-interval"
                );
                digest
            },
        ),
        (
            "fedhisyn_lossy_topk_lazy_cohort",
            0x053c_d5c5_17b3_65f2,
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
                let (digest, _, traffic) = fedhisyn_run(&cfg, 3);
                assert!(traffic.retransmit_bytes > 0.0, "the lossy wire must retry");
                assert!(traffic.wire_bytes < traffic.raw_bytes, "TopK must compress");
                digest
            },
        ),
        ("fedhisyn_int8", 0x686a_aa7e_8891_bb8a, || {
            let (digest, _, traffic) = fedhisyn_run(&base(8, 3, 104).codec(Codec::Int8).build(), 2);
            assert!(traffic.wire_bytes < traffic.raw_bytes, "Int8 must compress");
            digest
        }),
        (
            "decentral_rings_faults_churn",
            0x1444_68c0_cd88_40d6,
            || {
                let cfg = base(10, 3, 105)
                    .fleet(churn())
                    .faults(FaultConfig::edge_wireless())
                    .build();
                let (digest, traffic) = decentral_run(&cfg, ring(false));
                assert!(traffic.retransmit_bytes > 0.0, "the faulty wire must retry");
                digest
            },
        ),
        ("decentral_rings_average", 0x89b9_7eef_05f8_2c24, || {
            decentral_run(&base(8, 3, 106).build(), ring(true)).0
        }),
    ]
}

#[test]
fn golden_run_digests_are_unchanged() {
    let mut mismatches = Vec::new();
    for (name, want, run) in cases() {
        let got = run();
        if got != want {
            mismatches.push(format!("{name}: expected {want:#018x}, got {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden digests moved:\n  {}",
        mismatches.join("\n  ")
    );
}
