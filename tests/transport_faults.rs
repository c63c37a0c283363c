//! Deterministic fault-injection transport, end to end.
//!
//! The tentpole contracts: `FaultPlan::none()` is **bit-neutral** (a run
//! with an explicit none plan equals a run with no plan at all, whole
//! `RunRecord` included); any nonzero fault schedule replays
//! **bit-identically** across fresh runs, execution modes and thread
//! interleavings (the schedule is a pure function of
//! `(seed, round, src, dst, attempt)`, never of timing); corrupted frames
//! surface as typed errors, never as parameters; and a churned, faulty
//! fleet still completes every round, with the retry overhead recorded
//! honestly in telemetry.

use std::sync::Arc;

use fedhisyn::core::{ExecMode, ExperimentConfigBuilder};
use fedhisyn::prelude::*;
use fedhisyn::simnet::{FaultConfig, FaultKind, FaultPlan};
use proptest::prelude::*;

fn base_builder(devices: usize, rounds: usize, seed: u64) -> ExperimentConfigBuilder {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(devices)
        .partition(Partition::Dirichlet { beta: 0.5 })
        .heterogeneity(HeterogeneityModel::Uniform { h: 5.0 })
        .rounds(rounds)
        .local_epochs(1)
        .seed(seed)
}

fn run(cfg: &ExperimentConfig, exec: ExecMode) -> (RunRecord, fedhisyn::simnet::TrafficSnapshot) {
    let mut env = cfg.build_env();
    env.exec = exec;
    let mut algo = FedHiSyn::new(cfg, 3);
    let rec = run_experiment(&mut algo, &mut env, cfg.rounds);
    (rec, env.meter.snapshot())
}

#[test]
fn none_plan_is_bit_neutral_over_a_whole_run() {
    let plain = base_builder(8, 3, 42).build();
    let none = base_builder(8, 3, 42).faults(FaultConfig::none()).build();
    let (rec_plain, traffic_plain) = run(&plain, ExecMode::Cached);
    let (rec_none, traffic_none) = run(&none, ExecMode::Cached);
    assert_eq!(
        rec_plain, rec_none,
        "an explicit FaultConfig::none() must be indistinguishable from no plan"
    );
    assert_eq!(traffic_plain, traffic_none);
    assert_eq!(traffic_plain.retransmit_bytes, 0.0);
    assert_eq!(traffic_plain.goodput_bytes(), traffic_plain.wire_bytes);
}

#[test]
fn nonzero_schedule_replays_across_runs_and_exec_modes() {
    let cfg = base_builder(8, 3, 7)
        .faults(FaultConfig::edge_wireless())
        .build();
    let (rec_a, traffic_a) = run(&cfg, ExecMode::Cached);
    let (rec_b, traffic_b) = run(&cfg, ExecMode::Cached);
    let (rec_ref, traffic_ref) = run(&cfg, ExecMode::Reference);
    assert_eq!(rec_a, rec_b, "same seed, same faults, same trace");
    assert_eq!(traffic_a, traffic_b);
    assert_eq!(
        rec_a, rec_ref,
        "the fault schedule must not depend on the execution engine"
    );
    assert_eq!(traffic_a, traffic_ref);
}

#[test]
fn retry_bytes_are_charged_and_fold_into_round_deltas() {
    let cfg = base_builder(8, 3, 7)
        .faults(FaultConfig::lossy(0.3))
        .build();
    let (rec, traffic) = run(&cfg, ExecMode::Cached);
    assert!(
        traffic.retransmit_bytes > 0.0,
        "30% loss over 3 rounds must retransmit at least once"
    );
    assert!(traffic.goodput_bytes() < traffic.wire_bytes);
    let folded: f64 = rec
        .rounds
        .iter()
        .map(|r| r.telemetry.retransmit_bytes)
        .sum();
    assert!(
        (folded - traffic.retransmit_bytes).abs() < 1e-6,
        "per-round deltas ({folded}) must sum to the meter total ({})",
        traffic.retransmit_bytes
    );
}

/// Retry overhead is monotone in the loss floor: more injected frame loss
/// means more retry frames on the wire, never fewer. Runs the paper's
/// fleet size (100 devices, K = 10, skewed Dirichlet) for 2 rounds at each
/// loss rate; loss 0 leaves the fault plan out.
#[test]
fn retransmit_bytes_grow_with_loss() {
    let mut last = 0.0;
    for loss in [0.0, 0.05, 0.15, 0.30] {
        let mut b = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(100)
            .partition(Partition::Dirichlet { beta: 0.1 })
            .local_epochs(1)
            .rounds(2)
            .seed(2022);
        if loss > 0.0 {
            b = b.faults(FaultConfig::lossy(loss));
        }
        let cfg = b.build();
        let run10 = || {
            let mut env = cfg.build_env();
            let mut algo = FedHiSyn::new(&cfg, 10);
            let rec = run_experiment(&mut algo, &mut env, cfg.rounds);
            (rec, env.meter.snapshot())
        };
        let (rec, traffic) = run10();
        assert_eq!(
            (rec.clone(), traffic),
            run10(),
            "loss {loss} diverged between identical seeded runs"
        );
        assert!(
            rec.final_accuracy().is_finite(),
            "corrupted or lost frames leaked into training at loss {loss}"
        );
        assert!(
            traffic.retransmit_bytes >= last,
            "retransmit bytes fell from {last} to {} as loss rose to {loss}",
            traffic.retransmit_bytes
        );
        last = traffic.retransmit_bytes;
    }
}

#[test]
fn corrupted_frames_are_typed_errors_never_parameters() {
    use fedhisyn::nn::wire;
    let params = ParamVec::from_vec((0..33).map(|i| (i as f32).sin()).collect());
    let clean = wire::encode(&params);
    assert_eq!(wire::verify_frame(&clean), Ok(params.len()));
    let mut frame = clean.to_vec();
    frame[wire::HEADER_LEN + 9] ^= 0x01; // single-bit payload corruption
    assert_eq!(wire::decode(&frame), Err(wire::WireError::BadChecksum));
    assert_eq!(
        wire::verify_frame(&frame),
        Err(wire::WireError::BadChecksum)
    );
    // The checksum covers content, not position: flipping the bit back
    // restores the original parameters.
    frame[wire::HEADER_LEN + 9] ^= 0x01;
    assert_eq!(wire::decode(&frame), Ok(params));

    // A corrupt-heavy wire with the checksum tripwire on every relay hop
    // completes every round: corrupted frames are retried, never trained on.
    let corrupt = FaultConfig {
        corrupt: 0.3,
        ..FaultConfig::none()
    };
    let cfg = base_builder(8, 2, 2022)
        .wire_check(true)
        .faults(corrupt)
        .build();
    let (rec, traffic) = run(&cfg, ExecMode::Cached);
    assert_eq!(rec.rounds.len(), 2, "corruption must never abort a round");
    assert!(
        rec.final_accuracy().is_finite(),
        "corrupted payloads leaked into aggregation"
    );
    assert!(
        traffic.retransmit_bytes > 0.0,
        "corrupted frames are resent"
    );
}

#[test]
fn churned_faulty_fleet_completes_every_round_with_visible_retries() {
    let mut dynamics = FleetDynamics::churn(0.2);
    dynamics.mid_round_failure = 0.1;
    let cfg = base_builder(24, 4, 2022)
        .fleet(dynamics)
        .wire_check(true) // checksum tripwire on every relay hop
        .faults(FaultConfig::edge_wireless())
        .build();
    let (rec, traffic) = run(&cfg, ExecMode::Cached);
    assert_eq!(
        rec.rounds.len(),
        4,
        "faults + churn must never abort a round"
    );
    assert!(rec.final_accuracy().is_finite());
    assert!(
        traffic.retransmit_bytes > 0.0,
        "retry overhead must be visible"
    );
    // Honest accounting: logical transfers (goodput) never include retries.
    let (rec2, traffic2) = run(&cfg, ExecMode::Cached);
    assert_eq!(rec, rec2);
    assert_eq!(traffic, traffic2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fault plan is a pure function: the same (round, src, dst,
    /// attempt) coordinate yields the same fault under any interleaving
    /// of 8 threads sharing one plan (mirrors `fleet_lazy.rs`).
    #[test]
    fn fault_plans_replay_bit_identically_across_thread_interleavings(
        seed in 0u64..1000,
        loss in 0.0f64..0.5,
        corrupt in 0.0f64..0.3,
        timeout in 0.0f64..0.3,
        duplicate in 0.0f64..0.2,
    ) {
        let cfg = FaultConfig {
            loss,
            corrupt,
            timeout,
            duplicate,
            ..FaultConfig::none()
        };
        let plan = Arc::new(FaultPlan::new(seed, cfg));
        let n_coords = 24usize * 10;
        // Sequential reference walk.
        let reference: Vec<FaultKind> = (0..n_coords)
            .map(|j| {
                let (d, r) = ((j % 24) as u64, (j / 24) as u64);
                plan.fault(r, d, (d + 1) % 24, r ^ d)
            })
            .collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let p = Arc::clone(&plan);
                std::thread::spawn(move || {
                    // Each thread visits every coordinate in a different order.
                    (0..n_coords)
                        .map(|i| {
                            let j = (i * (t * 2 + 1)) % n_coords;
                            let (d, r) = ((j % 24) as u64, (j / 24) as u64);
                            (j, p.fault(r, d, (d + 1) % 24, r ^ d))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (j, kind) in h.join().expect("fault query thread panicked") {
                prop_assert_eq!(kind, reference[j], "coordinate {} diverged", j);
            }
        }
    }

    /// Whole-run determinism holds for arbitrary small fault configs, not
    /// just the named presets.
    #[test]
    fn arbitrary_fault_configs_keep_runs_deterministic(
        seed in 0u64..100,
        loss in 0.0f64..0.4,
        corrupt in 0.0f64..0.2,
    ) {
        let faults = FaultConfig { loss, corrupt, ..FaultConfig::none() };
        let cfg = base_builder(6, 2, seed).faults(faults).build();
        let (a, ta) = run(&cfg, ExecMode::Cached);
        let (b, tb) = run(&cfg, ExecMode::Cached);
        prop_assert_eq!(a, b);
        prop_assert_eq!(ta, tb);
    }
}
