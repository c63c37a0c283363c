//! Compressed wire path, end to end on the engine workload.
//!
//! The contracts: an explicit `Codec::F32` is **bit-neutral** (same
//! `RunRecord` and traffic ledgers as a config that never names a codec,
//! raw ≡ wire bytes); Int8 and TopK runs replay **bit-identically** across
//! fresh runs and execution modes (the quantization grid and per-device
//! error-feedback residuals are pure functions of the seed); each codec
//! compresses by its floor and puts strictly fewer bytes on the wire than
//! the one before it, on a clean wire and on a lossy one; and compression
//! composes with the retry relay.

use fedhisyn::core::ExecMode;
use fedhisyn::nn::Codec;
use fedhisyn::prelude::*;
use fedhisyn::simnet::{FaultConfig, TrafficSnapshot};

const TOPK: Codec = Codec::TopK { permille: 100 };

/// The paper's fleet size (100 devices, K = 10) on smoke-scale MNIST-like
/// data with a skewed Dirichlet split, for 2 rounds. `codec: None` leaves
/// the codec unset; `loss = 0` leaves the fault plan out entirely.
fn workload(codec: Option<Codec>, loss: f64) -> ExperimentConfig {
    let mut b = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(100)
        .partition(Partition::Dirichlet { beta: 0.1 })
        .local_epochs(1)
        .rounds(2)
        .seed(2022);
    if let Some(codec) = codec {
        b = b.codec(codec);
    }
    if loss > 0.0 {
        b = b.faults(FaultConfig::lossy(loss));
    }
    b.build()
}

fn run(cfg: &ExperimentConfig, exec: ExecMode) -> (RunRecord, TrafficSnapshot) {
    let mut env = cfg.build_env();
    env.exec = exec;
    let mut algo = FedHiSyn::new(cfg, 10);
    let rec = run_experiment(&mut algo, &mut env, cfg.rounds);
    (rec, env.meter.snapshot())
}

/// One codec × loss cell, checked to replay bit-identically and to
/// complete every round with a finite accuracy.
fn replayed(codec: Codec, loss: f64) -> (RunRecord, TrafficSnapshot) {
    let cfg = workload(Some(codec), loss);
    let (rec, traffic) = run(&cfg, ExecMode::Cached);
    let (replay, replay_traffic) = run(&cfg, ExecMode::Cached);
    assert_eq!(
        rec,
        replay,
        "{} at loss {loss} diverged between identical seeded runs",
        codec.label()
    );
    assert_eq!(traffic, replay_traffic);
    assert_eq!(rec.codec, codec.label(), "RunRecord codec stamp");
    assert_eq!(rec.rounds.len(), cfg.rounds, "every round completes");
    assert!(
        rec.final_accuracy().is_finite(),
        "non-finite accuracy leaked out of the {} wire at loss {loss}",
        codec.label()
    );
    (rec, traffic)
}

/// The byte side of the codec trade at the engine model size: F32
/// exactly 1×, Int8 at least 3.5×, TopK@10% at least 10×, and encoded
/// bytes falling strictly F32 → Int8 → TopK, retries included.
fn assert_byte_trade(loss: f64, cells: &[(Codec, TrafficSnapshot)]) {
    for (codec, traffic) in cells {
        let floor = match codec {
            Codec::F32 => 1.0,
            Codec::Int8 => 3.5,
            Codec::TopK { .. } => 10.0,
        };
        assert!(
            traffic.compression_ratio() >= floor,
            "{} at loss {loss} compressed only {:.2}x (floor {floor:.1}x)",
            codec.label(),
            traffic.compression_ratio()
        );
    }
    for w in cells.windows(2) {
        assert!(
            w[1].1.wire_bytes < w[0].1.wire_bytes,
            "wire bytes rose from {} ({}) to {} ({}) at loss {loss}",
            w[0].1.wire_bytes,
            w[0].0.label(),
            w[1].1.wire_bytes,
            w[1].0.label()
        );
    }
}

#[test]
fn f32_is_bit_neutral_and_lossy_codecs_replay_across_exec_modes() {
    let (rec_plain, traffic_plain) = run(&workload(None, 0.0), ExecMode::Cached);
    let (rec_f32, traffic_f32) = run(&workload(Some(Codec::F32), 0.0), ExecMode::Cached);
    assert_eq!(
        rec_plain, rec_f32,
        "Codec::F32 perturbed the run: the default wire is not bit-neutral"
    );
    assert_eq!(traffic_plain, traffic_f32);
    assert_eq!(rec_f32.codec, "f32");
    assert_eq!(
        traffic_f32.raw_bytes, traffic_f32.wire_bytes,
        "the f32 wire must charge raw and encoded ledgers identically"
    );

    let mut cells = vec![(Codec::F32, traffic_f32)];
    for codec in [Codec::Int8, TOPK] {
        let (rec, traffic) = replayed(codec, 0.0);
        let (rec_ref, traffic_ref) = run(&workload(Some(codec), 0.0), ExecMode::Reference);
        assert_eq!(
            rec,
            rec_ref,
            "{} run diverged between Cached and Reference execution modes",
            codec.label()
        );
        assert_eq!(traffic, traffic_ref);
        cells.push((codec, traffic));
    }
    assert_byte_trade(0.0, &cells);
}

#[test]
fn compression_composes_with_the_lossy_wire() {
    let cells: Vec<(Codec, TrafficSnapshot)> = [Codec::F32, Codec::Int8, TOPK]
        .into_iter()
        .map(|codec| (codec, replayed(codec, 0.15).1))
        .collect();
    assert_byte_trade(0.15, &cells);
    let int8 = cells[1].1;
    assert!(
        int8.retransmit_bytes > 0.0,
        "15% loss over 2 rounds must put at least one retry frame on the wire"
    );
    assert!(
        int8.compression_ratio() > 3.0,
        "retries erased the Int8 compression win: {:.2}x",
        int8.compression_ratio()
    );
}
