//! 100k-device scale smoke: the fleet and data planes stay O(cohort).
//!
//! A 100 000-device fleet runs 50 churn rounds through the lazy sharded
//! `FleetModel`, and end-to-end FedHiSyn trains 3 rounds over a lazily
//! realised data plane of the same size. Realised devices and shards must
//! stay proportional to the devices actually sampled, never to the fleet,
//! and the process's peak RSS must stay inside a fixed budget.
//!
//! This file holds a single `#[test]` on purpose: the peak-RSS reading
//! (`VmHWM`) covers the whole test process, so no other test may share it.

use fedhisyn::fleet::{sample_online_cohort, FleetDynamics, FleetModel};
use fedhisyn::prelude::*;
use fedhisyn::simnet::ProfileSource;

const DEVICES: usize = 100_000;
const SEED: u64 = 2022;

/// Peak RSS ceiling for both smokes together.
const RSS_BUDGET: u64 = 256 * 1024 * 1024;

/// Linux peak resident set size (`VmHWM` in `/proc/self/status`), in
/// bytes; `None` where the file or field is unavailable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse::<u64>()
        .ok()?;
    Some(kb * 1024)
}

/// Drives the fleet layer directly: per round, stream an online cohort
/// out of the whole fleet and read every member's latency and mid-round
/// failure state, exactly what the runner consumes to schedule a ring.
/// Returns a checksum of everything read, so two fresh models under one
/// seed can be compared bit for bit.
fn fleet_rounds(fleet: &FleetModel, rounds: usize, cohort: usize) -> (u64, u64) {
    let (mut ids, mut bits) = (0u64, 0u64);
    for r in 0..rounds {
        for &d in &sample_online_cohort(fleet, cohort, r, SEED ^ 0x5EED) {
            ids = ids.wrapping_add(d as u64).rotate_left(1);
            bits ^= fleet.latency(d, r).to_bits().rotate_left((r % 61) as u32);
            if let Some(f) = fleet.fail_frac(d, r) {
                bits ^= f.to_bits().rotate_left(17);
            }
        }
    }
    (ids, bits)
}

fn fleet_smoke() {
    let (rounds, cohort) = (50, 32);
    let build = || {
        FleetModel::with_source(
            // The paper's h = 20 heterogeneity band, derived on demand.
            ProfileSource::lazy(DEVICES, HeterogeneityModel::Uniform { h: 20.0 }, 1.0, SEED),
            FleetDynamics::planet_scale(0.15),
            SEED,
        )
    };
    let fleet = build();
    let first = fleet_rounds(&fleet, rounds, cohort);
    assert_eq!(
        first,
        fleet_rounds(&build(), rounds, cohort),
        "fleet replay diverged between identical seeded runs"
    );
    // About 1/online-fraction draws per cohort slot plus collision
    // retries stays well under 8; the bound is still ~100× below any
    // O(fleet) realisation.
    let realised = fleet.realised_devices();
    assert!(
        realised <= rounds * cohort * 8 && realised * 10 <= DEVICES,
        "{realised} of {DEVICES} devices realised over {rounds} rounds x cohort {cohort}: \
         fleet realisation is not O(cohort)"
    );
}

fn train_smoke() {
    let (rounds, cohort) = (3, 50);
    let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(DEVICES)
        .data_mode(DataMode::Lazy {
            beta: 0.3,
            min_samples: 20,
            max_samples: 40,
            // Headroom over K so ring-relay retraining within a round
            // never evicts the active cohort.
            cache_capacity: 4 * cohort,
        })
        .cohort(cohort)
        .local_epochs(1)
        .rounds(rounds)
        .seed(SEED)
        .build();
    let run = || {
        let mut env = cfg.build_env();
        let mut algo = FedHiSyn::new(&cfg, 10);
        let rec = run_experiment(&mut algo, &mut env, rounds);
        (rec, env)
    };
    let (rec, env) = run();
    assert_eq!(
        rec,
        run().0,
        "train replay diverged between identical seeded runs"
    );

    // Each round realises at most the cohort when the cache holds it; the
    // 4× slack covers cohort drift across cache generations. The second
    // clause pins "never O(fleet)" directly.
    let realised = env.data.shards_realised() as usize;
    assert!(
        realised <= rounds * cohort * 4 && realised * 10 <= DEVICES,
        "{realised} shards realised over {rounds} rounds x cohort {cohort} in a \
         {DEVICES}-device fleet: the data plane is not O(cohort)"
    );

    // Shards served through the cache equal fresh realisations from the
    // pure plan, on probes spread across the fleet.
    let plan = env.data.plan().expect("lazy data plane").clone();
    for i in 0..8 {
        let d = ((i * DEVICES) / 8 + i).min(DEVICES - 1);
        let (via_cache, fresh) = (env.shard(d), plan.realise(d));
        assert_eq!(via_cache.y, fresh.y, "device {d}: labels diverged");
        assert!(
            via_cache
                .x
                .data()
                .iter()
                .zip(fresh.x.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "device {d}: cache-served shard diverged from the pure plan"
        );
    }
}

#[test]
fn hundred_thousand_device_rounds_stay_o_cohort_within_the_rss_budget() {
    fleet_smoke();
    train_smoke();
    if let Some(peak) = peak_rss_bytes() {
        assert!(
            peak <= RSS_BUDGET,
            "peak RSS {peak} bytes exceeds the {} MiB budget: realisation is \
             leaking toward O(fleet)",
            RSS_BUDGET >> 20
        );
    }
}
