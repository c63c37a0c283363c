//! Layer micro-pass: public functions that have no phase span, timed call
//! by call on the workload's own model, fleet and data plan. Inputs come
//! from the benchmark seed; outputs are checked as they are produced.
//!
//! A function a workload does not exercise is reported as 0 over 0
//! samples, so every run prints the same metric names.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fedhisyn_core::{seed_mix, ExperimentConfig, FlEnv};
use fedhisyn_data::DataSource;
use fedhisyn_fleet::sample_online_cohort;
use fedhisyn_nn::init::Init;
use fedhisyn_nn::layers::{Conv2d, ConvStageProfile};
use fedhisyn_nn::wire::{decode_with, encode_with};
use fedhisyn_nn::{ModelSpec, ParamVec};
use fedhisyn_tensor::{fill_normal, rng_from_seed, Tensor};
use rand::Rng;

use crate::derive::{median, Metric, Ratio};

/// Time budget per measured function.
const BUDGET: Duration = Duration::from_millis(250);
/// Upper bound on calls per measured function.
const MAX_CALLS: usize = 2000;

/// Median per-call time of `f` in microseconds, over as many calls as fit
/// in [`BUDGET`] (at least one, at most `max_calls`).
fn time_calls(max_calls: usize, mut f: impl FnMut(usize)) -> (f64, usize) {
    let began = Instant::now();
    let mut secs = Vec::new();
    while secs.is_empty() || (secs.len() < max_calls && began.elapsed() < BUDGET) {
        let t = Instant::now();
        f(secs.len());
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(&secs).expect("at least one call") * 1e6, secs.len())
}

fn random_params(n: usize, rng: &mut impl Rng) -> ParamVec {
    let mut v = vec![0.0f32; n];
    fill_normal(&mut v, 0.0, 0.1, rng);
    ParamVec::from_vec(v)
}

fn not_exercised(name: &'static str, unit: &'static str) -> Metric {
    Metric::new(name, unit, Some(0.0), 0)
}

/// Run the micro-pass; returns its metrics and any output that failed its
/// check.
pub fn micro_pass(cfg: &ExperimentConfig, env: &FlEnv, seed: u64) -> (Vec<Metric>, Vec<String>) {
    let mut rng = rng_from_seed(seed_mix(seed, 0x0b_e4c4, 0, 0));
    let mut metrics = Vec::new();
    let mut problems = Vec::new();

    // Wire codec on the workload's model under its codec; lossy codecs
    // encode deltas against a base the receiver already holds.
    let n = env.param_count();
    let params = random_params(n, &mut rng);
    let mut base = params.clone();
    base.axpy(1.0, &random_params(n, &mut rng));
    let base = env.codec.lossy().then_some(&base);
    let frame = encode_with(&params, env.codec, base);
    match decode_with(&frame, base) {
        Ok(back) if env.codec.lossy() && back.len() == n && back.is_finite() => {}
        Ok(back) if back == params => {}
        Ok(_) => problems.push(format!(
            "{} frame does not decode to its input",
            env.codec.label()
        )),
        Err(e) => problems.push(format!(
            "{} frame fails to decode: {e:?}",
            env.codec.label()
        )),
    }
    let (us, calls) = time_calls(MAX_CALLS, |_| {
        black_box(encode_with(black_box(&params), env.codec, base));
    });
    metrics.push(Metric::new("nn.wire.encode_us", "us", Some(us), calls));
    let (us, calls) = time_calls(MAX_CALLS, |_| {
        black_box(decode_with(black_box(&frame), base).expect("frame decoded above"));
    });
    metrics.push(Metric::new("nn.wire.decode_us", "us", Some(us), calls));

    // Cohort sampling on a streaming-cohort fleet, round by round through
    // the workload's horizon; each pass draws with a fresh sampling seed.
    match env.cohort {
        Some(k) => {
            let rounds = cfg.rounds;
            let (us, calls) = time_calls(2 * rounds, |i| {
                let cohort = sample_online_cohort(
                    &env.fleet,
                    k,
                    i % rounds,
                    seed_mix(seed, (i / rounds) as u64, 0xc0_4047, 0),
                );
                if cohort.is_empty() || cohort.len() > k {
                    problems.push(format!("cohort of {} for k = {k}", cohort.len()));
                }
            });
            metrics.push(Metric::new("fleet.cohort_sample_us", "us", Some(us), calls));
        }
        None => metrics.push(not_exercised("fleet.cohort_sample_us", "us")),
    }

    // Lazy shard realisation for devices drawn across the whole fleet.
    match &env.data {
        DataSource::Lazy { plan, .. } => {
            let devices: Vec<usize> = (0..MAX_CALLS)
                .map(|_| rng.gen_range(0..plan.n_devices()))
                .collect();
            let (us, calls) = time_calls(MAX_CALLS, |i| {
                let shard = plan.realise(devices[i]);
                if shard.len() != plan.shard_len(devices[i]) {
                    problems.push(format!("device {} realised a mis-sized shard", devices[i]));
                }
            });
            metrics.push(Metric::new("data.shard_realise_us", "us", Some(us), calls));
        }
        DataSource::Dense(_) => metrics.push(not_exercised("data.shard_realise_us", "us")),
    }

    metrics.extend(conv_shares(&cfg.model_spec(), cfg.batch_size, &mut rng));
    (metrics, problems)
}

/// Stage shares of a conv forward+backward step summed over the model's
/// conv layers at their own shapes and the workload's batch size.
fn conv_shares(spec: &ModelSpec, batch: usize, rng: &mut impl Rng) -> Vec<Metric> {
    let mut layers: Vec<(Conv2d, Tensor)> = Vec::new();
    if let ModelSpec::Cnn {
        in_channels,
        spatial,
        conv_filters,
        kernel,
        ..
    } = spec
    {
        let (mut ch, mut size) = (*in_channels, *spatial);
        for &f in conv_filters {
            let layer = Conv2d::new(ch, f, *kernel, kernel / 2, Init::HeNormal, rng);
            layers.push((layer, Tensor::randn(vec![batch, ch, size, size], 1.0, rng)));
            ch = f;
            size /= 2;
        }
    }
    let mut total = ConvStageProfile::default();
    let mut steps = 0;
    let began = Instant::now();
    while !layers.is_empty() && began.elapsed() < BUDGET {
        for (layer, x) in &mut layers {
            total.accumulate(&layer.profile_step(x));
            steps += 1;
        }
    }
    let sum = total.total_secs();
    let share = |name, secs| {
        Metric::ratio(
            name,
            "ratio",
            Ratio {
                num: secs,
                den: sum,
            },
            steps,
        )
    };
    vec![
        share("nn.conv.im2col_share", total.im2col_secs),
        share("nn.conv.gemm_share", total.gemm_secs),
        share("nn.conv.transpose_share", total.transpose_secs),
        share("nn.conv.col2im_share", total.col2im_secs),
    ]
}
