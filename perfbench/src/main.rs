//! FedHiSyn round benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mlp_ring|cnn_ring|planet_lossy> --seed <n> --seconds <s> --trace <0|1> \
//!     [--workload-seed <n>]
//! ```
//!
//! One process runs one workload as a closed loop: a single caller runs
//! whole experiments (`build_env`, `FedHiSyn::new`, `run_experiment`)
//! back to back on the vendored rayon pool, for at least `--seconds`.
//!
//! * `--trace 0` repeats the workload untraced and reports the end-to-end
//!   metrics: throughput, per-round wall time, time and traffic to the
//!   workload's target accuracy, set-up time and peak memory.
//! * `--trace 1` alternates untraced and traced repeats and reports the
//!   per-layer metrics: span self times, the `RoundTelemetry` counters
//!   and a micro-pass over public functions that have no span.
//!
//! The federated experiment always runs at the workload seed (2022 by
//! default; 7 is the second documented seed for checking a claim), so the
//! deterministic metrics (`final_accuracy`, `tta_virtual_s`,
//! `wire_mb_to_target`, `core.local_train.calls_per_round`) read the same
//! on every run: across seeds the round that first reaches the target
//! moves by a factor of two, which would swamp any change in speed.
//! `--seed` seeds the micro-pass inputs.
//!
//! Correctness gate: every repeat (traced or not) must produce the same
//! `RunRecord` as the first, reach the target, end at or above the
//! workload's accuracy floor and aggregate at least one upload every
//! round; traced repeats must drop no span and produce the same masked
//! span stream. A violation counts its rounds as failed, prints `FAIL:`
//! lines and exits with code 1.
//!
//! Standard output: a host stamp, one line per metric with its unit and
//! base, then one JSON line with `correct`, `attempted` (rounds run),
//! `failed` (rounds failed) and `metrics`.

mod derive;
mod host;
mod micro;
mod spans;
mod timed;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fedhisyn_core::RunRecord;
use fedhisyn_telemetry::SpanEvent;

use derive::{median, percentile, result_json, Metric, Ratio};
use timed::{run_repeat, setup, Repeat};
use workload::Workload;

/// Workload seed unless `--workload-seed` overrides it.
const DEFAULT_WORKLOAD_SEED: u64 = 2022;
/// Rounds of the untimed warm-up that fills engine caches and the pool.
const WARMUP_ROUNDS: usize = 3;
/// Fewest measured repeats (untraced) or repeat pairs (traced) per run.
const MIN_REPEATS: usize = 3;
const MIN_PAIRS: usize = 2;
/// Fewest set-ups whose median is `setup_s`.
const MIN_SETUPS: usize = 31;
/// Span buffer per traced round; a traced run that overflows it fails.
const SPANS_PER_ROUND: usize = 8192;

const USAGE: &str = "usage: perfbench --workload <mlp_ring|cnn_ring|planet_lossy> --seed <n> \
                     --seconds <s> --trace <0|1> [--workload-seed <n>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    workload_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut workload_seed = DEFAULT_WORKLOAD_SEED;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--workload-seed" => workload_seed = num()?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
        workload_seed,
    })
}

/// The correctness gate and the attempted/failed round counts.
struct Gate {
    workload: Workload,
    reference: Option<RunRecord>,
    reference_stream: Option<Vec<SpanEvent>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    fn new(workload: Workload) -> Self {
        Gate {
            workload,
            reference: None,
            reference_stream: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn check(&mut self, label: &str, rep: &Repeat) {
        let w = self.workload;
        let rounds = w.rounds() as u64;
        self.attempted += rounds;
        let rec = &rep.record;
        let mut bad = Vec::new();
        if rec.rounds.len() != w.rounds() {
            bad.push(format!("ran {} of {} rounds", rec.rounds.len(), w.rounds()));
        }
        match &self.reference {
            None => self.reference = Some(rec.clone()),
            Some(first) if first != rec => bad.push("record differs from the first repeat".into()),
            Some(_) => {}
        }
        if rep.crossing(w.target()).is_none() {
            bad.push(format!("never reached accuracy {}", w.target()));
        }
        if rec.final_accuracy() < w.floor() {
            bad.push(format!(
                "final accuracy {} below {}",
                rec.final_accuracy(),
                w.floor()
            ));
        }
        if let Some(t) = rep.sink.telemetry() {
            if t.dropped() > 0 {
                bad.push(format!("{} spans dropped", t.dropped()));
            }
            let stream = t.deterministic_stream();
            match &self.reference_stream {
                None => self.reference_stream = Some(stream),
                Some(first) if *first != stream => {
                    bad.push("masked span stream differs from the first traced repeat".into())
                }
                Some(_) => {}
            }
        }
        let empty = rec
            .rounds
            .iter()
            .filter(|r| r.telemetry.uploads == 0.0)
            .count() as u64;
        if empty > 0 {
            bad.push(format!("{empty} rounds aggregated no upload"));
        }
        if bad.is_empty() {
            return;
        }
        self.failed += rounds;
        self.problems
            .extend(bad.into_iter().map(|b| format!("{label}: {b}")));
    }
}

/// Repeat until `seconds` have passed and at least `min` repeats ran.
fn repeat_for(seconds: u64, min: usize, mut once: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut done = 0;
    while done < min || Instant::now() < deadline {
        once();
        done += 1;
    }
}

fn secs_to_ms(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|s| s * 1e3).collect()
}

/// Untraced repeats → the end-to-end metrics.
fn end_to_end(args: &Args, gate: &mut Gate) -> Vec<Metric> {
    let w = args.workload;
    let cfg = w.config(args.workload_seed);
    let mut reps: Vec<Repeat> = Vec::new();
    repeat_for(args.seconds, MIN_REPEATS, || {
        let rep = run_repeat(&cfg, w.rounds(), None);
        gate.check(&format!("repeat {}", reps.len()), &rep);
        reps.push(rep);
    });
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(setup(&cfg).2);
    }
    let n = reps.len();
    let rps: Vec<f64> = reps.iter().map(Repeat::rounds_per_s).collect();
    let walls: Vec<f64> = secs_to_ms(
        &reps
            .iter()
            .flat_map(Repeat::round_walls)
            .collect::<Vec<_>>(),
    );
    let tta_wall: Option<Vec<f64>> = reps.iter().map(|r| r.tta_wall_s(w.target())).collect();
    let first = &reps[0];
    let cross = first.crossing(w.target());
    let rec = &first.record;
    let listed: Vec<String> = rps.iter().map(|r| format!("{r:.2}")).collect();
    println!("rounds/s per repeat: {}", listed.join(" "));
    // The tail is printed, not gated: on a shared host its run-to-run
    // spread exceeds the largest bound BENCHMARK.json may set (see README).
    let p90 = Metric::new("round_ms_p90", "ms", percentile(&walls, 90.0), walls.len());
    let beyond = p90
        .value
        .map_or(0, |cut| walls.iter().filter(|&&ms| ms > cut).count());
    println!("{}  {beyond} beyond it, not gated", p90.line());
    vec![
        Metric::new("rounds_per_s", "1/s", median(&rps), n),
        Metric::new("round_ms_p50", "ms", percentile(&walls, 50.0), walls.len()),
        Metric::new("tta_wall_s", "s", tta_wall.and_then(|t| median(&t)), n),
        Metric::new(
            "tta_virtual_s",
            "sim_s",
            cross.map(|c| rec.rounds[c].virtual_time),
            1,
        ),
        Metric::new(
            "final_accuracy",
            "frac",
            Some(f64::from(rec.final_accuracy())),
            1,
        ),
        Metric::new(
            "wire_mb_to_target",
            "MB",
            cross.map(|c| rec.rounds[..=c].iter().map(|r| r.wire_bytes).sum::<f64>() / 1e6),
            1,
        ),
        Metric::new("setup_s", "s", median(&setups), setups.len()),
        Metric::new("peak_rss_mb", "MiB", host::peak_rss_mb(), 1),
    ]
}

/// Median of each plain metric across runs; ratios pool their bases.
fn combine(runs: &[Vec<Metric>]) -> Vec<Metric> {
    (0..runs[0].len())
        .map(|i| {
            let col: Vec<&Metric> = runs.iter().map(|r| &r[i]).collect();
            let samples = col.iter().map(|m| m.samples).sum();
            match col[0].base {
                Some(_) => {
                    let pooled = col.iter().filter_map(|m| m.base).fold(
                        Ratio { num: 0.0, den: 0.0 },
                        |a, b| Ratio {
                            num: a.num + b.num,
                            den: a.den + b.den,
                        },
                    );
                    Metric::ratio(col[0].name, col[0].unit, pooled, samples)
                }
                None => {
                    let values: Vec<f64> = col.iter().filter_map(|m| m.value).collect();
                    Metric::new(col[0].name, col[0].unit, median(&values), samples)
                }
            }
        })
        .collect()
}

/// Per-layer metrics from the untraced record's `RoundTelemetry`.
fn counters(rec: &RunRecord) -> Vec<Metric> {
    let n = rec.rounds.len();
    let rounds = n.max(1) as f64;
    let sum = |f: fn(&fedhisyn_telemetry::RoundTelemetry) -> f64| {
        rec.rounds.iter().map(|r| f(&r.telemetry)).sum::<f64>()
    };
    let last = rec.rounds.last().map(|r| r.telemetry).unwrap_or_default();
    let hits = sum(|t| t.cache_hits as f64);
    vec![
        Metric::ratio(
            "core.engine.cache_hit_ratio",
            "ratio",
            Ratio {
                num: hits,
                den: hits + sum(|t| t.cache_misses as f64),
            },
            n,
        ),
        Metric::new(
            "nn.arena.high_water_bytes",
            "bytes",
            rec.rounds
                .iter()
                .map(|r| r.telemetry.arena_high_water_bytes as f64)
                .reduce(f64::max),
            n,
        ),
        Metric::ratio(
            "nn.wire.compression_ratio",
            "ratio",
            Ratio {
                num: sum(|t| t.raw_bytes),
                den: sum(|t| t.wire_bytes),
            },
            n,
        ),
        Metric::new(
            "simnet.retransmit_bytes_per_round",
            "bytes",
            Some(sum(|t| t.retransmit_bytes) / rounds),
            n,
        ),
        Metric::new(
            "data.shards_realised_per_round",
            "count",
            Some(last.data_shards_realised as f64 / rounds),
            n,
        ),
        Metric::ratio(
            "data.shard_cache_hit_ratio",
            "ratio",
            Ratio {
                num: last.data_shard_cache_hits as f64,
                den: (last.data_shard_cache_hits + last.data_shards_realised) as f64,
            },
            n,
        ),
        Metric::new(
            "fleet.realised_devices",
            "count",
            Some(last.fleet_realised_devices as f64),
            n,
        ),
        Metric::new(
            "fleet.realised_state_bytes",
            "bytes",
            Some(last.fleet_realised_state_bytes as f64),
            n,
        ),
    ]
}

/// Alternating untraced and traced repeats, plus the micro-pass → the
/// per-layer metrics.
fn per_layer(args: &Args, gate: &mut Gate) -> Vec<Metric> {
    let w = args.workload;
    let cfg = w.config(args.workload_seed);
    let threads = rayon::current_num_threads();
    let mut plain: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    repeat_for(args.seconds, MIN_PAIRS, || {
        let rep = run_repeat(&cfg, w.rounds(), None);
        gate.check(&format!("untraced repeat {}", plain.len()), &rep);
        plain.push(rep);
        let rep = run_repeat(&cfg, w.rounds(), Some(w.rounds() * SPANS_PER_ROUND));
        gate.check(&format!("traced repeat {}", traced.len()), &rep);
        traced.push(rep);
    });
    let span_metrics: Vec<Vec<Metric>> = traced
        .iter()
        .map(|r| {
            let events = r.sink.telemetry().map(|t| t.events()).unwrap_or_default();
            spans::breakdown(&events).metrics(threads)
        })
        .collect();
    let calls: Vec<f64> = secs_to_ms(&plain.iter().flat_map(Repeat::call_secs).collect::<Vec<_>>());
    let runner: Vec<f64> = secs_to_ms(
        &plain
            .iter()
            .flat_map(Repeat::runner_secs)
            .collect::<Vec<_>>(),
    );
    let wall = |reps: &[Repeat]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let (plain_wall, traced_wall) = (wall(&plain).unwrap_or(0.0), wall(&traced).unwrap_or(0.0));

    let mut metrics = combine(&span_metrics);
    metrics.push(Metric::new(
        "core.fedhisyn.round_ms",
        "ms",
        median(&calls),
        calls.len(),
    ));
    metrics.push(Metric::new(
        "core.runner.overhead_ms",
        "ms",
        median(&runner),
        runner.len(),
    ));
    metrics.push(Metric::ratio(
        "trace_overhead_frac",
        "frac",
        Ratio {
            num: traced_wall - plain_wall,
            den: plain_wall,
        },
        plain.len() + traced.len(),
    ));
    metrics.extend(counters(&plain[0].record));
    let (env, _, _) = setup(&cfg);
    let (micro_metrics, problems) = micro::micro_pass(&cfg, &env, args.seed);
    metrics.extend(micro_metrics);
    gate.problems
        .extend(problems.into_iter().map(|p| format!("micro-pass: {p}")));
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cfg = w.config(args.workload_seed);
    println!(
        "{}",
        host::stamp(
            w.name(),
            &cfg.codec.label(),
            args.seed,
            args.workload_seed,
            args.trace
        )
    );
    run_repeat(&cfg, WARMUP_ROUNDS, None);
    let mut gate = Gate::new(w);
    let metrics = if args.trace {
        per_layer(&args, &mut gate)
    } else {
        end_to_end(&args, &mut gate)
    };
    for m in &metrics {
        println!("{}", m.line());
    }
    for p in &gate.problems {
        println!("FAIL: {p}");
    }
    let correct = gate.problems.is_empty();
    println!(
        "failed rounds: {} of {} attempted",
        gate.failed, gate.attempted
    );
    println!(
        "{}",
        result_json(correct, gate.attempted, gate.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_core::RoundRecord;
    use fedhisyn_telemetry::RoundTelemetry;

    fn record(telemetry: &[RoundTelemetry]) -> RunRecord {
        let mut rec = RunRecord::new("synthetic");
        for (round, &t) in telemetry.iter().enumerate() {
            rec.rounds.push(RoundRecord {
                round,
                accuracy: 0.5,
                uploads: 0.0,
                downloads: 0.0,
                peer_transfers: 0.0,
                wire_bytes: t.wire_bytes,
                participants: 1,
                virtual_time: round as f64,
                telemetry: t,
            });
        }
        rec
    }

    #[test]
    fn counters_normalise_per_round_and_ratios_carry_bases() {
        let round = |hits, realised| RoundTelemetry {
            wire_bytes: 100.0,
            raw_bytes: 400.0,
            retransmit_bytes: 10.0,
            cache_hits: hits,
            cache_misses: 1,
            arena_high_water_bytes: 64 * hits,
            data_shards_realised: realised,
            data_shard_cache_hits: 6,
            fleet_realised_devices: 9,
            ..RoundTelemetry::default()
        };
        let ms = counters(&record(&[round(3, 2), round(1, 4)]));
        let get = |name: &str| ms.iter().find(|m| m.name == name).expect(name);
        assert_eq!(
            get("core.engine.cache_hit_ratio").base,
            Some(Ratio { num: 4.0, den: 6.0 })
        );
        assert_eq!(get("nn.arena.high_water_bytes").value, Some(192.0));
        assert_eq!(
            get("nn.wire.compression_ratio").base,
            Some(Ratio {
                num: 800.0,
                den: 200.0
            })
        );
        assert_eq!(get("simnet.retransmit_bytes_per_round").value, Some(10.0));
        // Data and fleet counters are cumulative: the last round holds the run's total.
        assert_eq!(get("data.shards_realised_per_round").value, Some(2.0));
        assert_eq!(
            get("data.shard_cache_hit_ratio").base,
            Some(Ratio {
                num: 6.0,
                den: 10.0
            })
        );
        assert_eq!(get("fleet.realised_devices").value, Some(9.0));
        for m in &ms {
            if m.name.ends_with("_ratio") {
                assert!(m.base.is_some(), "{} has no base", m.name);
            }
        }
    }

    #[test]
    fn combine_takes_medians_and_pools_ratio_bases() {
        let run = |v: f64, num: f64| {
            vec![
                Metric::new("a_ms", "ms", Some(v), 1),
                Metric::ratio("b_ratio", "ratio", Ratio { num, den: 4.0 }, 1),
            ]
        };
        let c = combine(&[run(1.0, 1.0), run(5.0, 2.0), run(3.0, 3.0)]);
        assert_eq!(c[0].value, Some(3.0));
        assert_eq!(c[0].samples, 3);
        assert_eq!(
            c[1].base,
            Some(Ratio {
                num: 6.0,
                den: 12.0
            })
        );
        assert_eq!(c[1].value, Some(0.5));
    }
}
