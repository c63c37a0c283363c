//! One repeat of a workload through the public API, timed from outside:
//! `build_env` + `FedHiSyn::new` (set-up), then `run_experiment` with the
//! algorithm wrapped so that every `round()` call is stamped.

use std::time::Instant;

use fedhisyn_core::{
    run_experiment, ExperimentConfig, FedHiSyn, FlAlgorithm, FlEnv, RoundContext, RunRecord,
};
use fedhisyn_nn::ParamVec;
use fedhisyn_telemetry::TelemetrySink;

use crate::derive::{crossing, intervals};
use crate::workload::K;

/// Wall-clock stamps of one `round()` call, seconds since the run began.
#[derive(Debug, Clone, Copy)]
struct RoundCall {
    /// Round index the runner passed in.
    round: usize,
    /// When the call started.
    start_s: f64,
    /// When it returned.
    end_s: f64,
}

/// Delegating [`FlAlgorithm`] that stamps each `round()` call and changes
/// nothing else.
struct Timed<A> {
    inner: A,
    origin: Instant,
    calls: Vec<RoundCall>,
}

impl<A: FlAlgorithm> FlAlgorithm for Timed<A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn participation(&self) -> f64 {
        self.inner.participation()
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        let start_s = self.origin.elapsed().as_secs_f64();
        let global = self.inner.round(ctx);
        self.calls.push(RoundCall {
            round: ctx.round,
            start_s,
            end_s: self.origin.elapsed().as_secs_f64(),
        });
        global
    }

    fn round_duration(&self, env: &FlEnv, participants: &[usize], round: usize) -> f64 {
        self.inner.round_duration(env, participants, round)
    }
}

/// Everything one repeat produced.
pub struct Repeat {
    /// The program's own record of the run.
    pub record: RunRecord,
    /// `build_env` + `FedHiSyn::new`, seconds.
    pub setup_s: f64,
    /// `run_experiment`, seconds.
    pub wall_s: f64,
    /// One entry per `round()` call (blackout rounds make none).
    calls: Vec<RoundCall>,
    /// The sink the run wrote spans to (disabled for untraced repeats).
    pub sink: TelemetrySink,
}

/// Build the workload afresh and run it for `rounds` rounds. With
/// `trace = Some(capacity)` the run records spans into a sink of that
/// capacity.
pub fn run_repeat(cfg: &ExperimentConfig, rounds: usize, trace: Option<usize>) -> Repeat {
    let (mut env, algo, setup_s) = setup(cfg);
    if let Some(capacity) = trace {
        env.telemetry = TelemetrySink::enabled(capacity);
    }
    let mut timed = Timed {
        inner: algo,
        origin: Instant::now(),
        calls: Vec::with_capacity(rounds),
    };
    let record = run_experiment(&mut timed, &mut env, rounds);
    let wall_s = timed.origin.elapsed().as_secs_f64();
    Repeat {
        record,
        setup_s,
        wall_s,
        calls: timed.calls,
        sink: env.telemetry,
    }
}

/// The set-up a user pays before the first round, timed.
pub fn setup(cfg: &ExperimentConfig) -> (FlEnv, FedHiSyn, f64) {
    let t = Instant::now();
    let env = cfg.build_env();
    let algo = FedHiSyn::new(cfg, K);
    (env, algo, t.elapsed().as_secs_f64())
}

impl Repeat {
    /// Rounds completed per wall second.
    pub fn rounds_per_s(&self) -> f64 {
        self.record.rounds.len() as f64 / self.wall_s
    }

    /// Per-round wall time, seconds: from one `round()` call's start to
    /// the next (the last closed by the end of the run).
    pub fn round_walls(&self) -> Vec<f64> {
        let starts: Vec<f64> = self.calls.iter().map(|c| c.start_s).collect();
        intervals(&starts, self.wall_s)
    }

    /// Duration of each `round()` call, seconds.
    pub fn call_secs(&self) -> Vec<f64> {
        self.calls.iter().map(|c| c.end_s - c.start_s).collect()
    }

    /// Runner time per round outside `round()`: evaluation, telemetry
    /// fold and the next round's cohort sampling, seconds.
    pub fn runner_secs(&self) -> Vec<f64> {
        self.round_walls()
            .iter()
            .zip(self.call_secs())
            .map(|(w, c)| w - c)
            .collect()
    }

    /// Index of the first round at or above `target`.
    pub fn crossing(&self, target: f32) -> Option<usize> {
        crossing(&self.record.accuracy_series(), target)
    }

    /// Wall seconds from the start of the run until the crossing round had
    /// been evaluated (the next round's start, or the end of the run).
    pub fn tta_wall_s(&self, target: f32) -> Option<f64> {
        let c = self.crossing(target)?;
        Some(
            self.calls
                .iter()
                .find(|call| call.round > c)
                .map_or(self.wall_s, |call| call.start_s),
        )
    }
}
