//! Per-layer wall time of a traced run, read from the phase spans the
//! program already emits.
//!
//! Nesting (by round, and by lane inside a round):
//! `round` ⊃ {`clustering`, `ring_interval` per lane, `aggregation`,
//! `evaluation`}; `ring_interval` ⊃ {`local_train`, `relay_hop`,
//! `relay_attempt`} of the same lane. A span's self time is its duration
//! minus the union of its children.

use std::collections::BTreeMap;

use fedhisyn_telemetry::{Phase, SpanEvent};

use crate::derive::{self_time, Metric, Ratio};

/// Span totals over a whole traced run, nanoseconds and counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Rounds with a `round` span.
    pub rounds: u64,
    /// Σ `clustering` span time.
    pub clustering_ns: u64,
    /// Σ `ring_interval` span time over every lane.
    pub lane_ns: u64,
    /// Σ over rounds of the ring phase: first lane start to last lane end.
    pub ring_phase_ns: u64,
    /// Σ `local_train` span time.
    pub local_train_ns: u64,
    /// `local_train` spans.
    pub local_train_calls: u64,
    /// Σ lane self time: codec transforms, relay copies and retry
    /// bookkeeping between local steps.
    pub relay_self_ns: u64,
    /// Delivered relay hops (`relay_hop` spans).
    pub hops: u64,
    /// Retransmission attempts (`relay_attempt` spans).
    pub retries: u64,
    /// Σ `aggregation` span time.
    pub aggregation_ns: u64,
    /// Σ `evaluation` span time.
    pub evaluation_ns: u64,
    /// Σ round self time: cohort sampling, broadcast codec, ring set-up
    /// and telemetry fold.
    pub runner_other_ns: u64,
}

fn wall(e: &SpanEvent) -> (u64, u64) {
    (e.wall_start_ns, e.wall_end_ns)
}

fn dur(e: &SpanEvent) -> u64 {
    e.wall_end_ns - e.wall_start_ns
}

/// Fold a traced run's spans into per-layer totals.
pub fn breakdown(events: &[SpanEvent]) -> Breakdown {
    let mut by_round: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
    for e in events {
        by_round.entry(e.round).or_default().push(e);
    }
    let mut b = Breakdown::default();
    for spans in by_round.values() {
        let of = |p: Phase| spans.iter().copied().filter(move |e| e.phase == p);
        let lanes: Vec<&SpanEvent> = of(Phase::RingInterval).collect();
        for lane in &lanes {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|e| {
                    e.lane == lane.lane
                        && matches!(
                            e.phase,
                            Phase::LocalTrain | Phase::RelayHop | Phase::RelayAttempt
                        )
                })
                .map(|e| wall(e))
                .collect();
            b.lane_ns += dur(lane);
            b.relay_self_ns += self_time(wall(lane), &children);
        }
        if let (Some(first), Some(last)) = (
            lanes.iter().map(|e| e.wall_start_ns).min(),
            lanes.iter().map(|e| e.wall_end_ns).max(),
        ) {
            b.ring_phase_ns += last - first;
        }
        for e in of(Phase::LocalTrain) {
            b.local_train_ns += dur(e);
            b.local_train_calls += 1;
        }
        b.hops += of(Phase::RelayHop).count() as u64;
        b.retries += of(Phase::RelayAttempt).count() as u64;
        b.clustering_ns += of(Phase::Clustering).map(dur).sum::<u64>();
        b.aggregation_ns += of(Phase::Aggregation).map(dur).sum::<u64>();
        b.evaluation_ns += of(Phase::Evaluation).map(dur).sum::<u64>();
        let children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|e| {
                matches!(
                    e.phase,
                    Phase::Clustering
                        | Phase::RingInterval
                        | Phase::Aggregation
                        | Phase::Evaluation
                )
            })
            .map(|e| wall(e))
            .collect();
        for round in of(Phase::Round) {
            b.rounds += 1;
            b.runner_other_ns += self_time(wall(round), &children);
        }
    }
    b
}

impl Breakdown {
    /// The span-derived per-layer metrics; `threads` is the pool size the
    /// ring lanes shared.
    pub fn metrics(&self, threads: usize) -> Vec<Metric> {
        let rounds = self.rounds.max(1) as f64;
        let n = self.rounds as usize;
        let ms = |ns: u64| Some(ns as f64 / 1e6 / rounds);
        let attempts = self.hops + self.retries;
        vec![
            Metric::new(
                "cluster.kmeans.ms_per_round",
                "ms",
                ms(self.clustering_ns),
                n,
            ),
            Metric::new("core.ring.lane_ms_per_round", "ms", ms(self.lane_ns), n),
            Metric::ratio(
                "core.ring.parallel_eff",
                "ratio",
                Ratio {
                    num: self.lane_ns as f64,
                    den: self.ring_phase_ns as f64 * threads as f64,
                },
                n,
            ),
            Metric::new(
                "core.local_train.ms_per_round",
                "ms",
                ms(self.local_train_ns),
                n,
            ),
            Metric::new(
                "core.local_train.us_per_call",
                "us",
                (self.local_train_calls > 0)
                    .then(|| self.local_train_ns as f64 / 1e3 / self.local_train_calls as f64),
                self.local_train_calls as usize,
            ),
            Metric::new(
                "core.local_train.calls_per_round",
                "count",
                Some(self.local_train_calls as f64 / rounds),
                n,
            ),
            Metric::new(
                "core.relay.self_ms_per_round",
                "ms",
                ms(self.relay_self_ns),
                n,
            ),
            Metric::new(
                "simnet.relay.attempts_per_round",
                "count",
                Some(attempts as f64 / rounds),
                n,
            ),
            Metric::ratio(
                "simnet.relay.goodput_ratio",
                "ratio",
                Ratio {
                    num: self.hops as f64,
                    den: attempts as f64,
                },
                n,
            ),
            Metric::new(
                "core.aggregation.ms_per_round",
                "ms",
                ms(self.aggregation_ns),
                n,
            ),
            Metric::new(
                "core.evaluation.ms_per_round",
                "ms",
                ms(self.evaluation_ns),
                n,
            ),
            Metric::new(
                "core.runner.other_ms_per_round",
                "ms",
                ms(self.runner_other_ns),
                n,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_telemetry::NO_ID;

    fn span(phase: Phase, round: u32, lane: u32, wall: (u64, u64)) -> SpanEvent {
        SpanEvent {
            phase,
            round,
            lane,
            device: NO_ID,
            seq: 0,
            vt_start: 0.0,
            vt_end: 0.0,
            wall_start_ns: wall.0,
            wall_end_ns: wall.1,
        }
    }

    /// One round on two threads: two lanes overlapping in time, each with
    /// local steps and instant relay hops, one retry on lane 1.
    fn one_round() -> Vec<SpanEvent> {
        vec![
            span(Phase::Clustering, 0, NO_ID, (10, 20)),
            span(Phase::LocalTrain, 0, 0, (100, 300)),
            span(Phase::RelayHop, 0, 0, (300, 300)),
            span(Phase::LocalTrain, 0, 0, (320, 500)),
            span(Phase::RingInterval, 0, 0, (100, 500)),
            span(Phase::LocalTrain, 0, 1, (200, 550)),
            span(Phase::RelayAttempt, 0, 1, (550, 550)),
            span(Phase::RelayHop, 0, 1, (560, 560)),
            span(Phase::RingInterval, 0, 1, (200, 600)),
            span(Phase::Aggregation, 0, NO_ID, (610, 700)),
            span(Phase::Evaluation, 0, NO_ID, (700, 900)),
            span(Phase::Round, 0, NO_ID, (0, 1000)),
        ]
    }

    #[test]
    fn breakdown_subtracts_children_per_lane_and_per_round() {
        let b = breakdown(&one_round());
        assert_eq!(
            b,
            Breakdown {
                rounds: 1,
                clustering_ns: 10,
                lane_ns: 400 + 400,
                ring_phase_ns: 500,
                local_train_ns: 200 + 180 + 350,
                local_train_calls: 3,
                // Lane 0: 400 − 380 covered; lane 1: 400 − 350 covered.
                relay_self_ns: 20 + 50,
                hops: 2,
                retries: 1,
                aggregation_ns: 90,
                evaluation_ns: 200,
                // Children cover 10..20, 100..600, 610..900.
                runner_other_ns: 1000 - 10 - 500 - 290,
            }
        );
    }

    #[test]
    fn rounds_are_kept_apart() {
        let mut evs = one_round();
        evs.extend(one_round().into_iter().map(|mut e| {
            e.round = 1;
            e.wall_start_ns += 1000;
            e.wall_end_ns += 1000;
            e
        }));
        let b = breakdown(&evs);
        assert_eq!(b.rounds, 2);
        assert_eq!(b.ring_phase_ns, 1000);
        assert_eq!(b.relay_self_ns, 140);
    }

    #[test]
    fn metrics_normalise_per_round_and_carry_bases() {
        let ms = breakdown(&one_round()).metrics(2);
        let get = |name: &str| ms.iter().find(|m| m.name == name).expect(name);
        let eff = get("core.ring.parallel_eff");
        assert_eq!(
            eff.base,
            Some(Ratio {
                num: 800.0,
                den: 1000.0
            })
        );
        assert_eq!(eff.value, Some(0.8));
        let goodput = get("simnet.relay.goodput_ratio");
        assert_eq!(goodput.base, Some(Ratio { num: 2.0, den: 3.0 }));
        assert_eq!(get("simnet.relay.attempts_per_round").value, Some(3.0));
        assert_eq!(get("core.local_train.calls_per_round").value, Some(3.0));
        assert_eq!(
            get("core.local_train.us_per_call").value,
            Some(730.0 / 1e3 / 3.0)
        );
        for m in &ms {
            if m.name.ends_with("_ratio") || m.name.ends_with("_eff") {
                assert!(m.base.is_some(), "{} has no base", m.name);
            }
        }
    }
}
