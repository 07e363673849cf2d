//! `flow_churn`: a seeded random job storm on the full Spider II centre,
//! run through the event-driven `run_timestep` over a 2 h horizon.
//!
//! The max-min session solves that are a fraction of a percent of `figures`
//! do almost all of the work here. The traced run also replays the storm's
//! arrivals and completions through a `FlowSession` and times every solve.

use std::time::Instant;

use spider_core::flowsim::{FlowSession, FlowTest, TestId};
use spider_core::timestep::{run_timestep, Job, TimestepConfig, TimestepResult};
use spider_core::{Center, CenterConfig, Table};
use spider_simkit::{SimDuration, SimRng, SimTime, KIB, MIB};

use crate::out::Report;
use crate::{derive_seed, render, Spans, Workload};

/// Jobs in one storm.
const JOBS: usize = 360;

/// The storm. Every seed draws the same multiset of job shapes — reads and
/// writes (60% writes), 16 KiB and 1 MiB transfers, 16..2048 clients,
/// 256 MiB..16 GiB per client — and the same arrival density: one arrival
/// per slot of 90% of the horizon / `JOBS`, at a random point in its slot.
/// The seed decides which shape arrives in which slot and on which
/// namespace, so seeds differ in how jobs overlap, not in how much work
/// the storm holds.
fn storm(seed: u64, namespaces: usize, horizon: SimDuration) -> Vec<Job> {
    let mut rng = SimRng::seed_from_u64(derive_seed(0xF10C, seed));
    let mut shapes: Vec<u64> = (0..JOBS as u64).collect();
    rng.shuffle(&mut shapes);
    let slot = horizon.mul_f64(0.9 / JOBS as f64);
    shapes
        .into_iter()
        .enumerate()
        .map(|(j, k)| Job {
            fs: rng.index(namespaces),
            clients: 16 << (k % 8),
            bytes_per_client: ((k * 37) % 64 + 1) * 256 * MIB,
            transfer_size: if k / 8 % 2 == 0 { 16 * KIB } else { MIB },
            start: SimTime::ZERO + slot.mul_f64(j as f64 + rng.f64()),
            write: k % 5 < 3,
            optimal_placement: k / 16 % 2 == 0,
        })
        .collect()
}

fn test_of(j: &Job) -> FlowTest {
    FlowTest {
        fs: j.fs,
        clients: j.clients,
        transfer_size: j.transfer_size,
        write: j.write,
        optimal_placement: j.optimal_placement,
    }
}

pub struct FlowChurn {
    center: Center,
    jobs: Vec<Job>,
    cfg: TimestepConfig,
}

impl FlowChurn {
    pub fn new(seed: u64) -> Self {
        let center = Center::build(CenterConfig::spider2());
        let cfg = TimestepConfig::default();
        let jobs = storm(seed, center.namespaces(), cfg.horizon);
        FlowChurn { center, jobs, cfg }
    }

    /// Byte conservation and sanity: the unit tests' invariants, per job.
    fn check(&self, res: &TimestepResult, rep: &mut Report) {
        let mut short = 0u64;
        for (i, j) in self.jobs.iter().enumerate() {
            let total = u128::from(j.bytes_per_client) * u128::from(j.clients);
            let moved = u128::from(res.bytes_moved[i]);
            rep.check(moved <= total, || {
                format!("job {i} moved {moved} B of {total} B")
            });
            if res.completions[i].is_some() {
                // The engine completes a job once at most 1 B remains and
                // does not credit that remainder to `bytes_moved`, so a
                // completed job may read 1 B short; those are counted.
                rep.check(total.abs_diff(moved) <= 1, || {
                    format!("completed job {i} moved {moved} B, not {total} B")
                });
                short += u64::from(moved != total);
            }
        }
        rep.counter("flow_churn.completed_1b_short", short);
        for (fs, log) in res.namespace_logs.iter().enumerate() {
            rep.check(log.bins().iter().all(|b| b.is_finite()), || {
                format!("namespace {fs} log holds a non-finite rate")
            });
            // Event-driven stepping logs what it moves: one byte of slack
            // per job, as in `logs_conserve_bytes`.
            let (jobs, moved) = self
                .jobs
                .iter()
                .zip(&res.bytes_moved)
                .filter(|(j, _)| j.fs == fs)
                .fold((0u64, 0u64), |(n, b), (_, m)| (n + 1, b + m));
            let logged = log.total();
            rep.check((logged - moved as f64).abs() <= jobs as f64, || {
                format!("namespace {fs} logged {logged} B but moved {moved} B")
            });
        }
    }

    /// Counters, outcome digest and invariant checks for one result.
    fn report(&self, res: &TimestepResult, rep: &mut Report) -> String {
        self.check(res, rep);
        let mut outcomes = Table::new(
            "flow_churn: job outcomes",
            &["job", "completion ns", "bytes moved"],
        );
        for (i, (c, b)) in res.completions.iter().zip(&res.bytes_moved).enumerate() {
            outcomes.row(vec![
                i.to_string(),
                c.map_or_else(|| "-".into(), |t| t.as_nanos().to_string()),
                b.to_string(),
            ]);
        }
        let completed = res.completions.iter().filter(|c| c.is_some()).count();
        rep.counter("flow_churn.jobs", self.jobs.len() as u64);
        rep.counter("flow_churn.completed", completed as u64);
        rep.counter("core.timestep.solves", res.solves);
        rep.counter("core.timestep.steps", res.steps);
        let s = res.solver.clone().unwrap_or_default();
        for (name, v) in [
            ("net.session.rounds_executed", s.rounds_executed),
            ("net.session.rounds_saved", s.rounds_saved),
            ("net.session.cache_hits", s.cache_hits),
            ("net.session.cache_misses", s.cache_misses),
            ("net.session.components_resolved", s.components_resolved),
            ("net.session.components_skipped", s.components_skipped),
            ("net.session.memo_evictions", s.memo_evictions),
        ] {
            rep.counter(name, v);
        }
        render(&[outcomes])
    }

    /// Replay the storm's arrivals and completions through one resident
    /// session, timing each `FlowSession::solve`. Returns the solve times
    /// in ms and whether every solved rate was finite.
    fn replay(&self, res: &TimestepResult) -> (Vec<f64>, bool) {
        // (time, is arrival, job): completions sort before arrivals.
        let mut events: Vec<(SimTime, bool, usize)> = Vec::new();
        for (i, j) in self.jobs.iter().enumerate() {
            events.push((j.start, true, i));
            if let Some(t) = res.completions[i] {
                events.push((t, false, i));
            }
        }
        events.sort_unstable();

        let mut session = FlowSession::new(&self.center);
        let mut live: Vec<Option<TestId>> = vec![None; self.jobs.len()];
        let mut times_ms = Vec::new();
        let mut finite = true;
        let mut k = 0;
        while k < events.len() {
            let t = events[k].0;
            while k < events.len() && events[k].0 == t {
                let (_, arrival, i) = events[k];
                if arrival {
                    live[i] = Some(session.add_test(&test_of(&self.jobs[i])));
                } else if let Some(id) = live[i].take() {
                    session.remove_test(id);
                }
                k += 1;
            }
            if session.active_len() > 0 {
                let start = Instant::now();
                session.solve();
                times_ms.push(start.elapsed().as_secs_f64() * 1e3);
                finite &= live
                    .iter()
                    .flatten()
                    .all(|&id| session.aggregate_of(id).as_bytes_per_sec().is_finite());
            }
        }
        (times_ms, finite)
    }
}

/// `q`-quantile of sorted samples (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl Workload for FlowChurn {
    fn run(&mut self, rep: &mut Report) {
        let res = run_timestep(&self.center, &self.jobs, &self.cfg);
        let text = self.report(&res, rep);
        rep.digest("flow_churn", &text);
    }

    fn trace(&mut self, spans: &mut Spans, rep: &mut Report) {
        let res = spans.span("core.timestep.run_s", || {
            run_timestep(&self.center, &self.jobs, &self.cfg)
        });
        let text = spans.span("core.report.render_s", || self.report(&res, rep));
        rep.digest("flow_churn", &text);

        let (mut ms, finite) = spans.probe("core.flowsim.replay_s", || self.replay(&res));
        rep.check(finite, || "a replayed solve gave a non-finite rate".into());
        ms.sort_by(f64::total_cmp);
        // The highest of p99.9/p99/p90 with at least ten samples beyond it.
        let n = ms.len();
        let tail = [0.999, 0.99, 0.9]
            .into_iter()
            .find(|q| (1.0 - q) * n as f64 >= 10.0)
            .unwrap_or(0.5);
        rep.counter("core.flowsim.solve_samples", n as u64);
        if n > 0 {
            rep.layer("core.flowsim.solve_p50_ms", quantile(&ms, 0.5));
            rep.layer("core.flowsim.solve_tail_ms", quantile(&ms, tail));
            rep.layer("core.flowsim.solve_tail_pct", tail * 100.0);
        }
    }
}
