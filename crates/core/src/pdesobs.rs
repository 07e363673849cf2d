//! Observability wiring for sharded PDES runs.
//!
//! `spider-obs` depends on `spider-simkit`, so the engine itself cannot
//! call the sinks — instead [`ShardedEngine::run_with_observer`] hands its
//! observer a deterministic [`EpochReport`] after every barrier, and this
//! module turns those reports into counters, gauges, and trace spans.
//! Everything emitted is a pure function of the model (epoch indices,
//! simulated-time window edges, event counts), so the obs determinism
//! contract holds: two runs at the same seed produce byte-identical metric
//! and trace files, and obs-off runs skip every sink call entirely
//! (`tests/obs_determinism.rs`).
//!
//! [`ShardedEngine::run_with_observer`]: spider_simkit::ShardedEngine::run_with_observer

use spider_obs::ArgValue;
use spider_simkit::{EpochReport, PdesStats};

/// Trace track (viewer lane) for PDES epoch spans. Experiments occupy
/// tracks 1..=20 (their E-numbers); engine internals live well clear.
pub const PDES_TRACK: u32 = 90;

/// An observer for [`run_with_observer`] that emits one span per epoch
/// batch (positioned at the window's simulated-time edges) plus the
/// per-epoch counters and queue high-water gauge. `run_with_observer`
/// invokes it in epoch order, so sink writes are deterministic by
/// construction.
///
/// [`run_with_observer`]: spider_simkit::ShardedEngine::run_with_observer
pub fn epoch_observer(name: &'static str) -> impl FnMut(&EpochReport) {
    move |r: &EpochReport| {
        if spider_obs::enabled() {
            spider_obs::span(
                PDES_TRACK,
                r.start.as_nanos(),
                r.end.as_nanos().saturating_sub(r.start.as_nanos()),
                &format!("{name}/epoch"),
                &[
                    ("epoch", ArgValue::U64(r.index)),
                    ("events", ArgValue::U64(r.events)),
                    ("messages", ArgValue::U64(r.messages)),
                ],
            );
            spider_obs::counter_add("pdes_epochs", 1);
            spider_obs::counter_add("pdes_cross_shard_messages", r.messages);
            spider_obs::queue_high_water_gauge("pdes", r.queue_high_water);
            // Live feed, also in epoch order: the poller advances to each
            // epoch's window end and sees per-epoch event/message loads as
            // `(metric, run-name)` series, so detector verdicts are
            // deterministic.
            if spider_obs::live_enabled() {
                spider_obs::live_tick(r.end.as_nanos());
                spider_obs::live_sample("pdes_epoch_events", name, r.events as f64);
                spider_obs::live_sample("pdes_epoch_messages", name, r.messages as f64);
            }
        }
    }
}

/// Record a finished sharded run's totals.
pub fn record_run(stats: &PdesStats) {
    if spider_obs::enabled() {
        spider_obs::counter_add("pdes_runs", 1);
        spider_obs::counter_add("pdes_shards", stats.shards as u64);
        spider_obs::counter_add("pdes_events_fired", stats.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simkit::{PdesConfig, Shard, ShardCtx, ShardedEngine, SimDuration, SimTime};

    struct Pulse;
    impl Shard for Pulse {
        type Event = u32;
        type Out = ();
        fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, u32>, left: u32) {
            if left > 0 {
                let dst = (ctx.shard() + 1) % ctx.shards();
                ctx.send_in(dst, ctx.lookahead(), left - 1);
            }
        }
        fn finish(self) {}
    }

    #[test]
    fn observer_is_inert_when_obs_is_off() {
        // With obs disabled (the default in tests) the observer must not
        // touch the sinks — it still has to be callable without panicking.
        assert!(!spider_obs::enabled());
        let cfg = PdesConfig::new(SimDuration::from_secs(1), SimTime::from_secs(30), 7);
        let mut eng = ShardedEngine::new(cfg, vec![Pulse, Pulse, Pulse]);
        eng.schedule(0, SimTime::from_secs(1), 10);
        let run = eng.run_with_observer(epoch_observer("test"));
        record_run(&run.stats);
        assert_eq!(run.stats.cross_messages, 10);
    }
}
