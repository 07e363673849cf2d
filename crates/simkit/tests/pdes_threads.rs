//! Differential test for the sharded PDES engine.
//!
//! The determinism contract: a `ShardedEngine` epoch run matches the
//! global-order sequential oracle bit for bit on tie-free models.

use spider_simkit::{
    OnlineStats, PdesConfig, PdesRun, Shard, ShardCtx, ShardedEngine, SimDuration, SimTime,
};

/// A float-heavy cross-shard traffic model: every shard runs a self-clocked
/// local arrival process (Welford stats over exponential draws) and
/// scatters messages to every other shard with continuous (float-derived)
/// latencies at or above the lookahead. Accumulation order inside a shard
/// would expose any scheduling dependence.
struct Traffic {
    stats: OnlineStats,
    received: u64,
    checksum: f64,
}

#[derive(Debug)]
enum Ev {
    Tick(u32),
    Msg(f64),
}

const LOOKAHEAD: SimDuration = SimDuration::from_millis(250);

impl Shard for Traffic {
    type Event = Ev;
    type Out = (OnlineStats, u64, f64);

    fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, Ev>, ev: Ev) {
        match ev {
            Ev::Tick(remaining) => {
                let rate = 1.0 + ctx.shard() as f64;
                let x = ctx.rng().exp(rate);
                self.stats.push(x);
                // Scatter to every peer, latency >= lookahead, fractional.
                for dst in 0..ctx.shards() {
                    if dst != ctx.shard() {
                        let extra = SimDuration::from_secs_f64(ctx.rng().f64() * 0.7);
                        ctx.send_in(dst, LOOKAHEAD + extra, Ev::Msg(x));
                    }
                }
                if remaining > 0 {
                    let gap = SimDuration::from_secs_f64(0.1 + ctx.rng().f64());
                    ctx.schedule_in(gap, Ev::Tick(remaining - 1));
                }
            }
            Ev::Msg(x) => {
                self.received += 1;
                self.checksum += x * 0.5;
            }
        }
    }

    fn finish(self) -> (OnlineStats, u64, f64) {
        (self.stats, self.received, self.checksum)
    }
}

fn build(shards: usize) -> ShardedEngine<Traffic> {
    let cfg = PdesConfig::new(LOOKAHEAD, SimTime::from_secs(120), 0xD15C);
    let mut eng = ShardedEngine::new(
        cfg,
        (0..shards)
            .map(|_| Traffic {
                stats: OnlineStats::new(),
                received: 0,
                checksum: 0.0,
            })
            .collect(),
    );
    for s in 0..shards {
        eng.schedule(s, SimTime::from_secs_f64(0.05 * s as f64), Ev::Tick(60));
    }
    eng
}

fn fingerprint(run: &PdesRun<(OnlineStats, u64, f64)>) -> Vec<u64> {
    let mut bits = Vec::new();
    for (stats, received, checksum) in &run.outs {
        bits.push(stats.mean().to_bits());
        bits.push(stats.variance().to_bits());
        bits.push(stats.count());
        bits.push(*received);
        bits.push(checksum.to_bits());
    }
    bits.push(run.stats.events);
    bits.push(run.stats.cross_messages);
    bits.push(run.stats.epochs);
    bits
}

#[test]
fn pdes_epoch_run_is_bit_identical_to_the_sequential_oracle() {
    let run = build(16).run();

    // Shard-count-preserving oracle: global (time, shard) order, immediate
    // delivery, no barriers — per-shard outputs must still match bit for
    // bit (epoch/barrier stats differ by construction).
    let oracle = build(16).run_sequential();
    let strip = |mut f: Vec<u64>| {
        f.pop(); // epochs
        f
    };
    assert_eq!(
        strip(fingerprint(&run)),
        strip(fingerprint(&oracle)),
        "epoch run vs sequential oracle"
    );
    assert!(
        run.stats.cross_messages > 10_000,
        "model exercises mailboxes"
    );
}
