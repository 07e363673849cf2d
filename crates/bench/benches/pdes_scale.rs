//! Sharded PDES scaling: one big simulation split across shards.
//!
//! Two workloads, both with a single-engine or global-order path kept as
//! the differential oracle (results are asserted bit-identical inside this
//! bench):
//!
//! 1. **Interference storm** (`rpcsim`): a mixed analytics + checkpoint
//!    trace against >= 16 OSTs, one shard per OST. The client -> OST map is
//!    static, so there is zero cross-shard traffic and the legal lookahead
//!    is the whole horizon — a single epoch window.
//! 2. **Federation storm** (E8d): cross-namespace metadata traffic with the
//!    1 ms cross-namespace RPC hop as the lookahead — thousands of epoch
//!    barriers and real cross-shard message flow.
//!
//! `--bench` writes `BENCH_pdes.json` (wall time, events/sec, barrier
//! count, cross-shard message ratio) into the workspace root; `--smoke`
//! writes it to `target/bench-smoke/`, leaving the committed snapshot
//! alone. A bare invocation (`cargo test` running the bench target)
//! shrinks the shapes and writes nothing.

use std::hint::black_box;
use std::time::Instant;

use spider_core::experiments::e08_namespaces::federation_storm;
use spider_core::rpcsim::{run_interference, run_interference_sharded};
use spider_pfs::ost::{Ost, OstId};
use spider_simkit::{SimDuration, SimRng};
use spider_storage::disk::{Disk, DiskId, DiskSpec};
use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};
use spider_workload::generator::{generate_trace, merge_traces};
use spider_workload::spec::{IoRequest, StreamSpec};

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke") || !std::env::args().any(|a| a == "--bench")
}

/// Where the JSON snapshot goes: `target/bench-smoke/` under `--smoke`
/// (checked first: `cargo bench` always passes `--bench`), the committed
/// workspace-root file under `--bench`, nowhere otherwise (`cargo test`
/// runs this binary with neither flag and must not dirty the worktree).
fn json_path() -> Option<std::path::PathBuf> {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    if std::env::args().any(|a| a == "--smoke") {
        let dir = root.join("target/bench-smoke");
        std::fs::create_dir_all(&dir).expect("target/ is writable");
        Some(dir.join("BENCH_pdes.json"))
    } else if std::env::args().any(|a| a == "--bench") {
        Some(root.join("BENCH_pdes.json"))
    } else {
        None
    }
}

fn osts(n: u32) -> Vec<Ost> {
    let cfg = RaidConfig::raid6_8p2();
    (0..n)
        .map(|g| {
            let members = (0..cfg.width())
                .map(|i| Disk::nominal(DiskId(g * 10 + i as u32), DiskSpec::nearline_sas_2tb()))
                .collect();
            Ost::new(OstId(g), RaidGroup::new(RaidGroupId(g), cfg, members))
        })
        .collect()
}

fn storm_trace(clients: u32, secs: u64) -> Vec<IoRequest> {
    let mut rng = SimRng::seed_from_u64(0x5C41E);
    let dur = SimDuration::from_secs(secs);
    let mut traces: Vec<_> = (0..clients)
        .map(|c| {
            let mut child = rng.fork(c as u64);
            generate_trace(&StreamSpec::analytics_read(), c, dur, &mut child)
        })
        .collect();
    traces.extend((0..clients).map(|c| {
        let mut child = rng.fork(1_000 + c as u64);
        generate_trace(
            &StreamSpec::checkpoint_restart(),
            clients + c,
            dur,
            &mut child,
        )
    }));
    merge_traces(traces)
}

/// Best-of-`iters` wall time in milliseconds.
fn time_ms<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

#[allow(clippy::too_many_lines)]
fn main() {
    spider_obs::init_from_env();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let (n_osts, clients, secs, fed_ns, fed_ops, iters) = if smoke() {
        (16u32, 16u32, 120u64, 8usize, 1_000u32, 3u32)
    } else {
        (32, 64, 600, 16, 10_000, 5)
    };

    // ---- interference storm, one shard per OST ----
    let osts = osts(n_osts);
    let trace = storm_trace(clients, secs);
    let horizon = SimDuration::from_secs(secs);

    let single_ms = time_ms(iters, || run_interference(&osts, &trace, horizon));
    let sharded_ms = time_ms(iters, || run_interference_sharded(&osts, &trace, horizon));

    // Determinism spot-check outside the timed loops: the single-engine
    // oracle and the sharded run must agree bit for bit.
    let (rep, istats) = run_interference_sharded(&osts, &trace, horizon);
    let oracle = run_interference(&osts, &trace, horizon);
    for (a, b) in [(&oracle.reads, &rep.reads), (&oracle.writes, &rep.writes)] {
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
    }

    // ---- federation storm, one shard per namespace ----
    let fed_ms = time_ms(iters, || {
        federation_storm(fed_ns, fed_ops, 0.2, 0xFED).run()
    });
    let oracle_ms = time_ms(iters, || {
        federation_storm(fed_ns, fed_ops, 0.2, 0xFED).run_sequential()
    });
    let fed = federation_storm(fed_ns, fed_ops, 0.2, 0xFED).run();
    let fed_oracle = federation_storm(fed_ns, fed_ops, 0.2, 0xFED).run_sequential();
    for (p, s) in fed.outs.iter().zip(&fed_oracle.outs) {
        assert_eq!(p.latency.mean().to_bits(), s.latency.mean().to_bits());
    }

    let ievents_per_sec = istats.events as f64 / (sharded_ms / 1e3);
    let fevents_per_sec = fed.stats.events as f64 / (fed_ms / 1e3);
    let fratio = fed.stats.cross_messages as f64 / fed.stats.events as f64;

    println!(
        "pdes_scale interference: {} shards, {} events, {} barriers, \
         single-engine {single_ms:.1}ms, sharded {sharded_ms:.1}ms",
        istats.shards, istats.events, istats.epochs
    );
    println!(
        "pdes_scale federation: {} shards, {} events, {} barriers, \
         cross-shard ratio {fratio:.3}, epochs {fed_ms:.1}ms, oracle {oracle_ms:.1}ms",
        fed.stats.shards, fed.stats.events, fed.stats.epochs
    );

    if let Some(path) = json_path() {
        let json = format!(
            r#"{{
  "machine": {{"cores": {cores}, "note": "wall times measured on this machine; shards step one after another within each epoch window. Sharding beats the single engine because each shard pops from a heap 1/shards the size. Event, barrier and message counts are deterministic; bit-identity with the oracles is asserted by this bench, by crates/simkit/tests/pdes_threads.rs and by tests/determinism.rs"}},
  "command": "cargo bench -p spider-bench --bench pdes_scale -- --bench",
  "shape": {{"interference_osts": {n_osts}, "interference_clients": {n_clients}, "trace_secs": {secs}, "federation_namespaces": {fed_ns}, "federation_ops_per_ns": {fed_ops}, "federation_remote_share": 0.2, "smoke": {is_smoke}}},
  "interference": {{
    "shards": {n_shards},
    "events": {ievents},
    "epoch_barriers": {iepochs},
    "cross_shard_message_ratio": 0.0,
    "wall_ms": {{"single_engine": {single_ms:.2}, "sharded": {sharded_ms:.2}}},
    "events_per_sec_sharded": {ieps:.0},
    "sharded_vs_single_engine": {ispeedup:.2}
  }},
  "federation": {{
    "shards": {fshards},
    "events": {fevents},
    "epoch_barriers": {fepochs},
    "cross_shard_messages": {fmsgs},
    "cross_shard_message_ratio": {fratio:.4},
    "wall_ms": {{"epochs": {fed_ms:.2}, "sequential_oracle": {oracle_ms:.2}}},
    "events_per_sec": {feps:.0}
  }}
}}
"#,
            n_shards = istats.shards,
            n_clients = clients,
            is_smoke = smoke(),
            ievents = istats.events,
            iepochs = istats.epochs,
            ieps = ievents_per_sec,
            ispeedup = single_ms / sharded_ms,
            fshards = fed.stats.shards,
            fevents = fed.stats.events,
            fepochs = fed.stats.epochs,
            fmsgs = fed.stats.cross_messages,
            feps = fevents_per_sec,
        );
        std::fs::write(&path, json).expect("bench output directory is writable");
        println!("pdes_scale: wrote {}", path.display());
    }
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
