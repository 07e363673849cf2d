//! Component structure of the flow engine: one-shot max-min solves,
//! component-scoped warm starts, and router-zone sharding.
//!
//! Three measurements, all against deterministic shapes:
//!
//! 1. **One-shot solve**: a block-structured `MaxMinProblem` (K independent
//!    zones) solved in one event loop, with the component count reported
//!    by `solve_with_stats`.
//! 2. **Warm starts on the checkpoint storm**: an E20-style storm where a
//!    heavy steady wave occupies several namespaces while a small churn job
//!    arrives and drains on another every minute. The session memoizes per
//!    component, so every churn event replays the steady zones from the
//!    memo and only the churned component runs. The headline is the ratio
//!    of rounds the memo saved to rounds executed (asserted >= 5x).
//! 3. **Router-zone sharding**: the same storm through
//!    `run_timestep_sharded` — shard-per-zone, zero cross-shard messages,
//!    a single epoch window.
//!
//! `--bench` writes `BENCH_components.json` into the workspace root;
//! `--smoke` writes it to `target/bench-smoke/`, leaving the committed
//! snapshot alone. A bare invocation (`cargo test` running the bench
//! target) shrinks the shapes and writes nothing.

use std::hint::black_box;
use std::time::Instant;

use spider_core::center::Center;
use spider_core::config::CenterConfig;
use spider_core::timestep::{run_timestep, run_timestep_sharded, Job, TimestepConfig};
use spider_net::{FlowSpec, MaxMinProblem};
use spider_simkit::{SimDuration, SimTime, MIB};

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
        Some(dir.join("BENCH_components.json"))
    } else if std::env::args().any(|a| a == "--bench") {
        Some(root.join("BENCH_components.json"))
    } else {
        None
    }
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

/// A block-structured problem: `zones` independent blocks of `res_per_zone`
/// resources and `flows_per_zone` flows whose paths stay inside their block.
/// Shapes are pure functions of the indices — no RNG, same problem every
/// run.
fn block_problem(
    zones: usize,
    res_per_zone: usize,
    flows_per_zone: usize,
) -> (MaxMinProblem, Vec<FlowSpec>) {
    let mut p = MaxMinProblem::new();
    let mut rs = Vec::new();
    for z in 0..zones {
        for j in 0..res_per_zone {
            rs.push(p.add_resource(4.0 + ((z * 7 + j * 3) % 13) as f64));
        }
    }
    let mut flows = Vec::new();
    for z in 0..zones {
        let base = z * res_per_zone;
        for k in 0..flows_per_zone {
            let len = 1 + (z + k) % 3;
            let path: Vec<_> = (0..len)
                .map(|h| rs[base + (k * 5 + h * 11) % res_per_zone])
                .collect();
            let mut f = FlowSpec::new(path).with_weight(0.5 + ((z + k * 2) % 7) as f64 * 0.75);
            if (z + k) % 5 == 0 {
                f = f.with_cap(0.25 + (k % 4) as f64);
            }
            flows.push(f);
        }
    }
    (p, flows)
}

/// The warm-start storm: `steady` heavy never-finishing jobs spread over
/// namespaces 1..`ns` (several large components whose shapes never change)
/// plus a staggered pair of short churn jobs per wave on fs 0 with strictly
/// increasing client counts (every churn event is a fresh shape, so the
/// churned component always misses — but the steady components'
/// signatures always hit).
fn warm_start_storm(ns: usize, steady: u32, waves: u64, period: SimDuration) -> Vec<Job> {
    let mut jobs = Vec::new();
    for k in 0..steady {
        jobs.push(Job {
            fs: 1 + (k as usize % (ns - 1)),
            clients: 4 + 3 * k,
            bytes_per_client: 1 << 40,
            transfer_size: MIB,
            start: SimTime::ZERO,
            write: true,
            optimal_placement: false,
        });
    }
    for w in 0..waves {
        for burst in 0..2u32 {
            jobs.push(Job {
                fs: 0,
                clients: 8 + 2 * w as u32 + burst,
                bytes_per_client: 1 << 30,
                transfer_size: MIB,
                start: SimTime::ZERO + period * w + SimDuration::from_secs(10 * burst as u64),
                write: true,
                optimal_placement: false,
            });
        }
    }
    jobs
}

#[allow(clippy::too_many_lines)]
fn main() {
    spider_obs::init_from_env();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let (zones, res_per_zone, flows_per_zone, steady, waves, iters) = if smoke() {
        (16usize, 6usize, 8usize, 32u32, 12u64, 3u32)
    } else {
        (64, 24, 40, 48, 40, 5)
    };

    // ---- 1. one-shot solve of a block-structured problem ----
    let (p, flows) = block_problem(zones, res_per_zone, flows_per_zone);
    let (_, stats) = p.solve_with_stats(&flows);
    assert_eq!(stats.components, zones as u64, "one component per block");
    let solve_ms = time_ms(iters, || p.solve(&flows));

    // ---- 2. component-scoped warm starts on the checkpoint storm ----
    // The small center widened to 8 namespaces (SSUs and router groups
    // scaled to keep the structure): 7 steady router zones the churn events
    // must not disturb.
    let mut center_cfg = CenterConfig::small();
    center_cfg.fleet.ssus = 8;
    center_cfg.router_groups = 8;
    center_cfg.io_modules = 16;
    center_cfg.namespaces = 8;
    let center = Center::build(center_cfg);
    let period = SimDuration::from_secs(60);
    let jobs = warm_start_storm(center.namespaces(), steady, waves, period);
    let horizon = period * waves + SimDuration::from_secs(60);
    let cfg = TimestepConfig {
        horizon,
        ..TimestepConfig::default()
    };

    let storm = run_timestep(&center, &jobs, &cfg);
    let cs = storm.solver.expect("event-driven records session stats");
    let saved_ratio = cs.rounds_saved as f64 / cs.rounds_executed.max(1) as f64;
    let skip_fraction = cs.components_skipped as f64
        / (cs.components_skipped + cs.components_resolved).max(1) as f64;
    assert!(
        saved_ratio >= 5.0,
        "per-component memo must save >= 5x the rounds it executes, got {saved_ratio:.1}x \
         ({} saved vs {} executed)",
        cs.rounds_saved,
        cs.rounds_executed
    );
    let storm_ms = time_ms(iters, || run_timestep(&center, &jobs, &cfg));

    // ---- 3. router-zone sharding of the flow engine ----
    let (sh, pdes) = run_timestep_sharded(&center, &jobs, &cfg);
    assert_eq!(pdes.cross_messages, 0, "zones are independent");
    assert!(pdes.shards >= 2, "the storm spans >= 2 router zones");
    for (i, (a, b)) in storm.completions.iter().zip(&sh.completions).enumerate() {
        assert_eq!(a.is_some(), b.is_some(), "job {i} finish disagreement");
    }
    let sharded_ms = time_ms(iters, || run_timestep_sharded(&center, &jobs, &cfg));

    println!(
        "component_scale solve: {} flows, {} components (largest {}), {solve_ms:.2}ms",
        flows.len(),
        stats.components,
        stats.largest_component
    );
    println!(
        "component_scale storm: {} jobs, {} rounds executed, {} saved ({saved_ratio:.1}x), \
         skip fraction {skip_fraction:.3}, {storm_ms:.2}ms",
        jobs.len(),
        cs.rounds_executed,
        cs.rounds_saved
    );
    println!(
        "component_scale sharded: {} zones, {} epochs, {} cross-shard messages, {sharded_ms:.2}ms",
        pdes.shards, pdes.epochs, pdes.cross_messages
    );

    if let Some(path) = json_path() {
        let json = format!(
            r#"{{
  "machine": {{"cores": {cores}, "note": "wall times measured on this machine; the solver counters (components, rounds, skips, cross-shard messages) are deterministic and machine-independent; the saved_ratio assertion (>= 5x) is checked by the bench itself"}},
  "command": "cargo bench -p spider-bench --bench component_scale -- --bench",
  "shape": {{"zones": {zones}, "resources_per_zone": {res_per_zone}, "flows_per_zone": {flows_per_zone}, "steady_jobs": {steady}, "churn_waves": {waves}, "smoke": {is_smoke}}},
  "solve": {{
    "flows": {n_flows},
    "components": {n_components},
    "largest_component": {largest},
    "wall_ms": {solve_ms:.3}
  }},
  "warm_starts": {{
    "storm_jobs": {n_jobs},
    "solves": {csolves},
    "rounds_executed": {crounds},
    "rounds_saved": {csaved},
    "saved_ratio": {saved_ratio:.2},
    "components_resolved": {cresolved},
    "components_skipped": {cskipped},
    "skip_fraction": {skip_fraction:.4},
    "wall_ms": {storm_ms:.2}
  }},
  "sharded": {{
    "router_zones": {n_zones},
    "epoch_barriers": {epochs},
    "cross_shard_messages": {cross},
    "solves": {shsolves},
    "wall_ms": {sharded_ms:.2}
  }}
}}
"#,
            is_smoke = smoke(),
            n_flows = flows.len(),
            n_components = stats.components,
            largest = stats.largest_component,
            n_jobs = jobs.len(),
            csolves = cs.solves,
            crounds = cs.rounds_executed,
            csaved = cs.rounds_saved,
            cresolved = cs.components_resolved,
            cskipped = cs.components_skipped,
            n_zones = pdes.shards,
            epochs = pdes.epochs,
            cross = pdes.cross_messages,
            shsolves = sh.solves,
        );
        std::fs::write(&path, json).expect("bench output directory is writable");
        println!("component_scale: wrote {}", path.display());
    }
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
