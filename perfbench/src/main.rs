//! One benchmark process: runs one workload once and prints one JSON line.
//!
//! ```text
//! spider-perfbench <workload> <setup|run|trace> <seed>
//! ```
//!
//! `perfbench/run.py` spawns a fresh process of this binary per sample and
//! aggregates the samples; see `perfbench/README.md`.
//!
//! - `setup` stops right before the first timed call (set-up samples).
//! - `run` calls the registry drivers (or, for `flow_churn`, `run_timestep`)
//!   with no span bookkeeping and hashes the rendered tables.
//! - `trace` composes the same pipelines from the layer entry points and
//!   records one span per layer call.
//!
//! `setup_s` is the CPU time the process has used when the first timed call
//! starts: fork, exec, start-up and the workload's inputs. It is the
//! scheduler's own count, so time the hypervisor steals from the vCPU and
//! time spent waiting to be scheduled do not add to it.

mod churn;
mod mix;
mod out;
mod rest;

use std::time::Instant;

use out::Report;

/// Derive a pipeline seed from a driver's built-in seed: the built-in seed
/// itself at the default `--seed` 0, where the composed pipelines must
/// reproduce the drivers' tables exactly, and a distinct one for every
/// other `--seed`.
pub fn derive_seed(builtin: u64, seed: u64) -> u64 {
    builtin.wrapping_add(seed << 16)
}

/// Columns whose cells are measured wall-clock time (E12b) and so differ
/// from run to run; they are masked before hashing.
const WALL_CLOCK_COLUMNS: [&str; 3] = ["serial ms", "parallel ms", "speedup"];

/// Render tables as `figures` prints them, with wall-clock cells masked.
pub fn render(tables: &[spider_core::Table]) -> String {
    let mut text = String::new();
    for t in tables {
        let mut t = t.clone();
        for (c, h) in t.headers.iter().enumerate() {
            if WALL_CLOCK_COLUMNS.contains(&h.as_str()) {
                for row in &mut t.rows {
                    row[c] = "*".into();
                }
            }
        }
        text.push_str(&t.to_string());
        text.push('\n');
    }
    text
}

/// FNV-1a 64-bit digest, as lower-case hex.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Span recorder for `trace` mode: wall time per named layer, summed over
/// calls, measured around the calls this binary makes into the layer.
pub struct Spans {
    start: Instant,
    /// `(layer name, seconds)`, in first-call order.
    pub totals: Vec<(&'static str, f64)>,
    /// Spans that exist only in `trace` mode (probes and replays with no
    /// counterpart in `run` mode); excluded from the overhead ratio.
    pub probe_s: f64,
}

impl Spans {
    fn new() -> Self {
        Spans {
            start: Instant::now(),
            totals: Vec::new(),
            probe_s: 0.0,
        }
    }

    /// Time `f` as one call of layer `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let s = t.elapsed().as_secs_f64();
        match self.totals.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += s,
            None => self.totals.push((name, s)),
        }
        r
    }

    /// Like [`Spans::span`], for work only the traced run does.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = self.span(name, f);
        self.probe_s += t.elapsed().as_secs_f64();
        r
    }

    /// Seconds spent in layer `name` so far.
    pub fn get(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }
}

/// What a workload does once its inputs are built.
pub trait Workload {
    /// Untraced: the user-facing entry points, outputs hashed.
    fn run(&mut self, rep: &mut Report);
    /// Traced: the layer pipeline, one span per layer call.
    fn trace(&mut self, spans: &mut Spans, rep: &mut Report);
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run since its fork, net of steal.
fn cpu_time_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn usage() -> ! {
    eprintln!(
        "usage: spider-perfbench <mix_characterize|mix_iosi|paper_rest|flow_churn> \
         <setup|run|trace> <seed>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 3 {
        usage();
    }
    let mode = args[1].as_str();
    if !["setup", "run", "trace"].contains(&mode) {
        usage();
    }
    let seed: u64 = args[2].parse().unwrap_or_else(|_| usage());

    let mut workload: Box<dyn Workload> = match args[0].as_str() {
        "mix_characterize" => Box::new(mix::Characterize::new(seed)),
        "mix_iosi" => Box::new(mix::Iosi::new(seed)),
        "paper_rest" => Box::new(rest::PaperRest::new()),
        "flow_churn" => Box::new(churn::FlowChurn::new(seed)),
        _ => usage(),
    };

    // First timed call happens next: everything before it is set-up.
    let mut rep = Report::new(cpu_time_s());

    match mode {
        "run" => workload.run(&mut rep),
        "trace" => {
            let mut spans = Spans::new();
            workload.trace(&mut spans, &mut rep);
            rep.timed_s = spans.start.elapsed().as_secs_f64();
            rep.probe_s = spans.probe_s;
            let covered: f64 = spans.totals.iter().map(|(_, s)| s).sum();
            for (name, s) in &spans.totals {
                rep.layer(name, *s);
            }
            rep.layer("trace.covered_s", covered);
        }
        _ => {}
    }
    rep.counter(
        "proc.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    );
    println!("{}", rep.to_json());
}
