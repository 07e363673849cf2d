#!/usr/bin/env python3
"""Paper-scale benchmark of the spider simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the repository root. Builds `perfbench/` (a package of its own
that depends on the workspace crates by path) in release mode, then spawns
one fresh `spider-perfbench` process per sample:

- `--trace 0`: set-up-only samples around a fixed number of untraced runs,
  sized from `--seconds`. Prints the end-to-end metrics (medians over the
  samples).
- `--trace 1`: untraced and traced runs in alternation, a fixed number of
  each. Prints the per-layer metrics.

Every run checks the rendered tables against `expected.json`, the layer
invariants, and that every deterministic counter repeats exactly. The last
line of stdout is the result object. `--record` rewrites `expected.json`
from runs at the default seed. See `perfbench/README.md`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("mix_characterize", "mix_iosi", "paper_rest", "flow_churn")
DEFAULT_SEED = 0
# Seconds one process of each workload takes on a 2-vCPU Xeon VM, in its
# slower mode. They fix how many processes a run times, so that number
# depends on --seconds only, not on how fast the host happens to be.
PROCESS_S = {"mix_characterize": 6.0, "mix_iosi": 9.5, "paper_rest": 4.8,
             "flow_churn": 2.0}
# Set-up-only processes before each timed process and after the last: the
# samples spread over the whole run, so one moment's machine state does not
# set the run's median. The timed processes add their own set-up samples.
SETUP_SAMPLES = 10
# Every run must end well inside the 180 s limit, whatever --seconds says.
HARD_DEADLINE_S = 170.0
# Outputs that do not depend on --seed: the registry drivers keep their
# built-in seeds. Everything else is checked against expected.json only at
# the default seed. Every output is checked against the run's first process
# of the same mode at every seed.
SEED_FREE = {("mix_characterize", "run"), ("mix_iosi", "run"),
             ("paper_rest", "run"), ("paper_rest", "trace")}


class ChildFailed(Exception):
    pass


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "spider-perfbench")


def spawn(binary, workload, mode, seed, deadline):
    """One fresh process; returns its report plus process-level metrics."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([binary, workload, mode, str(seed)],
                            stdout=subprocess.PIPE)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} {mode} seed {seed}: exit {proc.returncode}")
    rep = json.loads(out.decode().strip().splitlines()[-1])
    rep["wall_s"] = wall
    rep["cpu_s"] = usage.ru_utime + usage.ru_stime
    rep["rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return rep


class Checker:
    """Counts output checks (operations) and their failures."""

    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.attempted = 0
        self.failures = []
        self.first = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def repeats(self, mode, name, got):
        first = self.first.setdefault((mode, name), got)
        self.check(got == first,
                   f"{name}: {got} here, {first} in this run's first {mode} process")

    def absorb(self, rep, mode):
        """Check one process's report."""
        self.attempted += rep["checks"]
        self.failures += rep["failures"]
        pinned = (self.workload, mode) in SEED_FREE or self.seed == DEFAULT_SEED
        digests = self.expected["digests"]
        for out_id, got in rep["digests"].items():
            self.repeats(mode, f"digest {out_id}", got)
            key = out_id if out_id in digests else f"{out_id}@{DEFAULT_SEED}"
            if pinned:
                want = digests.get(key)
                self.check(got == want, f"{out_id}: digest {got}, expected {want}")
        counters = self.expected["counters"][self.workload]
        for name, got in rep["counters"].items():
            if name.startswith("proc."):
                continue
            self.repeats(mode, name, got)
            if pinned and name in counters:
                self.check(got == counters[name],
                           f"{name}: {got}, committed {counters[name]}")
        for name, v in rep["layers"].items():
            self.check(v is not None, f"{name}: not a finite number")


def process_count(workload, seconds, least):
    """How many processes of `workload` fit in `seconds`: odd, so each
    median is one sample, and at least `least`."""
    n = max(least, int(seconds / PROCESS_S[workload]))
    return n if n % 2 else max(least, n - 1)


def end_to_end(binary, workload, seed, seconds, deadline, checker):
    setups, runs = [], []

    def sample_setup():
        setups.extend(spawn(binary, workload, "setup", seed, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES))

    for _ in range(process_count(workload, seconds, 1)):
        sample_setup()
        runs.append(spawn(binary, workload, "run", seed, deadline))
    sample_setup()
    for r in runs:
        checker.absorb(r, "run")
    return {
        "wall_s": statistics.median([r["wall_s"] for r in runs]),
        "cpu_s": statistics.median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in runs]),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
    }, {"processes": len(runs), "walls": [round(r["wall_s"], 3) for r in runs],
        "nproc": runs[0]["counters"]["proc.nproc"]}


def per_layer(binary, workload, seed, seconds, deadline, checker, names):
    # Untraced and traced processes alternate, so both sides of the
    # overhead ratio see the same spells of host noise.
    plain, traced = [], []
    for _ in range(process_count(workload, seconds / 2, 3)):
        plain.append(spawn(binary, workload, "run", seed, deadline))
        traced.append(spawn(binary, workload, "trace", seed, deadline))
    for r in plain:
        checker.absorb(r, "run")
    for r in traced:
        checker.absorb(r, "trace")
    values = {
        "proc.offcpu_s": statistics.median([r["wall_s"] - r["cpu_s"] for r in plain]),
        "trace.coverage": statistics.median(
            [r["layers"]["trace.covered_s"] / r["timed_s"] for r in traced]),
        "trace.overhead": statistics.median(
            [r["wall_s"] - r["probe_s"] for r in traced])
            / statistics.median([r["wall_s"] for r in plain]),
    }
    for name in names:
        if name in values:
            continue
        samples = [r["layers"].get(name, r["counters"].get(name)) for r in traced]
        # A layer this workload never calls reads 0.
        samples = [0 if v is None else v for v in samples]
        values[name] = statistics.median(samples)
    return values, {"processes": len(plain) + len(traced),
                    "nproc": plain[0]["counters"]["proc.nproc"]}


def record(binary):
    """Rewrite expected.json from one run and one traced run per workload."""
    digests, counters = {}, {}
    for w in WORKLOADS:
        counters[w] = {}
        for mode in ("run", "trace"):
            rep = spawn(binary, w, mode, DEFAULT_SEED, time.monotonic() + HARD_DEADLINE_S)
            if rep["failures"]:
                sys.exit(f"perfbench: {w} {mode} failed its checks: {rep['failures']}")
            for out_id, d in rep["digests"].items():
                # A traced pipeline must render its driver's tables exactly.
                seed_free = (w, mode) in SEED_FREE or out_id in digests
                key = out_id if seed_free else f"{out_id}@{DEFAULT_SEED}"
                if digests.setdefault(key, d) != d:
                    sys.exit(f"perfbench: {w} {mode} renders {out_id} differently")
            for name, v in rep["counters"].items():
                if not name.startswith("proc."):
                    counters[w][name] = v
    with open(EXPECTED, "w") as f:
        json.dump({"digests": digests, "counters": counters}, f,
                  indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload is None and not args.record:
        ap.error("--workload is required")

    with open(BENCHMARK) as f:
        spec = json.load(f)
    with open(EXPECTED) as f:
        expected = json.load(f)
    binary = build()
    if args.record:
        record(binary)
        return

    deadline = time.monotonic() + HARD_DEADLINE_S
    checker = Checker(args.workload, args.seed, expected)
    if args.trace:
        metrics = spec["per_layer"]
        values, detail = per_layer(binary, args.workload, args.seed, args.seconds,
                                   deadline, checker, [m["name"] for m in metrics])
    else:
        metrics = spec["end_to_end"]
        values, detail = end_to_end(binary, args.workload, args.seed, args.seconds,
                                    deadline, checker)

    # The rayon shim's default budget, which stays in force: nproc - 1
    # helper threads beside the caller.
    detail.update(workload=args.workload, seed=args.seed,
                  thread_budget=detail["nproc"] - 1, failures=checker.failures[:20])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))


if __name__ == "__main__":
    try:
        main()
    except ChildFailed as e:
        sys.exit(f"perfbench: {e}")
