#!/usr/bin/env python3
"""The decentnet benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package over the repository's src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
workload repeatedly, one process per repetition, until --seconds have passed
(at least three repetitions).

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the repetitions, times in reference seconds (see end_to_end), which take the
seeds sub_seed(--seed, 0), (--seed, 1), ...
in turn; the first is --seed itself. --trace 1 runs --seed only, alternating
untraced and traced repetitions (at least two cycles), and
reports the per-layer metrics: span self times from perfbench_traced,
counters, and trace.overhead_pct (traced run_s against untraced run_s).
overlay_churn's spans are timed on its single-thread reference schedule,
where layer self times plus sim.dispatch_self_s add up to run_s; a traced
repetition at its normal two threads checks that every counter repeats.

Output checks: every repetition of a seed yields the same result digest and
no violated invariant; a traced repetition yields the untraced digest and
the same exact counters; seeds pinned in perfbench/spec.json must match
their pinned digest and ops_failed. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--selftest runs the composition cross-check (perfbench_compose) for the
default and held-out seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
# Traced cycles (untraced + traced repetitions, plus one at the workload's own
# thread count); two are enough to check that counters repeat.
MIN_TRACED_CYCLES = 2
# The calibration kernel's time (main.cpp calibrate()) on the 4-core machine
# the benchmark was defined on; wall times are scaled to that speed.
REFERENCE_CAL_S = 0.45
# Leave headroom under the 180 s a run may take.
DEADLINE_S = 150

# Per-layer values that are a pure function of the seed: they must repeat
# exactly across traced repetitions and thread counts.
EXACT = (
    "ops", "ops_failed",
    "crypto.sha256_calls", "crypto.sha256_bytes", "crypto.hmac_calls",
    "crypto.verify_calls",
    "net.messages", "net.bytes", "net.dropped", "net.dropped_partition",
    "net.handler_calls", "net.transport.queue_dropped",
    "net.transport.backlog_bytes_max", "net.transport.busy_uplinks_max",
    "sim.events", "sim.queue_depth_max", "sim.shard.windows",
    "sim.shard.stalls", "sim.shard.mail",
    "chain.txs_accepted", "chain.txs_rejected", "chain.reorgs",
    "chain.mempool_max", "bft.elections", "overlay.rpc_timeouts",
)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build(targets):
    """Configure (once) and build `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no decentnet sources next to perfbench/ (expected src/); run "
            "from a full checkout of the repository")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr,
             "env": dict(os.environ, TMPDIR=tmp)}
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                       + targets, check=True, **quiet)
    except (OSError, subprocess.CalledProcessError) as e:
        die("build failed: %s" % e)
    return build_dir


class Runner:
    def __init__(self, build_dir, workload, seed):
        self.build_dir = build_dir
        self.workload = workload
        self.seed = seed
        self.series = os.path.join(build_dir, "series-%d.jsonl" % os.getpid())

    def rep(self, traced, threads=0, seed=None):
        exe = os.path.join(self.build_dir,
                           "perfbench_traced" if traced else "perfbench_plain")
        seed = self.seed if seed is None else seed
        cmd = [exe, "--workload", self.workload, "--seed", str(seed)]
        if threads:
            cmd += ["--threads", str(threads)]
        if traced:
            cmd += ["--series", self.series]
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            die("%s did not finish within %d s" % (" ".join(cmd), DEADLINE_S))
        finally:
            if traced and os.path.exists(self.series):
                os.remove(self.series)
        if p.returncode != 0:
            die("%s exited with %d" % (" ".join(cmd), p.returncode))
        return json.loads(p.stdout.strip().splitlines()[-1])

    def calibrate(self):
        p = subprocess.run([os.path.join(self.build_dir, "perfbench_plain"),
                            "--calibrate"], stdout=subprocess.PIPE, text=True,
                           check=True, timeout=DEADLINE_S)
        return json.loads(p.stdout)["cal_s"]

    def calibrated_rep(self, seed, cal):
        """An untraced repetition whose cal_s is the mean of the calibration
        runs just before (`cal`, a one-element list it updates) and after."""
        r = self.rep(False, seed=seed)
        after = self.calibrate()
        r["cal_s"] = (cal[0] + after) / 2
        cal[0] = after
        return r


def sub_seed(seed, i):
    """Input seed of repetition `i` of an untraced run: the run's own seed
    first, then further seeds derived from it, so a run's median spans more
    simulated randomness (PoW block luck) than one seed holds."""
    return (seed + (i << 32)) % (1 << 64)


def measure(seconds, cycle, min_cycles):
    """Run `cycle(i)` (one or more repetitions) for i = 0, 1, ... until
    `seconds` have passed and at least `min_cycles` ran, without crossing
    DEADLINE_S."""
    start = time.monotonic()
    reps = []
    longest = 0.0
    while True:
        t = time.monotonic()
        reps.append(cycle(len(reps)))
        longest = max(longest, time.monotonic() - t)
        elapsed = time.monotonic() - start
        if elapsed + longest > DEADLINE_S:
            break
        if len(reps) >= min_cycles and elapsed >= seconds:
            break
    return reps


def median(values):
    return statistics.median(values)


def check(reps, spec, workload):
    """Return the failed output checks over `reps` (a flat list): invariant
    violations, repetitions of one seed that disagree, and pinned seeds
    whose results moved."""
    problems = []
    by_seed = {}
    for r in reps:
        problems += r["violations"]
        first = by_seed.setdefault(r["seed"], r)
        for key in ("digest", "ops", "ops_failed"):
            if r[key] != first[key]:
                problems.append("seed %d: %s differs between repetitions: "
                                "%s vs %s" % (r["seed"], key, r[key],
                                              first[key]))
    pins = spec["workloads"][workload]["pins"]
    for seed, first in by_seed.items():
        pin = pins.get(str(seed))
        for key in ("digest", "ops", "ops_failed"):
            if pin is not None and first[key] != pin[key]:
                problems.append("seed %d: %s %s does not match the pin %s"
                                % (seed, key, first[key], pin[key]))
    return problems


def end_to_end(reps, metrics):
    """Medians over the repetitions. Times are in reference seconds: each
    repetition's wall time times REFERENCE_CAL_S / its cal_s, which cancels
    the host contention that slows the whole process for minutes at a time
    on a shared machine."""
    out = {}
    for m in metrics:
        n = m["name"]
        scale = [REFERENCE_CAL_S / r["cal_s"] if m["unit"] == "s" else 1.0
                 for r in reps]
        out[n] = median([r[n] * k for r, k in zip(reps, scale)])
    return out


def per_layer(plain, traced, checked, names):
    """Per-layer metrics from the traced repetitions `traced` (timed on the
    same thread count as `plain`); `checked` adds repetitions whose exact
    counters must agree."""
    problems = []
    base = traced[0]["layer"]
    for r in traced + checked:
        for key in EXACT:
            if r["layer"].get(key) != base.get(key):
                problems.append("counter %s differs between traced runs "
                                "(threads %s): %s vs %s"
                                % (key, r["threads"], r["layer"].get(key),
                                   base.get(key)))
    plain_run_s = median([r["run_s"] for r in plain])
    traced_run_s = median([r["run_s"] for r in traced])
    values = {}
    for n in names:
        values[n] = median([r["layer"].get(n, 0.0) for r in traced])
    values["sim.events_per_s"] = base["sim.events"] / plain_run_s
    values["trace.overhead_pct"] = 100.0 * (traced_run_s / plain_run_s - 1.0)
    for r in traced:
        spans = r["run_s"] - r["layer"]["sim.dispatch_self_s"]
        if spans > 1.01 * r["run_s"]:
            problems.append("span self times (%.3f s) exceed run_s (%.3f s)"
                            % (spans, r["run_s"]))
    return values, problems


def selftest(spec):
    build_dir = build(["perfbench_compose"])
    seeds = [str(spec["default_seed"]), str(spec["held_out_seed"])]
    p = subprocess.run([os.path.join(build_dir, "perfbench_compose")] + seeds)
    return p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_json(os.path.join(HERE, "spec.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.selftest:
        sys.exit(selftest(spec))
    if args.workload not in spec["workloads"]:
        die("--workload must be one of %s" % ", ".join(spec["workloads"]))
    seed = spec["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    wl = spec["workloads"][args.workload]
    threads = wl["threads"]

    runner = Runner(build(["perfbench_plain", "perfbench_traced"]),
                    args.workload, seed)
    if args.trace == 0:
        cal = [runner.calibrate()]
        reps = measure(
            seconds, lambda i: runner.calibrated_rep(sub_seed(seed, i), cal),
            MIN_REPS)
        problems = check(reps, spec, args.workload)
        metrics = end_to_end(reps, bench["end_to_end"])
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        all_reps = reps
    else:
        # Spans are timed at one thread; a second traced repetition at the
        # workload's own thread count checks the exact counters.
        def cycle(_):
            out = [runner.rep(False, 1), runner.rep(True, 1)]
            if threads > 1:
                out.append(runner.rep(True, threads))
            return out
        cycles = measure(seconds, cycle, MIN_TRACED_CYCLES)
        plain = [c[0] for c in cycles]
        traced = [c[1] for c in cycles]
        checked = [c[2] for c in cycles if len(c) > 2]
        all_reps = [r for c in cycles for r in c]
        problems = check(all_reps, spec, args.workload)
        names = [m["name"] for m in bench["per_layer"]]
        metrics, layer_problems = per_layer(plain, traced, checked, names)
        problems += layer_problems
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    first = all_reps[0]
    print("%s seed=%d reps=%d ops=%d ops_failed=%d digest=%s pinned=%s" % (
        args.workload, seed, len(all_reps), first["ops"], first["ops_failed"],
        first["digest"], "yes" if str(seed) in wl["pins"] else "no"))
    for n in metrics:
        print("  %-34s %14.6g %s" % (n, metrics[n], units[n]))
    if args.trace == 0:
        print("  unscaled wall medians: total_s=%.4g run_s=%.4g cal_s=%.4g"
              % tuple(median([r[k] for r in reps])
                      for k in ("total_s", "run_s", "cal_s")))
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)
    correct = not problems
    attempted = sum(r["ops"] for r in all_reps)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
