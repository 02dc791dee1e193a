"""qapery verification benchmark: one workload, measured in fresh processes.

    python3 bench/run.py --workload corollary-sweep --seed 1 --seconds 36 --trace 0

Each pass runs the whole workload in a fresh process (``bench/worker.py``),
with the instances in an order shuffled from ``--seed`` and the pass index.
Passes repeat while the next one is expected to end about ``--seconds`` in;
the first pass also checks the negative controls and known answers.  Every
end-to-end metric is the median over the run's passes; ``setup_s`` is the
median over the passes and three set-up-only processes before each pass.

With ``--trace 1`` the run alternates traced and untraced passes (at least
two traced ones, in different orders) and reports the per-layer metrics
instead; count metrics must then agree exactly between the traced passes.

``--workload all`` runs the three workloads in turn, each printing its own
block, and exits with the worst code.

The metric names and units are read from ``BENCHMARK.json``.  Human-readable
lines go first; the last line of standard output is the JSON result.  The
exit code is 0 when every verdict, control and known answer is right, 1
when one is not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOADS = ("corollary-sweep", "lucas-grid", "harmonic-sp")
SETUP_PROBES_PER_PASS = 3
#: The whole run must end within this many seconds.
RUN_DEADLINE_S = 170.0
#: Printed and recorded end-to-end metrics that BENCHMARK.json does not gate:
#: the order, hence the seed, decides which instance pays each memo miss.
SEED_DEPENDENT = {"verdict_ms.p50": "ms", "verdict_ms.tail": "ms"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _read_steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _read_loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": _read_loadavg(),
    }


def _spawn(worker_args, deadline):
    """Run one worker process; return (spawn time, its JSON result)."""
    timeout = deadline - _monotonic()
    if timeout <= 0:
        raise BenchError("run deadline reached before a pass could start")
    command = [sys.executable, str(BENCH / "worker.py")] + worker_args
    spawned_at = _monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish before the run deadline") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("worker %s exited with code %d" % (" ".join(worker_args), done.returncode))
    return spawned_at, json.loads(lines[-1])


def _run_passes(args, deadline, spans_stem):
    """Run the passes of one run; return (list of (traced, result), setup times)."""
    budget_end = _monotonic() + args.seconds
    minimum = 3 if args.trace else 1
    passes = []
    setups = []
    durations = []
    while True:
        index = len(passes)
        started = _monotonic()
        for _ in range(SETUP_PROBES_PER_PASS):
            spawned_at, result = _spawn(["--setup-only"], deadline)
            setups.append(result["ready_at"] - spawned_at)
        traced = bool(args.trace) and index % 2 == 0
        worker_args = ["--workload", args.workload, "--order-seed", "%d/%d" % (args.seed, index),
                       "--trace", str(int(traced)), "--checks", str(int(index == 0))]
        if traced:
            worker_args += ["--spans", "%s-pass%d.jsonl" % (spans_stem, index)]
        spawned_at, result = _spawn(worker_args, deadline)
        setups.append(result["ready_at"] - spawned_at)
        passes.append((traced, result))
        durations.append(_monotonic() - started - result["checks_s"])
        # Start another pass only if it is expected to end less than half a
        # pass after the budget, so that runs last --seconds on average.
        if len(passes) >= minimum and _monotonic() + statistics.median(durations) / 2 > budget_end:
            return passes, setups


def _end_to_end(passes, setups):
    untraced = [r for traced, r in passes if not traced]
    values = {key: statistics.median(r[key] for r in untraced)
              for key in ("verdicts_per_s", "verdict_ms.p50", "verdict_ms.tail", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    return values


def _per_layer(passes):
    """Medians of timed layer metrics; counts, which must agree exactly."""
    traced = [r["layers"] for is_traced, r in passes if is_traced]
    untraced = [r["wall_s"] for is_traced, r in passes if not is_traced]
    walls = [r["wall_s"] for is_traced, r in passes if is_traced]
    values = {}
    mismatched = []
    for key in traced[0]:
        samples = [layers[key] for layers in traced]
        if key.endswith("_s"):  # a measured time, not a count
            values[key] = statistics.median(samples)
        else:
            values[key] = samples[0]
            if any(s != samples[0] for s in samples):
                mismatched.append("count %s differs between orders: %r" % (key, samples))
    values["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    return values, mismatched


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "qapery" / "__init__.py").is_file():
        raise BenchError("no qapery source under %s" % (ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    deadline = _monotonic() + RUN_DEADLINE_S
    env = _environment()
    steal_before = _read_steal_ticks()

    passes, setups = _run_passes(args, deadline, str(OUT / ("spans-" + stem)))

    steal_after = _read_steal_ticks()
    env["steal_ticks"] = (None if steal_before is None or steal_after is None
                          else steal_after - steal_before)
    attempted = sum(r["attempted"] for _, r in passes)
    failures = [f for _, r in passes for f in r["failures"]]
    failed = sum(r["failed"] for _, r in passes)
    if args.trace:
        values, mismatched = _per_layer(passes)
        attempted += 1
        if mismatched:
            failed += 1
            failures += mismatched
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(passes, setups)
        wanted = spec["end_to_end"]
    tail_pct = statistics.median(r["tail_pct"] for _, r in passes)
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise BenchError("metric %s was not measured" % metric["name"])
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    ungated = {name: {"value": values[name], "unit": unit}
               for name, unit in SEED_DEPENDENT.items() if not args.trace}

    print("# env %s" % json.dumps(env, sort_keys=True))
    print("# %s seed %d: %d passes (%d traced), %d set-ups, verdict_ms.tail is p%.2f"
          % (args.workload, args.seed, len(passes), sum(t for t, _ in passes),
             len(setups), tail_pct))
    for name, metric in metrics.items():
        print("%-40s %s %s" % (name, metric["value"], metric["unit"]))
    for name, metric in ungated.items():
        print("%-40s %s %s (depends on the seed; not gated)"
              % (name, metric["value"], metric["unit"]))
    print("%-40s %s ratio" % ("failed_share", failed / attempted))
    for line in failures:
        print("# FAILED %s" % line)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setups_s": setups,
              "passes": [dict(r, traced=t) for t, r in passes],
              "metrics": metrics, "seed_dependent": ungated}
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        return max(run(argparse.Namespace(**dict(vars(args), workload=name))) for name in names)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
