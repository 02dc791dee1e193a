"""One benchmark pass, run in a fresh Python process by ``bench/run.py``.

Every qapery memo table is an unbounded module global, so a pass starts from
cold caches only in a fresh process, as every ``qapery verify`` or ``sweep``
invocation does.  The pass imports ``qapery.checks`` (the end of set-up),
shuffles the workload's instances by ``--order-seed`` and calls
``qapery.checks.run_named_check`` on each, timing every call with
``perf_counter``.  Outside the timed region it can then evaluate the
negative controls and known answers (``--checks 1``).  The last line of
standard output is one JSON object with the pass's figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MAX_LISTED_FAILURES = 10


def _import_qapery():
    sys.path.insert(0, str(ROOT / "src"))
    checks = importlib.import_module("qapery.checks")
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    source = Path(checks.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit("qapery was imported from %s, not from %s" % (source, ROOT / "src"))
    return checks, ready_at


def _tail(times):
    """Highest percentile with at least ten instances beyond it: (value, pct)."""
    n = len(times)
    if n <= 10:
        return times[-1], 100.0
    return times[n - 11], 100.0 * (n - 10) / n


def _self_checks(tracer, layers):
    """Add the cache figures to ``layers``; return (label, counted, expected)
    triples that prove the wrappers saw every call."""
    qc = importlib.import_module("qapery.qcombinatorics")
    info = tracer.originals["sequences.apery_q_krz_binform"].cache_info()
    layers["sequences.apery_q_krz_binform.misses"] = info.misses
    layers["qcombinatorics.cache_entries"] = (
        len(qc._QBIN_CACHE) + len(qc._PASCAL_CACHE) + len(qc._QBIN_POW_CACHE) + len(qc._QFACT))
    return [
        ("qcombinatorics.qbin.misses == len(_QBIN_CACHE)",
         layers["qcombinatorics.qbin.misses"], len(qc._QBIN_CACHE)),
        ("apery_q_krz_binform calls == lru_cache hits + misses",
         layers["sequences.apery_q_krz_binform.calls"], info.hits + info.misses),
    ]


def run_pass(args):
    checks, ready_at = _import_qapery()
    if args.setup_only:
        return {"ready_at": ready_at}
    import workloads
    instances_fn, controls_fn, known_fn = workloads.WORKLOADS[args.workload]
    instances = instances_fn()
    random.Random(args.order_seed).shuffle(instances)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    run_named_check = checks.run_named_check

    failures = []
    times = []
    first = perf_counter()
    for index, (name, params) in enumerate(instances):
        if tracer is not None:
            tracer.instance = index
        started = perf_counter()
        try:
            outcome = run_named_check(name, params).holds
        except Exception as exc:  # a raising instance is counted, not fatal
            outcome = repr(exc)
        times.append(perf_counter() - started)
        if outcome is not True:
            failures.append("%s %r: %s" % (name, params, "FAILS" if outcome is False else outcome))
    wall = perf_counter() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(instances)

    layers = None
    if tracer is not None:
        tracer.enabled = False
        layers = tracer.metrics()
        for label, got, want in _self_checks(tracer, layers):
            attempted += 1
            if got != want:
                failures.append("self-check %s: %r != %r" % (label, got, want))
        if args.spans:
            tracer.write_spans(args.spans, first)

    checks_started = perf_counter()
    if args.checks:
        for expect, items in ((False, controls_fn()), (True, known_fn())):
            for label, fn, fn_args in items:
                attempted += 1
                try:
                    holds = fn(*fn_args)
                except Exception as exc:  # a raising check is counted, not fatal
                    holds = repr(exc)
                if holds is not expect:
                    kind = "negative control" if expect is False else "known answer"
                    failures.append("%s %s: got %s" % (kind, label, holds))

    checks_s = perf_counter() - checks_started
    times.sort()
    tail, tail_pct = _tail(times)
    return {
        "ready_at": ready_at,
        "instances": len(instances),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_LISTED_FAILURES],
        "wall_s": wall,
        "checks_s": checks_s,
        "verdicts_per_s": len(instances) / wall,
        "verdict_ms.p50": 1000.0 * statistics.median(times),
        "verdict_ms.tail": 1000.0 * tail,
        "tail_pct": tail_pct,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "bindings": tracer.bindings if tracer is not None else 0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--order-seed", default="0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checks", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the span file here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once qapery.checks is imported")
    args = parser.parse_args(argv)
    sys.stdout.write(json.dumps(run_pass(args)) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
