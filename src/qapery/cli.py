"""Command-line front end: compute values, verify single instances, sweep grids.

Subcommands: compute, verify, sweep, list-checks, list-alphas.
Exit codes: 0 all congruences hold, 1 any failed, 2 usage error.
Sweeps distribute instances over worker processes (--jobs) and always emit
results in parameter order, so identical invocations produce identical
output apart from the elapsed-time fields.
"""

from __future__ import annotations

import argparse
import decimal
import io
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import __version__
from .checks import CHECKS, run_named_check
from .cyclotomic import cyclotomic
from .laurent import LaurentPoly
from .qcombinatorics import qbin
from .reports import (PreconditionError, admit, almkvist_zudilin_work, binomial_sum_work,
                      modulus_work, power_product_work, qbin_work)
from .sequences import (
    almkvist_zudilin,
    apery,
    apery_multivariate,
    apery_q_krz_binform,
    apery_q_zheng,
    list_alphas,
)

DEFAULT_INSTANCE_GUARD = 10 ** 6


class UsageError(Exception):
    pass


@dataclass
class SweepSpec:
    """A parameter grid for one named check."""

    check_name: str
    ranges: dict = field(default_factory=dict)      # param -> (lo, hi, step)
    choices: dict = field(default_factory=dict)     # param -> list of names
    jobs: int = 1
    output_format: str = "table"

    def instance_count(self) -> int:
        count = 1
        for lo, hi, step in self.ranges.values():
            count *= max(0, (hi - lo) // step + 1)
        for values in self.choices.values():
            count *= len(values)
        return count

    def instances(self):
        """All parameter dicts, ordered by the sorted parameter tuple."""
        names = sorted(self.ranges) + sorted(self.choices)
        axes = [
            list(range(self.ranges[p][0], self.ranges[p][1] + 1, self.ranges[p][2]))
            for p in sorted(self.ranges)
        ] + [list(self.choices[p]) for p in sorted(self.choices)]
        for combo in itertools.product(*axes):
            yield dict(zip(names, combo))

    def echo(self) -> dict:
        return {
            "check": self.check_name,
            "ranges": {p: list(r) for p, r in sorted(self.ranges.items())},
            "choices": {p: list(v) for p, v in sorted(self.choices.items())},
            "jobs": self.jobs,
            "format": self.output_format,
        }


def _sweep_worker(item):
    name, params = item
    try:
        report = run_named_check(name, params)
    except PreconditionError:
        return ("skipped", params, None)
    return ("ok", params, report.to_row())


def run_sweep(spec: SweepSpec) -> dict:
    """Run the full grid and return the report document; the ``QCONG_GUARD``
    environment variable caps the instance count.  The summary's
    ``elapsed_ms`` sums the instances' times, and ``wall_ms`` is the time
    of the whole run, which is less with ``jobs`` > 1."""
    started = time.perf_counter()
    if spec.check_name not in CHECKS:
        raise UsageError("unknown check %r" % (spec.check_name,))
    raw = os.environ.get("QCONG_GUARD", str(DEFAULT_INSTANCE_GUARD))
    try:
        guard = int(raw)
    except ValueError:
        raise UsageError("bad QCONG_GUARD value %r (expected an integer)" % (raw,))
    total = spec.instance_count()
    if total > guard:
        raise UsageError(
            "sweep would run %d instances, over the guard of %d "
            "(raise QCONG_GUARD to override)" % (total, guard)
        )
    check = CHECKS[spec.check_name]
    items = [(spec.check_name, check.sweep_instance(params)) for params in spec.instances()]
    workers = min(spec.jobs, os.cpu_count() or 1, len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(items) // (workers * 8))
            outcomes = list(pool.map(_sweep_worker, items, chunksize=chunk))
    else:
        outcomes = [_sweep_worker(item) for item in items]
    results = [row for status, _, row in outcomes if status == "ok"]
    skipped = sum(1 for status, _, _ in outcomes if status == "skipped")
    held = sum(1 for row in results if row["holds"])
    failed = len(results) - held
    return {
        "tool_version": __version__,
        "spec": spec.echo(),
        "results": results,
        "summary": {
            "total": len(results),
            "held": held,
            "failed": failed,
            "skipped": skipped,
            "elapsed_ms": sum(row["elapsed_ms"] for row in results),
            "wall_ms": int(round((time.perf_counter() - started) * 1000)),
        },
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _params_text(params: dict) -> str:
    return " ".join("%s=%s" % (k, params[k]) for k in sorted(params))


def _rows_text(rows, fmt: str) -> str:
    """Result rows as table lines, or as CSV under one header line."""
    if fmt != "csv":
        return "".join(
            "%-20s %-40s %-12s %-5s residue@1=%s %dms\n"
            % (row["check"], _params_text(row["params"]), row["modulus"],
               "holds" if row["holds"] else "FAILS", row["residue_at_one"], row["elapsed_ms"])
            for row in rows
        )
    if not rows:
        return ""
    import csv

    param_names = sorted(set().union(*(row["params"] for row in rows)))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check"] + param_names + ["modulus", "holds", "residue_at_one", "elapsed_ms"])
    for row in rows:
        writer.writerow(
            [row["check"]]
            + [row["params"].get(p, "") for p in param_names]
            + [row["modulus"], row["holds"], row["residue_at_one"], row["elapsed_ms"]]
        )
    return buf.getvalue()


def _check_output(output_path):
    """Fail at once, before any work, when ``--output`` cannot be opened for
    writing; an existing file is left as it is until ``_emit``, and one that
    this check creates is removed again, so that a refused run leaves none."""
    if output_path:
        existed = os.path.lexists(output_path)
        _emit("", output_path, mode="a")
        if not existed:
            os.remove(output_path)


def _emit(text: str, output_path, mode: str = "w"):
    if not output_path:
        sys.stdout.write(text)
        return
    try:
        with open(output_path, mode, encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (output_path, exc.strerror or exc))


def _document_text(document: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(document, indent=2) + "\n"
    if fmt == "csv":
        tail = "# total=%(total)d held=%(held)d failed=%(failed)d skipped=%(skipped)d\n"
    else:
        tail = ("total %(total)d: %(held)d held, %(failed)d failed, %(skipped)d skipped"
                " (%(elapsed_ms)d ms)\n")
    return _rows_text(document["results"], fmt) + tail % document["summary"]


# ---------------------------------------------------------------------------
# compute targets
# ---------------------------------------------------------------------------

def _qbinom(n, k):
    """C(n, k)_q from the memoized row recurrence ``qbin``, for n >= 0."""
    if n < 0:
        raise ValueError("q_binomial requires n >= 0")
    return qbin(n, k)


#: target -> (number of integer arguments, function of those arguments, the
#: estimated work of that function on nonnegative arguments)
_COMPUTE = {
    "apery": (1, apery, lambda n: binomial_sum_work(n + 1, 2 * n, 6 * n)),
    "apery-q": (1, apery_q_krz_binform, lambda n: power_product_work(n, sequence=True)),
    "zheng": (1, apery_q_zheng, lambda n: power_product_work(n, sequence=True)),
    "az": (1, almkvist_zudilin, almkvist_zudilin_work),
    "qbinom": (2, _qbinom, qbin_work),
    "cyclotomic": (1, cyclotomic, modulus_work),
    # four binomials a term, twice the two of an apery term
    "multivariate": (4, lambda *n: apery_multivariate(n), lambda *n: 2 * binomial_sum_work(
        min(n[0], n[2]) + 1, max(n[0] + n[1], n[2] + n[3]))),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_range(text: str):
    """'lo..hi' or 'lo..hi..step' or a single integer."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return (v, v, 1)
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            return (lo, hi, 1)
        if len(parts) == 3:
            lo, hi, step = (int(p) for p in parts)
            if step < 1:
                raise ValueError
            return (lo, hi, step)
    except ValueError:
        pass
    raise UsageError("bad range %r (expected 'lo..hi', 'lo..hi..step' or an integer)" % (text,))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qapery",
        description="Exact verification of cyclotomic supercongruences for q-Apery polynomials.",
    )
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a sequence value or polynomial")
    p_compute.add_argument("target", choices=sorted(_COMPUTE))
    p_compute.add_argument("args", nargs="*", type=int)
    p_compute.add_argument("--json", action="store_true", dest="as_json")
    p_compute.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify", help="run one instance of a named check")
    p_verify.add_argument("check", choices=sorted(CHECKS))
    _add_param_flags(p_verify)
    p_verify.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_verify.add_argument("--output", default=None)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid of a named check")
    p_sweep.add_argument("check", choices=sorted(CHECKS))
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_sweep.add_argument("--output", default=None)

    sub.add_parser("list-checks", help="list available checks")
    sub.add_parser("list-alphas", help="list registered exponent weights")
    return parser


def _all_param_names():
    names = set()
    for spec in CHECKS.values():
        names.update(spec.int_params)
        names.update(spec.optional_int_params)
        names.update(spec.choice_params)
    return sorted(names)


def _add_param_flags(parser):
    for name in _all_param_names():
        parser.add_argument("--" + name, default=None, dest="param_" + name)


def _collect_params(ns, spec, ranged):
    """Pull --flag values for one check; returns (ranges, choices) or scalars."""
    ranges = {}
    choices = {}
    alpha_names = [
        a.name for a in list_alphas()
        if spec.alpha_arity is None or a.arity in (0, spec.alpha_arity)
    ]
    for name in spec.int_params + spec.optional_int_params:
        raw = getattr(ns, "param_" + name, None)
        if raw is None:
            if name in spec.optional_int_params:
                continue
            raise UsageError("missing required parameter --%s" % name)
        ranges[name] = _parse_range(raw)
    for name, allowed in spec.choice_params.items():
        raw = getattr(ns, "param_" + name, None)
        allowed = allowed if allowed is not None else alpha_names
        if raw is None:
            if len(allowed) == 1:
                raw = allowed[0]
            elif name == "alpha":
                raw = "ksq"
            else:
                raise UsageError("missing required parameter --%s" % name)
        values = raw.split(",")
        for v in values:
            if v not in allowed:
                raise UsageError(
                    "bad value %r for --%s (allowed: %s)" % (v, name, ", ".join(allowed))
                )
        choices[name] = values
    if ranged:
        return ranges, choices
    scalars = {}
    for name, (lo, hi, step) in ranges.items():
        if lo != hi:
            raise UsageError("verify takes single values, not ranges (--%s)" % name)
        scalars[name] = lo
    for name, values in choices.items():
        if len(values) != 1:
            raise UsageError("verify takes single values, not lists (--%s)" % name)
        scalars[name] = values[0]
    return scalars


def _cmd_compute(ns) -> int:
    arity, fn, work = _COMPUTE[ns.target]
    if len(ns.args) != arity:
        raise UsageError("target %r expects %d integer argument(s)" % (ns.target, arity))
    _check_output(ns.output)
    try:
        # a negative argument is the target's own error, after an estimate at 0
        admit(work(*(max(a, 0) for a in ns.args)), "compute " + ns.target)
        value = fn(*ns.args)
    except ValueError as exc:
        raise UsageError("bad arguments for %s: %s" % (ns.target, exc))
    if not isinstance(value, LaurentPoly):
        # str() of an int refuses more than sys.get_int_max_str_digits() digits
        value = decimal.Decimal(value)
    if ns.as_json:
        payload = {
            "target": ns.target,
            "args": list(ns.args),
            "value": value.to_json_dict() if isinstance(value, LaurentPoly) else str(value),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = str(value) + "\n"
    _emit(text, ns.output)
    return 0


def _cmd_verify(ns) -> int:
    spec = CHECKS[ns.check]
    params = _collect_params(ns, spec, ranged=False)
    _check_output(ns.output)
    try:
        report = run_named_check(ns.check, params)
    except PreconditionError as exc:
        raise UsageError("bad parameters for %s: %s" % (ns.check, exc))
    row = report.to_row()
    text = json.dumps(row, indent=2) + "\n" if ns.format == "json" else _rows_text([row], ns.format)
    _emit(text, ns.output)
    return 0 if report.holds else 1


def _cmd_sweep(ns) -> int:
    spec = CHECKS[ns.check]
    ranges, choices = _collect_params(ns, spec, ranged=True)
    if ns.jobs < 1:
        raise UsageError("--jobs must be a positive integer")
    sweep = SweepSpec(
        check_name=ns.check,
        ranges=ranges,
        choices=choices,
        jobs=ns.jobs,
        output_format=ns.format,
    )
    _check_output(ns.output)
    document = run_sweep(sweep)
    _emit(_document_text(document, ns.format), ns.output)
    return 0 if document["summary"]["failed"] == 0 else 1


def _cmd_list_checks() -> int:
    for name in sorted(CHECKS):
        spec = CHECKS[name]
        params = list(spec.int_params)
        params += ["%s?" % p for p in spec.optional_int_params]
        params += list(spec.choice_params)
        sys.stdout.write("%-20s params: %-28s %s\n" % (name, ",".join(params), spec.summary))
    return 0


def _cmd_list_alphas() -> int:
    for alpha in list_alphas():
        arity = "any" if alpha.arity == 0 else str(alpha.arity)
        sys.stdout.write("%-8s arity=%-4s %s\n" % (alpha.name, arity, alpha.formula))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if ns.command == "compute":
            return _cmd_compute(ns)
        if ns.command == "verify":
            return _cmd_verify(ns)
        if ns.command == "sweep":
            return _cmd_sweep(ns)
        if ns.command == "list-checks":
            return _cmd_list_checks()
        if ns.command == "list-alphas":
            return _cmd_list_alphas()
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
