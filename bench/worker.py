"""One pass of the benchmark: import maxcurves, run an op list, report.

Started by ``run.py`` with ``src`` on PYTHONPATH.  The import comes first,
so the time it stamps covers interpreter start-up and ``import
maxcurves.cli`` only.  Then it reads ``{"ops", "outdir", "trace"}`` as JSON
on stdin, runs every op through ``cli.run(argv)`` with ``--format json
--out <file>``, and writes one JSON object to stdout.

Between ops, outside the timed regions, it times a fixed calibration
kernel: right after the import, after an op when ``CAL_EVERY_S`` have
passed since the last sample, and after the last op.  ``run.py`` divides
each time by the kernel time measured around it.

With ``trace`` set, the public functions of each layer are wrapped at the
module attribute their callers look up, and each call is recorded as a
span (name, start, end, parent).  The spans stay in memory until the ops
are done and are then reduced to per-layer totals.
"""

import time

from maxcurves import cli, curves, numsg, verify

READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

NAME, START, END, PARENT, OP, INFO = range(6)

CAL_EVERY_S = 0.1


def kernel() -> int:
    """A fixed mix of interpreter work (integer arithmetic, dict and list
    updates) whose time tracks how fast the host runs Python right now."""
    table = {}
    acc = 0
    for i in range(5000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 127] = acc
    return sum(sorted(table.values())[:8])


def calibrate() -> float:
    """Best of three kernel times, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Tracer:
    """Records a span around every call of the functions it wraps."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    def wrap(self, module, attr: str, name: str, info=None):
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        setattr(module, attr, traced)


_SCAN_SIG = inspect.signature(curves.weierstrass_nongaps_from_monomials)


def _scan_info(args, kwargs, result):
    ranges = _SCAN_SIG.bind(*args, **kwargs).arguments["ranges"]
    return math.prod(len(r) for r in ranges.values()), len(result["nongaps"])


def install(tracer: Tracer):
    """Wrap each layer's public functions where their callers find them:
    cli calls ``verify.*`` and ``numsg.*``, verify calls ``curves.*``, and
    the censuses call ``make_field`` and ``nth_roots`` as curves globals."""
    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(verify, "theorem_report", "verify.report")
    for attr in ("deduce_frobenius_dimension", "deduce_epsilon_sequence",
                 "castelnuovo_bound"):
        tracer.wrap(verify, attr, "verify.deduce")
    for attr in ("count_gk_places", "count_fk_places", "count_gsx49_places"):
        tracer.wrap(curves, attr, "curves.census")
    tracer.wrap(curves, "weierstrass_nongaps_from_monomials", "curves.scan",
                _scan_info)
    tracer.wrap(curves, "make_field", "gf.make_field",
                lambda a, k, F: (F.p, F.k))
    tracer.wrap(curves, "nth_roots", "gf.nth_roots", lambda a, k, r: bool(r))
    tracer.wrap(numsg, "semigroup_from_generators", "numsg.semigroup",
                lambda a, k, S: S.bound)
    for attr in ("nongaps_upto", "rational_point_orders",
                 "frobenius_dimension_from_semigroup"):
        tracer.wrap(numsg, attr, "numsg.query")


def layer_totals(spans: list, n_ops: int) -> tuple[dict, list]:
    """Per-layer time, self time and counters of one pass, and each op's
    self time per layer.

    A layer's time sums its outermost spans (a span with no ancestor of
    the same name); its self time sums, over all its spans, the span's
    duration minus that of its direct children.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    tot = {}
    op_self = [{} for _ in range(n_ops)]
    for i, s in enumerate(spans):
        t = tot.setdefault(s[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["calls"] += 1
        t["self_s"] += dur[i] - child[i]
        own = op_self[s[OP]]
        own[s[NAME]] = own.get(s[NAME], 0.0) + dur[i] - child[i]
        a = s[PARENT]
        while a >= 0 and spans[a][NAME] != s[NAME]:
            a = spans[a][PARENT]
        if a < 0:
            t["s"] += dur[i]

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    def infos(name):
        return [s[INFO] for s in spans if s[NAME] == name]

    scans = infos("curves.scan")
    monomials = sum(m for m, _ in scans)
    roots = infos("gf.nth_roots")
    fields_per_op = [set() for _ in range(n_ops)]
    for s in spans:
        if s[NAME] == "gf.make_field":
            fields_per_op[s[OP]].add(s[INFO])
    distinct_fields = sum(len(f) for f in fields_per_op)
    totals = {
        "curves.scan.s": get("curves.scan", "s"),
        "curves.scan.monomials": monomials,
        "curves.scan.useful_ratio":
            sum(u for _, u in scans) / monomials if monomials else 0.0,
        "curves.census.s": get("curves.census", "s"),
        "curves.census.self_s": get("curves.census", "self_s"),
        "gf.make_field.calls": get("gf.make_field", "calls"),
        "gf.make_field.s": get("gf.make_field", "s"),
        "gf.make_field.builds_per_field":
            get("gf.make_field", "calls") / distinct_fields
            if distinct_fields else 0.0,
        "gf.nth_roots.calls": len(roots),
        "gf.nth_roots.s": get("gf.nth_roots", "s"),
        "gf.nth_roots.hit_ratio": sum(roots) / len(roots) if roots else 0.0,
        "numsg.semigroup.calls": get("numsg.semigroup", "calls"),
        "numsg.semigroup.s": get("numsg.semigroup", "s"),
        "numsg.semigroup.sieve_len": sum(infos("numsg.semigroup")),
        "verify.report.s": get("verify.report", "s"),
        "verify.report.self_s": get("verify.report", "self_s"),
        "verify.deduce.s": get("verify.deduce", "s"),
        "cli.run.s": get("cli.run", "s"),
        "cli.self_s": get("cli.run", "self_s"),
    }
    return totals, op_self


def main() -> int:
    job = json.load(sys.stdin)
    ops, outdir = job["ops"], job["outdir"]
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        install(tracer)
    paths = [os.path.join(outdir, f"op{i}.json") for i in range(len(ops))]
    op_s, codes, errors = [], [], []
    cal = [[-1, calibrate()]]   # [index of the op it follows, kernel seconds]
    last_cal = perf_counter()
    for i, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = None
        t0 = perf_counter()
        try:
            code = cli.run(argv + ["--format", "json", "--out", paths[i]])
        except Exception as exc:  # an op that raises is a failed op
            code, error = None, repr(exc)
        t1 = perf_counter()
        op_s.append(t1 - t0)
        codes.append(code)
        errors.append(error)
        if t1 - last_cal >= CAL_EVERY_S or i == len(ops) - 1:
            cal.append([i, calibrate()])
            last_cal = perf_counter()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outputs = []
    for path in paths:
        try:
            with open(path) as fh:
                outputs.append(fh.read())
            os.remove(path)
        except FileNotFoundError:
            outputs.append(None)
    result = {"ready_ns": READY_NS, "rss_kib": rss_kib, "cal": cal,
              "op_s": op_s, "codes": codes, "errors": errors,
              "outputs": outputs}
    if tracer is not None:
        result["layers"], result["op_self_s"] = layer_totals(tracer.spans,
                                                             len(ops))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
