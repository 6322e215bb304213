"""The maxcurves benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  It makes the workload's op
list from the seed (see ``workloads.py``) and then, until ``--seconds`` are
spent, runs passes over it one at a time: each pass is a fresh worker
process (``worker.py``) that imports maxcurves from ``src`` and calls
``maxcurves.cli.run(argv)`` once per op.  Every output is checked against
values the benchmark derives itself (``oracle.py``) and, by digest,
against the same op's output in the run's first pass.

An op fails when it exits non-zero, raises, writes output the oracle
disagrees with, or writes output whose digest differs between passes.
``correct`` is false when any output is missing, wrong or unstable; an op
that exits 1 with a correct report (a check the program itself fails)
counts as failed but not as wrong.

On a shared 2-vCPU x86-64 host, Python ran at two speeds up to ~45%
apart, switching every few seconds, and whole 30-second runs could land
on the slow side.  So every time is divided by the time of a fixed
calibration kernel measured in the same worker just before and after it
(see ``worker.py``), and multiplied by ``KERNEL_REF_S``: times read as
seconds on a host where the kernel takes ``KERNEL_REF_S``, which is about
its uncontended time on a 2-vCPU x86-64 host under Python 3.11.  Program
changes cannot move the kernel.  The raw median pass time is printed too.

With ``--trace 0`` the last line reports the end-to-end metrics, from
untraced passes only.  With ``--trace 1`` untraced and traced passes
alternate; it reports per-layer metrics (medians over traced passes) and
the tracing overhead, the difference of their median pass times.
Human-readable lines, one metric each with its unit, come first.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

KERNEL_REF_S = 5.5e-4
SETUP_PROBES = 10     # extra import-only workers per run, for setup_s
MIN_PASSES = 3
MAX_RUN_S = 150       # stop early, even below MIN_PASSES, to end in time
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "curves.scan.s": "s",
    "curves.scan.monomials": "count",
    "curves.scan.useful_ratio": "ratio",
    "curves.census.s": "s",
    "curves.census.self_s": "s",
    "gf.make_field.calls": "count",
    "gf.make_field.s": "s",
    "gf.make_field.builds_per_field": "ratio",
    "gf.nth_roots.calls": "count",
    "gf.nth_roots.s": "s",
    "gf.nth_roots.hit_ratio": "ratio",
    "numsg.semigroup.calls": "count",
    "numsg.semigroup.s": "s",
    "numsg.semigroup.sieve_len": "count",
    "verify.report.s": "s",
    "verify.report.self_s": "s",
    "verify.deduce.s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_worker(ops: list, outdir: str, trace: bool) -> dict:
    """One pass in a fresh worker, with its times normalised."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    job = json.dumps({"ops": ops, "outdir": outdir, "trace": trace}).encode()
    spawn_ns = _now_ns()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(job, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{err.decode(errors='replace')[-2000:]}")
    res = json.loads(out)
    res["traced"] = trace
    normalise(res, (res["ready_ns"] - spawn_ns) / 1e9)
    return res


def normalise(res: dict, setup_s: float):
    """Scale a pass's times by KERNEL_REF_S over the kernel time around
    each: the sample after the import for setup, and the mean of the
    samples before and after an op for that op."""
    cal = res["cal"]
    follows = [i for i, _ in cal]
    raw = res["op_s"]
    res["raw_wall_s"] = setup_s + sum(raw)
    res["setup_s"] = setup_s * KERNEL_REF_S / cal[0][1]
    res["op_scale"] = []
    for i in range(len(raw)):
        after = bisect.bisect_left(follows, i)
        kernel = (cal[after - 1][1] + cal[after][1]) / 2
        res["op_scale"].append(KERNEL_REF_S / kernel)
    res["op_s"] = [t * f for t, f in zip(raw, res["op_scale"])]
    res["wall_s"] = res["setup_s"] + sum(res["op_s"])
    res["speed"] = KERNEL_REF_S / statistics.median(k for _, k in cal)


class Run:
    """The passes of one run, with every op judged as it comes in."""

    def __init__(self, ops: list):
        self.ops = ops
        self.passes = []
        self.first_digest = [None] * len(ops)
        self.attempted = 0
        self.failures = {}   # (op index, reason) -> count
        self.wrong = False

    def add(self, res: dict):
        counts = {"verify.checks": 0, "verify.checks_failed": 0,
                  "cli.out_bytes": 0}
        failed_ops = 0
        for i, argv in enumerate(self.ops):
            text, code = res["outputs"][i], res["codes"][i]
            self.attempted += 1
            reasons = oracle.check(argv, text)
            if text is not None:
                digest = hashlib.sha256(text.encode()).hexdigest()
                if self.first_digest[i] is None:
                    self.first_digest[i] = digest
                elif digest != self.first_digest[i]:
                    reasons.append("output differs from the first pass")
                counts["cli.out_bytes"] += len(text.encode())
                if argv[0] == "verify" and not reasons:
                    checks = json.loads(text)["report"]["checks"]
                    counts["verify.checks"] += len(checks)
                    counts["verify.checks_failed"] += sum(
                        not c["passed"] for c in checks)
            if reasons:
                self.wrong = True
            if res["errors"][i] is not None:
                reasons.append(f"raised {res['errors'][i]}")
            elif code != 0:
                reasons.append(f"exit {code}")
            for reason in reasons:
                key = (i, reason)
                self.failures[key] = self.failures.get(key, 0) + 1
            failed_ops += bool(reasons)
        del res["outputs"]
        res["counts"] = counts
        res["failed_ops"] = failed_ops
        self.passes.append(res)

    @property
    def failed(self) -> int:
        return sum(p["failed_ops"] for p in self.passes)


def end_to_end(run: Run, probes: list[float], tail_pct: int) -> tuple:
    """The end-to-end metrics from the untraced passes.

    Op latencies are taken per op first: each op's median over the
    passes, so one slow sample cannot move a percentile that sits where
    one op's latencies meet the next op's.  The tail percentile counts
    every pass's sample of an op, so "beyond it" means samples.
    """
    plain = [p for p in run.passes if not p["traced"]]
    per_op = sorted(statistics.median(p["op_s"][i] for p in plain)
                    for i in range(len(run.ops)))
    n = len(per_op) * len(plain)
    tail_i = min(n - 1, tail_pct * n // 100)
    beyond = n - 1 - tail_i
    metrics = {
        "setup_s": statistics.median(probes + [p["setup_s"] for p in plain]),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_s.p50": statistics.median_high(per_op),
        "op_s.tail": per_op[tail_i // len(plain)],
        "peak_rss_mib": statistics.median(p["rss_kib"] for p in plain) / 1024,
        "ok_ratio": 1 - run.failed / run.attempted,
    }
    notes = {
        "setup_s": f"median of {len(probes) + len(plain)} workers",
        "wall_s": f"median of {len(plain)} passes; raw "
                  f"{statistics.median(p['raw_wall_s'] for p in plain):.4f} s",
        "op_s.p50": f"upper median over {len(per_op)} ops of each op's "
                    f"median over {len(plain)} passes",
        "op_s.tail": f"p{tail_pct} of {n} op samples, {beyond} beyond it"
                     + ("" if beyond >= 10 else
                        "; fewer than 10 beyond, so not resolved"),
        "peak_rss_mib": "median over workers of ru_maxrss",
        "ok_ratio": f"fail_ratio = {run.failed}/{run.attempted} = "
                    f"{run.failed / run.attempted:.4f}",
    }
    return metrics, notes


def per_layer(run: Run) -> tuple:
    traced = [p for p in run.passes if p["traced"]]
    plain = [p for p in run.passes if not p["traced"]]
    values = [{**p["layers"], **p["counts"]} for p in traced]
    for p, v in zip(traced, values):
        for name in v:
            if PER_LAYER_UNITS[name] == "s":
                v[name] *= p["speed"]
    metrics = {name: statistics.median(v[name] for v in values)
               for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain))
    notes = {name: f"median of {len(traced)} traced passes"
             for name in metrics}
    notes["trace.overhead_s"] = (f"median wall_s of {len(traced)} traced "
                                 f"minus {len(plain)} untraced passes")
    return metrics, notes


def per_op_lines(run: Run, top_ops: int = 8, top_layers: int = 3) -> list:
    """The slowest ops by median latency over the traced passes, each with
    the layers that have the most self time in it."""
    traced = [p for p in run.passes if p["traced"]]
    rows = []
    for i, argv in enumerate(run.ops):
        lat = statistics.median(p["op_s"][i] for p in traced)
        layers = {name for p in traced for name in p["op_self_s"][i]}
        own = sorted(((statistics.median(
                           p["op_self_s"][i].get(name, 0.0) * p["op_scale"][i]
                           for p in traced), name)
                      for name in layers), reverse=True)[:top_layers]
        shares = ", ".join(f"{name} {t:.4f} s ({t / lat:.0%})"
                           for t, name in own)
        rows.append((lat, f"  {' '.join(argv)}: {lat:.4f} s; self time: {shares}"))
    return [line for _, line in sorted(rows, reverse=True)[:top_ops]]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "maxcurves" / "cli.py").is_file():
        print(f"error: no maxcurves sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(random.Random(args.seed))
    trace = bool(args.trace)
    start = time.monotonic()
    deadline = start + args.seconds
    run = Run(ops)
    probes = []
    try:
        with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
            if not trace:
                probes = [run_worker([], tmp, False)["setup_s"]
                          for _ in range(SETUP_PROBES)]
            costs = []
            while True:
                t0 = time.monotonic()
                # a traced run alternates untraced and traced passes
                run.add(run_worker(ops, tmp, trace and len(run.passes) % 2 == 1))
                costs.append(time.monotonic() - t0)
                done_at = time.monotonic() + max(costs[-2:])
                if len(run.passes) >= MIN_PASSES + trace and done_at > deadline:
                    break
                if len(run.passes) >= 1 + trace and done_at > start + MAX_RUN_S:
                    break
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if trace:
        metrics, notes = per_layer(run)
        units = PER_LAYER_UNITS
    else:
        metrics, notes = end_to_end(run, probes, workload.tail_pct)
        units = END_TO_END_UNITS
    speed = statistics.median(p["speed"] for p in run.passes)
    print(f"workload {workload.name} (seed {args.seed}): {len(ops)} ops per "
          f"pass, {len(run.passes)} passes, trace {args.trace}; times scaled "
          f"by {speed:.3f}, the kernel's reference time over its median")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}  ({notes[name]})")
    if trace:
        print("slowest ops, median over traced passes:")
        print("\n".join(per_op_lines(run)))
    for (i, reason), count in sorted(run.failures.items()):
        print(f"failed: {' '.join(ops[i])}: {reason} (x{count})")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
