"""The benchmark's contract with the package: one traced worker pass of
``bench/run.py`` over every kind of op must run clean.

The benchmark's tracer wraps public functions by name and reads
``NumericalSemigroup.bound``, so renaming or deleting any of them breaks
the benchmark; this test makes that break visible in the package's own
suite.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run  # noqa: E402

OPS = [
    ["verify", "gsx49"],
    ["verify", "fk", "--q", "5"],
    ["semigroup", "--gens", "5,7,8", "--upto", "12"],
    ["orders", "--gens", "21,27,28", "--q", "27"],
    ["bound", "--q", "11", "--r", "4"],
    ["deduce-dim", "--q", "7", "--g", "21"],
]


def test_traced_worker_pass_runs_clean(tmp_path):
    res = run.run_worker(OPS, str(tmp_path), True)
    assert res["codes"] == [0] * len(OPS)
    assert res["errors"] == [None] * len(OPS)
    # every layer the verify ops reach is traced: a caller that captured
    # a layer function at import time would leave its layer at 0
    for layer in ("numsg.semigroup.calls", "verify.report.s", "curves.census.s",
                  "curves.scan.s", "verify.deduce.s", "gf.make_field.calls"):
        assert res["layers"][layer] > 0, layer
    r = run.Run(OPS)
    r.add(res)
    assert r.failures == {}
    assert not r.wrong
