"""Tests of the benchmark itself: its oracle, determinism check, input
generation and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
import tempfile

import oracle
import run
import workloads
from worker import END, NAME, OP, PARENT, START, layer_totals


def one_pass(ops):
    r = run.Run(ops)
    with tempfile.TemporaryDirectory() as tmp:
        r.add(run.run_worker(ops, tmp, False))
    return r


def test_injected_census_delta_is_a_failed_and_wrong_op():
    r = one_pass([["verify", "gsx49", "--inject-census-delta", "1"]])
    assert (r.attempted, r.failed, r.wrong) == (1, 1, True)
    reasons = [reason for _, reason in r.failures]
    assert "census total 149 != Hasse-Weil 148" in reasons
    assert "exit 1" in reasons


def test_healthy_gsx49_passes():
    r = one_pass([["verify", "gsx49"]])
    assert (r.attempted, r.failed, r.wrong) == (1, 0, False)


def test_oracle_flags_a_wrong_semigroup():
    argv = ["semigroup", "--gens", "3,5,7", "--upto", "10"]
    right = {"semigroup": {"genus": 3, "conductor": 5, "gaps": [1, 2, 4],
                           "nongaps": [0, 3, 5, 6, 7, 8, 9, 10]}}
    assert oracle.check(argv, json.dumps(right)) == []
    wrong = json.loads(json.dumps(right))
    wrong["semigroup"]["genus"] = 4
    assert oracle.check(argv, json.dumps(wrong)) == ["genus 4 != 3"]
    assert oracle.check(argv, None) == ["no output written"]


def test_output_that_changes_between_passes_fails():
    argv = ["bound", "--q", "11", "--r", "4"]
    r = run.Run([argv])
    for text in ('{"bound": {"numerator": 15, "denominator": 1}}',
                 '{"bound": {"denominator": 1, "numerator": 15}}'):
        r.add({"outputs": [text], "codes": [0], "errors": [None]})
    assert (r.attempted, r.failed, r.wrong) == (2, 1, True)
    assert r.failures == {(0, "output differs from the first pass"): 1}


def test_queries_come_from_the_seed_and_all_pass():
    make = workloads.WORKLOADS["queries"].make_ops
    ops = make(random.Random(7))
    assert ops == make(random.Random(7))
    assert ops != make(random.Random(8))
    r = one_pass(ops)
    assert r.failures == {}
    assert not r.wrong


def test_layer_self_time_excludes_children():
    def span(name, start, end, parent):
        s = [None] * 6
        s[NAME], s[START], s[END], s[PARENT], s[OP] = name, start, end, parent, 0
        return s

    spans = [span("cli.run", 0.0, 10.0, -1),
             span("verify.report", 1.0, 9.0, 0),
             span("verify.deduce", 2.0, 4.0, 1),
             span("verify.deduce", 2.5, 3.0, 2),
             span("curves.census", 5.0, 8.0, 1)]
    totals, op_self = layer_totals(spans, 1)
    assert totals["cli.self_s"] == 2.0
    assert totals["verify.report.self_s"] == 3.0
    assert totals["verify.deduce.s"] == 2.0   # the nested call counts once
    assert totals["curves.census.self_s"] == 3.0
    assert op_self[0]["verify.deduce"] == 2.0
