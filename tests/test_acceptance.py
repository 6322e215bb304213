"""Acceptance suite: one test per acceptance criterion.

All checks are exact-integer equalities; runtime ceilings are asserted
with wall-clock timing.  Each criterion prints one PASS line on success
(run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import json
import random
import time
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from maxcurves import cli, curves, gf, numsg, verify
import test_verify
from test_numsg import assert_matches_sieve


def report_line(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_gk_qbar3_theorem():
    start = time.perf_counter()
    assert curves.genus_gk(3) == 99
    census = curves.count_gk_places(curves.gk_curve(3))
    assert census.total == 6076 == 27 ** 2 + 1 + 2 * 99 * 27

    S = numsg.semigroup_from_generators({21, 27, 28})
    assert S.genus == 99
    assert numsg.nongaps_upto(S, 28) == [0, 21, 27, 28]
    assert numsg.rational_point_orders(S, 27) == (0, 1, 7, 28)

    rep = verify.theorem_report(curves.gk_curve(3))
    assert rep.passing
    assert rep.order_sequences["ramified"] == [0, 1, 7, 28]
    assert rep.order_sequences["unramified"] == [0, 1, 3, 28]
    assert rep.epsilon_sequence == [0, 1, 3, 27]
    assert rep.p == 3
    assert verify.padic_admissible((0, 1, 3, 27), 3)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    report_line("1 (GK qbar=3, order sequence (0,1,3,27))")


def test_criterion_2_gk_qbar2_regression():
    start = time.perf_counter()
    assert curves.genus_gk(2) == 10
    assert curves.count_gk_places(curves.gk_curve(2)).total == 225

    S = numsg.semigroup_from_generators({6, 8, 9})
    assert S.gaps == (1, 2, 3, 4, 5, 7, 10, 11, 13, 19)
    assert S.genus == 10

    rep = verify.theorem_report(curves.gk_curve(2))
    assert rep.passing
    assert rep.epsilon_sequence == [0, 1, 2, 8]

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"criterion 2 took {elapsed:.2f}s"
    report_line("2 (GK qbar=2 regression)")


def test_criterion_3_gsx49_theorem():
    start = time.perf_counter()
    census = curves.count_gsx49_places(curves.gsx49_curve())
    assert census.total == 148
    k = census.meta["sixteenth_power_fibers"]
    assert k == 9 and 16 * k + 4 == 148

    g = curves.genus_gsx(7, 3)
    table = curves.gsx49_divisor_table()
    scan = curves.weierstrass_nongaps_from_monomials(
        table, "Pinf", {"z": range(0, 2 * g + 1), "t+1": range(-g, 1)})
    for n in (5, 10, 12, 13):
        wit = scan["witnesses"][n]
        i, j = wit["z"], -wit["t+1"]
        assert 3 * i >= 8 * j and 7 * i - 16 * j == n

    S = numsg.semigroup_from_generators(n for n in scan["nongaps"] if n)
    assert numsg.nongaps_upto(S, 8) == [0, 5, 7, 8]
    assert numsg.semigroup_from_generators({5, 7, 8}).genus == 7
    assert numsg.frobenius_dimension_from_semigroup(S, 7) == 3

    orders = numsg.rational_point_orders(S, 7)
    assert orders == (0, 1, 3, 8)
    assert orders[2] == 3 == 8 - (2 * 8) // 3

    assert not verify.padic_admissible((0, 1, 3, 7), 7)
    classes = {"Pinf": (1, orders), "other": (census.total - 1, None)}
    table = verify.deduce_epsilon_sequence(classes, 7, 7, g)
    assert [row["eps2"] for row in table if row["survives"]] == [2]
    assert verify.weierstrass_weight(classes, (0, 1, 2, 7), g, 7) == (149, 152)
    assert verify.theorem_report(curves.gsx49_curve()).passing

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"
    report_line("3 (GSX49, j2=3 and order sequence (0,1,2,7))")


def test_criterion_4_fk_family_theorem():
    start = time.perf_counter()
    expected = {5: (4, 66), 11: (19, 540), 17: (46, 1854)}
    for q, (g, total) in expected.items():
        assert curves.genus_fk(q) == g == (q * q - q + 4) // 6
        census = curves.count_fk_places(curves.fk_curve(q))
        assert census.total == total
        assert census.meta["condition5_violations"] == 0
        assert census.meta["fully_ramified_places"] == q + 1
        assert verify.deduce_frobenius_dimension(q, g) == {3}

        scan = curves.weierstrass_nongaps_from_monomials(
            curves.fk_divisor_table(q), "P0_beta",
            {"x": range(2), "y-beta": range(-1, 1), "z": range(2)})
        assert scan["nongaps"] == [0, q - 2, q, q + 1]
        assert scan["witnesses"][q - 2] == {"x": 1, "y-beta": -1, "z": 0}
        S = numsg.semigroup_from_generators(scan["nongaps"][1:])
        assert S.genus == g
        assert numsg.rational_point_orders(S, q) == (0, 1, 3, q + 1)

        rep = verify.theorem_report(curves.fk_curve(q))
        assert rep.passing
        assert rep.frobenius_dimension["from_semigroup"] == 3
        assert rep.order_sequences["distinguished"] == [0, 1, 3, q + 1]
        assert rep.epsilon_sequence == [0, 1, 2, q]

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.2f}s"
    report_line("4 (FK family q in {5,11,17})")


def test_criterion_5_property_suites():
    # (a) nth-root cardinality law, exhaustive over four fields
    for p, kk in ((5, 2), (7, 2), (2, 6), (3, 6)):
        F = gf.make_field(p, kk)
        for n in (2, 3, 16):
            g = gcd(n, F.order - 1)
            total = 0
            for a in range(F.order):
                s = gf.nth_roots(F, a, n)
                total += len(s)
                if a:
                    assert len(s) in (0, g)
            assert total == F.order

    # (b) Apery-set semigroup vs a membership table on 200 random
    # generator sets: genus, conductor, gaps and contains
    rng = random.Random(20240817)
    done = 0
    while done < 200:
        gens = {rng.randint(1, 60) for _ in range(rng.randint(1, 6))}
        if reduce(gcd, gens) != 1:
            continue
        assert_matches_sieve(numsg.semigroup_from_generators(gens), gens)
        done += 1

    # (c) bound monotone in r; Hermitian equality up to q = 64
    for q in range(2, 65):
        assert verify.castelnuovo_bound(q, 2) == Fraction(q * (q - 1), 2)
        for r in range(2, min(q, 10)):
            assert verify.castelnuovo_bound(q, r) > verify.castelnuovo_bound(q, r + 1)

    # (d) elimination: added places never revive a candidate, and no
    # survivor exceeds the least known j_2
    test_verify.test_elimination_monotone()

    # (e) negative controls
    for delta in (-1, 1):
        census = curves.count_gsx49_places(curves.gsx49_curve())
        census.add("affine-split", delta)
        assert not verify.check_maximal(census, 7, 7).passed
    assert not verify.padic_admissible((0, 1, 3, 7), 7)

    report_line("5 (property suites a-e)")


def test_criterion_6_cli_contract(capsys, tmp_path):
    assert cli.run(["verify", "gsx49"]) == 0
    assert cli.run(["verify", "gsx49", "--inject-census-delta", "1"]) == 1
    assert cli.run(["verify", "gsx49", "--no-such-flag"]) == 2
    assert cli.run(["verify", "fk", "--q", "9"]) == 2

    capsys.readouterr()
    assert cli.run(["verify", "gk", "--qbar", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["schema_version"] == 1
    assert doc["report"]["passing"] is True

    with capsys.disabled():
        report_line("6 (CLI contract)")
