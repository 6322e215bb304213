"""Deduction layer: bounds, p-adic filtering, theorem reports."""

import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from maxcurves import cli, curves, gf, verify
from maxcurves.curves import PlaceCensus


def make_census(total):
    census = PlaceCensus()
    census.add("affine-split", total)
    return census


class TestMaximality:
    def test_gsx49_passes(self):
        census = curves.count_gsx49_places(curves.gsx49_curve())
        assert verify.check_maximal(census, 7, 7).passed

    def test_fk11_passes(self):
        census = curves.count_fk_places(curves.fk_curve(11))
        assert verify.check_maximal(census, 19, 11).passed

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_off_by_one_fails(self, delta):
        result = verify.check_maximal(make_census(148 + delta), 7, 7)
        assert not result.passed
        assert result.details["delta"] == delta


class TestCastelnuovoBound:
    def test_even_r(self):
        assert verify.castelnuovo_bound(11, 4) == 15

    def test_odd_r(self):
        assert verify.castelnuovo_bound(5, 3) == 4

    def test_r3_closed_form(self):
        for q in range(3, 30):
            assert verify.castelnuovo_bound(q, 3) == Fraction((q - 1) ** 2, 4)

    def test_exact_rational(self):
        b = verify.castelnuovo_bound(6, 4)
        assert isinstance(b, Fraction)
        assert b == Fraction((12 - 3) ** 2 - 1, 24)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            verify.castelnuovo_bound(5, 1)

    def test_rejects_r_above_the_series_dimension(self):
        # |(q+1)P| has dimension at most q+1
        assert verify.castelnuovo_bound(5, 6) == Fraction(24, 40)
        for q, r in ((5, 7), (4, 100)):
            with pytest.raises(ValueError):
                verify.castelnuovo_bound(q, r)

    def test_monotone_in_r(self):
        for q in range(3, 65):
            for r in range(2, q + 1):  # the bisection in deduce-dim relies on it
                assert (verify.castelnuovo_bound(q, r)
                        > verify.castelnuovo_bound(q, r + 1))

    def test_hermitian_equality(self):
        for q in range(2, 65):
            assert verify.castelnuovo_bound(q, 2) == Fraction(q * (q - 1), 2)


class TestDeduceDimension:
    def test_fk_examples(self):
        assert verify.deduce_frobenius_dimension(11, 19) == {3}
        assert verify.deduce_frobenius_dimension(5, 4) == {3}
        assert verify.deduce_frobenius_dimension(17, 46) == {3}

    def test_hermitian_genus_keeps_two(self):
        assert 2 in verify.deduce_frobenius_dimension(5, 10)

    def test_non_hermitian_genus_drops_two(self):
        assert 2 not in verify.deduce_frobenius_dimension(5, 4)

    def test_one_never_included(self):
        for g in (0, 1, 10):
            assert 1 not in verify.deduce_frobenius_dimension(7, g)

    def test_gk_bound_alone_is_inconclusive(self):
        # q=27, g=99 passes both the r=3 and r=4 bounds
        assert verify.deduce_frobenius_dimension(27, 99) == {3, 4}


def _is_prime_power(q):
    try:
        gf.prime_power(q)
    except ValueError:
        return False
    return True


PRIME_POWERS = [q for q in range(2, 4097) if _is_prime_power(q)]


def scan_dimensions(q, genera):
    """The O(q) reference, per genus g: every r in 2..q+1 whose bound, as
    a Fraction, is at least g, keeping r = 2 only at the Hermitian genus."""
    bounds = [(r, verify.castelnuovo_bound(q, r)) for r in range(2, q + 2)]
    hermitian = q * (q - 1) // 2
    return {g: {r for r, b in bounds if g <= b and (r > 2 or g == hermitian)}
            for g in genera}


def boundary_genera(q, r):
    """floor(B(r)) and floor(B(r)) + 1, the genera where r drops out."""
    num, den = verify.castelnuovo_terms(q, r)
    return num // den, num // den + 1


def assert_matches_scan(q, genera):
    want = scan_dimensions(q, genera)
    assert {g: verify.deduce_frobenius_dimension(q, g) for g in genera} == want


class TestDeduceDimensionBisection:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 64])
    def test_every_r_boundary_matches_scan(self, q):
        hermitian = q * (q - 1) // 2
        genera = {0, hermitian, hermitian + 1}
        for r in range(2, q + 2):
            genera.update(boundary_genera(q, r))
        assert_matches_scan(q, genera)

    @given(st.sampled_from(PRIME_POWERS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scan(self, q, data):
        r = data.draw(st.integers(2, q), label="r")
        hermitian = q * (q - 1) // 2
        genera = {hermitian, hermitian + 1, data.draw(st.integers(0, hermitian + 2))}
        for s in (r, r + 1):  # one of each parity
            genera.update(boundary_genera(q, s))
        assert_matches_scan(q, genera)

    def test_hermitian_genus_edges_at_4096(self):
        hermitian = 4096 * 4095 // 2
        assert verify.deduce_frobenius_dimension(4096, hermitian) == {2}
        assert verify.deduce_frobenius_dimension(4096, hermitian + 1) == set()


class TestPadic:
    def test_rejects_0137_in_char7(self):
        assert not verify.padic_admissible((0, 1, 3, 7), 7)

    def test_accepts_01327_in_char3(self):
        assert verify.padic_admissible((0, 1, 3, 27), 3)

    def test_contiguous_prefix(self):
        # (0,1,2,q) with q a power of p is always admissible
        for p, q in ((3, 9), (5, 5), (7, 49), (11, 11)):
            assert verify.padic_admissible((0, 1, 2, q), p)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            verify.padic_admissible((0, 2, 1), 5)

    @pytest.mark.parametrize("orders, p", [((0, 1, 3, 64), 2), ((0, 1, 5, 9), 3)])
    def test_rejects_orders_above_p(self, orders, p):
        # C(3,2) = 3 is odd and C(5,2) = 10 is 1 mod 3, so 2 must be an order
        assert not verify.padic_admissible(orders, p)

    def test_accepts_01464_in_char2(self):
        # C(4, mu) is even for 0 < mu < 4
        assert verify.padic_admissible((0, 1, 4, 64), 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_lucas_dominated_is_the_comb_definition(self, p):
        for e in range(300):
            assert verify.lucas_dominated(e, p) == [mu for mu in range(e + 1) if comb(e, mu) % p]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]),
           st.sets(st.integers(2, 150), max_size=6))
    def test_padic_admissible_is_the_comb_definition(self, p, rest):
        def missing(entries):
            return {mu for e in entries for mu in range(e) if comb(e, mu) % p} - entries

        orders = {0, 1} | rest
        assert verify.padic_admissible(sorted(orders), p) == (not missing(orders))
        while new := missing(orders):  # the closure is admissible
            orders |= new
        assert verify.padic_admissible(sorted(orders), p)


class TestAllowedJ2:
    def test_values(self):
        assert verify.allowed_j2_values(7) == {2, 3, 4}
        assert verify.allowed_j2_values(5) == {2, 3}
        assert verify.allowed_j2_values(8) == {2, 3, 5}

    def test_two_always_member(self):
        for q in range(2, 40):
            assert 2 in verify.allowed_j2_values(q)

    def test_validator(self):
        assert 3 in verify.allowed_j2_values(7)
        assert 6 not in verify.allowed_j2_values(7)


def gk_classes(qbar):
    """GK's class table from the closed forms: q+1 ramified places with
    orders (0,1,d,q+1), the rest unramified with (0,1,qbar,q+1)."""
    q, g, d = qbar ** 3, curves.genus_gk(qbar), qbar * qbar - qbar + 1
    classes = {"ramified": (q + 1, (0, 1, d, q + 1)),
               "unramified": (curves.maximal_N(q, g) - q - 1, (0, 1, qbar, q + 1))}
    return classes, q, g


def survivors(table):
    return [row["eps2"] for row in table if row["survives"]]


class TestWeierstrassWeight:
    def test_gk_weight_equals_degree(self):
        for qbar, deg in ((2, 234), (3, 6188), (4, 63050)):
            classes, q, g = gk_classes(qbar)
            assert verify.weierstrass_weight(classes, (0, 1, qbar, q), g, q) == (deg, deg)

    def test_unknown_orders_weigh_one_per_place(self):
        classes = {"Pinf": (1, (0, 1, 3, 8)), "other": (147, None)}
        assert verify.weierstrass_weight(classes, (0, 1, 2, 7), 7, 7) == (149, 152)


class TestEpsilonDeduction:
    def test_gk(self):
        for qbar, p in ((2, 2), (3, 3), (4, 2)):
            classes, q, g = gk_classes(qbar)
            table = verify.deduce_epsilon_sequence(classes, q, p, g)
            assert survivors(table) == [qbar]
            assert [row["eps2"] for row in table] == list(range(2, qbar + 1))

    @pytest.mark.parametrize("qbar, p, eliminated", [
        (3, 3, {"eps2": 2, "padic": True, "weight": 12264, "degree_R": 5992,
                "survives": False}),
        (4, 2, {"eps2": 2, "padic": True, "weight": 187980, "degree_R": 61230,
                "survives": False}),
    ])
    def test_gk_eps2_two_eliminated_by_weight(self, qbar, p, eliminated):
        classes, q, g = gk_classes(qbar)
        assert verify.deduce_epsilon_sequence(classes, q, p, g)[0] == eliminated

    def test_gk4_eps2_three_eliminated_by_padic(self):
        classes, q, g = gk_classes(4)
        row = verify.deduce_epsilon_sequence(classes, q, 2, g)[1]
        assert row["eps2"] == 3 and not row["padic"] and not row["survives"]

    def test_gsx49_padic_filtering(self):
        classes = {"Pinf": (1, (0, 1, 3, 8)), "other": (147, None)}
        table = verify.deduce_epsilon_sequence(classes, 7, 7, 7)
        assert survivors(table) == [2]
        assert table[1]["eps2"] == 3 and not table[1]["padic"]

    def test_fk(self):
        classes = {"ramified": (12, (0, 1, 3, 12)), "split": (528, None)}
        table = verify.deduce_epsilon_sequence(classes, 11, 11, 19)
        assert survivors(table) == [2]
        assert (table[0]["weight"], table[0]["degree_R"]) == (552, 552)

    def test_min_two(self):
        # a least known j_2 of 2 leaves eps2 = 2 as the only candidate
        classes = {"a": (9, (0, 1, 3, 9)), "b": (216, (0, 1, 2, 9))}
        table = verify.deduce_epsilon_sequence(classes, 8, 2, 10)
        assert [row["eps2"] for row in table] == survivors(table) == [2]

    def test_rejects_no_known_class(self):
        with pytest.raises(ValueError):
            verify.deduce_epsilon_sequence({"split": (528, None)}, 11, 11, 19)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            verify.deduce_epsilon_sequence({}, 7, 7, 7)

    def test_rejects_wrong_dimension(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "deduce_frobenius_dimension", lambda q, g: {4})
        assert cli.run(["verify", "fk", "--q", "5", "--format", "json"]) == 1
        rep = json.loads(capsys.readouterr().out)["report"]
        eps = next(c for c in rep["checks"] if c["name"] == "epsilon-sequence")
        assert not eps["passed"]
        assert "Frobenius dimension 3, not 4" in eps["details"]["error"]
        assert rep["epsilon_sequence"] is None


@given(st.sampled_from([(8, 2, 10), (27, 3, 99), (7, 7, 7), (11, 11, 19),
                        (64, 2, 456)]),
       st.lists(st.tuples(st.integers(1, 5000), st.integers(2, 70) | st.none(),
                          st.integers(0, 5000)), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_elimination_monotone(field, rows):
    # adding places to a class never revives an eliminated candidate,
    # and no survivor exceeds the least known j_2
    q, p, g = field
    orders = [(0, 1, min(j2, q), q + 1) if j2 else None for _, j2, _ in rows]
    orders[0] = orders[0] or (0, 1, 2, q + 1)  # at least one known class
    base = {i: (n, o) for i, ((n, _, _), o) in enumerate(zip(rows, orders))}
    more = {i: (n + extra, o) for i, ((n, _, extra), o) in enumerate(zip(rows, orders))}
    before = verify.deduce_epsilon_sequence(base, q, p, g)
    after = verify.deduce_epsilon_sequence(more, q, p, g)
    assert set(survivors(after)) <= set(survivors(before))
    least = min(o[2] for o in orders if o)
    assert all(eps2 <= least for eps2 in survivors(after))


@pytest.fixture(scope="module")
def gk3():
    return verify.theorem_report(curves.gk_curve(3))


@pytest.fixture(scope="module")
def gsx():
    return verify.theorem_report(curves.gsx49_curve())


@pytest.fixture(scope="module")
def fk11():
    return verify.theorem_report(curves.fk_curve(11))


class TestTheoremReports:
    def test_gk3_passes(self, gk3):
        assert gk3.passing
        assert gk3.epsilon_sequence == [0, 1, 3, 27]
        assert gk3.order_sequences["ramified"] == [0, 1, 7, 28]
        assert gk3.order_sequences["unramified"] == [0, 1, 3, 28]

    def test_gk2_passes(self):
        rep = verify.theorem_report(curves.gk_curve(2))
        assert rep.passing
        assert rep.epsilon_sequence == [0, 1, 2, 8]

    def test_gsx49_passes(self, gsx):
        assert gsx.passing
        assert gsx.epsilon_sequence == [0, 1, 2, 7]
        assert gsx.order_sequences["Pinf"] == [0, 1, 3, 8]
        assert gsx.frobenius_dimension["from_semigroup"] == 3

    def test_fk_passes(self, fk11):
        assert fk11.passing
        assert fk11.epsilon_sequence == [0, 1, 2, 11]
        assert fk11.frobenius_dimension["from_bound"] == [3]
        assert fk11.order_sequences["distinguished"] == [0, 1, 3, 12]

    def test_gk4_passes(self):
        rep = verify.theorem_report(curves.gk_curve(4))
        assert rep.passing
        assert rep.epsilon_sequence == [0, 1, 4, 64]

    @pytest.mark.parametrize("make,total", [
        (lambda: curves.gk_curve(5), 378126),
        (lambda: curves.fk_curve(89), 240390),
        (lambda: curves.fk_curve(125), 661626),  # the first FK q not prime
    ], ids=["gk5", "fk89", "fk125"])
    def test_passes_beyond_the_catalog(self, monkeypatch, make, total):
        # fields up to 5^6 elements: the census still lands on Hasse-Weil
        monkeypatch.setattr(gf, "FIELD_CAP", 5 ** 6)
        rep = verify.theorem_report(make())
        assert rep.passing
        assert rep.census["total"] == total == curves.maximal_N(
            rep.q, rep.genus["formula"])

    def test_unknown_family_is_named(self):
        curve = curves.gsx49_curve()
        curve.family = "GGS"
        with pytest.raises(ValueError, match="unknown curve family 'GGS'"):
            verify.theorem_report(curve)

    def test_census_delta_breaks_the_weight(self, capsys):
        argv = ["verify", "gk", "--qbar", "2", "--inject-census-delta", "1"]
        assert cli.run(argv + ["--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["report"]["checks"]
        failed = {c["name"]: c["details"] for c in checks if not c["passed"]}
        assert failed["weierstrass-weight"] == {
            "weight": 235, "degree_R": 234, "slack": -1}

    def test_census_delta_flips(self):
        rep = verify.theorem_report(curves.gsx49_curve(), census_delta=1)
        assert not rep.passing
        failed = [c.name for c in rep.checks if not c.passed]
        assert "maximality" in failed

    def test_generic_sequences_padic_admissible(self, gk3, gsx, fk11):
        # the p-adic criterion constrains the generic orders only; the
        # per-place j-sequences may violate it (that is the GSX49 story)
        for rep in (gk3, gsx, fk11):
            assert verify.padic_admissible(rep.epsilon_sequence, rep.p)
        assert not verify.padic_admissible(gsx.order_sequences["Pinf"], gsx.p)

    def test_j2_within_allowed_when_eps2_is_2(self, gsx, fk11):
        for rep in (gsx, fk11):
            assert rep.epsilon_sequence[2] == 2
            for seq in rep.order_sequences.values():
                assert seq[2] in verify.allowed_j2_values(rep.q)

    def test_report_dict_shape(self, gsx):
        d = gsx.to_dict()
        for key in ("curve", "field", "genus", "census", "semigroups",
                    "frobenius_dimension", "order_sequences",
                    "epsilon_sequence", "checks", "passing"):
            assert key in d
        assert d["passing"] is True

    def test_text_report_contains_verdict(self, gsx):
        text = verify.text_report(gsx)
        assert "result: PASS" in text
        assert "census: total 148" in text


@pytest.mark.parametrize("make_curve", [
    pytest.param(lambda: curves.gk_curve(2), id="gk-2"),
    pytest.param(lambda: curves.gk_curve(3), id="gk-3"),
    pytest.param(lambda: curves.gk_curve(4), id="gk-4"),
    pytest.param(curves.gsx49_curve, id="gsx49"),
    *(pytest.param(lambda q=q: curves.fk_curve(q), id=f"fk-{q}")
      for q in (5, 11, 17, 23, 29, 41, 47, 53, 59, 71)),
])
def test_catalog_sweep(make_curve):
    """Every catalog entry the README advertises verifies."""
    assert verify.theorem_report(make_curve()).passing
