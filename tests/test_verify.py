"""Deduction layer: bounds, p-adic filtering, theorem reports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxcurves import curves, verify
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

    def test_monotone_in_r(self):
        for q in range(3, 65):
            for r in range(2, min(q, 10)):
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


class TestEpsilonDeduction:
    def test_gk(self):
        seq = verify.deduce_epsilon_sequence([3, 7], 27, 3)
        assert seq.orders == (0, 1, 3, 27)
        assert seq.role == "generic-eps"

    def test_gsx49_padic_filtering(self):
        assert verify.deduce_epsilon_sequence([3], 7, 7).orders == (0, 1, 2, 7)

    def test_fk(self):
        assert verify.deduce_epsilon_sequence([3], 5, 5).orders == (0, 1, 2, 5)

    def test_min_two(self):
        assert verify.deduce_epsilon_sequence([2, 3], 8, 2).orders == (0, 1, 2, 8)

    def test_rejects_large_min(self):
        with pytest.raises(ValueError):
            verify.deduce_epsilon_sequence([5, 7], 11, 11)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            verify.deduce_epsilon_sequence([], 7, 7)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            verify.deduce_epsilon_sequence([2], 4, 2, frobenius_dimension=2)

    @given(st.lists(st.integers(min_value=4, max_value=40), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_argmin_stability(self, extra):
        # adding larger j_2 observations never changes the deduction
        base = verify.deduce_epsilon_sequence([3, 7], 27, 3)
        noisy = verify.deduce_epsilon_sequence([3, 7] + extra, 27, 3)
        assert noisy.orders == base.orders


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


GK4_DEFECT = ("epsilon-sequence fails at GK qbar = 4: deduce_epsilon_sequence "
              "admits only eps2 in {2, 3}, and the minimum observed j_2 is 4")


@pytest.mark.parametrize("make_curve", [
    pytest.param(lambda: curves.gk_curve(2), id="gk-2"),
    pytest.param(lambda: curves.gk_curve(3), id="gk-3"),
    pytest.param(lambda: curves.gk_curve(4), id="gk-4", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=GK4_DEFECT)),
    pytest.param(curves.gsx49_curve, id="gsx49"),
    *(pytest.param(lambda q=q: curves.fk_curve(q), id=f"fk-{q}")
      for q in (5, 11, 17, 23, 29, 41, 47, 53, 59, 71)),
])
def test_catalog_sweep(make_curve):
    """Every catalog entry the README advertises verifies."""
    assert verify.theorem_report(make_curve()).passing
