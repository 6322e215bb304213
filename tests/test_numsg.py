"""Apéry-set semigroups vs. independent oracles, order-sequence translation."""

from math import gcd
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from maxcurves import numsg


def schur_bound(gens):
    """Schur's bound (a1 - 1)(an - 1) + a1, at least the conductor."""
    return (min(gens) - 1) * (max(gens) - 1) + min(gens)


def sieve(gens, bound):
    """Oracle: dynamic-programming membership table on [0, bound]."""
    table = [True] + [False] * bound
    for n in range(1, bound + 1):
        table[n] = any(g <= n and table[n - g] for g in gens)
    return table


def assert_matches_sieve(S, gens):
    """S.genus, S.conductor, S.gaps and contains agree with the table up
    to Schur's bound; beyond it everything is a non-gap."""
    bound = schur_bound(gens)
    table = sieve(gens, bound)
    gaps = tuple(n for n in range(bound + 1) if not table[n])
    assert S.gaps == gaps
    assert S.genus == len(gaps)
    assert S.conductor == (gaps[-1] + 1 if gaps else 0)
    assert [numsg.contains(S, n) for n in range(bound + 1)] == table
    assert numsg.contains(S, bound + 1) and numsg.contains(S, 7 * bound + 3)


def brute_gaps(gens, bound):
    """Oracle: grow the semigroup by saturation instead of a table."""
    members = {0}
    changed = True
    while changed:
        changed = False
        for m in sorted(members):
            for g in gens:
                n = m + g
                if n <= bound and n not in members:
                    members.add(n)
                    changed = True
    return sorted(set(range(bound + 1)) - members)


class TestConstruction:
    def test_two_three(self):
        S = numsg.semigroup_from_generators({2, 3})
        assert S.gaps == (1,)
        assert S.genus == 1
        assert S.conductor == 2

    def test_six_eight_nine(self):
        S = numsg.semigroup_from_generators({6, 8, 9})
        assert S.gaps == (1, 2, 3, 4, 5, 7, 10, 11, 13, 19)
        assert S.genus == 10

    def test_gk_ramified_semigroup(self):
        S = numsg.semigroup_from_generators({21, 27, 28})
        assert S.genus == 99

    def test_rejects_gcd_above_one(self):
        with pytest.raises(ValueError):
            numsg.semigroup_from_generators({4, 6})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            numsg.semigroup_from_generators({0, 3})

    def test_closed_under_addition(self):
        S = numsg.semigroup_from_generators({5, 7, 8})
        bound = 5 * 8 + 8  # well past the conductor
        nongaps = numsg.nongaps_upto(S, bound)
        for a in nongaps:
            for b in nongaps:
                if a + b <= bound:
                    assert numsg.contains(S, a + b)

    def test_minimal_generators(self):
        S = numsg.semigroup_from_generators({5, 7, 8, 10, 12, 13, 15})
        assert S.minimal_generators == (5, 7, 8)


class TestMembership:
    def test_five_is_nongap(self):
        S = numsg.semigroup_from_generators({5, 7, 8})
        assert numsg.contains(S, 5)

    def test_six_is_gap(self):
        S = numsg.semigroup_from_generators({5, 7, 8})
        assert not numsg.contains(S, 6)

    def test_zero_and_negative(self):
        S = numsg.semigroup_from_generators({5, 7, 8})
        assert numsg.contains(S, 0)
        assert not numsg.contains(S, -3)

    def test_beyond_sieve_bound(self):
        S = numsg.semigroup_from_generators({5, 7, 8})
        assert numsg.contains(S, S.bound + 123)

    def test_nongaps_upto(self):
        assert numsg.nongaps_upto(numsg.semigroup_from_generators({5, 7, 8}), 8) == [0, 5, 7, 8]
        assert numsg.nongaps_upto(numsg.semigroup_from_generators({21, 27, 28}), 28) == [0, 21, 27, 28]
        assert numsg.nongaps_upto(numsg.semigroup_from_generators({2, 3}), 1) == [0]


class TestAperyOracle:
    @pytest.mark.parametrize("gens", [(2, 3), (5, 7, 8), (6, 8, 9), (21, 27, 28), (6, 10, 15)])
    def test_agrees_with_sieve(self, gens):
        assert_matches_sieve(numsg.semigroup_from_generators(gens), gens)

    @given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_agrees_on_random_sets(self, gens):
        if reduce(gcd, gens) != 1:
            gens = set(gens) | {max(gens) + 1}  # force gcd 1
        assert_matches_sieve(numsg.semigroup_from_generators(gens), gens)

    @given(st.sets(st.integers(min_value=2, max_value=30), min_size=1, max_size=4),
           st.integers(min_value=2, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity_and_brute_oracle(self, gens, extra):
        gens = set(gens) | {min(gens) + 1}  # coprime consecutive pair
        S = numsg.semigroup_from_generators(gens)
        bigger = numsg.semigroup_from_generators(gens | {extra})
        assert bigger.genus <= S.genus  # adding a generator never adds gaps
        assert list(S.gaps) == brute_gaps(sorted(gens), schur_bound(gens))

    @pytest.mark.parametrize("a,b", [(1, 7), (2, 3), (3, 5), (7, 12),
                                     (1000, 1001), (4093, 4096)])
    def test_sylvester_closed_form(self, a, b):
        S = numsg.semigroup_from_generators({a, b})
        assert S.genus == (a - 1) * (b - 1) // 2
        assert S.conductor == (a - 1) * (b - 1)
        if a > 1:  # the Frobenius number ab - a - b is the largest gap
            assert not numsg.contains(S, a * b - a - b)
            assert numsg.contains(S, a * b - a - b + 1)


class TestOrderSequences:
    def test_frobenius_dimension_examples(self):
        assert numsg.frobenius_dimension_from_semigroup(
            numsg.semigroup_from_generators({5, 7, 8}), 7) == 3
        assert numsg.frobenius_dimension_from_semigroup(
            numsg.semigroup_from_generators({21, 27, 28}), 27) == 3
        assert numsg.frobenius_dimension_from_semigroup(
            numsg.semigroup_from_generators({4, 5}), 4) == 2

    def test_rejects_missing_q(self):
        S = numsg.semigroup_from_generators({5, 7, 8})
        with pytest.raises(ValueError):
            numsg.frobenius_dimension_from_semigroup(S, 5)  # 6 is a gap

    def test_rational_point_orders_examples(self):
        assert numsg.rational_point_orders(
            numsg.semigroup_from_generators({21, 27, 28}), 27).orders == (0, 1, 7, 28)
        assert numsg.rational_point_orders(
            numsg.semigroup_from_generators({5, 7, 8}), 7).orders == (0, 1, 3, 8)
        assert numsg.rational_point_orders(
            numsg.semigroup_from_generators({3, 5}), 5).orders == (0, 1, 3, 6)

    @pytest.mark.parametrize("gens,q", [((5, 7, 8), 7), ((21, 27, 28), 27),
                                        ((4, 5), 4), ((3, 5), 5), ((6, 8, 9), 8)])
    def test_shape_invariants(self, gens, q):
        S = numsg.semigroup_from_generators(gens)
        seq = numsg.rational_point_orders(S, q)
        r = numsg.frobenius_dimension_from_semigroup(S, q)
        assert seq.orders[0] == 0 and seq.orders[1] == 1
        assert seq.orders[-1] == q + 1
        assert len(seq) == r + 1
        assert all(b > a for a, b in zip(seq.orders, seq.orders[1:]))


class TestOrderSequenceType:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            numsg.OrderSequence((0, 1, 1, 5))

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            numsg.OrderSequence((1, 2, 3))
        with pytest.raises(ValueError):
            numsg.OrderSequence((0, 2, 3))
