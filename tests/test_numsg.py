"""Apéry-set semigroups vs. independent oracles, order-sequence translation."""

import heapq
import sys
import tracemalloc
from math import gcd
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from maxcurves import numsg


def schur_bound(gens):
    """Schur's bound (a1 - 1)(an - 1) + a1, at least the conductor."""
    return (min(gens) - 1) * (max(gens) - 1) + min(gens)


def minimal_by_pairs(S):
    """Reference: the generators that are no sum a + b of two positive
    non-gaps, a <= b."""
    return tuple(n for n in S.generators
                 if not any(numsg.contains(S, a) and numsg.contains(S, n - a)
                            for a in range(1, n // 2 + 1)))


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


def dijkstra_apery(gens):
    """Oracle: the Apéry set as shortest paths from residue 0 on the
    residues modulo m = min(gens), each generator g an edge r -> r + g
    of length g, by heap Dijkstra."""
    m = min(gens)
    dist = [None] * m
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is None:
            dist[r] = d
            for g in gens:
                if dist[(r + g) % m] is None:
                    heapq.heappush(heap, (d + g, (r + g) % m))
    return dist


@st.composite
def query_scale_generators(draw):
    """4 to 6 generators as the query commands meet them: the smallest m
    up to 1000, the others in (m, 2m], at least one sharing a factor
    p > 1 with m, and one given twice."""
    p = draw(st.integers(2, 10))
    m = p * draw(st.integers(1, 1000 // p))
    shared = m + p * draw(st.integers(1, m // p))
    rest = draw(st.lists(st.integers(m + 1, 2 * m), min_size=1, max_size=3))
    gens = [m, shared, *rest, draw(st.sampled_from(rest))]
    if reduce(gcd, gens) != 1:
        gens.append(m + 1)
    return gens


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 200), min_size=1, max_size=6)
           .filter(lambda gens: reduce(gcd, gens) == 1))
    def test_minimal_generators_match_the_pair_definition(self, gens):
        S = numsg.semigroup_from_generators(gens)
        assert S.minimal_generators == minimal_by_pairs(S)

    def test_minimal_generators_take_at_most_k_squared_lookups(self, monkeypatch):
        # 42, 63 and 1021 are sums of the others: the construction skips
        # them as it goes, with no membership test afterwards
        calls = []
        monkeypatch.setattr(numsg, "contains", lambda S, n: calls.append(n))
        S = numsg.semigroup_from_generators({21, 42, 63, 1000, 1021})
        assert S.minimal_generators == (21, 1000)
        assert calls == []


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

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(1, 60), min_size=1, max_size=5),
           st.sampled_from(["zero", "below-m", "below-conductor",
                            "past-conductor"]),
           st.integers(0, 200))
    def test_nongaps_upto_matches_sieve(self, gens, where, extra):
        if reduce(gcd, gens) != 1:
            gens = gens | {max(gens) + 1}
        S = numsg.semigroup_from_generators(gens)
        m, c = min(gens), S.conductor
        # below the conductor, B cuts residue runs part-way (m <= B < c)
        B = {"zero": 0, "below-m": extra % m,
             "below-conductor": (m + extra % (c - m)) if c > m else c,
             "past-conductor": c + extra}[where]
        table = sieve(gens, B)
        assert numsg.nongaps_upto(S, B) == [n for n in range(B + 1) if table[n]]

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

    @pytest.mark.parametrize("gens", [(895, 931, 1290), (240, 3557, 3558),
                                      (1000, 1500, 1250, 1001, 1500)])
    def test_agrees_with_dijkstra(self, gens):
        assert numsg.semigroup_from_generators(gens).apery == dijkstra_apery(gens)

    @given(query_scale_generators())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_dijkstra_at_query_scale(self, gens):
        assert numsg.semigroup_from_generators(gens).apery == dijkstra_apery(gens)

    @pytest.mark.parametrize("gens", [(65521, 65536, 98304), (65537, 65538, 65539)])
    def test_peak_memory_is_about_the_apery_set(self, gens):
        # a walk that copies each cycle and rebinds every residue it
        # passes peaked at 2.2 times the Apéry list's bytes here
        tracemalloc.start()
        try:
            S = numsg.semigroup_from_generators(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (sys.getsizeof(S.apery) + sum(map(sys.getsizeof, S.apery)))

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
            numsg.semigroup_from_generators({21, 27, 28}), 27) == (0, 1, 7, 28)
        assert numsg.rational_point_orders(
            numsg.semigroup_from_generators({5, 7, 8}), 7) == (0, 1, 3, 8)
        assert numsg.rational_point_orders(
            numsg.semigroup_from_generators({3, 5}), 5) == (0, 1, 3, 6)

    @pytest.mark.parametrize("gens,q", [((5, 7, 8), 7), ((21, 27, 28), 27),
                                        ((4, 5), 4), ((3, 5), 5), ((6, 8, 9), 8)])
    def test_shape_invariants(self, gens, q):
        S = numsg.semigroup_from_generators(gens)
        seq = numsg.rational_point_orders(S, q)
        r = numsg.frobenius_dimension_from_semigroup(S, q)
        assert seq[0] == 0 and seq[1] == 1
        assert seq[-1] == q + 1
        assert len(seq) == r + 1
        assert all(b > a for a, b in zip(seq, seq[1:]))

