"""Numerical semigroups and order sequences at rational places.

A numerical semigroup is given by generators with gcd 1 and held as its
Apéry set with respect to the smallest generator m: for each residue r
modulo m, the least element of the semigroup congruent to r.  Those m
shortest paths decide membership, and Selmer's formula (J. Reine Angew.
Math. 293/294, 1977) gives the gap count as the sum of w // m over the
Apéry set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from functools import reduce


class NumericalSemigroup:
    """Generators plus the Apéry set with respect to m = min(generators).

    ``apery[r]`` is the least non-gap congruent to r modulo m, so n is a
    non-gap iff n >= apery[n % m].  Every n >= ``bound`` (the conductor)
    is a non-gap.  Immutable after construction; build with
    :func:`semigroup_from_generators`.
    """

    def __init__(self, generators: tuple[int, ...], apery: list[int]):
        self.generators = generators
        self.apery = apery
        m = generators[0]
        self.genus = sum(w // m for w in apery)
        self.conductor = max(apery) - m + 1
        self.bound = self.conductor

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.conductor) if not contains(self, n))

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """Non-gaps that are not sums of two smaller positive non-gaps."""
        out = []
        for n in self.generators:
            if not any(contains(self, a) and contains(self, n - a)
                       for a in range(1, n // 2 + 1)):
                out.append(n)
        return tuple(out)

    def to_fragment(self, q: int | None = None) -> dict:
        frag = {
            "generators": list(self.minimal_generators),
            "genus": self.genus,
            "conductor": self.conductor,
        }
        if self.genus <= 64:
            frag["gaps"] = list(self.gaps)
        if q is not None:
            frag["nongaps_upto_q_plus_1"] = nongaps_upto(self, q + 1)
        return frag

    def __repr__(self) -> str:
        gens = ",".join(map(str, self.generators))
        return f"NumericalSemigroup(<{gens}>, genus={self.genus})"


def semigroup_from_generators(gens) -> NumericalSemigroup:
    """Build the semigroup generated by ``gens`` (positive ints, gcd 1).

    Runs Dijkstra on the residues modulo the smallest generator m; the
    distance to residue r is the Apéry element of r.
    """
    generators = tuple(sorted(set(int(g) for g in gens)))
    if not generators or generators[0] < 1:
        raise ValueError("generators must be positive integers")
    if reduce(gcd, generators) != 1:
        raise ValueError("gcd of generators must be 1 (finite gap set)")
    m = generators[0]
    # a shortest path takes at most m - 1 steps of at most the largest
    # generator, so this integer exceeds every distance found
    unreached = m * generators[-1]
    dist = [unreached] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for g in generators[1:]:
            nd, nr = d + g, (r + g) % m
            if nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return NumericalSemigroup(generators, dist)


def contains(S: NumericalSemigroup, n: int) -> bool:
    """True iff n is a non-gap of S (no Apéry element is negative, so
    no negative n is)."""
    return n >= S.apery[n % S.generators[0]]


def nongaps_upto(S: NumericalSemigroup, B: int) -> list[int]:
    """The non-gaps of S in [0, B], increasing."""
    if B < 0:
        raise ValueError("B must be non-negative")
    return [n for n in range(B + 1) if contains(S, n)]


@dataclass(frozen=True)
class OrderSequence:
    """A strictly increasing order sequence 0 < 1 < ... (the j-orders at
    a place or the generic orders of a linear series)."""

    orders: tuple[int, ...]

    def __post_init__(self):
        o = self.orders
        if any(b <= a for a, b in zip(o, o[1:])):
            raise ValueError(f"order sequence not strictly increasing: {o}")
        if o and o[0] != 0:
            raise ValueError("order sequence must start at 0")
        if len(o) >= 2 and o[1] != 1:
            raise ValueError("second order must be 1")

    def __iter__(self):
        return iter(self.orders)

    def __len__(self):
        return len(self.orders)


def frobenius_dimension_from_semigroup(S: NumericalSemigroup, q: int) -> int:
    """Dimension r of the degree-(q+1) linear series read off from H(P):
    the non-gaps of a maximal curve's rational place in [0, q+1] are
    exactly m_0, ..., m_r with m_{r-1} = q and m_r = q+1."""
    if not (contains(S, q) and contains(S, q + 1)):
        raise ValueError(
            f"q={q} and q+1 must be non-gaps (semigroup cannot come from "
            f"a maximal curve over F_q^2)")
    return len(nongaps_upto(S, q + 1)) - 1


def rational_point_orders(S: NumericalSemigroup, q: int) -> OrderSequence:
    """Order sequence at a rational place from its Weierstrass semigroup:
    0 < 1 < q+1-m_{r-2} < ... < q+1-m_1 < q+1."""
    m = nongaps_upto(S, q + 1)
    r = frobenius_dimension_from_semigroup(S, q)
    orders = [0, 1] + [q + 1 - m[i] for i in range(r - 2, 0, -1)] + [q + 1]
    seq = OrderSequence(tuple(orders))
    assert len(seq) == r + 1
    return seq
