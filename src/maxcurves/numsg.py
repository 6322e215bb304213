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
        apery, m = self.apery, self.generators[0]
        return tuple(n for n in range(self.conductor) if n < apery[n % m])

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """Generators that are no sum a + b of positive non-gaps.  n is
        such a sum iff some generator g < n leaves n - g a non-gap (a =
        g + a' gives n - g = a' + b), so k generators take k^2 lookups."""
        gens = self.generators
        return tuple(n for n in gens
                     if not any(g < n and contains(self, n - g) for g in gens))

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
    apery, m = S.apery, S.generators[0]
    return [n for n in range(B + 1) if n >= apery[n % m]]


def frobenius_dimension_from_semigroup(S: NumericalSemigroup, q: int) -> int:
    """Dimension r of the degree-(q+1) linear series read off from H(P):
    one less than the length of the order sequence at P."""
    return len(rational_point_orders(S, q)) - 1


def rational_point_orders(S: NumericalSemigroup, q: int) -> tuple[int, ...]:
    """Order sequence at a rational place from its Weierstrass semigroup:
    the non-gaps of a maximal curve's rational place in [0, q+1] are
    exactly m_0 < ... < m_r with m_{r-1} = q and m_r = q+1, and the
    orders are 0 < 1 < q+1-m_{r-2} < ... < q+1-m_1 < q+1, a strictly
    increasing tuple by construction."""
    if not (contains(S, q) and contains(S, q + 1)):
        raise ValueError(
            f"q={q} and q+1 must be non-gaps (semigroup cannot come from "
            f"a maximal curve over F_q^2)")
    m = nongaps_upto(S, q + 1)
    return (0, 1, *(q + 1 - n for n in reversed(m[1:-2])), q + 1)
