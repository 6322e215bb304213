"""Numerical semigroups and order sequences at rational places.

A numerical semigroup is given by generators with gcd 1; membership is
decided by a boolean sieve whose bound provably covers the conductor.
A second, independent gap-count route (Apéry set via shortest paths
modulo the smallest generator) is kept here as a mutual oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from functools import reduce


class NumericalSemigroup:
    """Generators plus computed gap/non-gap structure.

    Immutable after construction; build with
    :func:`semigroup_from_generators`.
    """

    def __init__(self, generators: tuple[int, ...], sieve: bytearray,
                 bound: int, gaps: tuple[int, ...], conductor: int):
        self.generators = generators
        self._sieve = sieve
        self.bound = bound
        self.gaps = gaps
        self.conductor = conductor

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """Non-gaps that are not sums of two smaller positive non-gaps."""
        out = []
        for n in self.generators:
            if not any(self._sieve[a] and self._sieve[n - a]
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
    """Build the semigroup generated by ``gens`` (positive ints, gcd 1)."""
    generators = tuple(sorted(set(int(g) for g in gens)))
    if not generators or generators[0] < 1:
        raise ValueError("generators must be positive integers")
    if reduce(gcd, generators) != 1:
        raise ValueError("gcd of generators must be 1 (finite gap set)")
    lo, hi = generators[0], generators[-1]
    bound = lo * hi + hi  # >= Frobenius number of a coprime pair
    while True:
        sieve = bytearray(bound + 1)
        sieve[0] = 1
        for i in range(1, bound + 1):
            for g in generators:
                if g > i:
                    break
                if sieve[i - g]:
                    sieve[i] = 1
                    break
        # a full window of length min(gens) certifies everything beyond
        if all(sieve[bound - lo + 1:]):
            break
        bound *= 2  # unreachable for gcd-1 inputs, kept as a safety net
    gaps = tuple(i for i in range(bound + 1) if not sieve[i])
    conductor = gaps[-1] + 1 if gaps else 0
    return NumericalSemigroup(generators, sieve, bound, gaps, conductor)


def contains(S: NumericalSemigroup, n: int) -> bool:
    """True iff n is a non-gap of S."""
    if n < 0:
        return False
    if n <= S.bound:
        return bool(S._sieve[n])
    return True


def nongaps_upto(S: NumericalSemigroup, B: int) -> list[int]:
    """The non-gaps of S in [0, B], increasing."""
    if B < 0:
        raise ValueError("B must be non-negative")
    return [n for n in range(B + 1) if contains(S, n)]


def genus_via_apery(gens) -> int:
    """Gap count via the Apéry set, independent of the sieve.

    Runs Dijkstra on residues modulo the smallest generator; the gap
    count is the sum over Apéry elements w of floor(w / m).
    """
    generators = tuple(sorted(set(int(g) for g in gens)))
    if reduce(gcd, generators) != 1:
        raise ValueError("gcd of generators must be 1")
    m = generators[0]
    if m == 1:
        return 0
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
    return sum(w // m for w in dist)


@dataclass(frozen=True)
class OrderSequence:
    """A strictly increasing order sequence with its role tag."""

    orders: tuple[int, ...]
    role: str = "rational-place-j"  # or generic-eps / nonrational-place-j

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
    seq = OrderSequence(tuple(orders), role="rational-place-j")
    assert len(seq) == r + 1
    return seq
