"""Numerical semigroups and order sequences at rational places.

A numerical semigroup is given by generators with gcd 1 and held as its
Apéry set with respect to the smallest generator m: for each residue r
modulo m, the least element of the semigroup congruent to r.  Round
robin (Böcker and Lipták, Algorithmica 48, 2007) builds it in O(k·m)
steps for k generators.  It decides membership, gives the gap count by
Selmer's formula (J. Reine Angew. Math. 293/294, 1977), and lists the
non-gaps below a bound by sorting one arithmetic run per residue.
"""

from __future__ import annotations

from math import gcd
from functools import reduce


class NumericalSemigroup:
    """Generators plus the Apéry set with respect to m = min(generators).

    ``apery[r]`` is the least non-gap congruent to r modulo m, so n is a
    non-gap iff n >= apery[n % m], and every n >= ``bound`` (the
    conductor) is.  ``minimal_generators`` are the generators that are no
    sum of positive non-gaps.  Build with :func:`semigroup_from_generators`.
    """

    def __init__(self, generators: tuple[int, ...], apery: list[int],
                 minimal_generators: tuple[int, ...]):
        self.generators = generators
        self.apery = apery
        self.minimal_generators = minimal_generators
        m = generators[0]
        # Selmer: w = m·(w // m) + r, and the residues r sum to m(m-1)/2
        self.genus = (sum(apery) - m * (m - 1) // 2) // m
        self.bound = self.conductor = max(apery) - m + 1

    @property
    def gaps(self) -> tuple[int, ...]:
        # the conductor is at most twice the gap count, so this is O(genus)
        apery, m = self.apery, self.generators[0]
        return tuple(n for n in range(self.conductor) if n < apery[n % m])

    def to_fragment(self, q: int | None = None) -> dict:
        frag = {"generators": list(self.minimal_generators),
                "genus": self.genus, "conductor": self.conductor}
        if self.genus <= 64:
            frag["gaps"] = list(self.gaps)
        if q is not None:
            frag["nongaps_upto_q_plus_1"] = nongaps_upto(self, q + 1)
        return frag


def semigroup_from_generators(gens) -> NumericalSemigroup:
    """Build the semigroup generated by ``gens`` (positive ints, gcd 1).

    Round robin: <m> has 0 at residue 0 and nothing elsewhere.  Adding a
    generator a splits the residues into gcd(m, a) cycles r -> r + a; one
    walk around each from its least entry, keeping n = min(n + a, dist[r])
    and writing an entry only when it drops, adds a in O(m) steps.  Taken
    in increasing order, a generator is minimal iff not yet a non-gap.
    """
    generators = tuple(sorted(set(int(g) for g in gens)))
    if not generators:
        raise ValueError("no generators given")
    if generators[0] < 1:
        raise ValueError("generators must be positive integers")
    if reduce(gcd, generators) != 1:
        raise ValueError("gcd of generators must be 1 (finite gap set)")
    m = generators[0]
    # an Apéry element sums at most m - 1 generators, so it is below this
    unreached = m * generators[-1]
    dist = [0] + [unreached] * (m - 1)
    minimal = [m]
    for a in generators[1:]:
        if a >= dist[a % m]:
            continue  # a sum of smaller generators: not minimal, adds nothing
        minimal.append(a)
        d, step, wrap = gcd(m, a), a % m, m - a % m
        for start in range(d):
            # least entry of the cycle ≡ start mod d, found with no copy
            r = min(range(start, m, d), key=dist.__getitem__) if start else 0
            n = dist[r]
            if n == unreached:
                continue
            for _ in range(m // d - 1):
                r = r - wrap if r >= wrap else r + step
                n += a
                w = dist[r]
                if n < w:
                    dist[r] = n
                elif w < n:
                    n = w
    return NumericalSemigroup(generators, dist, tuple(minimal))


def contains(S: NumericalSemigroup, n: int) -> bool:
    """True iff n is a non-gap of S (no negative n is: apery >= 0)."""
    return n >= S.apery[n % S.generators[0]]


def nongaps_upto(S: NumericalSemigroup, B: int) -> list[int]:
    """The non-gaps of S in [0, B], increasing.  Below the conductor c,
    those ≡ r mod m are the run apery[r], apery[r] + m, ...; one sort
    merges the runs, and every n in [c, B] follows."""
    if B < 0:
        raise ValueError("B must be non-negative")
    m, c = S.generators[0], S.conductor
    top = min(B + 1, c)
    nongaps = sorted([n for w in S.apery if w < top for n in range(w, top, m)])
    nongaps.extend(range(c, B + 1))
    return nongaps


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
        raise ValueError(f"q={q} and q+1 must be non-gaps (semigroup cannot "
                         f"come from a maximal curve over F_q^2)")
    m = nongaps_upto(S, q + 1)
    return (0, 1, *(q + 1 - n for n in reversed(m[1:-2])), q + 1)
