"""The curve catalog and exact place enumeration.

Three families are supported:

* GK: the Kummer cover z^(qb^2-qb+1) = u of the Hermitian function
  field y^(qb+1) = x^qb + x over F_{qb^6}, where
  u = y (x^(qb^2-1) - 1) / (x^(qb-1) + 1).
* GSX49: the fixed curve z^16 = t (t+1)^6 over F_49.
* FK: the degree-3 Kummer cover z^3 = w x y of the plane curve
  x^((q+1)/3) + y^((q+1)/3) + 1 = 0 over F_{q^2}, for odd q = 2 mod 3.

Everything is exact integer / finite-field arithmetic; no floats.  The
censuses count on discrete logs, read the field only through its
``code``, ``log`` and ``one_plus_every``, name each base coordinate of a
class by its log (None for zero), and make codes and solve for z only at
the sample places they keep.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice, product
from math import gcd
from operator import mul

from .gf import (FieldSpec, check_field_size, make_field, nth_roots, prime_power,
                 root_logs)

# census class tags
AFFINE_SPLIT = "affine-split"
ZERO_OF_COVER = "zero-of-cover-function"
INFINITE = "infinite"

SAMPLES_PER_CLASS = 3


# a degree-one place: its id and ramification index
Place = namedtuple("Place", "id e")


class PlaceCensus:
    """Aggregated degree-one place counts per class."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[Place]] = {}
        self.meta: dict[str, int] = {}

    def add(self, tag: str, n: int = 1, *, samples=()):
        """Count n places of class tag; draw samples only while the class
        keeps fewer than SAMPLES_PER_CLASS."""
        self.counts[tag] = self.counts.get(tag, 0) + n
        kept = self.samples.get(tag, [])
        kept.extend(islice(samples, SAMPLES_PER_CLASS - len(kept)))
        if kept:
            self.samples[tag] = kept

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_fragment(self) -> dict:
        return {
            "total": self.total,
            "by_class": dict(sorted(self.counts.items())),
            "meta": dict(self.meta),
            "samples": {
                tag: [{"id": pl.id, "e": pl.e} for pl in places]
                for tag, places in self.samples.items()
            },
        }


class CurveModel:
    """A catalog entry: family tag (GK | GSX49 | FK), parameters, base
    field, q (the curve is maximal over F_{q^2}), p, equations, divisor
    table (by Kummer's rule) and named constants (field element codes)."""

    def __init__(self, family: str, params: dict, field: FieldSpec, q: int, p: int,
                 equations: tuple[str, ...], table, constants: dict | None = None):
        self.family, self.params, self.field = family, params, field
        self.q, self.p, self.equations, self.table = q, p, equations, table
        self.constants = constants or {}

    def to_fragment(self) -> dict:
        frag = {
            "family": self.family,
            "params": dict(self.params),
            "q": self.q,
            "p": self.p,
            "equations": list(self.equations),
        }
        if self.constants:
            frag["constants"] = dict(self.constants)
        return frag


# ---------------------------------------------------------------------------
# genus formulas

def genus_gk(qbar: int) -> int:
    """Genus of the GK curve: (qb^3+1)(qb^2-2)/2 + 1."""
    if qbar < 2:
        raise ValueError("qbar must be at least 2")
    return (qbar ** 3 + 1) * (qbar ** 2 - 2) // 2 + 1


def genus_gsx(q: int, m: int) -> int:
    """Genus of y^((q^2-1)/m) = x (x+1)^(q-1): (q+1-d)(q-1)/(2m), d = gcd(m, q+1)."""
    if m < 1 or (q * q - 1) % m:
        raise ValueError("m must divide q^2 - 1")
    d = gcd(m, q + 1)
    num = (q + 1 - d) * (q - 1)
    if num % (2 * m):
        raise ValueError("non-integer genus: invalid parameters")
    return num // (2 * m)


def genus_plane_smooth(deg: int) -> int:
    """Genus of a non-singular plane curve of the given degree."""
    if deg < 1:
        raise ValueError("degree must be positive")
    return (deg - 1) * (deg - 2) // 2


def genus_fk(q: int) -> int:
    """Genus (q^2-q+4)/6 of the degree-3 Kummer cover (an integer for
    every odd q = 2 mod 3); the report cross-checks it, like every closed
    form, against the Riemann-Hurwitz genus of the curve's divisor table."""
    _validate_fk_q(q)
    return (q * q - q + 4) // 6


def maximal_N(q: int, g: int) -> int:
    """Hasse-Weil upper bound q^2 + 1 + 2gq on rational point counts."""
    if q < 2 or g < 0:
        raise ValueError("need q >= 2 and g >= 0")
    return q * q + 1 + 2 * g * q


def _validate_fk_q(q: int) -> tuple[int, int]:
    """(p, n) with q = p^n, for an odd prime power q = 2 mod 3."""
    p, n = prime_power(q)
    if p == 2 or q % 2 == 0:
        raise ValueError("q must be odd")
    if q % 3 != 2:
        raise ValueError("q must be 2 mod 3")
    return p, n


# ---------------------------------------------------------------------------
# curve constructors

def gk_curve(qbar: int) -> CurveModel:
    check_field_size(qbar, 6)
    p, n = prime_power(qbar)
    F = make_field(p, 6 * n)  # F_{qbar^6} = F_{q^2} with q = qbar^3
    table = gk_divisor_table(qbar)
    return CurveModel(
        family="GK",
        params={"qbar": qbar, "d": table.d},
        field=F,
        q=qbar ** 3,
        p=p,
        equations=(f"y^{qbar + 1} = x^{qbar} + x",
                   f"z^{table.d} = y*(x^{qbar ** 2 - 1} - 1)/(x^{qbar - 1} + 1)"),
        table=table,
    )


def gsx49_curve() -> CurveModel:
    return CurveModel(
        family="GSX49",
        params={"q": 7, "m": 3},
        field=make_field(7, 2),
        q=7,
        p=7,
        equations=("z^16 = t*(t+1)^6",),
        table=gsx49_divisor_table(),
    )


def fk_curve(q: int) -> CurveModel:
    check_field_size(q, 2)
    p, n = _validate_fk_q(q)
    F = make_field(p, 2 * n)
    w = _fk_constant_w(F, q)
    m3 = (q + 1) // 3
    return CurveModel(
        family="FK",
        params={"q": q},
        field=F,
        q=q,
        p=p,
        equations=(f"x^{m3} + y^{m3} + 1 = 0", "z^3 = w*x*y"),
        table=fk_divisor_table(q), constants={"w": w},
    )


def _fk_constant_w(F: FieldSpec, q: int) -> int:
    """Code of the first element in enumeration order with
    w^((q+1)/3) = 3: zero is not a solution (p != 3), and among the g^i,
    taken in exp order, the first solution is the one with the least
    log."""
    m3 = (q + 1) // 3
    logs = root_logs(F.log(3 % F.p), m3, F.order - 1)
    if not logs:
        raise ValueError(f"no w with w^{m3} = 3 in F_{F.order}")
    return F.code(logs[0])


# ---------------------------------------------------------------------------
# place enumeration

def _points(F: FieldSpec, coords: tuple, la: int, m: int):
    """A class's points and their j: its coords as codes (g^i for the log
    i, 0 for None) + (g^j,) for the roots g^j of y^m = g^la by code, or
    the coords alone (j = 0) when m = 0."""
    coords = tuple([0 if i is None else F.code(i) for i in coords])
    if not m:
        yield coords, 0
        return
    for y, j in sorted((F.code(j), j) for j in root_logs(la, m, F.order - 1)):
        yield coords + (y,), j


def _kummer_census(curve: CurveModel, classes, split_id: str, ramified_id: str,
                   branch: dict) -> tuple[PlaceCensus, int, int]:
    """Count the places of the cover z^d = f that ``curve.table`` describes
    over ``curve.field``: the classes of affine base points that
    ``classes`` yields as (coords, n, la, m, c) in walk order, then the
    table's classes the walk does not reach, ``branch`` = {class: sample
    id}, infinite over a pole of f, else zeros of f.

    A class stands for n base points, each base coordinate named by its
    log (None for zero); its points are those that :func:`_points` lists,
    with log f = j + c, or a zero or pole of f where c is None (n fully
    ramified places, e = d).  m divides N = |F*|, so the class has points
    iff m divides la (the walks yield only such classes; any other is
    skipped), and d divides N/m, the spacing of the roots, so the root
    j = la/m decides the class: d n places when d divides j + c, inert
    otherwise.  The counts add up in locals and reach the census once,
    after the walk; points are listed, and the least z solved, only while
    a tag still draws samples.  Returns the census and the split and inert
    base point counts.
    """
    F, table, census = curve.field, curve.table, PlaceCensus()
    d, kept = table.d, census.samples
    ramified = split = inert = 0
    for coords, n, la, m, c in classes:
        if m and la % m:
            continue  # y^m = g^la has no root
        if c is None:
            ramified += n
            if len(kept.get(ZERO_OF_COVER, ())) < SAMPLES_PER_CLASS:
                census.add(ZERO_OF_COVER, 0, samples=(
                    Place(ramified_id.format(*pt), d)
                    for pt, _ in _points(F, coords, la, m)))
        elif ((la // m if m else 0) + c) % d:
            inert += n
        else:
            split += n
            if len(kept.get(AFFINE_SPLIT, ())) < SAMPLES_PER_CLASS:
                census.add(AFFINE_SPLIT, 0, samples=(Place(split_id.format(
                    *pt, nth_roots(F, F.code((j + c) % (F.order - 1)), d)[0]), 1)
                    for pt, j in _points(F, coords, la, m)))
    for tag, n in ((ZERO_OF_COVER, ramified), (AFFINE_SPLIT, d * split)):
        if n:
            census.add(tag, n)
    for pid, sample in branch.items():
        n, e, vz, _ = table.kummer[pid]
        census.add(INFINITE if vz < 0 else ZERO_OF_COVER, n, samples=[Place(sample, e)])
    return census, split, inert


def count_gk_places(curve: CurveModel) -> PlaceCensus:
    """Classify every degree-one place of the GK curve over F_{qbar^6}.

    For an affine Hermitian point (x0, y0), with num = x0^(qbar^2-1) - 1
    and den = x0^(qbar-1) + 1:

    * den != 0 and y0*num != 0: unramified fiber with value
      u0 = y0*num/den; it carries 0 or d degree-one places above.
    * den != 0 and y0*num == 0: simple zero of u, fully ramified, 1 place.
    * den == 0 (forces y0 = 0): v(u) = v(y) + v(num) - v(den) = 1,
      again a simple zero of u, fully ramified, 1 place.

    On logs (h = log(-1)) the walk takes the origin, then one class per
    x0 = g^i with points in exp order, for the i below.  s = log den, one
    one-plus lookup, also gives y0^(qbar+1) = x0 (1 + x0^(qbar-1)) =
    g^(i+s) (s < 0: y0 = 0 only), so x0 has points iff s < 0 or qbar+1
    divides i + s, about one x0 in qbar+1.  One more lookup gives
    num = -(1 + (-1) x0^(qbar^2-1)): log u = log y0 + h + log num - s.

    The walk takes at most one class per F_qbar*-orbit of x0.  For mu in
    F_{qbar^2}*, (x, y, z) -> (mu^(qbar+1) x, mu y, nu z) with nu^d = mu
    is an automorphism over F_{qbar^6}: both sides of the Hermitian
    equation gain the factor mu^(qbar+1), which lies in F_qbar*, so
    x^(qbar-1) and x^(qbar^2-1) are fixed and u is multiplied by mu, and
    nu exists since qbar^2-1 divides N/d = (qbar^3-1)(qbar+1).  So with
    N = qbar^6-1 the classes i and i + N/(qbar-1) get one verdict, and the
    x0 = g^i with i < N/(qbar-1) stand for all N, qbar-1 each (the norm
    mu^(qbar+1) takes every value in F_qbar* = <g^(N/(qbar-1))>).
    Samples still come from these points (a dropped x0 has none), the
    origin and the first N/(qbar-1) x0 of the full walk in order: a
    prefix of its points, which keeps its samples while it holds
    SAMPLES_PER_CLASS points of each verdict that occurs.  It does: the
    origin, x0 = 1 and x0 = g^(N/(qbar^2-1)) are ramified points or carry
    them (x0 in F_{qbar^2}* makes num or den zero), and every split class
    of the full walk has an orbit mate in the prefix, with the same
    qbar+1 >= 3 points.

    The census only counts; the report judges it against Hasse-Weil.
    """
    qbar, F = curve.params["qbar"], curve.field
    one_plus, h = F.one_plus_every(1), F.log(F.p - 1)
    w, m = qbar - 1, qbar + 1  # x0s per orbit, points per x0
    # log num at i < N/w is one_plus[(i w m + h) % N], of period N/(w m)
    den, wm = one_plus[::w], w * m
    num = (one_plus[h::wm] + one_plus[h % wm:h:wm]) * m
    hit = [i for i, s in enumerate(den) if s < 0 or not (i + s) % m]

    def classes():
        yield (None, None), 1, 0, 0, None
        for i in hit:
            s = den[i]
            if s < 0:
                yield (i, None), w, 0, 0, None
                continue
            l_num = num[i]
            yield (i,), w * m, i + s, m, None if l_num < 0 else h + l_num - s

    census, split, inert = _kummer_census(curve, classes(), "gk:x={},y={},z={}",
                                          "gk:x={},y={},z=0", {"P0": "gk:P0"})
    census.meta.update(split_fibers=split, inert_fibers=inert)
    return census


def count_gsx49_places(curve: CurveModel) -> PlaceCensus:
    """Census of z^16 = t(t+1)^6 over F_49.

    Affine fibers are counted over t0 outside {0, -1}, one class each; the
    places over 0, -1 and infinity come from Kummer's rule; the report judges.
    """
    F = curve.field
    classes = (((i,), 1, 0, 0, i + 6 * s)  # t0 = g^i, c = log t0 (t0 + 1)^6
               for i, s in enumerate(F.one_plus_every(1)) if s >= 0)  # t0 != -1
    census, split, _ = _kummer_census(curve, classes, "gsx49:t={},z={}", "", {
        "P0": "gsx49:P0", "P1,P2": "gsx49:P1", "Pinf": "gsx49:Pinf"})
    census.meta["sixteenth_power_fibers"] = split
    return census


def count_fk_places(curve: CurveModel) -> PlaceCensus:
    """Census of the degree-3 Kummer cover over F_{q^2}.

    Affine base points (a, b) with a^m3 + b^m3 + 1 = 0, m3 = (q+1)/3, and
    ab != 0 must each carry exactly 3 rational places above: condition
    (5) puts 3(ab)^m3 in F_q, so the cubic T^3 - w a b splits.  A point
    where it does not is counted in meta["condition5_violations"] and
    contributes no places; the report judges the count.  Zeros and poles
    of xy are fully ramified and give q+1 places in total.

    On logs (h = log(-1)): b^m3 = -(1 + a^m3) is a one-plus lookup, and
    the cubic splits iff 3 divides log(wab).  That one test is condition
    (5): w^m3 = 3 gives log 3 = m3 log w (mod N), so log 3(ab)^m3 =
    m3 log(wab) (mod N), and since q+1 = 3 m3 divides N, q+1 divides it
    (the test for F_q) exactly when 3 divides log(wab).

    The walk takes one class per a with points: s = log(1 + a^m3) < 0
    (b = 0) or m3 | h + s.  With N = q^2 - 1 and a = g^i, s, entry i of
    F.one_plus_every(m3), depends only on i mod N/m3 = 3(q-1), a multiple
    of 3, so the a = g^i with i < 3(q-1) stand for all N values of a, m3
    each, with the same roots b and the same split test 3 | lw + i + j: a
    point (a, b) weighs m3 (a = 0's weigh 1).  Samples still come from
    these points (a dropped a has none), the first 3(q-1) a of the full
    walk (zero, then exp order) with their roots in the same order: a
    prefix of its points, which keeps its samples while it holds
    SAMPLES_PER_CLASS points of each verdict that occurs.  It does: a = 0
    gives m3 ramified points and each class m3 points of its verdict,
    m3 >= 3 for q >= 11, and at q = 5 the prefix holds 3 ramified and 10
    split points.
    """
    F, m3 = curve.field, (curve.q + 1) // 3
    h = F.log(F.p - 1)
    lw = F.log(curve.constants["w"])
    ops = F.one_plus_every(m3)  # a = g^i, i < 3(q-1): s = log(1 + a^m3)

    def classes():
        yield (None,), m3, h, m3, None  # a = 0
        for i in [i for i, s in enumerate(ops) if s < 0 or not (h + s) % m3]:
            s = ops[i]
            if s < 0:  # b = 0
                yield (i, None), m3, 0, 0, None
            else:
                yield (i,), m3 * m3, h + s, m3, lw + i

    census, _, inert = _kummer_census(curve, classes(), "fk:a={},b={},z={}",
                                      "fk:a={},b={}", {"Pinf": "fk:Pinf,1"})
    census.meta["condition5_violations"] = inert
    census.meta["fully_ramified_places"] = (census.counts.get(ZERO_OF_COVER, 0)
                                            + census.counts[INFINITE])
    return census


# ---------------------------------------------------------------------------
# principal divisors as integer valuation rows per place class; each family's
# table is Kummer's rule on its cover's base places {class: (n, v(f), row)}

class PrincipalDivisorTable:
    """Principal divisors of named function symbols, by place class:
    ``places[pid] = (n, row)`` stands for n places at each of which
    ``symbols[i]`` has valuation ``row[i]``.  A cover's table holds its
    kummer_places map ``kummer``, degree ``d``, base genus ``g0`` and
    ``genus`` by Riemann-Hurwitz (:func:`_kummer_table`)."""

    def __init__(self, symbols: tuple[str, ...], places: dict[str, tuple],
                 kummer=None, d=None, g0=None, genus=None):
        self.symbols, self.places, self.kummer, self.d = symbols, places, kummer, d
        self.g0, self.genus = g0, genus
        for i, sym in enumerate(self.symbols):
            deg = sum(n * row[i] for n, row in self.places.values())
            if deg != 0:
                raise ValueError(f"divisor of {sym} has degree {deg} != 0")


def kummer_places(d: int, base: dict) -> dict:
    """Kummer's rule (Stichtenoth, Algebraic Function Fields and Codes,
    Prop. 3.7.3) for z^d = f: over each of n base places with v(f) = k lie
    g = gcd(d, k) places, rational if f's unit part there is a g-th power,
    with e = d/g, v(z) = k/g and v(h) = e v_base(h).  Maps {class: (n, k,
    row)} to {class: (n g, e, v(z), row upstairs)}."""
    out = {}
    for pid, (n, k, row) in base.items():
        g = gcd(d, k)
        out[pid] = n * g, d // g, k // g, tuple([d // g * v for v in row])
    return out


def _kummer_table(d: int, g0: int, symbols: tuple, base: dict) -> PrincipalDivisorTable:
    """The table of z^d = f over a curve of genus g0: a class per zero or pole
    of f or a scanned h, and the genus by tame Riemann-Hurwitz, 2g - 2 =
    d(2 g0 - 2) + sum n(e - 1) over the classes (even, as deg f = 0)."""
    i, places = symbols.index("z"), kummer_places(d, base)
    ramified = sum(n * (e - 1) for n, e, _, _ in places.values())
    return PrincipalDivisorTable(symbols, {
        pid: (n, row[:i] + (vz,) + row[i:]) for pid, (n, _, vz, row) in places.items()},
        places, d, g0, 1 + d * (g0 - 1) + ramified // 2)


def gsx49_divisor_table() -> PrincipalDivisorTable:
    """z^16 = t (t+1)^6 over the t-line, with v(f) = 1, 6, -7 at t = 0,
    -1, infinity: (z) = 3(P1 + P2) + P0 - 7 Pinf, (t+1) = 8(P1 + P2) - 16 Pinf."""
    return _kummer_table(16, 0, ("z", "t+1"), {
        "P0": (1, 1, (0,)), "P1,P2": (1, 6, (1,)), "Pinf": (1, -7, (-1,))})


def gk_divisor_table(qbar: int) -> PrincipalDivisorTable:
    """z^d = u over the Hermitian curve, d = qb^2 - qb + 1: u has a pole of
    order qb^3 at P0 (the pole of x; distinguished) and simple zeros at the
    origin, the qb - 1 (a, 0) with a^(qb-1) = -1 and the qb^3 - qb others."""
    return _kummer_table(qbar * qbar - qbar + 1, qbar * (qbar - 1) // 2,
                         ("x", "y", "z"), {
        "P0": (1, -qbar ** 3, (-qbar - 1, -qbar)), "origin": (1, 1, (qbar + 1, 1)),
        "(a,0)": (qbar - 1, 1, (0, 1)), "zeros-of-u": (qbar ** 3 - qbar, 1, (0, 0))})


def fk_divisor_table(q: int) -> PrincipalDivisorTable:
    """z^3 = w x y over x^m3 + y^m3 + 1 = 0, m3 = (q+1)/3: x has simple zeros
    at P0_beta = (0, beta) (distinguished) and the m3 - 1 other (0, beta'), y
    at the m3 (a, 0), both simple poles at the m3 Pinf; v(y - beta) = m3 at P0_beta."""
    _validate_fk_q(q)
    m3 = (q + 1) // 3
    return _kummer_table(3, genus_plane_smooth(m3), ("x", "y-beta", "z"), {
        "P0_beta": (1, 1, (1, m3)), "P0_beta'": (m3 - 1, 1, (1, 0)),
        "zeros-of-y": (m3, 1, (0, 0)), "Pinf": (m3, -2, (-1, -1))})


def weierstrass_nongaps_from_monomials(table: PrincipalDivisorTable,
                                       target: str,
                                       ranges: dict[str, range]) -> dict[str, object]:
    """Scan monomials over the table for certified non-gaps at ``target``.

    A monomial with non-negative valuation at every other place has its
    only pole at the target, so the pole order is a non-gap with that
    monomial as explicit witness; the first monomial in ``product``
    order over ``ranges`` is kept per pole.  ``target`` must be a class
    of one place.

    Returns {"nongaps": sorted list, "witnesses": {n: exponent map}}.
    """
    if table.places.get(target, (0,))[0] != 1:
        raise ValueError(f"target {target!r} is not one place of the table")
    symbols = list(ranges)
    unknown = [s for s in symbols if s not in table.symbols]
    if unknown:
        raise ValueError(f"unknown symbol {unknown[0]!r} in divisor table")
    cols = [table.symbols.index(s) for s in symbols]
    # each class's valuation row restricted to the scanned symbols
    rows = {pid: tuple(row[c] for c in cols)
            for pid, (_, row) in table.places.items()}
    at_target = rows.pop(target)
    others = set(rows.values()) - {(0,) * len(cols)}  # a zero row bounds nothing
    witnesses = {0: {s: 0 for s in symbols}}
    for exps in product(*ranges.values()):
        pole = -sum(map(mul, at_target, exps))
        if (pole > 0 and pole not in witnesses
                and all(sum(map(mul, row, exps)) >= 0 for row in others)):
            witnesses[pole] = dict(zip(symbols, exps))
    return {"nongaps": sorted(witnesses), "witnesses": witnesses}
