"""The curve catalog and exact place enumeration.

Three families are supported:

* GK: the Kummer cover z^(qb^2-qb+1) = u of the Hermitian function
  field y^(qb+1) = x^qb + x over F_{qb^6}, where
  u = y (x^(qb^2-1) - 1) / (x^(qb-1) + 1).
* GSX49: the fixed curve z^16 = t (t+1)^6 over F_49.
* FK: the degree-3 Kummer cover z^3 = w x y of the plane curve
  x^((q+1)/3) + y^((q+1)/3) + 1 = 0 over F_{q^2}, for odd q = 2 mod 3.

Everything is exact integer / finite-field arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd

from .gf import (FieldElement, FieldSpec, enumerate_field, is_in_subfield,
                 make_field, nth_roots, prime_power)

# census class tags
AFFINE_SPLIT = "affine-split"
ZERO_OF_COVER = "zero-of-cover-function"
INFINITE = "infinite"

SAMPLES_PER_CLASS = 3


@dataclass(frozen=True)
class Place:
    """A degree-one place record with class tag and ramification index."""

    id: str
    class_tag: str
    e: int


class PlaceCensus:
    """Aggregated degree-one place counts per class."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[Place]] = {}
        self.meta: dict[str, int] = {}

    def add(self, class_tag: str, n: int = 1, sample: Place | None = None):
        self.counts[class_tag] = self.counts.get(class_tag, 0) + n
        if sample is not None:
            bucket = self.samples.setdefault(class_tag, [])
            if len(bucket) < SAMPLES_PER_CLASS:
                bucket.append(sample)

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


@dataclass
class CurveModel:
    """A catalog entry: family tag, parameters, base field, metadata."""

    family: str  # GK | GSX49 | FK
    params: dict
    field: FieldSpec
    q: int  # the curve is maximal over F_{q^2}
    p: int
    equations: tuple[str, ...]
    constants: dict = field(default_factory=dict)

    def to_fragment(self) -> dict:
        frag = {
            "family": self.family,
            "params": dict(self.params),
            "q": self.q,
            "p": self.p,
            "equations": list(self.equations),
        }
        if self.constants:
            frag["constants"] = {k: getattr(v, "code", v) for k, v in self.constants.items()}
        return frag


# ---------------------------------------------------------------------------
# genus formulas

def genus_gk(qbar: int) -> int:
    """Genus of the GK curve: (qb^3+1)(qb^2-2)/2 + 1."""
    if qbar < 2:
        raise ValueError("qbar must be at least 2")
    num = (qbar ** 3 + 1) * (qbar ** 2 - 2)
    if num % 2:
        raise ValueError("non-integer genus: invalid parameters")
    return num // 2 + 1


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
    every odd q = 2 mod 3); the report cross-checks it against the
    Riemann-Hurwitz form."""
    _validate_fk_q(q)
    return (q * q - q + 4) // 6


def maximal_N(q: int, g: int) -> int:
    """Hasse-Weil upper bound q^2 + 1 + 2gq on rational point counts."""
    if q < 2 or g < 0:
        raise ValueError("need q >= 2 and g >= 0")
    return q * q + 1 + 2 * g * q


def _validate_fk_q(q: int):
    p, _ = prime_power(q)
    if p == 2 or q % 2 == 0:
        raise ValueError("q must be odd")
    if q % 3 != 2:
        raise ValueError("q must be 2 mod 3")


# ---------------------------------------------------------------------------
# curve constructors

def gk_curve(qbar: int) -> CurveModel:
    p, n = prime_power(qbar)
    F = make_field(p, 6 * n)  # F_{qbar^6} = F_{q^2} with q = qbar^3
    q = qbar ** 3
    d = qbar * qbar - qbar + 1
    assert (q + 1) % d == 0
    return CurveModel(
        family="GK",
        params={"qbar": qbar, "d": d},
        field=F,
        q=q,
        p=p,
        equations=(f"y^{qbar + 1} = x^{qbar} + x",
                   f"z^{d} = y*(x^{qbar ** 2 - 1} - 1)/(x^{qbar - 1} + 1)"),
    )


def gsx49_curve() -> CurveModel:
    return CurveModel(
        family="GSX49",
        params={"q": 7, "m": 3},
        field=make_field(7, 2),
        q=7,
        p=7,
        equations=("z^16 = t*(t+1)^6",),
    )


def fk_curve(q: int) -> CurveModel:
    _validate_fk_q(q)
    p, n = prime_power(q)
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
        constants={"w": w},
    )


def _fk_constant_w(F: FieldSpec, q: int) -> FieldElement:
    """First element in enumeration order with w^((q+1)/3) = 3."""
    m3 = (q + 1) // 3
    three = F.from_int(3)
    for w in enumerate_field(F):
        if w ** m3 == three:
            return w
    raise ValueError(f"no w with w^{m3} = 3 in F_{F.order}")


# ---------------------------------------------------------------------------
# place enumeration

def hermitian_affine_points(qbar: int, F: FieldSpec):
    """All (x0, y0) in F x F with y0^(qbar+1) = x0^qbar + x0."""
    p, _ = prime_power(qbar)
    if p != F.p:
        raise ValueError("qbar must be a power of the field characteristic")
    points = []
    for x0 in enumerate_field(F):
        rhs = x0 ** qbar + x0
        for y0 in sorted(nth_roots(rhs, qbar + 1), key=lambda e: e.code):
            points.append((x0, y0))
    return points


def count_gk_places(curve: CurveModel) -> PlaceCensus:
    """Classify every degree-one place of the GK curve over F_{qbar^6}.

    For an affine Hermitian point (x0, y0), with num = x0^(qbar^2-1) - 1
    and den = x0^(qbar-1) + 1:

    * den != 0 and y0*num != 0: unramified fiber with value
      u0 = y0*num/den; it carries 0 or d degree-one places above.
    * den != 0 and y0*num == 0: simple zero of u, fully ramified, 1 place.
    * den == 0 (forces y0 = 0): v(u) = v(y) + v(num) - v(den) = 1,
      again a simple zero of u, fully ramified, 1 place.

    The census only counts; the report judges it against Hasse-Weil.
    """
    qbar = curve.params["qbar"]
    F = curve.field
    d = curve.params["d"]
    census = PlaceCensus()
    split_fibers = inert_fibers = 0
    one = F.one
    e_num = qbar * qbar - 1
    e_den = qbar - 1
    for x0, y0 in hermitian_affine_points(qbar, F):
        den = x0 ** e_den + one
        num = x0 ** e_num - one
        t = y0 * num
        if not den.is_zero() and not t.is_zero():
            u0 = t / den
            roots = nth_roots(u0, d)
            if roots:
                split_fibers += 1
                z0 = min(roots, key=lambda e: e.code)
                census.add(AFFINE_SPLIT, len(roots),
                           Place(f"gk:x={x0.code},y={y0.code},z={z0.code}",
                                 AFFINE_SPLIT, 1))
            else:
                inert_fibers += 1
        else:
            census.add(ZERO_OF_COVER, 1,
                       Place(f"gk:x={x0.code},y={y0.code},z=0", ZERO_OF_COVER, d))
    census.add(INFINITE, 1, Place("gk:P0", INFINITE, d))
    census.meta["split_fibers"] = split_fibers
    census.meta["inert_fibers"] = inert_fibers
    return census


def count_gsx49_places(curve: CurveModel) -> PlaceCensus:
    """Census of z^16 = t(t+1)^6 over F_49.

    Affine fibers are counted over t0 outside {0, -1}; the places over
    t = 0, t = -1 and t = infinity (1 + 2 + 1 of them) are transcribed
    from the principal-divisor data, not recomputed from the singular
    plane model.  The census only counts; the report judges it.
    """
    F = curve.field
    census = PlaceCensus()
    minus_one = F.from_int(-1)
    sixteenth_power_fibers = 0
    for t0 in enumerate_field(F):
        if t0.is_zero() or t0 == minus_one:
            continue
        c = t0 * (t0 + 1) ** 6
        roots = nth_roots(c, 16)
        if roots:
            sixteenth_power_fibers += 1
            z0 = min(roots, key=lambda e: e.code)
            census.add(AFFINE_SPLIT, len(roots),
                       Place(f"gsx49:t={t0.code},z={z0.code}", AFFINE_SPLIT, 1))
    census.add(ZERO_OF_COVER, 1, Place("gsx49:P0", ZERO_OF_COVER, 1))   # over t=0
    census.add(ZERO_OF_COVER, 2, Place("gsx49:P1", ZERO_OF_COVER, 1))   # over t=-1
    census.add(INFINITE, 1, Place("gsx49:Pinf", INFINITE, 1))
    census.meta["sixteenth_power_fibers"] = sixteenth_power_fibers
    return census


def count_fk_places(curve: CurveModel) -> PlaceCensus:
    """Census of the degree-3 Kummer cover over F_{q^2}.

    Affine base points (a, b) with a^((q+1)/3) + b^((q+1)/3) + 1 = 0 and
    ab != 0 must each carry exactly 3 rational places above: condition
    (5) puts 3(ab)^((q+1)/3) in F_q, so the cubic T^3 - w a b splits.  A
    point where either fails is counted in meta["condition5_violations"]
    and contributes no places; the report judges the count.  Zeros and
    poles of xy are fully ramified and give q+1 places in total.
    """
    q = curve.q
    F = curve.field
    w = curve.constants["w"]
    m3 = (q + 1) // 3
    minus_one = F.from_int(-1)
    census = PlaceCensus()
    violations = 0
    for a in enumerate_field(F):
        rhs = minus_one - a ** m3
        for b in sorted(nth_roots(rhs, m3), key=lambda e: e.code):
            if a.is_zero() or b.is_zero():
                census.add(ZERO_OF_COVER, 1,
                           Place(f"fk:a={a.code},b={b.code}", ZERO_OF_COVER, 3))
                continue
            roots = nth_roots(w * a * b, 3)
            if (len(roots) != 3
                    or not is_in_subfield(3 * (a * b) ** m3, F.k // 2)):
                violations += 1
                continue
            z0 = min(roots, key=lambda e: e.code)
            census.add(AFFINE_SPLIT, 3,
                       Place(f"fk:a={a.code},b={b.code},z={z0.code}",
                             AFFINE_SPLIT, 1))
    census.add(INFINITE, m3, Place("fk:Pinf,1", INFINITE, 3))
    census.meta["condition5_violations"] = violations
    ramified = census.counts.get(ZERO_OF_COVER, 0) + census.counts.get(INFINITE, 0)
    census.meta["fully_ramified_places"] = ramified
    return census


# ---------------------------------------------------------------------------
# divisors

class Divisor:
    """Finite formal sum of places, stored as place-id -> multiplicity."""

    def __init__(self, coeffs: dict[str, int] | None = None):
        self.coeffs = {pid: m for pid, m in (coeffs or {}).items() if m != 0}

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self.coeffs)
        for pid, m in other.coeffs.items():
            out[pid] = out.get(pid, 0) + m
        return Divisor(out)

    def scale(self, n: int) -> "Divisor":
        return Divisor({pid: n * m for pid, m in self.coeffs.items()})

    def degree(self) -> int:
        return sum(self.coeffs.values())

    def value(self, pid: str) -> int:
        return self.coeffs.get(pid, 0)

    def pole_part(self) -> "Divisor":
        return Divisor({pid: -m for pid, m in self.coeffs.items() if m < 0})

    def effective_away_from(self, target: str) -> bool:
        return all(m >= 0 for pid, m in self.coeffs.items() if pid != target)

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = " + ".join(f"{m}*{pid}" for pid, m in sorted(self.coeffs.items()))
        return f"Divisor({terms or '0'})"


@dataclass
class PrincipalDivisorTable:
    """Named function symbols -> principal divisors, per curve."""

    curve_family: str
    entries: dict[str, Divisor]

    def __post_init__(self):
        for sym, div in self.entries.items():
            if div.degree() != 0:
                raise ValueError(f"divisor of {sym} has degree {div.degree()} != 0")

    def to_fragment(self) -> dict:
        return {
            "curve_family": self.curve_family,
            "divisors": {sym: dict(sorted(d.coeffs.items()))
                         for sym, d in self.entries.items()},
        }


def gsx49_divisor_table() -> PrincipalDivisorTable:
    """(z) = 3(P1 + P2) + P0 - 7 Pinf and (t+1) = 8(P1 + P2) - 16 Pinf."""
    return PrincipalDivisorTable(
        curve_family="GSX49",
        entries={
            "z": Divisor({"P1": 3, "P2": 3, "P0": 1, "Pinf": -7}),
            "t+1": Divisor({"P1": 8, "P2": 8, "Pinf": -16}),
        },
    )


def fk_divisor_table(q: int) -> PrincipalDivisorTable:
    """Divisors of x and y - beta pulled back to the degree-3 cover.

    On the base, x has (q+1)/3 simple zeros P_{0,beta'} (beta' ranging
    over the roots of beta'^((q+1)/3) = -1) and (q+1)/3 simple poles;
    (y - beta)_0 = ((q+1)/3) P_{0,beta}.  All of these places are fully
    ramified, so multiplicities triple upstairs and each base place has
    a single place above it.  The distinguished place is "P0_beta".
    """
    _validate_fk_q(q)
    m3 = (q + 1) // 3
    zeros = ["P0_beta"] + [f"P0_beta{i}" for i in range(1, m3)]
    infs = [f"Pinf{i}" for i in range(m3)]
    x_div = {pid: 3 for pid in zeros}
    x_div.update({pid: -3 for pid in infs})
    yb_div = {"P0_beta": q + 1}
    yb_div.update({pid: -3 for pid in infs})
    return PrincipalDivisorTable(
        curve_family="FK",
        entries={"x": Divisor(x_div), "y-beta": Divisor(yb_div)},
    )


def divisor_of_monomial(table: PrincipalDivisorTable,
                        exponents: dict[str, int]) -> Divisor:
    """Divisor of prod(symbol^exponent) over the table; degree is 0."""
    out = Divisor()
    for sym, e in exponents.items():
        if sym not in table.entries:
            raise ValueError(f"unknown symbol {sym!r} in divisor table")
        if e:
            out = out + table.entries[sym].scale(e)
    return out


def weierstrass_nongaps_from_monomials(table: PrincipalDivisorTable,
                                       target: str,
                                       ranges: dict[str, range],
                                       q: int) -> dict[str, object]:
    """Scan monomials over the table for certified non-gaps at ``target``.

    A monomial whose divisor is effective away from the target has its
    only pole there, so the pole order is a non-gap with that monomial
    as explicit witness.  q and q+1 are always non-gaps at a rational
    place of a maximal curve and are included with a marker witness.

    Returns {"nongaps": sorted list, "witnesses": {n: exponent map or
    "maximality"}}.
    """
    if not any(target in d.coeffs for d in table.entries.values()):
        raise ValueError(f"target {target!r} does not appear in the table")
    symbols = list(ranges)
    witnesses: dict[int, object] = {0: {s: 0 for s in symbols}}
    for combo in product(*(ranges[s] for s in symbols)):
        exps = dict(zip(symbols, combo))
        div = divisor_of_monomial(table, exps)
        if not div.effective_away_from(target):
            continue
        v = div.value(target)
        if v >= 0:
            continue
        pole = -v
        if pole not in witnesses:
            witnesses[pole] = exps
    for n in (q, q + 1):
        witnesses.setdefault(n, "maximality")
    return {"nongaps": sorted(witnesses), "witnesses": witnesses}
