"""Element-level helpers the tests build brute-force oracles from.

The package computes on integer codes and discrete logs and needs none
of these: polynomial products on coefficient lists, an element class,
whole-field enumeration, subfield membership, powers of the generator,
roots as elements and the Hermitian points as element pairs.  Elements
compute on the field's exp and log tables from ``gf._tables``, so on
F_{p^2} they check the P^1 model of ``code`` and ``log``.  A spy,
``table_builds``, records which fields build their tables.
"""

from functools import lru_cache

from maxcurves import gf
from maxcurves.gf import FieldSpec, nth_roots


@lru_cache(maxsize=16)
def tables(F: FieldSpec) -> tuple[list[int], list[int], list[int]]:
    """F's exp, log and one-plus tables, built once for the last fields."""
    return gf._tables(F)


def table_builds(monkeypatch) -> list[int]:
    """Spy on ``gf._tables``: the order of every field that builds its
    tables from now on, in build order."""
    built, real = [], gf._tables

    def spy(F):
        built.append(F.order)
        return real(F)

    monkeypatch.setattr(gf, "_tables", spy)
    return built


def digits(code: int, p: int, k: int) -> list[int]:
    """The k base-p digits of a code, low first: its coefficient list."""
    out = []
    for _ in range(k):
        code, d = divmod(code, p)
        out.append(d)
    return out


def from_digits(coeffs: list[int], p: int) -> int:
    """The code of a coefficient list (low first) over F_p."""
    return sum(c % p * p ** i for i, c in enumerate(coeffs))


def poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a*b mod (f, p) on coefficient lists, low first, f monic of degree
    k: a schoolbook product, then long division by f.  Returns k
    coefficients in [0, p)."""
    k = len(f) - 1
    c = [0] * max(len(a) + len(b) - 1, k)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for i in range(len(c) - 1, k - 1, -1):
        top = c[i] % p
        for j in range(k + 1):
            c[i - k + j] -= top * f[j]
    return [x % p for x in c[:k]]


class FieldElement:
    """An element of a :class:`FieldSpec`, identified by its code.

    Products and powers are lookups in the field's :func:`tables`; sums
    are digitwise mod p with no table, the reference ``one_plus_every``
    is tested against.  Integers embed through the prime subfield (n mod p).
    """

    __slots__ = ("field", "code")

    def __init__(self, field: FieldSpec, code: int):
        self.field, self.code = field, code

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            return other
        return FieldElement(self.field, other % self.field.p)

    def __add__(self, other):
        p, a, b = self.field.p, self.code, self._coerce(other).code
        code, mult = 0, 1
        for _ in range(self.field.k):
            code += (a + b) % p * mult
            a //= p
            b //= p
            mult *= p
        return FieldElement(self.field, code)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        F, o = self.field, self._coerce(other)
        if self.code == 0 or o.code == 0:
            return FieldElement(F, 0)
        exp, log, _ = tables(F)
        return FieldElement(F, exp[(log[self.code] + log[o.code]) % (F.order - 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other) ** -1

    def __pow__(self, e: int):
        F = self.field
        if self.code == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return FieldElement(F, int(e == 0))
        exp, log, _ = tables(F)
        return FieldElement(F, exp[log[self.code] * e % (F.order - 1)])

    def is_zero(self) -> bool:
        return self.code == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, (FieldElement, int)):
            return NotImplemented
        return self.code == self._coerce(other).code

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:
        return f"F{self.field.order}:{self.code}"


def enumerate_field(F: FieldSpec) -> list[FieldElement]:
    """All p^k elements exactly once: zero first, then g^0, g^1, ..."""
    return [FieldElement(F, 0)] + [FieldElement(F, c) for c in tables(F)[0]]


def is_in_subfield(a: FieldElement, m: int) -> bool:
    """True iff a lies in the subfield F_{p^m}, i.e. a^{p^m} = a."""
    F = a.field
    if F.k % m != 0:
        raise ValueError(f"{m} does not divide extension degree {F.k}")
    return a ** F.p ** m == a


def field_exp(F: FieldSpec, i: int) -> FieldElement:
    """g^i for the generator g of F."""
    return FieldElement(F, tables(F)[0][i % (F.order - 1)])


def element_roots(a: FieldElement, n: int) -> list[FieldElement]:
    """All x with x^n = a, as elements sorted by code."""
    return [FieldElement(a.field, c) for c in nth_roots(a.field, a.code, n)]


def hermitian_affine_points(qbar: int, F: FieldSpec):
    """All (x0, y0) in F x F with y0^(qbar+1) = x0^qbar + x0: x0 in
    enumeration order, its y0 from element_roots (by code)."""
    return [(x0, y0) for x0 in enumerate_field(F)
            for y0 in element_roots(x0 ** qbar + x0, qbar + 1)]
