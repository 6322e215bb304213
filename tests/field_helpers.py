"""Element-level helpers the tests build brute-force oracles from.

The package counts on integer codes and discrete logs and needs none of
these: whole-field enumeration, subfield membership, powers of the
generator and the Hermitian points as ``FieldElement`` pairs.
"""

from maxcurves.gf import FieldElement, FieldSpec, nth_roots


def enumerate_field(F: FieldSpec) -> list[FieldElement]:
    """All p^k elements exactly once: zero first, then g^0, g^1, ..."""
    return [F.zero] + [FieldElement(F, c) for c in F._exp]


def is_in_subfield(a: FieldElement, m: int) -> bool:
    """True iff a lies in the subfield F_{p^m}, i.e. a^{p^m} = a."""
    F = a.field
    if F.k % m != 0:
        raise ValueError(f"{m} does not divide extension degree {F.k}")
    if a.code == 0:
        return True
    return (F.log(a) * F.p ** m) % (F.order - 1) == F.log(a)


def field_exp(F: FieldSpec, i: int) -> FieldElement:
    """g^i for the generator g of F."""
    return FieldElement(F, F._exp[i % (F.order - 1)])


def hermitian_affine_points(qbar: int, F: FieldSpec):
    """All (x0, y0) in F x F with y0^(qbar+1) = x0^qbar + x0: x0 in
    enumeration order, its y0 from nth_roots (by code)."""
    return [(x0, y0) for x0 in enumerate_field(F)
            for y0 in nth_roots(x0 ** qbar + x0, qbar + 1)]
