"""Exact arithmetic in small finite fields F_{p^k}.

Fields are built eagerly with full discrete-log tables, so every field
here must be tiny (the cap is ``FIELD_CAP`` elements).  Elements carry a
canonical representation: an integer code encoding the coefficient
vector of the residue polynomial in base p, low coefficient first.
"""

from __future__ import annotations

from itertools import product
from math import gcd

#: Largest supported field size p^k.  Everything needed here fits: the
#: curve catalog uses F_64, F_289, F_729 and, through the CLI, F_{q^2}
#: for q up to 71.
FIELD_CAP = 5500


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (small n only)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Return (p, n) with q = p^n, or raise if q is not a prime power."""
    f = factorize(q)
    if len(f) != 1:
        raise ValueError(f"{q} is not a prime power")
    [(p, n)] = f.items()
    return p, n


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, low degree first)

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_divmod_r(prod, mod, p)


def _poly_divmod_r(a: list[int], mod: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial mod."""
    a = a[:]
    k = len(mod) - 1
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i] % p
        if c:
            for j in range(k + 1):
                a[i - k + j] = (a[i - k + j] - c * mod[j]) % p
    del a[k:]
    return _poly_trim(a)


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_divmod_r(a[:], mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _decode(code: int, p: int, k: int) -> list[int]:
    """Coefficient vector (length k, low first) of a base-p field code."""
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def _encode(coeffs: list[int], p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c % p
    return code


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _poly_trim(out)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        inv = pow(b[-1], p - 2, p)
        monic = [(c * inv) % p for c in b]
        a, b = b, _poly_divmod_r(a, monic, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Standard x^{p^i} gcd test for a monic polynomial of degree k."""
    k = len(f) - 1
    h = [0, 1]  # x
    for _ in range(1, k // 2 + 1):
        h = _poly_powmod(h, p, f, p)
        g = _poly_gcd(_poly_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            return False
    return True


def _lex_smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k with lexicographically smallest
    coefficient vector (constant term compared first)."""
    if k == 1:
        return (0, 1)
    for low in product(range(p), repeat=k):
        f = list(low) + [1]
        if f[0] == 0:
            continue  # divisible by x
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------

class FieldSpec:
    """An explicit model of F_{p^k} with precomputed log/exp tables.

    Immutable after construction; safe to share.  Use :func:`make_field`
    to build one deterministically.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...], generator: int):
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = modulus
        self.generator = generator
        n = self.order - 1
        exp = [0] * n
        log = [-1] * self.order
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = self._mul_codes_raw(x, generator)
        if x != 1 or min(log[1:]) < 0:
            raise ValueError(f"{generator} is not a primitive element")
        self._exp = exp
        self._log = log
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

    # -- raw coefficient-vector arithmetic (used to bootstrap the tables)

    def _mul_codes_raw(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        return _encode(_poly_mulmod(_decode(a, p, k), _decode(b, p, k),
                                    list(self.modulus), p), p)

    # -- table-backed element arithmetic

    def add_codes(self, a: int, b: int) -> int:
        p, code, mult = self.p, 0, 1
        for _ in range(self.k):
            code += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return code

    def neg_code(self, a: int) -> int:
        p, code, mult = self.p, 0, 1
        for _ in range(self.k):
            code += (-a % p) * mult
            a //= p
            mult *= p
        return code

    def mul_codes(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[-self._log[a] % (self.order - 1)]

    def pow_code(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    # -- element construction

    def element(self, code: int) -> FieldElement:
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range for F_{self.order}")
        return FieldElement(self, code)

    def from_int(self, n: int) -> FieldElement:
        """Embed an integer through the prime subfield (n mod p)."""
        return FieldElement(self, n % self.p)

    def log(self, a: "FieldElement") -> int:
        if a.code == 0:
            raise ValueError("log of zero")
        return self._log[a.code]

    def exp(self, i: int) -> "FieldElement":
        return FieldElement(self, self._exp[i % (self.order - 1)])

    @property
    def signature(self) -> tuple:
        return (self.p, self.k, self.modulus, self.generator)

    def to_fragment(self) -> dict:
        """Serializable description, embedded into verification reports."""
        return {
            "p": self.p,
            "k": self.k,
            "order": self.order,
            "modulus": list(self.modulus),
            "generator": self.generator,
        }

    def __repr__(self) -> str:
        return f"FieldSpec(F_{self.order} = F_{self.p}^{self.k})"


class FieldElement:
    """An element of a :class:`FieldSpec`, identified by its canonical code."""

    __slots__ = ("field", "code")

    def __init__(self, field: FieldSpec, code: int):
        self.field = field
        self.code = code

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field.signature != self.field.signature:
                raise ValueError("mixed-field operands")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_codes(self.code, o.code))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_code(self.code))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_codes(self.code, o.code))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_code(self.code, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_code(self.code))

    def is_zero(self) -> bool:
        return self.code == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.code == other.code and self.field.signature == other.field.signature
        if isinstance(other, int):
            # integers compare through the prime-subfield embedding
            return self.code == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.signature, self.code))

    def __bool__(self) -> bool:
        return self.code != 0

    def __repr__(self) -> str:
        return f"F{self.field.order}:{self.code}"


# ---------------------------------------------------------------------------
# module operations

def make_field(p: int, k: int) -> FieldSpec:
    """Build F_{p^k} deterministically.

    The modulus is the lexicographically smallest monic irreducible of
    degree k over F_p (constant coefficient compared first); the
    generator is the smallest code of full multiplicative order.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be positive")
    if p ** k > FIELD_CAP:
        raise ValueError(f"field size {p}^{k} exceeds cap {FIELD_CAP}")
    modulus = _lex_smallest_irreducible(p, k)
    generator = _find_generator(p, k, modulus)
    return FieldSpec(p, k, modulus, generator)


def _find_generator(p: int, k: int, modulus: tuple[int, ...]) -> int:
    order = p ** k
    n = order - 1
    prime_divs = list(factorize(n))
    mod = list(modulus)
    # the tables are not built yet: powers on coefficient vectors
    for g in range(1, order):
        if all(_poly_powmod(_decode(g, p, k), n // ell, mod, p) != [1]
               for ell in prime_divs):
            return g
    raise AssertionError("no generator found")  # unreachable for a field


def enumerate_field(F: FieldSpec) -> list[FieldElement]:
    """All p^k elements exactly once: zero first, then exp(0), exp(1), ..."""
    return [F.zero] + [FieldElement(F, c) for c in F._exp]


def nth_roots(a: FieldElement, n: int) -> list[FieldElement]:
    """All x in the field with x^n = a, sorted by code.

    For a = 0 this is [0]; otherwise the list is empty or has exactly
    gcd(n, p^k - 1) elements, solved on the discrete-log side.
    """
    if n < 1:
        raise ValueError("n must be positive")
    F = a.field
    if a.code == 0:
        return [F.zero]
    N = F.order - 1
    g = gcd(n, N)
    la = F.log(a)
    if la % g != 0:
        return []
    # solve n*x = la (mod N): x0 modulo N/g, then g shifts
    n_, la_, N_ = n // g, la // g, N // g
    x0 = (la_ * pow(n_, -1, N_)) % N_
    # the roots are exp(x0 + t*N_) for t < g: one slice of the exp table
    return [FieldElement(F, c) for c in sorted(F._exp[x0::N_])]


def is_in_subfield(a: FieldElement, m: int) -> bool:
    """True iff a lies in the subfield F_{p^m}, i.e. a^{p^m} = a."""
    F = a.field
    if F.k % m != 0:
        raise ValueError(f"{m} does not divide extension degree {F.k}")
    if a.code == 0:
        return True
    return (F.log(a) * F.p ** m) % (F.order - 1) == F.log(a)
