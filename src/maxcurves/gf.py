"""Exact arithmetic in small finite fields F_{p^k}.

Fields are built eagerly with full discrete-log tables, so every field
here must be tiny (the cap is ``FIELD_CAP`` elements).  An element is
its integer code, the coefficient vector of the residue polynomial in
base p, low coefficient first, and the module computes on codes and
their discrete logs only.

The exp table is a walk g^0, g^1, ... over codes.  Multiplying by the
generator g is F_p-linear, so the walk splits each code into a low and a
high half and adds the images of the two halves under g, looked up in
tables of about p^(k/2) entries built with one polynomial product per
digit (see :func:`_split_multiplier`), instead of one polynomial product
per element.  No table the build makes exceeds 2 p^k entries.
"""

from __future__ import annotations

from itertools import product
from math import gcd

#: Largest supported field size p^k.  Everything needed here fits: the
#: curve catalog builds F_49, F_64, F_729, F_4096 and F_{q^2} for q up
#: to 71.
FIELD_CAP = 5500


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
    f = factorize(q) if q >= 2 else {}
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
    """a^e modulo mod, taking the exponent's high bit first, so each
    multiply is by a itself: short for the low-degree generator candidates."""
    result = [1]
    base = _poly_divmod_r(a[:], mod, p)
    for bit in bin(e)[2:]:
        result = _poly_mulmod(result, result, mod, p)
        if bit == "1":
            result = _poly_mulmod(result, base, mod, p)
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
    # a zero constant term means divisible by x: start that digit at 1
    for low in product(range(1, p), *[range(p)] * (k - 1)):
        f = list(low) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _split_multiplier(p: int, k: int, modulus: tuple[int, ...], g: int
                      ) -> tuple[int, int, list[int], list[int], list[int]]:
    """Tables that multiply a code c by the code g with lookups alone.

    c -> g*c is F_p-linear: split c = lo + P*hi into a low half of
    h = ceil(k/2) digits and a high half, and g*c is the digitwise sum of
    the images low[lo] and high[hi].  Images are wide codes, one base-w
    digit per coefficient with w = 2p - 1, so the integer sum s of two
    has no carries, and g*c = wrap[s % W] + P*wrap[s // W] with W = w^h,
    where wrap[t] is the code of the digits of a wide half t taken mod p.
    Returns (P, W, wrap, low, high); no table has more than
    max(p^k, w^h) < 2p^k entries.
    """
    h = (k + 1) // 2
    w = 2 * p - 1
    W = w ** h
    # rewrap[t]: the digits of t mod p, kept wide.  On one digit both are
    # t -> t % p, and the two copies of range(p) share their int objects.
    wrap = rewrap = (list(range(p)) * 2)[:w]
    for j in range(1, h):
        pj, wj = p ** j, w ** j
        wrap = [c + t % p * pj for t in range(w) for c in wrap]
        rewrap = [c + t % p * wj for t in range(w) for c in rewrap]
    mod, gv = list(modulus), _decode(g, p, k)

    def images(first: int, digits: int) -> list[int]:
        # g*(c*p^first) for every c < p^digits: one polynomial product
        # per digit, then one wide sum per entry
        out = [0]
        for j in range(first, first + digits):
            # u = g*x^j; its coefficients are < p, so base w gives its wide code
            u = _encode(_poly_mulmod(_decode(p ** j, p, k), gv, mod, p), w)
            for i in range(len(out) * (p - 1)):
                s = out[i] + u
                out.append(rewrap[s % W] + W * rewrap[s // W])
        return out

    return p ** h, W, wrap, images(0, h), images(h, k - h)


# ---------------------------------------------------------------------------

class FieldSpec:
    """An explicit model of F_{p^k} with precomputed log/exp tables.

    With N = p^k - 1 and g the generator, ``_exp[i]`` is the code of g^i
    (i < N), ``_log[c]`` the log of the code c (-1 for zero), and
    ``_one_plus[i]`` the log of 1 + g^i (-1 when 1 + g^i = 0), the
    one-plus (Zech) log that turns addition into a table lookup:
    g^i + g^j = g^(i + _one_plus[(j - i) % N]).  The censuses count on
    these integers directly.

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
        P, W, wrap, low, high = _split_multiplier(p, k, modulus, generator)
        exp = [0] * n
        log = [-1] * self.order
        lo, hi = 1, 0
        for i in range(n):
            x = lo + P * hi
            exp[i] = x
            log[x] = i
            s = low[lo] + high[hi]
            lo, hi = wrap[s % W], wrap[s // W]
        if lo + P * hi != 1 or min(log[1:]) < 0:
            raise ValueError(f"{generator} is not a primitive element")
        self._exp = exp
        self._log = log
        # on codes, c + 1 only changes the constant digit
        self._one_plus = [log[c - c % p + (c + 1) % p] for c in exp]

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


# ---------------------------------------------------------------------------
# module operations

def check_field_size(base: int, k: int):
    """Reject a field of base^k elements above FIELD_CAP, the one check
    of the cap.  Callers run it before anything factors base, which
    takes sqrt(base) steps."""
    if k < 1:  # before base ** k, which is a float for k < 0
        raise ValueError("extension degree must be positive")
    if base ** k > FIELD_CAP:
        raise ValueError(f"field size {base}^{k} exceeds cap {FIELD_CAP}")


def make_field(p: int, k: int) -> FieldSpec:
    """Build F_{p^k} deterministically.

    The modulus is the lexicographically smallest monic irreducible of
    degree k over F_p (constant coefficient compared first); the
    generator is the smallest code of full multiplicative order.
    """
    check_field_size(p, k)
    if p < 2 or factorize(p) != {p: 1}:
        raise ValueError(f"{p} is not prime")
    modulus = _lex_smallest_irreducible(p, k)
    generator = _find_generator(p, k, modulus)
    return FieldSpec(p, k, modulus, generator)


def _find_generator(p: int, k: int, modulus: tuple[int, ...]) -> int:
    order = p ** k
    n = order - 1
    prime_divs = list(factorize(n))
    mod = list(modulus)
    # the tables are not built yet: powers on coefficient vectors.  For
    # k > 1 the codes below p are F_p, whose orders divide p - 1 < n.
    for g in range(p if k > 1 else 1, order):
        if all(_poly_powmod(_decode(g, p, k), n // ell, mod, p) != [1]
               for ell in prime_divs):
            return g
    raise AssertionError("no generator found")  # unreachable for a field


def root_logs(la: int, n: int, N: int) -> range:
    """Logs of all x with x^n = g^la in a field with N nonzero elements.

    Empty unless gcd(n, N) divides la; otherwise the gcd(n, N) logs
    x0 + t*N/gcd, t < gcd, in increasing order.  n must be positive.
    """
    g = gcd(n, N)
    if la % g != 0:
        return range(0)
    # solve n*x = la (mod N): x0 modulo N/g, then g shifts
    n_, N_ = n // g, N // g
    x0 = (la // g * pow(n_, -1, N_)) % N_
    return range(x0, N, N_)


def nth_roots(F: FieldSpec, code: int, n: int) -> list[int]:
    """Codes of all x in F with x^n = the element ``code``, in increasing
    order.

    For code 0 this is [0]; otherwise the list is empty or has exactly
    gcd(n, p^k - 1) codes, from :func:`root_logs`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if code == 0:
        return [0]
    return sorted(F._exp[i] for i in root_logs(F._log[code], n, F.order - 1))
