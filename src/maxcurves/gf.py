"""Exact arithmetic in small finite fields F_{p^k}.

An element is its integer code, the coefficient vector of the residue
polynomial in base p, low coefficient first, and the module computes on
codes and their discrete logs only.  Every field here is small (the cap
is ``FIELD_CAP`` elements).

Building a field finds its modulus and generator, and then the model
behind the three functions every caller reads: ``code``, ``log`` and
``one_plus_every`` (see :class:`FieldSpec`).  The searches multiply in
F_p[x]/(f) on packed integers (:func:`_ring`): a product of residues is
a fixed handful of integer operations, whatever k.  On F_{p^2} the model
is the points of P^1(F_p), with tables of about p entries
(:func:`_projective`); on other fields it is full log/exp/one-plus
tables of p^k entries (:func:`_tables`).  The exp table is a walk g^0,
g^1, ... over codes.  Multiplying by g is F_p-linear, so the walk splits
each code into a low and a high half and adds the images of the two
halves under g, looked up in tables of about p^(k/2) entries built with
one ring product per digit (see :func:`_split_multiplier`).  No table
the build makes exceeds 2 p^k entries.
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
# F_p[x]/(f) on packed integers

def _ring(p: int, f: tuple[int, ...]):
    """Products in F_p[x]/(f), f monic of degree k (low coefficient
    first), on packed integers: coefficient i of a residue sits in bits
    [s*i, s*(i+1)), wide enough that no digit below carries into the next.

    A product is one integer product c, then Barrett's quotient, exact on
    polynomials: c div f = (c div x^k) * mu div x^(k-2) with
    mu = x^(2k-2) div f.  The remainder c - (c div f) * f, kept
    nonnegative by an offset of a multiple of p per digit, has digits
    below k^3 p^4 < 2^t, and all of them are reduced mod p at once:
    d mod p = d - p * floor(d*M / 2^u) with M = ceil(2^u / p), exact for
    d < 2^t when 2^u >= p * 2^t.  Returns (pack, code, mul): the residue
    of a base-p code, the base-b code of a residue, and the product.
    """
    k = len(f) - 1
    t = (k ** 3 * p ** 4).bit_length()
    u = t + p.bit_length()
    s, M = t + u, -(-(1 << u) // p)
    top, mid, m = s * k, s * max(k - 2, 0), (1 << s) - 1
    low = (1 << top) - 1
    ones = low // m  # the digit 1 in each of the k places
    off, qmask = (k - 1) ** 2 * k * p ** 4 * ones, ((1 << t) - 1) * ones
    shifts = range(0, top, s)
    flow = sum(c << i for c, i in zip(f, shifts))
    # mu by long division: adding (p - c) f x^j takes c f x^j away mod p
    r, mu = 1 << s * (2 * k - 2), 0
    for j in range(k - 2, -1, -1):
        c = (r >> s * (k + j) & m) % p
        mu |= c << s * j
        r += (p - c) * (flow | 1 << top) << s * j

    def pack(code: int) -> int:
        a = 0
        for i in shifts:
            code, d = divmod(code, p)
            a |= d << i
        return a

    def code(a: int, base: int) -> int:
        return sum((a >> i & m) * base ** j for j, i in enumerate(shifts))

    def mul(a: int, b: int) -> int:
        c = a * b
        r = (c & low) + off - ((c >> top) * mu >> mid) * flow & low
        return r - p * (r * M >> u & qmask)

    return pack, code, mul


def _pow(mul, a: int, e: int) -> int:
    """a^e for e >= 1, the exponent's high bit first."""
    r = a
    for bit in bin(e)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, a)
    return r


def _lex_smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k with lexicographically smallest
    coefficient vector (constant term compared first).

    A candidate with a root in F_p is reducible, and for k <= 3 one
    without is irreducible.  Otherwise Rabin's test decides: f is
    irreducible iff x^(p^k) = x mod f, which makes F_p[x]/(f) a product
    of fields F_(p^d) with d | k, and x^(p^(k/l)) - x is a unit there,
    i.e. its (p^k - 1)-th power is 1, for every prime l | k.
    """
    if k == 1:
        return (0, 1)
    # a zero constant term means divisible by x: start that digit at 1
    for low in product(range(1, p), *[range(p)] * (k - 1)):
        f = low + (1,)
        values = [1] * (p - 1)  # f(r) for r = 1 .. p-1, by Horner's rule
        for c in reversed(low):
            values = [(v * r + c) % p for r, v in enumerate(values, 1)]
        if 0 in values:
            continue
        if k <= 3:
            return f
        pack, _, mul = _ring(p, f)
        frob = [pack(p)]  # x^(p^i)
        for _ in range(k):
            frob.append(_pow(mul, frob[-1], p))
        # mul by 1 reduces the digits of x^(p^i) + (p-1)x mod p
        if frob[k] == frob[0] and all(
                _pow(mul, mul(frob[k // ell] + (p - 1) * frob[0], 1), p ** k - 1) == 1
                for ell in factorize(k)):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _split_multiplier(p: int, k: int, ring, g: int
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
    pack, code, mul = ring
    gp = pack(g)

    def images(first: int, digits: int) -> list[int]:
        # g*(c*p^first) for every c < p^digits: one ring product per
        # digit, then one wide sum per entry
        out = [0]
        for j in range(first, first + digits):
            # u = g*x^j; its coefficients are < p, so base w gives its wide code
            u = code(mul(gp, pack(p ** j)), w)
            for i in range(len(out) * (p - 1)):
                s = out[i] + u
                out.append(rewrap[s % W] + W * rewrap[s // W])
        return out

    return p ** h, W, wrap, images(0, h), images(h, k - h)


# ---------------------------------------------------------------------------

class FieldSpec:
    """An explicit model of F_{p^k}: codes for elements, and a generator
    g of full multiplicative order N = p^k - 1.

    ``code(j)`` is the code of g^j (0 <= j < N), ``log(c)`` the log of
    the code c (-1 for zero), and ``one_plus_every(step)`` the list of
    one-plus (Zech) logs log(1 + g^j), -1 where 1 + g^j = 0, for j in
    range(0, N, step).  The one-plus log turns addition into a lookup:
    g^i + g^j = g^(i + log(1 + g^((j - i) % N))).

    The constructor checks that g is primitive, or without one finds the
    smallest primitive code.  With N = (p-1) M, c^(N/l) for a prime
    l | p-1 is a power of the norm c^M, which lies in F_p and takes the
    builtin ``pow``; for the other primes l | M, c^(N/l) = 1 iff c^(M/l)
    lies in F_p.  Then it sets the three functions once: on F_{p^2} from
    :func:`_projective`, otherwise from the tables of :func:`_tables`,
    which only the functions hold.  They are the field's whole interface,
    so no caller knows how the logs are stored.  Deterministic, so safe
    to share.  Use :func:`make_field` to build one.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...],
                 generator: int | None = None):
        self.p = p
        self.k = k
        self.order = order = p ** k
        self.modulus = modulus
        self._ring = pack, _, mul = _ring(p, modulus)
        M, x = (order - 1) // (p - 1), pack(p)  # F_p packs below x
        small = [(p - 1) // ell for ell in factorize(p - 1)]
        large = [M // ell for ell in factorize(M) if (p - 1) % ell]

        def is_primitive(c: int) -> bool:  # c^(N/l) != 1 for every prime l | N
            a = pack(c)
            norm = _pow(mul, a, M) if small else 0  # p = 2: no prime of p - 1
            return (all(pow(norm, e, p) != 1 for e in small)
                    and all(_pow(mul, a, e) >= x for e in large))

        if generator is None:  # the smallest primitive code
            # for k > 1 the codes below p are F_p, whose orders divide p - 1
            generator = next(filter(is_primitive, range(p if k > 1 else 1, order)))
        elif not (0 < generator < order and is_primitive(generator)):
            raise ValueError(f"{generator} is not a primitive element")
        self.generator = generator
        if k == 2:
            self.code, self.log, self.one_plus_every = _projective(self)
        else:
            exp, log, one_plus = _tables(self)
            self.code, self.log = exp.__getitem__, log.__getitem__
            self.one_plus_every = lambda step: one_plus[::step]

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


def _tables(F: FieldSpec) -> tuple[list[int], list[int], list[int]]:
    """The exp, log and one-plus tables of F: the walk g^0, g^1, ... with
    the split multiplier by g."""
    p, n = F.p, F.order - 1
    P, W, wrap, low, high = _split_multiplier(p, F.k, F._ring, F.generator)
    exp = [0] * n
    log = [-1] * F.order
    lo, hi = 1, 0
    for i in range(n):
        x = lo + P * hi
        exp[i] = x
        log[x] = i
        s = low[lo] + high[hi]
        lo, hi = wrap[s % W], wrap[s // W]
    # succ[c] = log of c + 1, the constant digit wrapping mod p
    succ = log[1:] + log[:1]
    succ[p - 1::p] = log[::p]
    return exp, log, list(map(succ.__getitem__, exp))


def _projective(F: FieldSpec):
    """code, log and one_plus_every on F = F_{p^2} from tables of about p
    entries: the points of P^1(F_p).

    A code c = c0 + p c1 is the element c0 + c1 x, with c0, c1 in F_p.
    gamma = g^(p+1) = g g^p, the norm of g, generates F_p*, and F*/F_p*
    is cyclic of order p + 1: its classes are those of x and of r + x for
    r in F_p, the points of P^1(F_p), and g^0, ..., g^p stand for them.
    ``C[v]`` holds the two digits of g^v, from a walk of p + 1 products,
    and ``L[r]`` the log of r + x.  Then g^j = gamma^u g^v for
    (u, v) = divmod(j, p + 1), and c0 + c1 x with c1 != 0 is c1 (r + x)
    with r = c0/c1, of log (p + 1) log c1 + L[r]: a few products mod p
    and lookups in the F_p tables each.
    """
    p, N, q1 = F.p, F.order - 1, F.p + 1
    f0, f1, _ = F.modulus
    g0, g1 = F.generator % p, F.generator // p
    # x x^p = f0 and x + x^p = -f1, so g g^p is the norm below
    gamma = (g0 * g0 - f1 * g0 * g1 + f0 * g1 * g1) % p
    exp = [1] * (p - 1)  # gamma^t, and its log on F_p
    for t in range(1, p - 1):
        exp[t] = exp[t - 1] * gamma % p
    lq = [-1] * p
    for t, e in enumerate(exp):
        lq[e] = t
    # times g = g0 + g1 x, with x^2 = -f1 x - f0
    d, e = g0 - g1 * f1, g1 * f0
    C, L = [], [0] * p
    c0, c1 = 1, 0
    for v in range(q1):
        C.append((c0, c1))
        if c1:  # exp[-l] is gamma^(-l): r = c0/c1
            L[c0 * exp[-lq[c1]] % p] = (v - q1 * lq[c1]) % N
        c0, c1 = (c0 * g0 - c1 * e) % p, (c0 * g1 + c1 * d) % p

    def code(j: int) -> int:
        u, v = divmod(j, q1)
        c0, c1 = C[v]
        return c0 * exp[u] % p + p * (c1 * exp[u] % p)

    def log(c: int) -> int:
        c1, c0 = divmod(c, p)
        if not c1:
            return q1 * lq[c0] if c0 else -1
        return (q1 * lq[c1] + L[c0 * exp[-lq[c1]] % p]) % N

    def one_plus_every(step: int) -> list[int]:
        # j = i step: v = j mod (p+1) repeats with period P = (p+1)/gcd,
        # and along a residue u = j div (p+1) steps by du = step/gcd.  With
        # g^v = c0 + c1 x, 1 + g^j = (1 + gamma^u c0) + gamma^u c1 x is
        # gamma^u c1 (r + x) with r = c0/c1 + gamma^-u/c1 when c1 != 0.
        P, du = q1 // gcd(step, q1), step // gcd(step, q1)
        out = [0] * len(range(0, N, step))
        for r in range(min(P, len(out))):
            u0, v = divmod(r * step, q1)
            c0, c1 = C[v]
            us = range(u0, u0 + du * len(range(r, len(out), P)), du)
            if c1:
                l1, i1 = lq[c1], exp[-lq[c1]]
                out[r::P] = [(q1 * (l1 + u) + L[(c0 + exp[-u]) * i1 % p]) % N
                             for u in us]
            else:  # v = 0, c0 = 1: 1 + gamma^u lies in F_p
                out[r::P] = [q1 * lq[a] if a else -1
                             for a in [(exp[u] + 1) % p for u in us]]
        return out

    return code, log, one_plus_every


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
    return FieldSpec(p, k, _lex_smallest_irreducible(p, k))


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
    return sorted(map(F.code, root_logs(F.log(code), n, F.order - 1)))
