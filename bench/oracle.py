"""Expected answers, derived here from the paper's formulas.

Nothing is read back from the program: each op's JSON output is compared
with values this module computes on its own.

* ``verify``: the census total is the Hasse-Weil count q^2 + 1 + 2gq, with
  g from the closed-form genus of the family; the generic order sequence
  is the one the README states (gk 3 -> (0,1,3,27), gsx49 -> (0,1,2,7),
  fk q -> (0,1,2,q)); GK's ramified orders are (0, 1, qbar^2-qbar+1, q+1).
* ``semigroup`` and ``orders``: membership comes from an Apéry-set sieve
  over the residues modulo the smallest generator (a sieve of at most
  ~1000 cells), which gives the gap count by Selmer's formula.
* ``bound`` and ``deduce-dim``: the genus bound in integer arithmetic.
"""

from __future__ import annotations

import heapq
import json
from math import gcd


def hasse_weil(q: int, g: int) -> int:
    return q * q + 1 + 2 * g * q


def _verify_expectation(argv: list[str]) -> tuple[int, int, tuple | None]:
    """(q, genus, generic order sequence or None) of a verify op."""
    curve = argv[1]
    if curve == "gsx49":
        q, m = 7, 3
        d = gcd(m, q + 1)
        return q, (q + 1 - d) * (q - 1) // (2 * m), (0, 1, 2, q)
    n = int(argv[3])
    if curve == "fk":
        return n, (n * n - n + 4) // 6, (0, 1, 2, n)
    q = n ** 3
    g = (n ** 3 + 1) * (n ** 2 - 2) // 2 + 1
    # qbar = 2: an unramified place has j_2 = qbar = 2, so eps_2 = 2;
    # qbar = 3 is the characteristic-3 case the README states.  The
    # paper's qbar = 4 sequence is not settled here, so it is not checked.
    eps = {2: (0, 1, 2, q), 3: (0, 1, 3, q)}.get(n)
    return q, g, eps


def _check_verify(argv: list[str], doc: dict) -> list[str]:
    rep = doc["report"]
    q, g, eps = _verify_expectation(argv)
    bad = []
    total = rep["census"]["total"]
    if total != hasse_weil(q, g):
        bad.append(f"census total {total} != Hasse-Weil {hasse_weil(q, g)}")
    if eps is not None and rep["epsilon_sequence"] != list(eps):
        bad.append(f"epsilon sequence {rep['epsilon_sequence']} != {list(eps)}")
    if argv[1] == "gk":
        qbar = int(argv[3])
        ram = [0, 1, qbar * qbar - qbar + 1, q + 1]
        if rep["order_sequences"].get("ramified") != ram:
            bad.append(f"ramified orders {rep['order_sequences'].get('ramified')}"
                       f" != {ram}")
    return bad


class Semigroup:
    """Apéry set of <gens> with respect to m = min(gens).

    n is in the semigroup iff n >= apery[n mod m]; the gap count is
    sum(w // m) and the conductor is max(apery) - m + 1.
    """

    def __init__(self, gens):
        gens = sorted(set(gens))
        m = gens[0]
        apery = [None] * m
        apery[0] = 0
        heap = [(0, 0)]
        while heap:
            w, r = heapq.heappop(heap)
            if w > apery[r]:
                continue
            for g in gens[1:]:
                nw, nr = w + g, (r + g) % m
                if apery[nr] is None or nw < apery[nr]:
                    apery[nr] = nw
                    heapq.heappush(heap, (nw, nr))
        self.m = m
        self.apery = apery
        self.genus = sum(w // m for w in apery)
        self.conductor = max(apery) - m + 1 if m > 1 else 0

    def __contains__(self, n: int) -> bool:
        return n >= 0 and n >= self.apery[n % self.m]

    def upto(self, bound: int) -> list[int]:
        return [n for n in range(bound + 1) if n in self]


def _gens(argv: list[str]) -> list[int]:
    return [int(s) for s in argv[argv.index("--gens") + 1].split(",")]


def _int_flag(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _check_semigroup(argv: list[str], doc: dict) -> list[str]:
    S = Semigroup(_gens(argv))
    frag = doc["semigroup"]
    want = {"genus": S.genus, "conductor": S.conductor,
            "nongaps": S.upto(_int_flag(argv, "--upto"))}
    if "gaps" in frag:
        want["gaps"] = [n for n in range(S.conductor) if n not in S]
    return [f"{key} {frag.get(key)!r} != {val!r}"
            for key, val in want.items() if frag.get(key) != val]


def _check_orders(argv: list[str], doc: dict) -> list[str]:
    q = _int_flag(argv, "--q")
    m = Semigroup(_gens(argv)).upto(q + 1)
    r = len(m) - 1
    orders = [0, 1] + [q + 1 - m[i] for i in range(r - 2, 0, -1)] + [q + 1]
    bad = []
    if doc["orders"] != orders:
        bad.append(f"orders {doc['orders']} != {orders}")
    if doc["dimension"] != r:
        bad.append(f"dimension {doc['dimension']} != {r}")
    return bad


def _bound_num_den(q: int, r: int) -> tuple[int, int]:
    """Castelnuovo's genus bound ((2q-(r-1))^2 - [r even]) / (8(r-1))."""
    num = (2 * q - (r - 1)) ** 2 - (1 if r % 2 == 0 else 0)
    return num, 8 * (r - 1)


def _check_bound(argv: list[str], doc: dict) -> list[str]:
    num, den = _bound_num_den(_int_flag(argv, "--q"), _int_flag(argv, "--r"))
    d = gcd(num, den)
    want = {"numerator": num // d, "denominator": den // d}
    return [] if doc["bound"] == want else [f"bound {doc['bound']} != {want}"]


def _check_deduce(argv: list[str], doc: dict) -> list[str]:
    q, g = _int_flag(argv, "--q"), _int_flag(argv, "--g")
    dims = []
    for r in range(2, q + 2):
        num, den = _bound_num_den(q, r)
        if g * den <= num and (r != 2 or g == q * (q - 1) // 2):
            dims.append(r)
    bad = []
    if doc["dimensions"] != dims:
        bad.append(f"dimensions {doc['dimensions']} != {dims}")
    if doc["conclusive"] != (len(dims) == 1):
        bad.append(f"conclusive {doc['conclusive']} with dimensions {dims}")
    return bad


_CHECKS = {
    "verify": _check_verify,
    "semigroup": _check_semigroup,
    "orders": _check_orders,
    "bound": _check_bound,
    "deduce-dim": _check_deduce,
}


def check(argv: list[str], text: str | None) -> list[str]:
    """Disagreements between one op's JSON output and the expected values;
    empty when they agree."""
    if text is None:
        return ["no output written"]
    try:
        doc = json.loads(text)
        return _CHECKS[argv[0]](argv, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
