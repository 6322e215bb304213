"""The benchmark's workloads: one op list per workload.

The ``verify-*`` workloads run fixed catalog entries; the seed picks every
``queries`` input.

An op is the argv of one ``maxcurves`` CLI call, without ``--format`` and
``--out``, which the worker adds.  Each pass over a workload's op list runs
in a fresh worker process, so no op can reuse a field, table or sieve built
by an earlier op: a one-command CLI user never gets such reuse either.
Sharing inside one op (the double field build of a census) stays visible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Callable

from oracle import Semigroup

FK_QS = (5, 11, 17, 23, 29, 41)
GK_QBARS = (2, 3, 4)

# queries: ops per pass of each kind
N_SEMIGROUP = 16
N_ORDERS = 16
N_BOUND = 32
N_DEDUCE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_ops: Callable[[random.Random], list]
    # Fixed per workload so that runs compare: the highest round
    # percentile with at least ten samples beyond it in a 35-second run
    # of the program this benchmark was defined on.
    tail_pct: int


def fk_scan_ops(rng: random.Random) -> list:
    return [["verify", "fk", "--q", str(q)] for q in FK_QS]


def census_ops(rng: random.Random) -> list:
    ops = [["verify", "gk", "--qbar", str(qb)] for qb in GK_QBARS]
    return ops + [["verify", "gsx49"]]


def _is_prime_power(n: int) -> bool:
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return n == 1


_QS_32_4096 = [q for q in range(32, 4097) if _is_prime_power(q)]


def _log_grid(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n values, one per equal cell of [lo, hi] on a log scale, each
    jittered by at most a tenth of its cell.

    One value per cell keeps the workload's total cost and its latency
    quantiles nearly the same from seed to seed, while the seed still
    picks every input.
    """
    return [lo * (hi / lo) ** ((i + 0.5 + rng.uniform(-0.1, 0.1)) / n)
            for i in range(n)]


def _next_prime_power(x: float, hi: int) -> int:
    q = max(2, int(x))
    while q < hi and not _is_prime_power(q):
        q += 1
    return q


def _fewest_gaps(draw, k: int = 4) -> tuple:
    """Of k generator triples with gcd 1 from draw(), the one whose
    semigroup has the fewest gaps.

    For a given sieve length the gap count of a random triple ranges over
    ~8x, and the op's time and memory follow it; the smallest of a few
    draws is steady from seed to seed.
    """
    triples = []
    while len(triples) < k:
        gens = draw()
        if gcd(gcd(gens[0], gens[1]), gens[2]) == 1:
            triples.append((Semigroup(gens).genus, gens))
    return min(triples)[1]


def query_ops(rng: random.Random) -> list:
    ops = []
    # semigroup <m, m+a, m+b>: the sieve length is about m * (m+b) with
    # m+b in [1.4m, 1.5m], so the grid on m spans sieves of ~600 .. ~1.2M
    for x in _log_grid(rng, 20, 1000, N_SEMIGROUP):
        m = round(x)

        def draw():
            b = rng.randint(-(-4 * m // 10), m // 2)
            return m, m + rng.randint(1, b - 1), m + b

        gens = _fewest_gaps(draw)
        upto = gens[2] + rng.randint(0, m)
        ops.append(["semigroup", "--gens", ",".join(map(str, gens)),
                    "--upto", str(upto)])
    # orders <m, q, q+1>: the grid is on the sieve length L ~ m * (q+1);
    # q is a prime power within 10% of L^0.6 and m = L // (q+1), so m
    # runs from ~20 to ~250 while q runs from ~100 to ~4096
    for L in _log_grid(rng, 2000, 1_000_000, N_ORDERS):
        qs = [q for q in _QS_32_4096 if abs(q / L ** 0.6 - 1) <= 0.1]

        def draw():
            q = rng.choice(qs)
            return int(L // (q + 1)), q, q + 1

        m, q, _ = _fewest_gaps(draw)
        ops.append(["orders", "--gens", f"{m},{q},{q + 1}", "--q", str(q)])
    for x in _log_grid(rng, 2, 4096, N_BOUND):
        q = _next_prime_power(x, 4096)
        ops.append(["bound", "--q", str(q), "--r", str(rng.randint(2, q + 1))])
    # deduce-dim costs ~q; one in eight asks about the Hermitian genus,
    # the only genus that admits dimension 2
    for x in _log_grid(rng, 2, 4096, N_DEDUCE):
        q = _next_prime_power(x, 4096)
        herm = q * (q - 1) // 2
        g = herm if rng.random() < 0.125 else rng.randint(0, herm)
        ops.append(["deduce-dim", "--q", str(q), "--g", str(g)])
    # The order is the same for every seed: a ~2 ms op runs up to ~40%
    # slower late in a worker than early, so a seeded order would move
    # op_s.p50 with the seed.
    random.Random(0).shuffle(ops)
    return ops


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-fk-scan",
        "verify fk for q in 5..41: the monomial scan is ~96% of fk 41 and "
        "grows as q^4, so a faster scan shows here; census and field build "
        "are ~4%",
        fk_scan_ops, tail_pct=60),
    Workload(
        "verify-census",
        "verify gk for qbar 2..4 and gsx49: no or tiny monomial scans, so "
        "field builds (F_4096 twice) and the nth_roots census loop do the "
        "work; gk 4 exits 1 and counts as failed",
        census_ops, tail_pct=90),
    Workload(
        "queries",
        "seeded semigroup/orders/bound/deduce-dim calls: sieves of ~10^3 to "
        "~10^6 answer queries directly, and argparse, JSON and file output "
        "in cli are a visible share of ~3 ms ops",
        query_ops, tail_pct=95),
)}
