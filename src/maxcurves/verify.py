"""Deduction layer: maximality checks, genus bounds, order-sequence
deduction, and per-theorem verification reports.

All bound comparisons use exact rational arithmetic; the floor-adjacent
corner cases are exactly where bugs would hide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import curves, numsg
from .curves import CurveModel, PlaceCensus
from .numsg import NumericalSemigroup, OrderSequence


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_fragment(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class VerificationReport:
    """Per-curve bundle of genus, census, semigroups, order sequences,
    deduced generic orders, and named pass/fail checks."""

    curve: dict
    field_spec: dict
    q: int
    p: int
    genus: dict
    census: dict
    semigroups: list
    frobenius_dimension: dict
    order_sequences: dict
    epsilon_sequence: list | None
    checks: list[CheckResult]
    assumptions: list[str]

    @property
    def passing(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "curve": self.curve,
            "field": self.field_spec,
            "q": self.q,
            "p": self.p,
            "genus": self.genus,
            "census": self.census,
            "semigroups": self.semigroups,
            "frobenius_dimension": self.frobenius_dimension,
            "order_sequences": self.order_sequences,
            "epsilon_sequence": self.epsilon_sequence,
            "checks": [c.to_fragment() for c in self.checks],
            "assumptions": self.assumptions,
            "passing": self.passing,
        }


# ---------------------------------------------------------------------------
# individual deductions

def check_maximal(census: PlaceCensus, g: int, q: int) -> CheckResult:
    """Does the census attain the Hasse-Weil upper bound q^2 + 1 + 2gq?"""
    expected = curves.maximal_N(q, g)
    total = census.total
    return CheckResult(
        "maximality",
        total == expected,
        {"census_total": total, "hasse_weil": expected, "delta": total - expected},
    )


def castelnuovo_terms(q: int, r: int) -> tuple[int, int]:
    """Unreduced numerator and denominator of the genus bound for a
    maximal curve of Frobenius dimension r:
    ((2q - (r-1))^2 - [r even]) / (8(r-1))."""
    if r < 2:
        raise ValueError("bound needs r >= 2")
    return (2 * q - (r - 1)) ** 2 - (1 - r % 2), 8 * (r - 1)


def castelnuovo_bound(q: int, r: int) -> Fraction:
    """Genus upper bound for a maximal curve of Frobenius dimension r."""
    return Fraction(*castelnuovo_terms(q, r))


def deduce_frobenius_dimension(q: int, g: int) -> set[int]:
    """Candidate Frobenius dimensions for a maximal curve of genus g.

    r = 1 never occurs; r = 2 forces the Hermitian genus q(q-1)/2; any
    other r must satisfy the genus bound.  Candidates are capped at
    q + 1, the degree of the Frobenius linear series.
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    candidates = set()
    for r in range(2, q + 2):
        if g <= castelnuovo_bound(q, r):
            candidates.add(r)
    if g != q * (q - 1) // 2:
        candidates.discard(2)
    return candidates


def padic_admissible(orders, p: int) -> bool:
    """p-adic criterion: any order below p drags 0..order-1 in with it."""
    entries = set(orders)
    if sorted(entries) != list(orders):
        raise ValueError("orders must be strictly increasing")
    return all(set(range(e)) <= entries for e in entries if e < p)


def allowed_j2_values(q: int) -> set[int]:
    """The four admissible j_2 values at a rational place when the
    generic second order is 2 (duplicates collapse)."""
    if q < 2:
        raise ValueError("q must be at least 2")
    return {2, 3, q + 1 - (q + 1) // 2, q + 1 - (2 * (q + 1)) // 3}


def deduce_epsilon_sequence(j2_values, q: int, p: int,
                            frobenius_dimension: int = 3) -> OrderSequence:
    """Deduce the generic order sequence (0, 1, eps2, q) from observed
    second orders at degree-one place classes.

    The minimum observed j_2 equals eps2 when the dimension is 3, except
    that eps2 = 3 is only possible in characteristic 3: for p != 3 the
    p-adic criterion eliminates it and forces eps2 = 2.
    """
    j2_values = list(j2_values)
    if not j2_values:
        raise ValueError("need at least one observed j_2 value")
    if frobenius_dimension != 3:
        raise ValueError(
            "deduction via min j_2 is only valid for Frobenius dimension 3")
    m = min(j2_values)
    if m < 2:
        raise ValueError(f"observed j_2 = {m} below the minimum possible 2")
    if m == 2:
        eps2 = 2
    elif m == 3:
        eps2 = 3 if p == 3 else 2  # p-adic elimination of (0,1,3,q)
    else:
        raise ValueError(
            f"min observed j_2 = {m} inconsistent with eps2 in {{2,3}}")
    seq = OrderSequence((0, 1, eps2, q), role="generic-eps")
    if not padic_admissible(seq.orders, p):
        raise ValueError(f"deduced sequence {seq.orders} fails the p-adic criterion")
    if any(j < eps2 for j in j2_values):
        bad = [j for j in j2_values if j < eps2]
        raise ValueError(f"observed j_2 values {bad} below deduced eps2 = {eps2}")
    return seq


# ---------------------------------------------------------------------------
# per-curve reports: one pipeline of shared steps; each family function
# supplies only its census, semigroup source, expected sequences and
# extra checks

def theorem_report(curve: CurveModel, census_delta: int = 0) -> VerificationReport:
    """Run the full verification pipeline for a catalog curve.

    ``census_delta`` perturbs the enumerated census total (test hook for
    exercising failure paths); leave at 0 for real verification.
    """
    if curve.family == "GK":
        return _gk_report(curve, census_delta)
    if curve.family == "GSX49":
        return _gsx49_report(curve, census_delta)
    if curve.family == "FK":
        return _fk_report(curve, census_delta)
    raise ValueError(f"unknown curve family {curve.family!r}")


def _start(curve: CurveModel, g: int, census: PlaceCensus,
           census_delta: int) -> VerificationReport:
    """Apply the census delta and build the report, with no checks yet."""
    if census_delta:
        census.add(curves.AFFINE_SPLIT, census_delta)
        census.meta["injected_delta"] = census_delta
    return VerificationReport(
        curve=curve.to_fragment(),
        field_spec=curve.field.to_fragment(),
        q=curve.q,
        p=curve.p,
        genus={"formula": g},
        census=census.to_fragment(),
        semigroups=[],
        frobenius_dimension={},
        order_sequences={},
        epsilon_sequence=None,
        checks=[],
        assumptions=[],
    )


def _dimension(report: VerificationReport, g: int,
               S: NumericalSemigroup | None) -> int | None:
    """Frobenius dimension r, read off the Weierstrass semigroup S at a
    rational place or, when S is None, from the genus bound alone (None
    unless the bound leaves a single candidate); checks r == 3."""
    dims = sorted(deduce_frobenius_dimension(report.q, g))
    if S is None:
        r = dims[0] if len(dims) == 1 else None
        info = {"from_bound": dims}
    else:
        r = numsg.frobenius_dimension_from_semigroup(S, report.q)
        info = {"from_semigroup": r, "from_bound": dims}
    report.frobenius_dimension = dict(info, bound_conclusive=len(dims) == 1)
    report.checks.append(CheckResult(
        "frobenius-dimension", r == 3 and r in dims, info))
    return r


def _finish_epsilon(report: VerificationReport, j2_by_class: dict[str, int],
                    r: int | None, expected: tuple[int, ...]):
    """Shared tail: deduce the generic orders, validate j_2 values."""
    try:
        eps = deduce_epsilon_sequence(j2_by_class.values(), report.q, report.p,
                                      frobenius_dimension=r)
    except ValueError as exc:
        report.checks.append(CheckResult(
            "epsilon-sequence", False, {"error": str(exc)}))
        return
    report.epsilon_sequence = list(eps)
    report.checks.append(CheckResult(
        "epsilon-sequence", eps.orders == expected,
        {"deduced": list(eps), "expected": list(expected)}))
    if eps.orders[2] == 2:
        allowed = allowed_j2_values(report.q)
        bad = {cls: j for cls, j in j2_by_class.items() if j not in allowed}
        report.checks.append(CheckResult(
            "j2-values-allowed", not bad,
            {"allowed": sorted(allowed), "observed": j2_by_class,
             "violations": bad}))
    report.assumptions.append(
        "j_2 is recorded per place class; places within a class share a "
        "Weierstrass semigroup (automorphism transitivity)")


def _gk_report(curve: CurveModel, census_delta: int) -> VerificationReport:
    qbar = curve.params["qbar"]
    d = curve.params["d"]
    q = curve.q
    g = curves.genus_gk(qbar)
    census = curves.count_gk_places(curve)
    report = _start(curve, g, census, census_delta)
    report.checks.append(check_maximal(census, g, q))

    # semigroup at fully ramified places
    gens = (qbar ** 3 - qbar ** 2 + qbar, qbar ** 3, qbar ** 3 + 1)
    S = numsg.semigroup_from_generators(gens)
    report.semigroups.append(S.to_fragment(q))
    report.checks.append(CheckResult(
        "ramified-semigroup-gap-count", S.genus == g,
        {"generators": list(gens), "gaps": S.genus, "curve_genus": g}))
    r = _dimension(report, g, S)

    ram = numsg.rational_point_orders(S, q)
    report.order_sequences["ramified"] = list(ram)
    report.checks.append(CheckResult(
        "ramified-orders", ram.orders == (0, 1, d, q + 1),
        {"computed": list(ram), "expected": [0, 1, d, q + 1]}))

    # unramified class: the transitivity argument pins a single shared
    # sequence; it is consumed as given, not recomputed
    unram = OrderSequence((0, 1, qbar, q + 1), role="rational-place-j")
    report.order_sequences["unramified"] = list(unram)

    j2 = {"ramified": ram.orders[2], "unramified": unram.orders[2]}
    expected_eps2 = 3 if (curve.p == 3 and qbar == 3) else 2
    _finish_epsilon(report, j2, r, (0, 1, expected_eps2, q))
    return report


def _gsx49_report(curve: CurveModel, census_delta: int) -> VerificationReport:
    q, m = curve.q, curve.params["m"]
    g = curves.genus_gsx(q, m)
    census = curves.count_gsx49_places(curve)
    report = _start(curve, g, census, census_delta)
    report.checks.append(check_maximal(census, g, q))

    k = census.meta["sixteenth_power_fibers"]
    report.checks.append(CheckResult(
        "sixteenth-power-fiber-count", 16 * k + 4 == census.total,
        {"fibers_with_16_roots": k, "reconstructed_total": 16 * k + 4}))

    table = curves.gsx49_divisor_table()
    scan = curves.weierstrass_nongaps_from_monomials(
        table, "Pinf", {"z": range(0, 2 * g + 1), "t+1": range(-g, 1)}, q)
    certified = {5, 7, 8, 10, 12, 13}
    report.checks.append(CheckResult(
        "monomial-certified-nongaps",
        certified <= set(scan["nongaps"]) and 6 not in scan["nongaps"],
        {"required": sorted(certified),
         "witnesses": {n: scan["witnesses"][n] for n in sorted(certified)},
         "six_absent": 6 not in scan["nongaps"]}))

    S = numsg.semigroup_from_generators(n for n in scan["nongaps"] if n > 0)
    report.semigroups.append(S.to_fragment(q))
    report.checks.append(CheckResult(
        "small-nongaps", numsg.nongaps_upto(S, 8) == [0, 5, 7, 8],
        {"nongaps_upto_8": numsg.nongaps_upto(S, 8)}))
    report.checks.append(CheckResult(
        "semigroup-gap-count", S.genus == g,
        {"gaps": S.genus, "curve_genus": g}))
    r = _dimension(report, g, S)

    orders = numsg.rational_point_orders(S, q)
    report.order_sequences["Pinf"] = list(orders)
    floor_form = q + 1 - (2 * (q + 1)) // 3
    report.checks.append(CheckResult(
        "j2-at-Pinf", orders.orders == (0, 1, 3, 8) and orders.orders[2] == floor_form,
        {"orders": list(orders), "floor_form": floor_form}))

    _finish_epsilon(report, {"Pinf": orders.orders[2]}, r, (0, 1, 2, q))
    return report


def _fk_report(curve: CurveModel, census_delta: int) -> VerificationReport:
    q = curve.q
    g = curves.genus_fk(q)
    g0 = curves.genus_plane_smooth((q + 1) // 3)
    census = curves.count_fk_places(curve)
    report = _start(curve, g, census, census_delta)
    report.genus["riemann_hurwitz"] = 1 + 3 * (g0 - 1) + (q + 1)
    report.checks.append(CheckResult(
        "genus-cross-check", report.genus["riemann_hurwitz"] == g,
        dict(report.genus)))
    report.checks.append(check_maximal(census, g, q))

    violations = census.meta["condition5_violations"]
    report.checks.append(CheckResult(
        "split-condition-everywhere", violations == 0,
        {"violations": violations}))
    report.checks.append(CheckResult(
        "fully-ramified-count",
        census.meta["fully_ramified_places"] == q + 1,
        {"count": census.meta["fully_ramified_places"], "expected": q + 1}))
    r = _dimension(report, g, None)

    # pole order of x/(y-beta) at the distinguished ramified place
    table = curves.fk_divisor_table(q)
    div = curves.divisor_of_monomial(table, {"x": 1, "y-beta": -1})
    poles = {pid: -v for pid, v in div.items() if v < 0}
    report.checks.append(CheckResult(
        "distinguished-pole-order", poles == {"P0_beta": q - 2},
        {"pole_order": -div.get("P0_beta", 0), "expected": q - 2}))

    scan = curves.weierstrass_nongaps_from_monomials(
        table, "P0_beta",
        {"x": range(0, 2 * g + 1), "y-beta": range(-g, 1)}, q)
    known = [n for n in scan["nongaps"] if n <= q + 1]
    report.semigroups.append({
        "generators": known[1:],
        "note": "certified non-gaps at the distinguished place, <= q+1",
    })

    # with r = 3 the non-gaps up to q+1 are exactly 0 < m_1 < q < q+1,
    # and j_2 = q+1-m_1
    j2 = q + 1 - known[1]
    report.order_sequences["distinguished"] = [0, 1, j2, q + 1]
    report.checks.append(CheckResult(
        "j2-at-distinguished-place", r == 3 and len(known) == 4 and j2 == 3,
        {"known_nongaps": known, "j2": j2}))

    _finish_epsilon(report, {"distinguished": j2}, r, (0, 1, 2, q))
    return report


def text_report(report: VerificationReport) -> str:
    """Readable multi-line summary of a verification report."""
    lines = []
    c = report.curve
    lines.append(f"curve: {c['family']} {c['params']}  (q={report.q}, p={report.p})")
    lines.append(f"field: F_{report.field_spec['order']} "
                 f"(modulus {report.field_spec['modulus']}, "
                 f"generator {report.field_spec['generator']})")
    lines.append(f"genus: {report.genus}")
    lines.append(f"census: total {report.census['total']}  "
                 f"by class {report.census['by_class']}")
    for frag in report.semigroups:
        lines.append(f"semigroup: {frag}")
    lines.append(f"frobenius dimension: {report.frobenius_dimension}")
    for name, seq in report.order_sequences.items():
        lines.append(f"orders[{name}]: {tuple(seq)}")
    lines.append(f"generic order sequence: "
                 f"{tuple(report.epsilon_sequence) if report.epsilon_sequence else 'n/a'}")
    for chk in report.checks:
        mark = "PASS" if chk.passed else "FAIL"
        lines.append(f"  [{mark}] {chk.name}: {chk.details}")
    lines.append(f"result: {'PASS' if report.passing else 'FAIL'}")
    return "\n".join(lines)
