"""Place censuses against closed-form point counts and brute oracles."""

import itertools
import time
from collections import Counter
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from maxcurves import curves, gf, numsg, verify
from field_helpers import (FieldElement, element_roots, enumerate_field,
                           hermitian_affine_points, is_in_subfield, table_builds)

FK_CATALOG = (5, 11, 17, 23, 29, 41, 47, 53, 59, 71)


class TestGenusFormulas:
    def test_gk(self):
        assert curves.genus_gk(3) == 99
        assert curves.genus_gk(2) == 10

    def test_gsx(self):
        assert curves.genus_gsx(7, 3) == 7

    def test_plane_smooth(self):
        assert curves.genus_plane_smooth(2) == 0
        assert curves.genus_plane_smooth(4) == 3

    def test_fk(self):
        assert curves.genus_fk(5) == 4
        assert curves.genus_fk(11) == 19
        assert curves.genus_fk(17) == 46

    @pytest.mark.parametrize("family,param",
                             [("gk", qbar) for qbar in (2, 3, 4, 5, 7, 8, 9)]
                             + [("gsx49", None)]
                             + [("fk", q) for q in FK_CATALOG + (89, 125)])
    def test_table_genus_is_the_closed_form(self, monkeypatch, family, param):
        # Riemann-Hurwitz on the divisor table alone, with no field built,
        # past the field cap too
        monkeypatch.setattr(curves, "make_field", None)
        if family == "gk":
            table, closed = curves.gk_divisor_table(param), curves.genus_gk(param)
        elif family == "gsx49":
            table, closed = curves.gsx49_divisor_table(), curves.genus_gsx(7, 3)
        else:
            table, closed = curves.fk_divisor_table(param), curves.genus_fk(param)
        assert table.genus == closed

    def test_fk_rejects_bad_q(self):
        for q in (7, 9, 8, 15):
            with pytest.raises(ValueError):
                curves.genus_fk(q)

    def test_maximal_N(self):
        assert curves.maximal_N(7, 7) == 148
        assert curves.maximal_N(27, 99) == 6076
        assert curves.maximal_N(5, 0) == 26


def walked_classes(monkeypatch, count, curve):
    """The classes ``count`` hands to the one Kummer census, as a list of
    (coords, n, la, m, c)."""
    real, walked = curves._kummer_census, []

    def spy(curve, classes, *args):
        walked.append(list(classes))
        return real(curve, walked[-1], *args)

    monkeypatch.setattr(curves, "_kummer_census", spy)
    count(curve)
    assert len(walked) == 1
    return walked[0]


def class_points(F, cls):
    """The points of one class in walk order, as (coords, lf): the class
    names each coordinate by its log i, or None for zero, so the points
    are its codes g^i (0 for None) followed by the roots g^j of
    y^m = g^la by code with lf = (j + c) mod N, or the codes alone with
    lf = c when m = 0; lf is None where the class is ramified."""
    coords, _, la, m, c = cls
    N = F.order - 1
    coords = tuple(0 if i is None else F.code(i) for i in coords)
    points = ([(coords + (F.code(j),), j)
               for j in sorted(gf.root_logs(la, m, N), key=F.code)]
              if m else [(coords, 0)])
    return [(pt, None if c is None else (j + c) % N) for pt, j in points]


def walked_fibers(monkeypatch, count, curve):
    """Each class ``count`` hands to the census expanded into its points,
    as a list of (coords, lf, cls) in walk order."""
    return [(coords, lf, cls)
            for cls in walked_classes(monkeypatch, count, curve)
            for coords, lf in class_points(curve.field, cls)]


def assert_weights_count_orbits(fibers, qbar):
    """Each GK class with points stands for its points over each of the
    qbar - 1 x0 of its F_qbar*-orbit; the origin stands for itself."""
    for (coords, n, *_), k in Counter(cls for _, _, cls in fibers).items():
        assert n == k * (1 if coords == (None, None) else qbar - 1)


def gk_x_verdicts(curve):
    """The verdict over each x0 = g^i, i < N, from element arithmetic: the
    number of points over x0 and the set of their tags."""
    F, qbar, d = curve.field, curve.params["qbar"], curve.params["d"]
    verdicts = []
    for x0 in enumerate_field(F)[1:]:
        den = x0 ** (qbar - 1) + 1
        ys = element_roots(x0 ** qbar + x0, qbar + 1)
        tags = set()
        for y0 in ys:
            t = y0 * (x0 ** (qbar * qbar - 1) - 1)
            tags.add("ramified" if den.is_zero() or t.is_zero()
                     else "split" if element_roots(t / den, d) else "inert")
        verdicts.append((len(ys), tags))
    return verdicts


def assert_walks_the_orbits_with_points(classes, curve):
    """The GK classes after the origin are the F_qbar*-orbits of x0 whose
    gk_x_verdicts entry has points, in walk order; the dropped orbits
    have none.  Returns the orbits' verdicts."""
    F, qbar = curve.field, curve.params["qbar"]
    verdicts = gk_x_verdicts(curve)[:(F.order - 1) // (qbar - 1)]
    assert classes[0] == ((None, None), 1, 0, 0, None)
    walked = [coords[0] for coords, *_ in classes[1:]]  # the logs of x0
    assert walked == [i for i, (n, _) in enumerate(verdicts) if n]
    dropped = set(range(len(verdicts))) - set(walked)
    assert dropped and all(verdicts[i] == (0, set()) for i in dropped)
    return verdicts


def solved_roots(monkeypatch, count, curve):
    """The census ``count`` returns for curve, and each curves.nth_roots
    call it makes, as (code, n)."""
    real, calls = curves.nth_roots, []

    def spy(F, code, n):
        calls.append((code, n))
        return real(F, code, n)

    monkeypatch.setattr(curves, "nth_roots", spy)
    return count(curve), calls


class TestHermitianPoints:
    """The GK census walks the affine Hermitian points itself, one
    F_qbar*-orbit of x0 at a time."""

    def test_origin_always_on_curve(self, monkeypatch):
        fibers = walked_fibers(monkeypatch, curves.count_gk_places,
                               curves.gk_curve(3))
        assert fibers[0][:2] == ((0, 0), None)

    def test_count_f729(self, monkeypatch):
        # 891 affine points: the origin and the 112 of the 728/2 orbits of
        # x0 that have points, whose weights add up to the whole walk
        curve = curves.gk_curve(3)
        classes = walked_classes(monkeypatch, curves.count_gk_places, curve)
        assert_walks_the_orbits_with_points(classes, curve)
        assert len(classes) == 1 + 112
        assert sum(n for _, n, *_ in classes) == 891

    @pytest.mark.parametrize("qbar,p,k", [(2, 2, 6), (3, 3, 6)])
    def test_double_count_oracle(self, monkeypatch, qbar, p, k):
        # oracle: raw double loop over all (x0, y0) pairs
        curve = curves.gk_curve(qbar)
        F = curve.field
        assert (F.p, F.k) == (p, k)
        fibers = walked_fibers(monkeypatch, curves.count_gk_places, curve)
        brute = {(x0.code, y0.code) for x0 in enumerate_field(F)
                 for y0 in enumerate_field(F)
                 if y0 ** (qbar + 1) == x0 ** qbar + x0}
        # (x, y) -> (mu^(qbar+1) x, mu y), mu in F_{qbar^2}*, carries the
        # walked points onto every point, and the weights count each once
        mus = [mu for mu in enumerate_field(F)[1:] if is_in_subfield(mu, k // 3)]
        assert len(mus) == qbar * qbar - 1
        images = {((mu ** (qbar + 1) * FieldElement(F, x)).code,
                   (mu * FieldElement(F, y)).code)
                  for (x, y), _, _ in fibers for mu in mus}
        assert images == brute
        assert sum(n for _, n, *_ in {cls for _, _, cls in fibers}) == len(brute)
        assert_weights_count_orbits(fibers, qbar)

    @pytest.mark.parametrize("qbar", [2, 3, 4])
    def test_hands_the_census_one_class_per_orbit(self, monkeypatch, qbar):
        # the origin and one class per orbit of x0 with points, among the
        # first N/(qbar-1) x0: no fallback to all N
        curve = curves.gk_curve(qbar)
        classes = walked_classes(monkeypatch, curves.count_gk_places, curve)
        assert_walks_the_orbits_with_points(classes, curve)
        # qbar - 1 x0 each, with qbar + 1 points over x0 or (den = 0) one
        for coords, n, la, m, c in classes[1:]:
            assert (n, m) == (((qbar - 1) * (qbar + 1), qbar + 1) if m
                              else (qbar - 1, 0))
            assert m or (coords[1:] == (None,) and c is None)

    @pytest.mark.parametrize("qbar", [2, 3, 4])
    def test_orbit_mates_share_a_verdict(self, monkeypatch, qbar):
        # class i and class i + N/(qbar-1) have the same verdict for every i,
        # and the walked classes, the orbits with points, have the verdicts
        # element arithmetic gives
        curve = curves.gk_curve(qbar)
        F, d = curve.field, curve.params["d"]
        N, step = F.order - 1, (F.order - 1) // (qbar - 1)
        verdicts = gk_x_verdicts(curve)
        assert all(verdicts[i] == verdicts[(i + step) % N] for i in range(N))
        # one verdict per x0; GK is maximal, so no fiber is inert
        assert all(len(tags) <= 1 for _, tags in verdicts)
        assert set().union(*(tags for _, tags in verdicts)) == {"ramified", "split"}
        classes = walked_classes(monkeypatch, curves.count_gk_places, curve)
        orbits = assert_walks_the_orbits_with_points(classes, curve)
        walked = []
        for cls in classes[1:]:
            points = class_points(F, cls)
            walked.append((len(points), {
                "ramified" if lf is None else "inert" if lf % d else "split"
                for _, lf in points}))
        assert walked == [v for v in orbits if v[0]]


@pytest.mark.parametrize("family,param", [("gk", qbar) for qbar in (2, 3, 4, 5)]
                         + [("fk", q) for q in FK_CATALOG + (89,)])
def test_hands_the_census_only_classes_with_points(monkeypatch, family, param):
    # the walks drop every class of base points without points before the
    # census sees it
    monkeypatch.setattr(gf, "FIELD_CAP", 5 ** 6)  # admits gk 5, fk 89
    count, curve = catalog_census(family, param)
    classes = walked_classes(monkeypatch, count, curve)
    assert all(class_points(curve.field, cls) for cls in classes)


class TestGKCensus:
    def test_total_qbar3(self):
        census = curves.count_gk_places(curves.gk_curve(3))
        assert census.total == 6076 == 27 ** 2 + 1 + 2 * 99 * 27

    def test_total_qbar2(self):
        census = curves.count_gk_places(curves.gk_curve(2))
        assert census.total == 225

    def test_single_infinite_place(self):
        census = curves.count_gk_places(curves.gk_curve(3))
        assert census.counts["infinite"] == 1

    def test_fiber_law(self):
        # split fibers carry d places each, ramified carry one
        census = curves.count_gk_places(curves.gk_curve(3))
        d = 7
        assert census.counts["affine-split"] == d * census.meta["split_fibers"]
        affine = 891
        assert (census.meta["split_fibers"] + census.meta["inert_fibers"]
                + census.counts["zero-of-cover-function"]) == affine


class TestGSX49Census:
    def test_total(self):
        assert curves.count_gsx49_places(curves.gsx49_curve()).total == 148

    def test_sixteenth_power_count(self):
        census = curves.count_gsx49_places(curves.gsx49_curve())
        assert census.meta["sixteenth_power_fibers"] == 9
        # oracle: direct loop over F_49
        F = gf.make_field(7, 2)
        hits = sum(1 for t0 in enumerate_field(F)
                   if not t0.is_zero() and t0 != -1
                   and (t0 * (t0 + 1) ** 6) ** 3 == 1)
        assert hits == 9
        assert 16 * 9 + 4 == 148

    def test_two_places_over_t_minus_one(self):
        census = curves.count_gsx49_places(curves.gsx49_curve())
        # transcribed specials: 1 over t=0, 2 over t=-1, 1 at infinity
        assert census.counts["zero-of-cover-function"] == 3
        assert census.counts["infinite"] == 1


class TestFKCensus:
    @pytest.mark.parametrize("q,total", [(5, 66), (11, 540), (17, 1854)])
    def test_totals(self, q, total):
        census = curves.count_fk_places(curves.fk_curve(q))
        assert census.total == total

    @pytest.mark.parametrize("q", [5, 11])
    def test_ramified_count(self, q):
        census = curves.count_fk_places(curves.fk_curve(q))
        assert census.meta["fully_ramified_places"] == q + 1
        assert census.meta["condition5_violations"] == 0

    @pytest.mark.parametrize("q", FK_CATALOG)
    def test_cube_test_is_condition5(self, q):
        # w^m3 = 3 gives log 3 + m3 lab = m3 (lw + lab) mod N, and q+1 = 3 m3,
        # so the cube test alone decides condition (5) at every log of ab
        curve = curves.fk_curve(q)
        F, m3 = curve.field, (q + 1) // 3
        lw, l3 = F.log(curve.constants["w"]), F.log(3 % F.p)
        for lab in range(F.order - 1):
            assert ((lw + lab) % 3 == 0) == ((l3 + m3 * lab) % (q + 1) == 0)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            curves.count_fk_places(curves.fk_curve(7))
        with pytest.raises(ValueError):
            curves.count_fk_places(curves.fk_curve(8))

    def test_constant_w(self):
        curve = curves.fk_curve(5)
        w = FieldElement(curve.field, curve.constants["w"])
        assert w ** 2 == 3

    @pytest.mark.parametrize("q", [5, 11, 71])
    def test_wrong_w_fails_the_split_check(self, monkeypatch, q):
        # a w whose log is off by one mod 3 moves every fiber's cube test:
        # the class walk must still find each inert fiber
        violations = {5: 20, 11: 176, 71: 40896}[q]
        built = table_builds(monkeypatch)
        curve = curves.fk_curve(q)
        F = curve.field
        N = F.order - 1
        curve.constants["w"] = F.code((F.log(curve.constants["w"]) + 1) % N)
        census = curves.count_fk_places(curve)
        checks = {c.name: c for c in verify.theorem_report(curve).checks}
        assert built == []  # the P^1 census, not the tables
        assert census.to_fragment() == reference_census(curve).to_fragment()
        assert census.meta["condition5_violations"] == violations
        assert not checks["split-condition-everywhere"].passed

    @pytest.mark.parametrize("q", FK_CATALOG)
    def test_walks_fewer_fibers_than_field_elements(self, monkeypatch, q):
        # one class per representative a of a^((q+1)/3), plus a = 0: at most
        # 3(q-1) + 1 classes, against q^3/9 points for a walk over every one
        classes = walked_classes(monkeypatch, curves.count_fk_places,
                                 curves.fk_curve(q))
        assert len(classes) <= 3 * (q - 1) + 1


def reference_census(curve):
    """The census written out on FieldElement objects: every point built,
    roots from element_roots, condition (5) from is_in_subfield."""
    F = curve.field
    census = curves.PlaceCensus()
    Place = curves.Place
    split, zero, inf = curves.AFFINE_SPLIT, curves.ZERO_OF_COVER, curves.INFINITE
    if curve.family == "GK":
        qbar, d = curve.params["qbar"], curve.params["d"]
        split_fibers = inert_fibers = 0
        for x0, y0 in hermitian_affine_points(qbar, F):
            den = x0 ** (qbar - 1) + 1
            t = y0 * (x0 ** (qbar * qbar - 1) - 1)
            if den.is_zero() or t.is_zero():
                census.add(zero, 1, samples=[
                    Place(f"gk:x={x0.code},y={y0.code},z=0", d)])
                continue
            roots = element_roots(t / den, d)
            if roots:
                split_fibers += 1
                census.add(split, len(roots), samples=[Place(
                    f"gk:x={x0.code},y={y0.code},z={roots[0].code}", 1)])
            else:
                inert_fibers += 1
        census.add(inf, 1, samples=[Place("gk:P0", d)])
        census.meta.update(split_fibers=split_fibers, inert_fibers=inert_fibers)
    elif curve.family == "GSX49":
        fibers = 0
        for t0 in enumerate_field(F):
            if t0.is_zero() or t0 == -1:
                continue
            roots = element_roots(t0 * (t0 + 1) ** 6, 16)
            if roots:
                fibers += 1
                census.add(split, len(roots), samples=[
                    Place(f"gsx49:t={t0.code},z={roots[0].code}", 1)])
        census.add(zero, 1, samples=[Place("gsx49:P0", 16)])
        census.add(zero, 2, samples=[Place("gsx49:P1", 8)])
        census.add(inf, 1, samples=[Place("gsx49:Pinf", 16)])
        census.meta["sixteenth_power_fibers"] = fibers
    else:
        q, w = curve.q, FieldElement(F, curve.constants["w"])
        m3 = (q + 1) // 3
        violations = 0
        for a in enumerate_field(F):
            for b in element_roots(-1 - a ** m3, m3):
                if a.is_zero() or b.is_zero():
                    census.add(zero, 1, samples=[Place(f"fk:a={a.code},b={b.code}", 3)])
                    continue
                roots = element_roots(w * a * b, 3)
                if (len(roots) != 3
                        or not is_in_subfield(3 * (a * b) ** m3, F.k // 2)):
                    violations += 1
                    continue
                census.add(split, 3, samples=[Place(
                    f"fk:a={a.code},b={b.code},z={roots[0].code}", 1)])
        census.add(inf, m3, samples=[Place("fk:Pinf,1", 3)])
        census.meta["condition5_violations"] = violations
        census.meta["fully_ramified_places"] = (census.counts.get(zero, 0)
                                                + census.counts[inf])
    return census


def catalog_census(family, param):
    """The census function and curve of one catalog entry."""
    if family == "gk":
        return curves.count_gk_places, curves.gk_curve(param)
    if family == "gsx49":
        return curves.count_gsx49_places, curves.gsx49_curve()
    return curves.count_fk_places, curves.fk_curve(param)


CENSUS_CASES = ([("gk", qbar) for qbar in (2, 3, 4)] + [("gsx49", None)]
                + [("fk", q) for q in (5, 11, 17, 23, 29, 41)])


class InterfaceOnly:
    """A field with nothing but FieldSpec's public interface."""

    __slots__ = ("p", "k", "order", "modulus", "generator", "code", "log",
                 "one_plus_every", "to_fragment")

    def __init__(self, F):
        for name in self.__slots__:
            setattr(self, name, getattr(F, name))


@pytest.mark.parametrize("family,param", [("gk", qbar) for qbar in (2, 3, 4, 5)]
                         + [("gsx49", None)] + [("fk", q) for q in FK_CATALOG + (89,)])
def test_censuses_read_the_field_only_through_its_interface(monkeypatch, family,
                                                             param):
    # on a field that has only code, log, one_plus_every and its parameters,
    # each census counts what it counts on the field itself
    monkeypatch.setattr(gf, "FIELD_CAP", 5 ** 6)  # admits gk 5, fk 89
    count, curve = catalog_census(family, param)
    proxy = curves.CurveModel(curve.family, curve.params, InterfaceOnly(curve.field),
                              curve.q, curve.p, curve.equations, curve.table,
                              curve.constants)
    assert count(proxy).to_fragment() == count(curve).to_fragment()


def subcover_genus(curve, d):
    """The genus of z^d = f, d | the catalog degree, from the closed forms:
    GSX49's subcovers are GSX(7, 48/d), and d = 1 is the base curve, the
    Hermitian curve for GK and FK's plane curve of degree (q+1)/3."""
    if curve.family == "GSX49":
        return curves.genus_gsx(7, 48 // d)
    assert d == 1
    if curve.family == "GK":
        qbar = curve.params["qbar"]
        return qbar * (qbar - 1) // 2
    return curves.genus_plane_smooth((curve.q + 1) // 3)


def kummer_base(table):
    """The base description {class: (n, v(f), row)} that ``table``'s Kummer
    map inverts: n = count e/d, k = v(z) d/e, row/e."""
    D = table.d
    return {pid: (n * e // D, vz * D // e, tuple(v // e for v in row))
            for pid, (n, e, vz, row) in table.kummer.items()}


@pytest.mark.parametrize("family,param,d", [("gsx49", None, d) for d in (1, 2, 4, 8, 16)]
                         + [("gk", qbar, 1) for qbar in (2, 3, 4)]
                         + [("fk", q, 1) for q in FK_CATALOG])
def test_census_counts_the_cover_its_table_describes(family, param, d):
    # a cover covered by a maximal curve is maximal (Lachaud), so the
    # unchanged census on the table rebuilt at d | table.d, from the base
    # description its Kummer map inverts, sits on Hasse-Weil for the
    # subcover's genus, which the rebuilt table gives by Riemann-Hurwitz
    count, curve = catalog_census(family, param)
    table, D = curve.table, curve.table.d
    base = kummer_base(table)
    assert curves._kummer_table(D, table.g0, table.symbols, base).places == table.places
    assert D % d == 0
    curve.table = curves._kummer_table(d, table.g0, table.symbols, base)
    assert curve.table.genus == subcover_genus(curve, d)
    census = count(curve)
    assert census.total == curves.maximal_N(curve.q, subcover_genus(curve, d))


class TestRamificationIndex:
    def test_gsx49_places_over_zeros_and_poles_of_f(self):
        # z^16 = t(t+1)^6: v(f) is 1, 6 and -7 over t = 0, -1 and infinity,
        # with gcd(16, v) places of index 16/gcd(16, v) over each
        census = curves.count_gsx49_places(curves.gsx49_curve())
        e = {pl.id: pl.e for kept in census.samples.values() for pl in kept}
        over = {"gsx49:P0": 1, "gsx49:P1": 6, "gsx49:Pinf": -7}
        assert {pid: e[pid] for pid in over} == {
            pid: 16 // gcd(16, v) for pid, v in over.items()} == {
            "gsx49:P0": 16, "gsx49:P1": 8, "gsx49:Pinf": 16}
        assert census.counts[curves.ZERO_OF_COVER] == gcd(16, 1) + gcd(16, 6)
        assert census.counts[curves.INFINITE] == gcd(16, -7)
        # v(t+1) = e v_t(t+1) upstairs, as the divisor table records
        table = curves.gsx49_divisor_table().places
        assert (table["P1,P2"][1][1], table["Pinf"][1][1]) == (
            e["gsx49:P1"], -e["gsx49:Pinf"])

    @pytest.mark.parametrize("family,param", CENSUS_CASES)
    def test_ramified_and_infinite_samples_ramify(self, family, param):
        count, curve = catalog_census(family, param)
        samples = count(curve).samples
        for tag in (curves.ZERO_OF_COVER, curves.INFINITE):
            assert samples[tag] and all(pl.e > 1 for pl in samples[tag])


class TestReferenceCensus:
    @pytest.mark.parametrize("family,param", CENSUS_CASES + [("gk", 5)] + [
        ("fk", q) for q in (47, 53, 59, 71, 89, 125)])
    def test_matches_reference_census(self, monkeypatch, family, param):
        monkeypatch.setattr(gf, "FIELD_CAP", 5 ** 6)  # admits gk 5, fk 89, 125
        built = table_builds(monkeypatch)
        count, curve = catalog_census(family, param)
        census = count(curve).to_fragment()
        # F_{q^2} for prime q and GSX49's F_49 count on P^1; fk 125 (k = 6)
        # and GK build their tables once, with the field
        assert len(built) == (curve.field.k != 2)
        assert census == reference_census(curve).to_fragment()

    @pytest.mark.parametrize("q", FK_CATALOG + (89, 125))
    def test_constant_w_is_first_in_enumeration_order(self, monkeypatch, q):
        monkeypatch.setattr(gf, "FIELD_CAP", 5 ** 6)  # admits 89, 125
        F = curves.fk_curve(q).field
        first = next(w for w in enumerate_field(F) if w ** ((q + 1) // 3) == 3)
        assert curves.fk_curve(q).constants["w"] == first.code

    @pytest.mark.parametrize("qbar,p,k", [(2, 2, 6), (3, 3, 6)])
    def test_hermitian_points_in_walk_order(self, monkeypatch, qbar, p, k):
        curve = curves.gk_curve(qbar)
        F = curve.field
        assert (F.p, F.k) == (p, k)
        fibers = walked_fibers(monkeypatch, curves.count_gk_places, curve)
        # the points over the origin and the first N/(qbar-1) x0: a prefix
        walked_x = {0, *map(F.code, range((F.order - 1) // (qbar - 1)))}
        points = [(x0.code, y0.code) for x0, y0 in hermitian_affine_points(qbar, F)]
        assert [coords for coords, _, _ in fibers] == points[:len(fibers)] == [
            pt for pt in points if pt[0] in walked_x]
        assert_weights_count_orbits(fibers, qbar)

    @pytest.mark.parametrize("count,curve,d", [
        (curves.count_gk_places, lambda: curves.gk_curve(3), 7),
        (curves.count_gk_places, lambda: curves.gk_curve(4), 13),
        (curves.count_gsx49_places, curves.gsx49_curve, 16),
        (curves.count_fk_places, lambda: curves.fk_curve(41), 3),
        (curves.count_fk_places, lambda: curves.fk_curve(71), 3),
    ])
    def test_solves_for_z_at_kept_split_samples_only(self, monkeypatch, count,
                                                     curve, d):
        # one nth_roots call per kept split sample, on its fiber value,
        # and the sample's z is the least code among the d-th roots
        model = curve()
        F, N = model.field, model.field.order - 1
        census, calls = solved_roots(monkeypatch, count, model)
        calls = calls[:]  # the walk below runs the census again
        fibers = walked_fibers(monkeypatch, count, model)
        split = [lf for _, lf, _ in fibers if lf is not None and lf % d == 0]
        kept = split[:curves.SAMPLES_PER_CLASS]
        samples = census.samples[curves.AFFINE_SPLIT]
        assert kept and calls == [(F.code(lf), d) for lf in kept]
        assert len(samples) == len(kept)
        for lf, place in zip(kept, samples):
            z = min(map(F.code, gf.root_logs(lf, d, N)))
            assert place.id.endswith(f",z={z}")


class TestClassCensus:
    """Each class gets one verdict by divisibility; roots only name samples."""

    @pytest.mark.parametrize("family,param", [("gk", qbar) for qbar in (2, 3, 4)]
                             + [("gsx49", None)] + [("fk", q) for q in FK_CATALOG])
    def test_lists_roots_only_for_samples(self, monkeypatch, family, param):
        count, curve = catalog_census(family, param)
        real, calls = curves.root_logs, []

        def spy(la, n, N):
            calls.append((la, n))
            return real(la, n, N)

        monkeypatch.setattr(curves, "root_logs", spy)
        count(curve)
        # at most one class per kept sample, of the two tags the walk samples
        assert len(calls) <= 2 * curves.SAMPLES_PER_CLASS

    @pytest.mark.parametrize("family,param", [("gk", qbar) for qbar in (2, 3, 4)]
                             + [("fk", q) for q in FK_CATALOG])
    def test_every_point_of_a_class_shares_its_verdict(self, monkeypatch, family,
                                                       param):
        count, curve = catalog_census(family, param)
        F, d = curve.field, curve.table.d
        N = F.order - 1
        decided = 0
        for coords, n, la, m, c in walked_classes(monkeypatch, count, curve):
            if not m or c is None or la % m:
                continue
            decided += 1
            # the class's lf is its root j = la/m plus c
            assert {(j + c) % d for j in gf.root_logs(la, m, N)} == {(la // m + c) % d}
        assert decided


def builtin_tables():
    yield curves.gsx49_divisor_table()
    yield from map(curves.fk_divisor_table, FK_CATALOG)
    yield from map(curves.gk_divisor_table, range(2, 10))


# the box of the FK report: x, y-beta and z have valuations 3, q+1 and 1
# at P0_beta, and x/(y-beta), z/(y-beta), 1/(y-beta) witness q-2, q, q+1
FK_BOX = {"x": range(2), "y-beta": range(-1, 1), "z": range(2)}
FK_WITNESSES = ({"x": 1, "y-beta": -1, "z": 0}, {"x": 0, "y-beta": -1, "z": 1},
                {"x": 0, "y-beta": -1, "z": 0})


class TestDivisors:
    def test_table_divisors_have_degree_zero(self):
        for table in builtin_tables():
            for i in range(len(table.symbols)):
                assert sum(n * row[i] for n, row in table.places.values()) == 0
        with pytest.raises(ValueError):
            curves.PrincipalDivisorTable(("z",), {"P0": (1, (1,)), "Pinf": (1, (-2,))})
        with pytest.raises(ValueError):  # two simple zeros against one simple pole
            curves.PrincipalDivisorTable(("z",), {"P0": (2, (1,)), "Pinf": (1, (-1,))})

    def test_builtin_tables_have_at_most_four_classes(self):
        for table in builtin_tables():
            assert len(table.places) <= 4

    @pytest.mark.parametrize("qbar", range(2, 10))
    def test_gk_table_holds_p0_and_the_zeros_of_u(self, qbar):
        places = curves.gk_divisor_table(qbar).places
        assert places["P0"][0] == 1
        assert sum(n for n, _ in places.values()) == qbar ** 3 + 1

    @pytest.mark.parametrize("family,param", [("gk", qbar) for qbar in (2, 3, 4, 5)]
                             + [("gsx49", None)]
                             + [("fk", q) for q in FK_CATALOG + (89, 125)])
    def test_table_matches_the_census(self, monkeypatch, family, param):
        # the table holds every place over a zero or a pole of f: the walk's
        # ramified places and the branch places the census takes from it,
        # zeros of f where v(z) > 0 and infinite places where v(z) < 0
        monkeypatch.setattr(gf, "FIELD_CAP", 5 ** 6)  # admits gk 5, fk 89, 125
        count, curve = catalog_census(family, param)
        counts = count(curve).counts
        table = (curves.gsx49_divisor_table() if family == "gsx49"
                 else getattr(curves, f"{family}_divisor_table")(param))
        vz = [(n, row[table.symbols.index("z")]) for n, row in table.places.values()]
        zeros, poles = counts.get(curves.ZERO_OF_COVER, 0), counts[curves.INFINITE]
        assert sum(n for n, _ in vz) == zeros + poles
        assert (sum(n for n, v in vz if v > 0), sum(n for n, v in vz if v < 0)) == (
            zeros, poles)

    @pytest.mark.parametrize("qbar", range(2, 10))
    def test_gk_table_keeps_its_literal_rows(self, qbar):
        d = qbar * qbar - qbar + 1
        assert curves.gk_divisor_table(qbar).places == {
            "P0": (1, (-(qbar + 1) * d, -qbar * d, -qbar ** 3)),
            "origin": (1, ((qbar + 1) * d, d, 1)),
            "(a,0)": (qbar - 1, (0, d, 1)),
            "zeros-of-u": (qbar ** 3 - qbar, (0, 0, 1))}

    def test_gsx49_table_keeps_its_literal_rows(self):
        table = curves.gsx49_divisor_table()
        assert table.symbols == ("z", "t+1")
        assert table.places == {"P1,P2": (2, (3, 8)), "P0": (1, (1, 0)),
                                "Pinf": (1, (-7, -16))}

    @pytest.mark.parametrize("q", FK_CATALOG)
    def test_fk_table_keeps_its_literal_rows(self, q):
        # the rows of x and y - beta as written out before, plus the z
        # column and the class of the m3 zeros of y, which complete (f)
        m3 = (q + 1) // 3
        table = curves.fk_divisor_table(q)
        assert table.symbols == ("x", "y-beta", "z")
        assert {pid: (n, row[:2]) for pid, (n, row) in table.places.items()
                if pid != "zeros-of-y"} == {
            "P0_beta": (1, (3, q + 1)), "P0_beta'": (m3 - 1, (3, 0)),
            "Pinf": (m3, (-3, -3))}
        assert table.places["zeros-of-y"] == (m3, (0, 0, 1))
        assert [row[2] for _, row in table.places.values()] == [1, 1, 1, -2]

    def test_kummer_rule_with_gcd_above_one(self):
        # GSX49's t = -1: v(f) = 6 and gcd(16, 6) = 2, so 2 places with e = 8,
        # v(z) = 3 and v(t+1) = 8
        assert curves.kummer_places(16, {"P1,P2": (1, 6, (1,))}) == {
            "P1,P2": (2, 8, 3, (8,))}
        assert curves.gsx49_divisor_table().kummer["P1,P2"][:2] == (2, 8)

    def test_description_missing_a_pole_of_f_is_rejected(self):
        # GSX49 without t = infinity: (z) and (t+1) lose their poles
        with pytest.raises(ValueError, match="degree"):
            curves._kummer_table(16, 0, ("z", "t+1"),
                                 {"P0": (1, 1, (0,)), "P1,P2": (1, 6, (1,))})

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            curves.weierstrass_nongaps_from_monomials(
                curves.gsx49_divisor_table(), "Pinf", {"w": range(2)})

    def test_fk_pole_of_x_over_y_minus_beta(self):
        # x/(y-beta) is effective away from P0_beta, with pole q-2 there
        for q in (5, 11, 17):
            scan = curves.weierstrass_nongaps_from_monomials(
                curves.fk_divisor_table(q), "P0_beta", FK_BOX)
            assert scan["witnesses"][q - 2] == {"x": 1, "y-beta": -1, "z": 0}

    @pytest.mark.parametrize("q", FK_CATALOG + (89, 125, 701))
    def test_fk_box_certifies_exactly_the_three_generators(self, q):
        # each witness is effective away from P0_beta, with pole q-2, q and
        # q+1 there, and no other monomial of the box is
        scan = curves.weierstrass_nongaps_from_monomials(
            curves.fk_divisor_table(q), "P0_beta", FK_BOX)
        assert scan["nongaps"] == [0, q - 2, q, q + 1]
        assert [scan["witnesses"][n] for n in (q - 2, q, q + 1)] == list(FK_WITNESSES)

    def test_fk_generators_have_the_fk_genus_in_gaps(self):
        # Selmer's formula: <q-2, q, q+1> has (q^2-q+4)/6 gaps for every odd
        # q = 2 mod 3, so the three generators give all of H(P0_beta)
        for q in range(5, 1000, 6):
            S = numsg.semigroup_from_generators((q - 2, q, q + 1))
            assert S.genus == (q * q - q + 4) // 6

    def test_large_fk_table_is_four_classes(self):
        q, m3 = 10007, 3336
        start = time.perf_counter()
        table = curves.fk_divisor_table(q)
        scan = curves.weierstrass_nongaps_from_monomials(table, "P0_beta", FK_BOX)
        assert time.perf_counter() - start < 1.0
        assert table.places == {"P0_beta": (1, (3, q + 1, 1)),
                                "P0_beta'": (m3 - 1, (3, 0, 1)),
                                "zeros-of-y": (m3, (0, 0, 1)),
                                "Pinf": (m3, (-3, -3, -2))}
        assert scan["nongaps"] == [0, q - 2, q, q + 1]


class TestGKDivisorTable:
    BOX = {"x": range(2), "y": range(2), "z": range(2)}

    @pytest.mark.parametrize("qbar", range(2, 10))
    def test_scan_certifies_the_ramified_semigroup(self, qbar):
        scan = curves.weierstrass_nongaps_from_monomials(
            curves.gk_divisor_table(qbar), "P0", self.BOX)
        S = numsg.semigroup_from_generators(n for n in scan["nongaps"] if n)
        gens = (qbar ** 3 - qbar ** 2 + qbar, qbar ** 3, qbar ** 3 + 1)
        assert S.minimal_generators == gens
        assert S.genus == curves.genus_gk(qbar)
        assert [scan["witnesses"][n] for n in gens] == [
            {"x": 0, "y": 1, "z": 0}, {"x": 0, "y": 0, "z": 1},
            {"x": 1, "y": 0, "z": 0}]

    @pytest.mark.parametrize("qbar", range(2, 10))
    def test_wider_box_gives_the_same_semigroup(self, qbar):
        table = curves.gk_divisor_table(qbar)

        def semigroup(ranges):
            scan = curves.weierstrass_nongaps_from_monomials(table, "P0", ranges)
            return numsg.semigroup_from_generators(n for n in scan["nongaps"] if n)

        wide = semigroup({"x": range(4), "y": range(-3, 4), "z": range(-3, 4)})
        assert wide.apery == semigroup(self.BOX).apery


def reference_scan(table, target, ranges):
    """The scan written out place class by place class: each monomial's
    divisor as a class-id dict, effective away from the target."""
    symbols = list(ranges)
    witnesses = {0: {s: 0 for s in symbols}}
    for combo in itertools.product(*(ranges[s] for s in symbols)):
        exps = dict(zip(symbols, combo))
        div = {}
        for pid, (_, row) in table.places.items():
            for s, e in exps.items():
                div[pid] = div.get(pid, 0) + e * row[table.symbols.index(s)]
        if any(m < 0 for pid, m in div.items() if pid != target):
            continue
        if div[target] < 0 and -div[target] not in witnesses:
            witnesses[-div[target]] = exps
    return {"nongaps": sorted(witnesses), "witnesses": witnesses}


class TestMonomialScan:
    def test_gsx49_scan(self):
        table = curves.gsx49_divisor_table()
        res = curves.weierstrass_nongaps_from_monomials(
            table, "Pinf", {"z": range(0, 15), "t+1": range(-7, 1)})
        nongaps = set(res["nongaps"])
        assert {0, 5, 7, 8, 10, 12, 13} <= nongaps
        assert 6 not in nongaps

    def test_gsx49_witnesses_satisfy_constraint(self):
        table = curves.gsx49_divisor_table()
        res = curves.weierstrass_nongaps_from_monomials(
            table, "Pinf", {"z": range(0, 15), "t+1": range(-7, 1)})
        for n, wit in res["witnesses"].items():
            i, j = wit["z"], -wit["t+1"]
            assert 3 * i >= 8 * j
            if n:
                assert 7 * i - 16 * j == n

    def test_scan_generates_true_semigroup(self):
        table = curves.gsx49_divisor_table()
        res = curves.weierstrass_nongaps_from_monomials(
            table, "Pinf", {"z": range(0, 15), "t+1": range(-7, 1)})
        S = numsg.semigroup_from_generators(n for n in res["nongaps"] if n)
        assert numsg.nongaps_upto(S, 8) == [0, 5, 7, 8]
        assert S.genus == 7

    def test_fk_scan(self):
        table = curves.fk_divisor_table(5)
        res = curves.weierstrass_nongaps_from_monomials(table, "P0_beta", FK_BOX)
        assert res["nongaps"] == [0, 3, 5, 6]
        assert [res["witnesses"][n] for n in (3, 5, 6)] == list(FK_WITNESSES)

    def test_unknown_target(self):
        table = curves.gsx49_divisor_table()
        with pytest.raises(ValueError):
            curves.weierstrass_nongaps_from_monomials(
                table, "nowhere", {"z": range(2)})

    @pytest.mark.parametrize("table,target", [
        (curves.gsx49_divisor_table(), "P1,P2"), (curves.fk_divisor_table(11), "Pinf"),
        (curves.fk_divisor_table(11), "P0_beta'"), (curves.gk_divisor_table(3), "(a,0)")])
    def test_target_of_several_places_is_rejected(self, table, target):
        with pytest.raises(ValueError, match="not one place"):
            curves.weierstrass_nongaps_from_monomials(
                table, target, {table.symbols[0]: range(2)})

    # None is GSX49, q = 8, 27, 64 is GK with q = qbar^3, and the rest FK
    @pytest.mark.parametrize("q", [None, 5, 11, 17, 23, 29, 8, 27, 64])
    def test_matches_reference_scan(self, q):
        gk_qbar = {8: 2, 27: 3, 64: 4}
        if q is None:
            table, target, g, q = curves.gsx49_divisor_table(), "Pinf", 7, 7
            ranges = {"z": range(0, 2 * g + 1), "t+1": range(-g, 1)}
        elif q in gk_qbar:
            table, target = curves.gk_divisor_table(gk_qbar[q]), "P0"
            ranges = {"x": range(4), "y": range(-3, 4), "z": range(-3, 4)}
        else:
            table, target = curves.fk_divisor_table(q), "P0_beta"
            g = curves.genus_fk(q)
            ranges = {"x": range(0, 2 * g + 1), "y-beta": range(-g, 1)}
        got = curves.weierstrass_nongaps_from_monomials(table, target, ranges)
        want = reference_scan(table, target, ranges)
        assert got["nongaps"] == want["nongaps"]
        assert list(got["witnesses"].items()) == list(want["witnesses"].items())

    @pytest.mark.parametrize("q", [5, 11, 17, 23, 29])
    def test_fk_capped_box_keeps_the_nongaps_up_to_q_plus_1(self, q):
        table = curves.fk_divisor_table(q)

        def nongaps(ranges):
            return curves.weierstrass_nongaps_from_monomials(
                table, "P0_beta", ranges)["nongaps"]

        wide = nongaps({"x": range(q + 2), "y-beta": range(-(q + 1), 1),
                        "z": range(q + 2)})
        assert [n for n in wide if n <= q + 1] == nongaps(FK_BOX)
        assert nongaps(FK_BOX) == [0, q - 2, q, q + 1]
        # a wider box certifies only members of <q-2, q, q+1>
        S = numsg.semigroup_from_generators((q - 2, q, q + 1))
        assert all(numsg.contains(S, n) for n in wide)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_scan_on_random_tables(self, data):
        n_sym = data.draw(st.integers(1, 3))
        n_places = data.draw(st.integers(2, 5))
        symbols = tuple(f"f{i}" for i in range(n_sym))
        # class sizes; the last class is one place, whose row balances each column
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=n_places - 1,
                                   max_size=n_places - 1)) + [1]
        cols = []
        for _ in symbols:
            head = data.draw(st.lists(st.integers(-4, 4), min_size=n_places - 1,
                                      max_size=n_places - 1))
            cols.append(head + [-sum(map(mul, sizes, head))])
        places = {f"P{k}": (sizes[k], tuple(col[k] for col in cols))
                  for k in range(n_places)}
        table = curves.PrincipalDivisorTable(symbols=symbols, places=places)
        target = data.draw(st.sampled_from(
            sorted(pid for pid, (n, _) in places.items() if n == 1)))
        named = data.draw(st.permutations(symbols))[:data.draw(st.integers(1, n_sym))]
        ranges = {}
        for sym in named:
            start = data.draw(st.integers(-5, 3))
            step = data.draw(st.sampled_from([-2, -1, 1, 2]))
            ranges[sym] = range(start, start + step * data.draw(st.integers(0, 6)),
                                step)
        got = curves.weierstrass_nongaps_from_monomials(table, target, ranges)
        want = reference_scan(table, target, ranges)
        assert got["nongaps"] == want["nongaps"]
        assert list(got["witnesses"].items()) == list(want["witnesses"].items())
