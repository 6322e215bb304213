"""CLI contract: exit codes, JSON schema, round-tripping."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from maxcurves import cli, curves, gf, numsg, verify
from field_helpers import table_builds
from test_golden import CATALOG


def run_capture(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verify_gsx49_passes(self, capsys):
        code, out, _ = run_capture(["verify", "gsx49"], capsys)
        assert code == 0
        assert "result: PASS" in out

    def test_injected_delta_fails(self, capsys):
        code, out, _ = run_capture(
            ["verify", "gsx49", "--inject-census-delta", "1"], capsys)
        assert code == 1
        assert "result: FAIL" in out

    def test_malformed_flags(self, capsys):
        assert run_capture(["verify", "gsx49", "--bogus"], capsys)[0] == 2
        assert run_capture(["verify"], capsys)[0] == 2
        assert run_capture(["nope"], capsys)[0] == 2
        assert run_capture([], capsys)[0] == 2

    def test_parameter_errors(self, capsys):
        code, _, err = run_capture(["verify", "fk", "--q", "7"], capsys)
        assert code == 2 and "error" in err
        code, _, err = run_capture(["semigroup", "--gens", "4,6"], capsys)
        assert code == 2
        code, _, err = run_capture(["semigroup", "--gens", "a,b"], capsys)
        assert code == 2
        # the degree-(q+1) Frobenius series has dimension 2 <= r <= q+1
        code, out, err = run_capture(["bound", "--q", "4", "--r", "100"], capsys)
        assert code == 2 and out == "" and "2 <= r <= q+1 = 5" in err
        assert run_capture(["bound", "--q", "4", "--r", "5"], capsys)[0] == 0

    def test_help_exits_zero(self, capsys):
        assert run_capture(["--help"], capsys)[0] == 0

    @pytest.mark.parametrize("argv,code,message", [
        (["nope"], 2, "invalid choice: 'nope'"),
        (["verify", "gsx49", "--bogus"], 2, "unrecognized arguments: --bogus"),
        (["bound", "--q", "4"], 2, "the following arguments are required: --r"),
        (["bound", "--q", "4", "--r"], 2, "argument --r: expected one argument"),
        (["semigroup", "--gens", "-2,3"], 2, "argument --gens: expected one argument"),
        (["bound", "--q", "5", "--r", "-1"], 2, "bound needs 2 <= r <= q+1 = 6"),
        (["bound", "--q", "4", "--r", "x"], 2, "argument --r: invalid int value: 'x'"),
        (["verify", "gsx49", "--format", "xml"], 2, "invalid choice: 'xml'"),
        (["bound", "--q=11", "--r=4"], 0, "360/24 = 15"),
        (["verify", "gk", "--qb", "2"], 0, "result: PASS"),
        (["bound", "--q", "4", "--r", "3", "--q", "11", "--r", "4"], 0, "360/24 = 15"),
        (["verify", "fk", "--help"], 0, "verify fk --q N"),
        (["semigroup", "-h"], 0, "Exit codes: 0 all checks pass"),
        (["--version"], 0, cli.__version__),
    ])
    def test_parser_contract(self, capsys, argv, code, message):
        # a usage error writes only to stderr, any other run only to stdout
        got, out, err = run_capture(argv, capsys)
        quiet, loud = (out, err) if code == 2 else (err, out)
        assert got == code and quiet == "" and message in loud

    @pytest.mark.parametrize("argv", [
        ["bound", "--q", "0", "--r", "3"],
        ["bound", "--q", "1", "--r", "2"],
        ["deduce-dim", "--q", "0", "--g", "3"],
        ["deduce-dim", "--q", "12", "--g", "3"],
        ["orders", "--gens", "5,7,8", "--q", "6"],
        ["verify", "gk", "--qbar", "0"],
        ["verify", "fk", "--q", "-1"],
    ])
    def test_non_prime_power_q_is_usage_error(self, capsys, argv):
        code, out, err = run_capture(argv, capsys)
        assert code == 2 and out == ""
        assert "is not a prime power" in err

    @pytest.mark.parametrize("argv,message", [
        (["verify", "fk", "--q", "100000000000031"],
         "field size 100000000000031^2 exceeds cap 5500"),
        (["verify", "gk", "--qbar", "100000000000031"],
         "field size 100000000000031^6 exceeds cap 5500"),
        (["bound", "--q", "100000000000031", "--r", "3"],
         "exceeds the --q cap 2^20"),
        (["deduce-dim", "--q", str(cli.QUERY_Q_CAP + 1), "--g", "3"],
         "exceeds the --q cap 2^20"),
        (["orders", "--gens", "5,7,8", "--q", str(cli.QUERY_Q_CAP + 1)],
         "exceeds the --q cap 2^20"),
    ])
    def test_huge_q_is_rejected_before_factoring(self, capsys, monkeypatch,
                                                 argv, message):
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(gf, "factorize", refuse)
        code, out, err = run_capture(argv, capsys)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("argv,message", [
        (["semigroup", "--gens", f"{cli.QUERY_Q_CAP + 1},{cli.QUERY_Q_CAP + 2}"],
         f"{cli.QUERY_Q_CAP + 1} exceeds the smallest-generator cap 2^20"),
        (["orders", "--gens", "3000000,3000001", "--q", "2"],
         "3000000 exceeds the smallest-generator cap 2^20"),
        (["semigroup", "--gens", "2,3", "--upto", str(cli.QUERY_Q_CAP + 1)],
         f"{cli.QUERY_Q_CAP + 1} exceeds the --upto cap 2^20"),
    ])
    def test_table_sizes_are_capped_before_the_semigroup_is_built(
            self, capsys, monkeypatch, argv, message):
        # the Apéry set has min(gens) entries and --upto B lists B + 1 non-gaps
        def refuse(gens):
            raise AssertionError(f"semigroup_from_generators({gens}) called")

        monkeypatch.setattr(numsg, "semigroup_from_generators", refuse)
        code, out, err = run_capture(argv, capsys)
        assert code == 2 and out == "" and message in err

    def test_successive_runs_share_no_state(self, capsys):
        code, out, _ = run_capture(
            ["verify", "fk", "--q", "5", "--inject-census-delta", "1"], capsys)
        assert code == 1 and "result: FAIL" in out
        code, out, _ = run_capture(["verify", "fk", "--q", "5"], capsys)
        assert code == 0 and "result: PASS" in out  # the delta is not sticky
        code, out, err = run_capture(["verify", "fk", "--q", "5", "--bogus"], capsys)
        assert code == 2 and out == "" and "unrecognized arguments: --bogus" in err
        code, out, err = run_capture(["bound", "--q", "11", "--r", "4"], capsys)
        assert (code, out, err) == (0, "360/24 = 15\n", "")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_capture(
            ["verify", "gsx49", "--format", "json", "--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not path.exists()


def verify_json(argv, capsys):
    code, out, _ = run_capture(argv + ["--format", "json"], capsys)
    rep = json.loads(out)["report"]
    return code, {c["name"]: c for c in rep["checks"]}


def _census_fault(edit):
    """A fault on curves._kummer_census: it counts edit(classes, d) instead
    of the classes the walk yields, d the degree of the curve's cover."""
    def fault(real):
        def census(curve, classes, *args):
            return real(curve, edit(classes, curve.table.d), *args)
        return census
    return fault


def _splits(la, m, c, d):
    """Does a class (coords, n, la, m, c) of the census walk split?"""
    return (c is not None and not (m and la % m)
            and ((la // m if m else 0) + c) % d == 0)


def _move_a_split_point(monkeypatch):
    """Fault the census so one point of the first split class (all of a
    single-point class) moves into an inert class of its own; the returned
    list gets the class's coords when the fault fires."""
    moved = []

    def edit(classes, d):
        for coords, n, la, m, c in classes:
            if not moved and _splits(la, m, c, d):
                moved.append(coords)
                w = n // (m or 1)  # the base points of one point
                yield coords, n - w, la, m, c
                yield coords, w, 0, 0, 1  # log f = 1: no d-th root
            else:
                yield coords, n, la, m, c

    monkeypatch.setattr(curves, "_kummer_census",
                        _census_fault(edit)(curves._kummer_census))
    return moved


class TestFaultsFailChecks:
    """A census that misses Hasse-Weil, or a scan that misses a non-gap,
    is a failed check (exit 1), not a usage error: the census and the
    scan count, and the report judges."""

    def test_gsx49_fiber_loses_its_roots(self, capsys, monkeypatch):
        moved = _move_a_split_point(monkeypatch)
        code, checks = verify_json(["verify", "gsx49"], capsys)
        assert moved and code == 1
        assert not checks["maximality"]["passed"]
        assert checks["maximality"]["details"]["delta"] == -16

    def test_gk_fiber_loses_its_roots(self, capsys, monkeypatch):
        # qbar = 3: d = 7, and each class holds the 4 points over each of
        # the 2 x of its orbit, so the moved point stands for 2 base points
        _, out, _ = run_capture(["verify", "gk", "--qbar", "3", "--format", "json"],
                                capsys)
        before = json.loads(out)["report"]["census"]["meta"]
        moved = _move_a_split_point(monkeypatch)
        code, out, _ = run_capture(
            ["verify", "gk", "--qbar", "3", "--format", "json"], capsys)
        report = json.loads(out)["report"]
        checks = {c["name"]: c for c in report["checks"]}
        assert moved and code == 1
        assert report["census"]["meta"] == {
            "split_fibers": before["split_fibers"] - 2,
            "inert_fibers": before["inert_fibers"] + 2}
        assert not checks["maximality"]["passed"]
        assert checks["maximality"]["details"]["delta"] == -14

    def test_fk_split_violation(self, capsys, monkeypatch):
        moved = _move_a_split_point(monkeypatch)
        code, checks = verify_json(["verify", "fk", "--q", "5"], capsys)
        assert moved and code == 1
        # the moved point stands for (q+1)/3 = 2 base points
        split = checks["split-condition-everywhere"]
        assert not split["passed"] and split["details"]["violations"] == 2
        assert checks["maximality"]["details"]["delta"] == -6

    def test_fk_scan_misses_the_first_nongap(self, capsys, monkeypatch):
        # <5, 6> is a semigroup, but with 10 gaps and r = 2: at q = 5 the
        # orders at P0_beta become (0, 1, 6)
        monkeypatch.setattr(curves, "weierstrass_nongaps_from_monomials",
                            _scan_drops(3)(curves.weierstrass_nongaps_from_monomials))
        code, checks = verify_json(["verify", "fk", "--q", "5"], capsys)
        assert code == 1
        assert {name for name, c in checks.items() if not c["passed"]} == {
            "semigroup-gap-count", "frobenius-dimension",
            "j2-at-distinguished-place", "epsilon-sequence"}
        assert checks["semigroup-gap-count"]["details"] == {"gaps": 10,
                                                            "curve_genus": 4}
        assert checks["j2-at-distinguished-place"]["details"] == {
            "orders": [0, 1, 6], "j2": 6}

    def test_fk_scan_certifies_no_nongap_up_to_q_plus_1(self, capsys, monkeypatch):
        # at q = 11 the scan keeps only 0, which generates nothing
        fault = _scan_fault(lambda scan: dict(
            scan, nongaps=[n for n in scan["nongaps"] if n == 0 or n > 12]))
        monkeypatch.setattr(curves, "weierstrass_nongaps_from_monomials",
                            fault(curves.weierstrass_nongaps_from_monomials))
        code, checks = verify_json(["verify", "fk", "--q", "11"], capsys)
        assert code == 1
        assert [name for name, c in checks.items() if not c["passed"]] == [
            "semigroup-from-nongaps"]
        assert checks["semigroup-from-nongaps"]["details"] == {
            "nongaps": [0], "error": "no generators given"}
        code, out, err = run_capture(["verify", "fk", "--q", "11"], capsys)
        assert code == 1 and "result: FAIL" in out and err == ""

    @pytest.mark.parametrize("argv,q", [(["gk", "--qbar", "2"], 8), (["gsx49"], 7),
                                        (["fk", "--q", "5"], 5)],
                             ids=["gk2", "gsx49", "fk5"])
    @pytest.mark.parametrize("keep", [lambda n, q: n > q + 1, lambda n, q: n % 2 == 0],
                             ids=["drops-up-to-q-plus-1", "keeps-only-even"])
    def test_scan_fault_is_a_failed_check(self, capsys, monkeypatch, argv, q, keep):
        # no semigroup of a maximal curve: no family can build S or its
        # orders, and each fails the check that names the non-gaps and the reason
        fault = _scan_fault(lambda scan: dict(
            scan, nongaps=[n for n in scan["nongaps"] if keep(n, q)]))
        monkeypatch.setattr(curves, "weierstrass_nongaps_from_monomials",
                            fault(curves.weierstrass_nongaps_from_monomials))
        code, out, err = run_capture(["verify", *argv], capsys)
        assert code == 1 and out.endswith("\nresult: FAIL\n") and err == ""
        code, checks = verify_json(["verify", *argv], capsys)
        failed = [name for name, c in checks.items() if not c["passed"]]
        assert code == 1 and failed == ["semigroup-from-nongaps"]
        details = checks["semigroup-from-nongaps"]["details"]
        assert all(keep(n, q) for n in details["nongaps"])
        # fk 5's box certifies nothing above q+1, so no generator is left
        assert details["nongaps"] or argv[0] == "fk"
        assert details["error"].startswith(
            ("q=", "gcd of generators", "no generators given"))

    def test_fk_genus_formula_disagrees_with_riemann_hurwitz(self, capsys,
                                                              monkeypatch):
        real = curves.genus_fk
        monkeypatch.setattr(curves, "genus_fk", lambda q: real(q) + 1)
        code, checks = verify_json(["verify", "fk", "--q", "5"], capsys)
        assert code == 1
        cross = checks["genus-cross-check"]
        assert not cross["passed"]
        assert cross["details"] == {"formula": 5, "riemann_hurwitz": 4}

    @pytest.mark.parametrize("argv,closed_form,genus", [
        (["gk", "--qbar", "2"], "genus_gk", 10), (["gsx49"], "genus_gsx", 7)],
        ids=["gk2", "gsx49"])
    def test_genus_formula_disagrees_with_riemann_hurwitz(self, capsys, monkeypatch,
                                                          argv, closed_form, genus):
        real = getattr(curves, closed_form)
        monkeypatch.setattr(curves, closed_form, lambda *args: real(*args) + 1)
        code, checks = verify_json(["verify", *argv], capsys)
        assert code == 1
        cross = checks["genus-cross-check"]
        assert not cross["passed"]
        assert cross["details"] == {"formula": genus + 1, "riemann_hurwitz": genus}


def _scan_fault(edit):
    """A fault on the monomial scan: it returns edit(scan) instead."""
    def fault(real):
        return lambda *args: edit(real(*args))
    return fault


def _scan_drops(nongap):
    return _scan_fault(lambda scan: dict(
        scan, nongaps=[n for n in scan["nongaps"] if n != nongap]))


def _scan_gains(nongap):
    return _scan_fault(lambda scan: dict(
        scan, nongaps=sorted(scan["nongaps"] + [nongap])))


def _a0_class_loses_a_point(classes, d):
    # the first class is a = 0, whose m3 points are all fully ramified
    (coords, n, *rest), *others = classes
    return [(coords, n - 1, *rest), *others]


def _pole_of_x_over_y_minus_beta_off_by_one(scan):
    witnesses = dict(scan["witnesses"])
    pole = next(n for n, w in witnesses.items()
                if w == {"x": 1, "y-beta": -1, "z": 0})
    witnesses[pole - 1] = witnesses.pop(pole)
    return dict(scan, witnesses=witnesses)


def _scan_drops_witnessed(nongap):
    # the scan misses the non-gap together with the monomial that certifies it
    return _scan_fault(lambda scan: dict(
        scan, nongaps=[n for n in scan["nongaps"] if n != nongap],
        witnesses={n: w for n, w in scan["witnesses"].items() if n != nongap}))


def _no_fiber_splits(classes, d):
    # shift c by 1 on every split class: each becomes inert (d >= 3)
    for coords, n, la, m, c in classes:
        yield coords, n, la, m, c + 1 if _splits(la, m, c, d) else c


def _pinf_j2_is_5(real):
    # 5 is not among the j_2 values {2, 3, 4} allowed at q = 7
    return lambda S, q: (0, 1, 5, 8)


class TestEveryCheckCanFail:
    """A fault aimed at one step fails the checks that read that step,
    through their own entries (exit 1), for checks no other test faults."""

    @pytest.mark.parametrize("argv,target,fault,failed", [
        (["gsx49"], (curves, "weierstrass_nongaps_from_monomials"), _scan_drops(5),
         {"monomial-certified-nongaps", "small-nongaps", "semigroup-gap-count",
          "j2-at-Pinf", "frobenius-dimension"}),
        (["gsx49", "--inject-census-delta", "1"], None, None,
         {"sixteenth-power-fiber-count"}),
        (["fk", "--q", "11"], (curves, "_kummer_census"),
         _census_fault(_a0_class_loses_a_point),
         {"fully-ramified-count"}),
        (["fk", "--q", "11"], (curves, "weierstrass_nongaps_from_monomials"),
         _scan_fault(_pole_of_x_over_y_minus_beta_off_by_one),
         {"distinguished-pole-order"}),
        # 20 < 21, the smallest non-gap at P0 of GK qbar = 3
        (["gk", "--qbar", "3"], (curves, "weierstrass_nongaps_from_monomials"),
         _scan_gains(20),
         {"ramified-semigroup-gap-count", "ramified-orders"}),
        (["gsx49"], (numsg, "rational_point_orders"), _pinf_j2_is_5,
         {"j2-at-Pinf", "j2-values-allowed"}),
        (["gsx49"], (curves, "weierstrass_nongaps_from_monomials"),
         _scan_drops_witnessed(5), {"monomial-certified-nongaps"}),
        (["gk", "--qbar", "2"], (curves, "_kummer_census"),
         _census_fault(_no_fiber_splits), {"maximality"}),
        # q - 1 = 10 joins <9, 11, 12>, which then has fewer than g = 19 gaps
        (["fk", "--q", "11"], (curves, "weierstrass_nongaps_from_monomials"),
         _scan_gains(10), {"semigroup-gap-count"}),
    ], ids=["gsx49-scan-drops-5", "gsx49-census-delta", "fk11-a0-fiber-root",
            "fk11-pole-order", "gk3-extra-generator", "gsx49-pinf-j2-is-5",
            "gsx49-scan-drops-5-and-its-witness", "gk2-no-fiber-splits",
            "fk11-scan-gains-10"])
    def test_fault_fails_its_checks(self, capsys, monkeypatch, argv, target,
                                    fault, failed):
        if target:
            module, attr = target
            monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
        code, out, err = run_capture(["verify", *argv, "--format", "json"], capsys)
        checks = {c["name"]: c for c in json.loads(out)["report"]["checks"]}
        assert code == 1 and err == ""
        assert failed <= {name for name, c in checks.items() if not c["passed"]}


class TestVerifyOutput:
    def test_json_schema_fields(self, capsys):
        code, out, _ = run_capture(["verify", "gsx49", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert "tool_version" in doc
        rep = doc["report"]
        assert rep["census"]["total"] == 148
        assert rep["order_sequences"]["Pinf"] == [0, 1, 3, 8]
        assert rep["epsilon_sequence"] == [0, 1, 2, 7]
        assert rep["passing"] is True
        assert all("name" in c and "passed" in c for c in rep["checks"])

    def test_json_roundtrip(self, capsys):
        _, out, _ = run_capture(["verify", "fk", "--q", "5", "--format", "json"], capsys)
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_gk_json(self, capsys):
        code, out, _ = run_capture(
            ["verify", "gk", "--qbar", "2", "--format", "json"], capsys)
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["census"]["total"] == 225
        assert rep["epsilon_sequence"] == [0, 1, 2, 8]

    def test_json_bytes_repeat(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert cli.run(["verify", "fk", "--q", "11", "--format", "json",
                            "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_only_the_printed_format_is_rendered(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "text_report", lambda rep: calls.append(rep) or "")
        code, out, _ = run_capture(["verify", "fk", "--q", "5", "--format", "json"],
                                   capsys)
        assert code == 0 and json.loads(out)["report"]["passing"] is True
        assert calls == []
        assert run_capture(["verify", "fk", "--q", "5"], capsys)[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("entry", CATALOG)
    def test_text_report_passes(self, entry, capsys):
        code, out, _ = run_capture(["verify", *entry.split(), "--format", "text"],
                                   capsys)
        assert code == 0
        assert out.endswith("\nresult: PASS\n")

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_capture(
            ["verify", "gsx49", "--format", "json", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["report"]["passing"] is True


class TestQueryCommands:
    def test_semigroup_large_gaps_elided(self, capsys):
        code, out, _ = run_capture(["semigroup", "--gens", "21,27,28"], capsys)
        assert code == 0
        assert "genus (gap count): 99" in out
        assert "elided" in out
        assert "conductor: 198" in out

    def test_semigroup_small(self, capsys):
        code, out, _ = run_capture(
            ["semigroup", "--gens", "5,7,8", "--upto", "8"], capsys)
        assert code == 0
        assert "[0, 5, 7, 8]" in out

    @pytest.mark.parametrize("extra", [[], ["--upto", "8"]])
    def test_semigroup_text_builds_the_gap_list_once(self, capsys, monkeypatch, extra):
        gaps, calls = numsg.NumericalSemigroup.gaps, []
        monkeypatch.setattr(numsg.NumericalSemigroup, "gaps", property(
            lambda S: calls.append(S) or gaps.fget(S)))
        code, out, _ = run_capture(["semigroup", "--gens", "5,7,8", *extra], capsys)
        assert code == 0 and "gaps: [1, 2, 3, 4, 6, 9, 11]" in out
        assert len(calls) == 1

    def test_semigroup_with_a_huge_generator(self, capsys):
        # minimality tests each generator against the others, not against
        # every a <= n/2
        code, out, _ = run_capture(
            ["semigroup", "--gens", "3,1000000000000", "--format", "json"], capsys)
        frag = json.loads(out)["semigroup"]
        assert code == 0 and frag["generators"] == [3, 10 ** 12]
        assert frag["genus"] == 10 ** 12 - 1
        assert frag["conductor"] == 2 * 10 ** 12 - 2

    def test_orders(self, capsys):
        code, out, _ = run_capture(["orders", "--gens", "5,7,8", "--q", "7"], capsys)
        assert code == 0
        assert "(0, 1, 3, 8)" in out

    def test_bound_prints_exact_rational(self, capsys):
        code, out, _ = run_capture(["bound", "--q", "11", "--r", "4"], capsys)
        assert code == 0
        assert "360/24 = 15" in out

    def test_bound_json(self, capsys):
        _, out, _ = run_capture(
            ["bound", "--q", "5", "--r", "3", "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["bound"] == {"numerator": 4, "denominator": 1}

    @pytest.mark.parametrize("q, r, num, den", [(11, 4, 15, 1), (4, 3, 9, 4)])
    def test_bound_json_is_reduced(self, capsys, q, r, num, den):
        _, out, _ = run_capture(
            ["bound", "--q", str(q), "--r", str(r), "--format", "json"], capsys)
        assert json.loads(out)["bound"] == {"numerator": num, "denominator": den}

    def test_deduce_dim(self, capsys):
        code, out, _ = run_capture(["deduce-dim", "--q", "11", "--g", "19"], capsys)
        assert code == 0
        assert "[3]" in out and "inconclusive" not in out
        _, out, _ = run_capture(["deduce-dim", "--q", "27", "--g", "99"], capsys)
        assert "inconclusive" in out


@pytest.mark.parametrize("argv,builds", [
    *((["verify", "fk", "--q", str(q)], False)
      for q in (5, 11, 17, 23, 29, 41, 47, 53, 59, 71)),
    *((["verify", "gk", "--qbar", str(qbar)], True) for qbar in (2, 3, 4)),
    (["verify", "gsx49"], False),
])
def test_only_gk_and_gsx49_build_field_tables(monkeypatch, capsys, argv, builds):
    # F_{q^2} for prime q, FK's fields and GSX49's F_49, answer on
    # P^1(F_q) with no table of q^2 entries; GK's F_{qbar^6} builds its
    # tables once, with the field
    built = table_builds(monkeypatch)
    assert cli.run(argv + ["--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
    assert len(built) == builds


def test_startup_imports_no_dataclasses_or_fractions():
    # every command pays for what `import maxcurves.cli` loads
    probe = ("import maxcurves.cli, sys; print(sorted(m for m in ('dataclasses', "
             "'inspect', 'fractions', 'argparse', 'gettext', 'json', 're', 'heapq') "
             "if m in sys.modules))")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_entry_point_script_on_the_source_tree():
    # the CI's exit-code assertions (ci/entry_point.sh), with the source
    # tree's main() in place of the installed script: about 30 commands,
    # each a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHON=sys.executable)
    done = subprocess.run(
        ["bash", str(root / "ci" / "entry_point.sh"), sys.executable, "-c",
         "from maxcurves.cli import main; main()"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
