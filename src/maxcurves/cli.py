"""Command-line front end.

Subcommands::

    verify gk --qbar N      verify the GK curve over F_{qbar^6}
    verify gsx49            verify the fixed curve over F_49
    verify fk --q N         verify the degree-3 Kummer cover over F_{q^2}
    semigroup --gens a,b,c [--upto B]
    orders --gens a,b,c --q N
    bound --q N --r R
    deduce-dim --q N --g G

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/parameter error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__, curves, gf, numsg, verify

SCHEMA_VERSION = 1

USAGE_ERROR = 2

#: Largest --q, smallest generator and --upto the query commands accept:
#: `deduce-dim` answers with and `orders` sieves about q entries, the
#: Apéry set has one entry per residue of the smallest generator, and
#: `semigroup --upto B` lists up to B + 1 non-gaps.
QUERY_Q_CAP = 2 ** 20


def _over_cap(value: int, what: str) -> str:
    return f"{value} exceeds the {what} cap 2^{QUERY_Q_CAP.bit_length() - 1}"


def _prime_power_arg(text: str) -> int:
    """argparse type of the query commands' --q: a prime power up to
    QUERY_Q_CAP."""
    try:
        q = int(text)
        if q > QUERY_Q_CAP:
            raise argparse.ArgumentTypeError(_over_cap(q, "--q"))
        gf.prime_power(q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text} is not a prime power") from None
    return q


@functools.cache  # one parser per process: building it costs far more than parsing
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxcurves",
        description="Exact verification of place counts, Weierstrass "
                    "semigroups and order sequences for three maximal curves.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    output.add_argument("--out", help="write output to FILE instead of stdout")
    curve_opts = argparse.ArgumentParser(add_help=False, parents=[output])
    curve_opts.add_argument("--inject-census-delta", type=int, default=0,
                            help=argparse.SUPPRESS)  # test hook: perturb the census

    pv = sub.add_parser("verify", help="run a per-curve verification report")
    curve_sub = pv.add_subparsers(dest="curve", required=True)
    pgk = curve_sub.add_parser("gk", help="GK curve", parents=[curve_opts])
    pgk.add_argument("--qbar", type=int, required=True)
    curve_sub.add_parser("gsx49", help="z^16 = t(t+1)^6 over F_49",
                         parents=[curve_opts])
    pfk = curve_sub.add_parser("fk", help="degree-3 Kummer cover, q = 2 mod 3",
                               parents=[curve_opts])
    pfk.add_argument("--q", type=int, required=True)

    ps = sub.add_parser("semigroup", help="gaps/genus of a numerical semigroup",
                        parents=[output])
    ps.add_argument("--gens", required=True, help="comma-separated generators")
    ps.add_argument("--upto", type=int, default=None,
                    help="also list non-gaps up to this bound")

    po = sub.add_parser("orders", help="order sequence at a rational place",
                        parents=[output])
    po.add_argument("--gens", required=True)
    po.add_argument("--q", type=_prime_power_arg, required=True)

    pb = sub.add_parser("bound", help="genus bound for a given dimension",
                        parents=[output])
    pb.add_argument("--q", type=_prime_power_arg, required=True)
    pb.add_argument("--r", type=int, required=True)

    pd = sub.add_parser("deduce-dim", help="candidate Frobenius dimensions",
                        parents=[output])
    pd.add_argument("--q", type=_prime_power_arg, required=True)
    pd.add_argument("--g", type=int, required=True)
    return parser


def _parse_gens(spec: str) -> list[int]:
    try:
        gens = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"cannot parse generators {spec!r}")
    if not gens:
        raise ValueError("no generators given")
    if min(gens) > QUERY_Q_CAP:
        raise ValueError(_over_cap(min(gens), "smallest-generator"))
    return gens


def _emit(args, body: dict, text):
    """Write the versioned JSON document of body under --format json, or
    the string text() returns, to --out or stdout; only the printed
    format is rendered."""
    if args.format == "json":
        payload = json.dumps({"schema_version": SCHEMA_VERSION,
                              "tool_version": __version__, **body}, indent=2)
    else:
        payload = text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _cmd_verify(args) -> int:
    if args.curve == "gk":
        curve = curves.gk_curve(args.qbar)
    elif args.curve == "gsx49":
        curve = curves.gsx49_curve()
    else:
        curve = curves.fk_curve(args.q)
    report = verify.theorem_report(curve, census_delta=args.inject_census_delta)
    _emit(args, {"report": report.to_dict()}, lambda: verify.text_report(report))
    return 0 if report.passing else 1


def _cmd_semigroup(args) -> int:
    if (args.upto or 0) > QUERY_Q_CAP:
        raise ValueError(_over_cap(args.upto, "--upto"))
    S = numsg.semigroup_from_generators(_parse_gens(args.gens))
    frag = S.to_fragment()
    if args.upto is not None:
        frag["nongaps"] = numsg.nongaps_upto(S, args.upto)

    def text():
        lines = [f"generators: {list(S.generators)}",
                 f"genus (gap count): {S.genus}",
                 f"conductor: {S.conductor}"]
        if "gaps" in frag:
            lines.append(f"gaps: {frag['gaps']}")
        else:
            lines.append(f"gaps: ({S.genus} entries, elided)")
        if args.upto is not None:
            lines.append(f"non-gaps up to {args.upto}: {frag['nongaps']}")
        return "\n".join(lines)

    _emit(args, {"semigroup": frag}, text)
    return 0


def _cmd_orders(args) -> int:
    S = numsg.semigroup_from_generators(_parse_gens(args.gens))
    seq = numsg.rational_point_orders(S, args.q)
    r = len(seq) - 1
    _emit(args, {"orders": list(seq), "dimension": r, "q": args.q,
                 "generators": list(S.generators)},
          lambda: f"dimension r = {r}\norder sequence: {tuple(seq)}")
    return 0


def _cmd_bound(args) -> int:
    raw_num, raw_den = verify.castelnuovo_terms(args.q, args.r)
    d = math.gcd(raw_num, raw_den)
    num, den = raw_num // d, raw_den // d
    _emit(args, {"q": args.q, "r": args.r,
                 "bound": {"numerator": num, "denominator": den}},
          lambda: f"{raw_num}/{raw_den} = "
          + (str(num) if den == 1 else f"{num}/{den}"))
    return 0


def _cmd_deduce_dim(args) -> int:
    dims = sorted(verify.deduce_frobenius_dimension(args.q, args.g))
    _emit(args, {"q": args.q, "g": args.g, "dimensions": dims,
                 "conclusive": len(dims) == 1},
          lambda: f"candidate dimensions: {dims}"
          + ("" if len(dims) == 1 else "  (inconclusive)"))
    return 0


_DISPATCH = {
    "verify": _cmd_verify,
    "semigroup": _cmd_semigroup,
    "orders": _cmd_orders,
    "bound": _cmd_bound,
    "deduce-dim": _cmd_deduce_dim,
}


def run(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
