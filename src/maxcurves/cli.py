"""maxcurves: exact checks of place counts, semigroups and order sequences.

Commands:
    verify gk --qbar N      verify the GK curve over F_{qbar^6}
    verify gsx49            verify the fixed curve over F_49
    verify fk --q N         verify the degree-3 Kummer cover over F_{q^2}
    semigroup --gens a,b,c [--upto B]
    orders --gens a,b,c --q N
    bound --q N --r R
    deduce-dim --q N --g G

Every command takes --format text|json (default text) and --out FILE
(write there, not to stdout).  Options may be written --opt=value and
shortened to a unique prefix; the last one given wins.  --version
prints the version, and -h or --help anywhere prints this text.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/parameter error.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

from . import __version__, curves, gf, numsg, verify

SCHEMA_VERSION = 1

USAGE_ERROR = 2

#: Largest --q, smallest generator and --upto the query commands accept.
#: They bound each command's cost: every --q is factored by trial division
#: up to its square root, `deduce-dim` lists at most q dimensions, and
#: `semigroup` and `orders` take k·m steps for the Apéry set of k
#: generators with smallest m, plus a sort of the listed numbers: at most
#: B + 1 non-gaps for `semigroup --upto B`, at most q + 2 orders for
#: `orders`.
QUERY_Q_CAP = 2 ** 20


def _over_cap(value: int, what: str) -> str:
    return f"{value} exceeds the {what} cap 2^{QUERY_Q_CAP.bit_length() - 1}"


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _format(text: str) -> str:
    if text not in ("text", "json"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'text', 'json')")
    return text


def _prime_power(text: str) -> int:
    """The query commands' --q: a prime power, capped before it is factored."""
    q = _int(text)
    if q > QUERY_Q_CAP:
        raise ValueError(_over_cap(q, "--q"))
    gf.prime_power(q)
    return q


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


def _quote(s: str) -> str:
    """s as a JSON string literal: printable ASCII with no '"' or '\\' needs
    no escape, and any other string raises TypeError naming it."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    raise TypeError(f"string {s!r} is not printable ASCII free of '\"' and '\\'")


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, for the documents the
    commands build: dicts with str or int keys, lists, and the scalars
    str, int, bool and None, every str as _quote takes it.  Anything
    else raises TypeError naming it: a float, a tuple, a bool or None
    key, or a string that would need an escape.

    Scalars in a dict and all-int lists are written without a call per
    value, and each str key's prefix is rendered once per document."""
    out = []
    _write_json(doc, "\n", out.append, {})
    return "".join(out)


def _write_json(v, nl: str, write, prefixes: dict) -> None:
    """Pass the JSON text of v to write, each line after a newline
    indented as nl is; prefixes maps each str key met so far to its
    '"key": ' and holds str keys only (True == 1: an int entry would
    let a bool key through)."""
    t = type(v)
    if t is dict:
        if not v:
            write("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k, x in v.items():
            p = prefixes.get(k)
            if p is None:
                if (type(k) is str and k.isascii() and k.isprintable()
                        and '"' not in k and "\\" not in k):
                    p = prefixes[k] = '"' + k + '": '
                elif type(k) is int:
                    p = f'"{int.__repr__(k)}": '
                else:
                    raise TypeError(f"bad key {k!r} of type {type(k).__name__}")
            t = type(x)
            if t is int:
                write(sep + p + int.__repr__(x))
            elif (t is str and x.isascii() and x.isprintable()
                  and '"' not in x and "\\" not in x):
                write(sep + p + '"' + x + '"')
            elif t is bool:
                write(sep + p + ("true" if x else "false"))
            else:
                write(sep + p)
                _write_json(x, inner, write, prefixes)
            sep = comma
        write(nl + "}")
    elif t is list:
        if not v:
            write("[]")
            return
        inner = nl + "  "
        if {*map(type, v)} == {int}:  # no bool: type(True) is bool
            write("[" + inner + ("," + inner).join(map(int.__repr__, v))
                  + nl + "]")
            return
        sep, comma = "[" + inner, "," + inner
        for x in v:
            write(sep)
            _write_json(x, inner, write, prefixes)
            sep = comma
        write(nl + "]")
    elif t is str:
        write(_quote(v))
    elif t is int:
        write(int.__repr__(v))
    elif t is bool:
        write("true" if v else "false")
    elif v is None:
        write("null")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(args, body: dict, text):
    """Write the versioned JSON document of body under --format json (as
    _dumps renders it, the bytes json.dumps(..., indent=2) would give),
    or the string text() returns, to --out or stdout; only the printed
    format is rendered."""
    if args.format == "json":
        payload = _dumps({"schema_version": SCHEMA_VERSION,
                          "tool_version": __version__, **body})
    else:
        payload = text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _cmd_verify(args) -> int:
    if args.command[1] == "gk":
        curve = curves.gk_curve(args.qbar)
    elif args.command[1] == "gsx49":
        curve = curves.gsx49_curve()
    else:
        curve = curves.fk_curve(args.q)
    report = verify.theorem_report(curve, census_delta=args.inject_census_delta or 0)
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


_HOOK = {"--inject-census-delta": _int}  # test hook: perturb the census

#: command words -> (handler, required options, other options), each option
#: with its converter; every command also takes --format and --out
_COMMANDS = {
    ("verify", "gk"): (_cmd_verify, {"--qbar": _int}, _HOOK),
    ("verify", "gsx49"): (_cmd_verify, {}, _HOOK),
    ("verify", "fk"): (_cmd_verify, {"--q": _int}, _HOOK),
    ("semigroup",): (_cmd_semigroup, {"--gens": str}, {"--upto": _int}),
    ("orders",): (_cmd_orders, {"--gens": str, "--q": _prime_power}, {}),
    ("bound",): (_cmd_bound, {"--q": _prime_power, "--r": _int}, {}),
    ("deduce-dim",): (_cmd_deduce_dim, {"--q": _prime_power, "--g": _int}, {}),
}


def _parse(argv: list[str]):
    """(handler, args) for argv, or a ValueError naming the usage error."""
    words = tuple(argv[:2 if argv[:1] == ["verify"] else 1])
    if words not in _COMMANDS:
        names = ", ".join(" ".join(w) for w in _COMMANDS)
        raise ValueError(f"invalid choice: {' '.join(words)!r} (choose from {names})")
    handler, required, optional = _COMMANDS[words]
    spec = {"--format": _format, "--out": str, **optional, **required}
    given = dict.fromkeys(spec)
    rest = iter(argv[len(words):])
    for token in rest:
        opt, eq, value = token.partition("=")
        matches = [opt] if opt in spec else [o for o in spec if o.startswith(opt)]
        if len(matches) != 1:
            raise ValueError(f"unrecognized arguments: {token}")
        opt = matches[0]
        value = value if eq else next(rest, "-")  # "-" when argv ends here
        if not eq and value[:1] == "-" and not value[1:].isdigit():  # not an int < 0
            raise ValueError(f"argument {opt}: expected one argument")
        try:
            given[opt] = spec[opt](value)
        except ValueError as exc:
            raise ValueError(f"argument {opt}: {exc}") from None
    missing = [opt for opt in required if given[opt] is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(
        command=words, **{o[2:].replace("-", "_"): v for o, v in given.items()})


def run(argv: list[str]) -> int:
    """Parse argv and run one command; returns the exit code."""
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        return 0
    if argv == ["--version"]:
        print(__version__)
        return 0
    try:
        handler, args = _parse(argv)
        return handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
