"""Byte-identity of the CLI output: the SHA-256 of ``cli.run`` stdout and
the exit code for every catalog entry in ``--format json``, two text
reports, one injected census fault, and each query command in both
formats.

Regenerate a digest only for an output change that is intended, and say
so in the change note: ``PYTHONPATH=src python tests/test_golden.py``
prints the table, names on stderr every entry whose digest differs from
``GOLDEN`` and then exits 1, else 0.  It needs no pytest: the module
parametrizes its test through the ``pytest_generate_tests`` hook.
"""

import contextlib
import hashlib
import io
import sys

from maxcurves import cli

CATALOG = (["gk --qbar 2", "gk --qbar 3", "gk --qbar 4", "gsx49"]
           + [f"fk --q {q}" for q in (5, 11, 17, 23, 29, 41, 47, 53, 59, 71)])
ARGVS = ([f"verify {c} --format json" for c in CATALOG]
         + ["verify gk --qbar 2 --format text", "verify fk --q 11 --format text",
            "verify gk --qbar 2 --inject-census-delta 1"]
         # gaps elided, --upto, an unreduced bound, an inconclusive deduction
         + [f"{q} --format {fmt}" for q in (
             "semigroup --gens 21,27,28", "semigroup --gens 5,7,8 --upto 12",
             "orders --gens 5,7,8 --q 7", "bound --q 11 --r 4",
             "deduce-dim --q 27 --g 99") for fmt in ("json", "text")])

GOLDEN = {
    "verify gk --qbar 2 --format json":
        (0, "3278f40b252ae23ea50fa9efa4ee7ed1e0c146fddaa8e872f79d3adfc91970e5"),
    "verify gk --qbar 3 --format json":
        (0, "c5e06581e36515bd45758269b2a248076eb98d6560407478ba62d84db9e9159f"),
    "verify gk --qbar 4 --format json":
        (0, "bda2bcddd2d304e75987f8212eec0955fdf145d05e55ddf1bb93482d6182fefe"),
    "verify gsx49 --format json":
        (0, "ca440c5f6b5168c8d97cd0bc6e62a6d3fa450e79e97dcf023025ad7046fc454d"),
    "verify fk --q 5 --format json":
        (0, "3c06bac74582e1d532e63e41294c61ac189a27a6727458d18591b1e05e1426cc"),
    "verify fk --q 11 --format json":
        (0, "df85e953d760d4c27aea6f80218873a82032bcaf1d7856e431de740112fb1eba"),
    "verify fk --q 17 --format json":
        (0, "e8459616267d4381d77c6da31d0f4c7daa1c42727795093665378aa7dc094edc"),
    "verify fk --q 23 --format json":
        (0, "4c58c82ef4156850ea744411ae09eb86d1e79eb8e5728bc20310708c52a7241a"),
    "verify fk --q 29 --format json":
        (0, "a221e089b0d35ea5e586b2b89c91e7df1ab826a5445fb9a2e535375b0e992983"),
    "verify fk --q 41 --format json":
        (0, "191f47d7751455fe61155124c3ae611c12556de8c50c080785762cd8dec5f64e"),
    "verify fk --q 47 --format json":
        (0, "b79fe8420b8ed961f30f6bb6fbd406286902fcbb2be707e5304ca444d52ec5bd"),
    "verify fk --q 53 --format json":
        (0, "3e3aa4f3ef1000555e2fe6faee3b994f215d2c69502a2d1784a1d202254a2c3b"),
    "verify fk --q 59 --format json":
        (0, "b34d082e20ca2d05799af90d73b520f111425b669880ca21db571253f160e43c"),
    "verify fk --q 71 --format json":
        (0, "57989b8900684bb1781d13a7b8aa54e216d94d6a67f0365bd829d102f8a097ea"),
    "verify gk --qbar 2 --format text":
        (0, "389eb4bf6c7ed723314cd58e104ff1e0d92d5a47adc0060f3277312776e6db70"),
    "verify fk --q 11 --format text":
        (0, "d375dbed8e39929f23ece32fb55459ff4052f4fe7dfe5bbcf6d178abe5aaa30b"),
    "verify gk --qbar 2 --inject-census-delta 1":
        (1, "86a418b204a595f6357125c4059f52c6eaeda2c220ce9c5db9ffa759e7e59cb0"),
    "semigroup --gens 21,27,28 --format json":
        (0, "b8350c6652f1c3f21b59e341ed5b82dc29c182bfe229c8ad53de3ede7d240495"),
    "semigroup --gens 21,27,28 --format text":
        (0, "499a03ff994d7b8b972caae76d8b6b8e0f9f0bdafb41bf6ad77db587a9177ef0"),
    "semigroup --gens 5,7,8 --upto 12 --format json":
        (0, "6fdc4c423827b2757b4d3e1b2b0ba112f32009fc74d406294ed5ab351e662190"),
    "semigroup --gens 5,7,8 --upto 12 --format text":
        (0, "5c1e4d0f607a28ca828bab3f1da974b043f3c24d7c49db6882f430bf880895db"),
    "orders --gens 5,7,8 --q 7 --format json":
        (0, "84233d47aeaf28c8da0917d9c96011550490083158bbff80bcbc300ca7fea1c4"),
    "orders --gens 5,7,8 --q 7 --format text":
        (0, "b4963f6a090764d91bf5e26c08e8d5190c192f3f606c4878d9775b16a533e033"),
    "bound --q 11 --r 4 --format json":
        (0, "4d7e238d12e9571b6d516f823c2eee3091b29496907cbd8129e51508b7b610ff"),
    "bound --q 11 --r 4 --format text":
        (0, "8853a9be530b1ca7784e1e4added7b441363290215abc5e09b6e90d45cdf8963"),
    "deduce-dim --q 27 --g 99 --format json":
        (0, "666981e9eb6d94a768ee7e803dcc942b9a78c13e62b8218d465ecfa0fd0eae88"),
    "deduce-dim --q 27 --g 99 --format text":
        (0, "6b1d725cfdab0c924b96a8542f3611e3cf5fe09ed81c1dbd5d801b4b2afb0e67"),
}


def digest(argv: str) -> tuple[int, str]:
    """Exit code and SHA-256 of the stdout of ``maxcurves argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def pytest_generate_tests(metafunc):
    metafunc.parametrize("argv", ARGVS)


def test_output_is_byte_identical(argv):
    assert digest(argv) == GOLDEN.get(argv), (
        f"`maxcurves {argv}` changed its stdout or exit code; regenerate "
        f"its digest only if the change means to alter this output")


if __name__ == "__main__":
    changed = []
    for argv in ARGVS:
        code, sha = digest(argv)
        print(f'    "{argv}":\n        ({code}, "{sha}"),')
        if GOLDEN.get(argv) != (code, sha):
            changed.append(argv)
    for argv in changed:
        print(f"digest differs from GOLDEN: {argv}", file=sys.stderr)
    sys.exit(1 if changed else 0)
