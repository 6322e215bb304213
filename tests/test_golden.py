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
        (0, "96e59c496517d5bc6e0698715917a990ff98dc4b363328168c8c0d006641ef21"),
    "verify fk --q 11 --format json":
        (0, "6019d17265baec265a87dbe1439aaf1870bd1fadb8983053e9ff89431744db80"),
    "verify fk --q 17 --format json":
        (0, "c2a08780a9415f985559bced761b589788f645c5424f5d9897c5696cf28d257c"),
    "verify fk --q 23 --format json":
        (0, "89af79dbcf2d2bb92db76a28d6180364157adfff7740584fd5074a4952a5f5f9"),
    "verify fk --q 29 --format json":
        (0, "fa8add73175b1bc7682201f093cd079730dd4fa7bcb3b18b3997550e2042c57a"),
    "verify fk --q 41 --format json":
        (0, "a9668418c8a2c0bd3243923f5d210400c37f258c4a16cdc53f3699289ba2a8fa"),
    "verify fk --q 47 --format json":
        (0, "ea5d0f3c9a97ed70a3d043d130ac65a3116ad2c3ec20e2a7c3b0a59ca53e6fbe"),
    "verify fk --q 53 --format json":
        (0, "8ecca8a4bb8ad3e703b19c440c748d7de26ed4077a6560197593332b0f97a019"),
    "verify fk --q 59 --format json":
        (0, "f758bb516ae80aa8751aea35bee28437ee97ea352189d80e2a94349795d8f6b7"),
    "verify fk --q 71 --format json":
        (0, "ac57ad421948877cac17022cda7a796ddfb4ddf7702eac2fbd36851759fd93d5"),
    "verify gk --qbar 2 --format text":
        (0, "389eb4bf6c7ed723314cd58e104ff1e0d92d5a47adc0060f3277312776e6db70"),
    "verify fk --q 11 --format text":
        (0, "777bfc56d4706325f2ac488ef448c4d85c128e16f2bc8267ceb9602fbffff8f4"),
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
