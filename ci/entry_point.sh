#!/usr/bin/env bash
# Exit-code and output assertions on the command-line entry point.
#
#   ci/entry_point.sh CMD...
#
# CMD runs maxcurves: the installed `maxcurves`, or
# `python -c "from maxcurves.cli import main; main()"` with PYTHONPATH=src.
# Each call of it runs under a 10 s timeout.  `$PYTHON` (default `python`)
# parses the JSON and runs the scan-fault checks, which patch the package
# in-process, so it must import the same package.  Exits non-zero at the
# first assertion that fails.
set -eu -o pipefail
cmd=("$@")
py=${PYTHON:-python}

mc() { timeout 10 "${cmd[@]}" "$@"; }

# expect CODE CMD-ARGS...: maxcurves exits with CODE
expect() {
    local want=$1 code=0
    shift
    mc "$@" || code=$?
    test "$code" -eq "$want" || { echo "exit $code, not $want: $*" >&2; exit 1; }
}

mc --version
mc verify fk --help > /dev/null
mc verify fk --q=11 --format=json > /dev/null
expect 2 bound --q 4
# the stdlib parser reads what the in-package JSON writer wrote
mc verify gsx49 --format json | "$py" -m json.tool > /dev/null
mc semigroup --gens 5,7,8 --upto 12 --format json | "$py" -m json.tool > /dev/null
for q in 5 11 17 23 29 41 47 53 59 71; do
    mc verify fk --q $q --format json | "$py" -m json.tool > /dev/null
done
for qbar in 2 3 4; do
    mc verify gk --qbar $qbar --format json | "$py" -m json.tool > /dev/null
done
code=0
err=$(mc verify gsx49 --inject-census-delta 1 2>&1 > /dev/null) || code=$?
test "$code" -eq 1
# a failed check is exit 1 with a report, not a traceback
test -z "$err"
# so is a scan fault: with the scan keeping only the even non-gaps (gcd 2),
# gk 2 and fk 5 still report and exit 1
for argv in "gk --qbar 2" "fk --q 5"; do
    "$py" -c '
import contextlib, io, sys
from maxcurves import cli, curves
real = curves.weierstrass_nongaps_from_monomials
def even(*args):
    scan = real(*args)
    return dict(scan, nongaps=[n for n in scan["nongaps"] if n % 2 == 0])
curves.weierstrass_nongaps_from_monomials = even
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.run(["verify", *sys.argv[1:]])
assert code == 1 and err.getvalue() == "", (code, err.getvalue())
assert out.getvalue().endswith("result: FAIL\n")
' $argv
done
expect 2 verify fk --q 7
expect 2 deduce-dim --q 1099511627689 --g 3
mc semigroup --gens 3,1000000000000 --format json > /dev/null
expect 2 semigroup --gens 2,3 --upto 1048577
# the 2^20 caps (smallest generator, --q) answer within the timeout
mc semigroup --gens 1048573,1048574,1048575 --format json | "$py" -m json.tool > /dev/null
mc orders --gens 1021,1048573,1048574 --q 1048573 --format json \
    | "$py" -m json.tool > /dev/null
# a long listing at the --upto cap: 499500 of its 549077 non-gaps lie
# below the conductor, one sorted run per residue
mc semigroup --gens 1000,1001 --upto 1048576 --format json \
    | "$py" -m json.tool > /dev/null
expect 2 verify gk --qbar 5
expect 2 bound --q 4 --r 100
mc orders --gens 5,7,8 --q 7
