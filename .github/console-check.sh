#!/usr/bin/env bash
# The installed console script, outside pytest.  Run from the root of a
# checkout with qftadd installed:  bash -e .github/console-check.sh
#
# Design commands that load no numpy (the circuit JSON must parse, for ADD
# and SUB), and adders that load the simulator on first use; the 37**6 span
# is over the dense limit, run from digits, one adder reads base 11 with
# noise, one subtracts (the adder body is cached per sign), and one sums
# fifty base-1000 inputs exactly, on digits.  A noisy readout of a
# 100000**3 span, past the dense limit, draws each digit on its own and
# exits 0, and one of a 100000**2 span builds one flip column per digit,
# not the 100000 x 100000 channel.  Then the sweep the CLI writes a block
# at a time must be the library's CSV: for five bases at 4096, and at
# base 2 and 2**18 within 20 s, whose 65,536-row block is the largest the
# row limit allows (its status is captured, so that a run cut by timeout
# fails at its own test).  An export whose header and body
# texts are kept must match the plain writer on the first and on a
# repeated export.  A base-16 SUB export, whose op list is written without
# the json module's indent encoder, must be the text json.dumps(indent=2)
# makes of its own parse, an oracle apart from the writer.  One adder is
# exported as QASM and as text, and an unknown --format exits 2, so every
# entry of the CLI's format table runs on each CI leg.  Last, an empty
# token in --inputs exits 2 naming the flag, a 100-million-digit add
# exits 2 naming --shots within 10 s: its input check builds no 3**10**8,
# which alone takes minutes, and an input of 20,000 binary ones exits 2
# naming its range: int() reads it, since its limit on decimal digits
# spares power-of-two radices, and the message writes it as its size, not
# as text past that limit (each status is captured, as the script runs
# under bash -e).  Last, a gate-count --verify of 43,000 base-100000
# inputs, inside the op limit, must print MATCH within 10 s: a
# layout sums its register offsets once, where summing them again per
# register took 33 s.  Its status is captured too, so that a run cut by
# timeout (status 124) fails at its own test, with the status named.  One
# more input, 43,689, may need 131,073 ops: over the library's op limit,
# so it exits 2 naming --base/--digits/--num-inputs and the limit, with no
# op built.  And resource_report(2, 20, 10**6), whose body alone would be
# 610,001,070 ops (about 120 GB), must raise the limit's ValueError within
# 10 s: the adder checks its op count before it builds anything.
set -euo pipefail

qftadd gate-count --base 4 --digits 3 --num-inputs 5 --verify
qftadd export-circuit --base 3 --digits 4 --inputs 1,2,3,4,5 --format json | python -m json.tool > /dev/null
qftadd export-circuit --base 3 --digits 4 --inputs 50,2,3,4,5 --mode sub --format json | python -m json.tool > /dev/null
qftadd add --base 2 --digits 4 --inputs 3,5,7
qftadd add --base 37 --digits 5 --inputs 1,2,3,4,5
qftadd add --base 11 --digits 3 --inputs 1330,7,512 --noise 0.05 --shots 64
qftadd sub --base 4 --digits 3 --inputs 60,7,9 | grep value=44
qftadd add --base 1000 --digits 2 --inputs "$(python -c "print(','.join(['999999'] * 50))")" | grep value=49999950
qftadd add --base 100000 --digits 2 --inputs 1,2 --noise 0.1 | grep value=3
qftadd add --base 100000 --digits 1 --inputs 7 --noise 0.1 | grep value=7
cmp <(qftadd sweep --bases 2,3,4,5,8 --max-capacity 4096) <(python -c "from qftadd import sweep, sweep_to_csv; print(sweep_to_csv(sweep([2, 3, 4, 5, 8], 4096)), end='')")
status=0; csv=$(timeout 20 qftadd sweep --bases 2 --max-capacity 262144) || status=$?
test "$status" -eq 0
cmp <(printf '%s\n' "$csv") <(python -c "from qftadd import sweep, sweep_to_csv; print(sweep_to_csv(sweep([2], 2**18)), end='')")
python -c "
import contextlib, io
from qftadd import AdderSpec, Circuit, Mode, build_full_adder, circuit_to_json, cli
spec = AdderSpec(3, 8, 12, Mode.ADD, tuple(range(0, 1200, 100)))
c = build_full_adder(spec)
want = circuit_to_json(Circuit(c.base, c.layout, c.ops, c.labels))
argv = ['export-circuit', '--base', '3', '--digits', '8', '--inputs', ','.join(map(str, spec.inputs))]
for _ in range(2):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == want
"
qftadd export-circuit --base 16 --digits 3 --inputs 4095,17,256,3840,9 --mode sub --format json | python -c "
import json, sys
text = sys.stdin.read()
assert text == json.dumps(json.loads(text), indent=2) + '\\n'
"
qasm=$(qftadd export-circuit --base 2 --digits 3 --inputs 1,2,3 --format qasm)
test "${qasm%%$'\n'*}" = "OPENQASM 2.0;"
text=$(qftadd export-circuit --base 2 --digits 3 --inputs 1,2,3 --format text)
test "${text%%$'\n'*}" = "base 2"
status=0; err=$(qftadd export-circuit --base 2 --digits 3 --inputs 1,2,3 --format xml 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
grep -q -e --format <<< "$err"
status=0; err=$(qftadd add --base 2 --digits 2 --inputs 1,,2 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
grep -q -e --inputs <<< "$err"
status=0; err=$(timeout 10 qftadd add --base 3 --digits 100000000 --inputs 1 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
grep -q -e --shots <<< "$err"
status=0; err=$(qftadd add --base 10 --digits 3 --inputs "$(python -c "print('1' * 20000)")" --inputs-base 2 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
grep -q -F -e "input 0 is <20000-bit int>, must be in [0, 10**3)" <<< "$err"
status=0; out=$(timeout 10 qftadd gate-count --base 100000 --digits 1 --num-inputs 43000 --verify) || status=$?
test "$status" -eq 0
test "${out##* }" = MATCH
status=0; err=$(timeout 10 qftadd gate-count --base 100000 --digits 1 --num-inputs 43689 --verify 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
grep -q -F -e "--base/--digits/--num-inputs" <<< "$err"
grep -q -F -e "limit of 131072" <<< "$err"
status=0; timeout 10 python -c "
from qftadd import resource_report
try:
    resource_report(2, 20, 10**6)
except ValueError as err:
    assert 'over the limit of 131072' in str(err), err
else:
    raise AssertionError('resource_report(2, 20, 10**6) returned')
" || status=$?
test "$status" -eq 0
