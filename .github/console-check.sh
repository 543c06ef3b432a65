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
# at a time must be the library's CSV, and an export whose header and body
# texts are kept must match the plain writer on the first and on a
# repeated export.  A base-16 SUB export, whose op list is written without
# the json module's indent encoder, must be the text json.dumps(indent=2)
# makes of its own parse, an oracle apart from the writer.  Last, an empty
# token in --inputs exits 2 naming the flag, a 100-million-digit add
# exits 2 naming --shots within 10 s: its input check builds no 3**10**8,
# which alone takes minutes, and an input of 20,000 binary ones exits 2
# naming its range: int() reads it, since its limit on decimal digits
# spares power-of-two radices, and the message writes it as its size, not
# as text past that limit (each status is captured, as the script runs
# under bash -e).
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
status=0; err=$(qftadd add --base 2 --digits 2 --inputs 1,,2 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
grep -q -e --inputs <<< "$err"
status=0; err=$(timeout 10 qftadd add --base 3 --digits 100000000 --inputs 1 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
grep -q -e --shots <<< "$err"
status=0; err=$(qftadd add --base 10 --digits 3 --inputs "$(python -c "print('1' * 20000)")" --inputs-base 2 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
grep -q -F -e "input 0 is <20000-bit int>, must be in [0, 10**3)" <<< "$err"
