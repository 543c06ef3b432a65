"""The import contract: only simulating loads numpy.

Each load check runs in a fresh interpreter, since pytest and the other
test modules have numpy imported already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qftadd

# the child imports the same qftadd as the tests, installed or not
_SRC = str(Path(qftadd.__file__).resolve().parent.parent)

_DESIGN_COMMANDS = [
    ["gate-count", "--base", "2", "--digits", "16", "--num-inputs", "64", "--verify"],
    ["sweep", "--bases", "2,3,4,5,8", "--max-capacity", "4096"],
    *(
        ["export-circuit", "--base", "2", "--digits", "4", "--inputs", "3,5,7", "--format", fmt]
        for fmt in ("json", "qasm", "text")
    ),
]


def _loads_numpy(code: str) -> bool:
    """Whether ``code``, run in a fresh interpreter, leaves numpy imported."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    check = "\nimport sys\nprint('numpy' in sys.modules, file=sys.stderr)\n"
    result = subprocess.run(
        [sys.executable, "-c", code + check],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    return result.stderr.splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ["qftadd", "qftadd.cli"])
def test_import_loads_no_numpy(module):
    assert not _loads_numpy(f"import {module}")


@pytest.mark.parametrize("argv", _DESIGN_COMMANDS, ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_design_commands_load_no_numpy(argv):
    assert not _loads_numpy(f"from qftadd.cli import main\nassert main({argv!r}) == 0")


@pytest.mark.parametrize(
    "code",
    [
        "import qftadd\nqftadd.execute",
        "from qftadd import zero_state",
        "from qftadd.cli import main\n"
        "assert main(['add', '--base', '2', '--digits', '4', '--inputs', '3,5,7']) == 0",
    ],
)
def test_simulating_loads_numpy(code):
    assert _loads_numpy(code)


def test_every_public_name_resolves_once():
    for name in qftadd.__all__:
        assert getattr(qftadd, name) is vars(qftadd)[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        qftadd.no_such_name
