"""``repro check`` and the one proof driver, ``verification.check.prove``."""

import textwrap
from pathlib import Path

import pytest

import repro.verification
from repro.verification.check import run_check

#: ``repro check`` stdouts recorded before every exhaustive check ran
#: through ``prove``; CI diffs star3, line4 and ring4 against them too.
RECORDED = Path(__file__).parent / "check_stdout"


@pytest.mark.parametrize(
    "name, flags, status",
    [
        ("line3", {"topology": "line:3"}, 0),
        ("ring3", {"topology": "ring:3"}, 1),
        ("ring3-corrected", {"topology": "ring:3", "corrected_threshold": True}, 0),
    ],
)
def test_stdout_is_the_recorded_text(capsys, name, flags, status):
    assert run_check(**flags) == status
    assert capsys.readouterr().out == (RECORDED / f"{name}.txt").read_text()


def test_the_package_workflow_runs_as_written():
    """The example in ``repro.verification``'s docstring, line for line:
    Theorem 1 on line(3) — 6 912 states, 924 legit, closed, convergent."""
    example = []
    for line in repro.verification.__doc__.split("::\n\n", 1)[1].splitlines():
        if line and not line.startswith("    "):
            break
        example.append(line)
    assert any("prove(" in line for line in example)
    exec(textwrap.dedent("\n".join(example)), {})
