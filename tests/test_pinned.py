"""Pinned CLI outputs: small fixed runs of every subcommand, compared with
the files in tests/pinned/.

Non-numeric text must match exactly and every number to 1e-13 relative,
so a refactor that changes an answer fails here.  Numbers below 1e-14 in
magnitude (rounding noise such as a unitarity defect of 4e-16) are
compared to that absolute floor instead.  The spectrum run has
double eigenvalues of the equilateral star, which the matching route
finds as tangent roots and the weyl route as jumps of two in its count,
so both are pinned too.
Regenerate a file only when an answer is meant to change:

    cd tests/pinned && PYTHONPATH=../../src python -m qgs <argv> > <name>.txt
"""

import math
import os
import re

import pytest

from qgs.cli import main

PINNED = os.path.join(os.path.dirname(__file__), "pinned")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
REL = 1e-13
NOISE = 1e-14

CASES = {
    "spectrum-both": ["spectrum", "--graph", "star.json", "--zmax", "30",
                      "--mode", "both"],
    "smatrix-poles": ["smatrix", "--graph", "star.json",
                      "--s", "0.5,2,9.869604401089358,12.5,39.47841760435743"],
    "invert-forward": ["invert", "--graph-topology", "star.json",
                       "--oracle", "forward",
                       "--true-couplings", "0.5,-0.25,1,0.75"],
    "invert-rtd-samples": ["invert", "--graph-topology", "two-leads.json",
                           "--rtd-samples", "two-leads-rtd.csv"],
    "homog-study": ["homog", "--l1", "0.25", "--l2", "0.5",
                    "--eps-list", "0.02,0.01,0.005", "--tau-grid", "0,1.5",
                    "--bands", "2"],
}


def _split(text):
    """(text with every number replaced by '#', the numbers)."""
    numbers = [float(m) for m in NUMBER.findall(text)]
    return NUMBER.sub("#", text), numbers


def _same_number(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= max(REL * max(abs(a), abs(b)), NOISE)


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_output(name, monkeypatch, capsys):
    monkeypatch.chdir(PINNED)
    assert main(CASES[name]) == 0
    got = capsys.readouterr().out
    with open(os.path.join(PINNED, name + ".txt")) as fh:
        want = fh.read()
    got_text, got_numbers = _split(got)
    want_text, want_numbers = _split(want)
    assert got_text == want_text
    assert len(got_numbers) == len(want_numbers)
    bad = [(g, w) for g, w in zip(got_numbers, want_numbers)
           if not _same_number(g, w)]
    assert not bad, f"{len(bad)} numbers moved, first {bad[0]}"
