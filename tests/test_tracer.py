"""The benchmark's layer tracer (perfbench/layers.py) against the code it
traces: installed, it changes no output; uninstalled, it leaves no trace."""

import sys

import mpmath
import numpy as np

import qgs.cli

from conftest import perfbench
from test_pinned import CASES, PINNED


def _functions():
    """Every function bound in a qgs module, numpy.linalg or mpmath, by
    (module, name): the places the tracer patches."""
    modules = [m for name, m in sys.modules.items()
               if name == "qgs" or name.startswith("qgs.")]
    return {(m.__name__, attr): value
            for m in modules + [np.linalg, mpmath]
            for attr, value in vars(m).items() if callable(value)}


def test_tracer_changes_no_output(monkeypatch, capsys):
    """One pinned run of each subcommand, made as perfbench/run.py makes
    it (through qgs.cli.main), prints the same with the tracer installed.
    install looks up every traced name; the matching scan of spectrum
    --mode both goes through its scan_roots wrapper, which passes df=.
    uninstall puts every original back."""
    monkeypatch.chdir(PINNED)
    runs = [CASES[name] for name in ("spectrum-both", "smatrix-poles",
                                     "invert-forward", "homog-study")]
    plain = []
    for argv in runs:
        assert qgs.cli.main(argv) == 0
        plain.append(capsys.readouterr().out)
    before = _functions()
    tracer = perfbench("layers").Tracer()
    tracer.install()
    try:
        traced = []
        for argv in runs:
            assert qgs.cli.main(argv) == 0
            traced.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["cli"] == len(runs)
    assert tracer.calls["rootscan.scan_roots"] > 0
    after = _functions()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
