import importlib
import os
import sys

import pytest

from qgs import CouplingMatrix, Edge, MetricGraph, Vertex

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def perfbench(name):
    """The benchmark module perfbench/<name>.py, imported the way the
    benchmark's own scripts import each other: by its plain name, with
    perfbench on sys.path, so that inputs finds reference.  Every call
    returns the same module object."""
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture
def interval():
    """Unit interval, free endpoints."""
    return MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", 1.0)])


@pytest.fixture
def star3():
    """3-star with a lead on the centre, legs rationally independent."""
    return MetricGraph(
        [Vertex("C"), Vertex("T1"), Vertex("T2"), Vertex("T3")],
        [Edge("C", "T1", 1.0), Edge("C", "T2", math_sqrt2()),
         Edge("C", "T3", math_sqrt3())],
        leads=["C"])


@pytest.fixture
def lead_interval():
    """Interval with a lead on one end — the smallest scattering graph."""
    return MetricGraph([Vertex("V1"), Vertex("V2")],
                       [Edge("V1", "V2", 1.0)], leads=["V1"])


@pytest.fixture
def loop_tadpole():
    """Loop plus a pendant edge carrying a lead."""
    return MetricGraph(
        [Vertex("P"), Vertex("Q")],
        [Edge("P", "P", 1.3), Edge("P", "Q", 0.7)],
        leads=["Q"])


def math_sqrt2():
    return 2.0 ** 0.5


def math_sqrt3():
    return 3.0 ** 0.5


def coupling(graph, *values):
    return CouplingMatrix.from_values(graph, list(values))
