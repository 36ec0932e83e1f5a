"""Acceptance gate: nine end-to-end checks, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) carrying
its headline metric and wall time, and fails loudly otherwise.  Tolerances
are pinned here on purpose — do not loosen them to make a failure go away.
"""

import math
import os
import random
import time

import numpy as np
import pytest

from qgs import (CouplingMatrix, Edge, HighContrastCell, MetricGraph,
                 Quasimomentum, Vertex, compact_eigenvalues,
                 contraction_validation, convergence_study, external_projector,
                 extract_rtd, forward_f1_oracle, hom_dprime_spectrum,
                 hom_tau_spectrum, invert_couplings, robin_to_dirichlet,
                 sigma_external, sigma_projected, spanning_tree, weyl_full)
from qgs.cli import main
from qgs.testing import make_random_graph

from conftest import PERFBENCH


class gate:
    """Context manager: enforce a wall-time budget and print a PASS line."""

    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s
        self.metrics = {}

    def note(self, **kv):
        self.metrics.update(kv)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"FAIL {self.name} after {elapsed:.2f}s")
            return False
        detail = " ".join(f"{k}={v:.3g}" for k, v in self.metrics.items())
        print(f"PASS {self.name} ({elapsed:.2f}s{', ' + detail if detail else ''})")
        assert elapsed < self.budget, (
            f"{self.name}: {elapsed:.1f}s over the {self.budget}s budget")
        return False


def test_boundary_map_structure():
    """20 random graphs: symmetry under conjugation, positivity of the
    imaginary part in the upper half-plane, and the external jump."""
    rng = random.Random(11)
    with gate("boundary-map structure", 10.0) as g8:
        worst_conj = worst_herglotz = worst_jump = 0.0
        for _ in range(20):
            g = make_random_graph(rng, max_vertices=5, max_edges=8)
            z = complex(rng.uniform(0.2, 40.0), rng.uniform(0.1, 5.0))
            M = weyl_full(g, z)
            Mc = weyl_full(g, z.conjugate())
            worst_conj = max(worst_conj,
                             float(np.abs(Mc - M.conj()).max()))
            im_part = np.linalg.eigvalsh((M - M.conj().T) / 2j)
            worst_herglotz = max(worst_herglotz, float(-im_part.min()))

            s = rng.uniform(0.3, 60.0)
            Ms = weyl_full(g, s)
            jump = Ms - Ms.conj().T
            target = 2j * math.sqrt(s) * external_projector(g)
            worst_jump = max(worst_jump, float(np.abs(jump - target).max()))
        assert worst_conj < 1e-12
        assert worst_herglotz < 1e-10
        assert worst_jump < 1e-12
        g8.note(conj=worst_conj, herglotz=worst_herglotz, jump=worst_jump)


def test_two_spectral_routes_agree():
    """First 10 eigenvalues match between the boundary-map secular route
    and the edge-matching route on 10 graphs, Neumann interval exact."""
    rng = random.Random(23)
    with gate("two-route spectra", 30.0) as g8:
        worst = 0.0
        interval = MetricGraph([Vertex("A"), Vertex("B")],
                               [Edge("A", "B", 1.0)])
        kz = CouplingMatrix.zeros(interval)
        w = compact_eigenvalues(interval, kz, 10, "weyl")
        m = compact_eigenvalues(interval, kz, 10, "matching")
        exact = [(n * math.pi) ** 2 for n in range(10)]
        for a, b, e in zip(w, m, exact):
            worst = max(worst, abs(a - b), abs(a - e), abs(b - e))

        for _ in range(9):
            g = make_random_graph(rng, max_vertices=4, max_edges=5)
            k = CouplingMatrix.from_values(
                g, [rng.uniform(-1.5, 1.5) for _ in range(g.n_vertices)])
            w = compact_eigenvalues(g, k, 10, "weyl")
            m = compact_eigenvalues(g, k, 10, "matching")
            worst = max(worst, max(abs(a - b) for a, b in zip(w, m)))
        assert worst < 1e-8
        g8.note(max_disagreement=worst)


def test_checked_spectrum_of_a_50_vertex_graph(capsys):
    """qgs spectrum --mode both on ladder-n50 (50 vertices, 75 edges) up to
    z = 20: one count and one matching-kernel SVD per root, every root
    confirmed, within 3 s.  On missed-06 up to z = 100, whose close pairs
    a scan in sqrt|z| missed, no cell of the table reads nan."""
    graphs = os.path.join(PERFBENCH, "graphs")

    def table(name, zmax):
        rc = main(["spectrum", "--graph", os.path.join(graphs, name),
                   "--zmax", zmax, "--mode", "both"])
        assert rc == 0
        return [line.split(",") for line in
                capsys.readouterr().out.splitlines() if line[:1].isdigit()]

    with gate("checked 50-vertex spectrum", 3.0) as g8:
        rows = table("ladder-n50.json", "20")
        assert sum(int(r[3]) for r in rows) == 91
        margin = max(float(r[4]) for r in rows)
        assert margin < 1e-8
        g8.note(roots=len(rows), worst_kernel_sv=margin)
    rows = table("missed-06.json", "100")
    assert len(rows) >= 22
    assert not any("nan" in r for r in rows)


def test_scattering_unitary_and_factorised():
    """200-point energy grid: unitarity to 1e-8, the projected and
    factorised routes within 1e-10, and exact transparency at zero
    coupling."""
    g = MetricGraph(
        [Vertex("A"), Vertex("B"), Vertex("C"), Vertex("D")],
        [Edge("A", "B", 1.0), Edge("B", "C", math.sqrt(2)),
         Edge("C", "D", math.sqrt(3)), Edge("A", "D", math.sqrt(5)),
         Edge("B", "D", math.sqrt(7) / 2)],
        leads=["A", "C"])
    k = CouplingMatrix.from_values(g, [0.8, -1.3, 0.4, 1.9])
    kz = CouplingMatrix.zeros(g)
    with gate("scattering factorisation", 30.0) as g8:
        worst_unitary = worst_routes = 0.0
        grid = [0.5 * j for j in range(1, 201)]  # (0, 100]
        for s in grid:
            sm = sigma_external(g, k, s, check_tol=1e-10)
            worst_unitary = max(worst_unitary, sm.unitarity_defect)
            proj = sigma_projected(g, k, s).entries
            worst_routes = max(worst_routes,
                               float(np.abs(proj - sm.entries).max()))
        worst_identity = 0.0
        for s in (0.5, 7.0, 50.0, 99.5):
            ent = sigma_external(g, kz, s).entries
            worst_identity = max(worst_identity,
                                 float(np.abs(ent - np.eye(2)).max()))
        assert worst_unitary < 1e-8
        assert worst_routes < 1e-10
        assert worst_identity < 1e-12
        g8.note(unitarity=worst_unitary, routes=worst_routes,
                transparency=worst_identity)


def test_response_map_extraction():
    """Scattering data inverts back to the interior response block."""
    g = MetricGraph(
        [Vertex("A"), Vertex("B"), Vertex("C")],
        [Edge("A", "B", 1.0), Edge("B", "C", math.sqrt(2)),
         Edge("A", "C", math.sqrt(3))],
        leads=["A", "B"])
    k = CouplingMatrix.from_values(g, [0.6, -0.9, 1.4])
    with gate("response-map extraction", 10.0) as g8:
        grid = [0.3 + 0.7 * j for j in range(25)]
        samples = extract_rtd(lambda s: sigma_external(g, k, s), g, grid)
        assert len(samples.grid) == len(grid), "regular grid points dropped"
        worst = 0.0
        for s, block in zip(samples.grid, samples.values):
            direct = robin_to_dirichlet(g, k, s)
            worst = max(worst, float(np.abs(block - direct).max()))
        assert worst < 1e-9
        g8.note(max_error=worst)


def test_contraction_limit_order():
    """Shrinking the edges of a tree path converges to the contracted
    graph's response at first order or better."""
    g = MetricGraph(
        [Vertex("A", 0.7), Vertex("B", -0.2), Vertex("C", 0.4),
         Vertex("D", -1.1)],
        [Edge("A", "B", 1.0), Edge("B", "C", math.sqrt(2)),
         Edge("B", "D", math.sqrt(3))],
        leads=["A"])
    k = CouplingMatrix.from_graph(g)
    with gate("contraction order", 10.0) as g8:
        paths = {p.target: p for p in spanning_tree(g, "A")}
        slopes = []
        for target in ("B", "C", "D"):
            diffs, slope = contraction_validation(
                g, k, paths[target], -30.0, deltas=(1e-2, 1e-3, 1e-4))
            assert all(a > b for a, b in zip(diffs, diffs[1:]))
            slopes.append(slope)
        assert min(slopes) >= 0.9
        g8.note(min_order=min(slopes))


def test_coupling_recovery_roundtrip():
    """Five-plus graphs, couplings in [-2, 2], recovered to 1e-4."""
    rng = random.Random(37)
    with gate("coupling recovery", 120.0) as g8:
        cases = []
        for i in range(5):
            cases.append(make_random_graph(rng, max_vertices=5, max_edges=7,
                                           n_leads=1, coupling_range=2.0))
        # and one adversarial multigraph: parallel edges plus a loop
        cases.append(MetricGraph(
            [Vertex("A", -1.3), Vertex("B", 0.8), Vertex("C", 2.0),
             Vertex("D", -0.6), Vertex("E", 0.05)],
            [Edge("A", "B", 1.0), Edge("A", "B", math.sqrt(2)),
             Edge("B", "C", math.sqrt(3)), Edge("C", "C", math.sqrt(5)),
             Edge("C", "D", math.sqrt(7)), Edge("D", "E", math.sqrt(11)),
             Edge("B", "E", math.sqrt(13))],
            leads=["A"]))
        worst = 0.0
        for g in cases:
            k = CouplingMatrix.from_graph(g)
            recovered, _ = invert_couplings(g, forward_f1_oracle(g, k))
            for vid, true in zip(g.vertex_ids(), k.diagonal):
                worst = max(worst, abs(recovered[vid] - true))
        assert worst < 1e-4
        g8.note(graphs=len(cases), max_error=worst)


def test_homogenisation_convergence_order():
    """Fiber eigenvalues converge at second order, uniformly over the
    sampled quasimomenta, and the two limit parametrisations agree."""
    cell = HighContrastCell(0.25, 0.5, 0.25)
    taus = [0.0, math.pi / 2, -math.pi / 2]
    with gate("homogenisation order", 120.0) as g8:
        rows = convergence_study(cell, [0.2, 0.1, 0.05], taus, 2)
        fitted = [r for r in rows if not r.exact]
        assert fitted, "no non-trivial bands in the study"
        orders = [r.order for r in fitted]
        assert all(1.8 <= p <= 2.3 for p in orders)

        # same band functions through the shifted parametrisation,
        # per tau and as whole sets
        union_a, union_b = [], []
        worst_pair = 0.0
        for t in taus:
            a = hom_tau_spectrum(cell, t, 2)
            b = hom_dprime_spectrum(cell, Quasimomentum(t).shifted(), 2)
            worst_pair = max(worst_pair,
                             max(abs(x - y) for x, y in zip(a, b)))
            union_a += a
            union_b += b
        for x, y in zip(sorted(union_a), sorted(union_b)):
            worst_pair = max(worst_pair, abs(x - y))
        assert worst_pair < 1e-8
        g8.note(min_order=min(orders), max_order=max(orders),
                model_gap=worst_pair)


def test_limit_model_anchor():
    """Cell (0.25, 0.5, 0.25) at zero quasimomentum: z=0 plus z=(4x)^2
    with x the first positive root of tan x = -x."""
    with gate("closed-form anchor", 1.0) as g8:
        # independent root of tan x = -x on (pi/2, pi): bisection on
        # sin x + x cos x, which is continuous there
        lo, hi = math.pi / 2 + 1e-12, math.pi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if math.sin(mid) + mid * math.cos(mid) > 0:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        assert abs(x - 2.028757838) < 1e-8  # sanity on the oracle itself
        z_ref = (4.0 * x) ** 2

        spec = hom_tau_spectrum(HighContrastCell(0.25, 0.5, 0.25), 0.0, 2)
        assert spec[0] == 0.0
        assert abs(spec[1] - z_ref) <= 1e-6
        g8.note(anchor_error=abs(spec[1] - z_ref))
