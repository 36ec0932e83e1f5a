"""Independent numpy references the benchmark checks answers against.

Nothing here imports ``qgs``: the graph data arrive as plain dicts (the
JSON the CLI reads), and the boundary map is assembled from closed-form
kernels, so a defect in the program cannot hide in its own reference.

The eigenvalue count is the Dirichlet-to-Neumann counting principle
(Friedlander 1991): away from Dirichlet poles and eigenvalues,

    N(z) = sum_edges #{n >= 1 : (n pi / l)^2 < z} + #{eig(M(z) - K) > 0},

with M the compact boundary map.  M is a matrix Herglotz function, so
the count does not depend on a scan grid and sees eigenvalues closer
together than any scan step.
"""

from __future__ import annotations

import math

import numpy as np


def _kernels(z, l):
    """(k cot kl, k / sin kl, k tan(kl/2)) at real z, stable for z << 0."""
    if z > 0.0:
        k = math.sqrt(z)
        return k / math.tan(k * l), k / math.sin(k * l), k * math.tan(k * l / 2)
    if z == 0.0:
        return 1.0 / l, 1.0 / l, 0.0
    q = math.sqrt(-z)
    e = math.exp(-q * l)
    coth = (1.0 + e * e) / (1.0 - e * e)
    csch = 2.0 * e / (1.0 - e * e)
    return q * coth, q * csch, -q * (1.0 - e) / (1.0 + e)


def boundary_map(graph: dict, z: float) -> np.ndarray:
    """Compact M(z) of a graph dict, vertices in sorted-id order."""
    ids = sorted(v["id"] for v in graph["vertices"])
    idx = {vid: i for i, vid in enumerate(ids)}
    M = np.zeros((len(ids), len(ids)))
    for e in graph["edges"]:
        c, s, t = _kernels(z, e["length"])
        i, j = idx[e["from"]], idx[e["to"]]
        if i == j:
            M[i, i] += 2.0 * t
        else:
            M[i, i] -= c
            M[j, j] -= c
            M[i, j] += s
            M[j, i] += s
    return M


def couplings(graph: dict) -> np.ndarray:
    """Real coupling constants in sorted-id order."""
    by_id = {v["id"]: v.get("coupling", [0.0, 0.0]) for v in graph["vertices"]}
    return np.array([by_id[vid][0] for vid in sorted(by_id)])


def min_pole_distance(graph: dict, z: float) -> float:
    """min over edges of |sin(sqrt(z) l)|; 1 for z <= 0 (no poles)."""
    if z <= 0.0:
        return 1.0
    k = math.sqrt(z)
    return min(abs(math.sin(k * e["length"])) for e in graph["edges"])


def dirichlet_count(graph: dict, z: float) -> int:
    if z <= 0.0:
        return 0
    k = math.sqrt(z)
    return sum(int(math.ceil(k * e["length"] / math.pi)) - 1
               for e in graph["edges"])


def eigen_count(graph: dict, z: float) -> int:
    """Number of eigenvalues (with multiplicity) strictly below z."""
    A = boundary_map(graph, z) - np.diag(couplings(graph))
    return dirichlet_count(graph, z) + int(np.sum(np.linalg.eigvalsh(A) > 0.0))


def safe_cutoff(graph: dict, target: float) -> float:
    """A cutoff at or just below `target` that sits off poles and roots.

    Walks down in steps of 1e-2 until every edge is at least 0.01 away
    from a pole (in |sin|), the count is the same 1e-4 either side, and
    no eigenvalue of M - K is within 1e-3 of zero.
    """
    z = target
    for _ in range(1000):
        if min_pole_distance(graph, z) > 0.01:
            A = boundary_map(graph, z) - np.diag(couplings(graph))
            gap = float(np.min(np.abs(np.linalg.eigvalsh(A))))
            if gap > 1e-3 and eigen_count(graph, z - 1e-4) == eigen_count(
                    graph, z + 1e-4):
                return round(z, 6)
        z -= 1e-2
    raise ValueError(f"no safe cutoff below {target}")


def response_block(graph: dict, z: float) -> np.ndarray:
    """External block of (M(z) - K)^-1, sorted external order."""
    ids = sorted(v["id"] for v in graph["vertices"])
    ext = [ids.index(v) for v in sorted(set(graph["leads"]))]
    A = boundary_map(graph, z) - np.diag(couplings(graph))
    return np.linalg.inv(A)[np.ix_(ext, ext)]


def eigenvalues(graph: dict, zmax: float, tol: float = 1e-10) -> list[float]:
    """Every eigenvalue below `zmax` (with multiplicity), by bisection on
    the count in t = sign(z) sqrt(|z|) down to intervals of width `tol`."""
    def count(t):
        return eigen_count(graph, t * abs(t))

    t_lo, t_hi = -1.0, math.copysign(math.sqrt(abs(zmax)), zmax)
    while count(t_lo) > 0:
        t_lo *= 2.0
    found = []
    stack = [(t_lo, t_hi, 0, count(t_hi))]
    while stack:
        a, b, na, nb = stack.pop()
        if nb == na:
            continue
        if b - a <= tol:
            found += [0.5 * (a + b)] * (nb - na)
            continue
        m = 0.5 * (a + b)
        nm = count(m)
        stack += [(a, m, na, nm), (m, b, nm, nb)]
    return sorted(t * abs(t) for t in found)
