"""Command-line front end.

Subcommands: spectrum, smatrix, invert, homog, check.  Exit codes:
0 success, 2 invalid input (bad graph, bad flags), 3 numerical failure
(singular matrix, diverged extrapolation, failed invariants).

Outputs are byte-deterministic: identical invocations produce identical
bytes (no timestamps, fixed float formatting, sorted keys).  Grids accept
either comma lists ("1,2,5") or ranges "start:stop:step" (stop
inclusive up to rounding).  Warnings go to stderr.  Grid evaluation is
serial; --jobs is still accepted, for compatibility with older command
lines, and has no effect.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import GraphError, InconsistentPaths, NumericalError, ParseError
from .graphs import MetricGraph, load_graph, validate
from .highcontrast import (HighContrastCell, Quasimomentum, convergence_fit,
                           eps_spectra, eps_spectrum, hom_dprime_spectra,
                           hom_dprime_spectrum, hom_tau_spectra,
                           hom_tau_spectrum)
from .inverse import (TAU0, RtDSamples, forward_f1_oracle, invert_couplings,
                      ladder_tau0, recover_external_couplings)
from .scattering import sigma_external, sigma_sweep
from .spectra import compact_spectrum, kernel_margins
from .weyl import CouplingMatrix


MAX_POINTS = 10 ** 6     # grid points, or homog eps x tau x band items


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _finite(tokens, spec: str) -> list[float]:
    values = [float(t) for t in tokens]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite, got {spec!r}")
    return values


def parse_grid(spec: str) -> list[float]:
    """"a:b:step" (b inclusive up to rounding), "x,y,z", or a scalar;
    every number must be finite, and a range holds at most MAX_POINTS."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {spec!r}")
        a, b, step = _finite(parts, spec)
        if step <= 0:
            raise ValueError("range step must be positive")
        count = (b - a) / step
        if not math.isfinite(count):    # the span or the quotient overflows
            raise ValueError(f"range {spec!r} has no finite point count")
        n = int(math.floor(count + 1e-9)) + 1
        if n < 1:
            raise ValueError(f"empty range {spec!r}")
        if n > MAX_POINTS:
            raise ValueError(f"range {spec!r} has {n} points, more than "
                             f"{MAX_POINTS}")
        return [a + i * step for i in range(n)]
    values = _finite((p for p in spec.split(",") if p.strip() != ""), spec)
    if not values:
        raise ValueError(f"empty list {spec!r}")
    return values


def _parse_couplings(spec: str) -> list[complex]:
    vals = []
    for tok in spec.split(","):
        tok = tok.strip()
        try:
            vals.append(complex(float(tok)))
        except ValueError:
            vals.append(complex(tok.replace("i", "j")))
    return vals


def _load_valid_graph(path: str) -> MetricGraph:
    graph = load_graph(path)
    report = validate(graph)
    if report.violations:
        raise GraphError("; ".join(report.violations))
    for w in report.warnings:
        print(f"{path}: {w}", file=sys.stderr)
    return graph


def _coupling_from_args(graph: MetricGraph, spec: str | None,
                        require_real: bool) -> CouplingMatrix:
    if spec is None:
        kappa = CouplingMatrix.from_graph(graph)
    else:
        vals = _parse_couplings(spec)
        if len(vals) != graph.n_vertices:
            raise GraphError(
                f"--kappa needs {graph.n_vertices} values "
                f"(canonical vertex order {', '.join(graph.vertex_ids())})")
        kappa = CouplingMatrix.from_values(graph, vals)
    if require_real and not kappa.is_real:
        raise GraphError("this command needs real couplings")
    return kappa


def _out(path: str | None):
    """The file at path, opened for writing, or stdout (left open)."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    graph = _load_valid_graph(args.graph)
    kappa = _coupling_from_args(graph, args.kappa, require_real=True)
    eig = compact_spectrum(graph, kappa, args.zmax)
    # matching and both: the matching kernel confirms the count's one list,
    # and each row ends with the margin of its check
    checked = args.mode != "weyl"
    margins = kernel_margins(graph, kappa, eig) if checked else []

    with _out(args.out) as fh:
        fh.write("# qgs spectrum\n")
        fh.write(f"# graph={args.graph}\n")
        fh.write(f"# zmax={_fmt(args.zmax)}\n")
        fh.write(f"# mode={args.mode}\n")
        fh.write("# kappa=%s\n" % ",".join(
            _fmt(c.real) for c in kappa.diagonal))
        if args.mode == "both":
            fh.write("index,eigenvalue_weyl,eigenvalue_matching,multiplicity,"
                     "kernel_sv\n")
            for i, (e, sv) in enumerate(zip(eig, margins)):
                z = _fmt(e.z)
                fh.write(f"{i},{z},{z},{e.multiplicity},{_fmt(sv)}\n")
        elif checked:
            fh.write("index,eigenvalue,multiplicity,mode,kernel_sv\n")
            for i, (e, sv) in enumerate(zip(eig, margins)):
                fh.write(f"{i},{_fmt(e.z)},{e.multiplicity},matching,"
                         f"{_fmt(sv)}\n")
        else:
            fh.write("index,eigenvalue,multiplicity,mode\n")
            for i, e in enumerate(eig):
                fh.write(f"{i},{_fmt(e.z)},{e.multiplicity},weyl\n")
    return 0


# --------------------------------------------------------------------------
# smatrix
# --------------------------------------------------------------------------

def cmd_smatrix(args) -> int:
    if not args.factor_tol >= 0.0:
        # a negative one would skip every point; a NaN one, none
        raise ValueError(f"factor_tol must be >= 0, got {args.factor_tol!r}")
    graph = _load_valid_graph(args.graph)
    ext = graph.external_ids()
    if not ext:
        raise GraphError("smatrix needs a graph with at least one lead")
    kappa = _coupling_from_args(graph, args.kappa, require_real=False)
    grid = parse_grid(args.s)
    matrices, skipped = sigma_sweep(graph, kappa, grid, args.factor_tol)

    if len(grid) == 1 and matrices:
        sm = matrices[0]
        payload = {
            "s": sm.at_s,
            "external_order": list(ext),
            "entries_re": [[v.real for v in row] for row in sm.entries],
            "entries_im": [[v.imag for v in row] for row in sm.entries],
            "unitarity_defect": sm.unitarity_defect,
            "form": sm.form,
            "metadata": {"graph": args.graph, "factor_tol": args.factor_tol},
        }
        with _out(args.out) as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0

    with _out(args.out) as fh:
        fh.write("# qgs smatrix\n")
        fh.write(f"# graph={args.graph}\n")
        fh.write("# external_order=%s\n" % ",".join(ext))
        fh.write(f"# factor_tol={_fmt(args.factor_tol)}\n")
        header = ["s"]
        for i in ext:
            for j in ext:
                header += [f"re_{i}_{j}", f"im_{i}_{j}"]
        header.append("unitarity_defect")
        fh.write(",".join(header) + "\n")
        row = ",".join(["%.17g"] * len(header)) + "\n"    # _fmt's format
        for sm in matrices:
            # complex entries as float pairs: re, im, in row-major order
            parts = sm.entries.ravel().view(float).tolist()
            fh.write(row % (sm.at_s, *parts, sm.unitarity_defect))
        for s, exc in skipped:
            fh.write(f"# skipped s={_fmt(s)} reason={type(exc).__name__}\n")
    if skipped:
        print(f"{len(skipped)} grid points skipped", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# invert
# --------------------------------------------------------------------------

def _read_rtd_csv(path: str, n_ext: int) -> RtDSamples:
    grid, values = [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if parts[0] in ("z", "s"):
                continue  # header
            want = 1 + 2 * n_ext * n_ext
            if len(parts) != want:
                raise ParseError(
                    f"expected {want} columns (z plus re/im pairs "
                    f"row-major over {n_ext} leads), got {len(parts)}",
                    line=line_no)
            try:
                nums = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(str(exc), line=line_no) from exc
            if not all(map(math.isfinite, nums)):
                raise ParseError("samples must be finite", line=line_no)
            grid.append(nums[0])
            flat = nums[1:]
            mat = np.array([complex(flat[2 * k], flat[2 * k + 1])
                            for k in range(n_ext * n_ext)])
            values.append(mat.reshape(n_ext, n_ext))
    if not grid:
        raise ParseError(f"no samples in {path}")
    order = np.argsort(grid)
    return RtDSamples(np.array(grid)[order], np.array(values)[order])


def cmd_invert(args) -> int:
    topo = _load_valid_graph(args.graph_topology)
    estimates = []
    if args.oracle == "forward":
        if not args.true_couplings:
            raise GraphError("--oracle forward needs --true-couplings")
        vals = _parse_couplings(args.true_couplings)
        if len(vals) != topo.n_vertices:
            raise GraphError(
                f"--true-couplings needs {topo.n_vertices} values "
                f"(canonical order {', '.join(topo.vertex_ids())})")
        hidden = CouplingMatrix.from_values(topo, vals)
        oracle = forward_f1_oracle(topo, hidden)
        tau0 = ladder_tau0(topo) if args.tau0 is None else args.tau0
        couplings, estimates = invert_couplings(
            topo, oracle, tau0=tau0, levels=args.levels,
            fit_tol=args.fit_tol)
    elif args.rtd_samples:
        if args.residuals_out:
            raise GraphError("--residuals-out needs --oracle forward: "
                             "sampled data give no path-sum residuals")
        samples = _read_rtd_csv(args.rtd_samples,
                                len(topo.external_ids()))
        tau0 = TAU0 if args.tau0 is None else args.tau0
        deep = ladder_tau0(topo)
        if tau0 < deep:
            # the fit cannot absorb terms of order exp(-tau0 * l_min)
            print(f"warning: probe ladder starts at tau0 = {tau0:g}, below "
                  f"max(32, 32/l_min) = {deep:g} for the shortest edge; "
                  f"the recovered couplings may be biased", file=sys.stderr)
        couplings = recover_external_couplings(
            samples, topo, tau0=tau0, levels=args.levels,
            fit_tol=args.fit_tol)
    else:
        raise GraphError("invert needs --oracle forward or --rtd-samples")

    payload = {
        "couplings": {vid: [couplings[vid].real, couplings[vid].imag]
                      for vid in sorted(couplings)},
        "metadata": {
            "graph_topology": args.graph_topology,
            "tau0": tau0,
            "levels": args.levels,
            "fit_tol": args.fit_tol,
            "mode": "forward-oracle" if args.oracle == "forward"
                    else "sampled-data",
        },
    }
    if estimates:
        payload["path_sums"] = [
            {"target": est.path.target,
             "path": list(est.path.vertices_on_path),
             "value": [est.value.real, est.value.imag],
             "residual": est.residual}
            for est in estimates]
    with _out(args.out) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    if args.residuals_out:
        with open(args.residuals_out, "w") as fh:
            fh.write("# qgs invert residuals\n")
            fh.write("target,path_length,value_re,value_im,residual\n")
            for est in estimates:
                fh.write(",".join([
                    est.path.target, str(est.path.vertex_count),
                    _fmt(est.value.real), _fmt(est.value.imag),
                    _fmt(est.residual)]) + "\n")
    return 0


# --------------------------------------------------------------------------
# homog
# --------------------------------------------------------------------------

def cmd_homog(args) -> int:
    l3 = 1.0 - args.l1 - args.l2
    cell = HighContrastCell(args.l1, args.l2, l3, a=args.a)
    taus = parse_grid(args.tau_grid)
    eps_tokens = [t.strip() for t in args.eps_list.split(",") if t.strip()]
    if not eps_tokens:
        raise ValueError(f"empty list {args.eps_list!r}")
    eps_values = [float(t) for t in eps_tokens]
    bands = args.bands
    if len(eps_values) * len(taus) * bands > MAX_POINTS:
        raise ValueError(f"{len(eps_values)} eps x {len(taus)} tau x {bands} "
                         f"bands is more than {MAX_POINTS} fiber roots")

    spectra = eps_spectra(cell, eps_values, taus, bands)
    hom = hom_tau_spectra(cell, taus, bands)
    # (model, spectra per tau) in row order; a repeated eps token repeats
    models = [(f"eps:{tok}", per_tau)
              for tok, per_tau in zip(eps_tokens, spectra)]
    models += [("hom", hom), ("hom-shifted", hom_dprime_spectra(
        cell, [Quasimomentum(t).shifted() for t in taus], bands))]
    rows = [(model, t, b, z)
            for model, per_tau in models
            for t, spectrum in zip(taus, per_tau)
            for b, z in enumerate(spectrum, start=1)]

    conv = []
    if len(eps_values) >= 3:
        conv = convergence_fit(eps_values, taus, hom, spectra)

    def write_dispersion(fh):
        fh.write("# qgs homog\n")
        fh.write(f"# l1={_fmt(args.l1)} l2={_fmt(args.l2)} l3={_fmt(l3)} "
                 f"a={_fmt(args.a)}\n")
        fh.write(f"# eps_list={args.eps_list}\n")
        fh.write(f"# bands={bands}\n")
        fh.write("model,tau,band,eigenvalue\n")
        for model, t, b, z in rows:
            fh.write(f"{model},{_fmt(t)},{b},{_fmt(z)}\n")

    def write_orders(fh):
        fh.write("# qgs homog convergence\n")
        fh.write("tau,band,eps,error,fitted_order\n")
        for r in conv:
            order = "nan" if r.order is None else _fmt(r.order)
            for e, err in r.errors:
                fh.write(f"{_fmt(r.tau)},{r.band},{_fmt(e)},{_fmt(err)},"
                         f"{order}\n")

    with _out(args.out) as fh:
        write_dispersion(fh)
        if conv and not args.orders_out:
            fh.write("# convergence\n")
            write_orders(fh)
    if conv and args.orders_out:
        with open(args.orders_out, "w") as fh:
            write_orders(fh)
    return 0


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def cmd_check(args) -> int:
    import random

    from .graphs import Edge, Vertex, contract, parse_graph, serialize_graph
    from .inverse import extract_rtd, f1_entry
    from .spectra import compact_eigenvalues
    from .testing import make_random_graph
    from .weyl import external_projector, robin_to_dirichlet, weyl_full

    checks = []

    def run(name, fn):
        try:
            fn()
            checks.append((name, None))
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            checks.append((name, exc))
            print(f"FAIL {name}: {exc}")

    rng = random.Random(20240817)
    graphs = [make_random_graph(rng) for _ in range(5)]

    def check_serialisation():
        for g in graphs:
            again = parse_graph(serialize_graph(g))
            assert serialize_graph(again) == serialize_graph(g)

    def check_contraction():
        for g in graphs:
            non_loops = [e for e in g.edges if not e.is_loop]
            if not non_loops:
                continue
            e = non_loops[0]
            before = sum(v.coupling for v in g.vertices)
            after = sum(v.coupling for v in contract(g, e.id).vertices)
            assert abs(before - after) < 1e-12

    def check_herglotz():
        for g in graphs:
            z = complex(rng.uniform(0.5, 5), rng.uniform(0.2, 2))
            M = weyl_full(g, z)
            assert np.linalg.norm(M - M.T) < 1e-10
            Mc = weyl_full(g, z.conjugate())
            assert np.linalg.norm(Mc - M.conj()) < 1e-10
            im = (M - M.conj().T) / 2j
            assert min(np.linalg.eigvalsh(im)) > -1e-10

    def check_jump():
        for g in graphs:
            s = 2.3
            M = weyl_full(g, s)
            jump = M - M.conj().T
            target = 2j * math.sqrt(s) * external_projector(g)
            assert np.linalg.norm(jump - target) < 1e-12

    def check_neumann():
        g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", 1.0)])
        eig = compact_eigenvalues(g, CouplingMatrix.zeros(g), 4)
        exact = [0.0] + [(n * math.pi) ** 2 for n in (1, 2, 3)]
        assert max(abs(a - b) for a, b in zip(eig, exact)) < 1e-8

    def check_kernel_confirmation():
        g = graphs[0]
        k = CouplingMatrix.from_values(
            g, [v.coupling.real for v in g.vertices])
        # raises UnconfirmedRoot, naming the root, where the check fails
        compact_eigenvalues(g, k, 6, "matching")

    def check_unitarity():
        for g in graphs[:3]:
            k = CouplingMatrix.from_values(
                g, [v.coupling.real for v in g.vertices])
            for s in (0.7, 1.9, 13.0):
                sm = sigma_external(g, k, s)
                assert sm.unitarity_defect < 1e-8

    def check_identity_at_zero_coupling():
        g = graphs[1]
        sm = sigma_external(g, CouplingMatrix.zeros(g), 2.0)
        n = sm.entries.shape[0]
        assert np.linalg.norm(sm.entries - np.eye(n)) < 1e-10

    def check_extraction():
        g = graphs[2]
        k = CouplingMatrix.from_values(
            g, [v.coupling.real for v in g.vertices])
        samples = extract_rtd(lambda s: sigma_external(g, k, s), g, [2.0])
        direct = robin_to_dirichlet(g, k, 2.0)
        assert np.linalg.norm(samples.values[0] - direct) < 1e-9

    def check_roundtrip():
        g = MetricGraph(
            [Vertex("V1"), Vertex("V2"), Vertex("V3")],
            [Edge("V1", "V2", 1.0), Edge("V2", "V3", 0.8)], leads=["V1"])
        k = CouplingMatrix.from_values(g, [0.5, -0.25, 1.0])
        rec, _ = invert_couplings(g, forward_f1_oracle(g, k))
        for vid in rec:
            true = k.diagonal[g.vertex_index(vid)]
            assert abs(rec[vid] - true) < 1e-4

    def check_free_medium():
        cell = HighContrastCell(0.25, 0.5, 0.25, a=1.0, epsilon=1.0)
        spec = eps_spectrum(cell, math.pi / 2, 4)
        exact = sorted((math.pi / 2 + 2 * math.pi * n) ** 2
                       for n in range(-2, 3))[:4]
        assert max(abs(a - b) for a, b in zip(spec, exact)) < 1e-9

    def check_anchor():
        cell = HighContrastCell(0.25, 0.5, 0.25)
        hom = hom_tau_spectrum(cell, 0.0, 2)
        assert hom[0] == 0.0
        assert abs(hom[1] - 65.85373385111237) < 1e-6

    def check_band_union():
        cell = HighContrastCell(0.3, 0.45, 0.25)
        for t in (0.0, math.pi / 2, -math.pi / 2):
            h1 = hom_tau_spectrum(cell, t, 3)
            h2 = hom_dprime_spectrum(cell, Quasimomentum(t).shifted(), 3)
            assert max(abs(a - b) for a, b in zip(h1, h2)) < 1e-8

    def check_f1_asymptotics():
        g = MetricGraph([Vertex("A"), Vertex("B")],
                        [Edge("A", "B", 1.0)], leads=["A"])
        k = CouplingMatrix.from_values(g, [0.4, -0.2])
        tau = 300.0
        f = f1_entry(g, k, -tau * tau)
        assert abs(f - 1.0 / (-tau - 0.4)) < 1e-8

    run("serialisation round trip", check_serialisation)
    run("contraction preserves coupling sum", check_contraction)
    run("m-matrix symmetry/conjugation/herglotz", check_herglotz)
    run("external jump 2i sqrt(s) Pe", check_jump)
    run("neumann interval spectrum", check_neumann)
    run("matching kernel confirms every counted root",
        check_kernel_confirmation)
    run("scattering unitarity", check_unitarity)
    run("identity scattering at zero coupling", check_identity_at_zero_coupling)
    run("response-map extraction", check_extraction)
    run("coupling recovery round trip", check_roundtrip)
    run("free-medium fiber spectrum", check_free_medium)
    run("homogenised anchor", check_anchor)
    run("shifted-parametrisation band match", check_band_union)
    run("deep-negative response asymptotics", check_f1_asymptotics)

    failed = sum(1 for _, exc in checks if exc is not None)
    print(f"{len(checks) - failed} of {len(checks)} invariants passed")
    return 3 if failed else 0


# --------------------------------------------------------------------------
# wiring
# --------------------------------------------------------------------------

JOBS_HELP = "accepted for compatibility; evaluation is serial"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qgs argument parser, built once per process: parsing leaves it
    as it was, and building it costs more than most parses."""
    p = argparse.ArgumentParser(
        prog="qgs",
        description="Spectral toolkit for metric graphs with leads and "
                    "high-contrast periodic media.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum",
                        help="compact-graph eigenvalues below a cutoff")
    sp.add_argument("--graph", required=True, help="graph JSON file")
    sp.add_argument("--zmax", type=float, required=True)
    sp.add_argument("--mode", choices=["weyl", "matching", "both"],
                    default="both",
                    help="weyl: the eigenvalue count's roots; matching: the "
                         "same roots, each confirmed by the matching "
                         "kernel test, with its margin as kernel_sv; both: "
                         "the confirmed roots in both columns (default)")
    sp.add_argument("--kappa", help="couplings, comma list in canonical "
                    "vertex order (default: from the graph file)")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_spectrum)

    sm = sub.add_parser("smatrix", help="external scattering matrices")
    sm.add_argument("--graph", required=True)
    sm.add_argument("--s", required=True,
                    help="energy grid: scalar, comma list, or a:b:step")
    sm.add_argument("--kappa")
    sm.add_argument("--factor-tol", type=float, default=1e-10,
                    help="projected-vs-factorised agreement tolerance")
    sm.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    sm.add_argument("--out")
    sm.set_defaults(fn=cmd_smatrix)

    iv = sub.add_parser("invert", help="recover vertex couplings")
    iv.add_argument("--graph-topology", required=True,
                    help="graph JSON (couplings in the file are ignored)")
    iv.add_argument("--oracle", choices=["forward"],
                    help="forward: simulate scattering from "
                         "--true-couplings and invert it")
    iv.add_argument("--true-couplings",
                    help="hidden couplings for --oracle forward")
    iv.add_argument("--rtd-samples",
                    help="CSV of response-map samples (experimental; "
                         "recovers external-vertex couplings only); the "
                         "grid must reach -(tau0 * 2^(levels - 1))^2")
    iv.add_argument("--tau0", type=float,
                    help="start of the probe ladder tau0 * 2^j (default: "
                         "max(32, 32/l_min) for --oracle forward, with "
                         "l_min the shortest edge; 32 for --rtd-samples)")
    iv.add_argument("--levels", type=int, default=7)
    iv.add_argument("--fit-tol", type=float, default=1e-3)
    iv.add_argument("--residuals-out",
                    help="per-path residual CSV (--oracle forward)")
    iv.add_argument("--out")
    iv.set_defaults(fn=cmd_invert)

    hg = sub.add_parser("homog",
                        help="high-contrast fiber spectra and their limit")
    hg.add_argument("--l1", type=float, required=True)
    hg.add_argument("--l2", type=float, required=True)
    hg.add_argument("--a", type=float, default=1.0)
    hg.add_argument("--eps-list", required=True, help="comma list")
    hg.add_argument("--tau-grid", required=True,
                    help="comma list or a:b:step")
    hg.add_argument("--bands", type=int, default=4)
    hg.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    hg.add_argument("--orders-out",
                    help="write the convergence table to its own file")
    hg.add_argument("--out")
    hg.set_defaults(fn=cmd_homog)

    ck = sub.add_parser("check", help="run the invariant suite")
    ck.set_defaults(fn=cmd_check)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except (ParseError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, InconsistentPaths) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # reader went away (e.g. piped into head); die quietly instead of
        # tracebacking while the interpreter flushes stdout at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
