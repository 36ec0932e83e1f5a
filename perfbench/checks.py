"""Per-job correctness checks: each returns None (pass) or a reason label.

The labels are the failure reasons the benchmark counts, so they are short
and stable.  The checks read only the CLI's text output and the job's own
record (hidden couplings, grid, graph); references come from reference.py.

A label in KNOWN_DEFECTS is a known program defect, returned only when the
output fails in exactly the way, and under exactly the condition, that the
defect is documented to need.  The benchmark reports such a job as an
expected failure: the defect stays visible, by label, in every run, and
the run's answer stays correct.  Any other label is a wrong answer.
"""

from __future__ import annotations

import json
import math

import numpy as np

from reference import eigen_count, eigenvalues

ROUTE_TOL = 1e-8        # weyl vs matching, relative to max(1, |z|)
UNITARITY_TOL = 1e-8
COUPLING_TOL = 1e-4
MODEL_TOL = 1e-8        # hom vs hom-shifted, absolute
ORDER_RANGE = (1.8, 2.3)
MATCH_TOL = 1e-6        # a reported eigenvalue against the reference one
ZERO_TOL = 1e-10        # a reported eigenvalue in [0, ZERO_TOL]
MATCHING_OVERFLOW_EDGES = 40
SMALL_TAU = 1e-3

KNOWN_DEFECTS = {
    "missed-close-pair": "spectrum misses eigenvalues, each within one scan "
                         "step pi/(8 L) in sqrt|z| of another eigenvalue",
    "spurious-zero": "spectrum reports eigenvalues at 0 <= z <= 1e-10 that "
                     "the reference does not have (weyl: the cleared sine "
                     "product underflows at the first scan point; matching: "
                     "the z = 0 test fires for an eigenvalue near 1e-8)",
    "matching-overflow": "the matching route on 40 or more edges raises "
                         "ArithmeticError out of main, or exits 3",
    "coupling-residual": "a recovered coupling is off by more than 1e-4 but "
                         "by no more than the fit residual the program "
                         "reports for its path sum (for --rtd-samples, "
                         "which reports none, the fit tolerance)",
    "small-tau-order": "homog: at quasimomenta 0 < |tau| <= 1e-3 the error "
                       "does not shrink with eps (fitted order near 0)",
}


def _data_rows(text: str) -> list[list[str]]:
    """CSV data rows: spectrum rows start with an index, smatrix rows with
    s > 0; comments and the header start with a letter or '#'."""
    return [line.split(",") for line in text.splitlines()
            if line[:1].isdigit()]


def check_spectrum(job: dict, text: str) -> str | None:
    rows = _data_rows(text)
    if job["mode"] != "both":
        return _check_route(job, [(float(r[1]), int(r[2])) for r in rows])
    weyl = [(float(r[1]), int(r[3])) for r in rows if r[1] != "nan"]
    matching = [(float(r[2]), int(r[3])) for r in rows if r[2] != "nan"]
    if all(abs(zw - zm) <= ROUTE_TOL * max(1.0, abs(zw))  # NaN fails
           for (zw, _), (zm, _) in zip(weyl, matching)) and \
            len(weyl) == len(matching):
        return _check_route(job, weyl)
    # A known defect on either route (a different member of a close
    # cluster missed, a spurious zero) makes the routes disagree as well.
    known = {_check_route(job, weyl), _check_route(job, matching)} - {None}
    if known and known <= KNOWN_DEFECTS.keys():
        return min(known)
    return "route-disagreement"


def _check_route(job: dict, got: list[tuple[float, int]]) -> str | None:
    """One route's (eigenvalue, multiplicity) list against the count."""
    count = sum(m for _, m in got)
    expected = eigen_count(job["graph"], job["zmax"])
    if count == expected:
        return None
    defect = _count_defect(job["graph"], job["zmax"], got)
    if defect is not None:
        return defect
    return "missed-eigenvalues" if count < expected else "spurious-eigenvalues"


def _count_defect(graph: dict, zmax: float, got) -> str | None:
    """The known defect that explains a wrong count, or None.

    Matches the reported eigenvalues to the reference ones.  The count is
    off by a known defect only if the reported ones in [0, ZERO_TOL] are the
    whole difference, or if every unmatched reference eigenvalue has another
    within one scan step (the weyl and matching scans step by pi / (8 L) in
    sqrt|z|, L the total length) and every reported one matches.
    """
    ref = eigenvalues(graph, zmax)
    nonzero = [(z, m) for z, m in got if not 0.0 <= z <= ZERO_TOL]
    if len(nonzero) < len(got) and _unmatched(ref, nonzero) == ([], []):
        return "spurious-zero"
    missing, extra = _unmatched(ref, got)
    step = math.pi / (8.0 * sum(e["length"] for e in graph["edges"]))
    t = [math.copysign(math.sqrt(abs(z)), z) for z in ref]

    def close(z):
        tz = math.copysign(math.sqrt(abs(z)), z)
        return any(MATCH_TOL < abs(tz - u) < step and (u > 0) == (tz > 0)
                   for u in t)
    if missing and not extra and all(close(z) for z in missing):
        return "missed-close-pair"
    return None


def _unmatched(ref: list[float], got) -> tuple[list[float], list[float]]:
    """(reference eigenvalues no reported one matches, reported ones that
    match no reference eigenvalue), each with multiplicity."""
    missing, extra = list(ref), []
    for z, mult in got:
        for _ in range(mult):
            i = min(range(len(missing)), default=None,
                    key=lambda i: abs(missing[i] - z))
            if i is not None and \
                    abs(missing[i] - z) <= MATCH_TOL * max(1.0, abs(z)):
                missing.pop(i)
            else:
                extra.append(z)
    return missing, extra


def check_smatrix(job: dict, text: str) -> str | None:
    n_ext = len(set(job["graph"]["leads"]))
    seen = []
    for line in text.splitlines():
        if line.startswith("# skipped "):
            fields = dict(kv.split("=", 1) for kv in line[10:].split())
            if not fields.get("reason"):
                return "skip-without-reason"
            seen.append(float(fields["s"]))
    for r in _data_rows(text):
        vals = [float(x) for x in r]
        seen.append(vals[0])
        flat = np.array(vals[1:-1])
        S = (flat[0::2] + 1j * flat[1::2]).reshape(n_ext, n_ext)
        defect = np.linalg.norm(S.conj().T @ S - np.eye(n_ext))
        if not (defect <= UNITARITY_TOL and vals[-1] <= UNITARITY_TOL):
            return "unitarity"
    if sorted(seen) != sorted(job["grid"]):
        return "grid-coverage"
    return None


def check_invert(job: dict, text: str) -> str | None:
    payload = json.loads(text)
    got = payload["couplings"]
    # Without path sums (--rtd-samples) the residuals are not reported; the
    # fit tolerance the program accepted them under bounds them instead.
    if "path_sums" in payload:
        residual = {p["target"]: p["residual"] for p in payload["path_sums"]}
    else:
        residual = dict.fromkeys(got, payload["metadata"]["fit_tol"])
    ids = sorted(v["id"] for v in job["graph"]["vertices"])
    want = dict(zip(ids, job["hidden"]))
    if job["external_only"]:
        want = {v: want[v] for v in sorted(set(job["graph"]["leads"]))}
    defect = None
    for vid, a in want.items():
        if vid not in got:
            return "coupling-missing"
        re, im = got[vid]
        error = abs(complex(re, im) - a)
        if not error <= COUPLING_TOL:
            if not error <= residual.get(vid, 0.0):
                return "coupling-error"
            defect = "coupling-residual"
    return defect


def check_homog(job: dict, text: str) -> str | None:
    models = {"hom": {}, "hom-shifted": {}}
    orders = []
    convergence = False
    for line in text.splitlines():
        if line.startswith("# convergence"):
            convergence = True
            continue
        if line.startswith("#") or line.startswith(("model,", "tau,")):
            continue
        parts = line.split(",")
        if convergence:
            if parts[4] != "nan":
                orders.append((float(parts[0]), float(parts[4])))
        elif parts[0] in models:
            models[parts[0]][(parts[1], parts[2])] = float(parts[3])
    hom, shifted = models["hom"], models["hom-shifted"]
    if not hom or hom.keys() != shifted.keys():
        return "model-missing"
    if any(not abs(hom[k] - shifted[k]) <= MODEL_TOL for k in hom):
        return "model-disagreement"
    if not orders:
        return "orders-missing"
    lo, hi = ORDER_RANGE
    bad = [tau for tau, p in orders if not lo <= p <= hi]  # NaN fails too
    if not bad:
        return None
    if all(0.0 < abs(tau) <= SMALL_TAU for tau in bad):
        return "small-tau-order"
    return "order-out-of-range"


CHECKS = {
    "spectrum": check_spectrum,
    "smatrix": check_smatrix,
    "invert": check_invert,
    "homog": check_homog,
}


def verdict(job: dict, text: str) -> str | None:
    """Reason the output is wrong, or None; unreadable output is a failure."""
    try:
        return CHECKS[job["kind"]](job, text)
    except (ValueError, KeyError, IndexError, TypeError):
        return "unparseable-output"


def classify_failure(job: dict, reason: str) -> str:
    """The known defect behind a job that produced no output, or `reason`."""
    if (job["kind"] == "spectrum" and job["mode"] != "weyl"
            and len(job["graph"]["edges"]) >= MATCHING_OVERFLOW_EDGES
            and reason in ("raised:ArithmeticError", "exit-3")):
        return "matching-overflow"
    return reason
