"""Self-test of the layer trace: one pass of every workload, untraced and traced.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Asserts that
  * every per-layer counter the README's table names is nonzero on the
    workload whose mechanism it measures and zero where the table
    predicts zero;
  * traced and untraced runs give byte-identical CLI outputs;
  * the metric names match BENCHMARK.json;
  * the reference count is exact on the Neumann interval, and each check
    flags an answer that was made wrong on purpose;
  * each known defect is accepted only under its own condition;
and prints the tracing overhead per workload.  Takes about 90 s.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402

SEED = 7
SPECTRUM, SMATRIX, INVERT, HOMOG = ("spectrum-ladder", "smatrix-sweep",
                                    "invert-roundtrip", "homog-study")
GRAPH_WORKLOADS = [SPECTRUM, SMATRIX, INVERT]

# metric -> (workloads where it must be nonzero, workloads where it must be 0)
PREDICTIONS = {}


def _predict(names, nonzero, zero):
    for name in names:
        PREDICTIONS[name] = (nonzero, zero)


_predict(["mp.det.calls", "mp.det.s", "rootscan.tangent.attempts",
          "rootscan.tangent.accepted", "spectra.roots_found"],
         [SPECTRUM], [SMATRIX, INVERT, HOMOG])
_predict(["rootscan.evals", "kernels.float.calls", "linalg.det.calls",
          "linalg.det.s", "spectra.matching_matrix.calls",
          "spectra.matching_matrix.s", "spectra.multiplicity_at.s",
          "rootscan.scan_resolution"],
         [SPECTRUM], [SMATRIX, INVERT])
_predict(["weyl.weyl_full.calls", "weyl.weyl_full.self_s", "linalg.cond.calls",
          "linalg.cond.s", "linalg.solve.calls", "linalg.solve.s",
          "scattering.skipped", "weyl.kernels.calls"]
         + [f"scattering.sigma_external.ms_per_call.{b}"
            for _, b in layers.SIZE_BUCKETS],
         [SMATRIX], [SPECTRUM, HOMOG])
_predict(["weyl.weyl_compact.calls", "weyl.weyl_compact.self_s",
          "inverse.f1_entry.calls", "inverse.f1_entry.s",
          "graphs.contract.calls", "graphs.contract.s", "graphs.spanning_tree.s",
          "inverse.recover_path_sums.self_s", "linalg.lstsq.s",
          "inverse.fit_residual.max"],
         [INVERT], [HOMOG])
_predict(["highcontrast.cell_discriminant.calls",
          "highcontrast.cell_discriminant.s"]
         + [f"highcontrast.{f}.{m}" for f in ("eps_spectrum", "hom_tau_spectrum",
                                              "hom_dprime_spectrum")
            for m in ("calls", "s")]
         + ["rootscan.scans_per_spectrum"],
         [HOMOG], [SMATRIX, INVERT])
_predict(["graphs.validate.s", "graphs.load_graph.s"], GRAPH_WORKLOADS, [HOMOG])
_predict(["cli.self_s"], GRAPH_WORKLOADS + [HOMOG], [])

_RESULTS = {}


def _one_pass(cli, jobs, tracer=None):
    seconds, texts = 0.0, []
    for job in jobs:
        if tracer is not None:
            tracer.install()
        try:
            dt, _, text = run.run_job(cli, job, run.JOB_DEADLINE_S)
        finally:
            if tracer is not None:
                tracer.uninstall()
        seconds += dt
        texts.append(text)
    return seconds, texts


def results():
    """Run each workload once untraced and once traced (cached)."""
    if _RESULTS:
        return _RESULTS
    cli = run.load_program()
    for name, build in inputs.WORKLOADS.items():
        workdir = os.path.join(run.WORK, f"selftest-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            jobs = build(inputs.Inputs(workdir, SEED))
            plain_s, plain = _one_pass(cli, jobs)
            tracer = layers.Tracer()
            traced_s, traced = _one_pass(cli, jobs, tracer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(run.WORK)
        _RESULTS[name] = {"jobs": jobs, "plain": plain, "traced": traced,
                          "overhead": traced_s / plain_s - 1.0,
                          "metrics": tracer.metrics(1)}
    return _RESULTS


def test_predicted_counters():
    bad = []
    for metric, (nonzero, zero) in PREDICTIONS.items():
        for name in nonzero:
            if not results()[name]["metrics"][metric] > 0:
                bad.append(f"{metric} is 0 on {name}")
        for name in zero:
            if results()[name]["metrics"][metric] != 0:
                bad.append(f"{metric} is not 0 on {name}")
    assert not bad, "\n".join(bad)


def test_traced_outputs_identical():
    for name, res in results().items():
        assert res["plain"] == res["traced"], name


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == layers.metric_units()
    assert set(PREDICTIONS) <= set(declared)


def test_reference_count_on_neumann_interval():
    # eigenvalues (n pi)^2, n >= 0: N(z) = floor(sqrt(z) / pi) + 1
    graph = inputs.fixed_graph("interval")
    for z, n in ((-1.0, 0), (5.0, 1), (50.0, 3), (100.0, 4)):
        assert reference.eigen_count(graph, z) == n, z


def _first_passing(name, kind, mode=None):
    res = results()[name]
    for job, text in zip(res["jobs"], res["plain"]):
        if job["kind"] == kind and (mode is None or job.get("mode") == mode) \
                and checks.verdict(job, text) is None:
            return job, text
    raise AssertionError(f"no passing {kind} job on {name}")


def _edit_rows(text, edit):
    """Apply edit(list of data lines) and rejoin the text."""
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines)
            if line[:1].isdigit() or line.startswith(("hom", "hom-shifted"))]
    return "\n".join(edit(lines, data)) + "\n"


def test_checks_catch_wrong_answers():
    job, text = _first_passing(SPECTRUM, "spectrum", "both")
    dropped = _edit_rows(text, lambda L, d: [x for i, x in enumerate(L) if i != d[-1]])
    assert checks.verdict(job, dropped) == "missed-eigenvalues"
    doubled = _edit_rows(text, lambda L, d: L + [L[d[-1]]])
    assert checks.verdict(job, doubled) == "spurious-eigenvalues"

    def shift_matching(L, d):
        parts = L[d[-1]].split(",")
        parts[2] = repr(float(parts[2]) + 1e-5)
        return L[:d[-1]] + [",".join(parts)] + L[d[-1] + 1:]
    assert checks.verdict(job, _edit_rows(text, shift_matching)) == "route-disagreement"

    job, text = _first_passing(SMATRIX, "smatrix")
    dropped = _edit_rows(text, lambda L, d: [x for i, x in enumerate(L) if i != d[0]])
    assert checks.verdict(job, dropped) == "grid-coverage"

    def scale_entry(L, d):
        parts = L[d[0]].split(",")
        parts[1] = repr(1.01 * float(parts[1]) + 0.01)
        return L[:d[0]] + [",".join(parts)] + L[d[0] + 1:]
    assert checks.verdict(job, _edit_rows(text, scale_entry)) == "unitarity"

    job, text = _first_passing(INVERT, "invert")
    payload = json.loads(text)
    vid = sorted(payload["couplings"])[0]
    payload["couplings"][vid][0] += 1e-3
    assert checks.verdict(job, json.dumps(payload)) == "coupling-error"

    job, text = _first_passing(HOMOG, "homog")

    def shift_hom(L, d):
        i = next(i for i in d if L[i].startswith("hom,"))
        parts = L[i].split(",")
        parts[3] = repr(float(parts[3]) + 1e-6)
        return L[:i] + [",".join(parts)] + L[i + 1:]
    assert checks.verdict(job, _edit_rows(text, shift_hom)) == "model-disagreement"
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines)
             if line[:1].isdigit() and not line.endswith(",nan"))
    lines[i] = ",".join(lines[i].split(",")[:4] + ["3.0"])
    assert checks.verdict(job, "\n".join(lines) + "\n") == "order-out-of-range"


def test_known_defects_are_narrow():
    job, text = _first_passing(SPECTRUM, "spectrum", "weyl")
    n = sum(1 for line in text.splitlines() if line[:1].isdigit())
    assert checks.verdict(job, text + f"{n},1e-12,1,weyl\n") == "spurious-zero"
    assert checks.verdict(job, text + f"{n},0.001,1,weyl\n") == \
        "spurious-eigenvalues"
    assert checks.classify_failure(job, "raised:ArithmeticError") == \
        "raised:ArithmeticError"
    big = next(j for j in results()[SPECTRUM]["jobs"] if j["tag"] == "ladder-n30m")
    for reason in ("raised:ArithmeticError", "exit-3"):
        assert checks.classify_failure(big, reason) == "matching-overflow"
    assert checks.classify_failure(big, "exit-2") == "exit-2"

    res = results()[SPECTRUM]
    for job, text in zip(res["jobs"], res["plain"]):
        if job["tag"].startswith("missed-"):
            assert checks.verdict(job, text) in (None, "missed-close-pair")
    res = results()[HOMOG]
    for job, text in zip(res["jobs"], res["plain"]):
        if job["tag"] == "small-tau":
            assert checks.verdict(job, text) in (None, "small-tau-order")

    job, text = _first_passing(INVERT, "invert")
    payload = json.loads(text)
    vid = sorted(payload["couplings"])[0]
    payload["couplings"][vid][0] += 2e-4
    residual = next(p for p in payload["path_sums"] if p["target"] == vid)
    residual["residual"] = 3e-4
    assert checks.verdict(job, json.dumps(payload)) == "coupling-residual"
    residual["residual"] = 1e-4
    assert checks.verdict(job, json.dumps(payload)) == "coupling-error"


def test_overhead_reported():
    for name, res in results().items():
        print(f"tracing overhead on {name}: {100 * res['overhead']:.1f} %")
        assert res["overhead"] > -0.5


if __name__ == "__main__":
    failures = 0
    for test in (test_predicted_counters, test_traced_outputs_identical,
                 test_metric_names_match_benchmark_json,
                 test_reference_count_on_neumann_interval,
                 test_checks_catch_wrong_answers, test_known_defects_are_narrow,
                 test_overhead_reported):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
    sys.exit(1 if failures else 0)
