"""Outside-in layer trace: wraps qgs, numpy.linalg and mpmath functions.

Nothing in ``qgs`` changes.  ``Tracer.install`` replaces each traced
function at every module that binds it -- ``from .kernels import kcot``
copies the function into ``qgs.weyl`` and ``qgs.spectra``, so wrapping
``qgs.kernels.kcot`` alone would miss those calls -- and ``uninstall``
puts the originals back.

Every timed wrapper records calls, inclusive seconds and self seconds
(inclusive minus the time of traced calls it made, on the same thread).
Work done on ``--jobs`` pool threads is not subtracted from the caller,
so a command's self time includes its wait for the pool.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

# (home module, function, metric prefix).  Each is timed: calls, s, self_s.
TIMED = [
    ("qgs.cli", "main", "cli"),
    ("qgs.graphs", "load_graph", "graphs.load_graph"),
    ("qgs.graphs", "validate", "graphs.validate"),
    ("qgs.graphs", "contract", "graphs.contract"),
    ("qgs.graphs", "spanning_tree", "graphs.spanning_tree"),
    ("qgs.weyl", "weyl_compact", "weyl.weyl_compact"),
    ("qgs.weyl", "weyl_full", "weyl.weyl_full"),
    ("qgs.spectra", "compact_spectrum", "spectra.compact_spectrum"),
    ("qgs.spectra", "_weyl_matrix_raw", "spectra.weyl_matrix_raw"),
    ("qgs.spectra", "matching_matrix", "spectra.matching_matrix"),
    ("qgs.spectra", "multiplicity_at", "spectra.multiplicity_at"),
    ("qgs.spectra", "_mp_weyl_secular", "spectra.mp_weyl_secular"),
    ("qgs.spectra", "_mp_weyl_det_negative", "spectra.mp_weyl_det_negative"),
    ("qgs.spectra", "_mp_matching_det", "spectra.mp_matching_det"),
    ("qgs.rootscan", "scan_roots", "rootscan.scan_roots"),
    ("qgs.scattering", "sigma_external", "scattering.sigma_external"),
    ("qgs.scattering", "sigma_full", "scattering.sigma_full"),
    ("qgs.scattering", "external_factors", "scattering.external_factors"),
    ("qgs.inverse", "recover_path_sums", "inverse.recover_path_sums"),
    ("qgs.inverse", "recover_external_couplings",
     "inverse.recover_external_couplings"),
    ("qgs.inverse", "f1_entry", "inverse.f1_entry"),
    ("qgs.highcontrast", "eps_spectrum", "highcontrast.eps_spectrum"),
    ("qgs.highcontrast", "hom_tau_spectrum", "highcontrast.hom_tau_spectrum"),
    ("qgs.highcontrast", "hom_dprime_spectrum",
     "highcontrast.hom_dprime_spectrum"),
    ("qgs.highcontrast", "convergence_study", "highcontrast.convergence_study"),
    ("qgs.highcontrast", "cell_discriminant", "highcontrast.cell_discriminant"),
    ("numpy.linalg", "det", "linalg.det"),
    ("numpy.linalg", "solve", "linalg.solve"),
    ("numpy.linalg", "cond", "linalg.cond"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.linalg", "lstsq", "linalg.lstsq"),
    ("numpy.linalg", "inv", "linalg.inv"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("mpmath", "det", "mp.det"),
]

# Kernels are only counted (they are the innermost, most frequent calls).
# Calls through qgs.weyl count as weyl.kernels; every other binding site
# (spectra, highcontrast, scattering) counts as kernels.float.
FLOAT_KERNELS = ["kcot", "kcsc", "ktanhalf", "entire_cs"]
MP_KERNELS = ["mp_kcot", "mp_kcsc", "mp_ktanhalf", "mp_entire_cs"]

SPECTRUM_FUNCS = ("highcontrast.eps_spectrum", "highcontrast.hom_tau_spectrum",
                  "highcontrast.hom_dprime_spectrum")

# sigma_external time per call, bucketed by vertex count
SIZE_BUCKETS = [(7, "n005"), (15, "n010"), (35, "n020"), (75, "n050"),
                (10 ** 9, "n100")]

COUNTERS = [
    ("rootscan.evals", "count"),
    ("rootscan.tangent.attempts", "count"),
    ("rootscan.tangent.accepted", "count"),
    ("rootscan.scan_resolution", "count"),
    ("rootscan.scans_per_spectrum", "ratio"),
    ("spectra.roots_found", "count"),
    ("kernels.float.calls", "count"),
    ("kernels.mp.calls", "count"),
    ("weyl.kernels.calls", "count"),
    ("scattering.skipped", "count"),
    ("inverse.fit_residual.max", "1"),
] + [(f"scattering.sigma_external.ms_per_call.{b}", "ms")
     for _, b in SIZE_BUCKETS]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for _, _, name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name, unit in COUNTERS:
        units[name] = unit
    return units


def _bucket(n: int) -> str:
    for limit, name in SIZE_BUCKETS:
        if n <= limit:
            return name
    return SIZE_BUCKETS[-1][1]


class Tracer:
    """Collects per-layer counts and times while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def timed(self, name, fn, after=None, on_error=None):
        """Wrap fn; after(result, args, dt) / on_error(exc, args, dt) add counts."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                dt = self._close(name, t0, stack)
                if on_error is not None:
                    on_error(exc, args, dt)
                raise
            dt = self._close(name, t0, stack)
            if after is not None:
                after(result, args, dt)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name, t0, stack):
        dt = time.perf_counter() - t0
        child = stack.pop()
        if stack:
            stack[-1] += dt
        with self._lock:
            self.calls[name] += 1
            self.incl[name] += dt
            self.self_s[name] += dt - child
        return dt

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for functions whose results carry layer counts ---------------
    def _scan_roots(self, fn):
        """scan_roots, counting evaluations, tangent refinements, warnings."""
        tracer = self

        def scan(f, lo, hi, step, df=None, refine_tangent=None, **kwargs):
            def f_counted(x):
                tracer.count("rootscan.evals")
                return f(x)

            refine = None
            if refine_tangent is not None:
                def refine(a, b):
                    tracer.count("rootscan.tangent.attempts")
                    x = refine_tangent(a, b)
                    if x is not None:
                        tracer.count("rootscan.tangent.accepted")
                    return x

            roots = fn(f_counted, lo, hi, step, df=df, refine_tangent=refine,
                       **kwargs)
            # scan_roots warns ScanResolution on exactly this condition
            if any(r2.x - r1.x < step for r1, r2 in zip(roots, roots[1:])):
                tracer.count("rootscan.scan_resolution")
            return roots

        return scan

    def _scan_site(self, wrapped):
        """Scans started by highcontrast feed rootscan.scans_per_spectrum."""
        def make(site):
            if site != "qgs.highcontrast":
                return wrapped

            def scan(*args, **kwargs):
                self.count("rootscan.scans.highcontrast")
                return wrapped(*args, **kwargs)
            return scan
        return make

    def _after_spectrum(self, result, args, dt):
        self.count("spectra.roots_found", sum(e.multiplicity for e in result))

    def _after_path_sums(self, result, args, dt):
        with self._lock:
            for est in result:
                self.maxima["inverse.fit_residual.max"] = max(
                    self.maxima["inverse.fit_residual.max"], est.residual)

    def _after_sigma(self, result, args, dt):
        bucket = _bucket(args[0].n_vertices)
        with self._lock:
            self.counts[f"sigma.{bucket}.calls"] += 1
            self.counts[f"sigma.{bucket}.s"] += dt

    def _sigma_error(self, exc, args, dt):
        from qgs.errors import FactorisationMismatch, NumericalError
        if isinstance(exc, (NumericalError, FactorisationMismatch)):
            self.count("scattering.skipped")
        self._after_sigma(None, args, dt)

    # -- patching ----------------------------------------------------------
    def _patch_everywhere(self, original, make):
        """Replace `original` in every qgs module that binds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qgs" or modname.startswith("qgs.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, make(modname))

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "spectra.compact_spectrum": {"after": self._after_spectrum},
            "inverse.recover_path_sums": {"after": self._after_path_sums},
            "scattering.sigma_external": {"after": self._after_sigma,
                                          "on_error": self._sigma_error},
        }
        for home, attr, name in TIMED:
            module = sys.modules[home]
            original = getattr(module, attr)
            if name == "rootscan.scan_roots":
                wrapped = self.timed(name, self._scan_roots(original))
                self._patch_everywhere(original, self._scan_site(wrapped))
                continue
            wrapped = self.timed(name, original, **hooks.get(name, {}))
            if home.startswith("qgs"):
                self._patch_everywhere(original, lambda _site, w=wrapped: w)
            else:
                self._set(module, attr, wrapped)
        kernels = sys.modules["qgs.kernels"]
        for attr in FLOAT_KERNELS:
            original = getattr(kernels, attr)
            self._patch_everywhere(original, lambda site, o=original: self.counted(
                "weyl.kernels.calls" if site == "qgs.weyl" else "kernels.float.calls", o))
        for attr in MP_KERNELS:
            original = getattr(kernels, attr)
            self._patch_everywhere(original, lambda _site, o=original: self.counted(
                "kernels.mp.calls", o))

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- report ------------------------------------------------------------
    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per pass of the job list."""
        out = {}
        for _, _, name in TIMED:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.s"] = self.incl[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        for name, _ in COUNTERS:
            out[name] = self.counts[name] / passes
        spectra = sum(self.calls[n] for n in SPECTRUM_FUNCS)
        hc_scans = self.counts["rootscan.scans.highcontrast"]
        out["rootscan.scans_per_spectrum"] = hc_scans / spectra if spectra else 0.0
        out["inverse.fit_residual.max"] = self.maxima["inverse.fit_residual.max"]
        for _, bucket in SIZE_BUCKETS:
            calls = self.counts[f"sigma.{bucket}.calls"]
            out[f"scattering.sigma_external.ms_per_call.{bucket}"] = (
                1000.0 * self.counts[f"sigma.{bucket}.s"] / calls if calls else 0.0)
        return out
