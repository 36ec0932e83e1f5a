"""Every script in demos/ runs to its end and prints its sections."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

HEADERS = {
    "coupling_recovery.py": [
        "=== oracle mode: full recovery ===",
        "=== sampled mode: lead vertices only ===",
        "=== and from scattering data instead of the response map ===",
        "extracted response matches the direct one to"],
    "high_contrast_bands.py": [
        "first two band functions, eps = 0.1 vs the limit model:",
        "convergence study over eps in {0.2, 0.1, 0.05, 0.025}:",
        "same limit bands through the shifted parametrisation:",
        "anchor at tau = 0:"],
    "interval_and_star_spectra.py": [
        "Neumann interval (exact: (n*pi)^2)",
        "3-star, coupling 0.5 at the centre",
        "triangle with mixed couplings",
        "interval with coupling -1 at both ends:",
        "Dirichlet pinch at coupling +1e6 on both ends:"],
    "lead_scattering_sweep.py": [
        "reflection coefficient along s in [0.5, 30]:",
        "dense sweep:",
        "unwrapped phase change over the sweep:"],
}


def test_every_demo_has_its_headers_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(HEADERS)


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_demo_runs_and_prints_its_sections(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    starts = [next((i for i, line in enumerate(lines)
                    if line.lstrip().startswith(header)), None)
              for header in HEADERS[name]]
    assert None not in starts, dict(zip(HEADERS[name], starts))
    assert starts == sorted(starts)
