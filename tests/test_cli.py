"""Command-line interface: subcommands, exit codes, determinism."""

import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from qgs import (CouplingMatrix, Edge, MetricGraph, Vertex,
                 compact_spectrum, load_graph, robin_to_dirichlet,
                 serialize_graph)
from qgs.cli import main, parse_grid

from conftest import PERFBENCH


@pytest.fixture
def graph_file(tmp_path):
    g = MetricGraph(
        [Vertex("V1", 0.5), Vertex("V2", -0.25), Vertex("V3", 1.0)],
        [Edge("V1", "V2", 1.0), Edge("V2", "V3", math.sqrt(2)),
         Edge("V1", "V3", math.sqrt(3))],
        leads=["V1"])
    path = tmp_path / "graph.json"
    path.write_text(serialize_graph(g))
    return str(path)


@pytest.fixture
def interval_file(tmp_path):
    g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", 1.0)])
    path = tmp_path / "interval.json"
    path.write_text(serialize_graph(g))
    return str(path)


# --------------------------------------------------------------------------
# grid parsing
# --------------------------------------------------------------------------

def test_parse_grid_range_inclusive():
    assert parse_grid("1:2:0.5") == [1.0, 1.5, 2.0]


def test_parse_grid_comma_and_scalar():
    assert parse_grid("3,1,2") == [3.0, 1.0, 2.0]
    assert parse_grid("4.25") == [4.25]


def test_parse_grid_rejects_bad_range():
    with pytest.raises(ValueError):
        parse_grid("1:2:0")
    with pytest.raises(ValueError):
        parse_grid("1:2:3:4")
    # the point count (b - a) / step, or the span b - a, overflows
    for spec in ("1:2:5e-324", "0:1:1e-320", "-1e308:1e308:1",
                 "1e308:-1e308:1"):
        with pytest.raises(ValueError, match=f"range '{spec}' has no finite"):
            parse_grid(spec)


@pytest.mark.parametrize("spec", ["", ",", " , ", "2:1:1"])
def test_parse_grid_rejects_empty(spec):
    with pytest.raises(ValueError, match="empty"):
        parse_grid(spec)


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def test_spectrum_both_modes(interval_file, capsys):
    rc = main(["spectrum", "--graph", interval_file, "--zmax", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == ("index,eigenvalue_weyl,eigenvalue_matching,"
                        "multiplicity,kernel_sv")
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 4
    for row in rows:
        assert row[1] == row[2]
        assert 0.0 <= float(row[4]) < 1e-8
    assert float(rows[1][1]) == pytest.approx(math.pi ** 2, abs=1e-8)


def test_spectrum_lists_a_root_on_a_pole_at_zmax(interval_file, capsys):
    """On the unit interval (7 pi)^2 is an eigenvalue on a pole of M.  With
    z_max exactly there, the float count's jump lands past the window; the
    bracket past it stops at the pole, so the library and the CLI both
    list it, with multiplicity 1."""
    z_max = (7 * math.pi) ** 2
    g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", 1.0)])
    eigs = compact_spectrum(g, CouplingMatrix.zeros(g), z_max)
    assert (eigs[-1].z, eigs[-1].multiplicity) == (483.61061565337855, 1)
    rc = main(["spectrum", "--graph", interval_file, "--zmax",
               "%.17g" % z_max])
    assert rc == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")][1:]
    assert len(rows) == 8
    assert rows[-1][1:4] == ["483.61061565337855"] * 2 + ["1"]


def test_spectrum_single_mode_columns(interval_file, capsys):
    rc = main(["spectrum", "--graph", interval_file, "--zmax", "50",
               "--mode", "matching"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "index,eigenvalue,multiplicity,mode,kernel_sv"
    assert lines[1].split(",")[3] == "matching"
    assert main(["spectrum", "--graph", interval_file, "--zmax", "50",
                 "--mode", "weyl"]) == 0
    weyl = [ln for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")]
    assert weyl[0] == "index,eigenvalue,multiplicity,mode"
    # the same rows, less the margin column
    assert [ln.rsplit(",", 1)[0].replace("matching", "weyl")
            for ln in lines[1:]] == weyl[1:]


def test_spectrum_both_pairs_rows_by_eigenvalue(capsys, monkeypatch):
    """On missed-06, whose close pairs a scan in sqrt|z| used to miss,
    --mode both counts once and checks that one list: each row holds one
    counted eigenvalue in both columns, its multiplicity and the margin of
    its matching kernel check, and no cell reads nan."""
    import qgs.cli
    path = os.path.join(PERFBENCH, "graphs", "missed-06.json")
    g = load_graph(path)
    kappa = CouplingMatrix.from_graph(g)
    ws = compact_spectrum(g, kappa, 100.0, "weyl")
    counts = []
    real = qgs.cli.compact_spectrum

    def counting(*args, **kwargs):
        counts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qgs.cli, "compact_spectrum", counting)
    rc = main(["spectrum", "--graph", path, "--zmax", "100"])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line[:1].isdigit()]
    assert rc == 0
    assert len(counts) == 1
    assert "nan" not in {cell for r in rows for cell in r}
    assert [r[1] for r in rows] == ["%.17g" % e.z for e in ws]
    assert [r[2] for r in rows] == [r[1] for r in rows]
    assert [int(r[3]) for r in rows] == [e.multiplicity for e in ws]
    assert all(0.0 <= float(r[4]) < 1e-8 for r in rows)


def test_spectrum_kappa_override(interval_file, capsys):
    rc = main(["spectrum", "--graph", interval_file, "--zmax", "50",
               "--kappa", "1e6,1e6", "--mode", "weyl"])
    out = capsys.readouterr().out
    assert rc == 0
    first = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    z1 = float(first.split(",")[1])
    assert z1 == pytest.approx(math.pi ** 2, rel=1e-4)


def test_spectrum_deterministic_bytes(graph_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        rc = main(["spectrum", "--graph", graph_file, "--zmax", "40",
                   "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")


def test_spectrum_bad_kappa_count(interval_file, capsys):
    rc = main(["spectrum", "--graph", interval_file, "--zmax", "10",
               "--kappa", "1,2,3"])
    assert rc == 2
    assert "canonical vertex order" in capsys.readouterr().err


def test_spectrum_missing_file(capsys):
    rc = main(["spectrum", "--graph", "/nonexistent.json", "--zmax", "10"])
    assert rc == 2


def test_spectrum_invalid_graph(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [{"id": "A"}], "edges": []}')
    rc = main(["spectrum", "--graph", str(bad), "--zmax", "10"])
    assert rc == 2
    assert "no edges" in capsys.readouterr().err


# --------------------------------------------------------------------------
# smatrix
# --------------------------------------------------------------------------

def test_smatrix_scalar_json(graph_file, capsys):
    rc = main(["smatrix", "--graph", graph_file, "--s", "2.0"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["s"] == 2.0
    assert payload["external_order"] == ["V1"]
    assert payload["unitarity_defect"] < 1e-10
    entry = complex(payload["entries_re"][0][0], payload["entries_im"][0][0])
    assert abs(abs(entry) - 1.0) < 1e-10


def test_smatrix_grid_csv(graph_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["smatrix", "--graph", graph_file, "--s", "0.5:5:0.5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert data[0].split(",")[:3] == ["s", "re_V1_V1", "im_V1_V1"]
    assert len(data) == 11  # header + 10 points


def test_smatrix_jobs_deterministic(graph_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["smatrix", "--graph", graph_file, "--s", "0.5:8:0.25",
          "--jobs", "4", "--out", str(a)])
    main(["smatrix", "--graph", graph_file, "--s", "0.5:8:0.25",
          "--jobs", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_smatrix_skips_poles(tmp_path, capsys):
    g = MetricGraph([Vertex("V1"), Vertex("V2")], [Edge("V1", "V2", 1.0)],
                    leads=["V1"])
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(g))
    rc = main(["smatrix", "--graph", str(path), "--s",
               f"1.0,{math.pi**2},4.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# skipped" in out
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(data) == 3  # header + 2 surviving points


def test_warnings_go_to_stderr_as_bare_lines(tmp_path, capsys):
    """A validation warning names the graph file, and a sweep with skipped
    points says how many: each one bare line on stderr, nothing on it
    otherwise."""
    g = MetricGraph([Vertex("A"), Vertex("B"), Vertex("C")],
                    [Edge("A", "B", 1.0), Edge("B", "C", 2.0)])
    path = tmp_path / "rational.json"
    path.write_text(serialize_graph(g))
    assert main(["spectrum", "--graph", str(path), "--zmax", "1"]) == 0
    assert capsys.readouterr().err == (
        f"{path}: edge lengths may be rationally dependent (ratio 1/2 ~ "
        "rational); reconstruction guarantees assume rational "
        "independence\n")
    g = MetricGraph([Vertex("V1"), Vertex("V2")], [Edge("V1", "V2", 1.0)],
                    leads=["V1"])
    path.write_text(serialize_graph(g))
    assert main(["smatrix", "--graph", str(path), "--s",
                 f"1.0,{math.pi**2},4.0"]) == 0
    assert capsys.readouterr().err == "1 grid points skipped\n"


def test_smatrix_needs_leads(interval_file, capsys):
    rc = main(["smatrix", "--graph", interval_file, "--s", "1.0"])
    assert rc == 2
    assert "lead" in capsys.readouterr().err


# --------------------------------------------------------------------------
# invert
# --------------------------------------------------------------------------

def test_invert_forward_roundtrip(graph_file, tmp_path, capsys):
    res = tmp_path / "residuals.csv"
    rc = main(["invert", "--graph-topology", graph_file,
               "--oracle", "forward", "--true-couplings", "0.5,-0.25,1.0",
               "--residuals-out", str(res)])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["couplings"]["V1"][0] == pytest.approx(0.5, abs=1e-6)
    assert payload["couplings"]["V2"][0] == pytest.approx(-0.25, abs=1e-6)
    assert payload["couplings"]["V3"][0] == pytest.approx(1.0, abs=1e-6)
    assert payload["metadata"]["mode"] == "forward-oracle"
    lines = res.read_text().splitlines()
    assert lines[1] == "target,path_length,value_re,value_im,residual"
    assert len(lines) == 5


SHORT_LOOP_COUPLINGS = [0.5, -1.25, 0.75, 1.5]


def _short_loop(tmp_path):
    """A graph with a 0.3-long loop and one lead, and its JSON file."""
    g = MetricGraph(
        [Vertex("V1"), Vertex("V2"), Vertex("V3"), Vertex("V4")],
        [Edge("V1", "V2", 1.0), Edge("V2", "V2", 0.3),
         Edge("V2", "V3", math.sqrt(2)), Edge("V3", "V4", math.sqrt(3))],
        leads=["V1"])
    path = tmp_path / "short-loop.json"
    path.write_text(serialize_graph(g))
    return g, path


def _rational_warning(path):
    """The validation warning on stderr for the graph of _short_loop, whose
    lengths 1 and 0.3 are rationally dependent."""
    return (f"{path}: edge lengths may be rationally dependent (ratio "
            "1/0.3 ~ rational); reconstruction guarantees assume rational "
            "independence\n")


def _ladder_samples(tmp_path, g, couplings):
    """A CSV of the one-lead response map on the ladder -(32 * 2^j)^2."""
    k = CouplingMatrix.from_values(g, couplings)
    grid = [-((32.0 * 2 ** j) ** 2) for j in range(7)]
    csv = tmp_path / "samples.csv"
    csv.write_text("z,re,im\n" + "".join(
        f"{z},{v.real},{v.imag}\n"
        for z, v in zip(grid, robin_to_dirichlet(g, k, grid)[:, 0, 0])))
    return csv


def test_invert_forward_ladder_scales_with_the_shortest_edge(tmp_path,
                                                              capsys):
    """A 0.3-long loop leaves terms of order exp(-0.3 tau) in the probes.
    The default ladder starts at tau0 = 32/0.3 and recovers every coupling
    to 1e-8; --tau0 32 still starts where it says, and misses by far more."""
    g, path = _short_loop(tmp_path)
    true = SHORT_LOOP_COUPLINGS
    argv = ["invert", "--graph-topology", str(path), "--oracle", "forward",
            "--true-couplings", ",".join(map(str, true))]

    def worst_error(payload):
        return max(abs(complex(*payload["couplings"][vid]) - a)
                   for vid, a in zip(g.vertex_ids(), true))

    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["tau0"] == 32.0 / 0.3
    assert worst_error(payload) < 1e-8
    assert main(argv + ["--tau0", "32"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["tau0"] == 32.0
    assert worst_error(payload) > 1e-6

    # sampled data keeps the 32 * 2^j ladder its samples were taken on
    csv = _ladder_samples(tmp_path, g, true)
    assert main(["invert", "--graph-topology", str(path),
                 "--rtd-samples", str(csv)]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["tau0"] == 32.0


def test_invert_rtd_samples_warns_when_the_ladder_is_too_shallow(
        tmp_path, graph_file, capsys):
    """--rtd-samples keeps tau0 = 32.  On a graph with a 0.3-long loop,
    where max(32, 32/l_min) is 32/0.3, that ladder is too shallow: stderr
    says so, while stdout (the sampled-data payload at tau0 = 32) and
    the exit code 0 stay as they were.  Each run first warns that the
    lengths are rationally dependent."""
    g, path = _short_loop(tmp_path)
    csv = _ladder_samples(tmp_path, g, SHORT_LOOP_COUPLINGS)
    argv = ["invert", "--graph-topology", str(path), "--rtd-samples",
            str(csv)]
    rational = _rational_warning(path)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err.startswith(rational + "warning: probe ladder starts at "
                          "tau0 = 32, below max(32, 32/l_min) = 106.667")
    payload = json.loads(out)
    assert payload["metadata"]["tau0"] == 32.0
    assert payload["metadata"]["mode"] == "sampled-data"
    assert set(payload["couplings"]) == {"V1"}
    # --tau0 at the graph's own ladder start does not warn; the samples
    # stop short of that ladder, so they are refused in one line
    assert main(argv + ["--tau0", str(32.0 / 0.3)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == rational + ("error: sample grid reaches only "
                              "z=-4.1943e+06; the probe ladder needs "
                              "z=-4.66034e+07\n")
    # a graph whose shortest edge is 1 long keeps quiet
    csv = _ladder_samples(tmp_path, load_graph(graph_file), [0.5, -0.25, 1.0])
    assert main(["invert", "--graph-topology", graph_file,
                 "--rtd-samples", str(csv)]) == 0
    assert capsys.readouterr().err == ""


def test_invert_ladder_too_deep_for_doubles_diverges(graph_file, capsys):
    """At tau0 = 1e16 one ulp of the deepest drift tau * D is 256, so the
    samples keep no digit of the coupling sums: exit 3 naming the path,
    where the fit used to return every coupling as 0 with exit 0.  A
    ladder at tau0 = 1e10 still recovers the couplings."""
    argv = ["invert", "--graph-topology", graph_file, "--oracle", "forward",
            "--true-couplings", "0.5,-0.25,1.0"]
    assert main(argv + ["--tau0", "1e16"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: extrapolation residual 2.560e+02 > "
                   "1.000e-03 for path to 'V1'\n")
    assert main(argv + ["--tau0", "1e10"]) == 0
    couplings = json.loads(capsys.readouterr().out)["couplings"]
    for vid, want in [("V1", 0.5), ("V2", -0.25), ("V3", 1.0)]:
        assert couplings[vid][0] == pytest.approx(want, abs=1e-6)


def test_invert_residuals_need_the_forward_oracle(tmp_path, capfd):
    """Sampled data give no path-sum residuals, so --residuals-out with
    --rtd-samples is refused, where it used to write nothing and exit 0,
    after the warning that the graph's lengths are rationally
    dependent."""
    g, path = _short_loop(tmp_path)
    csv = _ladder_samples(tmp_path, g, SHORT_LOOP_COUPLINGS)
    res = tmp_path / "residuals.csv"
    _refused(["invert", "--graph-topology", str(path), "--rtd-samples",
              str(csv), "--residuals-out", str(res)], capfd,
             "--residuals-out needs --oracle forward",
             _rational_warning(path))
    assert not res.exists()


def test_invert_needs_a_source(graph_file, capsys):
    rc = main(["invert", "--graph-topology", graph_file])
    assert rc == 2


def test_invert_from_samples(graph_file, tmp_path, capsys):
    g = MetricGraph(
        [Vertex("V1", 0.5), Vertex("V2", -0.25), Vertex("V3", 1.0)],
        [Edge("V1", "V2", 1.0), Edge("V2", "V3", math.sqrt(2)),
         Edge("V1", "V3", math.sqrt(3))],
        leads=["V1"])
    k = CouplingMatrix.from_graph(g)
    csv = tmp_path / "samples.csv"
    grid = [-((32.0 * 2 ** j) ** 2) for j in range(8)]
    rows = ["z,re,im"] + [
        f"{z},{v.real},{v.imag}"
        for z, v in zip(grid, robin_to_dirichlet(g, k, grid)[:, 0, 0])]
    csv.write_text("\n".join(rows) + "\n")
    rc = main(["invert", "--graph-topology", graph_file,
               "--rtd-samples", str(csv)])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["metadata"]["mode"] == "sampled-data"
    assert payload["couplings"]["V1"][0] == pytest.approx(0.5, abs=1e-6)


def test_invert_diverges_on_bad_samples(graph_file, tmp_path, capsys):
    """A sample grid that stops far short of the probe ladder is refused
    with exit 2 and one line, instead of being extrapolated."""
    csv = tmp_path / "coarse.csv"
    rows = ["z,re,im"]
    for z in np.linspace(-10, -1, 12):
        rows.append(f"{z},{1.0 / z},0.0")
    csv.write_text("\n".join(rows) + "\n")
    rc = main(["invert", "--graph-topology", graph_file,
               "--rtd-samples", str(csv)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: sample grid reaches only z=-10; the probe ladder needs "
        "z=-4.1943e+06\n")


def test_invert_rejects_malformed_csv(graph_file, tmp_path, capsys):
    csv = tmp_path / "broken.csv"
    csv.write_text("z,re,im\n-1024.0,0.5\n")
    rc = main(["invert", "--graph-topology", graph_file,
               "--rtd-samples", str(csv)])
    assert rc == 2


@pytest.mark.parametrize("column", [0, 1, 2])
def test_invert_refuses_nan_samples(graph_file, tmp_path, capfd, column):
    """A nan grid point or sample value is refused with the line named,
    where it used to print nan couplings, which is not JSON, and exit 0."""
    csv = _ladder_samples(tmp_path, load_graph(graph_file), [0.5, -0.25, 1.0])
    rows = csv.read_text().splitlines()
    fields = rows[3].split(",")
    fields[column] = "nan"
    rows[3] = ",".join(fields)
    csv.write_text("\n".join(rows) + "\n")
    _refused(["invert", "--graph-topology", graph_file, "--rtd-samples",
              str(csv)], capfd, "(line 4)")


def test_invert_zero_sample_diverges(graph_file, tmp_path, capsys):
    """A 0.0 sample at a ladder node, where -1/f is infinite, exits 3
    naming the path, where it used to end in a ZeroDivisionError."""
    csv = _ladder_samples(tmp_path, load_graph(graph_file), [0.5, -0.25, 1.0])
    rows = csv.read_text().splitlines()
    rows[3] = rows[3].split(",")[0] + ",0.0,0.0"
    csv.write_text("\n".join(rows) + "\n")
    assert main(["invert", "--graph-topology", graph_file,
                 "--rtd-samples", str(csv)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: extrapolation residual")
    assert err.endswith("for path to 'V1'\n")


# --------------------------------------------------------------------------
# homog
# --------------------------------------------------------------------------

def test_homog_table_and_orders(tmp_path):
    disp = tmp_path / "disp.csv"
    rc = main(["homog", "--l1", "0.25", "--l2", "0.5",
               "--eps-list", "0.2,0.1,0.05", "--tau-grid", "0,1.5",
               "--bands", "2", "--out", str(disp)])
    assert rc == 0
    text = disp.read_text()
    assert "# convergence" in text
    data = [ln for ln in text.splitlines()
            if ln and not ln.startswith("#")]
    # 2 taus * 2 bands * (3 eps + hom + hom-shifted)
    assert len([r for r in data if r.startswith("eps:")]) == 12
    assert len([r for r in data if r.startswith("hom,")]) == 4
    assert len([r for r in data if r.startswith("hom-shifted,")]) == 4
    # fitted orders sit near 2
    conv = [ln for ln in data if ln[0].isdigit() and ln.count(",") == 4]
    orders = {float(ln.split(",")[4]) for ln in conv
              if ln.split(",")[4] != "nan"}
    assert orders and all(1.8 < o < 2.3 for o in orders)


def test_homog_split_orders_file(tmp_path):
    disp, orders = tmp_path / "d.csv", tmp_path / "o.csv"
    rc = main(["homog", "--l1", "0.25", "--l2", "0.5",
               "--eps-list", "0.2,0.1,0.05", "--tau-grid", "1.0",
               "--bands", "1", "--out", str(disp),
               "--orders-out", str(orders)])
    assert rc == 0
    assert "# convergence" not in disp.read_text()
    assert "fitted_order" in orders.read_text()


def test_homog_rejects_bad_widths(capsys):
    rc = main(["homog", "--l1", "0.7", "--l2", "0.5",
               "--eps-list", "0.1", "--tau-grid", "0"])
    assert rc == 2


def test_homog_deterministic_across_jobs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, jobs in ((a, "3"), (b, "1")):
        main(["homog", "--l1", "0.3", "--l2", "0.45",
              "--eps-list", "0.1", "--tau-grid", "0:3.0:0.75",
              "--bands", "2", "--jobs", jobs, "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------------------
# check + module entry
# --------------------------------------------------------------------------

def test_check_suite_passes(capsys):
    rc = main(["check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("invariants passed")


def test_module_entry_help():
    proc = subprocess.run([sys.executable, "-m", "qgs", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("spectrum", "smatrix", "invert", "homog", "check"):
        assert sub in proc.stdout


def test_main_builds_its_parser_once(graph_file, interval_file, capsys,
                                     monkeypatch):
    """main parses every call with one parser; its runs, help and usage
    errors included, print what a freshly built parser prints, with the
    same exit codes."""
    from qgs import cli
    runs = [
        ["spectrum", "--graph", interval_file, "--zmax", "10",
         "--mode", "weyl"],
        ["smatrix", "--graph", graph_file, "--s", "2.0"],
        ["spectrum", "--graph", interval_file],          # --zmax missing
        ["--help"],
        ["invert", "--help"],
        ["spectrum", "--graph", interval_file, "--zmax", "10", "--mode",
         "weyl"],
    ]

    def outputs():
        got = []
        for argv in runs:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            got.append((rc, *capsys.readouterr()))
        return got

    cached = outputs()
    assert cli.build_parser() is cli.build_parser()
    assert [rc for rc, _, _ in cached] == [0, 0, 2, 0, 0, 0]
    assert cached[0] == cached[-1]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == cached


def test_unknown_subcommand_is_usage_error():
    proc = subprocess.run([sys.executable, "-m", "qgs", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_spectrum_unconfirmed_root_exits_3_without_traceback(
        interval_file, capsys, monkeypatch):
    """A matching system that is well-conditioned at every energy confirms
    no counted root: the route raises UnconfirmedRoot, which the CLI
    reports on one line as a numerical failure, with nothing on stdout."""
    import qgs.spectra
    monkeypatch.setattr(qgs.spectra, "matching_matrix",
                        lambda graph, kappa, z, leads=(): np.eye(2))
    rc = main(["spectrum", "--graph", interval_file, "--zmax", "1",
               "--mode", "matching"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("numerical failure: matching kernel does not "
                          "confirm the counted root z=")
    assert err.endswith("of multiplicity 1: nullity 0\n")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_homog_computes_each_spectrum_once(tmp_path, monkeypatch):
    """One lockstep solve for all eps-model spectra, one table of the
    limit model, and the convergence fit reuses the spectra of the
    dispersion rows."""
    import qgs.cli
    import qgs.highcontrast
    calls = {"eps_spectra": 0, "hom_tau_spectra": 0}
    for name in calls:
        real = getattr(qgs.highcontrast, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        # every binding, so a call from either module counts
        monkeypatch.setattr(qgs.highcontrast, name, counting)
        if hasattr(qgs.cli, name):
            monkeypatch.setattr(qgs.cli, name, counting)
    rc = main(["homog", "--l1", "0.25", "--l2", "0.5",
               "--eps-list", "0.02,0.01,0.005", "--tau-grid", "0,1.5",
               "--bands", "2", "--out", str(tmp_path / "h.csv")])
    assert rc == 0
    assert "# convergence" in (tmp_path / "h.csv").read_text()
    assert calls == {"eps_spectra": 1, "hom_tau_spectra": 1}


def test_homog_duplicate_eps_is_invalid_input(capsys):
    rc = main(["homog", "--l1", "0.25", "--l2", "0.5",
               "--eps-list", "0.02,0.01,1e-2", "--tau-grid", "0",
               "--bands", "1"])
    assert rc == 2
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------------------
# out-of-range numbers: exit 2 with a message, nothing on stdout
# --------------------------------------------------------------------------

def _refused(argv, capfd, names="", warnings=""):
    """Exit 2, nothing on stdout, and on stderr the lines `warnings` and an
    error message containing `names`, the bad input's name."""
    rc = main(argv)
    captured = capfd.readouterr()  # file-descriptor level, so LAPACK too
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(warnings + "error: ")
    assert names in captured.err


def test_spectrum_infinite_zmax_is_invalid_input(interval_file, capfd):
    _refused(["spectrum", "--graph", interval_file, "--zmax", "inf"], capfd)


def test_spectrum_nan_zmax_is_invalid_input(interval_file, capfd):
    _refused(["spectrum", "--graph", interval_file, "--zmax", "nan"], capfd)


def test_smatrix_infinite_grid_is_invalid_input(graph_file, capfd):
    _refused(["smatrix", "--graph", graph_file, "--s", "1:inf:1"], capfd)


@pytest.mark.parametrize("option,value,names", [
    ("--s", "1:11:1", "range '1:11:1' has 11 points, more than 10"),
    ("--tau-grid", "0:10:1", "has 11 points, more than 10"),
    ("--bands", "4", "3 eps x 1 tau x 4 bands is more than 10 fiber roots"),
])
def test_oversized_grid_or_study_is_invalid_input(graph_file, capfd,
                                                  monkeypatch, option,
                                                  value, names):
    """A range of more than MAX_POINTS points, or a homog study of more
    than MAX_POINTS eps x tau x band roots, is refused by its count before
    anything is built; at MAX_POINTS it is taken."""
    import qgs.cli
    monkeypatch.setattr(qgs.cli, "MAX_POINTS", 10)
    argv = ["smatrix", "--graph", graph_file, "--s", "1"] \
        if option == "--s" else _homog()
    argv[argv.index(option) + 1] = value
    _refused(argv, capfd, names)
    assert len(parse_grid("1:10:1")) == 10


@pytest.mark.parametrize("argv,names", [
    (["smatrix", "--graph", os.path.join(os.path.dirname(__file__), "pinned",
                                         "two-leads.json"),
      "--s", "1:1e10:1"], "has 10000000000 points"),
    (["homog", "--l1", "0.25", "--l2", "0.5", "--eps-list", "0.1",
      "--tau-grid", "0", "--bands", "1000000000"],
     "1000000000 bands is more than"),
])
def test_huge_grids_exit_2_in_a_capped_address_space(argv, names):
    """With the address space capped at 800 MB these commands used to end
    in a MemoryError traceback with exit 1; the cap keeps a regression
    from taking the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (800_000 * 1024,) * 2)
    proc = subprocess.run(
        [sys.executable, "-m", "qgs", *argv], capture_output=True,
        text=True, preexec_fn=cap, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and names in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_invert_zero_tau0_is_invalid_input(graph_file, capfd):
    _refused(["invert", "--graph-topology", graph_file, "--oracle", "forward",
              "--true-couplings", "0.5,-0.25,1.0", "--tau0", "0"], capfd)


def test_invert_three_levels_is_invalid_input(graph_file, capfd):
    """Three levels fit the three ladder coefficients exactly, leaving no
    residual to detect a divergence with."""
    _refused(["invert", "--graph-topology", graph_file, "--oracle", "forward",
              "--true-couplings", "0.5,-0.25,1.0", "--levels", "3"], capfd)


def test_invert_overflowing_ladder_is_invalid_input(graph_file, capfd):
    """A ladder whose deepest energy -(tau0 * 2^(levels - 1))^2 is no
    finite double is refused before any probe, by many levels or by a
    large tau0."""
    argv = ["invert", "--graph-topology", graph_file, "--oracle", "forward",
            "--true-couplings", "0.5,-0.25,1.0"]
    _refused(argv + ["--levels", "1100"], capfd, "levels")
    _refused(argv + ["--tau0", "1e160"], capfd, "tau0")
    # 1/tau0^2 in the fit's design matrix overflows too: refused by name,
    # before numpy warns of a division by zero and LAPACK fails
    _refused(argv + ["--tau0", "1e-300"], capfd, "tau0 = 1e-300")


def test_smatrix_nonpositive_energy_is_invalid_input(graph_file, capfd):
    """No wave propagates on a lead at s <= 0; such energies used to print
    the identity with unitarity defect 0, or a skipped SingularMatrix."""
    _refused(["smatrix", "--graph", graph_file, "--s=-4,-1,0.5"], capfd,
             "s=-4")
    _refused(["smatrix", "--graph", graph_file, "--s=0"], capfd, "s=0")


def test_infinite_edge_length_is_invalid_input(tmp_path, capfd):
    """JSON's Infinity is a length validate refuses, not a traceback."""
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "A"}, {"id": "B"}, {"id": "C"}],
        "edges": [{"from": "A", "to": "B", "length": math.inf},
                  {"from": "B", "to": "C", "length": 1.0}],
        "leads": ["A"]}))
    _refused(["smatrix", "--graph", str(path), "--s", "1"], capfd,
             "non-positive length inf")


@pytest.mark.parametrize("tol,name", [("nan", "factor_tol"),
                                      ("-1", "factor_tol")])
def test_smatrix_nan_factor_tol_is_invalid_input(graph_file, capfd, tol,
                                                 name):
    """No defect exceeds a NaN tolerance, so the check could never fire;
    every defect exceeds a negative one, so every point would be skipped."""
    _refused(["smatrix", "--graph", graph_file, "--s", "1,2",
              "--factor-tol", tol], capfd, name)


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_smatrix_factor_tol_is_refused_before_the_graph_is_read(tmp_path,
                                                                capfd, tol):
    """One line naming factor_tol, though the graph file is missing."""
    rc = main(["smatrix", "--graph", str(tmp_path / "missing.json"), "--s",
               "1,2", "--factor-tol", tol])
    captured = capfd.readouterr()
    assert (rc, captured.out) == (2, "")
    message = f"factor_tol must be >= 0, got {float(tol)!r}"
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_invert_nan_fit_tol_is_invalid_input(graph_file, capfd, tol):
    _refused(["invert", "--graph-topology", graph_file, "--oracle", "forward",
              "--true-couplings", "0.5,-0.25,1.0", "--fit-tol", tol], capfd,
             "fit_tol")


def _homog(l1="0.25", a="1", eps="0.1,0.05,0.02", bands="1"):
    return ["homog", "--l1", l1, "--l2", "0.5", "--a", a, "--eps-list", eps,
            "--tau-grid", "0", "--bands", bands]


def test_homog_infinite_epsilon_is_invalid_input(capfd):
    _refused(_homog(eps="inf,0.1,0.05"), capfd, "epsilon must be finite")


def test_homog_nan_width_is_invalid_input(capfd):
    _refused(_homog(l1="nan"), capfd, "l1 must be finite")


def test_homog_infinite_contrast_is_invalid_input(capfd):
    _refused(_homog(a="inf"), capfd, "a must be finite")


@pytest.mark.parametrize("argv", [
    _homog(eps="1e-200,0.01,0.005", bands="2"),
    _homog(eps="1e-160,0.01,0.005", bands="2"),
    _homog(a="1e308", eps="0.01,0.005,0.0025", bands="2"),
])
def test_homog_stiff_coefficient_out_of_range_is_invalid_input(argv, capfd):
    """a/eps^2 that is infinite used to end in a ZeroDivisionError traceback
    or in math.ceil's "cannot convert float NaN to integer"."""
    _refused(argv, capfd, "stiff coefficient a/eps^2")


def test_empty_grid_list_is_invalid_input(graph_file, capfd):
    """An empty list used to print the headers alone (or, for --eps-list,
    the limit models alone) and exit 0."""
    _refused(_homog()[:-4] + ["--tau-grid=", "--bands", "1"], capfd,
             "empty list")
    _refused(_homog(eps=","), capfd, "empty list")
    _refused(["smatrix", "--graph", graph_file, "--s="], capfd, "empty list")
    _refused(["smatrix", "--graph", graph_file, "--s", ","], capfd,
             "empty list")


def test_range_without_finite_point_count_is_invalid_input(graph_file,
                                                          capfd):
    """A range whose point count overflows used to end in an OverflowError
    traceback, exit 1."""
    _refused(["smatrix", "--graph", graph_file, "--s", "1:2:5e-324"], capfd,
             "'1:2:5e-324' has no finite point count")
    _refused(_homog()[:-4] + ["--tau-grid", "0:1:1e-320", "--bands", "1"],
             capfd, "'0:1:1e-320' has no finite point count")


def test_homog_zero_bands_is_invalid_input(capfd):
    _refused(_homog(bands="0"), capfd, "bands must be at least 1")


def test_homog_negative_bands_is_invalid_input(capfd):
    _refused(_homog(bands="-1"), capfd, "bands must be at least 1")


def test_spectrum_nan_coupling_is_invalid_input(interval_file, capfd):
    _refused(["spectrum", "--graph", interval_file, "--zmax", "10",
              "--kappa", "nan,0"], capfd, "vertex 'A'")
