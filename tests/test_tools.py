"""The benchmark tools: what each side ran, output digests, scaling runs."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pair():
    path = os.path.join(ROOT, "tools", "bench_pair.py")
    spec = importlib.util.spec_from_file_location("bench_pair", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid",
         *args], cwd=repo, check=True, capture_output=True,
        text=True).stdout.strip()


def test_worktree_tree_follows_edits_and_leaves_the_index(tmp_path,
                                                          bench_pair):
    repo = str(tmp_path)
    _git(repo, "init", "-q")
    (tmp_path / ".gitignore").write_text("scratch/\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    head_tree = _git(repo, "rev-parse", "HEAD^{tree}")
    assert bench_pair.worktree_tree(repo) == head_tree

    (tmp_path / "scratch").mkdir()
    (tmp_path / "scratch" / "out.txt").write_text("ignored\n")
    assert bench_pair.worktree_tree(repo) == head_tree

    (tmp_path / "a.py").write_text("x = 2\n")
    edited = bench_pair.worktree_tree(repo)
    assert edited != head_tree
    (tmp_path / "b.py").write_text("y = 1\n")
    assert bench_pair.worktree_tree(repo) not in (head_tree, edited)
    # nothing was staged in the repository's own index
    assert _git(repo, "diff", "--cached", "--name-only") == ""


@pytest.fixture(scope="module")
def output_digest():
    path = os.path.join(ROOT, "tools", "output_digest.py")
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_dump_and_against(tmp_path, monkeypatch, capsys,
                                 output_digest):
    """--dump writes each job's output; --against reports, per job whose
    output differs from the dumped one, how many numbers changed, by how
    much at most and in which CSV columns, or that the text or the file
    differs, and then the same per workload; it exits 1 when any output
    differs or is missing, and 0 when none does."""
    monkeypatch.chdir(ROOT)     # the tool works from the checkout root
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import inputs

    def tiny(inp):
        graph = inputs.fixed_graph("acceptance-multigraph")
        return [inp.invert_job(graph, "a"), inp.invert_job(graph, "b"),
                inp.spectrum_job(graph, "c", 3.0, "both")]

    monkeypatch.setitem(inputs.WORKLOADS, "tiny", tiny)
    dump = tmp_path / "dump"
    argv = ["--seed", "1", "--workload", "tiny"]
    assert output_digest.main(argv + ["--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [["tiny", "000", "a"],
                                                   ["tiny", "001", "b"],
                                                   ["tiny", "002", "c"]]
    first = dump / "tiny-000-a.out"
    text = first.read_text()
    assert '"couplings"' in text

    def against(status=1):
        assert output_digest.main(argv + ["--against", str(dump)]) == status
        return capsys.readouterr().out.splitlines()

    assert against(0)[-2:] == ["# tiny: 0 of 3 outputs differ",
                               f"# 0 outputs differ from {dump}"]
    numbers = output_digest.pinned_rule()._split(text)[1]
    value = next(x for x in numbers if abs(x) > 0.1)    # a coupling
    moved = value * (1 + 1e-12)
    first.write_text(text.replace(repr(value), repr(moved), 1))
    lines = against()
    assert lines[0].endswith(f" differs: 1 of {len(numbers)} numbers "
                             f"changed, max abs {abs(value - moved):.2g}, "
                             "max rel 1e-12 (beyond the pinned tolerance)")
    assert "differs" not in lines[1] + lines[2]
    assert lines[-2:] == [f"# tiny: 1 of 3 outputs differ, max abs "
                          f"{abs(value - moved):.2g}, max rel 1e-12",
                          f"# 1 outputs differ from {dump}"]
    first.write_text(text.replace("couplings", "coupling", 1))
    other = "# tiny: 1 of 3 outputs differ, 1 in their text or missing"
    lines = against()
    assert lines[0].endswith(" differs: text differs")
    assert lines[-2] == other
    first.unlink()
    lines = against()
    assert lines[0].endswith(" differs: missing")
    assert lines[-2] == other

    # the spectrum's CSV table: every kernel_sv cell and the zmax line moved
    first.write_text(text)
    third = dump / "tiny-002-c.out"
    table = third.read_text().splitlines(keepends=True)
    rows = [i for i, line in enumerate(table) if line[0].isdigit()]
    for i in rows:
        *cells, sv = table[i].split(",")
        table[i] = ",".join(cells + [repr(2.0 * float(sv)) + "\n"])
    third.write_text("".join(table).replace("# zmax=3", "# zmax=3.5"))
    lines = against()
    columns = f"; by column elsewhere: 1, kernel_sv: {len(rows)}"
    assert len(rows) > 1
    assert lines[2].endswith(columns) and lines[-2].endswith(columns)


def test_digest_reports_the_largest_absolute_change_beside_the_relative(
        output_digest):
    """A last-bit change of a number near 0, such as a unitarity defect,
    reads large relative but small absolute; the report gives both, each
    the largest over every changed number, and whether any change is
    beyond the pinned tolerance."""
    rule = output_digest.pinned_rule()
    want = "s,re,defect\n0.5,0.25,2.2e-14\n1.5,-0.75,3e-15\n"
    got = "s,re,defect\n0.5,0.25000000000000006,1.7e-14\n1.5,-0.75,3e-15\n"
    assert output_digest.compare(got, want, rule) == (
        "2 of 6 numbers changed, max abs 5e-15, max rel 0.23; by column "
        "re: 1, defect: 1")
    got = got.replace("-0.75", "-0.7500000001")
    assert output_digest.compare(got, want, rule) == (
        "3 of 6 numbers changed, max abs 1e-10, max rel 0.23 (beyond the "
        "pinned tolerance); by column re: 2, defect: 1")


def test_scaling_records_the_weyl_route_run(tmp_path, monkeypatch, capsys,
                                            bench_pair):
    """tools/scaling.py times the weyl route in a fresh process on this
    checkout and writes one record: the eigenvalues counted, the time, the
    energies counted per eigenvalue and the git tree of what ran."""
    path = os.path.join(ROOT, "tools", "scaling.py")
    spec = importlib.util.spec_from_file_location("scaling", path)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    monkeypatch.setattr(scaling, "OUT_DIR", str(tmp_path))
    assert scaling.main(["--n", "8"]) == 0
    assert "evaluations per eigenvalue" in capsys.readouterr().out
    with open(tmp_path / "BENCH_spectrum-8.json") as fh:
        report = json.load(fh)
    assert report["n"] == 8 and report["z_max"] == scaling.Z_MAX == 100.0
    assert report["graph"] == "family_graph(random.Random(8), 8)"
    assert "base" not in report
    change = report["change"]
    assert set(change) == {"rev", "tree", "eigenvalues", "distinct",
                           "wall_s", "evaluations", "evaluations_per_root"}
    assert change["tree"] == bench_pair.worktree_tree(ROOT)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import random

    import inputs
    from qgs import CouplingMatrix, compact_spectrum, parse_graph
    g = parse_graph(json.dumps(inputs.family_graph(random.Random(8), 8)))
    eigs = compact_spectrum(g, CouplingMatrix.from_graph(g), 100.0)
    assert change["distinct"] == len(eigs) > 0
    assert change["eigenvalues"] == sum(e.multiplicity for e in eigs)
    monkeypatch.setattr(sys, "path", list(sys.path))   # measure() adds one
    assert scaling.measure(8)["spectrum"] == \
        [[e.z, e.multiplicity] for e in eigs]
    assert scaling.compare([[0.0, 1], [2.0, 2]], [[0.0, 1], [2.0, 2]]) == {
        "same_multiplicities": True, "max_rel_change": 0.0}
    moved = scaling.compare([[0.0, 1], [2.0, 2]], [[0.0, 1], [2.0 + 2e-13, 2]])
    assert moved["max_rel_change"] == pytest.approx(1e-13)
    assert scaling.compare([[0.0, 1], [2.0, 2]], [[0.0, 2], [2.0, 1]]) == {
        "same_multiplicities": False, "max_rel_change": None}
    assert change["wall_s"] > 0.0
    assert {"python", "numpy", "cpu"} <= set(report["environment"])



def test_scaling_records_the_invert_run(tmp_path, monkeypatch, capsys,
                                        bench_pair):
    """--mode invert times the forward-oracle inversion of the one-lead
    family graph in a fresh process and records the time, the largest
    coupling error and the git tree of what ran."""
    path = os.path.join(ROOT, "tools", "scaling.py")
    spec = importlib.util.spec_from_file_location("scaling", path)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    monkeypatch.setattr(scaling, "OUT_DIR", str(tmp_path))
    assert scaling.main(["--mode", "invert", "--n", "8"]) == 0
    assert "max coupling error" in capsys.readouterr().out
    with open(tmp_path / "BENCH_invert-8.json") as fh:
        report = json.load(fh)
    assert report["n"] == 8 and "z_max" not in report
    assert report["graph"] == "family_graph(random.Random(8), 8, n_leads=1)"
    assert "base" not in report
    change = report["change"]
    assert set(change) == {"rev", "tree", "wall_s", "max_coupling_error"}
    assert change["tree"] == bench_pair.worktree_tree(ROOT)
    assert 0.0 < change["max_coupling_error"] < 1e-9
    assert change["wall_s"] > 0.0
    monkeypatch.setattr(sys, "path", list(sys.path))   # measure adds one
    couplings = scaling.measure_invert(8)["couplings"]
    assert len(couplings) == 8
    assert scaling.compare_invert(couplings, couplings) == {
        "max_coupling_change": 0.0}
    moved = [[a + 1e-12, b] for a, b in couplings]
    assert scaling.compare_invert(couplings, moved)[
        "max_coupling_change"] == pytest.approx(1e-12, rel=1e-3)


def test_scaling_records_the_smatrix_sweeps(tmp_path, monkeypatch, capsys,
                                            bench_pair):
    """--mode smatrix times a 90-energy sweep on [0.3, 30] of the family
    graph with 2 and with 10 leads in a fresh process, and records per lead
    count the time, the worst unitarity defect and the skipped energies,
    and the git tree of what ran; compare_smatrix gives the largest entry
    change between two sides that answer the same energies."""
    path = os.path.join(ROOT, "tools", "scaling.py")
    spec = importlib.util.spec_from_file_location("scaling", path)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    monkeypatch.setattr(scaling, "OUT_DIR", str(tmp_path))
    assert scaling.main(["--mode", "smatrix", "--n", "12"]) == 0
    assert "10 leads swept in" in capsys.readouterr().out
    with open(tmp_path / "BENCH_smatrix-12.json") as fh:
        report = json.load(fh)
    assert report["n"] == 12
    assert report["graph"] == \
        "family_graph(random.Random(12), 12, n_leads=leads)"
    assert (report["leads"], report["s_range"], report["s_points"]) == \
        ([2, 10], [0.3, 30.0], 90)
    assert "base" not in report
    change = report["change"]
    assert set(change) == {"rev", "tree", "wall_s", "sweeps"}
    assert change["tree"] == bench_pair.worktree_tree(ROOT)
    assert set(change["sweeps"]) == {"2", "10"}
    for sweep in change["sweeps"].values():
        assert set(sweep) == {"wall_s", "max_unitarity_defect", "skipped"}
        assert 0.0 < sweep["max_unitarity_defect"] < 1e-10
        assert sweep["wall_s"] > 0.0
    assert change["wall_s"] == pytest.approx(
        sum(s["wall_s"] for s in change["sweeps"].values()))

    monkeypatch.setattr(sys, "path", list(sys.path))   # measure adds one
    matrices = scaling.measure_smatrix(12)["matrices"]
    skipped = {leads: len(s["skipped"])
               for leads, s in change["sweeps"].items()}
    assert {leads: len(m) + skipped[leads]
            for leads, m in matrices.items()} == {"2": 90, "10": 90}
    assert len(matrices["10"][0][1]) == 2 * 10 * 10
    assert scaling.compare_smatrix(matrices, matrices) == {
        "same_energies": True, "max_entry_change": 0.0}
    moved = {leads: [[s, [x + 1e-12 for x in v]] for s, v in m]
             for leads, m in matrices.items()}
    assert scaling.compare_smatrix(matrices, moved)[
        "max_entry_change"] == pytest.approx(1e-12, rel=1e-3)
    fewer = {leads: m[1:] for leads, m in matrices.items()}
    assert scaling.compare_smatrix(matrices, fewer) == {
        "same_energies": False, "max_entry_change": None}
