"""The benchmark pair script's record of what each side ran."""

import importlib.util
import os
import subprocess

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
