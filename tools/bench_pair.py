"""Interleaved benchmark runs of a base revision and this checkout.

    python3 tools/bench_pair.py --workload smatrix-sweep --seed 1 --seed 4242
    python3 tools/bench_pair.py --workload homog-study --pairs 3 --base HEAD~1

The base revision (default HEAD) is extracted with ``git archive`` into
tools/.bench-work/base, emptied first; the change is this checkout's
working tree, uncommitted edits included.  For each --seed (default 1),
each of --pairs pairs runs ``perfbench/run.py --trace 0`` once in each
tree, for the run_seconds of BENCHMARK.json and one process at a time,
base first in even pairs and change first in odd ones, so that a drift of
the machine's load falls on both sides alike.

Writes BENCH_<workload>.json at the root of the checkout: the revision
and git tree of each side, the environment and, per seed, every run's
JSON line with its pair, position and loadavg, per side and metric the
median and quartiles of the runs, and the number of pairs in which the
change was better (lower: every end-to-end metric of run.py is better
lower).  The change side's tree is that of the working tree when the
runs start, so it differs from the base's whenever the two sides ran
different files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "tools", ".bench-work")


def git(*args, cwd=ROOT, env=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def worktree_tree(root: str = ROOT) -> str:
    """The git tree of the files in root as they are now: tracked files
    with their uncommitted edits and untracked files that .gitignore does
    not exclude.  They are staged in a scratch index, so the repository's
    own index is left as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("add", "--all", ".", cwd=root, env=env)
        return git("write-tree", cwd=root, env=env)


def extract(rev: str, dest: str):
    """The tree of rev, as git archive writes it, in dest."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_seconds() -> float:
    """The run length BENCHMARK.json fixes for every run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def run_once(tree: str, args, seed: int) -> dict:
    """One perfbench run in tree: its JSON line and its environment line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(seed), "--seconds", str(run_seconds()),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"error: run in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 2)[2]) for line in lines
               if line.startswith("# environment "))
    return {"result": json.loads(lines[-1]), "loadavg": env["loadavg"]}


def interleaved(trees: dict, args, seed: int) -> dict:
    """args.pairs alternating pairs at one seed, and their summary."""
    runs = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for position, side in enumerate(order):
            run = run_once(trees[side], args, seed)
            runs.append({"pair": pair, "position": position, "side": side,
                         **run})
            wall = run["result"]["metrics"]["wall_s"]["value"]
            print(f"seed {seed} pair {pair} {side:6s} wall_s {wall:.3f}",
                  file=sys.stderr, flush=True)
    metrics = list(runs[0]["result"]["metrics"])
    by_side = {side: [r for r in runs if r["side"] == side] for side in trees}

    def values(side, m):
        return [r["result"]["metrics"][m]["value"] for r in by_side[side]]

    return {
        "correct": all(r["result"]["correct"] for r in runs),
        "runs": runs,
        "summary": {side: {m: summary(values(side, m)) for m in metrics}
                    for side in trees},
        "change_better_pairs": {
            m: sum(c < b for b, c in zip(values("base", m),
                                         values("change", m)))
            for m in metrics},
    }


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def environment() -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": model,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, action="append")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--base", default="HEAD")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    seeds = args.seed or [1]

    revisions = {
        "base": {"rev": git("rev-parse", args.base),
                 "tree": git("rev-parse", f"{args.base}^{{tree}}")},
        "change": {"rev": git("rev-parse", "HEAD"), "tree": worktree_tree()},
    }
    base_tree = os.path.join(WORK, "base")
    extract(args.base, base_tree)
    trees = {"base": base_tree, "change": ROOT}
    try:
        by_seed = {str(seed): interleaved(trees, args, seed)
                   for seed in seeds}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    report = {
        "workload": args.workload, "pairs": args.pairs,
        "seconds": run_seconds(),
        **revisions,
        "environment": environment(),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seeds": by_seed,
    }
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for seed, rep in by_seed.items():
        for m, base in rep["summary"]["base"].items():
            change = rep["summary"]["change"][m]
            print(f"seed {seed} {m:12s} base {base['median']:.4g} "
                  f"(IQR {base['iqr']:.3g})  change {change['median']:.4g} "
                  f"(IQR {change['iqr']:.3g})  change better in "
                  f"{rep['change_better_pairs'][m]}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
