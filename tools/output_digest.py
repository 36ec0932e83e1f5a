"""Digest of the CLI's answers on the benchmark job lists.

    python3 tools/output_digest.py --seed 1
    python3 tools/output_digest.py --seed 4242 --workload invert-roundtrip

Builds the job lists of perfbench/inputs.py for the seed, runs every job
once through ``qgs.cli.main`` in this process (the package is imported
from this checkout's src/) and prints one line per job:

    <workload> <index> <tag> exit=<code> sha256=<digest of stdout>

Without --workload every workload runs, followed by ``qgs check`` and
every script in demos/ (run as __main__, in name order, tagged with its
file name).  A job or demo that raises is reported as exit=1.  The input
files go to tools/.digest-work, emptied first, and jobs name them by paths
relative to the checkout root, so the paths that outputs echo are the same
in every checkout: the digests of two checkouts can be compared with diff.
Nothing under perfbench/ is written.
"""

from __future__ import annotations

import os

# as in perfbench/run.py: one BLAS thread, set before numpy loads
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import runpy  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join("tools", ".digest-work")


def run(call) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of call(), run in this process; call
    returns the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rc = call()
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback out of the call: exit 1
            rc = 1
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def run_demo(path) -> int:
    runpy.run_path(path, run_name="__main__")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", default="all")
    args = p.parse_args(argv)

    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import inputs
    from qgs.cli import main as qgs_main

    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in inputs.WORKLOADS]
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; choose from "
                f"{', '.join(inputs.WORKLOADS)} or all")
    shutil.rmtree(WORK, ignore_errors=True)
    for name in names:
        workdir = os.path.join(WORK, name)
        os.makedirs(workdir)
        jobs = inputs.WORKLOADS[name](inputs.Inputs(workdir, args.seed))
        for i, job in enumerate(jobs):
            rc, digest = run(lambda: qgs_main(job["argv"]))
            print(f"{name} {i:03d} {job['tag']} exit={rc} sha256={digest}",
                  flush=True)
    if args.workload == "all":
        rc, digest = run(lambda: qgs_main(["check"]))
        print(f"check 000 check exit={rc} sha256={digest}", flush=True)
        demos = sorted(f for f in os.listdir("demos") if f.endswith(".py"))
        for i, demo in enumerate(demos):
            rc, digest = run(lambda: run_demo(os.path.join("demos", demo)))
            print(f"demo {i:03d} {demo} exit={rc} sha256={digest}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
