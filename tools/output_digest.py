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

    python3 tools/output_digest.py --seed 1 --dump /tmp/before
    python3 tools/output_digest.py --seed 1 --against /tmp/before

--dump DIR writes each job's stdout to DIR/<workload>-<index>-<tag>.out.
--against DIR reads those files back, from a run of another checkout,
and appends to the line of each job whose output differs how many of
its numbers changed and the largest absolute and relative changes among
them (each taken over every changed number, so a last-bit change of a
number near 0 reads large relative and small absolute), and in which
columns of its CSV tables they sit, with how many changed in each
("elsewhere" for the numbers outside a table; nothing when none sits
in a table).  Numbers
are found and compared by the rule of tests/test_pinned.py; an output
whose text around the numbers differs, or that is missing from DIR, is
reported as such.  The report ends with one line per workload (check
and the demos included): how many of its outputs differ, the largest
absolute and relative changes of a number among them, the changed
numbers per column, and how many differ
in their text or are missing; a last line counts all the jobs that
differ.  With --against the exit status is 1 when any output differs
from its dump or is missing there, and 0 when every one is the same, byte
for byte; without it, 0.
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
import importlib.util  # noqa: E402
import io  # noqa: E402
import runpy  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join("tools", ".digest-work")


def run(call) -> tuple[int, str]:
    """(exit code, stdout) of call(), run in this process; call returns
    the exit code."""
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
    return rc, out.getvalue()


def pinned_rule():
    """tests/test_pinned.py as a module: its _split and _same_number."""
    path = os.path.join(ROOT, "tests", "test_pinned.py")
    spec = importlib.util.spec_from_file_location("test_pinned", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def changes(got: str, want: str, rule):
    """The (got, want) pairs of numbers that differ, or None when the text
    around the numbers differs."""
    got_text, got_numbers = rule._split(got)
    want_text, want_numbers = rule._split(want)
    if got_text != want_text or len(got_numbers) != len(want_numbers):
        return None
    return [(g, w) for g, w in zip(got_numbers, want_numbers)
            if not (g == w or g != g and w != w)]


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _is_header(line: str) -> bool:
    """A CSV header: two or more comma-separated names, none of them
    blank, spaced or a number."""
    fields = line.split(",")
    return (not line.startswith("#") and len(fields) > 1
            and all(f and " " not in f and not _is_number(f) for f in fields))


def columns(got: str, want: str, rule) -> Counter:
    """{column: how many of its numbers changed} for got and want whose
    text around the numbers is the same, over their CSV rows: the lines
    under a header line with as many fields as it has.  Changed numbers
    outside such rows count under "elsewhere"."""
    counts, header = Counter(), []
    for got_line, want_line in zip(got.splitlines(), want.splitlines()):
        if _is_header(got_line):
            header = got_line.split(",")
            continue
        cells, names = zip(got_line.split(","), want_line.split(",")), header
        if got_line.count(",") + 1 != len(header):     # not a row
            cells, names = [(got_line, want_line)], ["elsewhere"]
        for name, (g, w) in zip(names, cells):
            counts[name] += len(changes(g, w, rule))
    return +counts      # without the columns where nothing changed


def by_column(counts: Counter) -> str:
    """'; by column a: 3, b: 1', or '' when no changed number sits in a
    column."""
    if not counts.keys() - {"elsewhere"}:
        return ""
    return "; by column " + ", ".join(f"{k}: {n}" for k, n in counts.items())


def worst(changed) -> tuple[float, float]:
    """The largest absolute and relative change among changed pairs."""
    return (max(abs(g - w) for g, w in changed),
            max(abs(g - w) / max(abs(g), abs(w)) for g, w in changed))


def compare(got: str, want: str, rule) -> str:
    """How got differs from want: '' when equal, else a short report."""
    if got == want:
        return ""
    changed = changes(got, want, rule)
    if changed is None:
        return "text differs"
    if not changed:
        return "numbers written differently"
    worst_abs, worst_rel = worst(changed)
    report = (f"{len(changed)} of {len(rule._split(got)[1])} numbers "
              f"changed, max abs {worst_abs:.2g}, max rel {worst_rel:.2g}")
    if any(not rule._same_number(g, w) for g, w in changed):
        report += " (beyond the pinned tolerance)"
    return report + by_column(columns(got, want, rule))


def run_demo(path) -> int:
    runpy.run_path(path, run_name="__main__")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", default="all")
    p.add_argument("--dump", metavar="DIR",
                   help="write each job's stdout to DIR")
    p.add_argument("--against", metavar="DIR",
                   help="compare each job's stdout with the one in DIR")
    args = p.parse_args(argv)
    dump = args.dump and os.path.abspath(args.dump)
    against = args.against and os.path.abspath(args.against)

    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import inputs
    from qgs.cli import main as qgs_main

    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in inputs.WORKLOADS]
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; choose from "
                f"{', '.join(inputs.WORKLOADS)} or all")
    rule = pinned_rule() if against else None
    if dump:
        os.makedirs(dump, exist_ok=True)
    tally = {}      # per workload, as the report's last lines give it

    def report(name, i, tag, call):
        rc, text = run(call)
        digest = hashlib.sha256(text.encode()).hexdigest()
        line = f"{name} {i:03d} {tag} exit={rc} sha256={digest}"
        base = f"{name}-{i:03d}-{tag}.out"
        if dump:
            with open(os.path.join(dump, base), "w") as fh:
                fh.write(text)
        if against:
            counts = tally.setdefault(
                name, {"outputs": 0, "differ": 0, "numbers": [], "text": 0,
                       "columns": Counter()})
            counts["outputs"] += 1
            try:
                with open(os.path.join(against, base)) as fh:
                    want = fh.read()
                change = compare(text, want, rule)
            except FileNotFoundError:
                want, change = None, "missing"
            if change:
                counts["differ"] += 1
                line += f" differs: {change}"
                changed = None if want is None else changes(text, want, rule)
                if changed is None:
                    counts["text"] += 1
                else:
                    counts["numbers"] += changed
                    counts["columns"] += columns(text, want, rule)
        print(line, flush=True)

    shutil.rmtree(WORK, ignore_errors=True)
    for name in names:
        workdir = os.path.join(WORK, name)
        os.makedirs(workdir)
        jobs = inputs.WORKLOADS[name](inputs.Inputs(workdir, args.seed))
        for i, job in enumerate(jobs):
            report(name, i, job["tag"], lambda: qgs_main(job["argv"]))
    if args.workload == "all":
        report("check", 0, "check", lambda: qgs_main(["check"]))
        demos = sorted(f for f in os.listdir("demos") if f.endswith(".py"))
        for i, demo in enumerate(demos):
            report("demo", i, demo,
                   lambda: run_demo(os.path.join("demos", demo)))
    for name, counts in tally.items():
        line = (f"# {name}: {counts['differ']} of {counts['outputs']} "
                "outputs differ")
        if counts["numbers"]:
            line += ", max abs {:.2g}, max rel {:.2g}".format(
                *worst(counts["numbers"])) + by_column(counts["columns"])
        if counts["text"]:
            line += f", {counts['text']} in their text or missing"
        print(line, flush=True)
    if not against:
        return 0
    differ = sum(counts["differ"] for counts in tally.values())
    print(f"# {differ} outputs differ from {args.against}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
