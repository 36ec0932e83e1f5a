"""Benchmark of the four qgs subcommands, driven through qgs.cli.main.

    python3 perfbench/run.py --workload spectrum-ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One process per run, one client, one job at a time (closed loop): a job is
one CLI invocation on inputs generated from the seed.  The job list is run
in passes until --seconds have elapsed and at least 100 jobs have run;
every job's output is checked (see README.md).
With --trace 0 the run reports end-to-end metrics; with --trace 1 it wraps
the program's layers (layers.py) and reports per-layer metrics per pass.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: a multi-threaded BLAS on a shared machine
# turns a 10 ms linear solve into seconds.
THREAD_PINS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_ROUNDS = 3
MIN_SAMPLES = 100        # so that p90 has at least ten jobs beyond it
JOB_DEADLINE_S = 60.0
RUN_DEADLINE_S = 150.0   # from process start; the run must end within 180 s
START = time.perf_counter()

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_s.p50": "s",
              "job_s.p90": "s", "peak_rss_mb": "MB"}


class Deadline(BaseException):
    """Raised inside a job that outlives its deadline (not an Exception,
    so no handler in the program can swallow it)."""


def _alarm(signum, frame):
    raise Deadline()


def load_program():
    """Import qgs.cli from this checkout's src/, never an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "qgs")):
        raise SystemExit(f"error: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import qgs.cli
    if not os.path.abspath(qgs.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: qgs imported from {qgs.cli.__file__}")
    return qgs.cli


def import_seconds() -> float:
    """`import qgs.cli` in a fresh interpreter, timed inside it (the parent's
    wait polls in 50 ms steps)."""
    code = (f"import sys, time; sys.path.insert(0, {SRC!r}); "
            "t = time.perf_counter(); import qgs.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout)


def run_job(cli, job, deadline_s):
    """One CLI invocation: (seconds, failure reason or None, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline_s, 0.001))
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job["argv"])
        reason = None if rc == 0 else f"exit-{rc}"
    except Deadline:
        reason = "deadline"
    except Exception as exc:  # a traceback out of main: exit 1
        reason = f"raised:{type(exc).__name__}"
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, reason, out.getvalue()


def setup(cli, workload, seed, inputs, workroot):
    """Generate inputs and warm up; repeated, the median is setup_s."""
    times, jobs = [], None
    for r in range(SETUP_ROUNDS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workdir = os.path.join(workroot, str(r))
        os.makedirs(workdir)
        inp = inputs.Inputs(workdir, seed)
        jobs = inputs.WORKLOADS[workload](inp)
        _, reason, _ = run_job(cli, inputs.warmup_job(inp, jobs[0]["kind"]),
                               JOB_DEADLINE_S)
        if reason is not None:
            raise SystemExit(f"error: warm-up job failed: {reason}")
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), jobs


def measure(cli, jobs, seconds, checks, tracer=None):
    """Run the job list in passes until `seconds` have elapsed and at
    least MIN_SAMPLES jobs have run."""
    first_text = {}
    verdicts = {}
    samples, passes = [], []
    reasons, known = Counter(), Counter()
    wrong = skipped = 0
    t_start = time.perf_counter()
    while True:
        pass_s = 0.0
        for i, job in enumerate(jobs):
            left = RUN_DEADLINE_S - (time.perf_counter() - START)
            if left <= 0:   # not run: attempted, failed, no latency sample
                reasons["deadline"] += 1
                skipped += 1
                continue
            if tracer is not None:
                tracer.install()
            try:
                dt, reason, text = run_job(cli, job, min(JOB_DEADLINE_S, left))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            pass_s += dt
            job["seconds"] = job.get("seconds", 0.0) + dt
            samples.append(dt)
            if reason is None:
                if i not in first_text:
                    first_text[i] = text
                    verdicts[i] = checks.verdict(job, text)
                reason = ("output-changed" if text != first_text[i]
                          else verdicts[i])
            elif reason != "deadline":
                reason = checks.classify_failure(job, reason)
            if reason is None:
                continue
            job.setdefault("reasons", Counter())[reason] += 1
            if reason in checks.KNOWN_DEFECTS:
                known[reason] += 1
            else:
                reasons[reason] += 1
                wrong += reason != "deadline"
        passes.append(pass_s)
        if time.perf_counter() - START >= RUN_DEADLINE_S:
            break
        if time.perf_counter() - t_start >= seconds and \
                len(samples) >= MIN_SAMPLES:
            break
    return {"samples": samples, "passes": passes, "reasons": reasons,
            "known": known, "wrong": wrong,
            "attempted": len(samples) + skipped}


def environment() -> dict:
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "thread_pins": THREAD_PINS, "loadavg": os.getloadavg()}


def run_one(args) -> dict:
    cli = load_program()
    import checks
    import inputs
    workroot = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, jobs = setup(cli, args.workload, args.seed, inputs, workroot)
        tracer = None
        if args.trace:
            import layers
            tracer = layers.Tracer()
        m = measure(cli, jobs, args.seconds, checks, tracer)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    samples = m["samples"]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    attempted = m["attempted"]
    failed = sum(m["reasons"].values())
    known = sum(m["known"].values())
    if args.trace:
        import layers
        units = layers.metric_units()
        values = tracer.metrics(len(m["passes"]))
    else:
        units = END_TO_END
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"setup_s": setup_s, "wall_s": statistics.median(m["passes"]),
                  "job_s.p50": statistics.median(samples),
                  "job_s.p90": deciles[-1], "peak_rss_mb": rss_kb / 1024.0}
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs_per_pass": len(jobs), "passes": len(m["passes"]),
        "fail_ratio": (failed + known) / attempted, "known": known,
        "reasons": dict(sorted(m["reasons"].items())),
        "known_reasons": dict(sorted(m["known"].items())),
        "job_reasons": sorted({(job["tag"], r) for job in jobs
                               for r in job.get("reasons", ())}),
        "tag_seconds": _tag_seconds(jobs, len(m["passes"])),
        "environment": environment(),
        "result": {"correct": m["wrong"] == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {k: {"value": values[k], "unit": units[k]}
                               for k in units}},
    }


def _tag_seconds(jobs, passes) -> dict:
    """(seconds per pass, jobs) for each input tag: where a pass's time goes."""
    seconds, count = Counter(), Counter()
    for job in jobs:
        seconds[job["tag"]] += job.get("seconds", 0.0) / passes
        count[job["tag"]] += 1
    return {tag: (sec, count[tag]) for tag, sec in seconds.most_common()}


def print_report(rep: dict):
    import checks
    res = rep["result"]
    print(f"# workload={rep['workload']} seed={rep['seed']} "
          f"trace={rep['trace']} jobs/pass={rep['jobs_per_pass']} "
          f"passes={rep['passes']} samples={res['attempted']}")
    print("# environment " + json.dumps(rep["environment"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':48s} {rep['fail_ratio']:.6g} ratio "
          f"({res['failed']} failed and {rep['known']} known defects "
          f"of {res['attempted']})")
    for reason, n in rep["reasons"].items():
        print(f"# failed: {reason} x{n}")
    for reason, n in rep["known_reasons"].items():
        print(f"# known defect: {reason} x{n}")
    print("# seconds per pass by input (jobs): " + ", ".join(
        f"{tag} {sec:.2f} ({n})" for tag, (sec, n) in rep["tag_seconds"].items()))
    for tag, reason in rep["job_reasons"]:
        kind = "known defect" if reason in checks.KNOWN_DEFECTS else "failing"
        print(f"# {kind} input: {tag} ({reason})")


def run_all(args) -> int:
    """Each workload in its own process; one table, one JSON line."""
    import inputs
    summary = {}
    for name in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    import inputs
    if args.workload not in inputs.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(inputs.WORKLOADS)} or all")
    rep = run_one(args)
    print_report(rep)
    print(json.dumps(rep["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
