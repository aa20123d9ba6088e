"""The workload process: runs jobs through `sl2btree.cli.main(argv)` in process.

Started by run.py, one per workload run, with caps that bind this process
only: an address-space limit and a per-job wall-clock alarm. It reads one
JSON request on stdin and writes one JSON object per line on stdout:
a "setup" record, one "job" record per job, a "reference" record before
the first job and after some jobs (see REFERENCE_JOB), one "pass" record
per pass and a final "done" record. Everything the package prints is
captured per job; the oracles run in the parent, which never imports the
package.
"""

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

import tracing
import workloads


class JobTimeout(BaseException):
    """The per-job time cap fired (a BaseException, so package code cannot swallow it)."""


def _alarm(signum, frame):
    raise JobTimeout()


# A job run on a frozen copy of the package as first benchmarked (commit
# 2d27ffd, in frozen/sl2btree_frozen) at the start, after every job that
# ends REFERENCE_EVERY_S or more of job time since the last one, and at the
# end of every pass. It does the same kind of work as the package under test
# but never changes, so its time tracks how fast the shared machine runs
# next to the jobs around it. The machine's speed wanders on a scale of a
# second, so the references stay that close to the jobs they scale.
REFERENCE_JOB = ["covolume", "--lattice", "congruence", "--level", "t^2", "--depth", "8"]
REFERENCE_EVERY_S = 1.0


def _reference_seconds(frozen_main):
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        frozen_main(REFERENCE_JOB)
    return time.perf_counter() - t0


def _import_package(name):
    for mod in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[mod]
    return importlib.import_module(name + ".cli"), importlib.import_module(name + ".field")


def _setup_once(req, package):
    t0 = time.perf_counter()
    cli, fieldmod = _import_package(package)
    jobs = workloads.jobs_for(req["workload"], req["seed"])
    for job in jobs:
        argv = job["argv"]
        modulus = argv[argv.index("--modulus") + 1] if "--modulus" in argv else None
        fieldmod.field(job["q"], tuple(int(c) for c in modulus.split(",")) if modulus else None)
    cli.build_parser()
    return time.perf_counter() - t0, cli, jobs


def _setup(req, repeats):
    """Import the package, build the workload's fields, generate its inputs.

    Repeated on a fresh import each time, and each time followed by the same
    set-up on a fresh import of the frozen copy, whose time tracks how fast
    the machine runs imports just then. Returns the timing pairs (package,
    frozen copy), the CLI modules of the last imports and the job list.
    """
    samples = []
    for _ in range(repeats):
        gc.collect()
        seconds, cli, jobs = _setup_once(req, "sl2btree")
        gc.collect()
        frozen_seconds, frozen_cli, _ = _setup_once(req, "sl2btree_frozen")
        samples.append((seconds, frozen_seconds))
    return samples, cli, frozen_cli, jobs


def _run_job(main, argv, cap):
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        error = f"time cap of {cap:.0f} s"
    except MemoryError:
        error = "memory cap"
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code if isinstance(exc.code, int) else (1 if exc.code else 0)
    except Exception as exc:  # any other escape is a failed job, and the run goes on
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return code, error, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def main():
    req = json.loads(sys.stdin.readline())
    cap = req["memory_cap_mb"] * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    signal.signal(signal.SIGALRM, _alarm)
    sys.path.insert(0, req["src"])
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen"))
    channel = sys.stdout

    def emit(record):
        channel.write(json.dumps(record) + "\n")
        channel.flush()

    samples, cli, frozen_cli, jobs = _setup(req, req["setup_repeats"])
    frozen_main = frozen_cli.main
    emit({"type": "setup", "samples": samples})

    trace = req["trace"]
    tracer = None
    if trace and req["resume"][0] >= 1:
        tracer = tracing.install()
    t_start = time.perf_counter()
    deadline = time.monotonic() + req["budget_s"]
    p, i = req["resume"]
    emit({"type": "reference", "seconds": _reference_seconds(frozen_main)})
    since = 0.0  # job time since the last reference
    while True:
        for j in range(i, len(jobs)):
            job_cap = min(req["job_cap_s"], max(1.0, deadline - time.monotonic()))
            if tracer is not None:
                tracer.start_job(j)
            gc.collect()  # each job starts from a clean heap, as a fresh CLI process would
            code, error, seconds, stdout, stderr = _run_job(cli.main, jobs[j]["argv"], job_cap)
            emit({"type": "job", "pass": p, "index": j, "code": code, "error": error,
                  "seconds": seconds, "stdout": stdout, "stderr": stderr[-2000:]})
            since += seconds
            if since >= REFERENCE_EVERY_S or j == len(jobs) - 1:
                emit({"type": "reference", "seconds": _reference_seconds(frozen_main)})
                since = 0.0
        emit({"type": "pass", "pass": p})
        p, i = p + 1, 0
        if trace:
            if p == 2:
                break
            tracer = tracing.install()
        elif time.perf_counter() - t_start >= req["seconds"] or time.monotonic() >= deadline:
            break
    done = {"type": "done", "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        done["per_layer"] = tracer.metrics()
        os.makedirs(os.path.dirname(req["spans_path"]), exist_ok=True)
        tracer.write_spans(req["spans_path"])
    emit(done)


if __name__ == "__main__":
    main()
