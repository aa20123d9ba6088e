"""The sl2btree benchmark: one command for every workload and metric.

    python3 bench/run.py --workload congruence --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src. Each
run starts one workload process (worker.py) that drives
`sl2btree.cli.main(argv)` in process: one client, closed loop, one
thread, full passes over the workload's job list until --seconds have
gone by. Every job's output is judged here, in a process that never
imports the package, by the oracles in oracles.py.

The human-readable lines name each metric with its unit; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones, measured
untraced. With --trace 1 the run makes one untraced pass and one traced
pass, prints the per-layer table, reports the per-layer metrics and the
tracing overhead, and writes the spans to bench/out/ at exit.
"""

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 21
JOB_CAP_S = 60.0  # per job, untraced; a traced pass runs several times slower
TRACED_JOB_CAP_S = 120.0
MEMORY_CAP_MB = 2048  # address space of the workload process
RUN_BUDGET_S = 170.0  # a whole run, so that it always exits within 180 s
GRACE_S = 15.0  # silence beyond a job's cap after which the worker is killed
# The shared 2-vCPU VM the benchmark was defined on drifts in speed by 10-30%,
# over seconds and over minutes. Between jobs, at most about a second of job
# time apart, the worker times a fixed reference job on a frozen copy of the
# package (worker.REFERENCE_JOB), and each job's time is scaled by
# REFERENCE_S / (the mean of the reference times just before and just after
# it): seconds at the speed the machine had when REFERENCE_S was measured.
REFERENCE_S = 0.19
# Set-up is mostly imports, which the reference job does not track. Each
# set-up is followed by the same set-up on the frozen copy, and its time is
# scaled by SETUP_REFERENCE_S / (that frozen set-up's time).
SETUP_REFERENCE_S = 0.045


class Runner:
    """Runs one workload in worker processes and judges every job."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.jobs = workloads.jobs_for(workload, seed)
        self.records = []  # (pass, index, seconds, Outcome)
        self.record_refs = []  # per record: [reference before, reference after or None]
        self.broken_passes = set()  # passes a worker died in: no pass time
        self.setup_samples = []  # (package, frozen copy) seconds per set-up
        self.references = []  # every reference time, in order
        self.peak_rss_kb = 0
        self.per_layer = None
        self.job_cap_s = TRACED_JOB_CAP_S if trace else JOB_CAP_S
        self.memory_cap_mb = MEMORY_CAP_MB
        self._judged = {}

    def judge(self, job, record):
        """The oracle's verdict on one job record."""
        if record["error"]:
            return oracles.Outcome("failed", record["error"])
        key = (record["index"], record["code"], oracles.digest(record["stdout"]))
        if key not in self._judged:
            self._judged[key] = oracles.check(job, record["code"], record["stdout"])
        return self._judged[key]

    def run(self):
        t0 = time.monotonic()
        resume = (0, 0)
        while resume is not None:
            elapsed = time.monotonic() - t0
            left = RUN_BUDGET_S - elapsed
            if left < 5.0 or (resume[0] >= 1 and elapsed >= self.seconds):
                break
            resume = self._run_worker(resume, max(0.0, self.seconds - (time.monotonic() - t0)), left)
        return self

    def _run_worker(self, resume, seconds, budget):
        """One worker from `resume` = (pass, job); returns where to resume or None."""
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        )
        cap = self.job_cap_s
        request = {
            "src": SRC, "workload": self.workload, "seed": self.seed, "seconds": seconds,
            "trace": self.trace, "resume": list(resume), "budget_s": budget - GRACE_S,
            "job_cap_s": cap, "memory_cap_mb": self.memory_cap_mb,
            "setup_repeats": SETUP_REPEATS if resume == (0, 0) else 1,
            "spans_path": os.path.join(HERE, "out", f"spans-{self.workload}-seed{self.seed}.jsonl"),
        }
        proc.stdin.write((json.dumps(request) + "\n").encode())
        proc.stdin.close()
        # Records are only collected while the worker runs and judged after it
        # ends, so that this process stays idle while jobs are timed.
        chunks, fault = [], None
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ)
        try:
            while True:
                if not sel.select(timeout=cap + GRACE_S):
                    fault = "worker silent past its job cap; killed"
                    proc.kill()
                    break
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            sel.close()
            try:
                code = proc.wait(timeout=GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            proc.stdout.close()
        nxt, done, pending = resume, False, []
        for line in b"".join(chunks).split(b"\n")[:-1]:
            rec = json.loads(line)
            if rec["type"] == "setup":
                self.setup_samples.extend(rec["samples"])
            elif rec["type"] == "job":
                job = self.jobs[rec["index"]]
                self.records.append((rec["pass"], rec["index"], rec["seconds"], self.judge(job, rec)))
                self.record_refs.append([self.references[-1], None])
                pending.append(self.record_refs[-1])
                nxt = (rec["pass"], rec["index"] + 1)
            elif rec["type"] == "reference":
                for refs in pending:
                    refs[1] = rec["seconds"]
                pending = []
                self.references.append(rec["seconds"])
            elif rec["type"] == "pass":
                nxt = (rec["pass"] + 1, 0)
            elif rec["type"] == "done":
                self.peak_rss_kb = max(self.peak_rss_kb, rec["peak_rss_kb"])
                self.per_layer = rec.get("per_layer")
                done = True
        if done:
            return None
        # the job in progress took the worker down: it failed, and the run goes on
        p, j = nxt
        if j >= len(self.jobs):
            p, j = p + 1, 0
        reason = fault or f"worker exited with status {code}"
        self.records.append((p, j, 0.0, oracles.Outcome("failed", reason)))
        self.record_refs.append([self.references[-1] if self.references else REFERENCE_S, None])
        self.broken_passes.add(p)
        print(f"job {self.jobs[j]['slot']} pass {p}: {reason}", file=sys.stderr)
        if self.trace and p >= 1 and j + 1 >= len(self.jobs):
            return None
        return (p, j + 1) if j + 1 < len(self.jobs) else (p + 1, 0)

    # -- metrics --------------------------------------------------------------

    def scaled(self):
        """(pass, job, seconds at the reference speed) for every record."""
        out = []
        for (p, j, s, _), (before, after) in zip(self.records, self.record_refs):
            ref = before if after is None else (before + after) / 2
            out.append((p, j, s * REFERENCE_S / ref))
        return out

    def pass_seconds(self, passes=None, records=None):
        totals = {}
        for p, _, seconds, *_ in records or self.records:
            totals[p] = totals.get(p, 0.0) + seconds
        return [
            s for p, s in sorted(totals.items())
            if p not in self.broken_passes and (passes is None or p in passes)
        ]

    def shares(self):
        n = len(self.records)
        failed = sum(1 for r in self.records if r[3].status == "failed")
        refused = sum(1 for r in self.records if r[3].status == "refused")
        return n, failed, refused

    def end_to_end(self):
        n, failed, refused = self.shares()
        scaled = self.scaled()
        by_job = {}
        for _, j, seconds in scaled:
            by_job.setdefault(j, []).append(seconds)
        # p50 over every job sample pooled over the passes; p90 over each
        # job's median, so that one slow sample of one job cannot move it
        # (a pooled p90 would have fewer than ten samples beyond it on the
        # shortest job lists)
        times = sorted(statistics.median(v) for v in by_job.values())
        cuts = statistics.quantiles(times, n=10, method="inclusive") if len(times) > 1 else times * 9
        passes = self.pass_seconds(records=scaled) or [sum(r[2] for r in scaled)]
        return {
            "setup_s": (statistics.median(
                own * SETUP_REFERENCE_S / frozen for own, frozen in self.setup_samples), "s"),
            "pass_s": (statistics.median(passes), "s"),
            "job_s.p50": (statistics.median(seconds for _, _, seconds in scaled), "s"),
            "job_s.p90": (cuts[8], "s"),
            "answered_share": ((n - failed - refused) / n, "ratio"),
            "peak_rss_mb": (self.peak_rss_kb / 1024, "MB"),
        }

    def layer_metrics(self):
        n, failed, refused = self.shares()
        m = dict(self.per_layer or {})
        scaled = self.scaled()
        plain, traced = self.pass_seconds({0}, scaled), self.pass_seconds({1}, scaled)
        overhead = traced[0] / plain[0] if plain and traced else 0.0
        m["trace.overhead"] = (overhead, "ratio")
        m["failed_share"] = (failed / n, "ratio")
        m["refused_share"] = (refused / n, "ratio")
        return m


def _print_table(title, metrics):
    print(title)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:40s} {value:16.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sl2btree", "cli.py")):
        print(f"bench: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    n, failed, refused = runner.shares()
    if not runner.setup_samples or not runner.references:
        print("bench: the workload process never got through set-up", file=sys.stderr)
        return 1
    wrong = [r for r in runner.records if r[3].wrong]
    for p, j, _, outcome in runner.records:
        if outcome.status != "ok" and p == 0:
            print(f"  {outcome.status:8s} {runner.jobs[j]['slot']}: {outcome.reason}")
    print(f"workload {args.workload}, seed {args.seed}: {n} jobs attempted, {failed} failed, "
          f"{refused} refused, {len(runner.pass_seconds())} full passes, "
          f"job p50 over all {n} job samples, p90 over the {len(runner.jobs)} jobs' median latencies")
    print("pass times (s, unscaled): " + " ".join(f"{s:.3f}" for s in runner.pass_seconds()))
    print(f"reference times (s): median {statistics.median(runner.references):.3f} of "
          f"{len(runner.references)}, from {min(runner.references):.3f} to "
          f"{max(runner.references):.3f}; pass and job times below are scaled to a "
          f"reference time of {REFERENCE_S} s")
    if args.trace:
        metrics = runner.layer_metrics()
        _print_table("per-layer metrics (pass 0 untraced, pass 1 traced):", metrics)
    else:
        metrics = runner.end_to_end()
        _print_table("end-to-end metrics:", metrics)
    result = {
        "correct": not wrong,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
