"""Self-test of the benchmark: closed forms, a one-pass smoke of every workload,
and corrupted answers that the oracles must catch.

    python3 bench/selftest.py

Exits 0 when every check holds. Takes about a minute.
"""

import sys
from fractions import Fraction

import oracles
import workloads
from run import Runner

FAILURES = []


def expect(cond, what):
    print(f"[{'PASS' if cond else 'FAIL'}] {what}")
    if not cond:
        FAILURES.append(what)


def _level(degree, prime_degrees):
    return {"degree": degree, "prime_degrees": prime_degrees}


def closed_forms():
    cases = [  # q, level, |SL2(R)|, covolume, cusps
        (3, _level(2, [1]), 648, Fraction(162), 36),  # t^2 over F_3
        (2, _level(3, [1]), 384, Fraction(384), 48),  # t^3 over F_2
        (2, _level(3, [3]), 504, Fraction(504), 63),  # t^3+t+1 over F_2
        (4, _level(1, [1]), 60, Fraction(20, 3), 5),  # t over F_4
    ]
    for q, level, order, covol, cusps in cases:
        got = (oracles.sl2_order(q, level), oracles.covolume(q, level), oracles.cusp_count(q, level))
        expect(got == (order, covol, cusps), f"closed forms q={q} {level}: {got}")
    for q, covol in ((8, Fraction(1, 49)), (9, Fraction(1, 64))):
        expect(oracles.covolume(q, None) == covol, f"Nagao covolume q={q} is {covol}")
    expect(workloads.fpoly.prime_factor_degrees((1, 1, 0, 1), 2) == [3], "t^3+t+1 is prime over F_2")
    job = {"check": "verify", "suites": ["busemann-cocycle"]}
    expect(oracles.check(job, 1, "busemann-cocycle: 36 checks, ok\n").wrong,
           "verify exiting 1 with every suite ok is caught")
    expect(oracles.check(job, 1, "busemann-cocycle: 36 checks, FAILED (1)\n  x\n").status == "failed",
           "a failing verify suite is a failed job")
    hyperbolic = {"check": "classify", "q": 2, "matrix": [(0, 1), (1,), (1,), ()], "argv": []}
    expect(oracles.check(hyperbolic, 0, '{"kind":"hyperbolic","length":4}\n').wrong,
           "a wrong translation length is caught")


class Corrupting(Runner):
    """A runner whose judge sees wrong answers: covolumes off by one, digests off."""

    def judge(self, job, record):
        out = record["stdout"]
        if job["check"] == "covolume" and record["code"] == 0:
            num, den = out.strip().split("/")
            record = dict(record, stdout=f"{int(num) + 1}/{den}\n")
        elif job["check"] in ("quotient", "contract", "digest") and record["code"] == 0:
            record = dict(record, stdout=out + "\n")
        return super().judge(job, record)


def smoke():
    runs = {w: Runner(w, seed=1, seconds=0, trace=False).run() for w in workloads.WORKLOADS}
    for name, r in runs.items():
        n, failed, refused = r.shares()
        expect(n == len(r.jobs), f"{name}: one pass ran all {len(r.jobs)} jobs ({n})")
        expect(not any(rec[3].wrong for rec in r.records), f"{name}: no answer contradicts an oracle")
        print(f"       {name}: failed {failed}/{n}, refused {refused}/{n}")
    expect(runs["geometry"].shares()[1] == 0, "geometry has no failed job")
    expect(runs["congruence"].shares()[2] > 0, "congruence shows the deg-4 size-guard refusal")
    expect(runs["horoball"].shares()[1] == 0, "horoball has no failed job")

    plain = runs["congruence"]
    bad = Corrupting("congruence", seed=1, seconds=0, trace=False).run()
    expect(bad.shares()[1] > plain.shares()[1], "corrupted answers raise failed_share on congruence")
    expect(any(rec[3].wrong for rec in bad.records), "corrupted answers make the run incorrect")
    reasons = {rec[3].reason.split(" ")[0] for rec in bad.records if rec[3].wrong}
    expect({"covolume", "stdout"} <= reasons, f"both the closed form and the digest caught it: {reasons}")


def known_defects():
    """The runs kept out of the workloads because they fail on the seed code.

    A check here that turns to FAIL means a defect was fixed: move the run
    into its workload and update BASELINE.json.
    """
    r = Runner("known-defects", seed=0, seconds=0, trace=False).run()
    for _, j, _, outcome in r.records:
        expect(outcome.status == "failed" and not outcome.wrong,
               f"known defect {r.jobs[j]['slot']} still fails: {outcome.reason}")


def caps():
    """Jobs past the time or memory cap fail, and the run goes on to the next job."""
    r = Runner("congruence", seed=1, seconds=0, trace=False)
    r.job_cap_s = 1.0
    r.run()
    timed_out = [rec for rec in r.records if rec[3].reason.startswith("time cap")]
    expect(len(timed_out) >= 2 and r.shares()[0] == len(r.jobs),
           f"a 1 s job cap fails the {len(timed_out)} slow congruence jobs and the pass completes")
    r = Runner("geometry", seed=1, seconds=0, trace=False)
    r.memory_cap_mb = 80
    r.run()
    bfs = [rec for rec in r.records if r.jobs[rec[1]]["slot"] == "verify-distance-bfs-F3"]
    expect(bfs and bfs[0][3].reason == "memory cap" and r.shares()[0] == len(r.jobs),
           "an 80 MB memory cap fails the F_3 distance-bfs job and the pass completes")


def main():
    closed_forms()
    caps()
    smoke()
    known_defects()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
