"""Record the stdout digests that the quotient/contract oracles compare against.

    python3 bench/record_digests.py

Runs every distinct argv of a digest-checked slot (over the seeds that
reach them all) through the package in ./src and rewrites
bench/digests.json. Run it only on the commit whose output is the
reference; later commits are checked against what it wrote.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import oracles
import workloads

DIGEST_CHECKS = {"quotient", "contract", "digest"}


def main():
    argvs = sorted({
        tuple(job["argv"])
        for workload in workloads.WORKLOADS
        for seed in range(1000)
        for job in workloads.jobs_for(workload, seed)
        if job["check"] in DIGEST_CHECKS
    })
    sys.path.insert(0, os.path.join(os.path.dirname(oracles.HERE), "src"))
    from sl2btree.cli import main as cli_main

    digests = {}
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(list(argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        digests[" ".join(argv)] = oracles.digest(out.getvalue())
        print(f"{digests[' '.join(argv)][:12]}  {' '.join(argv)}")
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=oracles.HERE).stdout.strip()
    with open(os.path.join(oracles.HERE, "digests.json"), "w") as fh:
        json.dump({"recorded_at": commit, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
